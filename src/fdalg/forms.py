"""Double modules, general bilinear forms, and the correspondence with
anti-automorphisms of endomorphism algebras.

A double module carries two commuting right actions (written here as
action0/action1); a bilinear form b: M x M -> K satisfies the balance
laws b(xr,y) = b(x,y).0 r and b(x,yr) = b(x,y).1 r.  The i-dual of a
module is Hom(M, K_{1-i}) with the i-twisted action.  Defining equations
are verified exhaustively on basis tuples at construction time.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import verify
from .algebras import Algebra, AlgebraMap, center, matrix_algebra, opposite
from .errors import DimensionError, VerificationError
from .linalg import (
    Matrix,
    QuotientSpace,
    RowSpace,
    kernel_rows,
    mcombine,
    solve_columns,
    unit_vector,
    unvec,
    vcombine,
    vec,
    vzero,
)
from .modules import (
    Module,
    direct_sum,
    endomorphism_algebra,
    hom_space,
    is_generator,
    is_projective,
)


class DoubleModule:
    """One space with two commuting right actions of the same algebra."""

    def __init__(self, algebra: Algebra, dim: int, action0: Sequence[Matrix],
                 action1: Sequence[Matrix]):
        self.algebra = algebra
        self.dim = dim
        self.action0 = tuple(action0)
        self.action1 = tuple(action1)
        # K_0 and K_1; their constructors check the shapes of the actions
        self._modules = (Module(algebra, dim, self.action0, validate=False),
                         Module(algebra, dim, self.action1, validate=False))
        verify.require(verify.double_module(algebra, self.action0, self.action1))

    def module(self, i: int) -> Module:
        """K_i: the underlying space with the i-th action."""
        return self._modules[i]

    def action_matrix(self, a: Sequence, i: int) -> Matrix:
        return self.module(i).action_of(a)

    def act(self, k: Sequence, a: Sequence, i: int) -> tuple:
        return self.module(i).act(k, a)

    def __repr__(self):
        return f"DoubleModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"


class DoubleModuleInvolution:
    """theta with theta^2 = id and (k .i a)^theta = k^theta .(1-i) a."""

    def __init__(self, double_module: DoubleModule, matrix: Matrix):
        self.double_module = double_module
        self.matrix = matrix
        if matrix.nrows != double_module.dim or matrix.ncols != double_module.dim:
            raise DimensionError("involution matrix has wrong shape")
        verify.require(verify.squares_to_identity(matrix)
                       or verify.swaps_actions(double_module, matrix))

    def apply(self, k: Sequence) -> tuple:
        return self.matrix.act_row(k)


class TypeTag:
    """The automorphism of the center induced by a double module:
    k .0 c = k .1 sigma(c) for central c."""

    def __init__(self, center_data, images: Sequence[tuple]):
        self.center = center_data
        self.images = tuple(tuple(v) for v in images)  # sigma(z_j) in algebra coords

    def is_identity(self) -> bool:
        return all(img == z for img, z in zip(self.images, self.center.basis))


def type_of(K: DoubleModule) -> TypeTag:
    """Solve k .0 c = k .1 sigma(c) on the center; unique for faithful K_1."""
    A = K.algebra
    field = A.field
    cdata = center(A)
    cols = [vec(K.action_matrix(z, 1)) for z in cdata.basis]
    C = Matrix(field, cols, ncols=K.dim * K.dim).transpose()
    if kernel_rows(C):
        raise VerificationError("values module is not faithful enough to carry a type")
    coords = []
    for z in cdata.basis:
        sol = solve_columns(C, Matrix.column(field, vec(K.action_matrix(z, 0))))
        if sol is None:
            raise VerificationError("double module has no type on the center")
        coords.append(sol.column_tuple(0))
    # sigma must be an automorphism of the center
    if verify.bijective(Matrix(field, coords, ncols=cdata.dim)) is not None:
        raise VerificationError("induced center map is not bijective")
    images = [vcombine(field, A.dim, c, cdata.basis) for c in coords]
    for i, zi in enumerate(cdata.basis):
        for j, zj in enumerate(cdata.basis):
            lhs = vcombine(field, A.dim, cdata.coordinates(A.mul(zi, zj)), images)
            if lhs != A.mul(images[i], images[j]):
                raise VerificationError("induced center map is not multiplicative")
    return TypeTag(cdata, images)


class BilinearForm:
    """b: M x M -> K as a dim_M x dim_M array of K-vectors; the balance
    laws are checked on all basis triples."""

    def __init__(self, module: Module, values: DoubleModule, tensor):
        self.module = module
        self.values = values
        field = module.algebra.field
        self.tensor = tuple(
            tuple(tuple(field.coerce(x) for x in cell) for cell in row) for row in tensor
        )
        if module.algebra != values.algebra:
            raise DimensionError("form module and values over different algebras")
        d = module.dim
        if len(self.tensor) != d or any(len(r) != d for r in self.tensor):
            raise DimensionError("form tensor must be dim_M x dim_M")
        if d and any(len(cell) != values.dim for row in self.tensor for cell in row):
            raise DimensionError("form values have wrong dimension")
        verify.require(verify.balanced(self))

    def is_symmetric_under(self, theta: DoubleModuleInvolution) -> bool:
        d = self.module.dim
        return all(
            self.tensor[i][j] == theta.apply(self.tensor[j][i])
            for i in range(d)
            for j in range(d)
        )


# -- standard double modules -------------------------------------------

def standard_double_module(A: Algebra, gamma: AlgebraMap) -> DoubleModule:
    """A itself with k .0 r = gamma(r) k and k .1 r = k r."""
    if gamma.source != A or gamma.target != A:
        raise DimensionError("gamma must be an endo-map of A")
    if gamma.variance != AlgebraMap.ANTI or not gamma.is_bijective():
        raise VerificationError("gamma must be an anti-automorphism")
    action0 = [A.left_mult_matrix(gamma.apply(A.basis_vector(t))) for t in range(A.dim)]
    action1 = [A.right_mult_matrix(A.basis_vector(t)) for t in range(A.dim)]
    return DoubleModule(A, A.dim, action0, action1)


def standard_involution(K: DoubleModule, gamma: AlgebraMap) -> DoubleModuleInvolution:
    """gamma itself as an involution of its standard double module."""
    return DoubleModuleInvolution(K, gamma.matrix.transpose())


# -- duals --------------------------------------------------------------

class DualModule:
    """M^[i] = Hom(M, K_{1-i}) with the i-twisted action.

    ``maps`` identifies abstract coordinates with concrete hom matrices;
    ``evaluate`` applies an element to a vector of the source module.
    """

    def __init__(self, source: Module, values: DoubleModule, index: int,
                 module: Module, maps: Sequence[Matrix], space: RowSpace):
        self.source = source
        self.values = values
        self.index = index
        self.module = module
        self.maps = list(maps)
        self._space = space

    @property
    def dim(self) -> int:
        return self.module.dim

    def matrix_of(self, coords: Sequence) -> Matrix:
        return mcombine(self.source.algebra.field, self.source.dim, self.values.dim,
                        coords, self.maps)

    def coords_of(self, f: Matrix) -> Optional[tuple]:
        return self._space.coordinates(vec(f))

    def evaluate(self, coords: Sequence, x: Sequence) -> tuple:
        """(element with these coordinates)(x) in K."""
        return vcombine(self.source.algebra.field, self.values.dim, coords,
                        [m.act_row(x) for m in self.maps])


def dual_module(M: Module, K: DoubleModule, i: int) -> DualModule:
    """The i-K-dual of M with its evaluation data."""
    if i not in (0, 1):
        raise ValueError("dual index must be 0 or 1")
    if M.algebra != K.algebra:
        raise DimensionError("module and double module over different algebras")
    H = hom_space(M, K.module(1 - i))
    A = M.algebra
    field = A.field
    d = H.dim
    twist = K.action0 if i == 0 else K.action1
    action = []
    for t in range(A.dim):
        rows = []
        for f in H.basis:
            g = f * twist[t]
            coords = H.coords_of(g)
            if coords is None:
                raise VerificationError("twisted action leaves the hom space")
            rows.append(coords)
        action.append(Matrix(field, rows, ncols=d))
    module = Module(A, d, action, validate=False)
    return DualModule(M, K, i, module, H.basis, H._space)


def dual_morphism(f: Matrix, dual_target: DualModule, dual_source: DualModule) -> Matrix:
    """The i-dual of a morphism f: N -> N' as a matrix N'^[i] -> N^[i].

    ``dual_source`` is the dual of N', ``dual_target`` the dual of N; the
    image of g is g o f.
    """
    rows = []
    for g in dual_source.maps:
        comp = f * g
        coords = dual_target.coords_of(comp)
        if coords is None:
            raise VerificationError("dualized morphism leaves the hom space")
        rows.append(coords)
    return Matrix(dual_target.source.algebra.field, rows, ncols=dual_target.dim)


def phi_map(M: Module, K: DoubleModule):
    """The evaluation map Phi_M: M -> M^[1][0], (Phi x)(f) = f(x).

    Returns (matrix, dual1, dual10) in the computed dual bases.
    """
    dual1 = dual_module(M, K, 1)
    dual10 = dual_module(dual1.module, K, 0)
    field = M.algebra.field
    rows = []
    for i in range(M.dim):
        x = unit_vector(field, M.dim, i)
        ev = Matrix(field, [m.act_row(x) for m in dual1.maps], ncols=K.dim)
        coords = dual10.coords_of(ev)
        if coords is None:
            raise VerificationError("evaluation map leaves the double dual")
        rows.append(coords)
    return Matrix(field, rows, ncols=dual10.dim), dual1, dual10


# -- adjoints and the correspondence -----------------------------------

class AdjointData:
    """Left and right adjoint matrices of a form, in the dual bases."""

    def __init__(self, left: Matrix, right: Matrix, dual0: DualModule,
                 dual1: DualModule, left_regular: bool, right_regular: bool):
        self.left = left
        self.right = right
        self.dual0 = dual0
        self.dual1 = dual1
        self.left_regular = left_regular
        self.right_regular = right_regular


def adjoints(b: BilinearForm) -> AdjointData:
    """Ad_l b: M -> M^[0], x -> b(x,-) and Ad_r b: M -> M^[1], x -> b(-,x)."""
    M, K = b.module, b.values
    field = M.algebra.field
    dual0 = dual_module(M, K, 0)
    dual1 = dual_module(M, K, 1)
    left_rows = []
    right_rows = []
    for i in range(M.dim):
        lmat = Matrix(field, [b.tensor[i][j] for j in range(M.dim)], ncols=K.dim)
        coords = dual0.coords_of(lmat)
        if coords is None:
            raise VerificationError("left adjoint leaves the dual")
        left_rows.append(coords)
        rmat = Matrix(field, [b.tensor[j][i] for j in range(M.dim)], ncols=K.dim)
        coords = dual1.coords_of(rmat)
        if coords is None:
            raise VerificationError("right adjoint leaves the dual")
        right_rows.append(coords)
    left = Matrix(field, left_rows, ncols=dual0.dim)
    right = Matrix(field, right_rows, ncols=dual1.dim)
    left_regular = verify.bijective(left) is None
    right_regular = verify.bijective(right) is None
    return AdjointData(left, right, dual0, dual1, left_regular, right_regular)


class EndData:
    """An endomorphism algebra with its identification by matrices.

    ``algebra`` has product w*v = w o v (apply on the left), realized on
    matrices as mat(v) mat(w); this compatibility and the intertwining of
    every map are verified at construction.
    """

    def __init__(self, algebra: Algebra, maps: Sequence[Matrix], module: Module,
                 validate: bool = True):
        self.algebra = algebra
        self.maps = list(maps)
        self.module = module
        field = algebra.field
        self._space = RowSpace(field, module.dim * module.dim)
        for m in self.maps:
            self._space.insert(vec(m))
        # coordinates are taken with respect to the original maps, which
        # need not be in echelon form
        self._stack = Matrix(field, [vec(m) for m in self.maps],
                             ncols=module.dim * module.dim).transpose()
        if validate:
            if self._space.dim != len(self.maps):
                raise VerificationError("endomorphism maps are linearly dependent")
            verify.require(verify.intertwines(module.action, module.action, *self.maps))
            # mat(w v) = mat(v) mat(w): the maps are a right action of the opposite
            verify.require(verify.module_action(opposite(algebra), self.maps))

    @staticmethod
    def of_module(M: Module) -> "EndData":
        algebra, H = endomorphism_algebra(M)
        return EndData(algebra, H.basis, M, validate=False)

    def matrix_of(self, coords: Sequence) -> Matrix:
        d = self.module.dim
        return mcombine(self.algebra.field, d, d, coords, self.maps)

    def coords_of(self, mat: Matrix) -> Optional[tuple]:
        if not self._space.contains(vec(mat)):
            return None
        sol = solve_columns(self._stack, Matrix.column(self.algebra.field, vec(mat)))
        return sol.column_tuple(0) if sol is not None else None


def corresponding_anti_automorphism(b: BilinearForm,
                                    end: Optional[EndData] = None):
    """The anti-automorphism alpha of End(M) with b(wx,y) = b(x, alpha(w) y).

    Requires b regular (both adjoints invertible).  Returns (alpha, end).
    """
    adj = adjoints(b)
    if not (adj.left_regular and adj.right_regular):
        raise VerificationError("form is not regular; no corresponding map")
    M, K = b.module, b.values
    field = M.algebra.field
    if end is None:
        end = EndData.of_module(M)
    d = M.dim
    w_dim = end.algebra.dim
    # coefficient matrix C[(i,j,comp), v] = sum_s mat(w_v)[j][s] * b[i][s][comp]
    rows = []
    for i in range(d):
        for j in range(d):
            for comp in range(K.dim):
                row = []
                for v in range(w_dim):
                    mv = end.maps[v]
                    acc = field.zero
                    for s in range(d):
                        c = mv.rows[j][s]
                        if c != 0:
                            acc = field.add(acc, field.mul(c, b.tensor[i][s][comp]))
                    row.append(acc)
                rows.append(row)
    C = Matrix(field, rows, ncols=w_dim)
    if kernel_rows(C):
        raise VerificationError("values module not faithful enough: solution not unique")
    rhs_cols = []
    for u in range(w_dim):
        mu = end.maps[u]
        col = []
        for i in range(d):
            for j in range(d):
                for comp in range(K.dim):
                    acc = field.zero
                    for s in range(d):
                        c = mu.rows[i][s]
                        if c != 0:
                            acc = field.add(acc, field.mul(c, b.tensor[s][j][comp]))
                    col.append(acc)
        rhs_cols.append(col)
    RHS = Matrix(field, rhs_cols, ncols=C.nrows).transpose()
    sol = solve_columns(C, RHS)
    if sol is None:
        raise VerificationError("values module not faithful enough: no solution")
    # column u of sol = coordinates of alpha(w_u)
    alpha = AlgebraMap(end.algebra, end.algebra, sol, AlgebraMap.ANTI, validate=True)
    if not alpha.is_bijective():
        raise VerificationError("corresponding map is not bijective")
    return alpha, end


def form_from_adjoint(M: Module, K: DoubleModule, dual1: DualModule,
                      f: Matrix) -> BilinearForm:
    """The form with right adjoint f: M -> M^[1], i.e. b(x,y) = (f y)(x)."""
    if f.nrows != M.dim or f.ncols != dual1.dim:
        raise DimensionError("adjoint matrix has wrong shape")
    tensor = []
    for i in range(M.dim):
        row = []
        x = unit_vector(M.algebra.field, M.dim, i)
        for j in range(M.dim):
            row.append(dual1.evaluate(f.rows[j], x))
        tensor.append(row)
    return BilinearForm(M, K, tensor)


class FormFromAntiResult:
    """Output of :func:`form_from_anti_automorphism`."""

    def __init__(self, values: DoubleModule, form: BilinearForm,
                 involution: Optional[DoubleModuleInvolution],
                 quotient: QuotientSpace, end: EndData):
        self.values = values
        self.form = form
        self.involution = involution
        self.quotient = quotient
        self.end = end


def form_from_anti_automorphism(M: Module, alpha: AlgebraMap,
                                end: EndData) -> FormFromAntiResult:
    """Realize an anti-automorphism of End(M) by a bilinear form.

    Builds the tensor square of M modulo the End-balancing relations
    (alpha(w) m (x) n = m (x) w n), installs the two twisted actions, and
    returns the form b(x,y) = class(y (x) x) together with the swap
    involution when alpha is an involution.  The round trip through
    :func:`corresponding_anti_automorphism` is verified before returning.
    """
    A = M.algebra
    field = A.field
    if alpha.source != end.algebra or alpha.target != end.algebra:
        raise DimensionError("alpha must live on the endomorphism algebra")
    if alpha.variance != AlgebraMap.ANTI or not alpha.is_bijective():
        raise VerificationError("alpha must be an anti-automorphism")
    if not is_generator(M):
        raise VerificationError("module is not a generator")
    d = M.dim
    dd = d * d
    rel = RowSpace(field, dd)
    alpha_mats = [end.matrix_of(alpha.apply(end.algebra.basis_vector(u)))
                  for u in range(end.algebra.dim)]
    for u in range(end.algebra.dim):
        w = end.maps[u]
        wa = alpha_mats[u]
        for i in range(d):
            for j in range(d):
                # (alpha(w) e_i) (x) e_j  -  e_i (x) (w e_j)
                row = [field.zero] * dd
                for s in range(d):
                    c = wa.rows[i][s]
                    if c != 0:
                        row[s * d + j] = field.add(row[s * d + j], c)
                for t in range(d):
                    c = w.rows[j][t]
                    if c != 0:
                        row[i * d + t] = field.sub(row[i * d + t], c)
                rel.insert(row)
    quo = QuotientSpace(rel)
    k_dim = quo.dim
    if k_dim == 0:
        raise VerificationError("balancing relations collapse the tensor square")

    def tensor_action(v: Sequence, rho: Matrix, side: int) -> tuple:
        # v . (I x rho) = vec(V rho); v . (rho x I) = vec(rho^T V)
        V = unvec(field, v, d, d)
        return vec(V * rho if side == 0 else rho.transpose() * V)

    def swap(v: Sequence) -> tuple:
        # y (x) x -> x (x) y
        return vec(unvec(field, v, d, d).transpose())

    lifts = [quo.lift(unit_vector(field, k_dim, l)) for l in range(k_dim)]
    action0 = []
    action1 = []
    for t in range(A.dim):
        rho = M.action[t]
        rows0 = [quo.project(tensor_action(l, rho, 0)) for l in lifts]
        rows1 = [quo.project(tensor_action(l, rho, 1)) for l in lifts]
        action0.append(Matrix(field, rows0, ncols=k_dim))
        action1.append(Matrix(field, rows1, ncols=k_dim))
        # the actions must preserve the relation space
        for r in rel.rows:
            if not rel.contains(tensor_action(r, rho, 0)):
                raise VerificationError("action0 does not preserve the relations")
            if not rel.contains(tensor_action(r, rho, 1)):
                raise VerificationError("action1 does not preserve the relations")
    K = DoubleModule(A, k_dim, action0, action1)
    tensor = []
    for i in range(d):
        # b(x,y) = y (x) x
        tensor.append([quo.project(unit_vector(field, dd, j * d + i)) for j in range(d)])
    b = BilinearForm(M, K, tensor)
    theta = None
    if alpha.is_involution():
        rows = [quo.project(swap(l)) for l in lifts]
        for r in rel.rows:
            if not rel.contains(swap(r)):
                raise VerificationError("swap does not preserve the relations")
        theta = DoubleModuleInvolution(K, Matrix(field, rows, ncols=k_dim))
        if not b.is_symmetric_under(theta):
            raise VerificationError("constructed form is not theta-symmetric")
    back, _ = corresponding_anti_automorphism(b, end)
    if back.matrix != alpha.matrix:
        raise VerificationError("round trip does not recover the anti-automorphism")
    return FormFromAntiResult(K, b, theta, quo, end)


# -- progenerator checks ------------------------------------------------

def is_double_progenerator(K: DoubleModule) -> bool:
    """K_1 is a projective generator and action0 identifies the opposite
    algebra with End(K_1)."""
    K1 = K.module(1)
    if not is_generator(K1) or not is_projective(K1):
        return False
    H = hom_space(K1, K1)
    if H.dim != K.algebra.dim:
        return False
    space = RowSpace(K.algebra.field, K.dim * K.dim)
    for t in range(K.algebra.dim):
        space.insert(vec(K.action0[t]))
    return space.dim == K.algebra.dim


def involution_from_goldman(K: DoubleModule) -> DoubleModuleInvolution:
    """k -> k . g for the swap element g of a matrix algebra.

    Requires the algebra of K to be a matrix algebra on its matrix-unit
    basis and K to have identity type on the center.
    """
    A = K.algebra
    n = 1
    while n * n < A.dim:
        n += 1
    if n * n != A.dim or A != matrix_algebra(A.field, n):
        raise DimensionError("values algebra is not a matrix algebra on matrix units")
    tag = type_of(K)
    if not tag.is_identity():
        raise VerificationError("the Goldman involution needs identity type")
    field = A.field
    T = Matrix.zeros(field, K.dim, K.dim)
    for i in range(n):
        for j in range(n):
            eij = A.basis_vector(i * n + j)
            eji = A.basis_vector(j * n + i)
            T = T + K.action_matrix(eij, 0) * K.action_matrix(eji, 1)
    return DoubleModuleInvolution(K, T)


def orthogonal_sum(b: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Block form on the direct sum; regularity is checked to agree with
    the two summands on both sides."""
    if b.values is not b2.values and not (
        b.values.algebra == b2.values.algebra
        and b.values.dim == b2.values.dim
        and b.values.action0 == b2.values.action0
        and b.values.action1 == b2.values.action1
    ):
        raise DimensionError("orthogonal sum needs the same values module")
    K = b.values
    M = direct_sum([b.module, b2.module])
    field = M.algebra.field
    d1, d2 = b.module.dim, b2.module.dim
    zero = vzero(field, K.dim)
    tensor = []
    for i in range(d1 + d2):
        row = []
        for j in range(d1 + d2):
            if i < d1 and j < d1:
                row.append(b.tensor[i][j])
            elif i >= d1 and j >= d1:
                row.append(b2.tensor[i - d1][j - d1])
            else:
                row.append(zero)
        tensor.append(row)
    out = BilinearForm(M, K, tensor)
    adj = adjoints(out)
    a1 = adjoints(b)
    a2 = adjoints(b2)
    if adj.right_regular != (a1.right_regular and a2.right_regular):
        raise VerificationError("right regularity of the sum is inconsistent")
    if adj.left_regular != (a1.left_regular and a2.left_regular):
        raise VerificationError("left regularity of the sum is inconsistent")
    return out

"""Double modules, general bilinear forms, and the correspondence with
anti-automorphisms of endomorphism algebras.

A double module carries two commuting right actions (written here as
action0/action1); a bilinear form b: M x M -> K satisfies the balance
laws b(xr,y) = b(x,y).0 r and b(x,yr) = b(x,y).1 r.  The i-dual of a
module is Hom(M, K_{1-i}) with the i-twisted action.  Defining equations
are verified at construction time on basis tuples, or on the algebra's
generators where the equation is multiplicative in the algebra element.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import verify
from .algebras import Algebra, AlgebraMap, center, matrix_algebra, opposite
from .errors import DimensionError, VerificationError
from .linalg import (
    Coordinates,
    Matrix,
    QuotientSpace,
    RowSpace,
    coordinate_rows,
    invert,
    unit_vector,
    unvec,
    vec,
    vzero,
)
from .modules import (
    HomSpace,
    Module,
    direct_sum,
    endomorphism_algebra,
    hom_space,
    is_generator,
    is_projective,
)


class DoubleModule(verify.Verified):
    """One space with two commuting right actions of the same algebra.  ``DoubleModule(...)``
    checks both module laws and their commuting (:func:`verify.double_module`);
    ``DoubleModule._trusted`` also stores generators for K_0 and K_1.  Both check shapes."""

    def __init__(self, algebra: Algebra, dim: int, action0: Sequence[Matrix],
                 action1: Sequence[Matrix]):
        self._store(algebra, dim, action0, action1, ())
        verify.require(verify.double_module(algebra, self.action0, self.action1))

    def _store(self, algebra: Algebra, dim: int, action0: Sequence[Matrix],
               action1: Sequence[Matrix], generators) -> None:
        self.algebra = algebra
        self.dim = dim
        self.action0 = tuple(action0)
        self.action1 = tuple(action1)
        # K_0 and K_1; their constructors check the shapes of the actions
        self._modules = (Module._trusted(algebra, dim, self.action0, generators),
                         Module._trusted(algebra, dim, self.action1, generators))

    def module(self, i: int) -> Module:
        """K_i: the underlying space with the i-th action."""
        return self._modules[i]

    def __eq__(self, other):
        return isinstance(other, DoubleModule) and (
            (self.algebra, self.action0, self.action1)
            == (other.algebra, other.action0, other.action1))

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


def type_of(K: DoubleModule) -> AlgebraMap:
    """The type of K: the automorphism sigma of the center Z = ``center(A).as_algebra()``
    with k .0 z = k .1 sigma(z), solved on Z's basis; unique for faithful K_1.  It is an
    ``AlgebraMap`` Z -> Z, whose constructor proves sigma(1) = 1 and multiplicativity,
    so for a standard double module it equals ``restriction_to_center(gamma)``."""
    A = K.algebra
    Z, emb = center(A).as_algebra()
    # k .0 z = k .1 sigma(z): sigma(z) = sum_j c_j z_j where rho0(z) = sum_j c_j rho1(z_j)
    in_action1 = Coordinates(A.field, [vec(K.module(1).action_of(z)) for z in emb],
                             K.dim * K.dim)
    if not in_action1.independent:
        raise VerificationError("values module is not faithful enough to carry a type")
    coords = coordinate_rows(in_action1.of, (vec(K.module(0).action_of(z)) for z in emb),
                             "double module has no type on the center")
    # coords[j] are the coordinates of sigma(z_j), the columns of the matrix of sigma
    if verify.bijective(Matrix._trusted(A.field, coords, Z.dim)) is not None:
        raise VerificationError("induced center map is not bijective")
    return AlgebraMap.from_images(Z, Z, coords, AlgebraMap.HOMOMORPHISM)


class BilinearForm(verify.Verified):
    """b: M x M -> K as a dim_M x dim_M array of K-vectors.  ``BilinearForm(...)``
    coerces the tensor and proves the balance laws on the algebra's generators
    (:func:`verify.balanced`); the hyperbolic form and :func:`orthogonal_sum`
    inherit them and are built by ``BilinearForm._trusted``.  Both check the shapes."""

    def __init__(self, module: Module, values: DoubleModule, tensor):
        field = module.algebra.field
        self._store(module, values, (tuple(map(field.coerce_row, row)) for row in tensor))
        verify.require(verify.balanced(self))

    def _store(self, module: Module, values: DoubleModule, tensor) -> None:
        self.module = module
        self.values = values
        self.tensor = tuple(map(tuple, tensor))
        if module.algebra != values.algebra:
            raise DimensionError("form module and values over different algebras")
        d = module.dim
        if len(self.tensor) != d or any(len(r) != d for r in self.tensor):
            raise DimensionError("form tensor must be dim_M x dim_M")
        if d and any(len(cell) != values.dim for row in self.tensor for cell in row):
            raise DimensionError("form values have wrong dimension")

    def is_symmetric_under(self, theta: DoubleModuleInvolution) -> bool:
        d = self.module.dim
        return all(
            self.tensor[i][j] == theta.apply(self.tensor[j][i])
            for i in range(d)
            for j in range(d)
        )


# -- standard double modules -------------------------------------------

def standard_double_module(A: Algebra, gamma: AlgebraMap) -> DoubleModule:
    """A itself with k .0 r = gamma(r) k and k .1 r = k r.

    Built by ``DoubleModule._trusted``: both module laws and the commuting of the
    actions follow from associativity and from gamma being an anti-automorphism,
    which its constructor checked.  K_0 and K_1 carry 1, which generates both, as
    1 .0 r = gamma(r) with gamma bijective and 1 .1 r = r."""
    if gamma.source != A or gamma.target != A:
        raise DimensionError("gamma must be an endo-map of A")
    if gamma.variance != AlgebraMap.ANTI or not gamma.is_bijective():
        raise VerificationError("gamma must be an anti-automorphism")
    action0 = [A.left_mult_matrix(gamma.apply(A.basis_vector(t))) for t in range(A.dim)]
    action1 = [A.right_mult_matrix(A.basis_vector(t)) for t in range(A.dim)]
    return DoubleModule._trusted(A, A.dim, action0, action1, [A.unit])


def standard_involution(K: DoubleModule, gamma: AlgebraMap) -> DoubleModuleInvolution:
    """gamma itself as an involution of its standard double module."""
    return DoubleModuleInvolution(K, gamma.matrix.transpose())


# -- duals --------------------------------------------------------------

def dual_module(M: Module, K: DoubleModule, i: int):
    """The i-K-dual M^[i] of M as (Module, HomSpace): the basis of Hom(M, K_{1-i})
    identifies its coordinates with maps.  The twisted action f -> f action_i(a)
    keeps Hom(M, K_{1-i}), as the actions of K commute: read off V f action_i(a).
    Callers that need only coordinates call :func:`hom_space` directly."""
    if i not in (0, 1):
        raise ValueError("dual index must be 0 or 1")
    if M.algebra != K.algebra:
        raise DimensionError("module and double module over different algebras")
    H = hom_space(M, K.module(1 - i))
    A = M.algebra
    field = A.field
    d = H.dim
    twist = K.action0 if i == 0 else K.action1
    action = [Matrix._trusted(field, coordinate_rows(H.coords_of, (x * t for x in H.images),
                                                     "twisted action leaves the hom space"), d)
              for t in twist]
    return Module._trusted(A, d, action, ()), H


def dual_morphism(f: Matrix, dual_target: HomSpace, dual_source: HomSpace) -> Matrix:
    """The i-dual of a morphism f: N -> N' as a matrix N'^[i] -> N^[i].

    ``dual_source`` is Hom(N', K_{1-i}), the coordinates of the dual of N', and
    ``dual_target`` Hom(N, K_{1-i}); the image of g is g o f, a composite of module
    maps once f is checked to be A-linear, so its coordinates are read off V f g.
    :func:`corresponding_anti_automorphism` skips the check on End(M) basis maps.
    """
    N = dual_target.source
    verify.require(verify.intertwines(N.algebra, N.action, dual_source.source.action, f))
    return _dual_morphism(f, dual_target, dual_source)


def _dual_morphism(f: Matrix, dual_target: HomSpace, dual_source: HomSpace) -> Matrix:
    Vf = dual_target.generators * f
    rows = coordinate_rows(dual_target.coords_of, (Vf * g for g in dual_source.basis),
                           "dualized morphism leaves the hom space")
    return Matrix._trusted(dual_target.source.algebra.field, rows, dual_target.dim)


def phi_map(M: Module, K: DoubleModule):
    """The evaluation map Phi_M: M -> M^[1][0], (Phi x)(f) = f(x).

    Evaluation carries the action f -> f action1(a) of M^[1] to action1, so it is
    in Hom(M^[1], K_1): row i of its image of a generator v is (sum_k v_k f_k)(e_i).
    Returns (matrix, H1, H10), the hom spaces Hom(M, K_0) and Hom(M^[1], K_1)
    whose bases are the dual bases.
    """
    D1, H1 = dual_module(M, K, 1)
    H10 = hom_space(D1, K.module(1))
    field = M.algebra.field
    combos = [H1.matrix_from_coords(v) for v in H10.generators.rows]
    evals = (Matrix._trusted(field, tuple(g.rows[i] for g in combos), K.dim) for i in range(M.dim))
    rows = coordinate_rows(H10.coords_of, evals, "evaluation map leaves the double dual")
    return Matrix._trusted(field, rows, H10.dim), H1, H10


# -- adjoints and the correspondence -----------------------------------

class AdjointData:
    """Left and right adjoint matrices of a form, in the dual bases: those of
    ``dual0`` = Hom(M, K_1) for M^[0] and ``dual1`` = Hom(M, K_0) for M^[1]."""

    def __init__(self, left: Matrix, right: Matrix, dual0: HomSpace,
                 dual1: HomSpace, left_regular: bool, right_regular: bool):
        self.left = left
        self.right = right
        self.dual0 = dual0
        self.dual1 = dual1
        self.left_regular = left_regular
        self.right_regular = right_regular


def adjoints(b: BilinearForm) -> AdjointData:
    """Ad_l b: M -> M^[0], x -> b(x,-) and Ad_r b: M -> M^[1], x -> b(-,x).  The balance
    laws put b(e_i, -) in Hom(M, K_1) and b(-, e_i) in Hom(M, K_0)."""
    M, K = b.module, b.values
    field = M.algebra.field
    dual0 = hom_space(M, K.module(1))
    dual1 = hom_space(M, K.module(0))
    # b(e_i, -) is row i of the tensor, b(-, e_i) its column i
    V0, V1 = dual0.generators, dual1.generators
    left = Matrix._trusted(field, coordinate_rows(
        dual0.coords_of, (V0 * Matrix._trusted(field, row, K.dim) for row in b.tensor),
        "left adjoint leaves the dual"), dual0.dim)
    right = Matrix._trusted(field, coordinate_rows(
        dual1.coords_of, (V1 * Matrix._trusted(field, col, K.dim) for col in zip(*b.tensor)),
        "right adjoint leaves the dual"), dual1.dim)
    left_regular = verify.bijective(left) is None
    right_regular = verify.bijective(right) is None
    return AdjointData(left, right, dual0, dual1, left_regular, right_regular)


class EndData(verify.Verified):
    """An endomorphism algebra with its identification by matrices.

    ``algebra`` has product w*v = w o v (apply on the left), realized on
    matrices as mat(v) mat(w).  ``EndData(...)`` checks that the maps intertwine
    the module's action, are independent and satisfy this; :meth:`of_module` and
    :func:`involutions.matrix_ring_end_data` inherit all three.  ``EndData._trusted``
    stores ``hom``, a :class:`HomSpace` on the maps, which need not be in echelon form.
    """

    def __init__(self, algebra: Algebra, maps: Sequence[Matrix], module: Module):
        self._store(algebra, HomSpace(module, module, maps))
        verify.require(verify.intertwines(module.algebra, module.action, module.action,
                                          *self.maps))
        if not self.hom.independent:
            raise VerificationError("endomorphism maps are linearly dependent")
        # mat(w v) = mat(v) mat(w): the maps are a right action of the opposite
        verify.require(verify.module_action(opposite(algebra), self.maps))

    def _store(self, algebra: Algebra, hom: HomSpace) -> None:
        self.algebra = algebra
        self.hom = hom
        self.maps = hom.basis
        self.module = hom.source

    @staticmethod
    def of_module(M: Module) -> "EndData":
        return EndData._trusted(*endomorphism_algebra(M))

    def matrix_of(self, coords: Sequence) -> Matrix:
        return self.hom.matrix_from_coords(coords)

    def coords_of(self, mat: Matrix) -> Optional[tuple]:
        """The coordinates of an A-linear map of M, read off V mat (:meth:`HomSpace.coords_of`)."""
        return self.hom.coords_of(self.hom.generators * mat)


def corresponding_anti_automorphism(b: BilinearForm,
                                    end: Optional[EndData] = None):
    """The anti-automorphism alpha of End(M) with b(wx,y) = b(x, alpha(w) y).

    Requires b regular (both adjoints invertible).  With the right adjoint
    R: y -> b(-, y) the law reads R(alpha(w) y) = R(y) o w, so alpha(w) is
    R^-1 o w^[1] o R for the dual morphism w^[1]: g -> g o w of M^[1].
    Returns (alpha, end).  ``AlgebraMap._trusted`` builds alpha, anti and unital as
    (w o v)^[1] = v^[1] o w^[1] and 1^[1] = 1, from maps that ``end`` certifies A-linear.
    """
    adj = adjoints(b)
    if not (adj.left_regular and adj.right_regular):
        raise VerificationError("form is not regular; no corresponding map")
    end = EndData.of_module(b.module) if end is None else end
    if end.module.action != b.module.action:
        raise VerificationError("endomorphism data of another module")
    # on row vectors mat(alpha(w)) R = R mat(w^[1]); R is A-linear by the balance
    # laws, so alpha(w) is a composite of module maps, read off V R w^[1] R^-1
    R, R_inv = adj.right, invert(adj.right)
    VR = end.hom.generators * R
    images = coordinate_rows(
        end.hom.coords_of, (VR * _dual_morphism(w, adj.dual1, adj.dual1) * R_inv for w in end.maps),
        "corresponding map leaves the endomorphism algebra")
    # images[u] = coordinates of alpha(w_u), the columns of its matrix
    alpha = AlgebraMap._trusted(end.algebra, end.algebra, Matrix._trusted(
        b.module.algebra.field, tuple(zip(*images)), len(images)), AlgebraMap.ANTI)
    if not alpha.is_bijective():
        raise VerificationError("corresponding map is not bijective")
    return alpha, end


def form_from_adjoint(M: Module, K: DoubleModule, dual1: HomSpace,
                      f: Matrix) -> BilinearForm:
    """The form with right adjoint f: M -> M^[1], i.e. b(x,y) = (f y)(x), in the
    coordinates of ``dual1`` = Hom(M, K_0)."""
    if f.nrows != M.dim or f.ncols != dual1.dim:
        raise DimensionError("adjoint matrix has wrong shape")
    # f y_j as a map M -> K; its row i is b(e_i, e_j)
    images = [dual1.matrix_from_coords(row) for row in f.rows]
    return BilinearForm(M, K, [[g.rows[i] for g in images] for i in range(M.dim)])


class FormFromAntiResult:
    """Output of :func:`form_from_anti_automorphism`."""

    def __init__(self, values: DoubleModule, form: BilinearForm,
                 involution: Optional[DoubleModuleInvolution]):
        self.values = values
        self.form = form
        self.involution = involution


def form_from_anti_automorphism(M: Module, alpha: AlgebraMap,
                                end: EndData) -> FormFromAntiResult:
    """Realize an anti-automorphism of End(M) by a bilinear form.

    Builds the tensor square of M modulo the End-balancing relations
    (alpha(w) m (x) n = m (x) w n), installs the two twisted actions, and
    returns the form b(x,y) = class(y (x) x) together with the swap
    involution when alpha is an involution.  It proves that b is regular and
    corresponds to alpha (:func:`verify.corresponds`), so to alpha alone.

    The relations are never built: a d x d matrix X kills those of w exactly when
    mat(alpha(w)) X = X mat(w)^T, and both sides are right actions of E = End(M), as alpha
    is anti and ``end`` certifies mat(w o v) = mat(v) mat(w).  So :func:`hom_space` solves
    the functionals as Hom_E((F^d, mat alpha), (F^d, mat^T)) on the generators of E.  Its
    spin may start from any vectors, as unit vectors complete them to a basis; the module
    generators of M cut it short (K = 1 for A^n).  :meth:`QuotientSpace.of_functionals`
    reads the echelon complement of the relations off their span: the basis is unchanged.

    The balance laws and the theta-symmetry of b prove that the actions and the swap
    keep the relations rel.  With P = ``quo.project``, L = ``quo.lift`` and T the action
    of e_t on M (x) M, the installed A_t is P T L.  As b(x, y) = P(y (x) x), the balance
    law at e_t reads P T = P T L P, i.e. P T (I - L P) = 0, and I - L P maps M (x) M onto
    rel: the law holds exactly when T(rel) lies in rel.  ``BilinearForm`` proves it on
    ``A.generators``, which suffice: the a whose action keeps rel form a subalgebra.  With
    the swap S and theta = P S L, b is theta-symmetric exactly when S(rel) lies in rel."""
    A = M.algebra
    field = A.field
    if alpha.source != end.algebra or alpha.target != end.algebra:
        raise DimensionError("alpha must live on the endomorphism algebra")
    if alpha.variance != AlgebraMap.ANTI or not alpha.is_bijective():
        raise VerificationError("alpha must be an anti-automorphism")
    if not is_generator(M):
        raise VerificationError("module is not a generator")
    d = M.dim
    E = end.algebra
    # w -> mat(alpha(w)) is an action of E: alpha(w o v) = alpha(v) o alpha(w) has matrix
    # mat(alpha(w)) mat(alpha(v)), and alpha(1) = 1; it carries the generators of M
    twisted = Module._trusted(E, d, [end.matrix_of(alpha.apply(E.basis_vector(t)))
                                     for t in range(E.dim)], M.generators)
    # w -> mat(w)^T is one: (mat(v) mat(w))^T = mat(w)^T mat(v)^T, and mat(1) = I
    transposed = Module._trusted(E, d, [w.transpose() for w in end.maps], ())
    quo = QuotientSpace.of_functionals(field, d * d, map(vec, hom_space(twisted, transposed).basis))
    k_dim = quo.dim
    if k_dim == 0:
        raise VerificationError("balancing relations collapse the tensor square")

    def tensor_action(v: Sequence, rho: Matrix, side: int) -> tuple:
        # v . (I x rho) = vec(V rho); v . (rho x I) = vec(rho^T V)
        V = unvec(field, v, d, d)
        return vec(V * rho if side == 0 else rho.transpose() * V)

    lifts = [quo.lift(unit_vector(field, k_dim, l)) for l in range(k_dim)]
    action0, action1 = (
        [Matrix(field, [quo.project(tensor_action(l, rho, side)) for l in lifts], ncols=k_dim)
         for rho in M.action]
        for side in (0, 1))
    K = DoubleModule(A, k_dim, action0, action1)
    # b(x,y) = y (x) x
    b = BilinearForm(M, K, [[quo.projections[j * d + i] for j in range(d)] for i in range(d)])
    theta = None
    if alpha.is_involution():
        # y (x) x -> x (x) y
        rows = [quo.project(vec(unvec(field, l, d, d).transpose())) for l in lifts]
        theta = DoubleModuleInvolution(K, Matrix(field, rows, ncols=k_dim))
        if not b.is_symmetric_under(theta):
            raise VerificationError("constructed form is not theta-symmetric")
    adj = adjoints(b)
    if not (adj.left_regular and adj.right_regular):
        raise VerificationError("form is not regular; no corresponding map")
    if verify.corresponds(b, alpha, end) is not None:
        raise VerificationError("round trip does not recover the anti-automorphism")
    return FormFromAntiResult(K, b, theta)


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
    if not type_of(K).matrix.is_identity():
        raise VerificationError("the Goldman involution needs identity type")
    field = A.field
    T = Matrix.zeros(field, K.dim, K.dim)
    for i in range(n):
        for j in range(n):
            eij = A.basis_vector(i * n + j)
            eji = A.basis_vector(j * n + i)
            T = T + K.module(0).action_of(eij) * K.module(1).action_of(eji)
    return DoubleModuleInvolution(K, T)


def orthogonal_sum(b: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Block form on the direct sum; regularity is checked to agree with
    the two summands on both sides.  Built by ``BilinearForm._trusted``: a block
    sum of balanced forms with the same values is balanced on the block actions."""
    if b.values != b2.values:
        raise DimensionError("orthogonal sum needs the same values module")
    K = b.values
    M = direct_sum([b.module, b2.module])
    zero = vzero(M.algebra.field, K.dim)
    tensor = ([row + (zero,) * b2.module.dim for row in b.tensor]
              + [(zero,) * b.module.dim + row for row in b2.tensor])
    out = BilinearForm._trusted(M, K, tensor)
    adj = adjoints(out)
    a1 = adjoints(b)
    a2 = adjoints(b2)
    if adj.right_regular != (a1.right_regular and a2.right_regular):
        raise VerificationError("right regularity of the sum is inconsistent")
    if adj.left_regular != (a1.left_regular and a2.left_regular):
        raise VerificationError("left regularity of the sum is inconsistent")
    return out

"""Finitely generated right modules over a structure-constant algebra.

A module of dimension d stores one d x d action matrix per algebra basis
element; elements are row tuples and act via ``x -> x @ rho(a)``, so
``rho(ab) = rho(a) rho(b)``.  Endomorphisms are applied on the left, which
in row-vector terms means the composite w o v has matrix mat(v) mat(w);
this is the single place where the operator order is fixed.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from . import verify
from .algebras import Algebra, primitive_idempotents
from .errors import (
    DimensionError,
    InconclusiveError,
    VerificationError,
)
from .linalg import (
    Matrix,
    RowSpace,
    block_diag,
    invert,
    kernel_rows,
    mcombine,
    solve_columns,
    unit_vector,
    unvec,
    vcombine,
    vec,
)


class Module:
    """Right module given by action matrices on row vectors."""

    def __init__(self, algebra: Algebra, dim: int, action: Sequence[Matrix],
                 validate: bool = True, regular: bool = False):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self._regular = regular
        if len(self.action) != algebra.dim:
            raise DimensionError("one action matrix per algebra basis element required")
        for m in self.action:
            if m.nrows != dim or m.ncols != dim:
                raise DimensionError("action matrices must be dim x dim")
        if validate:
            verify.require(verify.module_action(algebra, self.action))

    def action_of(self, a: Sequence) -> Matrix:
        """Matrix of the right action of an algebra element."""
        return mcombine(self.algebra.field, self.dim, self.dim, a, self.action)

    def act(self, x: Sequence, a: Sequence) -> tuple:
        """x . a for x in the module and a an algebra element."""
        nonzero = [j for j, c in enumerate(a) if c != 0]
        return vcombine(self.algebra.field, self.dim, [a[j] for j in nonzero],
                        [self.action[j].act_row(x) for j in nonzero])

    def __repr__(self):
        return f"Module(dim={self.dim} over dim-{self.algebra.dim} algebra)"


def regular_module(A: Algebra) -> Module:
    """A as a right module over itself; dim = dim A."""
    action = [A.right_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    return Module(A, A.dim, action, validate=False, regular=True)


def free_module(A: Algebra, n: int) -> Module:
    return direct_sum([regular_module(A)] * n) if n != 1 else regular_module(A)


def direct_sum(mods: Sequence[Module]) -> Module:
    if not mods:
        raise DimensionError("direct sum of no modules")
    A = mods[0].algebra
    if any(m.algebra != A for m in mods):
        raise DimensionError("direct sum across different algebras")
    dim = sum(m.dim for m in mods)
    action = [
        block_diag(A.field, [m.action[i] for m in mods]) for i in range(A.dim)
    ]
    return Module(A, dim, action, validate=False)


def submodule(M: Module, generators: Sequence[Sequence]):
    """The submodule generated by the given vectors.

    Returns (Module, basis_rows); errors if the span is not invariant.
    """
    A = M.algebra
    field = A.field
    space = RowSpace(field, M.dim)
    frontier = [tuple(g) for g in generators]
    for g in frontier:
        space.insert(g)
    # close under the action
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(A.dim):
                w = M.action[i].act_row(v)
                if space.insert(w):
                    new_frontier.append(w)
        frontier = new_frontier
    basis = list(space.rows)
    d = len(basis)
    action = []
    for i in range(A.dim):
        rows = []
        for b in basis:
            moved = M.action[i].act_row(b)
            coords = space.coordinates(moved)
            if coords is None:
                raise VerificationError("span is not action-invariant")
            rows.append(coords)
        action.append(Matrix(field, rows, ncols=d))
    return Module(A, d, action, validate=False), basis


def principal_right_module(A: Algebra, e: Sequence) -> Module:
    """The right ideal eA as a module."""
    reg = regular_module(A)
    gens = [A.mul(e, A.basis_vector(i)) for i in range(A.dim)]
    mod, _ = submodule(reg, gens)
    return mod


def change_of_basis(M: Module, T: Matrix) -> Module:
    Tinv = invert(T)
    if Tinv is None:
        raise DimensionError("change of basis must be invertible")
    action = [Tinv * m * T for m in M.action]
    return Module(M.algebra, M.dim, action, validate=False)


class HomSpace:
    """Basis of Hom_A(M, N); each basis element is a dim_M x dim_N matrix
    acting on row vectors and intertwining the two actions exactly."""

    def __init__(self, source: Module, target: Module, basis: Sequence[Matrix],
                 space: Optional[RowSpace] = None):
        self.source = source
        self.target = target
        self.basis = list(basis)
        if space is None:
            space = RowSpace(source.algebra.field, source.dim * target.dim)
            for b in self.basis:
                space.insert(vec(b))
        self._space = space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix_from_coords(self, coords: Sequence) -> Matrix:
        return mcombine(self.source.algebra.field, self.source.dim, self.target.dim,
                        coords, self.basis)

    def coords_of(self, f: Matrix) -> Optional[tuple]:
        return self._space.coordinates(vec(f))


def hom_space(M: Module, N: Module) -> HomSpace:
    """Solution space of the intertwining equations rho_M(a) F = F rho_N(a)."""
    if M.algebra != N.algebra:
        raise DimensionError("hom space across different algebras")
    A = M.algebra
    field = A.field
    n, m = M.dim, N.dim
    nm = n * m
    if nm == 0:
        return HomSpace(M, N, [])
    basis_vecs: Optional[list] = None
    for t in range(A.dim):
        rhoM, rhoN = M.action[t], N.action[t]
        if basis_vecs is None:
            rows = []
            for c in range(n):
                for d in range(m):
                    # vec(rhoM E_cd - E_cd rhoN), built sparsely
                    row = [field.zero] * nm
                    for a in range(n):
                        if rhoM.rows[a][c] != 0:
                            row[a * m + d] = field.add(row[a * m + d], rhoM.rows[a][c])
                    for b in range(m):
                        if rhoN.rows[d][b] != 0:
                            row[c * m + b] = field.sub(row[c * m + b], rhoN.rows[d][b])
                    rows.append(row)
            ker = kernel_rows(Matrix(field, rows, ncols=nm).transpose())
            basis_vecs = list(ker)
        else:
            if not basis_vecs:
                break
            mats = [unvec(field, v, n, m) for v in basis_vecs]
            rows = [vec(rhoM * B - B * rhoN) for B in mats]
            coeffs = kernel_rows(Matrix(field, rows, ncols=nm).transpose())
            basis_vecs = [vcombine(field, nm, cf, basis_vecs) for cf in coeffs]
    space = RowSpace(field, nm)
    for v in basis_vecs or []:
        space.insert(v)
    mats = [unvec(field, v, n, m) for v in space.rows]
    verify.require(verify.intertwines(M.action, N.action, *mats))
    return HomSpace(M, N, mats, space)


def endomorphism_algebra(M: Module):
    """End_A(M) as an Algebra, with the identification list of matrices.

    Composition convention: endomorphisms apply on the left, so the
    product w*v (meaning w o v) has matrix mat(v) mat(w).
    """
    H = hom_space(M, M)
    field = M.algebra.field
    d = H.dim
    if d == 0:
        raise DimensionError("endomorphism algebra of the zero module")
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            comp = H.basis[j] * H.basis[i]
            coords = H.coords_of(comp)
            if coords is None:
                raise VerificationError("hom space is not closed under composition")
            row.append(coords)
        table.append(row)
    unit = H.coords_of(Matrix.identity(field, M.dim))
    if unit is None:
        raise VerificationError("identity endomorphism missing from hom space")
    names = [f"w{i}" for i in range(d)]
    return Algebra(field, names, table, unit), H


def is_isomorphic(M: Module, N: Module, seed: int = 0,
                  max_trials: int = 200) -> Optional[Matrix]:
    """An invertible intertwiner M -> N, or None (certified).

    None is returned only on a proven obstruction (dimension mismatch or
    hom-space ranks) or when an exhaustive sweep over a small finite
    field found nothing.  Otherwise the search raises InconclusiveError.
    """
    if M.algebra != N.algebra:
        raise DimensionError("isomorphism test across different algebras")
    if M.dim != N.dim:
        return None
    if M.dim == 0:
        return Matrix.zeros(M.algebra.field, 0, 0)
    H = hom_space(M, N)
    if H.dim == 0:
        return None
    Hrev = hom_space(N, M)
    if Hrev.dim == 0 or Hrev.dim != H.dim:
        return None
    field = M.algebra.field
    for b in H.basis:
        if verify.bijective(b) is None:
            return b
    rng = random.Random(seed)
    p = field.p
    for trial in range(max_trials):
        height = min(5, 1 + trial // 40)
        if p is None:
            coeffs = [field.coerce(rng.randint(-height, height)) for _ in range(H.dim)]
        else:
            coeffs = [field.coerce(rng.randrange(p)) for _ in range(H.dim)]
        if all(c == 0 for c in coeffs):
            continue
        f = H.matrix_from_coords(coeffs)
        if verify.bijective(f) is None:
            return f
    if p is not None and p ** H.dim <= 10 ** 6:
        for coeffs in itertools.product(range(p), repeat=H.dim):
            if all(c == 0 for c in coeffs):
                continue
            f = H.matrix_from_coords(coeffs)
            if verify.bijective(f) is None:
                return f
        return None
    if p is None and 3 ** H.dim <= 30000:
        for coeffs in itertools.product((-1, 0, 1), repeat=H.dim):
            f = H.matrix_from_coords([field.coerce(c) for c in coeffs])
            if verify.bijective(f) is None:
                return f
    raise InconclusiveError(
        "isomorphism search exhausted without witness or disproof"
    )


def isomorphism_classes(mods: Sequence[Module], seed: int = 0) -> list:
    """Group modules into isomorphism classes in order of first appearance.

    Returns one list of indices into ``mods`` per class; the first index
    of a class is its representative, and each module is tested against
    the representatives only.
    """
    classes: list = []
    for i, m in enumerate(mods):
        for cls in classes:
            if is_isomorphic(m, mods[cls[0]], seed=seed) is not None:
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def is_generator(M: Module) -> bool:
    """True iff the trace ideal of M is the whole algebra."""
    A = M.algebra
    if M.dim == 0:
        return False
    H = hom_space(M, regular_module(A))
    space = RowSpace(A.field, A.dim)
    for h in H.basis:
        for row in h.rows:
            space.insert(row)
    return space.dim == A.dim


def is_projective(M: Module) -> bool:
    """True iff the canonical surjection from a free module splits."""
    A = M.algebra
    field = A.field
    if M.dim == 0:
        return True
    H = hom_space(M, regular_module(A))
    if H.dim == 0:
        return False
    k = M.dim  # generators: the basis vectors of M
    gens = [unit_vector(field, M.dim, i) for i in range(k)]
    # seek s_i in Hom(M, A) with sum_i gens[i] . s_i(x) = x for all x;
    # column (i,t) holds gens[i] . h_t(x) for every basis vector x
    cols = []
    for i in range(k):
        for t in range(H.dim):
            col = []
            for xi in range(M.dim):
                x = gens[xi]
                a = H.basis[t].act_row(x)
                col.extend(M.act(gens[i], a))
            cols.append(col)
    rhs = []
    for xi in range(M.dim):
        rhs.extend(gens[xi])
    system = Matrix(field, cols, ncols=M.dim * M.dim).transpose()
    return solve_columns(system, Matrix.column(field, rhs)) is not None


def decompose(M: Module, seed: int = 0) -> list:
    """Indecomposable summands of M, via primitive idempotents of End(M).

    For the regular module the idempotents of the algebra itself are used
    directly.
    """
    return [mod for mod, _ in decompose_with_embeddings(M, seed=seed)]


def decompose_with_embeddings(M: Module, seed: int = 0) -> list:
    """Like :func:`decompose` but returns (summand, basis_rows) pairs."""
    if M.dim == 0:
        return []
    A = M.algebra
    if M._regular:
        return [submodule(M, [A.mul(e, A.basis_vector(i)) for i in range(A.dim)])
                for e in primitive_idempotents(A, seed=seed)]
    EndM, H = endomorphism_algebra(M)
    return [submodule(M, H.matrix_from_coords(eps).rows)
            for eps in primitive_idempotents(EndM, seed=seed)]

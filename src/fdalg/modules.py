"""Finitely generated right modules over a structure-constant algebra.

A module of dimension d stores one d x d action matrix per algebra basis
element; elements are row tuples and act via ``x -> x @ rho(a)``, so
``rho(ab) = rho(a) rho(b)``.  Endomorphisms are applied on the left, which
in row-vector terms means the composite w o v has matrix mat(v) mat(w);
this is the single place where the operator order is fixed.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Optional, Sequence

from . import verify
from .algebras import Algebra, idempotent_classes, primitive_idempotents, sparse_table
from .errors import DimensionError, InconclusiveError
from .linalg import (
    Coordinates,
    Matrix,
    RowSpace,
    block_diag,
    coordinate_rows,
    invert,
    kernel_rows,
    mcombine,
    unit_vector,
    unvec,
    vec,
    vzero,
)


class Module(verify.Verified):
    """Right module given by action matrices on row vectors.

    ``Module(...)`` checks the module laws on the pairs (e_i, e_g) of a basis element and a
    generator (see :func:`verify.module_action`).  The regular module, sums, submodules,
    changes of basis and duals inherit them and are built by ``Module._trusted``, which also
    stores the module generators their construction knows.  Both check the shapes.
    """

    def __init__(self, algebra: Algebra, dim: int, action: Sequence[Matrix]):
        self._store(algebra, dim, action, ())
        verify.require(verify.module_action(algebra, self.action))

    def _store(self, algebra: Algebra, dim: int, action: Sequence[Matrix], generators) -> None:
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self.generators = tuple(map(tuple, generators))
        if len(self.action) != algebra.dim:
            raise DimensionError("one action matrix per algebra basis element required")
        for m in self.action:
            if m.nrows != dim or m.ncols != dim:
                raise DimensionError("action matrices must be dim x dim")

    def action_of(self, a: Sequence) -> Matrix:
        """Matrix of the right action of an algebra element."""
        return mcombine(self.algebra.field, self.dim, self.dim, a, self.action)

    @functools.cached_property
    def spin(self) -> tuple:
        """(tree, pairs, V): ``generators``, then unit vectors, spun under ``A.generators``
        and each closed before the next, give a basis b_j of M: (b_j, None, s) for the
        s-th new generator, row s of V, or (b_j, j', g) for b_j = b_j' rho(g).  ``pairs``
        holds the (b_j rho(g), j, g) already in the span."""
        field, n = self.algebra.field, self.dim
        span, tree, pairs, V, done = RowSpace(field, n), [], [], [], 0
        for v in itertools.chain(self.generators, (unit_vector(field, n, i) for i in range(n))):
            if span.insert(v):
                tree.append((v, None, len(V)))
                V.append(v)
            while done < len(tree):
                for g in self.algebra.generators:
                    w = self.action[g].act_row(tree[done][0])
                    (tree if span.insert(w) else pairs).append((w, done, g))
                done += 1
        return tree, pairs, Matrix._trusted(field, tuple(V), n)

    @functools.cached_property
    def hom_to_regular(self) -> "HomSpace":
        """Hom_A(M, A_A), solved once for :func:`is_generator` and :func:`is_projective`."""
        return hom_space(self, regular_module(self.algebra))

    def __repr__(self):
        return f"Module(dim={self.dim} over dim-{self.algebra.dim} algebra)"


def regular_module(A: Algebra) -> Module:
    """A as a right module over itself; dim = dim A."""
    action = [A.right_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    return Module._trusted(A, A.dim, action, [A.unit])


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
    starts = itertools.accumulate([0] + [m.dim for m in mods])
    return Module._trusted(A, dim, action, [vzero(A.field, s) + g + vzero(A.field, dim - s - m.dim)
                                            for m, s in zip(mods, starts) for g in m.generators])


def submodule(M: Module, generators: Sequence[Sequence]):
    """The submodule generated by the given vectors, which it carries.

    Returns (Module, basis_rows), the basis in reduced echelon form; errors
    if the span is not invariant.
    """
    A = M.algebra
    field = A.field
    space = RowSpace(field, M.dim)
    frontier = [g for g in generators if space.insert(g)]
    # rho is multiplicative and rho(1) = I, so a span closed under the
    # algebra generators is closed under all of A (certified below)
    while frontier:
        frontier = [w for w in (M.action[g].act_row(v) for v in frontier for g in A.generators)
                    if space.insert(w)]
    basis = list(space.rows)
    d = len(basis)
    action = [Matrix._trusted(field, coordinate_rows(space.coordinates, map(rho.act_row, basis),
                                                     "span is not action-invariant"), d)
              for rho in M.action]
    return Module._trusted(A, d, action, map(space.coordinates, generators)), basis


def principal_right_module(A: Algebra, e: Sequence) -> Module:
    """The right ideal eA as a module, spun from e, which it carries."""
    return submodule(regular_module(A), [e])[0]


def change_of_basis(M: Module, T: Matrix) -> Module:
    Tinv = invert(T)
    if Tinv is None:
        raise DimensionError("change of basis must be invertible")
    action = [Tinv * m * T for m in M.action]
    return Module._trusted(M.algebra, M.dim, action, map(T.act_row, M.generators))


class HomSpace:
    """A basis of Hom_A(M, N), or of a subspace, as dim_M x dim_N matrices on row vectors.

    ``generators`` is V, the K module generators of the spin of M, and ``images``
    holds V B for each basis map B.  F -> V F is injective on Hom_A(M, N), so
    :meth:`coords_of` reads coordinates off the K x dim_N matrix V F; it proves them
    only for F in Hom_A(M, N), so each caller names the law that puts F there.
    """

    def __init__(self, source: Module, target: Module, basis: Sequence[Matrix]):
        self.source = source
        self.target = target
        self.basis = list(basis)
        self.generators = source.spin[2]
        self.images = [self.generators * f for f in self.basis]
        self._coords = Coordinates(source.algebra.field, [vec(x) for x in self.images],
                                   self.generators.nrows * target.dim)
        self.independent = self._coords.independent

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix_from_coords(self, coords: Sequence) -> Matrix:
        return mcombine(self.source.algebra.field, self.source.dim, self.target.dim,
                        coords, self.basis)

    def coords_of(self, images: Matrix) -> Optional[tuple]:
        """The coordinates of the F in the space with V F = ``images``, or None."""
        return self._coords.of(vec(images))


def hom_space(M: Module, N: Module) -> HomSpace:
    """The echelon basis of Hom_A(M, N), solved for the images of the module
    generators of M (Lux and Szoke, Exp. Math. 12, 2003).

    :attr:`Module.spin` (carried generators, then unit vectors) gives a basis b_j
    of M: a new module generator, or a word b_j' rho_M(g).  F is fixed by the
    images x = vec(V F) of the K generators: F(b_j) = x Y_j, where Y_j selects
    y_k or is Y_j' rho_N(g), so F intertwines g on the edges of this spanning tree.
    Each other pair (j, g), with b_j rho_M(g) = sum_i c_i b_i read through
    T^-1 (T has rows b_j), adds the condition x (Y_j rho_N(g) - sum_i c_i Y_i)
    = 0.  That suffices: F then intertwines each generator on a basis of M,
    and the a with rho_M(a) F = F rho_N(a) form a subalgebra holding 1.  So
    K dim N unknowns replace dim M dim N; the solutions are kept as the
    echelon basis of their span, which depends on Hom_A(M, N) alone, and
    each is re-checked by :func:`verify.intertwines`.
    """
    if M.algebra != N.algebra:
        raise DimensionError("hom space across different algebras")
    field = M.algebra.field
    n, m = M.dim, N.dim
    tree, pairs, V = M.spin
    k = V.nrows * m
    # Yt[j] is Y_j transposed, m x k, so each product and condition has m rows
    eye, Yt = Matrix.identity(field, k).rows, []
    rhoT = {g: N.action[g].transpose() for g in M.algebra.generators}
    for _, j, g in tree:
        Yt.append(rhoT[g] * Yt[j] if j is not None else Matrix._trusted(field, eye[g * m:][:m], k))
    Tinv = invert(Matrix._trusted(field, tuple(b for b, _, _ in tree), n))
    # row l of G is vec(Y(e_l)^T), so F(w) = x Y(w) with Y(w)^T = unvec(G.act_row(w))
    G = Tinv * Matrix._trusted(field, tuple(map(vec, Yt)), m * k)
    rows = []
    for w, j, g in pairs:
        # on matrix-unit bases most words vanish, w = 0, and then Y(w) = 0; zero rows
        # (a zero row of rho_N(g)^T makes one) impose nothing and are left out
        C = rhoT[g] * Yt[j]
        rows += filter(any, (C - unvec(field, G.act_row(w), m, k) if any(w) else C).rows)
    xs = Matrix._trusted(field, tuple(kernel_rows(Matrix._trusted(field, tuple(rows), k))), k)
    # vec(F) = x Z^T, where row l m + c of Z holds the coefficients of F[l][c]
    space = RowSpace(field, n * m)
    space.extend((xs * unvec(field, vec(G), n * m, k).transpose()).rows)
    basis = [unvec(field, v, n, m) for v in space.rows]
    verify.require(verify.intertwines(M.algebra, M.action, N.action, *basis))
    return HomSpace(M, N, basis)


def endomorphism_algebra(M: Module):
    """End_A(M) as an Algebra, with the identification list of matrices.

    Composition convention: endomorphisms apply on the left, so the
    product w*v (meaning w o v) has matrix mat(v) mat(w).  Composites of intertwiners
    intertwine, so a product's coordinates are read off V mat(w_j) mat(w_i).
    """
    H = hom_space(M, M)
    field = M.algebra.field
    d = H.dim
    if d == 0:
        raise DimensionError("endomorphism algebra of the zero module")
    # product i * d + j is w_i o w_j, with matrix mat(w_j) mat(w_i)
    products = coordinate_rows(H.coords_of, (x * f for f in H.basis for x in H.images),
                               "hom space is not closed under composition")
    table = [products[i:i + d] for i in range(0, d * d, d)]
    (unit,) = coordinate_rows(H.coords_of, [H.generators],
                              "identity endomorphism missing from hom space")
    names = [f"w{i}" for i in range(d)]
    # associative with the identity as unit: the laws are inherited from
    # matrix products
    return Algebra._trusted(field, names, sparse_table(field, table), unit), H


def is_isomorphic(M: Module, N: Module, seed: int = 0) -> Optional[Matrix]:
    """An invertible intertwiner M -> N, or None (certified).

    After the hom-space basis, 200 seeded random combinations are tried.
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
    for trial in range(200):
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


def projective_classes(A: Algebra, seed: int = 0) -> list:
    """One (e, eA, count) per isomorphism class of indecomposable projectives.

    The classes are the blocks of :func:`idempotent_classes`, in its
    order: e is the first idempotent of its block, and count, the size of
    the block, is the multiplicity of eA in A_A.
    """
    return [(cls[0], principal_right_module(A, cls[0]), len(cls))
            for cls in idempotent_classes(A, seed=seed)]


def is_generator(M: Module) -> bool:
    """True iff the trace ideal of M is the whole algebra."""
    A = M.algebra
    if M.dim == 0:
        return False
    space = RowSpace(A.field, A.dim)
    space.extend(row for h in M.hom_to_regular.basis for row in h.rows)
    return space.dim == A.dim


def is_projective(M: Module) -> bool:
    """True iff the canonical surjection from a free module splits."""
    A = M.algebra
    field = A.field
    if M.dim == 0:
        return True
    H = M.hom_to_regular
    if H.dim == 0:
        return False
    k = M.dim
    # seek s_i in Hom(M, A) with sum_i e_i . s_i(x) = x for every basis vector
    # x of M.  Row a of G_i is e_i . a = row i of rho(a), so over x the values
    # e_i . h(x) are the rows of h G_i: is vec(I) in the span of the vec(h G_i)?
    span = RowSpace(field, k * k)
    for i in range(k):
        G = Matrix._trusted(field, tuple(rho.rows[i] for rho in M.action), k)
        span.extend(vec(h * G) for h in H.basis)
    return span.contains(vec(Matrix.identity(field, k)))


def decompose(M: Module, seed: int = 0) -> list:
    """Indecomposable summands of M, via primitive idempotents of End(M).

    When M carries the regular action of its algebra A, the idempotents of
    A itself are used directly.
    """
    return [mod for mod, _ in decompose_with_embeddings(M, seed=seed)]


def decompose_with_embeddings(M: Module, seed: int = 0) -> list:
    """Like :func:`decompose` but returns (summand, basis_rows) pairs."""
    if M.dim == 0:
        return []
    A = M.algebra
    if M.dim == A.dim and M.action == regular_module(A).action:
        return [submodule(M, [e]) for e in primitive_idempotents(A, seed=seed)]
    EndM, H = endomorphism_algebra(M)
    return [submodule(M, H.matrix_from_coords(eps).rows)
            for eps in primitive_idempotents(EndM, seed=seed)]

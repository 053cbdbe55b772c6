"""Shared builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from fdalg import algebras as alg
from fdalg import forms, modules as mod, posets as ps
from fdalg.linalg import Matrix, RowSpace, invert, unit_vector, unvec, vec


def dense_table(A: alg.Algebra) -> tuple:
    """The structure constants of A as a dense table: entry [i][j] is e_i e_j."""
    return tuple(tuple(A.product(i, j) for j in range(A.dim)) for i in range(A.dim))


def transpose_map(A: alg.Algebra, n: int) -> alg.AlgebraMap:
    """The transpose anti-automorphism of a matrix algebra on matrix units."""
    imgs = [A.basis_vector(j * n + i) for i in range(n) for j in range(n)]
    return alg.AlgebraMap.from_images(A, A, imgs, alg.AlgebraMap.ANTI)


def ut_flip_map(A: alg.Algebra, n: int) -> alg.AlgebraMap:
    """The anti-diagonal flip e_ij -> e_{n+1-j, n+1-i} of upper triangulars."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: t for t, p in enumerate(pairs)}
    imgs = [A.basis_vector(index[(n - 1 - j, n - 1 - i)]) for (i, j) in pairs]
    return alg.AlgebraMap.from_images(A, A, imgs, alg.AlgebraMap.ANTI)


def twisted_transpose_map(A: alg.Algebra) -> alg.AlgebraMap:
    """X -> S^-1 X^T S on M_2 with S = diag(1, 2): an anti-automorphism other
    than the transpose, so its standard double module differs from the
    transpose's in action0 alone."""
    half = Fraction(1, 2)
    imgs = [A.basis_vector(0), [0, 0, half, 0], [0, 2, 0, 0], A.basis_vector(3)]
    return alg.AlgebraMap.from_images(A, A, imgs, alg.AlgebraMap.ANTI)


def in_basis(A: alg.Algebra, P: Matrix) -> alg.Algebra:
    """A on the basis given by the rows of the invertible matrix P."""
    Pinv = invert(P)
    table = [[Pinv.act_row(A.mul(x, y)) for y in P.rows] for x in P.rows]
    return alg.Algebra(A.field, A.basis_names, table, Pinv.act_row(A.unit))


def two_cycle_algebra(field) -> alg.Algebra:
    """e1, e2, a, b with e1 a e2 = a, e2 b e1 = b and ab = ba = 0.  Its
    projectives e1 A and e2 A have the same dimension and nonzero maps both
    ways, yet are not isomorphic: their tops differ."""
    # nonzero products of basis elements: (i, j) -> k for e_i e_j = e_k
    prod = {(0, 0): 0, (0, 2): 2, (1, 1): 1, (1, 3): 3, (2, 1): 2, (3, 0): 3}
    table = [[[int(prod.get((i, j)) == k) for k in range(4)] for j in range(4)]
             for i in range(4)]
    return alg.Algebra(field, ["e1", "e2", "a", "b"], table, [1, 1, 0, 0])


def identity_anti(A: alg.Algebra) -> alg.AlgebraMap:
    """The identity as an anti-automorphism (commutative algebras only)."""
    return alg.AlgebraMap(A, A, Matrix.identity(A.field, A.dim), alg.AlgebraMap.ANTI)


def random_adjoint(M, D1, seed: int, invertible: bool = True, trials: int = 200):
    """A random (optionally invertible) element of Hom(M, M^[1]) as a matrix; D1 is M^[1]."""
    H = mod.hom_space(M, D1)
    rng = random.Random(seed)
    field = M.algebra.field
    for _ in range(trials):
        if field.p is None:
            coeffs = [field.coerce(rng.randint(-3, 3)) for _ in range(H.dim)]
        else:
            coeffs = [field.coerce(rng.randrange(field.p)) for _ in range(H.dim)]
        f = H.matrix_from_coords(coeffs)
        if not invertible:
            return f
        if invert(f) is not None:
            return f
    raise AssertionError("no invertible adjoint found; bad test setup")


def random_regular_form(M, K, seed: int):
    D1, H1 = forms.dual_module(M, K, 1)
    f = random_adjoint(M, D1, seed)
    return forms.form_from_adjoint(M, K, H1, f)


def corpus_small_posets():
    """Assorted posets on <= 8 points: chains, antichains, fences, sums."""
    out = [
        ps.chain(1), ps.chain(2), ps.chain(3), ps.chain(4),
        ps.antichain(2), ps.antichain(3),
        # diamond
        ps.Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        # fence / zigzag
        ps.Poset.from_covers(4, [(0, 1), (2, 1), (2, 3)]),
        # disjoint union of two chains
        ps.Poset.from_covers(4, [(0, 1), (2, 3)]),
        # Y shape
        ps.Poset.from_covers(4, [(0, 1), (1, 2), (1, 3)]),
        # three-element V plus isolated point
        ps.Poset.from_covers(4, [(0, 1), (0, 2)]),
        # 2x2 grid plus a tail
        ps.Poset.from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
        # crown S_3^0 (6 elements, connected, no involution? it has one)
        ps.Poset.from_covers(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]),
    ]
    return out


@st.composite
def connected_posets(draw, max_points: int):
    """A random connected poset on 1..max_points points: a random tree joins the
    points, and it and a few random extra edges point up a random ranking of the
    points, so the order is acyclic; ``Poset.from_covers`` closes it."""
    n = draw(st.integers(1, max_points))
    rank = draw(st.permutations(range(n)))
    point = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    edges += draw(st.lists(st.tuples(point, point), max_size=n))
    return ps.Poset.from_covers(n, [(a, b) if rank[a] < rank[b] else (b, a)
                                    for a, b in edges if a != b])


def assert_field_elements(field, values) -> None:
    """Each value is a canonical element of ``field``: over GF(p) an int in
    range(p), over Q an int or a Fraction whose denominator is > 1.  So no
    float, bool or str ever appears, and no integral Fraction."""
    for x in values:
        if field.p is None:
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)
        else:
            assert type(x) is int and 0 <= x < field.p, repr(x)


class RelationRowQuotient:
    """M (x) M modulo the End-balancing relations, built row by row: the relation
    alpha(w) e_i (x) e_j - e_i (x) w e_j for every generator w of End(M) and pair
    (i, j) goes into one RowSpace, and the quotient keeps the free columns of its
    echelon form, with ``project`` the reduction mod the relations.  The reference
    for the quotient that ``forms.form_from_anti_automorphism`` builds."""

    def __init__(self, M, alpha, end):
        field, d = M.algebra.field, M.dim
        self.space = RowSpace(field, d * d)
        for u in end.algebra.generators:
            w = end.maps[u]
            wa = end.matrix_of(alpha.apply(end.algebra.basis_vector(u)))
            for i in range(d):
                for j in range(d):
                    row = [field.zero] * (d * d)
                    for s, c in enumerate(wa.rows[i]):
                        row[s * d + j] = field.add(row[s * d + j], c)
                    for t, c in enumerate(w.rows[j]):
                        row[i * d + t] = field.sub(row[i * d + t], c)
                    self.space.insert(row)
        pivots = set(self.space.pivots)
        self.free_columns = [c for c in range(d * d) if c not in pivots]

    def project(self, v) -> tuple:
        r = self.space.reduce(v)
        return tuple(r[c] for c in self.free_columns)


def lifted_tensor_actions(quo, M):
    """(action0, action1, swap) on M (x) M modulo the balancing relations, the long way:
    each basis vector of ``quo`` is lifted to a d x d tensor V, carried to V rho (action0),
    rho^T V (action1) or V^T (the swap) for each action rho of M, and projected back.  The
    reference for the rows that ``forms.form_from_anti_automorphism`` reads off
    ``quo.projections``."""
    field, d, k = M.algebra.field, M.dim, quo.dim
    lifts = [unvec(field, quo.lift(unit_vector(field, k, l)), d, d) for l in range(k)]

    def installed(image):
        return Matrix(field, [quo.project(vec(image(V))) for V in lifts], ncols=k)

    return ([installed(lambda V, rho=rho: V * rho) for rho in M.action],
            [installed(lambda V, rho=rho: rho.transpose() * V) for rho in M.action],
            installed(Matrix.transpose))

"""Defining-equation checkers, the one home of every check on basis tuples.

A checker returns None when its equations hold, or else a message naming the
equation and the first basis tuple where it fails.  Constructors raise it
through :func:`require`, CLI ``checks`` re-run checkers on returned objects,
and searches use them as filters.  Actions are lists of matrices on row
vectors, one per algebra basis element.
"""

from typing import Optional, Sequence

from .errors import VerificationError
from .linalg import Matrix, RowSpace, mcombine, vcombine, vdense, vec, vec_is_zero, vpairs


class Verified:
    """``Cls(...)`` checks the defining equations of what enters.  An object built
    from verified ones inherits its laws and comes from ``Cls._trusted``, which only
    runs ``_store`` on what ``Cls(...)`` stores (for ``Algebra``, its sparse rows)."""

    @classmethod
    def _trusted(cls, *args):
        out = cls.__new__(cls)
        out._store(*args)
        return out


def require(message: Optional[str]) -> None:
    """Raise VerificationError(message) unless the check passed (None)."""
    if message is not None:
        raise VerificationError(message)


def associative_unital(A) -> Optional[str]:
    """1 e_i = e_i = e_i 1, then (e_g e_j) e_k = e_g (e_j e_k) for generators e_g, all j, k.
    That proves all basis triples: the left nucleus {x : (x, y, z) = 0 for all y, z}
    holds 1 and the e_g, which span A by words (``A.generators``), and is a subalgebra
    by Teichmueller's identity (ab, c, d) - (a, bc, d) + (a, b, cd) = a(b, c, d) + (a, b, c)d.
    For each (g, j), the difference of the two sides at (k, e_t) is summed over the
    stored nonzero rows only, and a mismatch names its least k."""
    if (msg := unital(A)) is not None:
        return msg
    sp, p = A._sparse, A.field.p
    nz = [[(k, row) for k, row in enumerate(block) if row] for block in sp]
    for g in A.generators:
        for j in range(A.dim):
            diff: dict = {}
            for m, c in sp[g][j]:
                for k, row in nz[m]:
                    for t, c2 in row:
                        diff[k, t] = diff.get((k, t), 0) + c * c2
            for k, row in nz[j]:
                for m, c in row:
                    for t, c2 in sp[g][m]:
                        diff[k, t] = diff.get((k, t), 0) - c * c2
            bad = [k for (k, _), c in diff.items() if (c if p is None else c % p)]
            if bad:
                return f"associativity fails at basis triple ({g}, {j}, {min(bad)})"
    return None


def unital(A) -> Optional[str]:
    """1 e_i = e_i = e_i 1 on every basis element."""
    one = vpairs(A.unit)
    for i in range(A.dim):
        e = ((i, 1),)
        if A._mul_pairs(one, e) != {i: 1} or A._mul_pairs(e, one) != {i: 1}:
            return f"unit law fails at basis element {i}"
    return None


def unit_preserved(f) -> Optional[str]:
    """f(1) = 1."""
    return None if f.apply(f.source.unit) == f.target.unit else "unit law f(1) = 1 fails"


def multiplicative(f) -> Optional[str]:
    """f(e_g e_j) = f(e_g) f(e_j), reversed if f is anti, for generators e_g and all j.
    With f(1) = 1 (``algebra_map`` checks it first) that proves all basis pairs: the x
    with f(x y) = f(x) f(y) for all y (f(y) f(x) if anti) form a subalgebra holding 1."""
    src, tgt = f.source, f.target
    images = [f.apply(src.basis_vector(i)) for i in range(src.dim)]
    anti = f.variance == f.ANTI
    for i in src.generators:
        for j in range(src.dim):
            rhs = tgt.mul(images[j], images[i]) if anti else tgt.mul(images[i], images[j])
            # f(e_i e_j) by linearity from the images of the basis
            if vcombine(tgt.field, tgt.dim, src.product(i, j), images) != rhs:
                return f"{f.variance} law fails at basis pair ({i}, {j})"
    return None


def algebra_map(f) -> Optional[str]:
    return unit_preserved(f) or multiplicative(f)


def bijective(m: Matrix) -> Optional[str]:
    return None if m.is_square and m.rank() == m.nrows else "map is not bijective"


def squares_to_identity(m: Matrix) -> Optional[str]:
    return None if (m * m).is_identity() else "map does not square to the identity"


def central(A, vectors: Sequence[Sequence]) -> Optional[str]:
    """z e_i = e_i z for every given z and every basis element e_i."""
    for k, z in enumerate(vectors):
        for i in range(A.dim):
            e = A.basis_vector(i)
            if A.mul(z, e) != A.mul(e, z):
                return f"z e_i = e_i z fails at (vector {k}, basis element {i})"
    return None


def goldman(T, d: int, g: Sequence) -> Optional[str]:
    """g^2 = 1 and g (e_r x e_s) = (e_s x e_r) g in T = A (x) A, dim A = d."""
    if T.mul(g, g) != T.unit:
        return "g^2 = 1 fails"
    for r in range(d):
        for s in range(d):
            if T.mul(g, T.basis_vector(r * d + s)) != T.mul(T.basis_vector(s * d + r), g):
                return f"Goldman swap law fails at basis pair ({r}, {s})"
    return None


def ideal(A, vectors: Sequence[Sequence]) -> Optional[str]:
    """The span I of ``vectors`` is a two-sided ideal: I e_g and e_g I lie in I for
    every generator e_g, enough as {a : I a + a I in I} is a subalgebra holding 1.
    A nonzero w = v_k e_g or e_g v_k lies in I iff w = sum_c w[c] row_c over the
    pivots c of the reduced echelon rows of I."""
    if not vectors:
        return None
    space = RowSpace(A.field, A.dim)
    space.extend(vectors)
    for k, v in enumerate(map(vpairs, vectors)):
        for i in A.generators:
            for w in (A._mul_pairs(v, ((i, 1),)), A._mul_pairs(((i, 1),), v)):
                if w and vcombine(A.field, A.dim, [w.get(c, 0) for c in space.pivots],
                                  space.rows) != vdense(A.field, A.dim, w.items()):
                    return f"ideal law fails at (vector {k}, basis element {i})"
    return None


def nilpotent_ideal(A, basis: Sequence[Sequence]) -> Optional[str]:
    """The span I of ``basis`` is a two-sided ideal and I^(2^k) = 0 for some k.
    Squaring: C^2 is spanned by the nonzero products u v of echelon rows u, v of C.
    For an ideal C, C^2 lies in C, so each square either has smaller dimension or
    equals C; then C^2 = C != 0, so no power of I is 0.  At most dim A squarings."""
    msg = ideal(A, basis)
    if msg is not None:
        return msg
    current = RowSpace(A.field, A.dim)
    current.extend(basis)
    while current.dim:
        rows = list(map(vpairs, current.rows))
        square = RowSpace(A.field, A.dim)
        for u in rows:
            for v in rows:
                if w := A._mul_pairs(u, v):
                    square.insert(vdense(A.field, A.dim, w.items()))
        if square.dim == current.dim:
            return "the ideal is not nilpotent"
        current = square
    return None


def idempotents(A, elems: Sequence[Sequence]) -> Optional[str]:
    for i, e in enumerate(elems):
        if vec_is_zero(e) or A.mul(e, e) != e:
            return f"e^2 = e != 0 fails at element {i}"
    return None


def orthogonal(A, elems: Sequence[Sequence]) -> Optional[str]:
    for i, e in enumerate(elems):
        for j, f in enumerate(elems):
            if i != j and not vec_is_zero(A.mul(e, f)):
                return f"e f = 0 fails at pair ({i}, {j})"
    return None


def sum_to_unit(A, elems: Sequence[Sequence]) -> Optional[str]:
    if vcombine(A.field, A.dim, [A.field.one] * len(elems), elems) != A.unit:
        return "the elements do not sum to 1"
    return None


def complete_orthogonal(A, elems: Sequence[Sequence]) -> Optional[str]:
    """A complete set of orthogonal idempotents."""
    return idempotents(A, elems) or orthogonal(A, elems) or sum_to_unit(A, elems)


def primitive(A, elems: Sequence[Sequence]) -> Optional[str]:
    """Each idempotent e of the semisimple algebra A spans e A e."""
    for k, e in enumerate(elems):
        space = RowSpace(A.field, A.dim)
        space.extend(A.corners(e, [e])[0])
        if space.dim != 1:
            return f"idempotent {k} is not primitive: e A e has dimension {space.dim}"
    return None


def same_block(A, blocks: Sequence[Sequence[Sequence]]) -> Optional[str]:
    """For primitive idempotents e, f of a split semisimple A, Hom(fA, eA) is
    e A f, so eA and fA are isomorphic iff e A f != 0: the first e of each
    block has e A f != 0 exactly for the f of its own block."""
    places = [(b, k) for b, other in enumerate(blocks) for k in range(len(other))]
    fs = [f for other in blocks for f in other]
    for a, block in enumerate(blocks):
        for (b, k), span in zip(places, A.corners(block[0], fs)):
            if any(map(any, span)) != (a == b):
                return ("e A f != 0 iff f is in the block of e fails at "
                        f"(block {a}, block {b}, element {k})")
    return None


def module_action(A, action: Sequence[Matrix]) -> Optional[str]:
    """rho(1) = 1 and rho(e_i) rho(e_g) = rho(e_i e_g) for every basis element e_i
    and generator e_g: then {b : rho(a b) = rho(a) rho(b) for all a} is a
    subalgebra holding 1 and every e_g, so it is A."""
    n = action[0].nrows
    if not mcombine(A.field, n, n, A.unit, action).is_identity():
        return "unit does not act as the identity"
    for i in range(A.dim):
        for j in A.generators:
            if action[i] * action[j] != mcombine(A.field, n, n, A.product(i, j), action):
                return f"action is not multiplicative at basis pair ({i}, {j})"
    return None


def intertwines(A, src_actions: Sequence[Matrix], dst_actions: Sequence[Matrix],
                *maps: Matrix) -> Optional[str]:
    """src(e_t) f = f dst(e_t) for every generator e_t and every given f, so each
    f is a module map: for two module actions of A, the a with src(a) f =
    f dst(a) form a subalgebra holding 1."""
    for k, f in enumerate(maps):
        for t in A.generators:
            if src_actions[t] * f != f * dst_actions[t]:
                return f"intertwining law fails at (basis element {t}, map {k})"
    return None


def double_module(A, action0: Sequence[Matrix], action1: Sequence[Matrix]) -> Optional[str]:
    """Two module actions that commute: each action1(e_j) intertwines action0."""
    for i, action in enumerate((action0, action1)):
        msg = module_action(A, action)
        if msg is not None:
            return f"action{i}: {msg}"
    msg = intertwines(A, action0, action0, *action1)
    return None if msg is None else f"the two actions do not commute: {msg}"


def swaps_actions(K, T: Matrix) -> Optional[str]:
    """(k .i e_t) T = (k T) .(1-i) e_t for i = 0, 1 and every generator e_t."""
    for i, (src, dst) in enumerate(((K.action0, K.action1), (K.action1, K.action0))):
        msg = intertwines(K.algebra, src, dst, T)
        if msg is not None:
            return f"swap law for action{i}: {msg}"
    return None


def balanced(b) -> Optional[str]:
    """b(m_i e_t, m_j) = b(m_i, m_j) .0 e_t and b(m_i, m_j e_t) = b(m_i, m_j) .1 e_t, proved on
    t in A.generators: as M and K are modules, the a where a law holds form a subalgebra."""
    M, K, tensor = b.module, b.values, b.tensor
    field, d = M.algebra.field, M.dim
    columns = [[tensor[s][j] for s in range(d)] for j in range(d)]
    def fails(t):
        rho, m0, m1 = M.action[t], K.action0[t], K.action1[t]
        for i in range(d):
            for j in range(d):
                if vcombine(field, K.dim, rho.rows[i], columns[j]) != m0.act_row(tensor[i][j]):
                    return f"left balance law fails at basis triple ({t}, {i}, {j})"
                if vcombine(field, K.dim, rho.rows[j], tensor[i]) != m1.act_row(tensor[i][j]):
                    return f"right balance law fails at basis triple ({t}, {i}, {j})"
        return None
    if any(map(fails, M.algebra.generators)):
        return next(filter(None, map(fails, range(M.algebra.dim))))
    return None


def theta_symmetric(b, theta) -> Optional[str]:
    """b(m_i, m_j) = theta(b(m_j, m_i)) for every basis pair (i, j)."""
    tensor, d = b.tensor, b.module.dim
    for i in range(d):
        for j in range(d):
            if tensor[i][j] != theta.apply(tensor[j][i]):
                return f"theta symmetry fails at basis pair ({i}, {j})"
    return None


def corresponds(b, alpha, end) -> Optional[str]:
    """b(w x, y) = b(x, alpha(w) y) for generators w of End(M) (``end``), x, y in a basis:
    the w where it holds form a subalgebra holding 1, as alpha is an anti-automorphism.
    Row i of w F is b(w e_i, -), vec(alpha(w) B_i) is b(e_i, alpha(w) -) for the d x k
    B_i = b(e_i, -), and row s of F is vec(B_s)."""
    field, k = b.module.algebra.field, b.values.dim
    B = [Matrix._trusted(field, row, k) for row in b.tensor]
    F = Matrix._trusted(field, tuple(vec(Bs) for Bs in B), len(B) * k)
    for u in end.algebra.generators:
        wa = end.matrix_of(alpha.apply(end.algebra.basis_vector(u)))
        if (end.maps[u] * F).rows != tuple(vec(wa * Bi) for Bi in B):
            return f"b(w x, y) = b(x, alpha(w) y) fails at End generator {u}"
    return None


def anti_structure(A, gamma, v: Sequence) -> Optional[str]:
    """gamma is anti, v gamma(v) = gamma(v) v = 1 and gamma^2(e_i) = v e_i v^-1
    on every basis element; these force gamma to be bijective."""
    if gamma.variance != gamma.ANTI:
        return "gamma is not an anti-homomorphism"
    gv = gamma.apply(v)
    if A.mul(v, gv) != A.unit or A.mul(gv, v) != A.unit:
        return "v gamma(v) = gamma(v) v = 1 fails"
    for i in range(A.dim):
        r = A.basis_vector(i)
        if gamma.apply(gamma.apply(r)) != A.mul(v, A.mul(r, gv)):
            return f"gamma^2 = conjugation by v fails at basis element {i}"
    return None


def theta_relation(A, gamma, theta: Matrix) -> Optional[str]:
    """(gamma(a) b c)^theta = gamma(c) theta(b) a on basis triples (a, b, c)."""
    images = [gamma.apply(A.basis_vector(i)) for i in range(A.dim)]
    for i in range(A.dim):
        a = A.basis_vector(i)
        for j in range(A.dim):
            tb_a = A.mul(theta.rows[j], a)
            for k in range(A.dim):
                if theta.act_row(A.mul(images[i], A.product(j, k))) != A.mul(images[k], tb_a):
                    return f"theta relation fails at basis triple ({i}, {j}, {k})"
    return None


def partial_order(leq: Sequence[Sequence[bool]]) -> Optional[str]:
    """A square relation that is reflexive, antisymmetric and transitive."""
    n = len(leq)
    if any(len(row) != n for row in leq):
        return "relation matrix must be square"
    for i in range(n):
        if not leq[i][i]:
            return f"reflexivity fails at {i}"
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"antisymmetry fails at ({i}, {j})"
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return f"transitivity fails at ({i}, {j}, {k})"
    return None


def order_reversing(leq: Sequence[Sequence[bool]], perm: Sequence[int]) -> Optional[str]:
    """i <= j iff perm(j) <= perm(i), on all pairs."""
    for i in range(len(leq)):
        for j in range(len(leq)):
            if leq[i][j] != leq[perm[j]][perm[i]]:
                return f"order reversal fails at pair ({i}, {j})"
    return None

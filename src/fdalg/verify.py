"""Defining-equation checkers, the one home of every check on basis tuples.

A checker returns None when its equations hold, or else a message naming the
equation and the first basis tuple where it fails.  Constructors raise it
through :func:`require`, CLI ``checks`` re-run checkers on returned objects,
and searches use them as filters.  Actions are lists of matrices on row
vectors, one per algebra basis element.
"""

from typing import Optional, Sequence

from .errors import VerificationError
from .linalg import Matrix, RowSpace, mcombine, vcombine, vec_is_zero


def require(message: Optional[str]) -> None:
    """Raise VerificationError(message) unless the check passed (None)."""
    if message is not None:
        raise VerificationError(message)


def associative_unital(A) -> Optional[str]:
    """(e_i e_j) e_k = e_i (e_j e_k) on all basis triples; 1 e_i = e_i = e_i 1."""
    d, sp, field = A.dim, A._sparse, A.field
    for i in range(d):
        for j in range(d):
            vij = sp[i][j]
            for k in range(d):
                lhs: dict = {}
                for m, c in vij:
                    for t, c2 in sp[m][k]:
                        lhs[t] = field.add(lhs.get(t, field.zero), field.mul(c, c2))
                rhs: dict = {}
                for m, c in sp[j][k]:
                    for t, c2 in sp[i][m]:
                        rhs[t] = field.add(rhs.get(t, field.zero), field.mul(c, c2))
                for t in set(lhs) | set(rhs):
                    if lhs.get(t, field.zero) != rhs.get(t, field.zero):
                        return f"associativity fails at basis triple ({i}, {j}, {k})"
    for i in range(d):
        e = A.basis_vector(i)
        if A.mul(A.unit, e) != e or A.mul(e, A.unit) != e:
            return f"unit law fails at basis element {i}"
    return None


def unit_preserved(f) -> Optional[str]:
    """f(1) = 1."""
    return None if f.apply(f.source.unit) == f.target.unit else "unit law f(1) = 1 fails"


def multiplicative(f) -> Optional[str]:
    """f(e_i e_j) = f(e_i) f(e_j) on basis pairs; reversed if f is anti."""
    src, tgt = f.source, f.target
    images = [f.apply(src.basis_vector(i)) for i in range(src.dim)]
    anti = f.variance == f.ANTI
    for i in range(src.dim):
        for j in range(src.dim):
            rhs = tgt.mul(images[j], images[i]) if anti else tgt.mul(images[i], images[j])
            if f.apply(src.table[i][j]) != rhs:
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


def nilpotent_ideal(A, basis: Sequence[Sequence]) -> Optional[str]:
    """The span of ``basis`` is a two-sided ideal and a power of it is 0."""
    space = RowSpace(A.field, A.dim)
    space.extend(basis)
    for k, v in enumerate(basis):
        for i in range(A.dim):
            e = A.basis_vector(i)
            if not space.contains(A.mul(v, e)) or not space.contains(A.mul(e, v)):
                return f"ideal law fails at (vector {k}, basis element {i})"
    current = list(space.rows)
    for _ in range(A.dim):
        nxt = RowSpace(A.field, A.dim)
        for u in current:
            for v in basis:
                w = A.mul(u, v)
                if not vec_is_zero(w):
                    nxt.insert(w)
        if nxt.dim == 0:
            return None
        current = list(nxt.rows)
    return "the ideal is not nilpotent"


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
        for i in range(A.dim):
            space.insert(A.mul(e, A.mul(A.basis_vector(i), e)))
        if space.dim != 1:
            return f"idempotent {k} is not primitive: e A e has dimension {space.dim}"
    return None


def module_action(A, action: Sequence[Matrix]) -> Optional[str]:
    """rho(1) = 1 and rho(e_i) rho(e_j) = rho(e_i e_j) on all basis pairs."""
    n = action[0].nrows
    if not mcombine(A.field, n, n, A.unit, action).is_identity():
        return "unit does not act as the identity"
    for i in range(A.dim):
        for j in range(A.dim):
            if action[i] * action[j] != mcombine(A.field, n, n, A.table[i][j], action):
                return f"action is not multiplicative at basis pair ({i}, {j})"
    return None


def intertwines(src_actions: Sequence[Matrix], dst_actions: Sequence[Matrix],
                *maps: Matrix) -> Optional[str]:
    """src(e_t) f = f dst(e_t) for every t and every given f: each f is a module map."""
    for k, f in enumerate(maps):
        for t, (s, d) in enumerate(zip(src_actions, dst_actions)):
            if s * f != f * d:
                return f"intertwining law fails at (basis element {t}, map {k})"
    return None


def double_module(A, action0: Sequence[Matrix], action1: Sequence[Matrix]) -> Optional[str]:
    """Two module actions that commute: each action1(e_j) intertwines action0."""
    for i, action in enumerate((action0, action1)):
        msg = module_action(A, action)
        if msg is not None:
            return f"action{i}: {msg}"
    msg = intertwines(action0, action0, *action1)
    return None if msg is None else f"the two actions do not commute: {msg}"


def swaps_actions(K, T: Matrix) -> Optional[str]:
    """(k .i e_t) T = (k T) .(1-i) e_t for i = 0, 1 and every t."""
    for i, (src, dst) in enumerate(((K.action0, K.action1), (K.action1, K.action0))):
        msg = intertwines(src, dst, T)
        if msg is not None:
            return f"swap law for action{i}: {msg}"
    return None


def balanced(b) -> Optional[str]:
    """b(m_i e_t, m_j) = b(m_i, m_j) .0 e_t and b(m_i, m_j e_t) = b(m_i, m_j) .1 e_t."""
    M, K, tensor = b.module, b.values, b.tensor
    field, d = M.algebra.field, M.dim
    columns = [[tensor[s][j] for s in range(d)] for j in range(d)]
    for t in range(M.algebra.dim):
        rho, m0, m1 = M.action[t], K.action0[t], K.action1[t]
        for i in range(d):
            for j in range(d):
                if vcombine(field, K.dim, rho.rows[i], columns[j]) != m0.act_row(tensor[i][j]):
                    return f"left balance law fails at basis triple ({t}, {i}, {j})"
                if vcombine(field, K.dim, rho.rows[j], tensor[i]) != m1.act_row(tensor[i][j]):
                    return f"right balance law fails at basis triple ({t}, {i}, {j})"
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
                if theta.act_row(A.mul(images[i], A.table[j][k])) != A.mul(images[k], tb_a):
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

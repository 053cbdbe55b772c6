"""Finite posets, order-reversing symmetry search, incidence algebras,
and recovery of the poset invariant from an algebra.

The built-in 12-element counterexample poset is guarded by a validation
gate (connected, an order-reversing bijection of order 4 exists, none of
order <= 2 exists) so that a mis-transcribed cover list cannot slip
through silently.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from . import verify
from .algebras import Algebra, idempotent_classes, matrix_unit_algebra
from .errors import NotAPosetError, VerificationError
from .linalg import Field
# is_isomorphic is not called here; the binding stays because the
# benchmark's tracer and its tests address it as posets.is_isomorphic
from .modules import is_isomorphic  # noqa: F401


class Poset:
    """Immutable finite poset on {0..size-1} given by its full relation."""

    def __init__(self, leq: Sequence[Sequence[bool]]):
        self.size = len(leq)
        self.leq = tuple(tuple(bool(x) for x in row) for row in leq)
        msg = verify.partial_order(self.leq)
        if msg is not None:
            raise NotAPosetError(msg)

    @staticmethod
    def from_covers(size: int, covers: Sequence[Sequence[int]]) -> "Poset":
        """Reflexive-transitive closure of a cover list."""
        # a negative entry would index from the end, a large one raise IndexError
        if size < 0 or any(not 0 <= i < size for c in covers for i in c):
            raise ValueError(f"cover entries must lie in range(size), size {size}")
        leq = [[i == j for j in range(size)] for i in range(size)]
        for i, j in covers:
            leq[i][j] = True
        for k in range(size):
            for i in range(size):
                if leq[i][k]:
                    row_k = leq[k]
                    row_i = leq[i]
                    for j in range(size):
                        if row_k[j]:
                            row_i[j] = True
        return Poset(leq)

    def opposite(self) -> "Poset":
        return Poset([[self.leq[j][i] for j in range(self.size)]
                      for i in range(self.size)])

    def up_set(self, i: int) -> list:
        return [j for j in range(self.size) if self.leq[i][j]]

    def down_set(self, i: int) -> list:
        return [j for j in range(self.size) if self.leq[j][i]]

    def covers(self) -> list:
        """Cover pairs (i,j): i < j with nothing strictly between."""
        out = []
        for i in range(self.size):
            for j in range(self.size):
                if i != j and self.leq[i][j]:
                    if not any(
                        k != i and k != j and self.leq[i][k] and self.leq[k][j]
                        for k in range(self.size)
                    ):
                        out.append((i, j))
        return out

    def is_connected(self) -> bool:
        if self.size == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in range(self.size):
                if y not in seen and (self.leq[x][y] or self.leq[y][x]):
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.size

    def __eq__(self, other):
        return isinstance(other, Poset) and self.leq == other.leq

    def __repr__(self):
        return f"Poset(size={self.size})"


def chain(n: int) -> Poset:
    return Poset([[i <= j for j in range(n)] for i in range(n)])


def antichain(n: int) -> Poset:
    return Poset([[i == j for j in range(n)] for i in range(n)])


def poset_isomorphisms(P: Poset, Q: Poset, limit: Optional[int] = None) -> list:
    """All isomorphisms P -> Q as permutation tuples, by backtracking with
    degree-and-level profile refinement; lexicographic order."""
    n = P.size
    if n != Q.size:
        return []

    def profile(poset, x):
        downs = sorted(len(poset.down_set(y)) for y in poset.up_set(x))
        ups = sorted(len(poset.up_set(y)) for y in poset.down_set(x))
        return (len(poset.down_set(x)), len(poset.up_set(x)), tuple(downs), tuple(ups))

    prof_p = [profile(P, x) for x in range(n)]
    prof_q = [profile(Q, y) for y in range(n)]
    if sorted(prof_p) != sorted(prof_q):
        return []
    candidates = [
        [y for y in range(n) if prof_q[y] == prof_p[x]] for x in range(n)
    ]
    order = sorted(range(n), key=lambda x: len(candidates[x]))
    out = []
    assignment = [None] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            out.append(tuple(assignment))
            return limit is not None and len(out) >= limit
        x = order[pos]
        for y in candidates[x]:
            if used[y]:
                continue
            ok = True
            for earlier in order[:pos]:
                z = assignment[earlier]
                if P.leq[x][earlier] != Q.leq[y][z] or P.leq[earlier][x] != Q.leq[z][y]:
                    ok = False
                    break
            if ok:
                assignment[x] = y
                used[y] = True
                if extend(pos + 1):
                    return True
                assignment[x] = None
                used[y] = False
        return False

    extend(0)
    out.sort()
    return out


def poset_isomorphism(P: Poset, Q: Poset) -> Optional[tuple]:
    isos = poset_isomorphisms(P, Q, limit=1)
    return isos[0] if isos else None


def perm_order(perm: tuple) -> int:
    n = 1
    cur = perm
    ident = tuple(range(len(perm)))
    while cur != ident:
        cur = tuple(perm[i] for i in cur)
        n += 1
    return n


def order_reversing_maps(P: Poset, order: Optional[int] = None) -> list:
    """All bijections with i <= j iff phi(j) <= phi(i); with ``order`` set,
    only those with phi^order = id.  (The identity qualifies only on
    antichains.)"""
    maps = poset_isomorphisms(P, P.opposite())
    if order is None:
        return maps
    return [m for m in maps if order % perm_order(m) == 0]


# Cover list of the 12-element counterexample poset, elements numbered in
# reading order of its 4x4 diagram (rows top to bottom):
#   row 1:          0   1
#   row 2:  2   3   4   5
#   row 3:  6   7   8   9
#   row 4:         10  11
_SCHARLAU_COVERS = (
    (0, 1),
    (2, 0), (2, 6),
    (3, 0),
    (5, 1), (5, 4),
    (6, 10), (6, 7),
    (8, 11),
    (9, 5), (9, 11),
    (11, 10),
)

_SCHARLAU_ROTATION = (5, 9, 1, 4, 8, 11, 0, 3, 7, 10, 2, 6)


@lru_cache(maxsize=1)
def scharlau_poset() -> Poset:
    """The 12-element poset with an order-reversing bijection of order 4
    but no order-reversing bijection of order <= 2.

    The transcription is accepted only if the validation gate passes:
    connected, the quarter-turn map is order-reversing of order 4, and an
    exhaustive search finds no order-reversing map of order <= 2.
    """
    P = Poset.from_covers(12, _SCHARLAU_COVERS)
    if not P.is_connected():
        raise VerificationError("transcription gate: poset is not connected")
    maps = order_reversing_maps(P)
    if _SCHARLAU_ROTATION not in maps or perm_order(_SCHARLAU_ROTATION) != 4:
        raise VerificationError("transcription gate: quarter turn is not order-reversing of order 4")
    if any(perm_order(m) <= 2 for m in maps):
        raise VerificationError("transcription gate: an order-reversing involution exists")
    return P


def incidence_pairs(P: Poset) -> list:
    return [(i, j) for i in range(P.size) for j in range(P.size) if P.leq[i][j]]


def incidence_algebra(field: Field, P: Poset) -> Algebra:
    """Span of the matrix units e_ij for i <= j in P."""
    pairs = incidence_pairs(P)
    return matrix_unit_algebra(field, pairs, [f"e_{i}_{j}" for i, j in pairs])


def poset_of_algebra(A: Algebra, seed: int = 0) -> Poset:
    """The blocks of :func:`idempotent_classes`, named by their first
    idempotents and ordered by e A f != 0.

    Raises NotAPosetError when the extracted relation fails a poset axiom
    (possible for algebras that are not incidence algebras).
    """
    reps = [cls[0] for cls in idempotent_classes(A, seed=seed)]
    return Poset([[any(map(any, span)) for span in A.corners(e, reps)] for e in reps])

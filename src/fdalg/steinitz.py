"""Steinitz-class calculus over an abstract finite class group.

A finitely generated projective over a Dedekind domain is classified by
(rank, ideal class); this module implements that arithmetic, the
solvability test for the existence of an anti-automorphism on an
endomorphism algebra, the rank formulas for hom modules and double
modules over Azumaya algebras, and the halving map of the dyadic
counterexample.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass(frozen=True)
class ClassGroup:
    """Finite abelian group as a product of cyclic factors Z/d_i."""

    invariant_factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors",
                           tuple(map(operator.index, self.invariant_factors)))
        if any(d < 1 for d in self.invariant_factors):
            raise ValueError("invariant factors must be >= 1")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def element(self, coords: Sequence[int]) -> "ClassElement":
        if len(coords) != self.rank:
            raise ValueError("coordinate count mismatch")
        return ClassElement(self, tuple(operator.index(c) % d for c, d in
                                        zip(coords, self.invariant_factors)))

    @property
    def zero(self) -> "ClassElement":
        return self.element([0] * self.rank)

    def elements(self):
        if self.order > 10 ** 6:
            raise ValueError("group too large to enumerate")
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield self.element(coords)


@dataclass(frozen=True)
class ClassElement:
    group: ClassGroup
    coords: tuple

    def __add__(self, other: "ClassElement") -> "ClassElement":
        self._check(other)
        return self.group.element([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "ClassElement":
        return self.group.element([-a for a in self.coords])

    def __sub__(self, other: "ClassElement") -> "ClassElement":
        return self + (-other)

    def scale(self, n: int) -> "ClassElement":
        return self.group.element([n * a for a in self.coords])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def order(self) -> int:
        out = 1
        for a, d in zip(self.coords, self.group.invariant_factors):
            if a:
                out = out * (d // math.gcd(a, d)) // math.gcd(out, d // math.gcd(a, d))
        return out

    def _check(self, other: "ClassElement") -> None:
        if self.group != other.group:
            raise ValueError("class elements from different groups")


@dataclass(frozen=True)
class ProjectiveSymbol:
    """(rank, Steinitz class): the isomorphism type of a f.g. projective."""

    group: ClassGroup
    rank: int
    cls: ClassElement

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.cls.group != self.group:
            raise ValueError("class belongs to a different group")
        if self.rank == 0 and not self.cls.is_zero():
            raise ValueError("the zero module has trivial class")


def symbol(group: ClassGroup, rank: int, coords: Sequence[int]) -> ProjectiveSymbol:
    return ProjectiveSymbol(group, rank, group.element(coords))


def direct_sum(M: ProjectiveSymbol, N: ProjectiveSymbol) -> ProjectiveSymbol:
    _same_group(M, N)
    return ProjectiveSymbol(M.group, M.rank + N.rank, M.cls + N.cls)


def tensor(M: ProjectiveSymbol, N: ProjectiveSymbol) -> ProjectiveSymbol:
    _same_group(M, N)
    cls = M.cls.scale(N.rank) + N.cls.scale(M.rank)
    rank = M.rank * N.rank
    if rank == 0:
        cls = M.group.zero
    return ProjectiveSymbol(M.group, rank, cls)


def dual(M: ProjectiveSymbol) -> ProjectiveSymbol:
    return ProjectiveSymbol(M.group, M.rank, -M.cls)


def hom_symbol(M: ProjectiveSymbol, N: ProjectiveSymbol) -> ProjectiveSymbol:
    _same_group(M, N)
    return tensor(dual(M), N)


def is_isomorphic_symbol(M: ProjectiveSymbol, N: ProjectiveSymbol) -> bool:
    _same_group(M, N)
    return M.rank == N.rank and M.cls == N.cls


def _same_group(M: ProjectiveSymbol, N: ProjectiveSymbol) -> None:
    if M.group != N.group:
        raise ValueError("symbols over different class groups")


@dataclass(frozen=True)
class AntiAutoTest:
    """Outcome of the twist-solvability test rank * [I] = delta."""

    exists: bool
    witness: Optional[ClassElement]
    delta: ClassElement
    rank: int
    certificate: tuple  # per cyclic factor: (modulus, gcd(rank, modulus), delta_i, divisible)


def anti_automorphism_test(P: ProjectiveSymbol, P_dual1: ProjectiveSymbol) -> AntiAutoTest:
    """Decide whether some class [I] satisfies I (x) P = P^[1].

    Solvable iff gcd(rank, d_i) divides delta_i in every cyclic factor; an
    explicit witness is returned when it exists, and the per-factor gcd
    data certifies impossibility otherwise.
    """
    _same_group(P, P_dual1)
    if P.rank == 0:
        raise ValueError("anti-automorphism test needs positive rank")
    if P.rank != P_dual1.rank:
        return AntiAutoTest(False, None, P.group.zero, P.rank,
                            (("rank mismatch", P.rank, P_dual1.rank, False),))
    delta = P_dual1.cls - P.cls
    r = P.rank
    witness_coords = []
    cert = []
    solvable = True
    for d, di in zip(P.group.invariant_factors, delta.coords):
        g = math.gcd(r, d)
        ok = di % g == 0
        cert.append((d, g, di, ok))
        if not ok:
            solvable = False
            witness_coords.append(0)
            continue
        if d == 1:
            witness_coords.append(0)
            continue
        dq = d // g
        x = (di // g) * pow(r // g, -1, dq) % dq
        witness_coords.append(x)
    if not solvable:
        return AntiAutoTest(False, None, delta, r, tuple(cert))
    witness = P.group.element(witness_coords)
    if not (P.cls + witness.scale(r)) == P_dual1.cls:
        raise ArithmeticError("witness verification failed")
    return AntiAutoTest(True, witness, delta, r, tuple(cert))


def anti_automorphism_test_brute(P: ProjectiveSymbol,
                                 P_dual1: ProjectiveSymbol) -> Optional[ClassElement]:
    """Exhaustive reference search over the whole group (small groups only)."""
    _same_group(P, P_dual1)
    if P.rank != P_dual1.rank:
        return None
    for x in P.group.elements():
        if P.cls + x.scale(P.rank) == P_dual1.cls:
            return x
    return None


def example_12_check(pic: ClassGroup, l: ClassElement, j: ClassElement) -> dict:
    """The rank-16 endomorphism-algebra test over a class group.

    Builds P = (C^3 + L) (x) (C^3 + J) and its twisted dual
    (C^3 + L^-1) (x) (C^3 + J) symbolically, runs the solvability test,
    and reports the order data of [L] used by the matrix-size remarks.
    """
    c3 = ProjectiveSymbol(pic, 3, pic.zero)
    line_l = ProjectiveSymbol(pic, 1, l)
    line_l_inv = ProjectiveSymbol(pic, 1, -l)
    line_j = ProjectiveSymbol(pic, 1, j)
    P = tensor(direct_sum(c3, line_l), direct_sum(c3, line_j))
    P_dual1 = tensor(direct_sum(c3, line_l_inv), direct_sum(c3, line_j))
    test = anti_automorphism_test(P, P_dual1)
    eight_l = l.scale(8)
    # is 8[L] in 16 Pic? solvable per factor iff gcd(16, d) | (8 l)_i
    eight_in_16 = all(
        coord % math.gcd(16, d) == 0
        for coord, d in zip(eight_l.coords, pic.invariant_factors)
    )
    return {
        "pic": list(pic.invariant_factors),
        "l": list(l.coords),
        "j": list(j.coords),
        "rank": P.rank,
        "class_p": list(P.cls.coords),
        "class_p_dual": list(P_dual1.cls.coords),
        "delta": list(test.delta.coords),
        "exists": test.exists,
        "witness": list(test.witness.coords) if test.witness else None,
        "certificate": [list(c) for c in test.certificate],
        "order_l": l.order(),
        "eight_l_in_16_pic": eight_in_16,
        "sixteen_l_zero": l.scale(16).is_zero(),
    }


# -- rank formulas ------------------------------------------------------

def rank_hom(rank_m: int, rank_n: int, rank_a: int) -> Fraction:
    """rank Hom_A(M, N) = rank(M) rank(N) / rank(A) for Azumaya A."""
    if rank_m <= 0 or rank_n <= 0 or rank_a <= 0:
        raise ValueError("ranks must be positive")
    return Fraction(rank_m * rank_n, rank_a)


def _exact_sqrt(n: int) -> int:
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r


def rank_double_module(rank_a: int, rank_a_sigma: int) -> tuple:
    """(rank K_0, rank K_1) = sqrt(rank(A) rank(A^sigma)) on both sides."""
    if rank_a <= 0 or rank_a_sigma <= 0:
        raise ValueError("ranks must be positive")
    r = _exact_sqrt(rank_a * rank_a_sigma)
    return (r, r)


def saltman_rank_bound(rank_a: int, rank_a_sigma: int) -> int:
    """rank of End(A + K_1): (1 + sqrt(rank A^sigma / rank A))^2 rank(A);
    equals 4 rank(A) at equal ranks."""
    if rank_a <= 0 or rank_a_sigma <= 0:
        raise ValueError("ranks must be positive")
    if rank_a == rank_a_sigma:
        return 4 * rank_a
    cross = _exact_sqrt(rank_a * rank_a_sigma)
    return rank_a + 2 * cross + rank_a_sigma


# -- the dyadic counterexample map --------------------------------------

def dyadic_dual_rank(x) -> Fraction:
    """The halving map on nonnegative dyadic rationals."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("dyadic ranks are non-negative")
    den = x.denominator
    while den % 2 == 0:
        den //= 2
    if den != 1:
        raise ValueError(f"{x} is not a dyadic rational")
    return x / 2

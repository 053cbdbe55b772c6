"""Steinitz-class calculus and the class-group solvability test."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdalg import steinitz as stz


def _zn(*ds):
    return stz.ClassGroup(tuple(ds))


def test_group_and_element_arithmetic():
    g = _zn(4, 6)
    a = g.element([3, 5])
    b = g.element([2, 2])
    assert (a + b).coords == (1, 1)
    assert (-a).coords == (1, 1)
    assert a.scale(4).coords == (0, 2)
    assert g.zero.is_zero()
    assert g.order == 24
    assert g.element([2, 0]).order() == 2
    assert g.element([1, 1]).order() == 12


def test_class_group_refuses_non_integers():
    # int() truncated these to Z/48 and the class 3
    with pytest.raises(TypeError):
        stz.ClassGroup((48.9,))
    with pytest.raises(TypeError):
        _zn(48).element([3.7])


def test_symbol_ops():
    g = _zn(48)
    c3 = stz.symbol(g, 3, [0])
    L = stz.symbol(g, 1, [3])
    J = stz.symbol(g, 1, [5])
    P = stz.tensor(stz.direct_sum(c3, L), stz.direct_sum(c3, J))
    assert P.rank == 16
    assert P.cls.coords == ((4 * 3 + 4 * 5) % 48,)
    assert stz.dual(stz.dual(P)) == P
    one = stz.symbol(g, 1, [0])
    assert stz.tensor(P, one) == P
    assert stz.hom_symbol(P, P) == stz.tensor(stz.dual(P), P)


def test_symbol_laws():
    g = _zn(4, 6)
    M = stz.symbol(g, 2, [1, 3])
    N = stz.symbol(g, 3, [2, 1])
    Q = stz.symbol(g, 5, [0, 4])
    assert stz.tensor(M, N) == stz.tensor(N, M)
    assert stz.tensor(stz.tensor(M, N), Q) == stz.tensor(M, stz.tensor(N, Q))
    assert stz.is_isomorphic_symbol(stz.hom_symbol(M, N),
                                    stz.tensor(stz.dual(M), N))


def test_zero_module_handling():
    g = _zn(5)
    zero = stz.symbol(g, 0, [0])
    M = stz.symbol(g, 2, [1])
    assert stz.tensor(zero, M).rank == 0
    assert stz.tensor(zero, M).cls.is_zero()
    with pytest.raises(ValueError):
        stz.symbol(g, 0, [1])


def test_is_isomorphic_symbol():
    g = _zn(48)
    assert stz.is_isomorphic_symbol(stz.symbol(g, 2, [3]), stz.symbol(g, 2, [3]))
    assert not stz.is_isomorphic_symbol(stz.symbol(g, 2, [3]), stz.symbol(g, 2, [0]))
    # (16, -12g+4j) vs (16, 12g+4j): differ because 24g != 0
    a = stz.symbol(g, 16, [-12 + 4 * 5])
    b = stz.symbol(g, 16, [12 + 4 * 5])
    assert not stz.is_isomorphic_symbol(a, b)


def test_anti_test_examples():
    g = _zn(48)
    P = stz.symbol(g, 16, [0])
    impossible = stz.anti_automorphism_test(P, stz.symbol(g, 16, [24]))
    assert not impossible.exists
    assert impossible.certificate[0] == (48, 16, 24, False)
    trivial = stz.anti_automorphism_test(P, P)
    assert trivial.exists and trivial.witness.is_zero()
    witness = stz.anti_automorphism_test(P, stz.symbol(g, 16, [32]))
    assert witness.exists and witness.witness.coords == (2,)


def test_anti_test_rank_zero_error():
    g = _zn(5)
    with pytest.raises(ValueError):
        stz.anti_automorphism_test(stz.symbol(g, 0, [0]), stz.symbol(g, 0, [0]))


@given(st.lists(st.integers(1, 12), min_size=1, max_size=3),
       st.integers(1, 20), st.data())
@settings(max_examples=60, deadline=None)
def test_anti_test_agrees_with_brute_force(factors, rank, data):
    g = stz.ClassGroup(tuple(factors))
    c1 = [data.draw(st.integers(0, d - 1)) for d in factors]
    c2 = [data.draw(st.integers(0, d - 1)) for d in factors]
    P = stz.symbol(g, rank, c1)
    Pd = stz.symbol(g, rank, c2)
    fast = stz.anti_automorphism_test(P, Pd)
    brute = stz.anti_automorphism_test_brute(P, Pd)
    assert fast.exists == (brute is not None)
    if fast.exists:
        assert (P.cls + fast.witness.scale(rank)) == Pd.cls


def test_example_12_report():
    pic = _zn(48)
    rep = stz.example_12_check(pic, pic.element([3]), pic.element([7]))
    assert rep["exists"] is False
    assert rep["order_l"] == 16
    assert rep["sixteen_l_zero"] is True
    assert rep["eight_l_in_16_pic"] is False
    assert rep["certificate"][0] == [48, 16, 24, False]
    # displayed decomposition classes
    assert rep["class_p"] == [(4 * 3 + 4 * 7) % 48]
    assert rep["class_p_dual"] == [(-4 * 3 + 4 * 7) % 48]


def test_example_12_classes_symbolic():
    pic = _zn(48)
    l = pic.element([3])
    j = pic.element([11])
    c3 = stz.symbol(pic, 3, [0])
    P = stz.tensor(stz.direct_sum(c3, stz.ProjectiveSymbol(pic, 1, l)),
                   stz.direct_sum(c3, stz.ProjectiveSymbol(pic, 1, j)))
    # I (x) P has class 16 [I] + 4[L] + 4[J]
    for i0 in (0, 1, 5):
        I = stz.symbol(pic, 1, [i0])
        twisted = stz.tensor(I, P)
        expected = pic.element([16 * i0]) + l.scale(4) + j.scale(4)
        assert twisted.cls == expected


def test_rank_formulas():
    assert stz.rank_hom(4, 4, 4) == 4
    assert stz.rank_hom(2, 4, 4) == Fraction(2)
    assert stz.rank_hom(2, 2, 4) == 1
    assert stz.rank_double_module(4, 4) == (4, 4)
    assert stz.rank_double_module(4, 16) == (8, 8)
    with pytest.raises(ValueError):
        stz.rank_double_module(2, 3)
    assert stz.saltman_rank_bound(4, 4) == 16
    assert stz.saltman_rank_bound(16, 16) == 64
    assert stz.saltman_rank_bound(4, 16) == 36
    with pytest.raises(ValueError):
        stz.saltman_rank_bound(2, 5)


def test_dyadic_map():
    assert stz.dyadic_dual_rank(2) == 1
    assert stz.dyadic_dual_rank(0) == 0
    assert stz.dyadic_dual_rank(Fraction(5, 4)) == Fraction(5, 8)
    with pytest.raises(ValueError):
        stz.dyadic_dual_rank(Fraction(1, 3))
    with pytest.raises(ValueError):
        stz.dyadic_dual_rank(-1)


@given(st.integers(1, 1 << 12), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_dyadic_no_fixed_point(num, k):
    x = Fraction(num, 1 << k)
    y = stz.dyadic_dual_rank(x)
    assert y * 2 == x
    assert y != x

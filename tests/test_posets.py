"""Posets, order-reversing maps, incidence algebras, poset recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from fdalg import algebras as alg, involutions as inv, modules as mod, posets as ps
from fdalg.errors import NotAPosetError
from fdalg.linalg import Field, QQ, RowSpace

from helpers import connected_posets, corpus_small_posets


def test_poset_axioms_enforced():
    with pytest.raises(NotAPosetError):
        ps.Poset([[True, True], [True, True]])  # antisymmetry
    with pytest.raises(NotAPosetError):
        ps.Poset([[False]])  # reflexivity
    # transitivity comes for free in from_covers
    P = ps.Poset.from_covers(3, [(0, 1), (1, 2)])
    assert P.leq[0][2]


@pytest.mark.parametrize("size, covers", [(3, [(0, -1)]), (3, [(0, 5)]), (-2, [])])
def test_from_covers_refuses_entries_outside_the_poset(size, covers):
    # (0, -1) was read as the cover (0, 2), (0, 5) raised IndexError
    with pytest.raises(ValueError, match=rf"cover entries must lie in range\(size\), size {size}"):
        ps.Poset.from_covers(size, covers)


def test_order_reversing_chain():
    P = ps.chain(3)
    maps = ps.order_reversing_maps(P)
    assert maps == [(2, 1, 0)]
    assert ps.order_reversing_maps(P, 2) == [(2, 1, 0)]


def test_order_reversing_antichain():
    P = ps.antichain(2)
    maps = ps.order_reversing_maps(P)
    assert sorted(maps) == [(0, 1), (1, 0)]
    # the identity is order-reversing only on antichains
    assert (0, 1) in maps


def test_order_reversing_composition_is_order_preserving():
    P = ps.scharlau_poset()
    r = ps._SCHARLAU_ROTATION
    r2 = tuple(r[i] for i in r)
    # r^2 preserves the order
    for i in range(P.size):
        for j in range(P.size):
            assert P.leq[i][j] == P.leq[r2[i]][r2[j]]


def test_scharlau_gate():
    P = ps.scharlau_poset()
    assert P.size == 12
    assert P.is_connected()
    maps = ps.order_reversing_maps(P)
    assert any(ps.perm_order(m) == 4 for m in maps)
    assert ps.order_reversing_maps(P, 2) == []
    assert ps.order_reversing_maps(P, 1) == []


def test_scharlau_gate_catches_mistranscription():
    # dropping a cover must make the gate fail
    bad_covers = ps._SCHARLAU_COVERS[:-1]
    P = ps.Poset.from_covers(12, bad_covers)
    maps = ps.order_reversing_maps(P)
    gate = (
        P.is_connected()
        and any(ps.perm_order(m) == 4 for m in maps)
        and not any(ps.perm_order(m) <= 2 for m in maps)
    )
    assert not gate


def test_incidence_algebra_shapes():
    F5 = Field(5)
    assert ps.incidence_algebra(QQ, ps.antichain(3)).dim == 3
    ut2 = ps.incidence_algebra(QQ, ps.chain(2))
    assert ut2.dim == 3
    P = ps.scharlau_poset()
    A = ps.incidence_algebra(F5, P)
    assert A.dim == len(ps.incidence_pairs(P)) == 32


def test_incidence_radical_is_strict_upper_part():
    P = ps.Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    A = ps.incidence_algebra(QQ, P)
    J = alg.jacobson_radical(A)
    pairs = ps.incidence_pairs(P)
    strict = [t for t, (i, j) in enumerate(pairs) if i != j]
    assert len(J) == len(strict)
    space = RowSpace(QQ, A.dim)
    space.extend(J)
    for t in strict:
        assert space.contains(A.basis_vector(t))


def test_center_dim_one_iff_connected_corpus():
    for P in corpus_small_posets():
        A = ps.incidence_algebra(QQ, P)
        c = alg.center(A)
        assert (c.dim == 1) == P.is_connected(), f"corpus poset {P.covers()}"


@st.composite
def poset_sums(draw, max_points=6):
    """(P, c): P is the disjoint union of c random connected posets, with at most
    ``max_points`` points, so its incidence algebra has dimension at most 21."""
    parts, size = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if size < max_points:
            parts.append((size, draw(connected_posets(max_points - size))))
            size += parts[-1][1].size
    leq = [[False] * size for _ in range(size)]
    for start, Q in parts:
        for i, row in enumerate(Q.leq):
            leq[start + i][start:start + Q.size] = row
    return ps.Poset(leq), len(parts)


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=str)
@given(case=poset_sums())
@settings(max_examples=50, deadline=None)
def test_incidence_algebra_invariants_of_random_posets(field, case):
    P, components = case
    A = ps.incidence_algebra(field, P)
    assert field.p is None or A.dim < field.p   # the radical's trace criterion needs p > dim
    strict = sum(P.leq[i][j] for i in range(P.size) for j in range(P.size) if i != j)
    assert P.is_connected() == (components == 1)
    assert len(alg.jacobson_radical(A)) == strict
    assert alg.center(A).dim == components
    assert len(alg.primitive_idempotents(A)) == P.size


def test_poset_roundtrip_corpus():
    for P in corpus_small_posets():
        A = ps.incidence_algebra(QQ, P)
        P2 = ps.poset_of_algebra(A)
        assert ps.poset_isomorphism(P2, P) is not None, f"corpus poset {P.covers()}"


def test_incidence_algebras_are_basic():
    P = ps.Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    A = ps.incidence_algebra(QQ, P)
    res = alg.basic_algebra(A)
    assert res.idempotent == A.unit
    assert res.algebra.dim == A.dim


def test_poset_of_matrix_algebra_is_point():
    P = ps.poset_of_algebra(alg.matrix_algebra(QQ, 3))
    assert P.size == 1


def test_poset_of_upper_triangular_is_chain():
    P = ps.poset_of_algebra(alg.upper_triangular_algebra(QQ, 2))
    assert ps.poset_isomorphism(P, ps.chain(2)) is not None


def test_scharlau_roundtrip():
    P = ps.scharlau_poset()
    A = ps.incidence_algebra(QQ, P)
    P2 = ps.poset_of_algebra(A)
    assert ps.poset_isomorphism(P2, P) is not None


def _scharlau_gamma():
    """The anti-automorphism e_ij -> e_phi(j)phi(i) induced by the
    quarter-turn order-reversing map."""
    P = ps.scharlau_poset()
    phi = ps._SCHARLAU_ROTATION
    A = ps.incidence_algebra(QQ, P)
    pairs = ps.incidence_pairs(P)
    index = {p: t for t, p in enumerate(pairs)}
    imgs = [A.basis_vector(index[(phi[j], phi[i])]) for (i, j) in pairs]
    return alg.AlgebraMap.from_images(A, A, imgs, alg.AlgebraMap.ANTI)


def test_incidence_anti_automorphism_from_poset_map():
    gamma = _scharlau_gamma()
    assert gamma.is_bijective()
    assert not gamma.is_involution()
    # restriction to the one-dimensional center is the identity
    rz = alg.restriction_to_center(gamma)
    assert rz.matrix.is_identity()


def test_scharlau_no_anti_structure():
    # consistency with the no-involution conclusion: the unit search of the
    # transfer machinery finds no anti-structure element for gamma, because
    # gamma^2 is not inner (the linear space is empty)
    gamma = _scharlau_gamma()
    A = gamma.source
    s = inv.find_anti_structure(A, gamma, trials=50)
    assert s is None

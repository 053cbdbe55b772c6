"""Structure-constant algebras: constructors, radicals, idempotents."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fdalg import algebras as alg, modules as mod, posets as ps, verify
from fdalg.errors import (
    UnsplitQuotientError,
    UnsupportedCharacteristicError,
    VerificationError,
)
from fdalg.linalg import Field, Matrix, QQ, RowSpace, common_left_kernel, invert, vadd

from helpers import assert_field_elements, dense_table, in_basis, transpose_map, ut_flip_map
from test_linalg import SCALAR_FIELDS, raw_scalars

F5 = Field(5)


def test_matrix_algebra_basics():
    A1 = alg.matrix_algebra(QQ, 1)
    assert A1.dim == 1 and A1.unit == (1,)
    A = alg.matrix_algebra(F5, 2)
    assert A.dim == 4
    e12, e21, e11 = A.basis_vector(1), A.basis_vector(2), A.basis_vector(0)
    assert A.mul(e12, e21) == e11
    # matrix units inherit the laws of M_n; test_derived_algebras_keep_the_laws checks them
    alg.matrix_algebra(QQ, 3)


def test_opposite_laws():
    M2 = alg.matrix_algebra(QQ, 2)
    op = alg.opposite(M2)
    assert alg.opposite(op) == M2
    # e12 o e21 in the opposite equals e21 e12 = e22
    assert op.mul(op.basis_vector(1), op.basis_vector(2)) == M2.basis_vector(3)
    comm = alg.quadratic_extension(QQ, 2)
    assert alg.opposite(comm) == comm


def test_products():
    FQ = alg.field_algebra(QQ)
    P = alg.direct_product(FQ, FQ)
    assert all(x == 0 for x in P.mul(P.basis_vector(0), P.basis_vector(1)))
    M2 = alg.matrix_algebra(QQ, 2)
    T = alg.tensor_product(M2, M2)
    assert T.dim == 16  # laws inherited; test_derived_algebras_keep_the_laws checks them
    # A (x) F = A up to the trivial reindexing
    AF = alg.tensor_product(M2, FQ)
    assert dense_table(AF) == dense_table(M2) and AF.unit == M2.unit


def test_tensor_associative_on_the_nose():
    A = alg.matrix_algebra(QQ, 2)
    B = alg.upper_triangular_algebra(QQ, 2)
    C = alg.field_algebra(QQ)
    left = alg.tensor_product(alg.tensor_product(A, B), C)
    right = alg.tensor_product(A, alg.tensor_product(B, C))
    assert dense_table(left) == dense_table(right) and left.unit == right.unit


def test_center_examples():
    assert alg.center(alg.matrix_algebra(QQ, 3)).dim == 1
    FQ = alg.field_algebra(QQ)
    assert alg.center(alg.direct_product(FQ, FQ)).dim == 2


def test_radical_examples():
    assert alg.jacobson_radical(alg.matrix_algebra(QQ, 2)) == []
    ut = alg.upper_triangular_algebra(QQ, 2)
    J = alg.jacobson_radical(ut)
    assert len(J) == 1 and J[0] == (0, 1, 0)
    # quotient by the radical is semisimple
    Abar, _ = alg.quotient_algebra(ut, J)
    assert alg.jacobson_radical(Abar) == []


def test_radical_char_restriction():
    A = alg.upper_triangular_algebra(Field(2), 3)
    with pytest.raises(UnsupportedCharacteristicError):
        alg.jacobson_radical(A)


def test_is_unit():
    ut = alg.upper_triangular_algebra(QQ, 2)
    one = ut.unit
    assert alg.is_unit(ut, one) == one
    M2 = alg.matrix_algebra(QQ, 2)
    assert alg.is_unit(M2, M2.basis_vector(1)) is None  # nilpotent e12
    x = tuple(a + b for a, b in zip(ut.unit, ut.basis_vector(1)))  # 1 + e12
    inv = alg.is_unit(ut, x)
    assert inv == tuple(a - b for a, b in zip(ut.unit, ut.basis_vector(1)))


def test_primitive_idempotents_matrix():
    M2 = alg.matrix_algebra(QQ, 2)
    idems = alg.primitive_idempotents(M2)
    assert sorted(idems) == sorted([M2.basis_vector(0), M2.basis_vector(3)])


def test_primitive_idempotents_product():
    FQ = alg.field_algebra(QQ)
    P = alg.direct_product(FQ, FQ)
    idems = alg.primitive_idempotents(P)
    assert sorted(idems) == [(0, 1), (1, 0)]


def test_primitive_idempotents_lift_through_radical():
    ut3 = alg.upper_triangular_algebra(QQ, 3)
    idems = alg.primitive_idempotents(ut3)
    assert len(idems) == 3
    total = idems[0]
    for e in idems[1:]:
        total = tuple(a + b for a, b in zip(total, e))
    assert total == ut3.unit
    for e in idems:
        assert ut3.mul(e, e) == e


def test_primitive_idempotents_unsplit():
    H = alg.quaternion_algebra(QQ)
    with pytest.raises(UnsplitQuotientError):
        alg.primitive_idempotents(H)


def test_primitive_idempotents_char_23_guard():
    F3 = Field(3)
    # radical is nonzero here, so lifting must refuse char 3
    ut = alg.upper_triangular_algebra(F3, 2)
    with pytest.raises(UnsupportedCharacteristicError):
        alg.primitive_idempotents(ut)


def test_idempotents_brute_force_primitivity_small_field():
    # over F5 the corner algebras can be swept exhaustively
    M2 = alg.matrix_algebra(F5, 2)
    idems = alg.primitive_idempotents(M2)
    for e in idems:
        corner_vectors = [M2.mul(e, M2.mul(M2.basis_vector(i), e)) for i in range(4)]
        corner, emb = alg.subalgebra(M2, corner_vectors, e)
        assert corner.dim == 1
        # every idempotent of a 1-dim algebra is 0 or the unit
        import itertools
        for coeffs in itertools.product(range(5), repeat=corner.dim):
            x = tuple(F5.coerce(c) for c in coeffs)
            if corner.mul(x, x) == x:
                assert x == corner.unit or all(c == 0 for c in x)


def test_basic_algebra_examples():
    M3 = alg.matrix_algebra(QQ, 3)
    res = alg.basic_algebra(M3)
    assert res.algebra.dim == 1
    mixed = alg.direct_product(alg.matrix_algebra(QQ, 2), alg.field_algebra(QQ))
    res2 = alg.basic_algebra(mixed)
    assert res2.algebra.dim == 2
    assert len(res2.class_representatives) == 2
    b0, b1 = res2.algebra.basis_vector(0), res2.algebra.basis_vector(1)
    prod = res2.algebra.mul(b0, b1)
    assert all(x == 0 for x in prod)


def test_goldman_element_cases():
    T1, g1 = alg.goldman_element(1, QQ)
    assert g1 == T1.unit
    T2, g2 = alg.goldman_element(2, QQ)
    assert T2.mul(g2, g2) == T2.unit
    # swap law at a specific pair: g (e12 (x) e22) = (e22 (x) e12) g
    lhs = T2.mul(g2, T2.basis_vector(1 * 4 + 3))
    rhs = T2.mul(T2.basis_vector(3 * 4 + 1), g2)
    assert lhs == rhs
    alg.goldman_element(3, F5)


def test_goldman_element_holds_under_a_megabyte():
    # M_3 (x) M_3 has dimension 81, so a dense table of its constants has 81^3 entries
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = alg.goldman_element(3, QQ)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result[0].dim == 81 and held < 1_000_000, held


def test_restriction_to_center():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    rz = alg.restriction_to_center(tr)
    assert rz.matrix.is_identity()
    FQ = alg.field_algebra(QQ)
    P = alg.direct_product(FQ, FQ)
    swap = alg.AlgebraMap.from_images(P, P, [P.basis_vector(1), P.basis_vector(0)],
                                      alg.AlgebraMap.HOMOMORPHISM)
    rz2 = alg.restriction_to_center(swap)
    assert not rz2.matrix.is_identity()
    assert (rz2.matrix * rz2.matrix).is_identity()


def test_algebra_map_validation():
    M2 = alg.matrix_algebra(QQ, 2)
    with pytest.raises(VerificationError):
        # identity matrix is not anti-multiplicative on M2
        alg.AlgebraMap(M2, M2, Matrix.identity(QQ, 4), alg.AlgebraMap.ANTI)
    tr = transpose_map(M2, 2)
    assert tr.is_involution()
    assert tr.compose(tr).variance == alg.AlgebraMap.HOMOMORPHISM


def test_quaternion_structure():
    H = alg.quaternion_algebra(QQ)
    i, j, k = H.basis_vector(1), H.basis_vector(2), H.basis_vector(3)
    minus_one = tuple(-x for x in H.unit)
    assert H.mul(i, i) == minus_one
    assert H.mul(j, j) == minus_one
    assert H.mul(i, j) == k
    assert H.mul(j, i) == tuple(-x for x in k)
    conj = alg.quaternion_conjugation(H)
    assert conj.is_involution()
    # x conj(x) = norm(x) 1 > 0, so H has no zero divisors on the basis
    x = (1, 2, 3, 4)
    n = H.mul(x, conj.apply(x))
    assert n == tuple(30 * c for c in H.unit)


def test_minimal_polynomial():
    M2 = alg.matrix_algebra(QQ, 2)
    m = alg.minimal_polynomial(M2, M2.basis_vector(1))  # e12 nilpotent
    assert m == [0, 0, 1]
    m2 = alg.minimal_polynomial(M2, M2.unit)
    assert m2 == [-1, 1]


# -- roots over GF(p) --------------------------------------------------

def _roots_by_evaluation(field, f):
    p = field.p
    return [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0]


@st.composite
def gfp_polynomials(draw):
    """(field, f): f of degree <= 6 with up to four linear factors, which
    may repeat and may be x; no factors and no cofactor give a constant."""
    field = Field(draw(st.sampled_from((2, 3, 5, 7, 101))))
    element = st.integers(0, field.p - 1)
    roots = draw(st.lists(element, max_size=4))
    f = draw(st.lists(element, max_size=6 - len(roots)))
    f.append(draw(st.integers(1, field.p - 1)))
    for r in roots:
        f = alg._poly_mul(field, f, [field.neg(r), 1])
    return field, f


@given(gfp_polynomials())
@example((Field(7), [3]))
@example((Field(5), [0, 0, 1]))
@example((Field(2), [0, 1, 1]))
@example((Field(3), [1, 0, 1]))
@example((Field(101), [99, 44, 5, 1]))   # (x - 3)^2 (x + 11)
@settings(max_examples=300, deadline=None)
def test_poly_roots_match_evaluation_at_every_element(case):
    field, f = case
    assert alg._poly_roots(field, f) == _roots_by_evaluation(field, f)


def _rational_roots_by_fraction_horner(f):
    """The rational root search before integer evaluation: every +-p/q with
    p | a_0 and q | a_n, evaluated by Horner's rule over Fraction."""
    den = math.lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    while ints and ints[0] == 0:
        ints = ints[1:]
    roots = set()
    if len(ints) < len(f):
        roots.add(Fraction(0))
    if not ints:
        return sorted(roots)
    for p in alg._divisors(abs(ints[0])):
        for q in alg._divisors(abs(ints[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(f):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


@st.composite
def rational_polynomials(draw):
    """f over Q of degree <= 7: up to four rational roots, which may repeat
    and may be 0, times a cofactor of degree <= 3 with a nonzero top."""
    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    f = [QQ.coerce(c) for c in draw(st.lists(small, max_size=3))]
    f.append(QQ.coerce(draw(small.filter(bool))))
    for r in draw(st.lists(small, max_size=4)):
        f = alg._poly_mul(QQ, f, [QQ.neg(QQ.coerce(r)), 1])
    return f


@given(rational_polynomials())
@example([0, 0, Fraction(1, 4), -1, 1])            # x^2 (x - 1/2)^2
@example([-162, 297, -162, 12, 8])                 # (2x - 3)^3 (x + 6)
@example([Fraction(5, 3)])
@settings(max_examples=300, deadline=None)
def test_rational_roots_match_the_fraction_horner_search(f):
    roots = alg._poly_roots(QQ, f)
    assert roots == _rational_roots_by_fraction_horner(f)
    assert all(type(r) is Fraction for r in roots)


def test_poly_roots_over_a_61_bit_prime():
    field = Field(2 ** 61 - 1)
    roots = [5, 12345678901, field.p - 1]
    # x^2 - 3 has no root: by reciprocity 3 is a non-residue, as p = 1 mod 3
    # and p = 3 mod 4
    f = [field.neg(3), 0, 1]
    for r in roots:
        f = alg._poly_mul(field, f, [field.neg(r), 1])
    assert alg._poly_roots(field, f) == roots


def test_nontrivial_factor_splits_off_the_least_root_without_drawing():
    F101 = Field(101)
    # (x - 7)(x - 3)(x^2 - 2); 2 is a non-residue mod 101
    f = [59, 20, 19, 91, 1]
    rng = random.Random(0)
    state = rng.getstate()
    g, q = alg._nontrivial_factor(F101, f, rng)
    assert g == [98, 1]
    assert alg._poly_mul(F101, g, q) == f
    assert rng.getstate() == state


@pytest.mark.parametrize("factors", [
    ([2, 0, 1], [3, 0, 1]),        # two irreducible quadratics: equal-degree split
    ([2, 0, 1], [1, 1, 0, 1]),     # an irreducible quadratic times a cubic
])
def test_nontrivial_factor_without_roots(factors):
    f = alg._poly_mul(F5, *factors)
    assert alg._poly_roots(F5, f) == []
    g, q = alg._nontrivial_factor(F5, f, random.Random(0))
    assert alg._poly_mul(F5, g, q) == f
    assert alg._poly_deg(g) == 2


def test_subalgebra_and_quotient_roundtrip():
    ut = alg.upper_triangular_algebra(QQ, 2)
    # diagonal subalgebra
    span = [ut.basis_vector(0), ut.basis_vector(2)]
    D, emb = alg.subalgebra(ut, span, ut.unit)
    assert D.dim == 2
    J = alg.jacobson_radical(ut)
    Q, quo = alg.quotient_algebra(ut, J)
    assert Q.dim == 2
    assert alg.jacobson_radical(Q) == []


def _random_poset(seed: int, size: int = 5) -> ps.Poset:
    rng = random.Random(seed)
    covers = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.4]
    return ps.Poset.from_covers(size, covers)


@pytest.mark.parametrize("field", [QQ, F5, Field(2 ** 61 - 1)], ids=str)
def test_derived_algebras_keep_the_laws(field):
    # built without the d^3 check, because each inherits its laws; check them here
    M2, M3 = alg.matrix_algebra(field, 2), alg.matrix_algebra(field, 3)
    UT2, UT4 = alg.upper_triangular_algebra(field, 2), alg.upper_triangular_algebra(field, 4)
    e = vadd(field, M3.basis_vector(0), M3.basis_vector(4))          # e11 + e22
    span = [M3.mul(e, M3.mul(M3.basis_vector(i), e)) for i in range(9)]
    corner, _ = alg.subalgebra(M3, span, e)                         # e M_3 e = M_2
    strict = [UT4.basis_vector(t) for t, name in enumerate(UT4.basis_names) if name[1] != name[2]]
    semisimple, _ = alg.quotient_algebra(UT4, strict)               # UT_4 / J(UT_4)
    end, _ = mod.endomorphism_algebra(mod.free_module(UT2, 2))
    derived = [M3, UT4, ps.incidence_algebra(field, _random_poset(7)),
               alg.tensor_product(M2, UT2), alg.matrix_algebra_over(UT2, 2),
               alg.opposite(UT4), alg.direct_product(M2, UT2), corner, semisimple, end]
    for X in derived:
        assert verify.associative_unital(X) is None


def test_derived_algebras_check_what_they_do_not_inherit():
    M2 = alg.matrix_algebra(QQ, 2)                  # basis e11, e12, e21, e22
    e11, e12 = M2.basis_vector(0), M2.basis_vector(1)
    # span{e11, e12} is closed, but e11 is only a left unit: e12 e11 = 0
    with pytest.raises(VerificationError, match="unit law fails"):
        alg.subalgebra(M2, [e11, e12], e11)
    # span{e11} is not an ideal: e11 e12 = e12 leaves it (e12 is generator 1)
    with pytest.raises(VerificationError,
                       match=r"^ideal law fails at \(vector 0, basis element 1\)$"):
        alg.quotient_algebra(M2, [e11])


def test_quotient_algebra_refuses_a_one_sided_ideal():
    M2 = alg.matrix_algebra(QQ, 2)                  # basis e11, e12, e21, e22
    # span{e12} is closed under e12 on both sides, but e12 e21 = e11
    with pytest.raises(VerificationError,
                       match=r"^ideal law fails at \(vector 0, basis element 2\)$"):
        alg.quotient_algebra(M2, [M2.basis_vector(1)])
    UT2 = alg.upper_triangular_algebra(QQ, 2)       # basis e11, e12, e22
    Q, _ = alg.quotient_algebra(UT2, [UT2.basis_vector(1)])
    assert Q.dim == 2 and verify.associative_unital(Q) is None


def test_subalgebra_refuses_a_unit_outside_or_an_open_span():
    M2 = alg.matrix_algebra(QQ, 2)                  # basis e11, e12, e21, e22
    e11, e12, e21, e22 = (M2.basis_vector(i) for i in range(4))
    with pytest.raises(VerificationError,
                       match="^designated unit lies outside the span: vector 0 of 1$"):
        alg.subalgebra(M2, [e11, e12], e22)
    # echelon basis 1, e12, e21; product 1 * 3 + 2 is e12 e21 = e11
    with pytest.raises(VerificationError,
                       match="^span is not closed under multiplication: vector 5 of 9$"):
        alg.subalgebra(M2, [M2.unit, e12, e21], M2.unit)


def test_corners_span_e_a_f_for_each_f():
    M3 = alg.matrix_algebra(QQ, 3)                  # basis e11, e12, ..., e33
    e11, e22, e33 = (M3.basis_vector(4 * i) for i in range(3))
    e = vadd(QQ, e11, e22)
    spans = M3.corners(e, [e11, e33, e, vadd(QQ, e, e33)])
    dims = []
    for span in spans:
        space = RowSpace(QQ, M3.dim)
        space.extend(span)
        dims.append(space.dim)
    # e A e11 = <e11, e21>, e A e33 = <e13, e23>, e A e = M_2, e A 1 = e A
    assert dims == [2, 2, 4, 6]


# -- scalars of algebras and of their invariants -----------------------

def _split_algebras(field):
    """Split algebras small enough for the radical over GF(5) (dim < 5)."""
    M2, UT2 = alg.matrix_algebra(field, 2), alg.upper_triangular_algebra(field, 2)
    F = alg.field_algebra(field)
    small = [M2, UT2, alg.direct_product(F, F)]
    if field.p == 5:
        return small
    return small + [alg.upper_triangular_algebra(field, 3), alg.direct_product(M2, UT2)]


def test_algebra_input_coercion_stays_strict():
    # F x F in the basis c1 = 2 e1, c2 = e2 / 2: c1 c1 = 2 c1, c2 c2 = c2 / 2,
    # 1 = c1 / 2 + 2 c2; strings and Fractions sit among plain ints
    for field in (QQ, F5):
        half = field.coerce(Fraction(1, 2))
        A = alg.Algebra(field, ["c1", "c2"], [[[2, 0], [0, 0]], [[0, 0], [0, "1/2"]]],
                        [Fraction(1, 2), 2])
        assert dense_table(A) == (((2, 0), (0, 0)), ((0, 0), (0, half))) and A.unit == (half, 2)
        assert_field_elements(field, [*itertools.chain.from_iterable(dense_table(A)[1]), *A.unit])
        for bad in (True, False, 1.0, 0.0):
            table = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
            table[1][1][0] = bad
            with pytest.raises(TypeError):
                alg.Algebra(field, ["e1", "e2"], table, [1, 1])
            with pytest.raises(TypeError):
                alg.Algebra(field, ["e1", "e2"], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, bad])


@pytest.mark.parametrize("field", (QQ, F5), ids=str)
@pytest.mark.parametrize("bad", (True, 0.0, 1.0), ids=repr)
@pytest.mark.parametrize("entry", ((0, 0, 0), (0, 0, 1)), ids=("nonzero", "zero"))
def test_inexact_table_entries_are_refused_wherever_they_sit(field, bad, entry):
    # UT2 on e11, e12, e22: e11 e11 = e11, so table[0][0] is (1, 0, 0)
    UT2 = alg.upper_triangular_algebra(field, 2)
    table = [[list(row) for row in block] for block in dense_table(UT2)]
    i, j, k = entry
    table[i][j][k] = bad
    with pytest.raises(TypeError):
        alg.Algebra(field, UT2.basis_names, table, [1, 0, 1])


@given(st.sampled_from(SCALAR_FIELDS),
       st.one_of(st.lists(raw_scalars, max_size=8), st.lists(st.integers(-12, 12), max_size=8)))
@settings(max_examples=150, deadline=None)
def test_sparse_table_keeps_the_nonzero_coerced_entries(field, row):
    # one pass over a row of plain ints, entry by entry otherwise: the same pairs
    # as coercing the whole row, with Fraction(k, 1) stored as k
    ((stored,),) = alg.sparse_table(field, [[row]])
    assert stored == tuple((k, c) for k, c in enumerate(field.coerce_row(row)) if c != 0)
    assert_field_elements(field, [c for _, c in stored])


@given(st.sampled_from((QQ, F5, Field(2 ** 61 - 1))), st.data())
@settings(max_examples=25, deadline=None)
def test_algebra_scalars_are_canonical(field, data):
    # a split algebra in a random basis with fractional entries, so that
    # Fractions, integral ones included, run through every kernel
    A = data.draw(st.sampled_from(_split_algebras(field)))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    P = Matrix(field, data.draw(st.lists(st.lists(entry, min_size=A.dim, max_size=A.dim),
                                         min_size=A.dim, max_size=A.dim)))
    Pinv = invert(P)
    assume(Pinv is not None)
    table = [[Pinv.act_row(A.mul(x, y)) for y in P.rows] for x in P.rows]
    B = alg.Algebra(field, A.basis_names, table, Pinv.act_row(A.unit))

    def check(vectors):
        assert_field_elements(field, itertools.chain.from_iterable(vectors))

    check(itertools.chain.from_iterable(dense_table(B)))
    check([B.unit])
    check(alg.center(B).basis)
    check(alg.jacobson_radical(B))
    check(alg.primitive_idempotents(B))


# -- the stored form of the structure constants ----------------------------

# an invertible basis of UT3 over Q, GF(101) and GF(2^61 - 1); over Q the radical
# quotient, the subalgebra spanned by 1 and the radical, and the endomorphism
# algebra of the regular module on it all get coordinates Fraction(k, 1)
FRACTIONAL_UT3_BASIS = [
    [-1, 1, "2/3", "-1/2", "-1/3", 0], [-2, "-1/2", "2/3", "1/3", -1, 0],
    [1, 1, -1, "2/3", 1, "-2/3"], [-1, -2, "1/3", -1, "1/3", 2],
    [1, 2, 0, 1, -1, 2], [0, "1/3", "-1/2", "2/3", 1, "1/3"],
]


@pytest.mark.parametrize("field", (QQ, Field(101), Field(2 ** 61 - 1)), ids=str)
def test_stored_rows_are_sparse_and_canonical(field):
    F, M2 = alg.field_algebra(field), alg.matrix_algebra(field, 2)
    H = alg.quaternion_algebra(field, Fraction(1, 2), 2)
    B = in_basis(alg.upper_triangular_algebra(field, 3), Matrix(field, FRACTIONAL_UT3_BASIS))
    J = alg.jacobson_radical(B)
    built = {
        "Algebra": B,
        "matrix_unit_algebra": alg.upper_triangular_algebra(field, 3),
        "tensor_product": alg.tensor_product(H, H),
        "direct_product": alg.direct_product(M2, H),
        "opposite": alg.opposite(B),
        "subalgebra": alg.subalgebra(B, [B.unit] + J, B.unit)[0],
        "quotient_algebra": alg.quotient_algebra(B, J)[0],
        "endomorphism_algebra": mod.endomorphism_algebra(mod.regular_module(B))[0],
    }
    for name, A in built.items():
        for row in itertools.chain.from_iterable(A._sparse):
            assert type(row) is tuple and all(type(t) is tuple and len(t) == 2 for t in row)
            ks = [k for k, _ in row]
            assert ks == sorted(set(ks)) and all(0 <= k < A.dim for k in ks), name
            assert all(c != 0 for _, c in row), name
            assert_field_elements(field, [c for _, c in row])
        # __eq__ compares stored rows, so the dense input must store the same ones
        assert alg.Algebra(field, A.basis_names, dense_table(A), A.unit) == A, name
        # entries given as text, zeros as "0" too: only nonzero coerced values are stored
        text = [[[str(c) for c in row] for row in block] for block in dense_table(A)]
        assert alg.sparse_table(field, text) == A._sparse, name
        assert alg.Algebra(field, A.basis_names, text, A.unit) == A, name
        # multiplication matrices are read off the stored rows: rows x e_i and e_i x
        x, basis = A.coerce_element(range(1, A.dim + 1)), [A.basis_vector(i) for i in range(A.dim)]
        assert A.left_mult_matrix(x).rows == tuple(A.mul(x, e) for e in basis), name
        assert A.right_mult_matrix(x).rows == tuple(A.mul(e, x) for e in basis), name
    FF = alg.direct_product(F, F)
    UT2 = alg.upper_triangular_algebra(field, 2)
    assert alg.tensor_product(M2, F) == M2 and alg.tensor_product(F, M2) == M2
    assert alg.opposite(alg.opposite(H)) == H and alg.opposite(FF) == FF
    assert FF == alg.matrix_unit_algebra(field, [(0, 0), (1, 1)], ["a", "b"])
    assert alg.subalgebra(M2, [M2.basis_vector(i) for i in range(4)], M2.unit)[0] == M2
    assert alg.quotient_algebra(UT2, alg.jacobson_radical(UT2))[0] == FF
    assert mod.endomorphism_algebra(mod.regular_module(FF))[0] == FF


# -- generating sets -----------------------------------------------------

def _generated_dim(A, generators):
    """Dimension of the span of 1 closed under right multiplication by the
    given basis elements: the subalgebra they generate."""
    space = RowSpace(A.field, A.dim)
    space.insert(A.unit)
    frontier = [A.unit]
    while frontier:
        frontier = [w for w in (A.mul(x, A.basis_vector(g)) for x in frontier
                                for g in generators) if space.insert(w)]
    return space.dim


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_generators_of_matrix_unit_algebras_are_idempotents_and_arrows(n):
    Mn, UTn = alg.matrix_algebra(QQ, n), alg.upper_triangular_algebra(QQ, n)
    assert len(Mn.generators) == len(UTn.generators) == 2 * n - 2
    # UT_n: e_ii for i < n and the arrows e_i,i+1
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    assert [pairs[g] for g in UTn.generators] == sorted(
        [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)])


def test_generators_of_small_algebras():
    H, F = alg.quaternion_algebra(QQ), alg.field_algebra(QQ)
    assert H.generators == (1, 2)                               # i and j
    assert F.generators == ()
    assert alg.matrix_algebra(QQ, 2).generators == (1, 2)      # e12 and e21
    for A in (H, F, alg.matrix_algebra(F5, 3), alg.upper_triangular_algebra(QQ, 4)):
        every = [A.right_mult_matrix(e) - A.left_mult_matrix(e)
                 for e in map(A.basis_vector, range(A.dim))]
        assert alg.center(A).basis == tuple(common_left_kernel(every))


@given(st.sampled_from((QQ, F5, Field(2 ** 61 - 1))), st.data())
@settings(max_examples=25, deadline=None)
def test_generators_certify_the_algebra(field, data):
    # random bases, as in test_algebra_scalars_are_canonical
    A = data.draw(st.sampled_from(_split_algebras(field)))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    P = Matrix(field, data.draw(st.lists(st.lists(entry, min_size=A.dim, max_size=A.dim),
                                         min_size=A.dim, max_size=A.dim)))
    assume(invert(P) is not None)
    B = in_basis(A, P)
    assert list(B.generators) == sorted(set(B.generators))
    assert _generated_dim(B, B.generators) == B.dim
    # the center from the generators is the one from every basis element
    every = [B.right_mult_matrix(e) - B.left_mult_matrix(e)
             for e in map(B.basis_vector, range(B.dim))]
    assert alg.center(B).basis == tuple(common_left_kernel(every))


def _twisted_every(A, phi):
    """The twisted centralizer's system over every basis element, not the generators."""
    return common_left_kernel([A.right_mult_matrix(e) - A.left_mult_matrix(phi(e))
                               for e in map(A.basis_vector, range(A.dim))])


def _with_anti(field, name):
    if name == "H":
        H = alg.quaternion_algebra(field)
        return H, alg.quaternion_conjugation(H)
    n = int(name[-1])
    if name.startswith("M"):
        A = alg.matrix_algebra(field, n)
        return A, transpose_map(A, n)
    A = alg.upper_triangular_algebra(field, n)
    return A, ut_flip_map(A, n)


TWIST_FIELDS = (QQ, F5, Field(2 ** 61 - 1))


@given(st.sampled_from(TWIST_FIELDS), st.sampled_from(("M2", "M3", "UT3", "H")), st.data())
@settings(max_examples=40, deadline=None)
def test_twisted_centralizer_matches_every_basis_element(field, name, data):
    # phi = id, gamma^2 for the transpose, flip or conjugation gamma, and the
    # square of gamma twisted by a unit u, x -> u^-1 gamma(x) u, which is
    # conjugation by u^-1 gamma(u), so not the identity for most u
    A, gamma = _with_anti(field, name)
    u = A.coerce_element(data.draw(st.lists(st.integers(-3, 3), min_size=A.dim,
                                            max_size=A.dim)))
    u_inv = alg.is_unit(A, u)
    assume(u_inv is not None)
    twisted = alg.AlgebraMap.from_images(
        A, A, [A.mul(u_inv, A.mul(gamma.apply(e), u)) for e in map(A.basis_vector, range(A.dim))],
        alg.AlgebraMap.ANTI)
    for phi in (lambda a: a, gamma.compose(gamma).apply, twisted.compose(twisted).apply):
        assert alg.twisted_centralizer(A, phi) == _twisted_every(A, phi)


@pytest.mark.parametrize("field", TWIST_FIELDS, ids=str)
@pytest.mark.parametrize("name", ["M2", "UT2", "H"])
def test_twisted_centralizer_of_the_factor_swap(field, name):
    A = _with_anti(field, name)[0]
    T, d = alg.tensor_product(A, A), A.dim

    def swap(v):
        # e_{r d + s} -> e_{s d + r}
        return tuple(v[(i % d) * d + i // d] for i in range(d * d))
    assert alg.twisted_centralizer(T, swap) == _twisted_every(T, swap)


def test_primitive_idempotents_of_a_split_algebra_in_a_pinned_basis():
    # a basis drawn by test_algebra_scalars_are_canonical: B is M_2 x UT_2,
    # so it is split, but no candidate of the search has a reducible minimal
    # polynomial in the M_2 corner, and Legendre's equation gives the zero divisor
    A = alg.direct_product(alg.matrix_algebra(QQ, 2), alg.upper_triangular_algebra(QQ, 2))
    P = Matrix(QQ, [[2, -1, -1, "-1/2", -2, 1, "-4/3"],
                    ["-3/2", -1, "4/3", -2, "-1/2", "1/2", 2],
                    [1, "5/3", "-4/3", 0, 0, 0, 1],
                    [-1, -2, 2, 2, -1, 2, 1],
                    ["2/3", "1/2", "-5/3", 1, -2, 2, -2],
                    [-2, "4/3", "2/3", -2, 2, -2, "-3/2"],
                    [0, -2, 1, 0, 0, 0, 0]])
    Pinv = invert(P)
    table = [[Pinv.act_row(A.mul(x, y)) for y in P.rows] for x in P.rows]
    B = alg.Algebra(QQ, A.basis_names, table, Pinv.act_row(A.unit))
    assert len(alg.primitive_idempotents(B)) == 4


def test_factor_multiplies_back_to_primes():
    # 8536039 = 2347 * 3637 is one that rho with x^2 + 1 does not split
    for n in (1, 12, 997 * 991, 8536039, 999983 * 1000003, 2 ** 2 * 3 ** 3 * 1000003 ** 2,
              2 ** 61 - 1):
        f = alg._factor(n)
        assert math.prod(p ** e for p, e in f.items()) == n
        assert all(Field(p) for p in f)


def _divisors_by_trial_division(n):
    """The divisors of n >= 0 (of 1 for n = 0), from the factors that trial
    division up to the square root of the cofactor finds."""
    divs, d = [1], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n, e = n // d, e + 1
            divs = [x * d ** k for x in divs for k in range(e + 1)]
        d += 1
    if n > 1:
        divs += [x * n for x in divs]
    return sorted(divs)


def test_divisors_agree_with_trial_division():
    for n in range(2001):
        assert alg._divisors(n) == _divisors_by_trial_division(n)
        assert alg._divisors(n) == ([d for d in range(1, n + 1) if n % d == 0] or [1])
    assert alg._divisors(-12) == [1, 2, 3, 4, 6, 12]
    # near 10^15, each with at most one prime factor above 10^6
    for n in (10 ** 15, 10 ** 15 + 1, 10 ** 15 - 1, 999983 * 1000000007,
              2 ** 3 * 5 ** 3 * (10 ** 12 + 39)):
        assert alg._divisors(n) == _divisors_by_trial_division(n)
    # a prime past the primality bound, which rho cannot split: inconclusive
    # at once, where trial division up to its square root would run for hours
    with pytest.raises(UnsplitQuotientError, match="could not factor"):
        alg._divisors(2 ** 89 - 1)


def test_legendre_agrees_with_a_search():
    # a x^2 + b y^2 = z^2 for square-free |a|, |b| <= 15: a solution must
    # satisfy it, and None must leave none with 0 <= x, y < 40 to a search
    small = [n for n in range(-15, 16) if n and all(n % (d * d) for d in range(2, 4))]
    for a, b in itertools.product(small, small):
        sol = alg._legendre(a, b)
        values = (a * x * x + b * y * y for x in range(40) for y in range(40) if x or y)
        assert (sol is not None) == any(v >= 0 and math.isqrt(v) ** 2 == v for v in values)
        if sol is not None:
            x, y, z = sol
            assert any(sol) and a * x * x + b * y * y == z * z


@pytest.mark.parametrize("a, b, split", [(-1, 2, True), (-19, 11, True), (-29, 22, True),
                                         (-1, -1, False), (3, 5, False), (2, 5, False),
                                         (-1, 3, False)])
def test_primitive_idempotents_decide_quaternion_algebras_over_q(a, b, split):
    # (a, b)_Q in a fixed basis with fractional entries: split ones give two
    # idempotents, the others raise naming a division algebra.  In this basis
    # no candidate of the search splits (-19, 11) or (-29, 22), although
    # -19 + 11 * 2^2 = 5^2 and -29 + 22 * 3^2 = 13^2
    H = alg.quaternion_algebra(QQ, a, b)
    P = Matrix(QQ, [[1, 2, 0, -1], [0, 1, "1/2", 3], [2, 0, 1, 1], [-1, 1, 1, "2/3"]])
    Pinv = invert(P)
    table = [[Pinv.act_row(H.mul(x, y)) for y in P.rows] for x in P.rows]
    B = alg.Algebra(QQ, H.basis_names, table, Pinv.act_row(H.unit))
    if split:
        assert len(alg.primitive_idempotents(B)) == 2
    else:
        with pytest.raises(UnsplitQuotientError, match="is the division algebra"):
            alg.primitive_idempotents(B)


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=str)
def test_basic_algebra_and_poset_take_one_idempotent_per_projective_class(field):
    A = alg.direct_product(alg.matrix_algebra(field, 2), alg.upper_triangular_algebra(field, 2))
    classes = mod.projective_classes(A)
    assert len(classes) == 3
    res = alg.basic_algebra(A)
    assert res.class_representatives == [e for e, _, _ in classes]
    assert res.algebra.dim == 4                                 # F x UT_2
    assert ps.poset_of_algebra(A).size == len(classes)

"""Exact linear algebra: worked examples and law checks."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdalg.linalg import (
    Coordinates,
    Field,
    Matrix,
    QQ,
    RowSpace,
    QuotientSpace,
    common_left_kernel,
    coordinate_rows,
    invert,
    kernel_basis,
    kernel_rows,
    kronecker,
    mcombine,
    solve,
    solve_columns,
    unit_vector,
    unvec,
    vcombine,
    vec,
    _PRIME_BOUND,
    _is_prime,
)
from fdalg.errors import DimensionError, FieldMismatchError, VerificationError

from helpers import assert_field_elements

F5 = Field(5)


def test_field_basics():
    assert QQ.characteristic == 0
    assert F5.characteristic == 5
    assert F5.coerce(12) == 2
    assert F5.inv(2) == 3
    with pytest.raises(ValueError):
        Field(6)
    assert QQ.parse("3/4") * 4 == 3
    assert F5.parse("7 mod 5") == 2
    assert F5.format(3) == "3 mod 5"


def test_solve_identity():
    A = Matrix.identity(QQ, 2)
    x = solve(A, Matrix.column(QQ, [3, 4]))
    assert x.column_tuple(0) == (3, 4)


def test_solve_inconsistent_rank_one():
    A = Matrix(QQ, [[1, 2], [2, 4]])
    assert solve(A, Matrix.column(QQ, [1, 3])) is None


def test_solve_prime_field_back_substitution():
    A = Matrix(F5, [[1, 1], [0, 1]])
    x = solve(A, Matrix.column(F5, [0, 3]))
    assert x.column_tuple(0) == (2, 3)


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []
    ker = kernel_basis(Matrix.zeros(QQ, 2, 2))
    assert len(ker) == 2
    assert ker[0].column_tuple(0) == (1, 0)
    assert ker[1].column_tuple(0) == (0, 1)


def test_kernel_rank_one():
    ker = kernel_rows(Matrix(QQ, [[1, 2], [2, 4]]))
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * 1 == -2 * v[1] * 1 or (v[0], v[1]) == (-2, 1)


def test_invert_cases():
    assert invert(Matrix.identity(QQ, 4)).is_identity()
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    assert invert(swap) == swap
    assert invert(Matrix(Field(3), [[1, 1], [1, 1]])) is None
    with pytest.raises(DimensionError):
        invert(Matrix.zeros(QQ, 2, 3))


def test_kronecker_examples():
    assert kronecker(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)).is_identity()
    B = Matrix(QQ, [[1, 2], [3, 4]])
    assert kronecker(Matrix(QQ, [[2]]), B) == B.scale(2)
    e12 = Matrix(QQ, [[0, 1], [0, 0]])
    e21 = Matrix(QQ, [[0, 0], [1, 0]])
    K = kronecker(e12, e21)
    assert K.nrows == 4 and K[1, 2] == 1
    assert sum(1 for r in K.rows for x in r if x != 0) == 1


def test_kronecker_field_mismatch():
    with pytest.raises(FieldMismatchError):
        kronecker(Matrix.identity(QQ, 2), Matrix.identity(F5, 2))


def _random_matrix(rng, field, n, m):
    if field.p is None:
        return Matrix(field, [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
    return Matrix(field, [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)])


@pytest.mark.parametrize("field", [QQ, F5])
def test_invert_solve_kernel_laws(field):
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        A = _random_matrix(rng, field, n, n)
        B = invert(A)
        if B is not None:
            assert (A * B).is_identity() and (B * A).is_identity()
        m = rng.randint(1, 6)
        C = _random_matrix(rng, field, n, m)
        b = _random_matrix(rng, field, n, 1)
        x = solve(C, b)
        if x is not None:
            assert C * x == b
        assert len(kernel_rows(C)) == m - C.rank()
        for v in kernel_rows(C):
            assert all(x == 0 for x in C.transpose().act_row(v))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_kronecker_multiplicative(n, m, k, seed):
    rng = random.Random(seed)
    A = _random_matrix(rng, QQ, n, m)
    C = _random_matrix(rng, QQ, m, k)
    B = _random_matrix(rng, F5, n, m)
    D = _random_matrix(rng, F5, m, k)
    assert kronecker(A, A) * kronecker(C, C) == kronecker(A * C, A * C)
    assert kronecker(B, B) * kronecker(D, D) == kronecker(B * D, B * D)


def test_is_prime_matches_trial_division_below_1e5():
    trial = [n for n in range(2, 10 ** 5) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(10 ** 5) if _is_prime(n)] == trial


@pytest.mark.parametrize("n, prime", [
    (561, False),                  # Carmichael number
    (3215031751, False),           # strong pseudoprime to the bases 2, 3, 5, 7
    (10 ** 12 + 39, True),
    (2 ** 61 - 1, True),
    (2 ** 67 - 1, False),          # 193707721 * 761838257287
])
def test_is_prime_large(n, prime):
    assert _is_prime(n) is prime


def test_primes_above_the_certified_bound_are_refused():
    assert 2 ** 89 - 1 > _PRIME_BOUND   # a Mersenne prime
    for n in (2 ** 89 - 1, _PRIME_BOUND):
        with pytest.raises(ValueError, match=str(_PRIME_BOUND)):
            Field(n)


def test_rowspace_and_quotient():
    space = RowSpace(QQ, 3)
    assert space.insert((1, 2, 3))
    assert space.insert((0, 1, 1))
    assert not space.insert((1, 3, 4))
    assert space.dim == 2
    assert space.contains((2, 5, 7))
    coords = space.coordinates((2, 5, 7))
    rec = [sum(c * r[i] for c, r in zip(coords, space.rows)) for i in range(3)]
    assert tuple(rec) == (2, 5, 7)
    quo = QuotientSpace(space)
    assert quo.dim == 1
    v = quo.project((5, 5, 5))
    assert quo.project(quo.lift(v)) == v


def test_matrix_row_action():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    assert A.act_row((1, 1)) == (4, 6)
    assert A.transpose().rows == ((1, 3), (2, 4))


def test_coerce_rejects_inexact_scalars():
    for field in (QQ, F5):
        for bad in (0.5, 2.0, True):
            with pytest.raises(TypeError):
                field.coerce(bad)
    with pytest.raises(ValueError):
        F5.coerce(QQ.parse("1/5"))
    with pytest.raises(ValueError):
        F5.parse("1/5")
    with pytest.raises(ValueError):
        QQ.parse("1/0")
    assert F5.parse("1/2") == 3 and QQ.parse("-3/6") == QQ.coerce(-1) / 2


def test_combination_helpers():
    for field in (QQ, F5):
        assert unit_vector(field, 3, 1) == (0, 1, 0)
        vs = [(1, 2, 3), (0, 1, 4)]
        assert vcombine(field, 3, [2, 0], vs) == tuple(field.coerce(x) for x in (2, 4, 6))
        assert vcombine(field, 3, [1, -1], vs) == tuple(field.coerce(x) for x in (1, 1, -1))
        assert vcombine(field, 3, [], []) == (0, 0, 0)
        A = Matrix(field, [[1, 2], [3, 4], [5, 6]])
        B = Matrix(field, [[0, 1], [1, 0], [2, 2]])
        assert vec(A) == tuple(field.coerce(x) for x in range(1, 7))
        assert unvec(field, vec(A), 3, 2) == A
        assert mcombine(field, 3, 2, [3, 2], [A, B]) == A.scale(3) + B.scale(2)
        assert mcombine(field, 3, 2, [0, 0], [A, B]) == Matrix.zeros(field, 3, 2)


def test_common_left_kernel():
    # {x : x M = 0 = x N} for M, N of rank 2 on F^3 with a common kernel line
    for field in (QQ, F5):
        M = Matrix(field, [[1, 0], [0, 1], [1, 1]])
        N = Matrix(field, [[1], [1], [2]])
        assert common_left_kernel([M]) == [tuple(field.coerce(x) for x in (-1, -1, 1))]
        assert common_left_kernel([M, N]) == common_left_kernel([M])
        assert common_left_kernel([M, Matrix.identity(field, 3)]) == []


def test_rowspace_stores_reduced_entries_over_gfp():
    # (1, -1) and (1, 4) span the same line of GF(5)^2; the stored echelon
    # rows must be the same tuples
    for v in ((1, -1), (1, 4), (6, -6), (-4, 9)):
        space = RowSpace(F5, 2)
        assert space.insert(v)
        assert space.rows == [(1, 4)] and space.pivots == [0]
    space = RowSpace(F5, 3)
    space.insert((5, 2, -3))
    assert space.rows == [(0, 1, 1)]
    assert not space.insert((0, -3, 7))


def test_rowspace_reduces_entries_outside_range_p():
    empty = RowSpace(F5, 2)
    assert empty.contains((5, 0)) and empty.contains((-10, 25))
    assert empty.coordinates((5, 10)) == ()
    space = RowSpace(F5, 3)
    space.insert((1, 0, 2))
    assert space.contains((6, 5, 12)) and space.contains((-4, 10, -8))
    assert space.coordinates((6, 5, 12)) == (1,)
    assert space.coordinates((7, 5, 12)) is None
    quo = QuotientSpace(space)
    assert quo.project((6, 5, 12)) == (0, 0)
    assert quo.project((5, 6, 7)) == quo.project((0, 1, 2)) == (1, 2)


# -- properties of the elimination kernel -----------------------------

FIELDS = (QQ, F5, Field(2))


@st.composite
def matrices(draw, nrows=st.integers(0, 5), ncols=st.integers(1, 5), fields=FIELDS):
    field = draw(st.sampled_from(fields))
    n, m = draw(nrows), draw(ncols)
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    return Matrix(field, rows, ncols=m)


def _rowspace(field, ncols, rows):
    space = RowSpace(field, ncols)
    space.extend(rows)
    return space


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_rowspace_is_independent_of_row_order(A, data):
    order = data.draw(st.permutations(range(A.nrows)))
    space = _rowspace(A.field, A.ncols, A.rows)
    shuffled = _rowspace(A.field, A.ncols, [A.rows[i] for i in order])
    assert shuffled.rows == space.rows and shuffled.pivots == space.pivots


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates_and_rank_plus_nullity(A):
    K = kernel_rows(A)
    for v in K:
        assert (A * Matrix.column(A.field, v)).is_zero()
    assert A.rank() + len(K) == A.ncols
    assert _rowspace(A.field, A.ncols, K).dim == len(K)


@given(matrices(nrows=st.integers(1, 5)), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_columns_solves_or_certifies_inconsistency(A, k, data):
    entries = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    B = Matrix(A.field, data.draw(st.lists(entries, min_size=A.nrows, max_size=A.nrows)),
               ncols=k)
    X = solve_columns(A, B)
    augmented = Matrix(A.field, [a + b for a, b in zip(A.rows, B.rows)])
    if X is None:
        assert augmented.rank() > A.rank()
    else:
        assert A * X == B
        assert augmented.rank() == A.rank()


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_invert_inverts_or_certifies_singularity(n, data):
    A = data.draw(matrices(nrows=st.just(n), ncols=st.just(n)))
    X = invert(A)
    if X is None:
        assert A.rank() < n
    else:
        assert (X * A).is_identity() and (A * X).is_identity()


@given(matrices(nrows=st.integers(0, 4)), st.data())
@settings(max_examples=60, deadline=None)
def test_coordinates_round_trip(A, data):
    field, n, vectors = A.field, A.ncols, list(A.rows)
    coords = Coordinates(field, vectors, n)
    span = _rowspace(field, n, vectors)
    assert coords.independent == (span.dim == len(vectors))
    c = [field.coerce(x) for x in data.draw(
        st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors)))]
    v = vcombine(field, n, c, vectors)
    found = coords.of(v)
    assert vcombine(field, n, found, vectors) == v
    if coords.independent:
        assert found == tuple(c)
    for i in range(n):
        e = unit_vector(field, n, i)
        if not span.contains(e):
            assert coords.of(e) is None


def test_coordinate_rows_name_the_first_vector_outside_the_span():
    space = RowSpace(QQ, 3)
    space.extend([(1, 0, 1), (0, 1, 0)])
    rows = coordinate_rows(space.coordinates, [(2, 3, 2), (0, 0, 0)], "unused")
    assert rows == ((2, 3), (0, 0))
    coords = Coordinates(QQ, [(1, 0, 1), (0, 1, 0)], 3)
    with pytest.raises(VerificationError, match=r"^image leaves the span: vector 1 of 3$"):
        coordinate_rows(coords.of, [(1, 1, 1), (0, 0, 1), (1, 0, 0)], "image leaves the span")


# -- how scalars are stored --------------------------------------------

def test_matrix_coerces_at_the_boundary():
    A = Matrix(QQ, [["1/2", "3"]])
    assert A.rows == ((Fraction(1, 2), 3),)
    assert_field_elements(QQ, vec(A))
    assert Matrix(F5, [[7, -1]]).rows == ((2, 4),)
    # plain int rows take one pass in coerce_row; a bool or float deep in a
    # row, or a string or Fraction among ints, still goes entry by entry
    assert QQ.coerce_row([7, -1]) == (7, -1) and F5.coerce_row(iter([5, 6])) == (0, 1)
    for field in (QQ, F5):
        for bad in (True, False, 1.0, 0.5):
            with pytest.raises(TypeError):
                Matrix(field, [[1, 2, 3], [4, 5, bad]])
        half = field.coerce(Fraction(1, 2))
        A = Matrix(field, [[1, 2], [3, "1/2"], [Fraction(1, 2), Fraction(4, 2)]])
        assert A.rows == tuple(tuple(map(field.coerce, r)) for r in ((1, 2), (3, half), (half, 2)))
        assert_field_elements(field, vec(A))


SCALAR_FIELDS = (QQ, F5, Field(2 ** 61 - 1))
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# what the boundary accepts: ints, Fractions (some of them integral) and
# their strings
raw_scalars = st.one_of(st.integers(-7, 7), fractions, fractions.map(str))


@given(matrices(fields=SCALAR_FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_rows_depend_on_the_row_space_alone(A, data):
    # rows that are combinations of the others keep the span, and so the kernel
    field = A.field
    coeffs = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=A.nrows,
                                         max_size=A.nrows), max_size=3))
    extra = [vcombine(field, A.ncols, list(map(field.coerce, c)), A.rows) for c in coeffs]
    assert kernel_rows(Matrix._trusted(field, A.rows + tuple(extra), A.ncols)) == kernel_rows(A)


@given(matrices(fields=SCALAR_FIELDS))
@settings(max_examples=60, deadline=None)
def test_annihilator_is_the_kernel_of_the_echelon_basis(A):
    space = _rowspace(A.field, A.ncols, A.rows)
    ann = space.annihilator()
    assert ann == kernel_rows(space.basis_matrix())
    assert len(ann) == A.ncols - space.dim
    assert all((A * Matrix.column(A.field, f)).is_zero() for f in ann)


@given(st.sampled_from((QQ, Field(101))), st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_quotient_constructors_agree(field, n, data):
    # QuotientSpace(space) and QuotientSpace.of_functionals on any basis of the
    # annihilator, in any order and scaling, plus a redundant combination
    entry = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    space = _rowspace(field, n, [tuple(map(field.coerce, r)) for r in rows])
    quo = QuotientSpace(space)
    ann = space.annihilator()
    k = len(ann)
    order = data.draw(st.permutations(range(k)))
    scales = data.draw(st.lists(st.integers(-5, 5).filter(bool), min_size=k, max_size=k))
    # row i of an upper unitriangular mix, then scaled: still a basis of the annihilator
    mix = [[scales[i] if j == i else (data.draw(entry) if j > i else 0) for j in range(k)]
           for i in range(k)]
    functionals = [vcombine(field, n, list(map(field.coerce, mix[i])), [ann[o] for o in order])
                   for i in range(k)]
    if k:
        functionals.append(vcombine(field, n, [1] * k, functionals))
    other = QuotientSpace.of_functionals(field, n, functionals)
    assert other.free_columns == quo.free_columns == [c for c in range(n)
                                                      if c not in space.pivots]
    assert other.projections == quo.projections
    vectors = [unit_vector(field, n, c) for c in range(n)]
    vectors += [tuple(map(field.coerce, data.draw(st.lists(st.integers(-9, 9), min_size=n,
                                                           max_size=n)))) for _ in range(3)]
    for v in vectors:
        reduced = space.reduce(v)
        assert other.project(v) == quo.project(v) == tuple(reduced[c] for c in quo.free_columns)
        assert_field_elements(field, other.project(v))
    for c in range(k):
        e = unit_vector(field, k, c)
        assert other.lift(e) == quo.lift(e)
        assert other.project(other.lift(e)) == e


@given(st.sampled_from(SCALAR_FIELDS), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_scalars_are_canonical_field_elements(field, n, m, data):
    def draw_rows(nrows, ncols, entries):
        return data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows))

    def check(*vectors):
        assert_field_elements(field, itertools.chain.from_iterable(vectors))

    raw = draw_rows(n, m, raw_scalars)
    coerced = [[field.coerce(x) for x in row] for row in raw]
    check(*coerced)
    check([field.inv(x) for row in coerced for x in row if x != 0])
    # RowSpace takes internal vectors as they are, integral Fractions too,
    # or any ints over GF(p); what it stores is canonical all the same
    internal = raw if field.p is None else draw_rows(n, m, st.integers(-12, 12))
    space = RowSpace(field, m)
    space.extend(tuple(Fraction(x) if field.p is None else x for x in row)
                 for row in internal)
    check(*space.rows)
    A = Matrix(field, raw)
    check(*A.rows, *kernel_rows(A), *common_left_kernel([A]))
    X = solve_columns(A, Matrix(field, draw_rows(n, 2, raw_scalars)))
    if X is not None:
        check(*X.rows)
    S = invert(Matrix(field, draw_rows(m, m, raw_scalars)))
    if S is not None:
        check(*S.rows)


# -- the row-combination kernel against a textbook triple loop ---------

def _sparse_rows(rng, field, nrows, ncols, density, integral):
    """nrows x ncols field elements, each nonzero with probability
    ``density``; half the nonzero ones are 1.  Over Q they are ints when
    ``integral`` and may be Fractions otherwise."""
    def entry():
        if rng.random() >= density:
            return field.zero
        if rng.random() < 0.5:
            return field.one
        if field.p is not None:
            return rng.randrange(1, field.p)
        x = rng.choice((-3, -2, -1, 2, 3))
        return x if integral else field.coerce(Fraction(x, rng.choice((1, 2, 3))))
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _textbook_product(field, X, Y, ncols):
    """(X Y)[i][j] = sum_k X[i][k] Y[k][j], one field operation at a time."""
    return tuple(
        tuple(functools.reduce(field.add, [field.mul(row[k], Y[k][j]) for k in range(len(Y))],
                               field.zero)
              for j in range(ncols))
        for row in X
    )


@given(st.sampled_from(SCALAR_FIELDS), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from((0.0, 0.05, 0.15, 0.3, 1.0)), st.booleans(), st.randoms())
@settings(max_examples=150, deadline=None)
def test_row_combination_kernel_matches_the_textbook_product(field, n, k, m, density,
                                                             integral, rng):
    X = _sparse_rows(rng, field, n, k, density, integral)
    Y = _sparse_rows(rng, field, k, m, density, integral)
    # an all-zero row, and a lone coefficient 1 that picks one row of Y
    X.append([field.zero] * k)
    if k:
        X.append(list(unit_vector(field, k, rng.randrange(k))))
    want = _textbook_product(field, X, Y, m)
    B = Matrix(field, Y, ncols=m)
    product = Matrix(field, X, ncols=k) * B
    assert (product.nrows, product.ncols) == (len(X), m) and product.rows == want
    # list-valued vectors come back as tuples all the same
    got = [B.act_row(row) for row in X] + [vcombine(field, m, row, Y) for row in X]
    assert all(type(v) is tuple for v in got) and got == list(want) * 2
    entries = [x for v in [*got, *product.rows] for x in v]
    if field.p is not None:
        assert_field_elements(field, entries)
    elif integral:
        assert all(type(x) is int for x in entries)

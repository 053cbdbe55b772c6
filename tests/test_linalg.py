"""Exact linear algebra: worked examples and law checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fdalg.linalg import (
    Field,
    Matrix,
    QQ,
    RowSpace,
    QuotientSpace,
    common_left_kernel,
    invert,
    kernel_basis,
    kernel_rows,
    kronecker,
    mcombine,
    solve,
    unit_vector,
    unvec,
    vcombine,
    vec,
)
from fdalg.errors import DimensionError, FieldMismatchError

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
    assert A.trace() == 5


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

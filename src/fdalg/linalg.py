"""Exact scalars and dense linear algebra.

Rationals are integers, or ``fractions.Fraction`` when the denominator is
> 1 (a transient ``Fraction(k, 1)`` is exact, and :class:`RowSpace` stores
it as an int); prime-field elements are ints kept reduced in ``range(p)``.
No floating point anywhere.  Scalars are coerced where they enter.
Coordinate vectors are plain tuples; matrices act on row vectors from the
right (``v -> v @ M``).

:class:`RowSpace` is the one Gauss-Jordan elimination: ranks, kernels,
solves, inverses and :class:`Coordinates` all read the reduced echelon
form it keeps.  That form is unique for a span, so every result is
reproducible byte for byte whatever order the rows arrive in.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionError, FieldMismatchError, VerificationError


# Miller-Rabin with the prime bases 2..37 is exact below this bound
# (Sorenson & Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < _PRIME_BOUND; ValueError above it."""
    if n >= _PRIME_BOUND:
        raise ValueError(
            f"{n} is at least {_PRIME_BOUND}, the bound below which primality is certified"
        )
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _normal(x):
    """x, or its numerator when x is a Fraction with denominator 1."""
    return x._numerator if type(x) is Fraction and x._denominator == 1 else x


class Field:
    """The rationals (``p is None``) or a prime field F_p."""

    zero = 0
    one = 1

    def __init__(self, p: Optional[int] = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def coerce(self, x):
        """Normalize an int/Fraction/string into a field element.

        This is the single entry point for scalars: floats and bools are
        rejected rather than rounded, and a denominator divisible by p is
        a ValueError.  A rational comes back as an int when it is integral
        and as a Fraction only when its denominator is > 1.
        """
        if self.p is None:
            if type(x) is int:
                return x
            if type(x) is Fraction:
                return _normal(x)
        elif type(x) is int:
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, (bool, float)):
            raise TypeError(f"inexact scalar {x!r}; give an int or a string such as '1/2'")
        if self.p is None:
            return _normal(Fraction(x))
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError(f"scalar {x} has a denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return operator.index(x) % self.p

    def coerce_row(self, row) -> tuple:
        """``tuple(map(self.coerce, row))``; a row of plain ints (no bool)
        takes one pass, as it is over Q and reduced mod p over GF(p)."""
        row = tuple(row)
        if set(map(type, row)) <= {int}:
            return row if self.p is None else tuple([x % self.p for x in row])
        return tuple(map(self.coerce, row))

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return _normal(1 / Fraction(a))
        return pow(a, -1, self.p)

    def format(self, x) -> str:
        if self.p is None:
            return str(x)
        return f"{x} mod {self.p}"

    def parse(self, s: str):
        s = s.strip()
        if "mod" in s:
            k, _, p = s.partition("mod")
            if self.p is None or int(p) != self.p:
                raise ValueError(f"scalar {s!r} does not belong to {self}")
            return int(k) % self.p
        try:
            x = Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"scalar {s!r} has a zero denominator") from None
        return self.coerce(x)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


# -- vector helpers (row tuples) --------------------------------------

def vzero(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def vadd(field: Field, u: Sequence, v: Sequence) -> tuple:
    if field.p is None:
        return tuple(a + b for a, b in zip(u, v))
    p = field.p
    return tuple([(a + b) % p for a, b in zip(u, v)])


def vsub(field: Field, u: Sequence, v: Sequence) -> tuple:
    if field.p is None:
        return tuple(a - b for a, b in zip(u, v))
    p = field.p
    return tuple([(a - b) % p for a, b in zip(u, v)])


def vscale(field: Field, c, v: Sequence) -> tuple:
    if field.p is None:
        return tuple(c * a for a in v)
    p = field.p
    return tuple([c * a % p for a in v])


def vec_is_zero(v: Sequence) -> bool:
    return not any(v)


def vpairs(v: Sequence) -> list:
    """The (index, entry) pairs of the nonzero entries of v, index increasing."""
    return list(itertools.compress(enumerate(v), v))


def vdense(field: Field, n: int, pairs) -> tuple:
    """The vector of F^n with the given (index, entry) pairs and zeros elsewhere."""
    v = [field.zero] * n
    for k, c in pairs:
        v[k] = c
    return tuple(v)


def unit_vector(field: Field, n: int, i: int) -> tuple:
    """The i-th standard basis vector of F^n."""
    return vdense(field, n, ((i, field.one),))


def vcombine(field: Field, n: int, coeffs: Sequence, vectors: Sequence[Sequence]) -> tuple:
    """sum_i coeffs[i] * vectors[i] in F^n, the one kernel for a linear
    combination of rows (matrix products and ``act_row`` included).

    Zero coefficients are skipped and the first nonzero term starts the
    sum, so a lone coefficient 1 returns its vector, as a tuple, with no
    arithmetic.  Over GF(p) the sum is reduced once, at the end.
    """
    acc = None
    for c, v in zip(coeffs, vectors):
        if c == 0:
            continue
        if acc is None:
            acc = v if c == 1 else [c * b for b in v]
        elif c == 1:
            acc = [a + b for a, b in zip(acc, v)]
        else:
            acc = [a + c * b for a, b in zip(acc, v)]
    if acc is None:
        return (field.zero,) * n
    p = field.p
    # every sum is a list, so a tuple here is the lone term's own vector
    if p is None or type(acc) is tuple:
        return tuple(acc)
    return tuple([a % p for a in acc])


class Matrix:
    """Immutable dense matrix over a :class:`Field`."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable], ncols: Optional[int] = None):
        rows = tuple(map(field.coerce_row, rows))
        self.field = field
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise DimensionError("ragged rows")
        else:
            if ncols is None:
                ncols = 0
            self.ncols = ncols
        self.rows = rows

    @staticmethod
    def _trusted(field: Field, rows: tuple, ncols: int) -> "Matrix":
        """A matrix on row tuples already in ``field``: no coercion, no checks."""
        out = Matrix.__new__(Matrix)
        out.field = field
        out.nrows = len(rows)
        out.ncols = ncols
        out.rows = rows
        return out

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix._trusted(field, ((0,) * ncols,) * nrows, ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix._trusted(field, tuple(unit_vector(field, n, i) for i in range(n)), n)

    @staticmethod
    def column(field: Field, entries: Sequence) -> "Matrix":
        return Matrix(field, [[x] for x in entries], ncols=1)

    def column_tuple(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in addition")
        f = self.field
        return Matrix._trusted(f, tuple(vadd(f, a, b) for a, b in zip(self.rows, other.rows)),
                               self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in subtraction")
        f = self.field
        return Matrix._trusted(f, tuple(vsub(f, a, b) for a, b in zip(self.rows, other.rows)),
                               self.ncols)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix._trusted(f, tuple(vscale(f, c, r) for r in self.rows), self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f, n, rows = self.field, other.ncols, other.rows
        return Matrix._trusted(f, tuple([vcombine(f, n, r, rows) for r in self.rows]), n)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field, tuple(zip(*self.rows)), self.nrows)

    def act_row(self, v: Sequence) -> tuple:
        """Row vector times matrix: v @ self."""
        if len(v) != self.nrows:
            raise DimensionError("vector length mismatch")
        return vcombine(self.field, self.ncols, v, self.rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(itertools.chain.from_iterable(self.rows))

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        one = self.field.one
        return all(
            x == (one if i == j else 0)
            for i, r in enumerate(self.rows)
            for j, x in enumerate(r)
        )

    def rank(self) -> int:
        space = RowSpace(self.field, self.ncols)
        space.extend(self.rows)
        return space.dim


def vec(m: Matrix) -> tuple:
    """Row-major flattening of a matrix."""
    return tuple(itertools.chain.from_iterable(m.rows))


def unvec(field: Field, v: Sequence, nrows: int, ncols: int) -> Matrix:
    """Inverse of :func:`vec`."""
    v = tuple(v)
    return Matrix._trusted(field, tuple(v[i * ncols:(i + 1) * ncols] for i in range(nrows)),
                           ncols)


def mcombine(field: Field, nrows: int, ncols: int, coeffs: Sequence,
             mats: Sequence[Matrix]) -> Matrix:
    """sum_i coeffs[i] * mats[i] as an nrows x ncols matrix; only the
    terms with a nonzero coefficient are flattened, and a lone term with
    coefficient 1 is returned as it is (matrices are immutable)."""
    terms = [(c, m) for c, m in zip(coeffs, mats) if c != 0]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    flat = vcombine(field, nrows * ncols, [c for c, _ in terms], [vec(m) for _, m in terms])
    return unvec(field, flat, nrows, ncols)


def solve(A: Matrix, b: Matrix) -> Optional[Matrix]:
    """One solution of A x = b (b a column), or None if inconsistent.

    Deterministic: free variables are set to zero under first-nonzero
    pivoting, so the returned solution is canonical.
    """
    if b.ncols != 1:
        raise DimensionError("right-hand side must be a column")
    if A.nrows != b.nrows:
        raise DimensionError(f"A has {A.nrows} rows but b has {b.nrows}")
    return solve_columns(A, b)


def solve_columns(A: Matrix, B: Matrix) -> Optional[Matrix]:
    """Simultaneous solve A X = B for each column of B; None if any fails."""
    if A.field != B.field:
        raise FieldMismatchError("mixed fields in solve")
    if A.nrows != B.nrows:
        raise DimensionError("row count mismatch in solve")
    field = A.field
    m, k = A.ncols, B.ncols
    space = RowSpace(field, m + k)
    space.extend(a + b for a, b in zip(A.rows, B.rows))
    # a pivot in the B block means inconsistency
    if any(c >= m for c in space.pivots):
        return None
    X = [vzero(field, k)] * m
    for row, c in zip(space.rows, space.pivots):
        X[c] = row[m:]
    return Matrix._trusted(field, tuple(X), k)


def kernel_rows(A: Matrix) -> list:
    """Basis of {v : A v = 0} as row tuples (length = A.ncols): the
    :meth:`RowSpace.annihilator` of the rows of A."""
    space = RowSpace(A.field, A.ncols)
    space.extend(A.rows)
    return space.annihilator()


def kernel_basis(A: Matrix) -> list:
    """Basis of ker(A) as column matrices; empty iff A is injective."""
    return [Matrix.column(A.field, v) for v in kernel_rows(A)]


def left_kernel_rows(A: Matrix) -> list:
    """Basis of {v : v A = 0} as row tuples (length = A.nrows)."""
    return kernel_rows(A.transpose())


def common_left_kernel(mats: Sequence[Matrix]) -> list:
    """Basis of {v : v M = 0 for every M in mats}: the left kernel of the
    matrices placed side by side, all with the same row count.  Built
    directly as the kernel of the transpose, whose rows are the columns
    of every M in turn."""
    columns = tuple(col for m in mats for col in zip(*m.rows))
    return kernel_rows(Matrix._trusted(mats[0].field, columns, mats[0].nrows))


def invert(A: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None when singular."""
    if not A.is_square:
        raise DimensionError("cannot invert a non-square matrix")
    n = A.nrows
    if n == 0:
        return Matrix.zeros(A.field, 0, 0)
    # a singular A puts a pivot of [A | I] in the I block, so X is None
    X = solve_columns(A, Matrix.identity(A.field, n))
    if X is None:
        return None
    # re-verification: the inverse is only returned once A X = I is exact
    if not (A * X).is_identity():
        return None
    return X


def kronecker(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product with lexicographic index order (i,j) -> i*dim_B + j.

    With the row-major :func:`vec`, vec(X F Y) = vec(F) (X^T (x) Y): a linear
    condition on a matrix unknown F is a row vector times a Kronecker product.
    """
    if A.field != B.field:
        raise FieldMismatchError("mixed fields in kronecker")
    f = A.field
    p = f.p
    rows = []
    for ra in A.rows:
        for rb in B.rows:
            if p is None:
                rows.append(tuple(a * b for a in ra for b in rb))
            else:
                rows.append(tuple([a * b % p for a in ra for b in rb]))
    return Matrix._trusted(f, tuple(rows), A.ncols * B.ncols)


def block_diag(field: Field, blocks: Sequence[Matrix]) -> Matrix:
    rows = []
    total_cols = sum(b.ncols for b in blocks)
    offset = 0
    for b in blocks:
        for r in b.rows:
            row = [field.zero] * total_cols
            row[offset : offset + b.ncols] = list(r)
            rows.append(tuple(row))
        offset += b.ncols
    return Matrix._trusted(field, tuple(rows), total_cols)


class RowSpace:
    """Span of row vectors kept in reduced echelon form.

    Supports incremental insertion, membership, canonical reduction mod
    the span, and coordinates with respect to the echelon basis.  Pivots
    are first nonzero entries; over GF(p) every stored entry lies in
    ``range(p)``.
    """

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list = []      # RREF rows
        self.pivots: list = []    # pivot column of each row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _eliminate(self, v: list) -> list:
        """Clear the pivot columns of the list v in place.  Over GF(p) an
        entry of v may be any int: every entry this touches comes out in
        ``range(p)``, the others are left as they are."""
        p = self.field.p
        for row, c in zip(self.rows, self.pivots):
            fct = v[c]
            if fct == 0:
                continue
            if p is None:
                for j, b in enumerate(row):
                    if b != 0:
                        v[j] = v[j] - fct * b
            else:
                for j, b in enumerate(row):
                    if b != 0:
                        v[j] = (v[j] - fct * b) % p
        return v

    def reduce(self, v: Sequence) -> tuple:
        """Canonical representative of v modulo the span; over GF(p) the
        entries of v may be any ints."""
        p = self.field.p
        return tuple(self._eliminate(list(v) if p is None else [x % p for x in v]))

    def insert(self, v: Sequence) -> bool:
        """Add v to the span; returns True when the dimension grew.  Over
        GF(p) the entries of v may be any ints, which the rescaling
        reduces; over Q every integral entry is stored as an int."""
        if len(self.rows) == self.ncols:
            return False
        p = self.field.p
        r = self._eliminate(list(v))
        if not any(r):
            return False
        # the pivot; an entry elimination left alone may be a multiple of p
        for c, x in enumerate(r):
            if x if p is None else x % p:
                break
        else:
            return False
        if p is None:
            if x != 1:
                inv = 1 / Fraction(x)
                r = [inv * a for a in r]
            # a row of plain ints under a pivot 1 is already normal (as in coerce_row)
            r = tuple(r) if x == 1 and set(map(type, r)) <= {int} else tuple(map(_normal, r))
        else:
            inv = pow(x, -1, p)
            r = tuple([inv * a % p for a in r])
        # keep existing rows reduced against the new one
        for i, row in enumerate(self.rows):
            fct = row[c]
            if fct != 0:
                if p is None:
                    self.rows[i] = tuple(_normal(a - fct * b) for a, b in zip(row, r))
                else:
                    self.rows[i] = tuple([(a - fct * b) % p for a, b in zip(row, r)])
        pos = bisect.bisect(self.pivots, c)
        self.rows.insert(pos, r)
        self.pivots.insert(pos, c)
        return True

    def extend(self, vectors: Iterable[Sequence]) -> None:
        for v in vectors:
            self.insert(v)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def coordinates(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of v in the echelon basis, or None if outside; over Q
        with integers as ints, as :meth:`Coordinates.of` returns them."""
        if not self.contains(v):
            return None
        p = self.field.p
        return tuple(_normal(v[c]) if p is None else v[c] % p for c in self.pivots)

    def basis_matrix(self) -> Matrix:
        return Matrix._trusted(self.field, tuple(self.rows), self.ncols)

    def annihilator(self) -> list:
        """Basis of {f : sum_j f_j r_j = 0 for every r in the span}, read off
        the echelon form: one vector per free column c, with 1 at c and
        -r[c] at the pivot of each echelon row r.  It depends on the span
        alone, so it is reproducible byte for byte."""
        field = self.field
        pivot_set = set(self.pivots)
        basis = []
        for fcol in range(self.ncols):
            if fcol in pivot_set:
                continue
            v = [field.zero] * self.ncols
            v[fcol] = field.one
            for row, c in zip(self.rows, self.pivots):
                v[c] = field.neg(row[fcol])
            basis.append(tuple(v))
        return basis


class QuotientSpace:
    """F^n modulo a subspace U, with the echelon-complement basis: the standard vectors
    at the columns free of pivots of U.  ``QuotientSpace(space)`` takes U as a RowSpace,
    :meth:`of_functionals` a spanning set of its annihilator.  The functionals X_f of
    :meth:`RowSpace.annihilator` end in the 1 at the free column f and are 0 at the other
    free columns: reversed, they are the echelon form of the reversed annihilator, so they
    depend on U alone.  ``project`` is v -> (<v, X_f>)_f over the nonzero entries of v,
    i.e. v reduced mod U at the free columns, and ``lift`` inverts it on the basis.
    """

    def __init__(self, space: RowSpace):
        self._store(space.field, space.ncols, space.annihilator())

    @staticmethod
    def of_functionals(field: Field, n: int, functionals: Iterable[Sequence]) -> "QuotientSpace":
        """F^n modulo the common kernel of ``functionals``, vectors of F^n."""
        out = QuotientSpace.__new__(QuotientSpace)
        out._store(field, n, functionals)
        return out

    def _store(self, field: Field, n: int, functionals: Iterable[Sequence]) -> None:
        reversed_space = RowSpace(field, n)
        reversed_space.extend(f[::-1] for f in functionals)
        self.field, self.ambient_dim = field, n
        self.free_columns = [n - 1 - c for c in reversed(reversed_space.pivots)]
        self.dim = len(self.free_columns)
        X = [x[::-1] for x in reversed(reversed_space.rows)]  # X_f for f in free_columns
        # row j holds (X_f[j])_f = project(e_j), so project(v) is v times these rows
        self.projections = tuple(zip(*X)) or ((),) * n

    def project(self, v: Sequence) -> tuple:
        pairs = vpairs(v)
        r = vcombine(self.field, self.dim, [c for _, c in pairs],
                     [self.projections[j] for j, _ in pairs])
        return r if self.field.p is not None else tuple(map(_normal, r))

    def lift(self, coords: Sequence) -> tuple:
        v = [self.field.zero] * self.ambient_dim
        for c, x in zip(self.free_columns, coords):
            v[c] = x
        return tuple(v)


class Coordinates:
    """Coordinates with respect to a fixed list of vectors of F^n.

    The reduced echelon form of ``[vectors | I]`` is ``[E | T]`` with
    ``T vectors = E``, so reducing ``(v | 0)`` leaves ``(0 | -c)`` exactly
    when ``v = c vectors``: one reduction per lookup.  ``independent`` is
    False when the list is linearly dependent; ``of`` then returns one
    canonical choice among the solutions, over Q with integers as ints.
    """

    def __init__(self, field: Field, vectors: Sequence[Sequence], n: int):
        k = len(vectors)
        self.field = field
        self.n = n
        self._pad = vzero(field, k)
        self._space = RowSpace(field, n + k)
        self._space.extend(tuple(v) + unit_vector(field, k, i) for i, v in enumerate(vectors))
        self.independent = all(c < n for c in self._space.pivots)

    def of(self, v: Sequence) -> Optional[tuple]:
        """The c with sum_i c_i vectors[i] = v, or None if v is outside the span."""
        r = self._space.reduce(tuple(v) + self._pad)
        n = self.n
        if not vec_is_zero(r[:n]):
            return None
        p = self.field.p
        if p is None:
            return tuple(_normal(-a) for a in r[n:])
        return tuple(-a % p for a in r[n:])


def coordinate_rows(of: Callable[[Sequence], Optional[tuple]], vectors: Iterable[Sequence],
                    failure: str) -> tuple:
    """``of(v)`` for each v in ``vectors``, where ``of`` returns None for a
    vector outside its span (``RowSpace.coordinates``, ``Coordinates.of``).

    A None raises VerificationError: ``failure``, then the index of the
    first vector outside the span and the number of vectors.
    """
    rows = tuple(map(of, vectors))
    if None in rows:
        raise VerificationError(f"{failure}: vector {rows.index(None)} of {len(rows)}")
    return rows

"""Exact scalars and dense linear algebra.

Rationals are ``fractions.Fraction``; prime-field elements are ints kept
reduced in ``range(p)``.  No floating point anywhere.  All elimination
uses first-nonzero pivoting, so every result is reproducible byte for
byte.  Coordinate vectors are plain tuples; matrices act on row vectors
from the right (``v -> v @ M``).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, FieldMismatchError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """The rationals (``p is None``) or a prime field F_p."""

    def __init__(self, p: Optional[int] = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, x):
        """Normalize an int/Fraction/string into a field element.

        This is the single entry point for scalars: floats and bools are
        rejected rather than rounded, and a denominator divisible by p is
        a ValueError.
        """
        if self.p is None:
            if type(x) is Fraction:
                return x
            if type(x) is int:
                return Fraction(x)
        elif type(x) is int:
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, (bool, float)):
            raise TypeError(f"inexact scalar {x!r}; give an int or a string such as '1/2'")
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError(f"scalar {x} has a denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return operator.index(x) % self.p

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
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def elements(self):
        """All field elements; only available for prime fields."""
        if self.p is None:
            raise ValueError("the rationals are infinite")
        return range(self.p)

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
    return tuple((a + b) % p for a, b in zip(u, v))


def vsub(field: Field, u: Sequence, v: Sequence) -> tuple:
    if field.p is None:
        return tuple(a - b for a, b in zip(u, v))
    p = field.p
    return tuple((a - b) % p for a, b in zip(u, v))


def vscale(field: Field, c, v: Sequence) -> tuple:
    if field.p is None:
        return tuple(c * a for a in v)
    p = field.p
    return tuple(c * a % p for a in v)


def vec_is_zero(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def unit_vector(field: Field, n: int, i: int) -> tuple:
    """The i-th standard basis vector of F^n."""
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def vcombine(field: Field, n: int, coeffs: Sequence, vectors: Sequence[Sequence]) -> tuple:
    """sum_i coeffs[i] * vectors[i] in F^n; zero coefficients are skipped."""
    acc = [field.zero] * n
    for c, v in zip(coeffs, vectors):
        if c == 0:
            continue
        if c == 1:
            acc = [a + b for a, b in zip(acc, v)]
        else:
            acc = [a + c * b for a, b in zip(acc, v)]
    if field.p is None:
        return tuple(acc)
    p = field.p
    return tuple(a % p for a in acc)


class Matrix:
    """Immutable dense matrix over a :class:`Field`."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable], ncols: Optional[int] = None):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
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
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

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
        return Matrix(f, [vadd(f, a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in subtraction")
        f = self.field
        return Matrix(f, [vsub(f, a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix(f, [vscale(f, c, r) for r in self.rows], ncols=self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        out = Matrix.__new__(Matrix)
        out.field = self.field
        out.nrows = self.nrows
        out.ncols = other.ncols
        out.rows = tuple(other.act_row(row) for row in self.rows)
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [], ncols=self.nrows)

    def act_row(self, v: Sequence) -> tuple:
        """Row vector times matrix: v @ self."""
        if len(v) != self.nrows:
            raise DimensionError("vector length mismatch")
        p = self.field.p
        acc = [self.field.zero] * self.ncols
        for i, c in enumerate(v):
            if c == 0:
                continue
            row = self.rows[i]
            if c == 1:
                for j, x in enumerate(row):
                    if x != 0:
                        acc[j] = acc[j] + x
            else:
                for j, x in enumerate(row):
                    if x != 0:
                        acc[j] = acc[j] + c * x
        if p is None:
            return tuple(acc)
        return tuple(a % p for a in acc)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        one = self.field.one
        return all(
            x == (one if i == j else 0)
            for i, r in enumerate(self.rows)
            for j, x in enumerate(r)
        )

    def trace(self):
        if not self.is_square:
            raise DimensionError("trace of non-square matrix")
        f = self.field
        t = f.zero
        for i in range(self.nrows):
            t = f.add(t, self.rows[i][i])
        return t

    def rank(self) -> int:
        _, pivots = _rref(self.field, [list(r) for r in self.rows], self.ncols)
        return len(pivots)


def vec(m: Matrix) -> tuple:
    """Row-major flattening of a matrix."""
    return tuple(itertools.chain.from_iterable(m.rows))


def unvec(field: Field, v: Sequence, nrows: int, ncols: int) -> Matrix:
    """Inverse of :func:`vec`."""
    return Matrix(field, [v[i * ncols:(i + 1) * ncols] for i in range(nrows)], ncols=ncols)


def mcombine(field: Field, nrows: int, ncols: int, coeffs: Sequence,
             mats: Sequence[Matrix]) -> Matrix:
    """sum_i coeffs[i] * mats[i] as an nrows x ncols matrix; only the
    terms with a nonzero coefficient are flattened."""
    terms = [(c, vec(m)) for c, m in zip(coeffs, mats) if c != 0]
    flat = vcombine(field, nrows * ncols, [c for c, _ in terms], [v for _, v in terms])
    return unvec(field, flat, nrows, ncols)


def _rref(field: Field, rows: list, ncols: int):
    """In-place reduced row echelon form with first-nonzero pivoting.

    Returns (rows, pivot_columns); zero rows sink to the bottom.
    """
    p = field.p
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            if p is None:
                rows[r] = [inv * x for x in rows[r]]
            else:
                rows[r] = [inv * x % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                fct = rows[i][c]
                ri, rr = rows[i], rows[r]
                if p is None:
                    rows[i] = [a - fct * b for a, b in zip(ri, rr)]
                else:
                    rows[i] = [(a - fct * b) % p for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


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
    n, m = A.nrows, A.ncols
    k = B.ncols
    aug = [list(A.rows[i]) + list(B.rows[i]) for i in range(n)]
    aug, pivots = _rref(field, aug, m + k)
    # pivot in the RHS block means inconsistency
    if any(c >= m for c in pivots):
        return None
    X = [[field.zero] * k for _ in range(m)]
    for r, c in enumerate(pivots):
        for j in range(k):
            X[c][j] = aug[r][m + j]
    return Matrix(field, X, ncols=k)


def kernel_rows(A: Matrix) -> list:
    """Basis of {v : A v = 0} as row tuples (length = A.ncols),
    echelon-normalized for reproducibility."""
    field = A.field
    m = A.ncols
    rows, pivots = _rref(field, [list(r) for r in A.rows], m)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [field.zero] * m
        v[fcol] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(rows[r][fcol])
        basis.append(tuple(v))
    return basis


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
    columns = [col for m in mats for col in zip(*m.rows)]
    return kernel_rows(Matrix(mats[0].field, columns, ncols=mats[0].nrows))


def invert(A: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None when singular."""
    if not A.is_square:
        raise DimensionError("cannot invert a non-square matrix")
    n = A.nrows
    if n == 0:
        return Matrix.zeros(A.field, 0, 0)
    X = solve_columns(A, Matrix.identity(A.field, n))
    if X is None:
        return None
    # rank deficiency shows up as inconsistency only for some columns;
    # confirm the product exactly
    if not (A * X).is_identity():
        return None
    return X


def kronecker(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product with lexicographic index order (i,j) -> i*dim_B + j."""
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
                rows.append(tuple(a * b % p for a in ra for b in rb))
    return Matrix(f, rows, ncols=A.ncols * B.ncols)


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
    return Matrix(field, rows, ncols=total_cols)


class RowSpace:
    """Span of row vectors kept in reduced echelon form.

    Supports incremental insertion, membership, canonical reduction mod
    the span, and coordinates with respect to the echelon basis.
    """

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list = []      # RREF rows
        self.pivots: list = []    # pivot column of each row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> tuple:
        """Canonical representative of v modulo the span."""
        p = self.field.p
        v = list(v)
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
        return tuple(v)

    def insert(self, v: Sequence) -> bool:
        """Add v to the span; returns True when the dimension grew."""
        field = self.field
        r = list(self.reduce(v))
        for c, x in enumerate(r):
            if x != 0:
                inv = field.inv(x)
                if inv != 1:
                    r = [field.mul(inv, a) for a in r]
                # keep existing rows reduced against the new one
                for i, row in enumerate(self.rows):
                    if row[c] != 0:
                        fct = row[c]
                        self.rows[i] = tuple(
                            field.sub(a, field.mul(fct, b)) for a, b in zip(row, r)
                        )
                pos = 0
                while pos < len(self.pivots) and self.pivots[pos] < c:
                    pos += 1
                self.rows.insert(pos, tuple(r))
                self.pivots.insert(pos, c)
                return True
        return False

    def extend(self, vectors: Iterable[Sequence]) -> None:
        for v in vectors:
            self.insert(v)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def coordinates(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of v in the echelon basis, or None if outside."""
        if not self.contains(v):
            return None
        return tuple(v[c] for c in self.pivots)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.rows, ncols=self.ncols)


class QuotientSpace:
    """F^n modulo a RowSpace, with the echelon-complement basis.

    The quotient basis consists of the standard vectors at non-pivot
    columns; ``project`` and ``lift`` are mutually inverse on it.
    """

    def __init__(self, space: RowSpace):
        self.space = space
        self.field = space.field
        self.ambient_dim = space.ncols
        pivot_set = set(space.pivots)
        self.free_columns = [c for c in range(space.ncols) if c not in pivot_set]
        self.dim = len(self.free_columns)

    def project(self, v: Sequence) -> tuple:
        r = self.space.reduce(v)
        return tuple(r[c] for c in self.free_columns)

    def lift(self, coords: Sequence) -> tuple:
        v = [self.field.zero] * self.ambient_dim
        for c, x in zip(self.free_columns, coords):
            v[c] = x
        return tuple(v)

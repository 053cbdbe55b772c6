"""Finite-dimensional associative unital algebras via structure constants.

Conventions: elements are coordinate row tuples in the declared basis;
``e_i e_j = sum_k c[i][j][k] e_k``.  Right-multiplication matrices act on
row vectors, so ``rho(a b) = rho(a) rho(b)``.  Endomorphism-style maps
(:class:`AlgebraMap`) store a (target dim x source dim) matrix applied to
column vectors.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

from . import verify
from .errors import (
    DimensionError,
    FieldMismatchError,
    UnsplitQuotientError,
    UnsupportedCharacteristicError,
    VerificationError,
)
from .linalg import (
    Field,
    Matrix,
    QuotientSpace,
    RowSpace,
    common_left_kernel,
    invert,
    left_kernel_rows,
    solve_columns,
    unit_vector,
    vadd,
    vcombine,
    vec_is_zero,
    vscale,
    vsub,
    vzero,
)


class Algebra:
    """Associative unital algebra given by structure constants.

    Associativity and the unit law are checked exhaustively on basis
    triples at construction time.
    """

    def __init__(self, field: Field, basis_names: Sequence[str], table, unit, validate: bool = True):
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        if self.dim == 0:
            raise DimensionError("algebras must have positive dimension")
        self.table = tuple(
            tuple(tuple(field.coerce(x) for x in row) for row in block) for block in table
        )
        if len(self.table) != self.dim or any(
            len(block) != self.dim or any(len(row) != self.dim for row in block)
            for block in self.table
        ):
            raise DimensionError("structure constant table must be dim x dim x dim")
        self.unit = tuple(field.coerce(x) for x in unit)
        if len(self.unit) != self.dim:
            raise DimensionError("unit vector has wrong length")
        # sparse view of the multiplication table, used by mul() and the
        # associativity check
        self._sparse = tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c != 0) for row in block)
            for block in self.table
        )
        if validate:
            verify.require(verify.associative_unital(self))

    # -- element arithmetic -------------------------------------------

    def basis_vector(self, i: int) -> tuple:
        return unit_vector(self.field, self.dim, i)

    def coerce_element(self, seq) -> tuple:
        v = tuple(self.field.coerce(x) for x in seq)
        if len(v) != self.dim:
            raise DimensionError("element vector has wrong length")
        return v

    def mul(self, x: Sequence, y: Sequence) -> tuple:
        field = self.field
        out = [field.zero] * self.dim
        sp = self._sparse
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            spi = sp[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = field.mul(xi, yj)
                for k, ck in spi[j]:
                    out[k] = field.add(out[k], field.mul(c, ck))
        return tuple(out)

    def left_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix L with [x*y] = [y] @ L."""
        return Matrix(self.field, [self.mul(x, self.basis_vector(i)) for i in range(self.dim)])

    def right_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix R with [y*x] = [y] @ R."""
        return Matrix(self.field, [self.mul(self.basis_vector(i), x) for i in range(self.dim)])

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.unit))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field})"


class AlgebraMap:
    """Linear map between algebras tagged as (anti-)homomorphism.

    The matrix is (target dim x source dim) and acts on column vectors.
    Multiplicativity in the declared variance and unit preservation are
    checked on all basis pairs.
    """

    HOMOMORPHISM = "homomorphism"
    ANTI = "anti_homomorphism"

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix,
                 variance: str, validate: bool = True):
        if variance not in (self.HOMOMORPHISM, self.ANTI):
            raise ValueError(f"unknown variance {variance!r}")
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise DimensionError("algebra map matrix must be target-dim x source-dim")
        if source.field != target.field:
            raise FieldMismatchError("algebra map across different fields")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.variance = variance
        if validate:
            self._validate()

    @staticmethod
    def from_images(source: Algebra, target: Algebra, images: Sequence[Sequence],
                    variance: str, validate: bool = True) -> "AlgebraMap":
        """Build a map from the list of images of the source basis."""
        cols = [target.coerce_element(v) for v in images]
        rows = [[cols[j][k] for j in range(source.dim)] for k in range(target.dim)]
        return AlgebraMap(source, target, Matrix(target.field, rows), variance, validate)

    def apply(self, x: Sequence) -> tuple:
        m = self.matrix
        field = self.target.field
        out = []
        for k in range(m.nrows):
            row = m.rows[k]
            acc = field.zero
            for i, xi in enumerate(x):
                if xi != 0:
                    acc = field.add(acc, field.mul(row[i], xi))
            out.append(acc)
        return tuple(out)

    def _validate(self) -> None:
        # a method of its own so that the benchmark's tracer can time it
        verify.require(verify.algebra_map(self))

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self after other."""
        if other.target.dim != self.source.dim or other.target.field != self.source.field:
            raise DimensionError("maps do not compose")
        variance = (
            AlgebraMap.HOMOMORPHISM
            if self.variance == other.variance
            else AlgebraMap.ANTI
        )
        return AlgebraMap(other.source, self.target, self.matrix * other.matrix,
                          variance, validate=False)

    def inverse(self) -> "AlgebraMap":
        inv = invert(self.matrix)
        if inv is None:
            raise VerificationError("algebra map is not bijective")
        return AlgebraMap(self.target, self.source, inv, self.variance, validate=False)

    def is_bijective(self) -> bool:
        return verify.bijective(self.matrix) is None

    def is_involution(self) -> bool:
        return (
            self.source == self.target
            and self.variance == self.ANTI
            and verify.squares_to_identity(self.matrix) is None
        )

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMap)
            and self.variance == other.variance
            and self.matrix == other.matrix
            and self.source == other.source
            and self.target == other.target
        )

    def __repr__(self):
        return f"AlgebraMap({self.variance}, {self.source.dim}->{self.target.dim})"


class CenterData:
    """Basis of the center of an algebra, with a subalgebra view."""

    def __init__(self, algebra: Algebra, basis: Sequence[tuple]):
        self.algebra = algebra
        self.basis = tuple(tuple(v) for v in basis)
        self._as_algebra = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def as_algebra(self):
        """The center as an Algebra together with embedding rows."""
        if self._as_algebra is None:
            self._as_algebra = subalgebra(self.algebra, self.basis, self.algebra.unit,
                                          prefix="z")
        return self._as_algebra

    def coordinates(self, v: Sequence) -> Optional[tuple]:
        return _coords_in_rows(self.algebra.field, self.basis, v)


# -- constructors ------------------------------------------------------

def field_algebra(field: Field) -> Algebra:
    """The ground field as a one-dimensional algebra."""
    return Algebra(field, ["1"], [[[field.one]]], [field.one], validate=False)


def matrix_algebra(field: Field, n: int) -> Algebra:
    """M_n(F) on the matrix-unit basis e_ij, ordered row-major."""
    if n < 1:
        raise ValueError("n must be positive")
    dim = n * n
    names = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    zero, one = field.zero, field.one
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        table[i * n + j][k * n + l][i * n + l] = one
    unit = [zero] * dim
    for i in range(n):
        unit[i * n + i] = one
    return Algebra(field, names, table, unit)


def matrix_algebra_over(A: Algebra, n: int) -> Algebra:
    """M_n(A) on the basis E_ij (x) a_t, index (i,j,t) -> (i*n+j)*dim_A + t."""
    if n < 1:
        raise ValueError("n must be positive")
    field = A.field
    d = A.dim
    dim = n * n * d
    names = [
        f"E{i + 1}{j + 1}*{A.basis_names[t]}"
        for i in range(n)
        for j in range(n)
        for t in range(d)
    ]
    zero = field.zero
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for s in range(d):
                row_idx = (i * n + j) * d + s
                for l in range(n):
                    for t in range(d):
                        col_idx = (j * n + l) * d + t
                        prod = A.table[s][t]
                        out = table[row_idx][col_idx]
                        base = (i * n + l) * d
                        for k, c in enumerate(prod):
                            if c != 0:
                                out[base + k] = c
    unit = [zero] * dim
    for i in range(n):
        for t, c in enumerate(A.unit):
            unit[(i * n + i) * d + t] = c
    return Algebra(field, names, table, unit)


def upper_triangular_algebra(field: Field, n: int) -> Algebra:
    """Upper-triangular n x n matrices on the basis {e_ij : i <= j}."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: t for t, p in enumerate(pairs)}
    dim = len(pairs)
    names = [f"e{i + 1}{j + 1}" for i, j in pairs]
    zero, one = field.zero, field.one
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                table[a][b][index[(i, l)]] = one
    unit = [zero] * dim
    for i in range(n):
        unit[index[(i, i)]] = one
    return Algebra(field, names, table, unit)


def quaternion_algebra(field: Field, a=-1, b=-1) -> Algebra:
    """The quaternion algebra (a,b) with i^2 = a, j^2 = b, ij = -ji = k."""
    if field.characteristic == 2:
        raise UnsupportedCharacteristicError("quaternion presentation needs char != 2")
    a = field.coerce(a)
    b = field.coerce(b)
    f = field
    one, zero = f.one, f.zero
    ab = f.mul(a, b)

    def vec(c0, c1, c2, c3):
        return [c0, c1, c2, c3]

    n = f.neg
    table = [
        [vec(one, zero, zero, zero), vec(zero, one, zero, zero),
         vec(zero, zero, one, zero), vec(zero, zero, zero, one)],
        [vec(zero, one, zero, zero), vec(a, zero, zero, zero),
         vec(zero, zero, zero, one), vec(zero, zero, a, zero)],
        [vec(zero, zero, one, zero), vec(zero, zero, zero, n(one)),
         vec(b, zero, zero, zero), vec(zero, n(b), zero, zero)],
        [vec(zero, zero, zero, one), vec(zero, zero, n(a), zero),
         vec(zero, b, zero, zero), vec(n(ab), zero, zero, zero)],
    ]
    return Algebra(field, ["1", "i", "j", "k"], table, [one, zero, zero, zero])


def quaternion_conjugation(A: Algebra) -> AlgebraMap:
    """x -> trace(x) - x on a quaternion algebra built by quaternion_algebra."""
    f = A.field
    if A.dim != 4:
        raise DimensionError("not a quaternion algebra")
    images = [A.basis_vector(0)] + [
        vscale(f, f.neg(f.one), A.basis_vector(i)) for i in (1, 2, 3)
    ]
    return AlgebraMap.from_images(A, A, images, AlgebraMap.ANTI)


def quadratic_extension(field: Field, d) -> Algebra:
    """F[s]/(s^2 - d) as a two-dimensional algebra."""
    d = field.coerce(d)
    one, zero = field.one, field.zero
    table = [
        [[one, zero], [zero, one]],
        [[zero, one], [d, zero]],
    ]
    return Algebra(field, ["1", "s"], table, [one, zero])


def opposite(A: Algebra) -> Algebra:
    """The opposite algebra: c_op[i][j] = c[j][i]."""
    table = [[A.table[j][i] for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(A.field, A.basis_names, table, A.unit, validate=False)


def direct_product(A: Algebra, B: Algebra) -> Algebra:
    if A.field != B.field:
        raise FieldMismatchError("direct product across different fields")
    field = A.field
    zero = field.zero
    da, db = A.dim, B.dim
    dim = da + db
    names = [f"({n},0)" for n in A.basis_names] + [f"(0,{n})" for n in B.basis_names]
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(da):
        for j in range(da):
            for k, c in enumerate(A.table[i][j]):
                table[i][j][k] = c
    for i in range(db):
        for j in range(db):
            for k, c in enumerate(B.table[i][j]):
                table[da + i][da + j][da + k] = c
    unit = list(A.unit) + list(B.unit)
    return Algebra(field, names, table, unit, validate=False)


def tensor_product(A: Algebra, B: Algebra) -> Algebra:
    """A (x) B over F with lexicographic basis order (i,j) -> i*dim_B + j."""
    if A.field != B.field:
        raise FieldMismatchError("tensor product across different fields")
    field = A.field
    da, db = A.dim, B.dim
    dim = da * db
    names = [f"{na}*{nb}" for na in A.basis_names for nb in B.basis_names]
    zero = field.zero
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(da):
        for j in range(db):
            rowblock = table[i * db + j]
            for k in range(da):
                for l in range(db):
                    out = rowblock[k * db + l]
                    pa = A.table[i][k]
                    pb = B.table[j][l]
                    for m, cm in enumerate(pa):
                        if cm == 0:
                            continue
                        for nn, cn in enumerate(pb):
                            if cn != 0:
                                out[m * db + nn] = field.mul(cm, cn)
    unit = [zero] * dim
    for m, cm in enumerate(A.unit):
        if cm == 0:
            continue
        for nn, cn in enumerate(B.unit):
            if cn != 0:
                unit[m * db + nn] = field.mul(cm, cn)
    return Algebra(field, names, table, unit)


def subalgebra(A: Algebra, spanning: Sequence[Sequence], unit_vec: Sequence,
               prefix: str = "s"):
    """The subalgebra spanned by ``spanning`` (must be closed under
    multiplication and contain ``unit_vec`` as its unit).

    Returns (Algebra, basis_rows) where basis_rows embeds the new basis
    into A-coordinates.
    """
    field = A.field
    space = RowSpace(field, A.dim)
    space.extend(spanning)
    basis = list(space.rows)
    d = len(basis)
    if d == 0:
        raise DimensionError("empty subalgebra span")
    if not space.contains(unit_vec):
        raise VerificationError("designated unit lies outside the span")
    table = []
    for x in basis:
        row = []
        for y in basis:
            prod = A.mul(x, y)
            coords = space.coordinates(prod)
            if coords is None:
                raise VerificationError("span is not closed under multiplication")
            row.append(coords)
        table.append(row)
    unit = space.coordinates(tuple(unit_vec))
    names = [f"{prefix}{i}" for i in range(d)]
    return Algebra(field, names, table, unit), basis


def quotient_algebra(A: Algebra, ideal_vectors: Sequence[Sequence], prefix: str = "q"):
    """A modulo the two-sided ideal spanned by ``ideal_vectors``.

    Returns (Algebra, QuotientSpace); the quotient basis is the
    echelon-complement of the ideal.
    """
    field = A.field
    space = RowSpace(field, A.dim)
    space.extend(ideal_vectors)
    quo = QuotientSpace(space)
    if quo.dim == 0:
        raise DimensionError("quotient by the whole algebra")
    lifts = [quo.lift(unit_vector(field, quo.dim, i)) for i in range(quo.dim)]
    table = [[quo.project(A.mul(x, y)) for y in lifts] for x in lifts]
    unit = quo.project(A.unit)
    names = [f"{prefix}{i}" for i in range(quo.dim)]
    return Algebra(field, names, table, unit), quo


# -- center, radical, units -------------------------------------------

def center(A: Algebra) -> CenterData:
    """Basis of {x : x e_i = e_i x for all i}."""
    # x is central iff x (R(e_i) - L(e_i)) = 0 for every i
    basis = common_left_kernel([
        A.right_mult_matrix(e) - A.left_mult_matrix(e)
        for e in map(A.basis_vector, range(A.dim))
    ])
    return CenterData(A, basis)


def jacobson_radical(A: Algebra) -> list:
    """Basis of Jac(A) via the trace form of the left regular representation.

    Valid for char 0 or char > dim(A); the output is verified to be a
    nilpotent two-sided ideal.
    """
    field = A.field
    p = field.characteristic
    if p != 0 and p <= A.dim:
        raise UnsupportedCharacteristicError(
            f"char {p} too small for radical algorithm (dim {A.dim})"
        )
    traces = [A.left_mult_matrix(A.basis_vector(m)).trace() for m in range(A.dim)]
    gram = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc = field.zero
            for m, c in A._sparse[i][j]:
                acc = field.add(acc, field.mul(c, traces[m]))
            row.append(acc)
        gram.append(row)
    basis = left_kernel_rows(Matrix(field, gram))
    verify.require(verify.nilpotent_ideal(A, basis))
    return basis


def is_unit(A: Algebra, x: Sequence) -> Optional[tuple]:
    """The inverse of x, or None when x is not invertible."""
    x = A.coerce_element(x)
    L = A.left_mult_matrix(x)
    sol = solve_columns(L.transpose(), Matrix.column(A.field, A.unit))
    if sol is None:
        return None
    y = sol.column_tuple(0)
    if A.mul(x, y) != A.unit or A.mul(y, x) != A.unit:
        return None
    return y


# -- polynomial helpers (internal) -------------------------------------

def _poly_trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_deg(f: list) -> int:
    return len(f) - 1


def _poly_monic(field: Field, f: list) -> list:
    inv = field.inv(f[-1])
    return [field.mul(inv, c) for c in f]


def _poly_divmod(field: Field, f: list, g: list):
    f = list(f)
    q = [field.zero] * max(0, len(f) - len(g) + 1)
    ginv = field.inv(g[-1])
    while len(f) >= len(g) and f:
        c = field.mul(f[-1], ginv)
        d = len(f) - len(g)
        q[d] = c
        for i, gc in enumerate(g):
            f[d + i] = field.sub(f[d + i], field.mul(c, gc))
        _poly_trim(f)
    return _poly_trim(q), f


def _poly_gcd(field: Field, f: list, g: list) -> list:
    f, g = list(f), list(g)
    while g:
        _, r = _poly_divmod(field, f, g)
        f, g = g, r
    return _poly_monic(field, f) if f else f


def _poly_deriv(field: Field, f: list) -> list:
    return _poly_trim([field.mul(field.coerce(i), c) for i, c in enumerate(f)][1:])


def _poly_mul(field: Field, f: list, g: list) -> list:
    out = [field.zero] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b != 0:
                out[i + j] = field.add(out[i + j], field.mul(a, b))
    return _poly_trim(out)


def _poly_mod(field: Field, f: list, m: list) -> list:
    _, r = _poly_divmod(field, list(f), m)
    return r


def _poly_powmod(field: Field, f: list, e: int, m: list) -> list:
    result = [field.one]
    base = _poly_mod(field, f, m)
    while e > 0:
        if e & 1:
            result = _poly_mod(field, _poly_mul(field, result, base), m)
        base = _poly_mod(field, _poly_mul(field, base, base), m)
        e >>= 1
    return result


def _rational_roots(f: list) -> list:
    """All rational roots of a polynomial with Fraction coefficients."""
    den = 1
    for c in f:
        den = den * c.denominator // _gcd(den, c.denominator)
    ints = [int(c * den) for c in f]
    while ints and ints[0] == 0:
        ints = ints[1:]
    roots = set()
    if len(ints) < len(f):
        roots.add(Fraction(0))
    if not ints:
        return sorted(roots)
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(f):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int) -> list:
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_roots(field: Field, f: list) -> list:
    """Roots of f in the ground field, sorted for determinism."""
    if field.p is None:
        return [r for r in _rational_roots(f)]
    return sorted(
        x for x in field.elements()
        if _poly_eval_scalar(field, f, x) == 0
    )


def _poly_eval_scalar(field: Field, f: list, x):
    acc = field.zero
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _poly_eval_in_algebra(A: Algebra, f: list, x: Sequence) -> tuple:
    acc = vzero(A.field, A.dim)
    for c in reversed(f):
        acc = A.mul(acc, x)
        acc = vadd(A.field, acc, vscale(A.field, c, A.unit))
    return acc


def minimal_polynomial(A: Algebra, x: Sequence) -> list:
    """Monic minimal polynomial of x, coefficients low to high."""
    field = A.field
    space = RowSpace(field, A.dim)
    powers = [A.unit]
    space.insert(A.unit)
    cur = A.unit
    while True:
        cur = A.mul(cur, x)
        if space.contains(cur):
            coeffs = _coords_in_rows(field, powers, cur)
            return [field.neg(c) for c in coeffs] + [field.one]
        space.insert(cur)
        powers.append(cur)
        if len(powers) > A.dim + 1:
            raise VerificationError("minimal polynomial search did not terminate")


def _nontrivial_factor(field: Field, f: list, rng: random.Random) -> Optional[tuple]:
    """A factorization f = g*h with both factors nonconstant, or None.

    Over the rationals only square-free splitting and rational roots are
    attempted; over small prime fields distinct-degree and (for odd p)
    equal-degree splitting are used as well.
    """
    deg = _poly_deg(f)
    if deg < 2:
        return None
    d = _poly_gcd(field, f, _poly_deriv(field, f))
    if 0 < _poly_deg(d) < deg:
        q, r = _poly_divmod(field, list(f), d)
        assert not r
        return d, q
    roots = _poly_roots(field, f)
    if roots:
        lam = roots[0]
        g = [field.neg(lam), field.one]
        q, r = _poly_divmod(field, list(f), g)
        assert not r
        return g, q
    if field.p is None:
        return None
    p = field.p
    # distinct-degree phase
    t = [field.zero, field.one]
    for dd in range(1, deg // 2 + 1):
        xp = _poly_powmod(field, t, p ** dd, f)
        diff = _poly_trim([field.sub(a, b) for a, b in
                           zip(xp + [field.zero] * len(f), t + [field.zero] * len(f))])
        if not diff:
            # all irreducible factors have degree dividing dd
            g = _equal_degree_split(field, f, dd, rng)
            if g is not None:
                q, r = _poly_divmod(field, list(f), g)
                assert not r
                return g, q
            return None
        g = _poly_gcd(field, f, diff)
        if 0 < _poly_deg(g) < deg:
            q, r = _poly_divmod(field, list(f), g)
            assert not r
            return g, q
    return None


def _equal_degree_split(field: Field, f: list, d: int, rng: random.Random) -> Optional[list]:
    """Cantor-Zassenhaus splitting for a product of degree-d irreducibles."""
    p = field.p
    if p == 2:
        return None
    deg = _poly_deg(f)
    e = (p ** d - 1) // 2
    for _ in range(40):
        r = [field.coerce(rng.randrange(p)) for _ in range(deg)]
        r = _poly_trim(r)
        if _poly_deg(r) < 1:
            continue
        h = _poly_powmod(field, r, e, f)
        h = _poly_trim([field.sub(a, b) for a, b in
                        zip(h + [field.zero] * len(f), [field.one] + [field.zero] * len(f))])
        if not h:
            continue
        g = _poly_gcd(field, f, h)
        if 0 < _poly_deg(g) < deg:
            return g
    return None


# -- idempotents -------------------------------------------------------

def primitive_idempotents(A: Algebra, seed: int = 0) -> list:
    """A complete orthogonal set of primitive idempotents summing to 1.

    Splits the semisimple quotient (center splitting via minimal
    polynomials, then rank-one peeling inside each simple factor), then
    lifts modulo the radical with e -> 3e^2 - 2e^3.  Requires the
    quotient to be split over the ground field.
    """
    J = jacobson_radical(A)
    if J and A.field.characteristic in (2, 3):
        raise UnsupportedCharacteristicError(
            "idempotent lifting needs char not in {2,3} when the radical is nonzero"
        )
    rng = random.Random(seed)
    if J:
        Abar, quo = quotient_algebra(A, J)
        idems = _lift_idempotents(A, quo, _split_semisimple(Abar, rng))
        images = [quo.project(e) for e in idems]
    else:
        Abar = A
        idems = images = _split_semisimple(A, rng)
    verify.require(verify.complete_orthogonal(A, idems))
    verify.require(verify.primitive(Abar, images))
    return idems


def _split_semisimple(S: Algebra, rng: random.Random) -> list:
    """Primitive idempotents of a semisimple algebra (must be split)."""
    field = S.field
    centrals = [S.unit]
    zbasis = center(S).basis
    for z in zbasis:
        refined = []
        for u in centrals:
            corner, emb = subalgebra(S, _corner_span(S, u), u, prefix="c")
            zu = _coords_in_rows(field, emb, S.mul(u, S.mul(z, u)))
            if zu is None:
                raise VerificationError("central element left the corner")
            m = minimal_polynomial(corner, zu)
            if _poly_deg(m) == 1:
                refined.append(u)
                continue
            sf = _poly_gcd(field, m, _poly_deriv(field, m))
            if _poly_deg(sf) > 0:
                raise VerificationError("center element not semisimple in quotient")
            roots = _poly_roots(field, m)
            if len(roots) < _poly_deg(m):
                raise UnsplitQuotientError(
                    "unsplit semisimple quotient: center minimal polynomial "
                    "has an irreducible factor of degree >= 2"
                )
            for lam in roots:
                proj = corner.unit
                for mu in roots:
                    if mu == lam:
                        continue
                    shifted = vsub(field, zu, vscale(field, mu, corner.unit))
                    proj = corner.mul(proj, vscale(field, field.inv(field.sub(lam, mu)), shifted))
                refined.append(vcombine(field, S.dim, proj, emb))
        centrals = refined
    out = []
    for u in centrals:
        out.extend(_split_simple_corner(S, u, rng))
    return out


def _corner_span(S: Algebra, u: Sequence) -> list:
    return [S.mul(u, S.mul(S.basis_vector(i), u)) for i in range(S.dim)]


def _coords_in_rows(field: Field, rows: list, v: Sequence) -> Optional[tuple]:
    M = Matrix(field, rows, ncols=len(v)).transpose()
    sol = solve_columns(M, Matrix.column(field, v))
    return sol.column_tuple(0) if sol is not None else None


def _split_simple_corner(S: Algebra, u: Sequence, rng: random.Random) -> list:
    """Rank-one idempotents inside the simple corner uSu, in S-coordinates."""
    corner, emb = subalgebra(S, _corner_span(S, u), u, prefix="c")
    if corner.dim == 1:
        return [tuple(u)]
    zcheck = center(corner)
    if zcheck.dim != 1:
        raise VerificationError("corner is not central simple after center splitting")
    x = _find_zero_divisor(corner, rng)
    if x is None:
        raise UnsplitQuotientError(
            "unsplit semisimple quotient: no zero divisor found in a "
            f"simple factor of dimension {corner.dim}"
        )
    f = _idempotent_generator(corner, x)
    g = vsub(corner.field, corner.unit, f)
    out = []
    for idem in (f, g):
        lifted = vcombine(corner.field, S.dim, idem, emb)
        out.extend(_split_simple_corner(S, lifted, rng))
    return out


def _find_zero_divisor(C: Algebra, rng: random.Random) -> Optional[tuple]:
    """A nonzero non-invertible element of C, found via reducible minimal
    polynomials of deterministic candidates, then seeded random combos."""
    field = C.field

    def try_candidate(x):
        if vec_is_zero(x):
            return None
        m = minimal_polynomial(C, x)
        if _poly_deg(m) < 2:
            return None
        fac = _nontrivial_factor(field, m, rng)
        if fac is None:
            return None
        g, _ = fac
        z = _poly_eval_in_algebra(C, g, x)
        if vec_is_zero(z):
            raise VerificationError("factor of minimal polynomial vanished")
        return z

    basis = [C.basis_vector(i) for i in range(C.dim)]
    for x in basis:
        z = try_candidate(x)
        if z is not None:
            return z
    for i in range(C.dim):
        for j in range(i + 1, C.dim):
            for x in (vsub(field, basis[i], basis[j]), vadd(field, basis[i], basis[j]),
                      C.mul(basis[i], basis[j])):
                z = try_candidate(x)
                if z is not None:
                    return z
    for x in random_combinations(field, C.dim, basis, rng, 300, (-2, -1, 0, 1, 2)):
        z = try_candidate(x)
        if z is not None:
            return z
    return None


def random_combinations(field: Field, n: int, basis: Sequence[Sequence],
                        rng: random.Random, count: int, small: Sequence[int],
                        per_entry: bool = False):
    """``count`` random vectors sum_b r_b b in F^n, drawn lazily from ``rng``.

    Each r_b is a scalar drawn from ``small``; with ``per_entry`` it is
    one draw per entry of b, multiplied entrywise, so the result need not
    lie in the span of ``basis``.  Draws follow basis order (and entry
    order within b), which fixes the candidates for a given seed.
    """
    small = [field.coerce(k) for k in small]

    def draw():
        return small[rng.randrange(len(small))]

    for _ in range(count):
        if per_entry:
            yield vcombine(field, n, [field.one] * len(basis),
                           [[draw() * c for c in b] for b in basis])
        else:
            yield vcombine(field, n, [draw() for _ in basis], basis)


def _idempotent_generator(C: Algebra, x: Sequence) -> tuple:
    """Idempotent f with f C = x C inside a semisimple algebra."""
    field = C.field
    space = RowSpace(field, C.dim)
    for i in range(C.dim):
        space.insert(C.mul(x, C.basis_vector(i)))
    ideal = list(space.rows)
    r = len(ideal)
    rows = []
    rhs = []
    for t in range(r):
        for comp in range(C.dim):
            rows.append([C.mul(ideal[s], ideal[t])[comp] for s in range(r)])
            rhs.append(ideal[t][comp])
    sol = solve_columns(Matrix(field, rows, ncols=r), Matrix.column(field, rhs))
    if sol is None:
        raise VerificationError("right ideal admits no idempotent generator")
    f = vcombine(field, C.dim, sol.column_tuple(0), ideal)
    if C.mul(f, f) != f or vec_is_zero(f) or f == C.unit:
        raise VerificationError("idempotent generator construction failed")
    return f


def _lift_idempotents(A: Algebra, quo: QuotientSpace, idems_bar: list) -> list:
    """Lift a complete orthogonal system through the nilpotent radical."""
    field = A.field
    lifted = []
    g = A.unit
    for ebar in idems_bar[:-1]:
        x = quo.lift(ebar)
        x = A.mul(g, A.mul(x, g))
        for _ in range(64):
            if A.mul(x, x) == x:
                break
            x2 = A.mul(x, x)
            x3 = A.mul(x2, x)
            x = vsub(field, vscale(field, field.coerce(3), x2),
                     vscale(field, field.coerce(2), x3))
        else:
            raise VerificationError("idempotent lifting did not converge")
        lifted.append(x)
        g = vsub(field, g, x)
    lifted.append(g)
    return lifted


# -- basic algebra, Goldman element, center restriction ----------------

class BasicAlgebraResult:
    """Output of :func:`basic_algebra`: the corner fAf with its data."""

    def __init__(self, algebra: Algebra, idempotent: tuple, embedding: list,
                 class_representatives: list):
        self.algebra = algebra
        self.idempotent = idempotent
        self.embedding = embedding
        self.class_representatives = class_representatives


def basic_algebra(A: Algebra, seed: int = 0) -> BasicAlgebraResult:
    """The basic algebra fAf, f a sum of one primitive idempotent per
    isomorphism class of indecomposable projectives."""
    from . import modules

    idems = primitive_idempotents(A, seed=seed)
    mods = [modules.principal_right_module(A, e) for e in idems]
    reps = [idems[cls[0]] for cls in modules.isomorphism_classes(mods, seed=seed)]
    f = vcombine(A.field, A.dim, [A.field.one] * len(reps), reps)
    span = [A.mul(f, A.mul(A.basis_vector(i), f)) for i in range(A.dim)]
    B, emb = subalgebra(A, span, f, prefix="b")
    return BasicAlgebraResult(B, f, emb, reps)


def goldman_element(n: int, field: Field):
    """The swap element g = sum_ij e_ij (x) e_ji of M_n(F) (x) M_n(F).

    Returns (tensor_algebra, g); g^2 = 1 and g(r (x) s) = (s (x) r)g are
    verified on all basis pairs before returning.
    """
    if n < 1:
        raise ValueError("n must be positive")
    Mn = matrix_algebra(field, n)
    T = tensor_product(Mn, Mn)
    d = n * n
    g = [field.zero] * (d * d)
    for i in range(n):
        for j in range(n):
            g[(i * n + j) * d + (j * n + i)] = field.one
    g = tuple(g)
    verify.require(verify.goldman(T, d, g))
    return T, g


def find_goldman_element(A: Algebra, seed: int = 0, trials: int = 500):
    """Search A (x) A for an element with g^2 = 1 and the swap law.

    Experimental: the swap condition is linear, the unipotence condition
    quadratic; candidates are drawn from the swap space.  Returns
    (tensor_algebra, g) or (tensor_algebra, None).
    """
    field = A.field
    T = tensor_product(A, A)
    d = A.dim
    # swap law as linear conditions on g: g*(r x s) - (s x r)*g = 0
    swap_space = common_left_kernel([
        T.right_mult_matrix(T.basis_vector(r * d + s))
        - T.left_mult_matrix(T.basis_vector(s * d + r))
        for r in range(d) for s in range(d)
    ])
    randoms = random_combinations(field, T.dim, swap_space, random.Random(seed), trials,
                                  (-1, 1, 0, 2, -2))
    for g in itertools.chain(swap_space, randoms):
        if not vec_is_zero(g) and T.mul(g, g) == T.unit:
            return T, tuple(g)
    return T, None


def restriction_to_center(f: AlgebraMap) -> AlgebraMap:
    """The automorphism induced on Cent(source) by an (anti-)automorphism.

    Errors if the map does not preserve the center setwise.
    """
    if f.source != f.target:
        raise DimensionError("center restriction needs an endo-map")
    A = f.source
    cdata = center(A)
    Z, emb = cdata.as_algebra()
    images = []
    for row in emb:
        img = f.apply(row)
        coords = _coords_in_rows(A.field, emb, img)
        if coords is None:
            raise VerificationError("map does not preserve the center")
        images.append(coords)
    # the restriction of an anti-automorphism to the (commutative) center
    # is a plain automorphism
    return AlgebraMap.from_images(Z, Z, images, AlgebraMap.HOMOMORPHISM)

"""Finite-dimensional associative unital algebras via structure constants.

Conventions: elements are coordinate row tuples in the declared basis;
``e_i e_j = sum_k c[i][j][k] e_k``.  Right-multiplication matrices act on
row vectors, so ``rho(a b) = rho(a) rho(b)``.  Endomorphism-style maps
(:class:`AlgebraMap`) store a (target dim x source dim) matrix applied to
column vectors.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from . import verify
from .errors import (
    DimensionError,
    FieldMismatchError,
    NotSplitError,
    UnsplitQuotientError,
    UnsupportedCharacteristicError,
    VerificationError,
)
from .linalg import (
    Coordinates,
    Field,
    Matrix,
    QuotientSpace,
    RowSpace,
    _is_prime,
    common_left_kernel,
    coordinate_rows,
    invert,
    left_kernel_rows,
    solve_columns,
    unit_vector,
    vadd,
    vcombine,
    vdense,
    vec_is_zero,
    vpairs,
    vscale,
    vsub,
    vzero,
)


class Algebra(verify.Verified):
    """Associative unital algebra given by structure constants.

    ``Algebra(...)`` is where structure constants enter, as a dense table: it stores
    them as sparse rows (:func:`sparse_table`, which coerces each entry once), then
    checks the shapes, the unit law and associativity (on the basis triples that
    start at a generator).  Algebras derived from verified ones are built from sparse
    rows by ``Algebra._trusted`` (no coercion, no checks) and inherit those laws; each
    derived construction checks only what its derivation leaves open.
    """

    def __init__(self, field: Field, basis_names: Sequence[str], table, unit):
        dim = len(basis_names)
        if dim == 0:
            raise DimensionError("algebras must have positive dimension")
        rows = sparse_table(field, table)
        if len(table) != dim or any(
            len(block) != dim or any(len(row) != dim for row in block) for block in table
        ):
            raise DimensionError("structure constant table must be dim x dim x dim")
        unit = field.coerce_row(unit)
        if len(unit) != dim:
            raise DimensionError("unit vector has wrong length")
        self._store(field, basis_names, rows, unit)
        verify.require(verify.associative_unital(self))

    def _store(self, field: Field, basis_names: Sequence[str], rows, unit) -> None:
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        # rows[i][j] holds the (k, c) with c = c[i][j][k] != 0, k increasing
        self._sparse = tuple(rows)
        self.unit = tuple(unit)

    # -- element arithmetic -------------------------------------------

    def basis_vector(self, i: int) -> tuple:
        return unit_vector(self.field, self.dim, i)

    def coerce_element(self, seq) -> tuple:
        v = self.field.coerce_row(seq)
        if len(v) != self.dim:
            raise DimensionError("element vector has wrong length")
        return v

    def mul(self, x: Sequence, y: Sequence) -> tuple:
        out = [0] * self.dim
        sp = self._sparse
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            spi = sp[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = xi * yj
                for k, ck in spi[j]:
                    out[k] += c * ck
        p = self.field.p
        if p is None:
            return tuple(out)
        return tuple(a % p for a in out)

    def product(self, i: int, j: int) -> tuple:
        """e_i e_j as a dense coordinate row."""
        return vdense(self.field, self.dim, self._sparse[i][j])

    def _mul_pairs(self, xs, ys) -> dict:
        """x y as {k: c} with c != 0, for x and y given by (index, entry) pairs
        (``vpairs``), reading only the stored rows e_i e_j of those pairs: the one
        product of the certificates on structure constants (Gustavson, 1978)."""
        sp, p, out = self._sparse, self.field.p, {}
        for i, a in xs:
            spi = sp[i]
            for j, b in ys:
                for k, c in spi[j]:
                    out[k] = out.get(k, 0) + a * b * c
        if p is None:
            return {k: c for k, c in out.items() if c != 0}
        return {k: c % p for k, c in out.items() if c % p}

    @functools.cached_property
    def generators(self) -> tuple:
        """Sorted basis indices whose elements generate the algebra with 1.

        A law that is multiplicative in a holds on all of A once it holds on
        1 and on these.  Chosen greedily: basis elements that occur least in
        the products of the others come first (ties in index order), and an
        element is kept when it lies outside the span of the words in 1 and
        those kept so far.  That span is kept closed under right
        multiplication by the kept elements, and the loop stops when it is
        all of A, so the set certifies itself by the unit law alone: each
        kept e_g = 1 e_g is in the span.  On matrix-unit bases this keeps
        idempotents and arrows: 2n - 2 elements for M_n and UT_n.
        """
        d = self.dim
        hits = [0] * d
        for j, block in enumerate(self._sparse):
            for k, row in enumerate(block):
                for i, _ in row:
                    if i != j and i != k:
                        hits[i] += 1
        space = RowSpace(self.field, d)

        def grown(words, gs):
            # the nonzero words w e_g, in pairs, that leave the span, each added to it
            out = (self._mul_pairs(w, ((g, 1),)) for w in words for g in gs)
            return [w.items() for w in out if w and space.insert(vdense(self.field, d, w.items()))]

        space.insert(self.unit)
        words, chosen = [vpairs(self.unit)], []
        for i in sorted(range(d), key=hits.__getitem__):
            if space.dim == d:
                break
            if space.contains(self.basis_vector(i)):
                continue
            chosen.append(i)
            # old words times the new element, then new words times all
            new = grown(words, [i])
            while new:
                words += new
                new = grown(new, chosen)
        return tuple(sorted(chosen))

    def left_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix L with [x*y] = [y] @ L: row i is x e_i = sum_m x_m e_m e_i."""
        return self._mult_matrix(x, self._sparse.__getitem__)

    def right_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix R with [y*x] = [y] @ R: row i is e_i x = sum_m x_m e_i e_m."""
        return self._mult_matrix(x, lambda m: [block[m] for block in self._sparse])

    def _mult_matrix(self, x: Sequence, block_of) -> Matrix:
        """Row i is sum_m x_m block_of(m)[i] over the m with x_m != 0, where
        block_of(m)[i] holds the stored row of e_m e_i (L) or e_i e_m (R)."""
        d, p, rows = self.dim, self.field.p, []
        terms = [(xm, block_of(m)) for m, xm in enumerate(x) if xm != 0]
        for i in range(d):
            out = [0] * d
            for xm, block in terms:
                for k, c in block[i]:
                    out[k] += xm * c
            rows.append(tuple(out) if p is None else tuple([a % p for a in out]))
        return Matrix._trusted(self.field, tuple(rows), d)

    def corners(self, e: Sequence, fs: Sequence[Sequence]) -> list:
        """For each f in ``fs``, vectors spanning e A f: r f for each row r of the
        echelon basis of e A, built once from the rows of ``left_mult_matrix(e)``."""
        space = RowSpace(self.field, self.dim)
        space.extend(self.left_mult_matrix(e).rows)
        return [[self.mul(r, f) for r in space.rows] for f in fs]

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self._sparse == other._sparse
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.unit))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field})"


class AlgebraMap(verify.Verified):
    """Linear map between algebras tagged as (anti-)homomorphism.

    The matrix is (target dim x source dim) and acts on column vectors.
    ``AlgebraMap(...)`` checks f(1) = 1, then multiplicativity in the declared variance
    on the pairs (e_g, e_j) of a generator and a basis element; :meth:`compose` and
    :meth:`inverse` build by ``AlgebraMap._trusted``.  Both check the variance and shapes.
    """

    HOMOMORPHISM = "homomorphism"
    ANTI = "anti_homomorphism"

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix, variance: str):
        self._store(source, target, matrix, variance)
        self._validate()

    def _store(self, source: Algebra, target: Algebra, matrix: Matrix, variance: str) -> None:
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
        # apply() acts on row vectors: f(x) = x @ matrix^T
        self._transpose = matrix.transpose()

    @staticmethod
    def from_images(source: Algebra, target: Algebra, images: Sequence[Sequence],
                    variance: str) -> "AlgebraMap":
        """Build a map from the list of images of the source basis."""
        cols = [target.coerce_element(v) for v in images]
        return AlgebraMap(source, target,
                          Matrix._trusted(target.field, tuple(zip(*cols)), len(cols)), variance)

    def apply(self, x: Sequence) -> tuple:
        return self._transpose.act_row(x)

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
        return AlgebraMap._trusted(other.source, self.target, self.matrix * other.matrix, variance)

    def inverse(self) -> "AlgebraMap":
        inv = invert(self.matrix)
        if inv is None:
            raise VerificationError("algebra map is not bijective")
        return AlgebraMap._trusted(self.target, self.source, inv, self.variance)

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


# -- constructors ------------------------------------------------------

def sparse_table(field: Field, table) -> tuple:
    """The stored form of a dense table: for each (i, j), the pairs (k, c) with c the
    coerced table[i][j][k] != 0, k increasing; the one dense-to-sparse conversion.
    Each entry is coerced once: a row of plain ints (no bool) in one pass over its
    nonzero entries, any other row entry by entry, so that an inexact or malformed
    scalar is refused wherever it sits, at a zero entry too."""
    p = field.p

    def sparse(row):
        if set(map(type, row)) <= {int}:
            pairs = itertools.compress(enumerate(row), row)
            return tuple(pairs) if p is None else tuple([(k, c % p) for k, c in pairs if c % p])
        return tuple([(k, c) for k, c in enumerate(map(field.coerce, row)) if c != 0])

    return tuple(tuple(map(sparse, block)) for block in table)


def field_algebra(field: Field) -> Algebra:
    """The ground field as a one-dimensional algebra."""
    return matrix_unit_algebra(field, [(0, 0)], ["1"])


def matrix_unit_algebra(field: Field, pairs: Sequence[tuple], names: Sequence[str]) -> Algebra:
    """The span of the matrix units e_ij, (i, j) in ``pairs``, in M_n(F).

    ``pairs`` must be a reflexive and transitive relation: then the span is
    a unital subalgebra of M_n(F) with unit sum_i e_ii, so its laws are
    inherited and not checked again.  Covers M_n, the upper-triangular
    matrices and incidence algebras of posets.
    """
    index = {p: t for t, p in enumerate(pairs)}
    if not pairs or any((i, i) not in index or (j, j) not in index for i, j in pairs):
        raise DimensionError("matrix units need a nonempty reflexive relation")
    if any(j == k and (i, l) not in index for i, j in pairs for k, l in pairs):
        raise DimensionError("matrix units need a transitive relation")
    one = field.one
    rows = [tuple(((index[(i, l)], one),) if j == k else () for k, l in pairs)
            for i, j in pairs]
    unit = [one if i == j else field.zero for i, j in pairs]
    return Algebra._trusted(field, names, rows, unit)


def matrix_algebra(field: Field, n: int) -> Algebra:
    """M_n(F) on the matrix-unit basis e_ij, ordered row-major."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return matrix_unit_algebra(field, pairs, [f"e{i + 1}{j + 1}" for i, j in pairs])


def matrix_algebra_over(A: Algebra, n: int) -> Algebra:
    """M_n(A) = M_n(F) (x) A on the basis e_ij (x) a_t, index (i,j,t) -> (i*n+j)*dim_A + t."""
    return tensor_product(matrix_algebra(A.field, n), A)


def upper_triangular_algebra(field: Field, n: int) -> Algebra:
    """Upper-triangular n x n matrices on the basis {e_ij : i <= j}."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return matrix_unit_algebra(field, pairs, [f"e{i + 1}{j + 1}" for i, j in pairs])


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
    return Algebra._trusted(A.field, A.basis_names, zip(*A._sparse), A.unit)


def direct_product(A: Algebra, B: Algebra) -> Algebra:
    if A.field != B.field:
        raise FieldMismatchError("direct product across different fields")
    da = A.dim
    names = [f"({n},0)" for n in A.basis_names] + [f"(0,{n})" for n in B.basis_names]
    rows = ([block + ((),) * B.dim for block in A._sparse]
            + [((),) * da + tuple(tuple((da + k, c) for k, c in row) for row in block)
               for block in B._sparse])
    return Algebra._trusted(A.field, names, rows, A.unit + B.unit)


def tensor_product(A: Algebra, B: Algebra) -> Algebra:
    """A (x) B over F with lexicographic basis order (i,j) -> i*dim_B + j."""
    if A.field != B.field:
        raise FieldMismatchError("tensor product across different fields")
    field, db = A.field, B.dim
    names = [f"{na}*{nb}" for na in A.basis_names for nb in B.basis_names]
    # block (i, j), row (k, l) holds (m * db + n, c[i][k][m] c[j][l][n]), m * db + n increasing
    rows = [tuple(tuple((m * db + n, field.coerce(cm * cn)) for m, cm in a[k] for n, cn in b[l])
                  for k, l in itertools.product(range(A.dim), range(db)))
            for a, b in itertools.product(A._sparse, B._sparse)]
    unit = [field.mul(a, b) for a in A.unit for b in B.unit]
    # (a (x) b)(a' (x) b') = aa' (x) bb' carries the laws of A and B over
    return Algebra._trusted(field, names, rows, unit)


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
    (unit,) = coordinate_rows(space.coordinates, [unit_vec],
                              "designated unit lies outside the span")
    # product i * d + j is basis[i] basis[j]
    products = coordinate_rows(space.coordinates, (A.mul(x, y) for x in basis for y in basis),
                               "span is not closed under multiplication")
    table = [products[i:i + d] for i in range(0, d * d, d)]
    names = [f"{prefix}{i}" for i in range(d)]
    # closed under the product of A, so associative; the unit is only designated
    B = Algebra._trusted(field, names, sparse_table(field, table), unit)
    verify.require(verify.unital(B))
    return B, basis


def quotient_algebra(A: Algebra, ideal_vectors: Sequence[Sequence]):
    """A modulo the two-sided ideal spanned by ``ideal_vectors``.

    Returns (Algebra, QuotientSpace); the quotient basis is the
    echelon-complement of the ideal.  The span must be a two-sided ideal
    (:func:`verify.ideal`); the quotient then inherits the laws of A.
    """
    verify.require(verify.ideal(A, ideal_vectors))
    return _quotient(A, ideal_vectors)


def _quotient(A: Algebra, ideal_vectors: Sequence[Sequence]):
    """:func:`quotient_algebra` by a span already certified an ideal."""
    field = A.field
    space = RowSpace(field, A.dim)
    space.extend(ideal_vectors)
    quo = QuotientSpace(space)
    if quo.dim == 0:
        raise DimensionError("quotient by the whole algebra")
    lifts = [quo.lift(unit_vector(field, quo.dim, i)) for i in range(quo.dim)]
    table = [[quo.project(A.mul(x, y)) for y in lifts] for x in lifts]
    unit = quo.project(A.unit)
    names = [f"q{i}" for i in range(quo.dim)]
    # the quotient of an algebra by a two-sided ideal inherits its laws
    return Algebra._trusted(field, names, sparse_table(field, table), unit), quo


# -- center, radical, units -------------------------------------------

def twisted_centralizer(A: Algebra, phi) -> list:
    """Basis of {x : x a = phi(a) x for every a in A} for an automorphism phi of
    A, given as a map on coordinate vectors: the left kernel of R(e_g) - L(phi(e_g))
    over the generators.  For each x the a with x a = phi(a) x form a subalgebra
    holding 1, so the generators suffice, and the basis is the same echelon basis
    as for the system over every basis element."""
    if not A.generators:
        # A is spanned by 1
        return [A.basis_vector(0)]
    return common_left_kernel([A.right_mult_matrix(A.basis_vector(g))
                               - A.left_mult_matrix(phi(A.basis_vector(g))) for g in A.generators])


def center(A: Algebra) -> CenterData:
    """The center of A: its twisted centralizer for phi = id."""
    return CenterData(A, twisted_centralizer(A, lambda a: a))


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
    traces = _left_traces(A)
    # gram[i][j] = tr L(e_i e_j) = sum_m c[i][j][m] tr L(e_m)
    gram = [tuple(field.coerce(sum(c * traces[m] for m, c in row)) for row in block)
            for block in A._sparse]
    basis = left_kernel_rows(Matrix._trusted(field, tuple(gram), A.dim))
    verify.require(verify.nilpotent_ideal(A, basis))
    return basis


def _left_traces(A: Algebra) -> list:
    """tr L(e_m) = sum_i c[m][i][i] for every basis index m, off the stored rows."""
    return [A.field.coerce(sum(c for i, row in enumerate(block) for k, c in row if k == i))
            for block in A._sparse]


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


def _poly_sub(field: Field, f: list, g: list) -> list:
    pairs = itertools.zip_longest(f, g, fillvalue=field.zero)
    return _poly_trim([field.sub(a, b) for a, b in pairs])


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
    den = math.lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    while ints and ints[0] == 0:
        ints = ints[1:]
    roots = set()
    if len(ints) < len(f):
        roots.add(Fraction(0))
    if not ints:
        return sorted(roots)
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for s in (p, -p) if math.gcd(p, q) == 1 else ():
                # sum_i ints[i] s^i q^(n-i), n = len(ints) - 1, is 0 iff s/q is a root
                acc, qk = 0, 1
                for c in reversed(ints):
                    acc, qk = acc * s + c * qk, qk * q
                if acc == 0:
                    roots.add(Fraction(s, q))
    return sorted(roots)


def _divisors(n: int) -> list:
    """Positive divisors of |n| (of 1 when n = 0), sorted, built from the
    factorisation ``_factor`` finds.  A cofactor it cannot split raises
    UnsplitQuotientError (exit 3), where trial division up to sqrt(n) ran
    for hours."""
    out = [1]
    for p, e in _factor(abs(n) or 1).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def _poly_roots(field: Field, f: list) -> list:
    """Distinct roots of a nonzero f in the ground field, sorted.

    Over GF(p) the roots are those of g = gcd(f, x^p - x), and g is split
    into linear factors by gcd(h, (x + a)^((p-1)/2) - 1) for the shifts
    a = 0, 1, 2, ... (Rabin 1980; Cantor & Zassenhaus 1981).  The shifts
    are deterministic, so no randomness is drawn: O(deg^2 log p) field
    operations instead of p evaluations.
    """
    if field.p is None:
        return _rational_roots(f)
    if field.p == 2:
        return [x for x, fx in ((0, f[0]), (1, sum(f) % 2)) if fx == 0]
    t = [field.zero, field.one]
    g = _poly_gcd(field, f, _poly_sub(field, _poly_powmod(field, t, field.p, f), t))
    return sorted(_split_linear(field, g, 0))


def _split_linear(field: Field, h: list, a: int) -> list:
    """Roots of a monic h that is a product of distinct linear factors.

    Two distinct roots r, s have different quadratic characters at
    r + a and s + a for some a in GF(p), and the shifts a, a + 1, ... run
    through all of GF(p), so the loop ends.
    """
    e = (field.p - 1) // 2
    while _poly_deg(h) > 1:
        s = _poly_powmod(field, [field.coerce(a), field.one], e, h)
        d = _poly_gcd(field, h, _poly_sub(field, s, [field.one]))
        a += 1
        if 0 < _poly_deg(d) < _poly_deg(h):
            q, _ = _poly_divmod(field, h, d)
            return _split_linear(field, d, a) + _split_linear(field, q, a)
    return [field.neg(h[0])] if _poly_deg(h) == 1 else []


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
            coeffs = Coordinates(field, powers, A.dim).of(cur)
            return [field.neg(c) for c in coeffs] + [field.one]
        space.insert(cur)
        powers.append(cur)
        if len(powers) > A.dim + 1:
            raise VerificationError("minimal polynomial search did not terminate")


def _nontrivial_factor(field: Field, f: list, rng: random.Random) -> Optional[tuple]:
    """A factorization f = g*h with both factors nonconstant, or None.

    Over the rationals only square-free splitting and rational roots are
    attempted; over prime fields distinct-degree and (for odd p)
    equal-degree splitting are used as well.  A linear factor, when f
    has a root, is x - (least root) and draws nothing from ``rng``.
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
    # distinct-degree phase; f has no linear factor, so it starts at 2
    t = [field.zero, field.one]
    for dd in range(2, deg // 2 + 1):
        xp = _poly_powmod(field, t, p ** dd, f)
        diff = _poly_sub(field, xp, t)
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
        h = _poly_sub(field, h, [field.one])
        if not h:
            continue
        g = _poly_gcd(field, f, h)
        if 0 < _poly_deg(g) < deg:
            return g
    return None


# -- idempotents -------------------------------------------------------

def idempotent_classes(A: Algebra, seed: int = 0) -> list:
    """Primitive idempotents of A, one list per simple block of A/J.

    Splits A/J (:func:`_split_semisimple`), J certified once by
    :func:`jacobson_radical`, then lifts modulo J with e -> 3e^2 - 2e^3.
    A projective is determined by its top, so eA and fA are isomorphic
    exactly when e and f lie in one block.  Requires A/J to be split over
    the ground field.  Certified complete, orthogonal and primitive, and
    the grouping by :func:`verify.same_block`.
    """
    J = jacobson_radical(A)
    if J and A.field.characteristic in (2, 3):
        raise UnsupportedCharacteristicError(
            "idempotent lifting needs char not in {2,3} when the radical is nonzero"
        )
    # jacobson_radical certified J a (nilpotent) ideal
    Abar, quo = _quotient(A, J) if J else (A, None)
    blocks = _split_semisimple(Abar, random.Random(seed))
    verify.require(verify.same_block(Abar, blocks))
    idems = images = [e for block in blocks for e in block]
    if J:
        idems = _lift_idempotents(A, quo, images)
        images = [quo.project(e) for e in idems]
    verify.require(verify.complete_orthogonal(A, idems))
    verify.require(verify.primitive(Abar, images))
    # the kernels may carry an integral rational as Fraction(k, 1)
    it = iter(idems)
    return [[A.coerce_element(next(it)) for _ in block] for block in blocks]


def primitive_idempotents(A: Algebra, seed: int = 0) -> list:
    """A complete orthogonal set of primitive idempotents summing to 1: the
    blocks of :func:`idempotent_classes` one after the other."""
    return [e for cls in idempotent_classes(A, seed=seed) for e in cls]


def _split_semisimple(S: Algebra, rng: random.Random) -> list:
    """Primitive idempotents of a split semisimple algebra S.

    Central primitive idempotents are spectral projectors of the center
    (Friedl & Ronyai, STOC 1985): the minimal polynomial m of a central z
    is square-free, and when it has deg m roots lam, the idempotents u so
    far are refined to the nonzero u P_lam, P_lam = prod_{mu != lam}
    (z - mu) / (lam - mu) (u-major, lam sorted); fewer roots mean S is not
    split.  Each simple uS is then split by :func:`_split_simple_corner`:
    one list of idempotents per central primitive idempotent u.
    """
    field = S.field
    centrals = [S.unit]
    for z in center(S).basis:
        m = minimal_polynomial(S, z)
        if _poly_deg(m) == 1:
            continue
        if _poly_deg(_poly_gcd(field, m, _poly_deriv(field, m))) > 0:
            raise VerificationError("center element not semisimple in quotient")
        roots = _poly_roots(field, m)
        if len(roots) < _poly_deg(m):
            raise NotSplitError(
                "unsplit semisimple quotient: center minimal polynomial "
                "has an irreducible factor of degree >= 2"
            )
        projectors = []
        for lam in roots:
            proj = S.unit
            for mu in roots:
                if mu != lam:
                    shifted = vsub(field, z, vscale(field, mu, S.unit))
                    proj = S.mul(proj, vscale(field, field.inv(field.sub(lam, mu)), shifted))
            projectors.append(proj)
        centrals = [w for u in centrals for w in (S.mul(u, P) for P in projectors)
                    if not vec_is_zero(w)]
    return [_split_simple_corner(S, u, rng) for u in centrals]


def _split_simple_corner(S: Algebra, u: Sequence, rng: random.Random) -> list:
    """Rank-one idempotents inside the simple corner uSu, in S-coordinates
    (certified primitive by :func:`idempotent_classes`)."""
    corner, emb = subalgebra(S, S.corners(u, [u])[0], u, prefix="c")
    if corner.dim == 1:
        return [tuple(u)]
    x = _find_zero_divisor(corner, rng)
    if x is None:
        raise UnsplitQuotientError(
            "no zero divisor found among the candidates tried in a simple factor "
            f"of dimension {corner.dim}; it may still be split, so this is inconclusive"
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
    polynomials of deterministic candidates, then seeded random combos;
    over Q a 4-dimensional C that defeats them is decided by
    ``_quaternion_zero_divisor``."""
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
    if field.p is None and C.dim == 4:
        return _quaternion_zero_divisor(C)
    return None


def _quaternion_zero_divisor(C: Algebra) -> tuple:
    """A zero divisor of a 4-dimensional central simple C over Q.

    On the trace-zero part C_0 (tr L_x = 0), x^2 is a scalar q(x).  For
    v1, v2 in C_0 with v1 v2 = -v2 v1 and q(v1) = a, q(v2) = b != 0, C is
    the quaternion algebra (a, b), and z + x v1 + y v2 is a zero divisor
    when z^2 = a x^2 + b y^2 (its product with z - x v1 - y v2 is 0).  Of
    the six ordered pairs of basis vectors of C_0 (made orthogonal) the one
    whose a and b have the smallest product of numerators and denominators
    is used, since ``_squarefree`` and ``_legendre`` factor them.
    Raises NotSplitError when that equation has no solution, so C is a
    division algebra, and UnsplitQuotientError when ``_factor`` gives up
    (inconclusive).
    """
    field = C.field
    traces = _left_traces(C)
    k = next(i for i, t in enumerate(traces) if t)
    u = next(j for j, c in enumerate(C.unit) if c)

    def q(x):
        return Fraction(C.mul(x, x)[u]) / C.unit[u]

    zero = [vsub(field, C.basis_vector(i),
                 vscale(field, Fraction(traces[i]) / traces[k], C.basis_vector(k)))
            for i in range(4) if i != k]
    pairs = []
    for v1, w in itertools.permutations(zero, 2):
        a = q(v1)
        if a == 0:
            return C.coerce_element(v1)
        # v2 = w - (b(v1, w) / a) v1, where 2 b(v1, w) = q(v1 + w) - a - q(w)
        v2 = vsub(field, w, vscale(field, (q(vadd(field, v1, w)) - a - q(w)) / (2 * a), v1))
        b = q(v2)
        if b == 0:
            return C.coerce_element(v2)
        size = abs(a.numerator * a.denominator * b.numerator * b.denominator)
        pairs.append((size, a, b, v1, v2))
    _, a, b, v1, v2 = min(pairs, key=lambda t: t[0])
    (a, r), (b, s) = _squarefree(a), _squarefree(b)
    sol = _legendre(a, b)
    if sol is None:
        raise NotSplitError(
            f"a simple factor of dimension 4 is the division algebra ({a}, {b}) over Q: "
            f"{a} x^2 + {b} y^2 = z^2 has no nonzero rational solution")
    x, y, z = sol
    return C.coerce_element(vcombine(field, 4, [z, x / r, y / s], [C.unit, v1, v2]))


def _factor(n: int) -> dict:
    """Prime factorisation {p: e} of n >= 1.

    Trial division by d < 1000, then Pollard's rho (Floyd's cycle on
    x^2 + c, c = 1..8, at most 2^16 steps each) on the cofactors that
    ``_is_prime`` rejects.  When rho fails, or a cofactor is past the
    primality bound, it raises UnsplitQuotientError (inconclusive).
    """
    out, rest = {}, []
    for d in range(2, 1000):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        rest.append(n)
    while rest:
        n = rest.pop()
        try:
            if _is_prime(n):
                out[n] = out.get(n, 0) + 1
                continue
        except ValueError:
            pass
        for c in range(1, 9):
            x = y = d = 2
            for _ in range(1 << 16):
                x, y = (x * x + c) % n, (y * y + c) % n
                y = (y * y + c) % n
                d = math.gcd(x - y, n)
                if d > 1:
                    break
            if 1 < d < n:
                break
        else:
            raise UnsplitQuotientError(
                f"could not factor {n} into primes, so this is inconclusive")
        rest += [d, n // d]
    return out


def _squarefree(c: Fraction) -> tuple:
    """(a, r) with c = a r^2, a a square-free integer and r rational."""
    n = c.numerator * c.denominator
    a, r = (1 if n > 0 else -1), Fraction(1, c.denominator)
    for p, e in _factor(abs(n)).items():
        a *= p ** (e % 2)
        r *= p ** (e // 2)
    return a, r


def _legendre(a: int, b: int) -> Optional[tuple]:
    """Integers (x, y, z) != 0 with a x^2 + b y^2 = z^2, or None if there
    are none; a and b are square-free.

    Lagrange's descent: with |a| <= |b|, a primitive solution makes a a
    square mod |b|, say t^2 with |t| <= |b| / 2; then t^2 - a = b c m^2 with
    c square-free and |c| < |b|, and a solution (X, Y, Z) of
    a X^2 + c Y^2 = Z^2 gives (t X + Z, c m Y, t Z + a X), because
    z^2 - a x^2 is the norm of z + x sqrt(a) and norms are multiplicative.
    """
    if a == 1:
        return (1, 0, 1)
    if b == 1:
        return (0, 1, 1)
    if a < 0 and b < 0:
        return None
    if abs(a) > abs(b):
        sol = _legendre(b, a)
        return sol and (sol[1], sol[0], sol[2])
    t, mod = 0, 1
    for p in _factor(abs(b)):
        roots = _poly_roots(Field(p), [-a % p, 0, 1])
        if not roots:
            return None
        t += mod * ((roots[0] - t) * pow(mod, -1, p) % p)
        mod *= p
    if 2 * t > mod:
        t -= mod
    c, m = _squarefree(Fraction(t * t - a, b))
    sol = _legendre(a, c)
    if sol is None:
        return None
    X, Y, Z = sol
    return (t * X + Z, c * m * Y, t * Z + a * X)


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
    # row (t, comp) holds (ideal[s] ideal[t])[comp] over s; the right side is ideal[t][comp]
    rows = []
    for t in ideal:
        rows.extend(zip(*[C.mul(s, t) for s in ideal]))
    rhs = [x for t in ideal for x in t]
    sol = solve_columns(Matrix._trusted(field, tuple(rows), r), Matrix.column(field, rhs))
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
    reps = [cls[0] for cls in idempotent_classes(A, seed=seed)]
    f = vcombine(A.field, A.dim, [A.field.one] * len(reps), reps)
    B, emb = subalgebra(A, A.corners(f, [f])[0], f, prefix="b")
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


def restriction_to_center(f: AlgebraMap) -> AlgebraMap:
    """The automorphism induced on Cent(source) by an (anti-)automorphism.

    Errors if the map does not preserve the center setwise.
    """
    if f.source != f.target:
        raise DimensionError("center restriction needs an endo-map")
    A = f.source
    cdata = center(A)
    Z, emb = cdata.as_algebra()
    images = coordinate_rows(Coordinates(A.field, emb, A.dim).of, map(f.apply, emb),
                             "map does not preserve the center")
    # the restriction of an anti-automorphism to the (commutative) center
    # is a plain automorphism
    return AlgebraMap.from_images(Z, Z, images, AlgebraMap.HOMOMORPHISM)

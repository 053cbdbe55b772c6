"""Constructive involution machinery: hyperbolic involutions, the 2x2
anti-structure involution, reduction of matrix-ring anti-automorphisms to
standard form, involution transfer M_n(A) -> A, and duality orbits.

Every map returned here is verified against its defining equations
(anti-multiplicativity, squaring to the identity, type on the center) or
inherits them from verified objects; failures raise VerificationError.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from . import verify
from .algebras import (
    Algebra,
    AlgebraMap,
    center,
    is_unit,
    matrix_algebra_over,
    random_combinations,
    restriction_to_center,
    twisted_centralizer,
)
from .errors import (
    DimensionError,
    NoSymmetricUnitError,
    VerificationError,
)
from .linalg import (
    Matrix,
    coordinate_rows,
    invert,
    kronecker,
    unit_vector,
    unvec,
    vadd,
    vcombine,
    vsub,
    vzero,
)
from .modules import (
    HomSpace,
    Module,
    direct_sum,
    free_module,
    is_generator,
    is_projective,
    is_isomorphic,
    projective_classes,
    regular_module,
    submodule,
)
from .forms import (
    BilinearForm,
    DoubleModule,
    DoubleModuleInvolution,
    EndData,
    corresponding_anti_automorphism,
    dual_module,
    form_from_adjoint,
    form_from_anti_automorphism,
    is_double_progenerator,
    type_of,
)


class AntiStructure:
    """(gamma, v) with v invertible, gamma(v) = v^-1 and gamma^2 = conj by v."""

    def __init__(self, algebra: Algebra, gamma: AlgebraMap, v: Sequence):
        self.algebra = algebra
        self.gamma = gamma
        self.v = algebra.coerce_element(v)
        if gamma.source != algebra or gamma.target != algebra:
            raise DimensionError("gamma must be an endo-map of the algebra")
        verify.require(verify.anti_structure(algebra, gamma, self.v))


class ThetaPair:
    """(gamma, theta) with theta^2 = id and (gamma(a) b c)^theta = gamma(c) theta(b) a."""

    def __init__(self, algebra: Algebra, gamma: AlgebraMap, theta: Matrix):
        self.algebra = algebra
        self.gamma = gamma
        self.theta = theta
        if theta.nrows != algebra.dim or theta.ncols != algebra.dim:
            raise DimensionError("theta matrix has wrong shape")
        verify.require(verify.squares_to_identity(theta)
                       or verify.theta_relation(algebra, gamma, theta))

    def apply(self, x: Sequence) -> tuple:
        return self.theta.act_row(x)

    def anti_structure(self) -> AntiStructure:
        """The equivalent (gamma, v) datum, v = theta(1)."""
        return AntiStructure(self.algebra, self.gamma, self.apply(self.algebra.unit))


def check_type_on_center(alpha: AlgebraMap, end: EndData, sigma: AlgebraMap) -> None:
    """Assert alpha(rho(z)) = rho(sigma(z)) on the basis of the center Z of A, for sigma an
    automorphism of ``center(A).as_algebra()`` (:func:`forms.type_of`); rho embeds Z into
    End(M) through the center's embedding rows, as central elements act A-linearly."""
    M = end.module
    _, emb = center(M.algebra).as_algebra()
    embs = coordinate_rows(end.coords_of, map(M.action_of, emb),
                           "center does not embed into the endomorphisms")
    field, n = M.algebra.field, end.algebra.dim
    # rho(sigma(z_j)) = sum_k sigma(z_j)_k rho(z_k), column j of sigma's matrix
    if any(alpha.apply(e) != vcombine(field, n, sigma.matrix.column_tuple(j), embs)
           for j, e in enumerate(embs)):
        raise VerificationError("constructed map has the wrong type on the center")


class HyperbolicResult:
    def __init__(self, algebra, involution, module, form, end, values, theta):
        self.algebra = algebra
        self.involution = involution
        self.module = module
        self.form = form
        self.end = end
        self.values = values
        self.theta = theta


def hyperbolic_involution(K: DoubleModule, theta: DoubleModuleInvolution,
                          P: Module) -> HyperbolicResult:
    """End(P + P^[1]) with the involution of the theta-symmetric form
    b(x+f, y+g) = g(x) + theta(f(y)).

    The form is built by ``BilinearForm._trusted``: it is balanced because the basis
    of H1 lies in Hom_A(P, K_0), P^[1] acts by f -> f action1(a), and theta swaps the
    two actions of K, so g(x a) = g(x) .0 a, (g a)(x) = g(x) .1 a and
    theta(f(y) .i a) = theta(f(y)) .(1-i) a."""
    A = K.algebra
    field = A.field
    if theta.double_module != K:
        raise DimensionError("theta does not belong to K")
    if not is_double_progenerator(K):
        raise VerificationError("values module is not a double progenerator")
    if not (is_projective(P) and is_generator(P)):
        raise VerificationError("P must be a f.g. projective generator")
    D1, H1 = dual_module(P, K, 1)
    M = direct_sum([P, D1])
    p, q = P.dim, H1.dim
    zero = vzero(field, K.dim)
    # b(e_i, g) = g(e_i) and b(f, e_j) = theta(f(e_j))
    tensor = ([[zero] * p + [g.rows[i] for g in H1.basis] for i in range(p)]
              + [list((f * theta.matrix).rows) + [zero] * q for f in H1.basis])
    b = BilinearForm._trusted(M, K, tensor)
    if verify.theta_symmetric(b, theta) is not None:
        raise VerificationError("hyperbolic form is not theta-symmetric")
    # corresponding_anti_automorphism checks that b is regular on both sides
    alpha, end = corresponding_anti_automorphism(b)
    if not alpha.is_involution():
        raise VerificationError("hyperbolic construction did not yield an involution")
    check_type_on_center(alpha, end, type_of(K))
    return HyperbolicResult(end.algebra, alpha, M, b, end, K, theta)


def anti_structure_m2_involution(s: AntiStructure) -> AlgebraMap:
    """The involution [[a,b],[c,d]] -> [[gamma(d), gamma(b)v],
    [v^-1 gamma(c), gamma^-1(a)]] of M_2(A)."""
    A = s.algebra
    field = A.field
    W = matrix_algebra_over(A, 2)
    d = A.dim
    vinv = is_unit(A, s.v)
    gamma_inv = s.gamma.inverse()

    def slot(i, j, vec):
        out = [field.zero] * W.dim
        base = (i * 2 + j) * d
        for t, c in enumerate(vec):
            out[base + t] = c
        return tuple(out)

    images = []
    for i in range(2):
        for j in range(2):
            for t in range(d):
                e = A.basis_vector(t)
                if (i, j) == (0, 0):
                    images.append(slot(1, 1, gamma_inv.apply(e)))
                elif (i, j) == (0, 1):
                    images.append(slot(0, 1, A.mul(s.gamma.apply(e), s.v)))
                elif (i, j) == (1, 0):
                    images.append(slot(1, 0, A.mul(vinv, s.gamma.apply(e))))
                else:
                    images.append(slot(0, 0, s.gamma.apply(e)))
    alpha = AlgebraMap.from_images(W, W, images, AlgebraMap.ANTI)
    if not alpha.is_involution():
        raise VerificationError("anti-structure construction is not an involution")
    return alpha


def transpose_gamma(gamma: AlgebraMap, n: int) -> AlgebraMap:
    """Entrywise-gamma transpose (r_ij) -> (gamma(r_ji)) on M_n(A)."""
    A = gamma.source
    if gamma.target != A:
        raise DimensionError("gamma must be an endo-map")
    if gamma.variance != AlgebraMap.ANTI or not gamma.is_bijective():
        raise VerificationError("gamma must be an anti-automorphism")
    W = matrix_algebra_over(A, n)
    # M_n(A) = M_n(F) (x) A, and S swaps e_ij and e_ji; the result is coerced
    # because over Q a Kronecker product may hold Fraction(k, 1) entries
    S = Matrix._trusted(A.field, tuple(unit_vector(A.field, n * n, j * n + i)
                                       for i in range(n) for j in range(n)), n * n)
    return AlgebraMap(W, W, Matrix(A.field, kronecker(S, gamma.matrix).rows), AlgebraMap.ANTI)


def matrix_ring_end_data(A: Algebra, n: int):
    """Identify M_n(A) with End_A(A^n): the matrix w acts by left
    multiplication on rows of length n.  Built by ``EndData._trusted``: the maps
    E_ji (x) L(a_t) commute with the blockwise R(b) (associativity), are independent
    as Kronecker products of bases, and satisfy mat(v) mat(w) = mat(w v) by the
    matrix-unit products and L(b) L(a) = L(a b) on row vectors."""
    W = matrix_algebra_over(A, n)
    field = A.field
    # e_ij (x) a_t sends the basis vector (j, s) to (i, a_t e_s): E_ji (x) L(a_t),
    # coerced as in transpose_gamma
    maps = [Matrix(field, kronecker(unvec(field, unit_vector(field, n * n, j * n + i), n, n),
                                    A.left_mult_matrix(A.basis_vector(t))).rows)
            for i in range(n) for j in range(n) for t in range(A.dim)]
    free = free_module(A, n)
    return EndData._trusted(W, HomSpace(free, free, maps))


class ReduceResult:
    def __init__(self, gamma, theta_pair, values, psi, form, end, certificate):
        self.gamma = gamma
        self.theta_pair = theta_pair
        self.values = values
        self.psi = psi
        self.form = form
        self.end = end
        self.certificate = certificate


def reduce_to_standard(alpha: AlgebraMap, A: Algebra, n: int,
                       seed: int = 0) -> ReduceResult:
    """Reduce an anti-automorphism of M_n(A) to an anti-automorphism of A.

    Realizes alpha by a form on A^n, identifies the values module with the
    standard double module of some gamma, and (when alpha is an
    involution) transports its involution to a ThetaPair on A.
    """
    W = matrix_algebra_over(A, n)
    if alpha.source != W or alpha.target != W:
        raise DimensionError("alpha must be defined on M_n(A)")
    end = matrix_ring_end_data(A, n)
    res = form_from_anti_automorphism(alpha, end)
    K = res.values
    reg = regular_module(A)
    psi = is_isomorphic(K.module(1), reg, seed=seed)
    if psi is None:
        raise VerificationError(
            "values module is not isomorphic to the regular module; "
            "the uniqueness hypothesis must have failed"
        )
    psi_inv = invert(psi)
    checks = []
    # transported action1 is literally right multiplication: psi intertwines
    verify.require(verify.intertwines(A, K.action1, reg.action, psi))
    checks.append("action1 is right multiplication")
    # gamma(e_t) = 1 psi^-1 action0(e_t) psi, the image of 1 under the transported action0
    one = psi_inv.act_row(A.unit)
    gamma = AlgebraMap.from_images(A, A, [psi.act_row(m0.act_row(one)) for m0 in K.action0],
                                   AlgebraMap.ANTI)
    if not gamma.is_bijective():
        raise VerificationError("recovered map is not bijective")
    # action0(e_t) psi = psi L(gamma(e_t)): both sides are right actions of A (gamma is
    # anti), so the a where the law holds form a subalgebra holding 1; the generators suffice
    lefts = [A.left_mult_matrix(gamma.apply(A.basis_vector(t))) for t in range(A.dim)]
    verify.require(verify.intertwines(A, K.action0, lefts, psi))
    checks.append("action0 is left multiplication through gamma")
    theta_pair = None
    if res.involution is not None:
        T = psi_inv * res.involution.matrix * psi
        theta_pair = ThetaPair(A, gamma, T)
        checks.append("theta relation verified on all basis triples")
    certificate = {"values_dim": K.dim, "checks": checks}
    return ReduceResult(gamma, theta_pair, K, psi, res.form, end, certificate)


class TransferResult:
    def __init__(self, beta, gamma, theta_pair, u, sign, trials):
        self.beta = beta
        self.gamma = gamma
        self.theta_pair = theta_pair
        self.u = u
        self.sign = sign
        self.trials = trials


TRANSFER_TRIALS = 500


def transfer_involution(alpha: AlgebraMap, A: Algebra, n: int,
                        seed: int = 0) -> TransferResult:
    """From an involution of M_n(A) to an involution of A.

    Searches for a unit of the form x + theta(x), then x - theta(x), over the
    basis, 1 and TRANSFER_TRIALS random x; on success beta(r) = u^-1 gamma(r) u.
    Exhaustion raises NoSymmetricUnitError (with the exhaustive flag for tiny
    fields), which can only happen outside the split/odd-characteristic cases
    covered by the transfer theorem.
    """
    if not alpha.is_involution():
        raise VerificationError("transfer needs an involution")
    red = reduce_to_standard(alpha, A, n, seed=seed)
    if red.theta_pair is None:
        raise VerificationError("no involution datum available on the values module")
    gamma = red.gamma
    theta = red.theta_pair
    field = A.field
    rng = random.Random(seed)

    basis = [A.basis_vector(i) for i in range(A.dim)]

    def candidates():
        yield from basis
        yield A.unit
        yield from random_combinations(field, A.dim, basis, rng, TRANSFER_TRIALS,
                                       (-2, -1, 1, 2, 3, -3), per_entry=True)

    exhaustive = field.p is not None and field.p ** A.dim <= 10 ** 6
    trials = 0
    for sign in (1, -1):
        seen = candidates()
        if exhaustive:
            seen = itertools.chain(
                seen,
                (tuple(field.coerce(c) for c in combo)
                 for combo in itertools.product(range(field.p), repeat=A.dim)),
            )
        for x in seen:
            trials += 1
            tx = theta.apply(x)
            u = vadd(field, x, tx) if sign == 1 else vsub(field, x, tx)
            uinv = is_unit(A, u)
            if uinv is None:
                continue
            images = [A.mul(uinv, A.mul(gamma.apply(A.basis_vector(t)), u))
                      for t in range(A.dim)]
            beta = AlgebraMap.from_images(A, A, images, AlgebraMap.ANTI)
            if not beta.is_involution():
                raise VerificationError("transferred map fails to be an involution")
            if restriction_to_center(beta) != restriction_to_center(gamma):
                raise VerificationError("transferred map has the wrong type")
            return TransferResult(beta, gamma, theta, u, sign, trials)
    raise NoSymmetricUnitError(
        "no symmetric unit found; the transfer hypotheses "
        "(non-field factors, even sizes, or invertible 2) must fail",
        exhaustive=exhaustive,
    )


def find_anti_structure(A: Algebra, gamma: AlgebraMap, seed: int = 0,
                        trials: int = 200) -> Optional[AntiStructure]:
    """Search for v making (gamma, v) an anti-structure.

    The condition gamma^2 = conjugation-by-v is linear in v.  The basis of
    its solution space, then seeded random candidates, are filtered by
    the anti-structure equations; the random draws are made per entry, so
    they need not lie in the space and the whole check is run on each.
    Returns None when no candidate works; the None is certified when the
    linear space is zero (then gamma^2 is not inner and no v can exist).
    """
    space = twisted_centralizer(A, gamma.compose(gamma).apply)
    if not space:
        return None
    randoms = random_combinations(A.field, A.dim, space, random.Random(seed), trials,
                                  (-2, -1, 1, 2), per_entry=True)
    for v in itertools.chain(space, randoms):
        if verify.anti_structure(A, gamma, v) is None:
            return AntiStructure(A, gamma, v)
    return None


class OrbitResult:
    def __init__(self, representatives, multiplicities, permutation, n):
        self.representatives = representatives
        self.multiplicities = multiplicities
        self.permutation = permutation
        self.n = n


def duality_orbit(A: Algebra, K: DoubleModule, seed: int = 0) -> OrbitResult:
    """The action of the duality functor [1] on the isomorphism classes of
    indecomposable projectives, and the minimal n with R^([1]^n) = R.

    A dual D matches the class of e A when dim D = dim e A and some row x of
    rho_D(e) generates D: then r -> x r maps e A onto D, so bijectively.  If
    D is isomorphic to e A, the rows span D e, not inside D J as e does not kill
    the top of e A, and a row outside D J generates the local D (Nakayama): the
    search cannot miss, and as the classes are distinct it finds the class of D.
    """
    classes = projective_classes(A, seed=seed)
    reps = [P for _, P, _ in classes]
    mults = [count for _, _, count in classes]
    perm = []
    for r in reps:
        D, _ = dual_module(r, K, 1)
        matches = (idx for idx, (e, P, _) in enumerate(classes) if P.dim == D.dim
                   and any(submodule(D, [x])[0].dim == D.dim for x in D.action_of(e).rows))
        target = next(matches, None)
        if target is None:
            raise VerificationError("dual of an indecomposable projective matches no class")
        perm.append(target)
    if sorted(perm) != list(range(len(reps))):
        raise VerificationError("duality does not permute the classes")
    # R^([1]^n) has multiplicity mults[perm^-n(j)] at class j; n ends by the order of perm
    n, power = 1, perm
    while any(mults[power[i]] != mults[i] for i in range(len(reps))):
        n, power = n + 1, [perm[i] for i in power]
    return OrbitResult(reps, mults, perm, n)


class OrbitAntiResult:
    def __init__(self, algebra, anti_automorphism, module, form, end):
        self.algebra = algebra
        self.anti_automorphism = anti_automorphism
        self.module = module
        self.form = form
        self.end = end


def anti_automorphism_from_orbit(A: Algebra, K: DoubleModule, n: int,
                                 seed: int = 0) -> OrbitAntiResult:
    """End(M) for M = R + R^[1] + ... + R^([1]^(n-1)), with the
    anti-automorphism of the regular form b(x,y) = (f y)(x)."""
    mods = []
    cur = regular_module(A)
    for _ in range(n):
        mods.append(cur)
        cur, _ = dual_module(cur, K, 1)
    M = mods[0] if n == 1 else direct_sum(mods)
    D1, H1 = dual_module(M, K, 1)
    f = is_isomorphic(M, D1, seed=seed)
    if f is None:
        raise VerificationError("M is not isomorphic to its dual; wrong n?")
    b = form_from_adjoint(M, K, H1, f)
    alpha, end = corresponding_anti_automorphism(b)
    check_type_on_center(alpha, end, type_of(K))
    return OrbitAntiResult(end.algebra, alpha, M, b, end)

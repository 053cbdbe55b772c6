"""Constructive involution machinery: hyperbolic involutions, the 2x2
anti-structure involution, reduction of matrix-ring anti-automorphisms to
standard form, involution transfer M_n(A) -> A, and duality orbits.

Every map returned here is re-verified against its defining equations
(anti-multiplicativity, squaring to the identity, type on the center)
before being handed back; failures raise VerificationError.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from . import verify
from .algebras import (
    Algebra,
    AlgebraMap,
    is_unit,
    matrix_algebra_over,
    random_combinations,
    restriction_to_center,
)
from .errors import (
    DimensionError,
    InconclusiveError,
    NoSymmetricUnitError,
    VerificationError,
)
from .linalg import Matrix, common_left_kernel, invert, unit_vector, vadd, vsub, vzero
from .modules import (
    Module,
    direct_sum,
    free_module,
    decompose,
    is_generator,
    is_projective,
    is_isomorphic,
    isomorphism_classes,
    regular_module,
)
from .forms import (
    BilinearForm,
    DoubleModule,
    DoubleModuleInvolution,
    EndData,
    TypeTag,
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


def check_type_on_center(alpha: AlgebraMap, end: EndData, tag: TypeTag) -> None:
    """Assert alpha(rho(z)) = rho(sigma(z)) for all central z, where rho
    embeds the center of the base algebra into End(M)."""
    M = end.module
    for z, img in zip(tag.center.basis, tag.images):
        emb = end.coords_of(M.action_of(z))
        emb_img = end.coords_of(M.action_of(img))
        if emb is None or emb_img is None:
            raise VerificationError("center does not embed into the endomorphisms")
        if alpha.apply(emb) != emb_img:
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
    b(x+f, y+g) = g(x) + theta(f(y))."""
    A = K.algebra
    field = A.field
    if theta.double_module is not K:
        # allow equal-by-value double modules
        if not (theta.double_module.algebra == K.algebra
                and theta.double_module.action0 == K.action0
                and theta.double_module.action1 == K.action1):
            raise DimensionError("theta does not belong to K")
    if not is_double_progenerator(K):
        raise VerificationError("values module is not a double progenerator")
    if not (is_projective(P) and is_generator(P)):
        raise VerificationError("P must be a f.g. projective generator")
    dual1 = dual_module(P, K, 1)
    M = direct_sum([P, dual1.module])
    p, q = P.dim, dual1.dim
    zero = vzero(field, K.dim)
    tensor = [[zero for _ in range(p + q)] for _ in range(p + q)]
    for i in range(p):
        x = unit_vector(field, p, i)
        for j in range(q):
            g = dual1.maps[j]
            tensor[i][p + j] = g.act_row(x)
    for i in range(q):
        f = dual1.maps[i]
        for j in range(p):
            y = unit_vector(field, p, j)
            tensor[p + i][j] = theta.apply(f.act_row(y))
    b = BilinearForm(M, K, tensor)
    if not b.is_symmetric_under(theta):
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
    field = A.field
    d = A.dim
    images = []
    for i in range(n):
        for j in range(n):
            for t in range(d):
                img = [field.zero] * W.dim
                base = (j * n + i) * d
                for k, c in enumerate(gamma.apply(A.basis_vector(t))):
                    img[base + k] = c
                images.append(tuple(img))
    return AlgebraMap.from_images(W, W, images, AlgebraMap.ANTI)


def matrix_ring_end_data(A: Algebra, n: int):
    """Identify M_n(A) with End_A(A^n): the matrix w acts by left
    multiplication on rows of length n."""
    W = matrix_algebra_over(A, n)
    M = free_module(A, n)
    field = A.field
    d = A.dim
    maps = []
    for i in range(n):
        for j in range(n):
            for t in range(d):
                lam = A.left_mult_matrix(A.basis_vector(t))
                rows = []
                for jb in range(n):
                    for tt in range(d):
                        row = [field.zero] * (n * d)
                        if jb == j:
                            for s in range(d):
                                row[i * d + s] = lam.rows[tt][s]
                        rows.append(tuple(row))
                maps.append(Matrix(field, rows, ncols=n * d))
    return EndData(W, maps, M)


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
    res = form_from_anti_automorphism(end.module, alpha, end)
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
    verify.require(verify.intertwines(K.action1, reg.action, psi))
    checks.append("action1 is right multiplication")
    gamma_images = []
    act0 = []
    for t in range(A.dim):
        m0 = psi_inv * K.action0[t] * psi
        act0.append(m0)
        gamma_images.append(m0.act_row(A.unit))
    gamma = AlgebraMap.from_images(A, A, gamma_images, AlgebraMap.ANTI)
    if not gamma.is_bijective():
        raise VerificationError("recovered map is not bijective")
    for t in range(A.dim):
        if act0[t] != A.left_mult_matrix(gamma.apply(A.basis_vector(t))):
            raise VerificationError("action0 is not left multiplication by gamma")
    checks.append("action0 is left multiplication through gamma")
    theta_pair = None
    if res.involution is not None:
        T = psi_inv * res.involution.matrix * psi
        theta_pair = ThetaPair(A, gamma, T)
        checks.append("theta relation verified on all basis triples")
    certificate = {
        "values_dim": K.dim,
        "psi": psi,
        "checks": checks,
    }
    return ReduceResult(gamma, theta_pair, K, psi, res.form, end, certificate)


class TransferResult:
    def __init__(self, beta, gamma, theta_pair, u, sign, trials):
        self.beta = beta
        self.gamma = gamma
        self.theta_pair = theta_pair
        self.u = u
        self.sign = sign
        self.trials = trials


def transfer_involution(alpha: AlgebraMap, A: Algebra, n: int, seed: int = 0,
                        max_trials: int = 500) -> TransferResult:
    """From an involution of M_n(A) to an involution of A.

    Searches for a unit of the form x + theta(x), then x - theta(x); on
    success beta(r) = u^-1 gamma(r) u.  Exhaustion raises
    NoSymmetricUnitError (with the exhaustive flag for tiny fields),
    which can only happen outside the split/odd-characteristic cases
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
        yield from random_combinations(field, A.dim, basis, rng, max_trials,
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
    gamma2 = gamma.compose(gamma)
    space = common_left_kernel([
        A.left_mult_matrix(gamma2.apply(r)) - A.right_mult_matrix(r)
        for r in map(A.basis_vector, range(A.dim))
    ])
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
    indecomposable projectives, and the minimal n with R^([1]^n) = R."""
    pieces = decompose(regular_module(A), seed=seed)
    classes = isomorphism_classes(pieces, seed=seed)
    reps = [pieces[cls[0]] for cls in classes]
    mults = [len(cls) for cls in classes]
    perm = []
    for r in reps:
        dual = dual_module(r, K, 1).module
        target = None
        inconclusive = False
        for idx, r2 in enumerate(reps):
            try:
                if is_isomorphic(dual, r2, seed=seed) is not None:
                    target = idx
                    break
            except InconclusiveError:
                inconclusive = True
        if target is None:
            if inconclusive:
                raise InconclusiveError("could not match a dual projective to a class")
            raise VerificationError("dual of an indecomposable projective matches no class")
        perm.append(target)
    if sorted(perm) != list(range(len(reps))):
        raise VerificationError("duality does not permute the classes")
    n = 1
    while True:
        # R^([1]^n) has multiplicity mults[perm^-n(j)] at class j
        power = list(range(len(reps)))
        for _ in range(n):
            power = [perm[i] for i in power]
        if all(mults[power[i]] == mults[i] for i in range(len(reps))):
            break
        n += 1
        if n > 10 ** 6:
            raise VerificationError("orbit search did not terminate")
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
        cur = dual_module(cur, K, 1).module
    M = mods[0] if n == 1 else direct_sum(mods)
    dual1 = dual_module(M, K, 1)
    f = is_isomorphic(M, dual1.module, seed=seed)
    if f is None:
        raise VerificationError("M is not isomorphic to its dual; wrong n?")
    b = form_from_adjoint(M, K, dual1, f)
    alpha, end = corresponding_anti_automorphism(b)
    check_type_on_center(alpha, end, type_of(K))
    return OrbitAntiResult(end.algebra, alpha, M, b, end)

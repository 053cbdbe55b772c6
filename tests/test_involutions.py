"""Hyperbolic involutions, anti-structures, reduction and transfer."""

import pytest

from fdalg import algebras as alg, forms, involutions as inv, modules as mod, verify
from fdalg.errors import NoSymmetricUnitError, VerificationError
from fdalg.linalg import Field, Matrix, QQ

from helpers import identity_anti, transpose_map, ut_flip_map

F5 = Field(5)


def _field_K(field=QQ):
    FA = alg.field_algebra(field)
    gamma = identity_anti(FA)
    K = forms.standard_double_module(FA, gamma)
    return FA, gamma, K, forms.standard_involution(K, gamma)


def test_hyperbolic_over_field():
    FA, gamma, K, theta = _field_K()
    res = inv.hyperbolic_involution(K, theta, mod.regular_module(FA))
    assert res.algebra.dim == 4  # M_2(F)
    assert res.involution.is_involution()
    assert res.form.is_symmetric_under(theta)


def test_hyperbolic_over_m2f5():
    A = alg.matrix_algebra(F5, 2)
    tr = transpose_map(A, 2)
    K = forms.standard_double_module(A, tr)
    theta = forms.standard_involution(K, tr)
    res = inv.hyperbolic_involution(K, theta, mod.regular_module(A))
    assert res.algebra.dim == 16
    assert res.involution.is_involution()


def test_hyperbolic_over_quaternions():
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    K = forms.standard_double_module(H, conj)
    theta = forms.standard_involution(K, conj)
    res = inv.hyperbolic_involution(K, theta, mod.regular_module(H))
    assert res.algebra.dim == 16
    assert res.involution.is_involution()


def test_hyperbolic_idempotent_exchanged():
    # the construction is hyperbolic: the projection onto P satisfies
    # e + alpha(e) = 1
    FA, gamma, K, theta = _field_K()
    res = inv.hyperbolic_involution(K, theta, mod.regular_module(FA))
    M = res.module
    proj = Matrix(QQ, [[1, 0], [0, 0]])
    coords = res.end.coords_of(proj)
    assert coords is not None
    img = res.involution.apply(coords)
    e_plus = tuple(a + b for a, b in zip(coords, img))
    assert res.end.matrix_of(e_plus).is_identity()


def test_anti_structure_validation():
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    s = inv.AntiStructure(H, conj, H.unit)
    assert s.v == H.unit
    with pytest.raises(VerificationError):
        inv.AntiStructure(H, conj, H.basis_vector(1))  # gamma(i) = -i, not i^-1


def test_anti_structure_m2_field():
    FA = alg.field_algebra(QQ)
    s = inv.AntiStructure(FA, identity_anti(FA), FA.unit)
    alpha = inv.anti_structure_m2_involution(s)
    # [[a,b],[c,d]] -> [[d,b],[c,a]]
    W = alpha.source
    assert alpha.apply(W.basis_vector(0)) == W.basis_vector(3)
    assert alpha.apply(W.basis_vector(1)) == W.basis_vector(1)
    assert alpha.apply(W.basis_vector(2)) == W.basis_vector(2)
    assert alpha.is_involution()


def test_anti_structure_m2_gaussian():
    Qi = alg.quadratic_extension(QQ, -1)
    conj = alg.AlgebraMap.from_images(
        Qi, Qi, [Qi.basis_vector(0), tuple(-x for x in Qi.basis_vector(1))],
        alg.AlgebraMap.ANTI)
    s = inv.AntiStructure(Qi, conj, Qi.unit)
    alpha = inv.anti_structure_m2_involution(s)
    assert alpha.is_involution()


def test_anti_structure_m2_quaternions():
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    s = inv.AntiStructure(H, conj, H.unit)
    alpha = inv.anti_structure_m2_involution(s)
    assert alpha.source.dim == 16
    assert alpha.is_involution()


def test_anti_structure_m2_inner_twisted_gamma():
    # an inner twist of quaternion conjugation is again an involution and
    # feeds the 2x2 construction
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    i = H.basis_vector(1)
    iinv = alg.is_unit(H, i)
    images = [H.mul(iinv, H.mul(conj.apply(H.basis_vector(t)), i)) for t in range(4)]
    gamma2 = alg.AlgebraMap.from_images(H, H, images, alg.AlgebraMap.ANTI)
    assert gamma2.is_involution()
    s = inv.AntiStructure(H, gamma2, H.unit)
    assert inv.anti_structure_m2_involution(s).is_involution()


def test_theta_pair_anti_structure_correspondence():
    # v = theta(1) and theta(r) = gamma(r) v
    FA = alg.field_algebra(QQ)
    T3 = inv.transpose_gamma(identity_anti(FA), 3)
    red = inv.reduce_to_standard(T3, FA, 3)
    tp = red.theta_pair
    s = tp.anti_structure()
    A = tp.algebra
    v = tp.apply(A.unit)
    assert s.v == v
    for t in range(A.dim):
        r = A.basis_vector(t)
        assert tp.apply(r) == A.mul(tp.gamma.apply(r), v)


def test_transpose_gamma_laws():
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    T1 = inv.transpose_gamma(conj, 1)
    assert T1.matrix == conj.matrix
    FA = alg.field_algebra(QQ)
    T2 = inv.transpose_gamma(identity_anti(FA), 2)
    W = T2.source
    # plain matrix transpose on M2(F)
    assert T2.apply(W.basis_vector(1)) == W.basis_vector(2)
    # (T_n gamma)^2 = T_n(gamma^2)
    comp = T2.compose(T2)
    sq = conj.compose(conj)
    T2H = inv.transpose_gamma(conj, 2)
    compH = T2H.compose(T2H)
    WH = T2H.source
    for t in range(WH.dim):
        x = WH.basis_vector(t)
        i, j, s = (t // H.dim) // 2, (t // H.dim) % 2, t % H.dim
        expected_pos = (i * 2 + j) * H.dim
        img = compH.apply(x)
        expect = [QQ.zero] * WH.dim
        for k, c in enumerate(sq.apply(H.basis_vector(s))):
            expect[expected_pos + k] = c
        assert img == tuple(expect)


def test_reduce_standard_transpose_m3():
    FA = alg.field_algebra(QQ)
    T3 = inv.transpose_gamma(identity_anti(FA), 3)
    red = inv.reduce_to_standard(T3, FA, 3)
    assert red.gamma.matrix.is_identity()
    assert red.theta_pair is not None
    assert red.theta_pair.theta.is_identity()
    assert red.values.dim == 1


def test_reduce_standard_inner_twist():
    # X -> S^-1 X^T S with S = diag(1,2) still recovers gamma = id
    FA = alg.field_algebra(QQ)
    W = alg.matrix_algebra_over(FA, 2)
    from fractions import Fraction

    S = [[1, 0], [0, 2]]
    Sinv = [[1, 0], [0, Fraction(1, 2)]]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    imgs = []
    for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        X = [[0, 0], [0, 0]]
        X[i][j] = 1
        XT = [[X[0][0], X[1][0]], [X[0][1], X[1][1]]]
        Y = matmul(matmul(Sinv, XT), S)
        imgs.append((Y[0][0], Y[0][1], Y[1][0], Y[1][1]))
    alpha = alg.AlgebraMap.from_images(W, W, imgs, alg.AlgebraMap.ANTI)
    red = inv.reduce_to_standard(alpha, FA, 2)
    assert red.gamma.matrix.is_identity()


def test_reduce_standard_from_quaternion_hyperbolic():
    # the hyperbolic involution on End(H + H^[1]) = M_2(H) reduces to a
    # quaternion anti-automorphism with a verified theta relation
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    s = inv.AntiStructure(H, conj, H.unit)
    alpha = inv.anti_structure_m2_involution(s)
    red = inv.reduce_to_standard(alpha, H, 2)
    assert red.gamma.is_bijective()
    assert red.theta_pair is not None  # theta relation checked at construction


def test_reduce_and_transfer_hyperbolic_quaternion_involution():
    # transport the hyperbolic involution on End(H + H^[1]) to M_2(H) along
    # H^[1] = H, then reduce and transfer it
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    K = forms.standard_double_module(H, conj)
    theta = forms.standard_involution(K, conj)
    res = inv.hyperbolic_involution(K, theta, mod.regular_module(H))
    dual1 = forms.dual_module(mod.regular_module(H), K, 1)
    phi = mod.is_isomorphic(dual1.module, mod.regular_module(H), seed=0)
    assert phi is not None
    from fdalg.linalg import block_diag, invert

    T = block_diag(QQ, [Matrix.identity(QQ, 4), phi])
    Tinv = invert(T)
    end_W = inv.matrix_ring_end_data(H, 2)
    W = end_W.algebra
    images = []
    for u in range(W.dim):
        pulled = T * end_W.maps[u] * Tinv
        coords = res.end.coords_of(pulled)
        assert coords is not None
        img_mat = res.end.matrix_of(res.involution.apply(coords))
        pushed = end_W.coords_of(Tinv * img_mat * T)
        assert pushed is not None
        images.append(pushed)
    alpha_w = alg.AlgebraMap.from_images(W, W, images, alg.AlgebraMap.ANTI)
    assert alpha_w.is_involution()
    red = inv.reduce_to_standard(alpha_w, H, 2)
    assert red.gamma.is_bijective()
    assert red.theta_pair is not None  # theta relation verified at construction
    tres = inv.transfer_involution(alpha_w, H, 2)
    assert tres.beta.is_involution()


def test_transfer_m3_transpose():
    FA = alg.field_algebra(QQ)
    T3 = inv.transpose_gamma(identity_anti(FA), 3)
    res = inv.transfer_involution(T3, FA, 3)
    assert res.beta.matrix.is_identity()


def test_transfer_quaternions():
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    s = inv.AntiStructure(H, conj, H.unit)
    alpha = inv.anti_structure_m2_involution(s)
    res = inv.transfer_involution(alpha, H, 2)
    assert res.beta.is_involution()
    assert res.beta.variance == alg.AlgebraMap.ANTI


def test_transfer_f2_failure_path():
    F2 = Field(2)
    FA = alg.field_algebra(F2)
    T2 = inv.transpose_gamma(identity_anti(FA), 2)
    with pytest.raises(NoSymmetricUnitError) as exc:
        inv.transfer_involution(T2, FA, 2)
    assert exc.value.exhaustive


def test_transfer_roundtrip_property():
    # transfer after the anti-structure construction returns *some*
    # involution of A (not necessarily the original gamma)
    for A, gamma in [
        (alg.quadratic_extension(QQ, 2),
         alg.AlgebraMap.from_images(
             alg.quadratic_extension(QQ, 2),
             alg.quadratic_extension(QQ, 2),
             [(1, 0), (0, -1)], alg.AlgebraMap.ANTI)),
        (alg.quaternion_algebra(QQ),
         alg.quaternion_conjugation(alg.quaternion_algebra(QQ))),
    ]:
        s = inv.AntiStructure(A, gamma, A.unit)
        alpha = inv.anti_structure_m2_involution(s)
        res = inv.transfer_involution(alpha, A, 2)
        assert res.beta.is_involution()


def test_theta_preserves_radical():
    # Eq-style consequence: theta maps the radical into itself; exercised
    # on an algebra with nonzero radical
    ut2 = alg.upper_triangular_algebra(QQ, 2)
    flip = ut_flip_map(ut2, 2)
    assert flip.is_involution()
    T1 = inv.transpose_gamma(flip, 1)
    red = inv.reduce_to_standard(T1, ut2, 1)
    tp = red.theta_pair
    J = alg.jacobson_radical(ut2)
    from fdalg.linalg import RowSpace

    space = RowSpace(QQ, ut2.dim)
    space.extend(J)
    for v in J:
        assert space.contains(tp.apply(v))


def test_duality_orbit_standard():
    M2 = alg.matrix_algebra(QQ, 2)
    K = forms.standard_double_module(M2, transpose_map(M2, 2))
    orb = inv.duality_orbit(M2, K)
    assert orb.permutation == [0]
    assert orb.n == 1


def test_duality_orbit_product_identity_permutation():
    # A = M2(F) x F with componentwise anti-automorphisms: no factor swap
    M2 = alg.matrix_algebra(QQ, 2)
    FQ = alg.field_algebra(QQ)
    A = alg.direct_product(M2, FQ)
    tr = transpose_map(M2, 2)
    imgs = []
    for i in range(4):
        im4 = tr.apply(tuple(A.basis_vector(i)[:4]))
        imgs.append(tuple(im4) + (QQ.zero,))
    imgs.append((QQ.zero,) * 4 + (QQ.one,))
    gamma = alg.AlgebraMap.from_images(A, A, imgs, alg.AlgebraMap.ANTI)
    K = forms.standard_double_module(A, gamma)
    orb = inv.duality_orbit(A, K)
    assert orb.permutation == list(range(len(orb.representatives)))
    assert orb.n == 1


def test_duality_orbit_permutes_ut3():
    ut3 = alg.upper_triangular_algebra(QQ, 3)
    K = forms.standard_double_module(ut3, ut_flip_map(ut3, 3))
    orb = inv.duality_orbit(ut3, K)
    assert sorted(orb.permutation) == list(range(3))
    assert orb.permutation != list(range(3))  # the flip swaps the two ends
    assert orb.n == 1  # multiplicities are all 1 and permuted among equals


def test_anti_automorphism_from_orbit():
    ut3 = alg.upper_triangular_algebra(QQ, 3)
    K = forms.standard_double_module(ut3, ut_flip_map(ut3, 3))
    orb = inv.duality_orbit(ut3, K)
    res = inv.anti_automorphism_from_orbit(ut3, K, orb.n)
    assert res.algebra.dim == ut3.dim
    assert res.anti_automorphism.variance == alg.AlgebraMap.ANTI
    # type check ran inside; re-assert the type agrees with K on the center
    inv.check_type_on_center(res.anti_automorphism, res.end, forms.type_of(K))


def test_find_anti_structure_positive():
    H = alg.quaternion_algebra(QQ)
    conj = alg.quaternion_conjugation(H)
    s = inv.find_anti_structure(H, conj)
    assert s is not None
    assert s.v is not None


@pytest.mark.parametrize("field", [QQ, Field(7)])
def test_find_anti_structure_skips_candidates_outside_the_space(field):
    # M_2 x M_2 with transpose on both factors: the per-entry random draws
    # need not lie in the solution space, and seeds 2, 3 and 5-8 draw a unit
    # with gamma(v) = v^-1 that fails gamma^2 = conjugation by v; the search
    # must skip it
    A = alg.direct_product(alg.matrix_algebra(field, 2), alg.matrix_algebra(field, 2))
    perm = [0, 2, 1, 3, 4, 6, 5, 7]
    gamma = alg.AlgebraMap.from_images(A, A, [A.basis_vector(i) for i in perm],
                                       alg.AlgebraMap.ANTI)
    for seed in range(10):
        s = inv.find_anti_structure(A, gamma, seed=seed)
        assert s is not None and verify.anti_structure(A, gamma, s.v) is None

"""Double modules, bilinear forms, adjoints, the correspondence."""

import functools
import random

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from fdalg import algebras as alg, forms, involutions as inv, linalg, modules as mod, verify
from fdalg.errors import DimensionError, VerificationError
from fdalg.linalg import (Coordinates, Field, Matrix, QQ, RowSpace, invert, unit_vector, unvec,
                          vec)

from helpers import (
    RelationRowQuotient,
    assert_field_elements,
    identity_anti,
    in_basis,
    random_adjoint,
    random_regular_form,
    transpose_map,
    twisted_transpose_map,
    ut_flip_map,
)

F5 = Field(5)


def _std_K(A, gamma=None):
    if gamma is None:
        gamma = identity_anti(A)
    return forms.standard_double_module(A, gamma), gamma


def test_standard_double_module_field():
    FQ = alg.field_algebra(QQ)
    K, gamma = _std_K(FQ)
    assert K.dim == 1
    assert K.action0 == K.action1


def test_standard_double_module_transpose_action():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    K = forms.standard_double_module(M2, tr)
    # k .0 e12 = transpose(e12) k = e21 k
    e12 = M2.basis_vector(1)
    for i in range(4):
        k = M2.basis_vector(i)
        assert K.module(0).action_of(e12).act_row(k) == M2.mul(M2.basis_vector(2), k)
    assert forms.type_of(K).matrix.is_identity()


def test_double_module_commuting_law_enforced():
    M2 = alg.matrix_algebra(QQ, 2)
    # two copies of the same right action do not commute for M2
    reg = [M2.right_mult_matrix(M2.basis_vector(i)) for i in range(4)]
    lft = [M2.left_mult_matrix(M2.basis_vector(i)) for i in range(4)]
    with pytest.raises(VerificationError):
        forms.DoubleModule(M2, 4, reg, reg)
    # left/right multiplication commute, but action0 must still be a right
    # module structure; left mult of a noncommutative algebra is not
    with pytest.raises(VerificationError):
        forms.DoubleModule(M2, 4, lft, reg)


def test_dual_of_regular_is_k():
    for A, gamma in [
        (alg.matrix_algebra(QQ, 2), None),
        (alg.upper_triangular_algebra(QQ, 3), None),
    ]:
        gamma = transpose_map(A, 2) if A.dim == 4 else ut_flip_map(A, 3)
        K = forms.standard_double_module(A, gamma)
        R = mod.regular_module(A)
        for i in (0, 1):
            D, _ = forms.dual_module(R, K, i)
            assert mod.is_isomorphic(D, K.module(i)) is not None


def test_dual_of_zero_module():
    M2 = alg.matrix_algebra(QQ, 2)
    K = forms.standard_double_module(M2, transpose_map(M2, 2))
    Z = mod.Module(M2, 0, [Matrix.zeros(QQ, 0, 0)] * 4)
    D, _ = forms.dual_module(Z, K, 1)
    assert D.dim == 0
    phi, _, _ = forms.phi_map(Z, K)
    assert phi.nrows == 0


def test_column_dual_dimension():
    M2 = alg.matrix_algebra(QQ, 2)
    K = forms.standard_double_module(M2, transpose_map(M2, 2))
    col = mod.decompose(mod.regular_module(M2))[0]
    D, _ = forms.dual_module(col, K, 1)
    assert D.dim == 2


def test_adjoints_of_zero_and_dot():
    FQ = alg.field_algebra(QQ)
    K, _ = _std_K(FQ)
    M = mod.free_module(FQ, 2)
    zero = forms.BilinearForm(M, K, [[[0], [0]], [[0], [0]]])
    adj = forms.adjoints(zero)
    assert adj.left.is_zero() and adj.right.is_zero()
    assert not adj.left_regular and not adj.right_regular
    dot = forms.BilinearForm(M, K, [[[1], [0]], [[0], [1]]])
    adj2 = forms.adjoints(dot)
    assert adj2.left_regular and adj2.right_regular
    assert adj2.left.is_identity() and adj2.right.is_identity()


def test_orthogonal_sum_laws():
    FQ = alg.field_algebra(QQ)
    K, _ = _std_K(FQ)

    def dot(n):
        M = mod.free_module(FQ, n)
        t = [[[1 if i == j else 0] for j in range(n)] for i in range(n)]
        return forms.BilinearForm(M, K, t)

    b5 = forms.orthogonal_sum(dot(2), dot(3))
    assert b5.module.dim == 5
    assert b5.tensor == dot(5).tensor
    adj = forms.adjoints(b5)
    assert adj.left_regular and adj.right_regular
    # regular perp degenerate is not right regular
    M1 = mod.free_module(FQ, 1)
    degenerate = forms.BilinearForm(M1, K, [[[0]]])
    mixed = forms.orthogonal_sum(dot(2), degenerate)
    assert not forms.adjoints(mixed).right_regular


def test_orthogonal_sum_accepts_an_equal_values_module():
    A = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(A, 2)
    K = forms.standard_double_module(A, tr)
    K_copy = forms.standard_double_module(A, tr)
    R = mod.regular_module(A)
    b = random_regular_form(R, K, seed=1)
    b2 = random_regular_form(R, K, seed=2)
    b2_copy = forms.BilinearForm(R, K_copy, b2.tensor)
    out = forms.orthogonal_sum(b, b2_copy)
    ref = forms.orthogonal_sum(b, b2)
    assert out.values is K
    assert out.module.dim == ref.module.dim == 8
    assert out.tensor == ref.tensor


def test_orthogonal_sum_rejects_another_values_module():
    A = alg.matrix_algebra(QQ, 2)
    R = mod.regular_module(A)
    b = random_regular_form(R, forms.standard_double_module(A, transpose_map(A, 2)), seed=1)
    other = forms.standard_double_module(A, twisted_transpose_map(A))
    b2 = random_regular_form(R, other, seed=1)
    with pytest.raises(DimensionError, match="^orthogonal sum needs the same values module$"):
        forms.orthogonal_sum(b, b2)


def test_corresponding_anti_automorphism_requires_regular():
    FQ = alg.field_algebra(QQ)
    K, _ = _std_K(FQ)
    M = mod.free_module(FQ, 2)
    zero = forms.BilinearForm(M, K, [[[0], [0]], [[0], [0]]])
    with pytest.raises(VerificationError):
        forms.corresponding_anti_automorphism(zero)


def test_corresponding_anti_automorphism_refuses_end_data_of_another_module():
    # the End maps it dualizes are trusted to be A-linear, so they must be End(M)'s
    A = alg.matrix_algebra(F5, 2)
    R = mod.regular_module(A)
    b = random_regular_form(R, forms.standard_double_module(A, transpose_map(A, 2)), seed=1)
    T = Matrix(F5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]])
    other = forms.EndData.of_module(mod.change_of_basis(R, T))
    with pytest.raises(VerificationError, match="^endomorphism data of another module$"):
        forms.corresponding_anti_automorphism(b, other)


def test_dot_product_gives_transpose():
    FQ = alg.field_algebra(QQ)
    K, _ = _std_K(FQ)
    n = 3
    M = mod.free_module(FQ, n)
    t = [[[1 if i == j else 0] for j in range(n)] for i in range(n)]
    b = forms.BilinearForm(M, K, t)
    alpha, end = forms.corresponding_anti_automorphism(b)
    for u in range(end.algebra.dim):
        w = end.maps[u]
        wa = end.matrix_of(alpha.apply(end.algebra.basis_vector(u)))
        assert wa == w.transpose()
    assert alpha.is_involution()


def test_theta_symmetric_form_gives_involution():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    K = forms.standard_double_module(M2, tr)
    theta = forms.standard_involution(K, tr)
    R = mod.regular_module(M2)
    D1, H1 = forms.dual_module(R, K, 1)
    rng = random.Random(2)
    found = 0
    for seed in range(40):
        f = random_adjoint(R, D1, seed)
        b = forms.form_from_adjoint(R, K, H1, f)
        if not b.is_symmetric_under(theta):
            # symmetrize: b'(x,y) = b(x,y) + theta(b(y,x))
            t2 = [
                [
                    tuple(
                        a + c
                        for a, c in zip(b.tensor[i][j], theta.apply(b.tensor[j][i]))
                    )
                    for j in range(R.dim)
                ]
                for i in range(R.dim)
            ]
            b = forms.BilinearForm(R, K, t2)
        adj = forms.adjoints(b)
        if not (adj.left_regular and adj.right_regular):
            continue
        assert b.is_symmetric_under(theta)
        alpha, _ = forms.corresponding_anti_automorphism(b)
        assert alpha.is_involution()
        found += 1
        if found >= 3:
            break
    assert found >= 3


def test_form_from_anti_automorphism_on_regular():
    # K_alpha for M = R_R collapses to something of dim = dim A
    for A, gamma in [
        (alg.matrix_algebra(QQ, 2), None),
        (alg.upper_triangular_algebra(QQ, 3), None),
    ]:
        gamma = transpose_map(A, 2) if A.dim == 4 else ut_flip_map(A, 3)
        M = mod.regular_module(A)
        b = random_regular_form(M, forms.standard_double_module(A, gamma), seed=1)
        alpha, end = forms.corresponding_anti_automorphism(b)
        res = forms.form_from_anti_automorphism(M, alpha, end)
        assert res.values.dim == A.dim
        back, _ = forms.corresponding_anti_automorphism(res.form, end)
        assert back.matrix == alpha.matrix


def test_form_from_anti_automorphism_refuses_maps_that_are_not_module_maps():
    # the End maps of the regular module conjugated by T: still a right action
    # of the opposite algebra, but no longer A-linear, so the balancing
    # relations they give are not stable under the action of A, and the
    # form on the quotient fails its balance law at the first generator
    A = alg.matrix_algebra(F5, 2)
    M = mod.regular_module(A)
    b = random_regular_form(M, forms.standard_double_module(A, transpose_map(A, 2)), seed=1)
    alpha, end = forms.corresponding_anti_automorphism(b)
    T = Matrix(F5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]])
    bad = forms.EndData._trusted(end.algebra,
                                 mod.HomSpace(M, M, [invert(T) * w * T for w in end.maps]))
    assert any(w * rho != rho * w for w in bad.maps for rho in M.action)
    with pytest.raises(VerificationError,
                       match=r"^left balance law fails at basis triple \(0, 0, 0\)$"):
        forms.form_from_anti_automorphism(M, alpha, bad)


def test_dual_morphism_refuses_maps_that_are_not_module_maps():
    # on the regular module, V = (1,) and F -> V F is onto all 1 x 4 rows, so the
    # generator-image lookup alone would give the composite g o f coordinates
    A = alg.matrix_algebra(F5, 2)
    M = mod.regular_module(A)
    K = forms.standard_double_module(A, transpose_map(A, 2))
    _, dual1 = forms.dual_module(M, K, 1)
    f = Matrix(F5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]])
    g = dual1.basis[0]
    assert verify.intertwines(A, M.action, K.action0, f * g) is not None
    assert dual1.coords_of(dual1.generators * f * g) is not None
    with pytest.raises(VerificationError, match="^intertwining law fails at"):
        forms.dual_morphism(f, dual1, dual1)
    # an A-linear f passes, with the coordinates of the full lookup
    full = RowSpace(F5, M.dim * K.dim)
    full.extend(map(vec, dual1.basis))
    for w in mod.hom_space(M, M).basis:
        assert forms.dual_morphism(w, dual1, dual1).rows == tuple(
            full.coordinates(vec(w * h)) for h in dual1.basis)


def test_theta_alpha_square_identity():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    K = forms.standard_double_module(M2, tr)
    # alpha on End(F^2) = M2 via the dot product over the field algebra:
    FQ = alg.field_algebra(QQ)
    KF, _ = _std_K(FQ)
    M = mod.free_module(FQ, 2)
    t = [[[1 if i == j else 0] for j in range(2)] for i in range(2)]
    alpha, end = forms.corresponding_anti_automorphism(forms.BilinearForm(M, KF, t))
    res = forms.form_from_anti_automorphism(M, alpha, end)
    assert res.involution is not None
    T = res.involution.matrix
    assert (T * T).is_identity()


def test_phi_naturality_square():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    K = forms.standard_double_module(M2, tr)
    R = mod.regular_module(M2)
    col = mod.decompose(R)[0]
    # random morphism f: col -> R
    H = mod.hom_space(col, R)
    rng = random.Random(9)
    f = H.matrix_from_coords([QQ.coerce(rng.randint(-3, 3)) for _ in range(H.dim)])
    phi_n, dual1_n, dual10_n = forms.phi_map(col, K)
    phi_m, dual1_m, dual10_m = forms.phi_map(R, K)
    # f^[1]: R^[1] -> col^[1], then its [0]-dual: col^[1][0] -> R^[1][0]
    f1 = forms.dual_morphism(f, dual1_n, dual1_m)
    f10 = forms.dual_morphism(f1, dual10_m, dual10_n)
    assert phi_n * f10 == f * phi_m


def test_phi_adjoint_identity():
    # (Ad_r b)^[0] o Phi_M = Ad_l b, with Ad_r: M -> M^[1] dualized from M^[1][0] to
    # M^[0]; on UT_3, M^[1] acts unlike M, so swapped arguments would fail the check
    M2, UT3 = alg.matrix_algebra(F5, 2), alg.upper_triangular_algebra(F5, 3)
    for A, gamma in [(M2, transpose_map(M2, 2)), (UT3, ut_flip_map(UT3, 3))]:
        K = forms.standard_double_module(A, gamma)
        R = mod.regular_module(A)
        for seed in range(3):
            D1, H1 = forms.dual_module(R, K, 1)
            f = random_adjoint(R, D1, seed, invertible=False)
            b = forms.form_from_adjoint(R, K, H1, f)
            adj = forms.adjoints(b)
            phi, d1, d10 = forms.phi_map(R, K)
            dual_of_adjoint = forms.dual_morphism(adj.right, adj.dual0, d10)
            assert phi * dual_of_adjoint == adj.left


def test_phi_invertible_for_progenerator_values():
    for A, gamma_builder in [
        (alg.matrix_algebra(QQ, 2), lambda a: transpose_map(a, 2)),
        (alg.upper_triangular_algebra(QQ, 3), lambda a: ut_flip_map(a, 3)),
    ]:
        gamma = gamma_builder(A)
        K = forms.standard_double_module(A, gamma)
        R = mod.regular_module(A)
        phi, _, _ = forms.phi_map(R, K)
        assert invert(phi) is not None
        col = mod.decompose(R)[0]
        phi2, _, _ = forms.phi_map(col, K)
        assert invert(phi2) is not None


def test_end_of_distinct_projectives_is_basic():
    ut2 = alg.upper_triangular_algebra(QQ, 2)
    parts = mod.decompose(mod.regular_module(ut2))
    M = mod.direct_sum(parts)
    E, _ = mod.endomorphism_algebra(M)
    res = alg.basic_algebra(E)
    assert res.algebra.dim == E.dim  # already basic


def test_double_progenerator_check():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    K = forms.standard_double_module(M2, tr)
    assert forms.is_double_progenerator(K)


def test_involution_from_goldman():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    K = forms.standard_double_module(M2, tr)
    theta = forms.involution_from_goldman(K)
    T = theta.matrix
    assert (T * T).is_identity()
    for t in range(M2.dim):
        assert K.action0[t] * T == T * K.action1[t]
    # n = 1: theta is the identity on F
    FQ = alg.field_algebra(QQ)
    K1 = forms.standard_double_module(FQ, identity_anti(FQ))
    th1 = forms.involution_from_goldman(K1)
    assert th1.matrix.is_identity()


def test_involution_from_goldman_rejects_wrong_type():
    # a double module of non-identity type: swap factor on Q x Q
    FQ = alg.field_algebra(QQ)
    P = alg.direct_product(FQ, FQ)
    swapm = Matrix(QQ, [[0, 1], [1, 0]])
    swap = alg.AlgebraMap(P, P, swapm, alg.AlgebraMap.ANTI)
    K = forms.standard_double_module(P, swap)
    assert not forms.type_of(K).matrix.is_identity()
    # P is not a matrix algebra on matrix units, so the constructor refuses
    from fdalg.errors import DimensionError

    with pytest.raises(DimensionError):
        forms.involution_from_goldman(K)


def test_dual_round_trips_small():
    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    K = forms.standard_double_module(M2, tr)
    R = mod.regular_module(M2)
    col = mod.decompose(R)[0]
    for M in (R, col, mod.direct_sum([col, R])):
        D0, _ = forms.dual_module(M, K, 0)
        D01, _ = forms.dual_module(D0, K, 1)
        assert mod.is_isomorphic(D01, M) is not None
        D1, _ = forms.dual_module(M, K, 1)
        D10, _ = forms.dual_module(D1, K, 0)
        assert mod.is_isomorphic(D10, M) is not None


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_dual_coordinates_are_the_hom_space_basis(field):
    M2, UT3 = alg.matrix_algebra(field, 2), alg.upper_triangular_algebra(field, 3)
    for A, gamma in [(M2, transpose_map(M2, 2)), (UT3, ut_flip_map(UT3, 3))]:
        K = forms.standard_double_module(A, gamma)
        R = mod.regular_module(A)
        eA = mod.principal_right_module(A, A.basis_vector(0))
        for M in (R, eA, mod.direct_sum([eA, R])):
            for i in (0, 1):
                D, H = forms.dual_module(M, K, i)
                assert D.dim == H.dim
                assert H.basis == mod.hom_space(M, K.module(1 - i)).basis


@pytest.mark.parametrize("name", ["M2-transpose", "UT3-flip"])
def test_only_phi_map_builds_a_dual_module(name, monkeypatch):
    # adjoints and the correspondence read a dual's coordinates only; phi_map needs
    # M^[1] as a module, once, as the source of its double dual
    if name == "M2-transpose":
        A = alg.matrix_algebra(F5, 2)
        gamma = transpose_map(A, 2)
    else:
        A = alg.upper_triangular_algebra(F5, 3)
        gamma = ut_flip_map(A, 3)
    M = mod.regular_module(A)
    K = forms.standard_double_module(A, gamma)
    b = random_regular_form(M, K, seed=1)
    real, calls = forms.dual_module, []

    def refuse(*args):
        raise AssertionError("dual_module called")

    monkeypatch.setattr(forms, "dual_module", refuse)
    adj = forms.adjoints(b)
    assert adj.left_regular and adj.right_regular
    alpha, end = forms.corresponding_anti_automorphism(b)
    res = forms.form_from_anti_automorphism(M, alpha, end)
    assert forms.corresponding_anti_automorphism(res.form, end)[0].matrix == alpha.matrix

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(forms, "dual_module", count)
    phi, _, _ = forms.phi_map(M, K)
    assert invert(phi) is not None
    assert len(calls) == 1


def test_dependent_systems_keep_their_messages():
    FQ = alg.field_algebra(QQ)
    P = alg.direct_product(FQ, FQ)
    one = Matrix.identity(QQ, 1)
    with pytest.raises(VerificationError, match="endomorphism maps are linearly dependent"):
        forms.EndData(P, [one, one], mod.regular_module(FQ))
    # on K_1 = Q the idempotents of Q x Q act as 1 and 0; one dimension
    # cannot separate the two-dimensional center
    act = [one, Matrix.zeros(QQ, 1, 1)]
    K = forms.DoubleModule(P, 1, act, act)
    with pytest.raises(VerificationError, match="not faithful enough to carry a type"):
        forms.type_of(K)


@pytest.mark.parametrize("field", [QQ, F5, Field(2 ** 61 - 1)], ids=str)
@pytest.mark.parametrize("name", ["M2-transpose", "UT3-flip"])
def test_corresponding_anti_automorphism_meets_its_definition(field, name):
    # b(w_u e_i, e_j) = b(e_i, alpha(w_u) e_j) for every u, i, j, computed
    # entrywise; an endomorphism w sends e_i to row i of its matrix
    if name == "M2-transpose":
        A = alg.matrix_algebra(field, 2)
        gamma = transpose_map(A, 2)
    else:
        A = alg.upper_triangular_algebra(field, 3)
        gamma = ut_flip_map(A, 3)
    M = mod.regular_module(A)
    K = forms.standard_double_module(A, gamma)
    b = random_regular_form(M, K, seed=2)
    alpha, end = forms.corresponding_anti_automorphism(b)
    d, t = M.dim, b.tensor
    for u, w in enumerate(end.maps):
        aw = end.matrix_of(alpha.apply(end.algebra.basis_vector(u)))
        for i in range(d):
            for j in range(d):
                for c in range(K.dim):
                    lhs = sum(w[i, s] * t[s][j][c] for s in range(d))
                    rhs = sum(aw[j, s] * t[i][s][c] for s in range(d))
                    assert field.coerce(lhs) == field.coerce(rhs), (u, i, j, c)


def test_coordinate_matrices_are_canonical_over_q():
    # M_2 in a fractional basis: Fraction products reach the coordinate lookups of
    # submodule (RowSpace.coordinates), dual_module and dual_morphism (Coordinates.of),
    # which build with Matrix._trusted, so the lookups must return integral rationals
    # as ints. phi_map and adjoints read theirs off canonical entries (dual maps, form
    # values), so no input gives them one; they are checked all the same
    A = alg.matrix_algebra(QQ, 2)
    P = Matrix(QQ, [[2, 1, -2, -1], [-1, "-1/2", "2/3", "1/3"],
                    ["-1/3", 1, "-1/3", -1], [1, 1, 0, -1]])
    B, Pinv, tr = in_basis(A, P), invert(P), transpose_map(A, 2)
    gamma = alg.AlgebraMap.from_images(B, B, [Pinv.act_row(tr.apply(x)) for x in P.rows],
                                       alg.AlgebraMap.ANTI)
    K = forms.standard_double_module(B, gamma)
    M = mod.regular_module(B)
    sub, _ = mod.submodule(M, [Pinv.act_row(A.basis_vector(0))])       # e11 B
    (D0, _), (D1, H1) = forms.dual_module(M, K, 0), forms.dual_module(M, K, 1)
    H = mod.hom_space(M, M)
    f = H.matrix_from_coords([QQ.coerce(f"{k + 1}/2") for k in range(H.dim)])
    phi, _, _ = forms.phi_map(M, K)
    adj = forms.adjoints(random_regular_form(M, K, seed=0))
    mats = [*sub.action, *D0.action, *D1.action,
            forms.dual_morphism(f, H1, H1), phi, adj.left, adj.right]
    # hom_space maps its solutions back through T^-1 products of Fractions
    mats += [*H.basis, *mod.hom_space(sub, D1).basis, *mod.hom_space(D0, M).basis]
    assert_field_elements(QQ, [x for m in mats for row in m.rows for x in row])


# -- the certificates of form_from_anti_automorphism ---------------------

FIELDS = (QQ, F5, Field(2 ** 61 - 1))


def _alpha_by_solving_the_law(b, end):
    """alpha solved from sum_v x_v b(e_i, w_v e_j) = b(w_u e_i, e_j) for all i, j as
    one linear system: row s of B_i is b(e_i, e_s), so b(e_i, w_v e_j) over (j, comp)
    is vec(w_v B_i), and row s of F is vec(B_s), so b(w_u e_i, e_j) is vec(w_u F)."""
    field, d, k = b.module.algebra.field, b.module.dim, b.values.dim
    B = [Matrix._trusted(field, row, k) for row in b.tensor]
    system = Coordinates(field, [tuple(x for Bi in B for x in vec(w * Bi)) for w in end.maps],
                         d * d * k)
    assert system.independent
    F = Matrix._trusted(field, tuple(vec(Bs) for Bs in B), d * k)
    W = end.algebra
    return alg.AlgebraMap.from_images(W, W, [system.of(vec(w * F)) for w in end.maps],
                                      alg.AlgebraMap.ANTI)


@given(st.sampled_from(FIELDS), st.sampled_from(("M2", "UT3", "H", "M2-twisted")),
       st.sampled_from((1, 2)), st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_alpha_off_the_right_adjoint_solves_the_law(field, name, rank, seed):
    if name == "H":
        A = alg.quaternion_algebra(field)
        gamma = alg.quaternion_conjugation(A)
    elif name == "UT3":
        A = alg.upper_triangular_algebra(field, 3)
        gamma = ut_flip_map(A, 3)
    else:
        A = alg.matrix_algebra(field, 2)
        gamma = transpose_map(A, 2) if name == "M2" else twisted_transpose_map(A)
    M = mod.free_module(A, rank)
    b = random_regular_form(M, forms.standard_double_module(A, gamma), seed)
    alpha, end = forms.corresponding_anti_automorphism(b)
    assert alpha == _alpha_by_solving_the_law(b, end)


def _balancing_relations(M, alpha, end):
    """alpha(w) e_i (x) e_j - e_i (x) w e_j for every basis element w of End(M),
    written entry by entry: at (s, t) it is alpha(w)[i, s] [t = j] - [s = i] w[j, t]."""
    field, d = M.algebra.field, M.dim
    rel = RowSpace(field, d * d)
    for u, w in enumerate(end.maps):
        wa = end.matrix_of(alpha.apply(end.algebra.basis_vector(u)))
        for i in range(d):
            for j in range(d):
                rel.insert([field.coerce(wa[i, s] * (t == j) - (s == i) * w[j, t])
                            for s in range(d) for t in range(d)])
    return rel


def _symmetric_form(A, gamma):
    """b(x, y) = gamma(x) y on the regular module, valued in the standard double
    module of gamma; when gamma is an involution so is its corresponding map."""
    K = forms.standard_double_module(A, gamma)
    return forms.BilinearForm(mod.regular_module(A), K, [
        [A.mul(gamma.apply(A.basis_vector(i)), A.basis_vector(j)) for j in range(A.dim)]
        for i in range(A.dim)])


def _m2_and_ut3(field):
    M2, UT3 = alg.matrix_algebra(field, 2), alg.upper_triangular_algebra(field, 3)
    return [(M2, transpose_map(M2, 2)), (UT3, ut_flip_map(UT3, 3))]


@functools.lru_cache(maxsize=None)
def _real_cases(field):
    """(M, alpha, end) for the regular modules of M_2 and UT_3, with alpha the map of
    a symmetric form (an involution) and of a random regular form."""
    out = []
    for A, gamma in _m2_and_ut3(field):
        M = mod.regular_module(A)
        for b in (_symmetric_form(A, gamma),
                  random_regular_form(M, forms.standard_double_module(A, gamma), seed=1)):
            out.append((M, *forms.corresponding_anti_automorphism(b)))
    return out


def _keeps_every_row(d, R, image):
    return all(R.contains(vec(image(unvec(R.field, r, d, d)))) for r in R.rows)


def _keeps_relations(M, alpha, end):
    """The row-by-row oracle: the balancing relations are a proper nonzero subspace,
    kept by v -> vec(V rho) (action0) and vec(rho^T V) (action1) on V = unvec(v) for
    every rho of M, and by vec(V^T) (the swap) when alpha is an involution."""
    d, rel = M.dim, _balancing_relations(M, alpha, end)
    maps = [f for rho in M.action
            for f in (lambda V, rho=rho: V * rho, lambda V, rho=rho: rho.transpose() * V)]
    if alpha.is_involution():
        maps.append(Matrix.transpose)
    return 0 < rel.dim < d * d and all(_keeps_every_row(d, rel, f) for f in maps)


def test_real_relations_are_stable_under_the_algebra():
    for field in FIELDS:
        for case in _real_cases(field):
            assert _keeps_relations(*case)


@st.composite
def _conjugated_cases(draw):
    """(M, alpha, end') with end' the End maps of a real case conjugated by an invertible
    T: a random one, or L(u) for a unit u, which is A-linear and keeps them in End(M)."""
    field = draw(st.sampled_from(FIELDS))
    M, alpha, end = draw(st.sampled_from(_real_cases(field)))
    A, entry = M.algebra, st.integers(-2, 2)
    if draw(st.booleans()):
        T = A.left_mult_matrix(A.coerce_element(draw(st.lists(entry, min_size=A.dim,
                                                               max_size=A.dim))))
    else:
        T = Matrix(field, draw(st.lists(st.lists(entry, min_size=M.dim, max_size=M.dim),
                                        min_size=M.dim, max_size=M.dim)))
    T_inv = invert(T)
    if T_inv is None:
        T = T_inv = Matrix.identity(field, M.dim)
    maps = [T_inv * w * T for w in end.maps]
    return M, alpha, forms.EndData._trusted(end.algebra, mod.HomSpace(M, M, maps))


def _outcome(case):
    try:
        forms.form_from_anti_automorphism(*case)
    except VerificationError:
        return "refused"
    return "returned"


@given(_conjugated_cases())
@settings(max_examples=30, deadline=None)
def test_form_from_anti_automorphism_returns_only_on_kept_relations(case):
    # the balance laws and the theta-symmetry are the only certificates that the
    # actions and the swap keep the relations
    if _outcome(case) == "returned":
        assert _keeps_relations(*case)


@pytest.mark.parametrize("outcome", ["refused", "returned"])
def test_conjugated_cases_reach_both_outcomes(outcome):
    find(_conjugated_cases(), lambda case: _outcome(case) == outcome,
         settings=settings(max_examples=200, database=None, phases=[Phase.generate]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_type_of_a_standard_double_module_is_the_restriction_of_gamma(field):
    FF = alg.field_algebra(field)
    P = alg.direct_product(FF, FF)
    H = alg.quaternion_algebra(field)
    cases = _m2_and_ut3(field) + [
        (H, alg.quaternion_conjugation(H)),
        (P, alg.AlgebraMap(P, P, Matrix(field, [[0, 1], [1, 0]]), alg.AlgebraMap.ANTI))]
    types = [forms.type_of(forms.standard_double_module(A, gamma)) for A, gamma in cases]
    assert types == [alg.restriction_to_center(gamma) for _, gamma in cases]
    # the swap on Q x Q has a type other than the identity
    assert [t.matrix.is_identity() for t in types] == [True, True, True, False]


def _conjugate(alpha, end, c):
    """w -> c alpha(w) c^-1: an anti-automorphism of End(M) other than alpha
    unless c is central."""
    W = end.algebra
    c_inv = end.coords_of(invert(end.matrix_of(c)))
    return alg.AlgebraMap.from_images(W, W, [
        W.mul(W.mul(c, alpha.apply(W.basis_vector(i))), c_inv) for i in range(W.dim)],
        alg.AlgebraMap.ANTI)


def _units_fixing_first_generator(alpha, end):
    """Units c = alpha(e_g) + l 1 of End(M), g its first generator, l = 1, 2, ...;
    conjugating by c keeps alpha(e_g), so only a later generator tells them apart."""
    W = end.algebra
    a0 = alpha.apply(W.basis_vector(W.generators[0]))
    for lam in range(1, 6):
        c = tuple(W.field.add(x, W.field.mul(lam, one)) for x, one in zip(a0, W.unit))
        if invert(end.matrix_of(c)) is not None:
            yield c


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["M2-transpose", "UT3-flip"])
def test_corresponds_names_the_first_generator_where_alpha_is_wrong(field, name):
    A, gamma = _m2_and_ut3(field)[name == "UT3-flip"]
    M = mod.regular_module(A)
    b = random_regular_form(M, forms.standard_double_module(A, gamma), seed=2)
    alpha, end = forms.corresponding_anti_automorphism(b)
    assert verify.corresponds(b, alpha, end) is None
    W = end.algebra
    beta = _conjugate(alpha, end, next(_units_fixing_first_generator(alpha, end)))
    wrong = [u for u in W.generators
             if beta.apply(W.basis_vector(u)) != alpha.apply(W.basis_vector(u))]
    assert wrong and wrong[0] != W.generators[0]
    assert verify.corresponds(b, beta, end) == \
        f"b(w x, y) = b(x, alpha(w) y) fails at End generator {wrong[0]}"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_corresponds_agrees_with_the_round_trip(field):
    # on the forms of this file and the forms form_from_anti_automorphism builds
    # from their maps, for the corresponding map and for conjugates of it
    cases = []
    for A, gamma in _m2_and_ut3(field) + [(alg.matrix_algebra(field, 2),
                                          twisted_transpose_map(alg.matrix_algebra(field, 2)))]:
        M = mod.regular_module(A)
        K = forms.standard_double_module(A, gamma)
        cases += [(M, random_regular_form(M, K, seed)) for seed in (0, 1)]
    FF = alg.field_algebra(field)
    M = mod.free_module(FF, 3)
    cases.append((M, forms.BilinearForm(M, _std_K(FF)[0], [[[int(i == j)] for j in range(3)]
                                                           for i in range(3)])))
    checked = 0
    for M, b in cases:
        alpha, end = forms.corresponding_anti_automorphism(b)
        built = forms.form_from_anti_automorphism(M, alpha, end).form
        betas = [alpha] + [_conjugate(alpha, end, c)
                           for c in _units_fixing_first_generator(alpha, end)]
        for form in (b, built):
            back, _ = forms.corresponding_anti_automorphism(form, end)
            for beta in betas:
                assert (verify.corresponds(form, beta, end) is None) == (back.matrix == beta.matrix)
                checked += back.matrix != beta.matrix
    assert checked > 0


# -- the balancing quotient against the relation rows --------------------

def _built_quotient(monkeypatch, M, alpha, end):
    """The QuotientSpace that form_from_anti_automorphism builds for (M, alpha, end)."""
    built = []
    of_functionals = linalg.QuotientSpace.of_functionals

    def spy(*args):
        built.append(of_functionals(*args))
        return built[-1]

    monkeypatch.setattr(linalg.QuotientSpace, "of_functionals", staticmethod(spy))
    forms.form_from_anti_automorphism(M, alpha, end)
    (quo,) = built
    return quo


def _assert_same_quotient(quo, M, alpha, end, seed):
    """Equal free columns, and equal ``project`` on every unit vector of M (x) M and on
    random vectors; ``lift`` inverts ``project`` on the basis."""
    ref = RelationRowQuotient(M, alpha, end)
    assert quo.free_columns == ref.free_columns
    field, dd = M.algebra.field, M.dim * M.dim
    rng = random.Random(seed)
    vectors = [unit_vector(field, dd, c) for c in range(dd)]
    vectors += [tuple(field.coerce(rng.randint(-9, 9)) for _ in range(dd)) for _ in range(5)]
    for v in vectors:
        assert quo.project(v) == ref.project(v)
    for l in range(quo.dim):
        assert quo.project(quo.lift(unit_vector(field, quo.dim, l))) == unit_vector(field, quo.dim, l)


def _algebra_and_gamma(field, name):
    if name == "M2":
        A = alg.matrix_algebra(field, 2)
        return A, transpose_map(A, 2)
    if name == "UT3":
        A = alg.upper_triangular_algebra(field, 3)
        return A, ut_flip_map(A, 3)
    A = alg.quaternion_algebra(field)
    return A, alg.quaternion_conjugation(A)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("name", ("M2", "UT3", "H"))
@pytest.mark.parametrize("field", (QQ, F5, Field(10007)), ids=str)
def test_balancing_quotient_agrees_with_the_relation_rows(field, name, n, monkeypatch):
    # the gamma-transpose on M_n(A) = End(A^n), as reduce_to_standard realizes it
    A, gamma = _algebra_and_gamma(field, name)
    alpha, end = inv.transpose_gamma(gamma, n), inv.matrix_ring_end_data(A, n)
    quo = _built_quotient(monkeypatch, end.module, alpha, end)
    _assert_same_quotient(quo, end.module, alpha, end, seed=n)


@pytest.mark.parametrize("field", (QQ, F5, Field(10007)), ids=str)
def test_balancing_quotient_without_carried_generators(field, monkeypatch):
    # the regular module of UT_3 through the checking constructor carries no module
    # generators, so the spin of End(M) starts from unit vectors
    A, gamma = _algebra_and_gamma(field, "UT3")
    M = mod.Module(A, A.dim, mod.regular_module(A).action)
    assert M.generators == ()
    sym = _symmetric_form(A, gamma)
    b = forms.BilinearForm(M, sym.values, sym.tensor)
    alpha, end = forms.corresponding_anti_automorphism(b)
    quo = _built_quotient(monkeypatch, M, alpha, end)
    _assert_same_quotient(quo, M, alpha, end, seed=0)

"""Right modules, hom spaces, isomorphism testing, decompositions."""

import itertools
import random

import pytest
from hypothesis import assume, find, given, settings, strategies as st

from fdalg import algebras as alg, forms, involutions as inv, linalg, modules as mod, posets as ps
from fdalg.errors import DimensionError, InconclusiveError
from fdalg.linalg import (Field, Matrix, QQ, RowSpace, block_diag, invert, kernel_rows, kronecker,
                          unit_vector, unvec, vcombine, vec)

from helpers import assert_field_elements, in_basis, transpose_map, two_cycle_algebra, ut_flip_map


F5 = Field(5)


def test_regular_module_basics():
    FQ = alg.field_algebra(QQ)
    R = mod.regular_module(FQ)
    assert R.dim == 1
    M2 = alg.matrix_algebra(QQ, 2)
    R2 = mod.regular_module(M2)
    assert R2.action_of(M2.unit).is_identity()


def test_regular_module_splits_into_columns():
    M2 = alg.matrix_algebra(QQ, 2)
    parts = mod.decompose(mod.regular_module(M2))
    assert sorted(p.dim for p in parts) == [2, 2]
    assert mod.is_isomorphic(parts[0], parts[1]) is not None


def test_hom_space_regular_is_algebra():
    for A in (alg.field_algebra(QQ), alg.matrix_algebra(QQ, 2),
              alg.upper_triangular_algebra(QQ, 2)):
        R = mod.regular_module(A)
        H = mod.hom_space(R, R)
        assert H.dim == A.dim
        # dim Hom(R_R, M) = dim M
        for n in (1, 2):
            M = mod.free_module(A, n)
            assert mod.hom_space(R, M).dim == M.dim


def test_hom_space_schur():
    A = alg.direct_product(alg.matrix_algebra(QQ, 2), alg.field_algebra(QQ))
    parts = mod.decompose(mod.regular_module(A))
    col = next(p for p in parts if p.dim == 2)
    pt = next(p for p in parts if p.dim == 1)
    assert mod.hom_space(col, pt).dim == 0
    assert mod.hom_space(pt, col).dim == 0
    assert mod.hom_space(col, col).dim == 1  # Schur over a split simple


def test_hom_space_algebra_mismatch():
    A = alg.field_algebra(QQ)
    B = alg.matrix_algebra(QQ, 2)
    with pytest.raises(DimensionError):
        mod.hom_space(mod.regular_module(A), mod.regular_module(B))


def test_endomorphism_algebra_of_column_power():
    M2 = alg.matrix_algebra(QQ, 2)
    col = mod.decompose(mod.regular_module(M2))[0]
    M = mod.direct_sum([col, col])
    E, H = mod.endomorphism_algebra(M)
    assert E.dim == 4
    # End(col^2) is a split 2x2 matrix algebra: two orthogonal idempotents
    idems = alg.primitive_idempotents(E)
    assert len(idems) == 2


def test_is_isomorphic_identity_and_negative():
    M2 = alg.matrix_algebra(QQ, 2)
    R = mod.regular_module(M2)
    f = mod.is_isomorphic(R, R)
    assert f is not None and invert(f) is not None
    A = alg.direct_product(M2, alg.field_algebra(QQ))
    parts = mod.decompose(mod.regular_module(A))
    col = next(p for p in parts if p.dim == 2)
    pt = next(p for p in parts if p.dim == 1)
    assert mod.is_isomorphic(col, pt) is None  # dimension obstruction
    two_pts = mod.direct_sum([pt, pt])
    assert mod.is_isomorphic(col, two_pts) is None  # hom-rank obstruction


def test_is_isomorphic_verified_intertwiner():
    M2 = alg.matrix_algebra(QQ, 2)
    R = mod.regular_module(M2)
    T = Matrix(QQ, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, 1]])
    RC = mod.change_of_basis(R, T)
    f = mod.is_isomorphic(R, RC, seed=3)
    assert f is not None
    for t in range(M2.dim):
        assert R.action[t] * f == f * RC.action[t]
    assert invert(f) is not None


def test_is_isomorphic_finite_field_exhaustive_negative():
    # two non-isomorphic modules over F2[x]/(x^2): the regular module and
    # the 2-dim trivial-extension module; hom spaces are nonzero both ways
    F2 = Field(2)
    A = alg.Algebra(F2, ["1", "x"],
                    [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    reg = mod.regular_module(A)
    triv2 = mod.Module(A, 2, [Matrix.identity(F2, 2), Matrix.zeros(F2, 2, 2)])
    assert mod.hom_space(reg, triv2).dim > 0
    assert mod.is_isomorphic(reg, triv2) is None  # exhaustive sweep certifies


def test_decompose_simple_module_is_itself():
    M2 = alg.matrix_algebra(QQ, 2)
    col = mod.decompose(mod.regular_module(M2))[0]
    again = mod.decompose(col)
    assert len(again) == 1 and again[0].dim == 2


def test_decompose_embeddings_conjugate_action():
    A = alg.direct_product(alg.matrix_algebra(QQ, 2), alg.field_algebra(QQ))
    R = mod.regular_module(A)
    pairs = mod.decompose_with_embeddings(R)
    rows = [r for _, emb in pairs for r in emb]
    T = Matrix(QQ, rows, ncols=R.dim)
    assert invert(T) is not None
    for t in range(A.dim):
        blocks = block_diag(QQ, [m.action[t] for m, _ in pairs])
        assert T * R.action[t] == blocks * T


def test_krull_schmidt_random_basis_change():
    M2 = alg.matrix_algebra(QQ, 2)
    R = mod.regular_module(M2)
    rng = random.Random(5)
    for _ in range(3):
        while True:
            T = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if invert(T) is not None:
                break
        parts = mod.decompose(mod.change_of_basis(R, T))
        assert sorted(p.dim for p in parts) == [2, 2]


@pytest.mark.parametrize("A", [alg.matrix_algebra(QQ, 2),
                               alg.upper_triangular_algebra(Field(10007), 3)],
                         ids=["M2-Q", "UT3-GF10007"])
def test_decompose_sees_a_regular_action_built_from_json(A, monkeypatch):
    from fdalg import cli

    expected = mod.decompose_with_embeddings(mod.regular_module(A), seed=0)
    # what module_from_json builds when the input spells out the regular action
    rights = [A.right_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    M = cli.module_from_json(A, {"dim": A.dim, "action": [cli.matrix_json(r) for r in rights]})

    def no_end(M):
        raise AssertionError("the End(M) path was taken for a regular action")

    monkeypatch.setattr(mod, "endomorphism_algebra", no_end)
    got = mod.decompose_with_embeddings(M, seed=0)
    assert [(S.dim, S.action, basis) for S, basis in got] == [
        (S.dim, S.action, basis) for S, basis in expected]


def test_decompose_scharlau_regular_module():
    from fdalg import posets as ps

    A = ps.incidence_algebra(QQ, ps.scharlau_poset())
    parts = mod.decompose(mod.regular_module(A))
    assert len(parts) == 12
    assert sorted(p.dim for p in parts) == sorted(
        len(ps.scharlau_poset().up_set(i)) for i in range(12)
    )


def test_summand_endomorphisms_local():
    ut3 = alg.upper_triangular_algebra(QQ, 3)
    for p in mod.decompose(mod.regular_module(ut3)):
        E, _ = mod.endomorphism_algebra(p)
        idems = alg.primitive_idempotents(E)
        assert len(idems) == 1


def test_projective_and_generator_tests():
    M2 = alg.matrix_algebra(QQ, 2)
    R = mod.regular_module(M2)
    col = mod.decompose(R)[0]
    assert mod.is_projective(R) and mod.is_generator(R)
    assert mod.is_projective(col) and mod.is_generator(col)  # Morita: col generates
    ut = alg.upper_triangular_algebra(QQ, 2)
    parts = mod.decompose(mod.regular_module(ut))
    small = next(p for p in parts if p.dim == 1)
    assert mod.is_projective(small)
    assert not mod.is_generator(small)
    # a non-projective module over F[x]/(x^2): the 1-dim trivial module
    A = alg.Algebra(QQ, ["1", "x"],
                    [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    triv = mod.Module(A, 1, [Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)])
    assert not mod.is_projective(triv)
    assert mod.is_projective(mod.regular_module(A))


def _intertwining_solutions(M, N):
    """Reduced echelon basis of the solutions F of rho_M(a) F = F rho_N(a) for
    every basis element a at once, one equation per entry (i, l) of each,
    unknown F[j][k] in column j*m + k."""
    field = M.algebra.field
    n, m = M.dim, N.dim
    rows = []
    for rM, rN in zip(M.action, N.action):
        for i in range(n):
            for l in range(m):
                row = [0] * (n * m)
                for j in range(n):
                    row[j * m + l] += rM[i, j]
                for k in range(m):
                    row[i * m + k] -= rN[k, l]
                rows.append(row)
    space = RowSpace(field, n * m)
    space.extend(kernel_rows(Matrix(field, rows, ncols=n * m)))
    return space.rows


def _assert_hom_space_solves_every_equation(X, Y):
    assert [vec(f) for f in mod.hom_space(X, Y).basis] == _intertwining_solutions(X, Y)


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_hom_space_dimension_is_the_nullity_of_all_equations(field):
    UT3 = alg.upper_triangular_algebra(field, 3)
    P = [mod.principal_right_module(UT3, UT3.basis_vector(t)) for t in (0, 3, 5)]
    M2 = alg.matrix_algebra(field, 2)
    Q = [mod.principal_right_module(M2, M2.basis_vector(t)) for t in (0, 3)]
    pairs = [
        (mod.direct_sum([P[0], P[1]]), mod.direct_sum([P[1], P[2], P[2]])),
        (mod.direct_sum([P[2], P[0]]), mod.direct_sum([P[0], P[1]])),
        (mod.direct_sum([Q[0], Q[1]]), mod.direct_sum([Q[0], Q[0], Q[1]])),
    ]
    dims = []
    for M, N in pairs:
        for X, Y in ((M, N), (N, M)):
            dims.append(mod.hom_space(X, Y).dim)
            _assert_hom_space_solves_every_equation(X, Y)
    assert min(dims) > 0


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_hom_space_in_a_random_basis_solves_every_equation(field):
    # UT_3 in a basis with fractional entries, so no basis element is a
    # matrix unit; its modules meet the generators in that basis only
    rng = random.Random(3)
    UT3 = alg.upper_triangular_algebra(field, 3)
    while True:
        P = Matrix(field, [[field.coerce(f"{rng.randint(-2, 2)}/{rng.randint(1, 3)}")
                            for _ in range(6)] for _ in range(6)])
        Pinv = invert(P)
        if Pinv is not None:
            break
    B = in_basis(UT3, P)
    R = mod.regular_module(B)
    # e_ii B for the idempotents e11, e22, e33 of UT_3
    parts = [mod.principal_right_module(B, Pinv.act_row(UT3.basis_vector(t))) for t in (0, 3, 5)]
    for X, Y in [(R, R), *((X, Y) for X in parts for Y in parts), (parts[0], R)]:
        _assert_hom_space_solves_every_equation(X, Y)


def test_hom_space_over_a_one_dimensional_algebra_is_every_matrix():
    F = alg.field_algebra(QQ)
    M = mod.free_module(F, 2)
    N = mod.free_module(F, 3)
    assert F.generators == ()
    assert mod.hom_space(M, N).dim == 6
    _assert_hom_space_solves_every_equation(M, N)



# -- hom_space against the solver it replaced ---------------------------

def _hom_basis_by_kronecker(M, N):
    """The solver hom_space used before spinning: the kernel of the first
    generator's system vec(F) (rho_M (x) I - I (x) rho_N^T) = 0, cut down by
    the equations of each further generator in turn."""
    field = M.algebra.field
    n, m = M.dim, N.dim
    nm = n * m
    if nm == 0:
        return []
    gens = M.algebra.generators
    if not gens:
        basis_vecs = [unit_vector(field, nm, i) for i in range(nm)]
    else:
        rhoM, rhoN = M.action[gens[0]], N.action[gens[0]]
        basis_vecs = kernel_rows(kronecker(rhoM, Matrix.identity(field, m))
                                 - kronecker(Matrix.identity(field, n), rhoN.transpose()))
    for t in gens[1:]:
        if not basis_vecs:
            break
        rhoM, rhoN = M.action[t], N.action[t]
        rows = tuple(vec(rhoM * B - B * rhoN) for B in (unvec(field, v, n, m) for v in basis_vecs))
        coeffs = kernel_rows(Matrix._trusted(field, rows, nm).transpose())
        basis_vecs = [vcombine(field, nm, cf, basis_vecs) for cf in coeffs]
    space = RowSpace(field, nm)
    space.extend(basis_vecs)
    return [unvec(field, v, n, m) for v in space.rows]


def _hom_space_and_systems(M, N):
    """hom_space(M, N) and the matrices whose kernels it took."""
    systems = []

    def recording(S):
        systems.append(S)
        return linalg.kernel_rows(S)

    mod.kernel_rows = recording
    try:
        return mod.hom_space(M, N), systems
    finally:
        mod.kernel_rows = linalg.kernel_rows


def _ut_simple(A, n, i):
    """The 1-dimensional simple module of UT_n on which e_ii acts as 1."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return mod.Module(A, 1, [Matrix(A.field, [[int(p == (i, i))]]) for p in pairs])


@st.composite
def hom_cases(draw, field):
    """(M, N) over M_2, UT_3 or the field itself: regular and free modules,
    changes of basis, principal and spun submodules, sums of simples,
    duals and the zero module."""
    name = draw(st.sampled_from(["M2", "UT3", "F"]))
    A = (alg.matrix_algebra(field, 2) if name == "M2" else
         alg.upper_triangular_algebra(field, 3) if name == "UT3" else alg.field_algebra(field))
    R = mod.regular_module(A)
    small = st.integers(-2, 2)
    T = Matrix(field, draw(st.lists(st.lists(small, min_size=A.dim, max_size=A.dim),
                                    min_size=A.dim, max_size=A.dim)))
    assume(invert(T) is not None)
    v = A.coerce_element(draw(st.lists(small, min_size=A.dim, max_size=A.dim)))
    mods = [R, mod.free_module(A, 2), mod.change_of_basis(R, T), mod.submodule(R, [v])[0],
            mod.principal_right_module(A, A.basis_vector(0)), mod.submodule(R, [])[0]]
    mods.append(mod.direct_sum([mods[4], R]))
    if name != "F":
        gamma = transpose_map(A, 2) if name == "M2" else ut_flip_map(A, 3)
        K = forms.standard_double_module(A, gamma)
        mods += [forms.dual_module(mods[3], K, 1)[0], forms.dual_module(R, K, 0)[0]]
    if name == "UT3":
        S = [_ut_simple(A, 3, i) for i in range(3)]
        mods += [mod.direct_sum([S[0], S[2]]), mod.direct_sum([S[1], S[0], S[1]])]
    return draw(st.sampled_from(mods)), draw(st.sampled_from(mods))


@pytest.mark.parametrize("field", [QQ, F5, Field(2 ** 61 - 1)], ids=str)
def test_hom_space_matches_the_kronecker_solver(field):
    @given(hom_cases(field))
    @settings(max_examples=40, deadline=None)
    def check(case):
        M, N = case
        H = mod.hom_space(M, N)
        assert H.basis == _hom_basis_by_kronecker(M, N)
        assert_field_elements(field, [x for f in H.basis for row in f.rows for x in row])

    check()


def _spun_generators(case):
    """K, the number of module generators hom_space spun M from."""
    M, N = case
    _, systems = _hom_space_and_systems(M, N)
    return systems[0].ncols // N.dim if N.dim and systems else 0


@pytest.mark.parametrize("field", [QQ, F5, Field(2 ** 61 - 1)], ids=str)
def test_hom_cases_reach_several_module_generators(field):
    # changes of basis, free modules and sums of simples are spun from two
    # or more unit vectors, so the differential test meets K >= 2
    M, _ = find(hom_cases(field), lambda case: _spun_generators(case) >= 2,
                settings=settings(max_examples=500, database=None))
    assert M.dim >= 2


@pytest.mark.parametrize("field", [QQ, F5, Field(2 ** 61 - 1)], ids=str)
def test_generator_image_coordinates_match_the_full_lookup(field):
    @given(hom_cases(field), st.data())
    @settings(max_examples=40, deadline=None)
    def check(case, data):
        M, N = case
        H = mod.hom_space(M, N)
        coeffs = tuple(map(field.coerce, data.draw(st.lists(st.integers(-3, 3), min_size=H.dim,
                                                            max_size=H.dim))))
        F = H.matrix_from_coords(coeffs)
        full = RowSpace(field, M.dim * N.dim)
        full.extend(map(vec, H.basis))
        assert H.coords_of(H.generators * F) == full.coordinates(vec(F)) == coeffs

    check()


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_carried_generators_are_the_fewest(field):
    def spun(M):
        return mod.hom_space(M, M).generators.nrows

    for A in (alg.matrix_algebra(field, 3), alg.upper_triangular_algebra(field, 3)):
        R = mod.regular_module(A)
        assert spun(R) == 1
        assert [spun(mod.free_module(A, n)) for n in (2, 3)] == [2, 3]
        assert spun(mod.principal_right_module(A, A.basis_vector(0))) == 1    # e11 A
        T = Matrix(field, [[int(j >= i) for j in range(A.dim)] for i in range(A.dim)])
        assert spun(mod.change_of_basis(R, T)) == 1
        # the same action with no carried generator is spun from unit vectors
        assert spun(mod.Module(A, A.dim, R.action)) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hom_space_from_a_free_module_solves_for_n_dim_n_unknowns(n):
    # on these bases e_0 = 1, so each copy of A in A^n is spun from one unit
    # vector: n dim N unknowns, where the matrix entries would be n dim A dim N
    M2 = alg.matrix_algebra(QQ, 2)
    unit_first = in_basis(M2, Matrix(QQ, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    for A in (alg.quaternion_algebra(QQ), unit_first):
        for N in (mod.regular_module(A), mod.principal_right_module(A, A.basis_vector(3))):
            H, systems = _hom_space_and_systems(mod.free_module(A, n), N)
            assert [S.ncols for S in systems] == [n * N.dim]
            assert H.dim == n * N.dim


def _m2_x_ut2(field):
    return alg.direct_product(alg.matrix_algebra(field, 2), alg.upper_triangular_algebra(field, 2))


@pytest.mark.parametrize("build, counts", [
    (lambda: alg.matrix_algebra(QQ, 3), [3]),
    (lambda: alg.upper_triangular_algebra(QQ, 3), [1, 1, 1]),
    (lambda: _m2_x_ut2(QQ), [1, 1, 2]),
    (lambda: ps.incidence_algebra(QQ, ps.scharlau_poset()), [1] * 12),
], ids=["M3", "UT3", "M2xUT2", "scharlau"])
def test_projective_classes_group_the_principal_modules(build, counts):
    A = build()
    idems = alg.primitive_idempotents(A)
    classes = mod.projective_classes(A)
    assert sorted(n for _, _, n in classes) == counts
    # each class is named by the first idempotent whose eA lies in it
    firsts = [idems.index(e) for e, _, _ in classes]
    assert firsts[0] == 0 and firsts == sorted(firsts)
    for e, P, _ in classes:
        Q = mod.principal_right_module(A, e)
        assert (P.dim, P.action) == (Q.dim, Q.action)
    for (_, P, _), (_, Q, _) in itertools.combinations(classes, 2):
        assert mod.is_isomorphic(P, Q) is None


@given(st.sampled_from((QQ, Field(101), Field(2 ** 61 - 1))), st.data())
@settings(max_examples=25, deadline=None)
def test_idempotent_classes_group_as_is_isomorphic_does(field, data):
    F = alg.field_algebra(field)
    A = data.draw(st.sampled_from([
        _m2_x_ut2(field),
        alg.direct_product(alg.matrix_algebra(field, 2), alg.direct_product(F, F)),
        alg.direct_product(alg.upper_triangular_algebra(field, 3), F),
        two_cycle_algebra(field)]))
    P = Matrix(field, data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=A.dim,
                                                  max_size=A.dim),
                                         min_size=A.dim, max_size=A.dim)))
    assume(invert(P) is not None)
    B = in_basis(A, P)
    classes = alg.idempotent_classes(B)
    assert [e for cls in classes for e in cls] == alg.primitive_idempotents(B)
    labelled = [(k, mod.principal_right_module(B, e))
                for k, cls in enumerate(classes) for e in cls]
    for (k, X), (m, Y) in itertools.combinations(labelled, 2):
        try:
            iso = mod.is_isomorphic(X, Y)
        except InconclusiveError:
            continue
        assert (iso is not None) == (k == m)


def _componentwise_transpose(A, n):
    """On M_n x F: the transpose on M_n and the identity on F."""
    tr = transpose_map(alg.matrix_algebra(A.field, n), n)
    imgs = [tr.apply(A.basis_vector(i)[:n * n]) + (0,) for i in range(n * n)]
    return alg.AlgebraMap.from_images(A, A, imgs + [A.basis_vector(n * n)], alg.AlgebraMap.ANTI)


def _m3_transpose():
    A = alg.matrix_algebra(QQ, 3)
    return A, transpose_map(A, 3)


def _ut3_flip():
    A = alg.upper_triangular_algebra(QQ, 3)
    return A, ut_flip_map(A, 3)


def _m2_x_f_transpose():
    A = alg.direct_product(alg.matrix_algebra(QQ, 2), alg.field_algebra(QQ))
    return A, _componentwise_transpose(A, 2)


@pytest.mark.parametrize("build", [_m3_transpose, _ut3_flip, _m2_x_f_transpose],
                         ids=["M3", "UT3", "M2xF"])
def test_duality_orbit_reads_the_projective_classes(build):
    A, gamma = build()
    classes = mod.projective_classes(A)
    orb = inv.duality_orbit(A, forms.standard_double_module(A, gamma))
    assert orb.multiplicities == [n for _, _, n in classes]
    assert [(P.dim, P.action) for P in orb.representatives] == \
        [(P.dim, P.action) for _, P, _ in classes]


@given(st.sampled_from((QQ, F5, Field(2 ** 61 - 1))), st.data())
@settings(max_examples=25, deadline=None)
def test_principal_module_spun_from_e_is_the_whole_right_ideal(field, data):
    F = alg.field_algebra(field)
    A = data.draw(st.sampled_from([alg.matrix_algebra(field, 2),
                                   alg.upper_triangular_algebra(field, 3),
                                   alg.direct_product(F, F), _m2_x_ut2(field)]))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    P = Matrix(field, data.draw(st.lists(st.lists(entry, min_size=A.dim, max_size=A.dim),
                                         min_size=A.dim, max_size=A.dim)))
    assume(invert(P) is not None)
    B = in_basis(A, P)
    e = B.coerce_element(data.draw(st.lists(st.integers(-2, 2), min_size=B.dim, max_size=B.dim)))
    R = mod.regular_module(B)
    whole, whole_basis = mod.submodule(R, [B.mul(e, B.basis_vector(i)) for i in range(B.dim)])
    spun, spun_basis = mod.submodule(R, [e])
    assert (spun.dim, spun.action, spun_basis) == (whole.dim, whole.action, whole_basis)
    P = mod.principal_right_module(B, e)
    assert (P.dim, P.action) == (whole.dim, whole.action)


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_submodule_of_a_non_regular_module_is_closed_under_every_basis_action(field):
    A = _m2_x_ut2(field)
    assert len(A.generators) < A.dim
    # A + e11 A + (0, e22) A: dimensions 7, 2 and 1
    summands = mod.direct_sum([mod.regular_module(A),
                               mod.principal_right_module(A, A.basis_vector(0)),
                               mod.principal_right_module(A, A.basis_vector(6))])
    rng = random.Random(3)
    while True:
        T = Matrix(field, [[rng.randint(-2, 2) for _ in range(summands.dim)]
                           for _ in range(summands.dim)])
        if invert(T) is not None:
            break
    M = mod.change_of_basis(summands, T)
    # x in the sum is x T in M; draw x inside one summand or two
    for lo, hi in [(0, 7), (7, 9), (9, 10), (7, 10), (0, 7), (0, 9)]:
        gens = [T.act_row([field.coerce(rng.choice((0, 1, -1, 2))) if lo <= j < hi else 0
                           for j in range(M.dim)]) for _ in range(rng.randint(1, 2))]
        # reference: close the span under the action of every basis element
        space, frontier = RowSpace(field, M.dim), list(gens)
        space.extend(gens)
        while frontier:
            frontier = [w for w in (rho.act_row(v) for v in frontier for rho in M.action)
                        if space.insert(w)]
        S, basis = mod.submodule(M, gens)
        assert basis == space.rows
        d = len(basis)
        assert S.action == tuple(Matrix(field, [space.coordinates(rho.act_row(b)) for b in basis],
                                        ncols=d) for rho in M.action)

"""fdalg.verify: every checker passes on constructed objects and names the
equation and basis tuple that a one-entry perturbation breaks."""

from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from fdalg import algebras as alg, forms, modules as mod, posets, verify
from fdalg.errors import VerificationError
from fdalg.linalg import Field, Matrix, QQ, RowSpace, vcombine, vec_is_zero, vpairs

from helpers import connected_posets, dense_table, transpose_map

M2 = alg.matrix_algebra(QQ, 2)          # basis e11, e12, e21, e22
TR = transpose_map(M2, 2)
REG = mod.regular_module(M2)
K = forms.standard_double_module(M2, TR)
THETA = forms.standard_involution(K, TR)


def bump(m: Matrix, i: int, j: int) -> Matrix:
    """m with 1 added to entry (i, j)."""
    rows = [list(r) for r in m.rows]
    rows[i][j] += 1
    return Matrix(m.field, rows, ncols=m.ncols)


def bump_vector(v, i: int) -> tuple:
    return tuple(x + (k == i) for k, x in enumerate(v))


def anti(matrix: Matrix) -> alg.AlgebraMap:
    return alg.AlgebraMap._trusted(M2, M2, matrix, alg.AlgebraMap.ANTI)


def form_tensor():
    """b(x, y) = gamma(x) y on M2 with values in the standard double module."""
    e = M2.basis_vector
    return [[list(M2.mul(TR.apply(e(i)), e(j))) for j in range(4)] for i in range(4)]


def test_require_raises_the_message():
    verify.require(None)
    with pytest.raises(VerificationError, match="law fails at basis pair"):
        verify.require("law fails at basis pair (0, 1)")


def test_associative_unital():
    assert verify.associative_unital(M2) is None
    table = [[list(cell) for cell in row] for row in dense_table(M2)]
    table[1][2][0] += 1                  # e12 e21 = 2 e11
    bad = alg.Algebra._trusted(QQ, M2.basis_names, alg.sparse_table(QQ, table), M2.unit)
    # (e12 e21) e12 = 2 e12 but e12 (e21 e12) = e12
    assert verify.associative_unital(bad) == "associativity fails at basis triple (1, 2, 1)"
    unit = alg.Algebra._trusted(QQ, M2.basis_names, alg.sparse_table(QQ, dense_table(M2)),
                                bump_vector(M2.unit, 1))
    assert verify.associative_unital(unit) == "unit law fails at basis element 0"


# -- the associativity certificate on generators -------------------------

GF101 = Field(101)


def _unperturbed(field):
    M2 = alg.matrix_algebra(field, 2)
    return (M2, alg.upper_triangular_algebra(field, 3), alg.quaternion_algebra(field, -1, -1),
            alg.direct_product(M2, alg.field_algebra(field)))


UNPERTURBED = {field: _unperturbed(field) for field in (QQ, GF101)}


def perturbed(A, entries, unit_moves=()):
    """A on its own basis with delta added to table[i][j][k] for each (i, j, k, delta)
    in ``entries`` and to unit[k] for each (k, delta) in ``unit_moves``, unchecked."""
    field = A.field
    table = [[list(cell) for cell in row] for row in dense_table(A)]
    for i, j, k, delta in entries:
        table[i][j][k] = field.add(table[i][j][k], field.coerce(delta))
    unit = list(A.unit)
    for k, delta in unit_moves:
        unit[k] = field.add(unit[k], field.coerce(delta))
    return alg.Algebra._trusted(field, A.basis_names, alg.sparse_table(field, table), unit)


@st.composite
def perturbed_algebras(draw):
    """M2, UT3, the quaternions (-1, -1) or M2 x F over QQ or GF(101), with one or
    two table entries and sometimes one unit coordinate moved by -2..2."""
    A = draw(st.sampled_from(UNPERTURBED[draw(st.sampled_from((QQ, GF101)))]))
    index, delta = st.integers(0, A.dim - 1), st.integers(-2, 2)
    entries = draw(st.lists(st.tuples(index, index, index, delta), min_size=1, max_size=2))
    unit_moves = draw(st.lists(st.tuples(index, delta), max_size=1))
    return perturbed(A, entries, unit_moves)


def every_basis_tuple(X):
    """The oracle: the first basis element breaking the unit law (or None), and
    every basis triple breaking associativity, all computed with X.mul."""
    e = [X.basis_vector(i) for i in range(X.dim)]
    unit = next((i for i in range(X.dim)
                 if not X.mul(X.unit, e[i]) == e[i] == X.mul(e[i], X.unit)), None)
    triples = {(i, j, k) for i in range(X.dim) for j in range(X.dim) for k in range(X.dim)
               if X.mul(X.mul(e[i], e[j]), e[k]) != X.mul(e[i], X.mul(e[j], e[k]))}
    return unit, triples


@given(perturbed_algebras())
@example(perturbed(UNPERTURBED[QQ][1], [(1, 4, 2, 1)]))    # e12 e23 = 2 e13 is still UT3
@settings(max_examples=150, deadline=None)
def test_associative_unital_agrees_with_every_basis_triple(X):
    unit, triples = every_basis_tuple(X)
    msg = verify.associative_unital(X)
    assert (msg is None) == (unit is None and not triples)
    if unit is not None:
        assert msg == f"unit law fails at basis element {unit}"
    elif triples:
        # the least failing triple in (g, j, k) order whose first index is a generator
        first = min(t for t in triples if t[0] in X.generators)
        assert msg == "associativity fails at basis triple ({}, {}, {})".format(*first)


@pytest.mark.parametrize("outcome", ["passes", "unit law", "associativity"])
def test_perturbed_algebras_reach_every_outcome(outcome):
    find(perturbed_algebras(),
         lambda X: (verify.associative_unital(X) or "passes").split(" fails")[0] == outcome,
         settings=settings(max_examples=500, database=None))


def test_associative_unital_reports_the_unit_law_first():
    bad = perturbed(M2, [(0, 1, 1, 1)])  # e11 e12 = 2 e12
    # (e11 e11) e12 = 2 e12 but e11 (e11 e12) = 4 e12, and 1 e12 = 2 e12
    unit, triples = every_basis_tuple(bad)
    assert unit == 1 and (0, 0, 1) in triples
    assert verify.associative_unital(bad) == "unit law fails at basis element 1"


def test_algebra_map_checkers():
    assert verify.algebra_map(TR) is None
    assert verify.bijective(TR.matrix) is None
    assert verify.squares_to_identity(TR.matrix) is None
    assert verify.unit_preserved(anti(bump(TR.matrix, 0, 0))) == "unit law f(1) = 1 fails"
    f = anti(bump(TR.matrix, 1, 2))      # e21 -> e12 + e21
    assert verify.unit_preserved(f) is None
    assert verify.multiplicative(f) == "anti_homomorphism law fails at basis pair (1, 2)"
    assert verify.algebra_map(f) == verify.multiplicative(f)
    singular = Matrix.identity(QQ, 4) - Matrix(QQ, [[int(i == j == 3) for j in range(4)]
                                                    for i in range(4)])
    assert verify.bijective(singular) == "map is not bijective"
    assert verify.squares_to_identity(f.matrix) == "map does not square to the identity"


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_multiplicative_catches_a_map_that_first_fails_off_the_generators(field):
    # f = id except f(e21) = e21 + 2 e11: f(1) = 1, and f(e12 e_j) = f(e12) f(e_j)
    # for every j, so only the second generator e21 shows the failure
    A = alg.matrix_algebra(field, 2)
    assert A.generators == (1, 2)                   # e12, e21; e11 is not one
    f = alg.AlgebraMap._trusted(A, A, bump(bump(Matrix.identity(field, 4), 0, 2), 0, 2),
                                alg.AlgebraMap.HOMOMORPHISM)
    images = [f.apply(A.basis_vector(i)) for i in range(4)]
    failing = [(i, j) for i in range(4) for j in range(4)
               if f.apply(A.product(i, j)) != A.mul(images[i], images[j])]
    # in basis order the law first fails at e11 e21 = 0, whose first index is no generator
    assert failing[0] == (0, 2)
    assert not [pair for pair in failing if pair[0] == A.generators[0]]
    assert verify.unit_preserved(f) is None
    assert verify.multiplicative(f) == "homomorphism law fails at basis pair (2, 1)"
    assert verify.algebra_map(f) == verify.multiplicative(f)
    with pytest.raises(VerificationError, match=r"^homomorphism law fails at basis pair \(2, 1\)$"):
        alg.AlgebraMap(A, A, f.matrix, alg.AlgebraMap.HOMOMORPHISM)


def test_central():
    assert verify.central(M2, alg.center(M2).basis) is None
    # 1 + e12 is not central: e11 (1 + e12) = e11 + e12, (1 + e12) e11 = e11
    z = bump_vector(M2.unit, 1)
    assert verify.central(M2, [M2.unit, z]) == \
        "z e_i = e_i z fails at (vector 1, basis element 0)"


def test_goldman():
    T, g = alg.goldman_element(2, QQ)
    assert verify.goldman(T, 4, g) is None
    assert verify.goldman(T, 4, bump_vector(g, 1)) == "g^2 = 1 fails"
    # 1 squares to 1 but does not swap the tensor factors
    assert verify.goldman(T, 4, T.unit) == "Goldman swap law fails at basis pair (0, 1)"


def test_nilpotent_ideal():
    UT3 = alg.upper_triangular_algebra(QQ, 3)   # basis e11 e12 e13 e22 e23 e33
    J = alg.jacobson_radical(UT3)
    assert verify.nilpotent_ideal(UT3, J) is None
    # e11 + e12 is not in the radical: (e11 + e12) e11 = e11 leaves the span
    bad = [bump_vector(J[0], 0)] + J[1:]
    assert verify.nilpotent_ideal(UT3, bad) == "ideal law fails at (vector 0, basis element 0)"
    # the span of e11 is an ideal of F x F, but not nilpotent
    F2 = alg.direct_product(alg.field_algebra(QQ), alg.field_algebra(QQ))
    assert verify.nilpotent_ideal(F2, [F2.basis_vector(0)]) == "the ideal is not nilpotent"


def products_span(A, us, vs) -> RowSpace:
    """The span of the products u v, each formed with A.mul."""
    space = RowSpace(A.field, A.dim)
    for u in us:
        for v in vs:
            w = A.mul(u, v)
            if not vec_is_zero(w):
                space.insert(w)
    return space


def power_chain(A, basis):
    """The oracle: the ideal law on the generators by A.mul, then the chain
    J^(k+1) = J^k J, one power at a time, for at most dim A powers."""
    space = RowSpace(A.field, A.dim)
    space.extend(basis)
    for k, v in enumerate(basis):
        for i in A.generators:
            e = A.basis_vector(i)
            if not space.contains(A.mul(v, e)) or not space.contains(A.mul(e, v)):
                return f"ideal law fails at (vector {k}, basis element {i})"
    current = list(basis)
    for _ in range(A.dim):
        current = products_span(A, current, basis).rows
        if not current:
            return None
    return "the ideal is not nilpotent"


NIL_FIELDS = (QQ, GF101, Field(2 ** 61 - 1))


def generated_ideal(A, vectors) -> list:
    """The echelon basis of the two-sided ideal of A generated by ``vectors``."""
    space, todo = RowSpace(A.field, A.dim), list(vectors)
    while todo:
        v = todo.pop()
        if space.insert(v):
            for i in range(A.dim):
                e = A.basis_vector(i)
                todo += [A.mul(v, e), A.mul(e, v)]
    return list(space.rows)


@st.composite
def spans(draw):
    """(A, vectors): A is UT_n or the incidence algebra of a random connected poset
    over QQ, GF(101) or GF(2^61 - 1), sometimes times the field, and the vectors are
    up to three combinations of its radical or of its basis, sometimes closed into
    the two-sided ideal they generate."""
    field = draw(st.sampled_from(NIL_FIELDS))
    if draw(st.booleans()):
        A = alg.upper_triangular_algebra(field, draw(st.integers(1, 4)))
    else:
        A = posets.incidence_algebra(field, draw(connected_posets(4)))
    if draw(st.booleans()):
        A = alg.direct_product(A, alg.field_algebra(field))
    pool = alg.jacobson_radical(A) if draw(st.booleans()) else \
        [A.basis_vector(i) for i in range(A.dim)]
    coeffs = st.lists(st.integers(-2, 2), min_size=len(pool), max_size=len(pool))
    vectors = [field.coerce_row(vcombine(field, A.dim, draw(coeffs), pool))
               for _ in range(draw(st.integers(0, 3)))]
    return A, generated_ideal(A, vectors) if draw(st.booleans()) else vectors


@given(spans())
@settings(max_examples=150, deadline=None)
def test_nilpotent_ideal_agrees_with_the_power_chain(case):
    assert verify.nilpotent_ideal(*case) == power_chain(*case)


@pytest.mark.parametrize("outcome", ["passes", "ideal law", "the ideal is not nilpotent"])
def test_spans_reach_every_nilpotency_outcome(outcome):
    find(spans(), lambda case: (verify.nilpotent_ideal(*case) or "passes").split(" fails")[0]
         == outcome, settings=settings(max_examples=500, database=None, phases=[Phase.generate]))


def test_nilpotent_ideal_squares_the_chain(monkeypatch):
    UT = alg.upper_triangular_algebra(QQ, 10)
    J = alg.jacobson_radical(UT)
    seen, product, ideal = [], UT._mul_pairs, verify.ideal

    def record(xs, ys):
        seen.append((list(xs), list(ys)))
        return product(xs, ys)

    def ideal_then_forget(A, vectors):
        msg = ideal(A, vectors)
        seen.clear()
        return msg

    monkeypatch.setattr(UT, "_mul_pairs", record)
    monkeypatch.setattr(verify, "ideal", ideal_then_forget)
    assert verify.nilpotent_ideal(UT, J) is None
    # J^k is spanned by the e_ij with j - i >= k, of dimension (10 - k)(11 - k)/2.
    # The chain squares J, J^2, J^4 and J^8 (J^16 = 0), each through the products
    # u v of the rows u, v of its echelon basis; J^(k+1) = J^k J would form 9 powers.
    power, start = J, 0
    for k in (1, 2, 4, 8):
        oracle = RowSpace(QQ, UT.dim)
        oracle.extend(power)
        assert oracle.dim == (10 - k) * (11 - k) // 2
        rows = [vpairs(r) for r in oracle.rows]
        pairs = [(u, v) for u in rows for v in rows]
        assert seen[start:start + len(pairs)] == pairs
        power, start = products_span(UT, power, power).rows, start + len(pairs)
    assert start == len(seen) and power == []


@pytest.mark.parametrize("field", (QQ, GF101), ids=str)
@pytest.mark.parametrize("make", [lambda F: alg.upper_triangular_algebra(F, 10),
                                  lambda F: posets.incidence_algebra(F, posets.scharlau_poset())],
                         ids=["UT10", "incidence"])
def test_structure_certificates_build_no_matrices(field, make, monkeypatch):
    # the certificates on structure constants read the stored rows through one
    # product on (index, entry) pairs: no multiplication matrix, no Matrix product
    J = alg.jacobson_radical(make(field))

    def refuse(*args):
        raise AssertionError("a matrix was built")

    for name in ("left_mult_matrix", "right_mult_matrix"):
        monkeypatch.setattr(alg.Algebra, name, refuse)
    monkeypatch.setattr(Matrix, "__mul__", refuse)
    A = make(field)                      # generators are cached per algebra
    basis = [A.basis_vector(i) for i in range(A.dim)]
    assert A.generators
    assert verify.unital(A) is None
    assert verify.ideal(A, J) is None and verify.nilpotent_ideal(A, J) is None
    assert verify.ideal(A, [A.unit[:-1] + (0,)]).startswith("ideal law fails at (vector 0")
    assert verify.nilpotent_ideal(A, basis) == "the ideal is not nilpotent"


def test_idempotent_checkers():
    idems = alg.primitive_idempotents(M2)
    assert verify.complete_orthogonal(M2, idems) is None
    assert verify.primitive(M2, idems) is None
    e11, e22 = idems
    assert verify.idempotents(M2, [e11, bump_vector(e22, 3)]) == \
        "e^2 = e != 0 fails at element 1"
    assert verify.orthogonal(M2, [e11, bump_vector(e22, 0)]) == \
        "e f = 0 fails at pair (0, 1)"
    assert verify.sum_to_unit(M2, [e11]) == "the elements do not sum to 1"
    assert verify.complete_orthogonal(M2, [e11]) == "the elements do not sum to 1"
    assert verify.primitive(M2, [e11, M2.unit]) == \
        "idempotent 1 is not primitive: e A e has dimension 4"


def test_same_block():
    F2 = alg.direct_product(alg.field_algebra(QQ), alg.field_algebra(QQ))
    e1, e2 = F2.basis_vector(0), F2.basis_vector(1)
    assert verify.same_block(F2, [[e1], [e2]]) is None
    # e1 (F x F) e2 = 0, so e1 and e2 cannot share a block
    assert verify.same_block(F2, [[e1, e2]]) == \
        "e A f != 0 iff f is in the block of e fails at (block 0, block 0, element 1)"
    e11, e22 = M2.basis_vector(0), M2.basis_vector(3)
    assert verify.same_block(M2, [[e11, e22]]) is None
    # e11 M_2 e22 holds e12, so e11 and e22 cannot lie in different blocks
    assert verify.same_block(M2, [[e11], [e22]]) == \
        "e A f != 0 iff f is in the block of e fails at (block 0, block 1, element 0)"


def test_module_action():
    assert verify.module_action(M2, REG.action) is None
    action = list(REG.action)
    action[1] = bump(action[1], 0, 0)
    # pairs (e_i, e_g) with e_g a generator (e12, e21): (0, 1) and (0, 2) hold
    assert verify.module_action(M2, action) == \
        "action is not multiplicative at basis pair (1, 1)"
    unit = [bump(m, 0, 0) if t in (0, 3) else m for t, m in enumerate(REG.action)]
    assert verify.module_action(M2, unit) == "unit does not act as the identity"


def test_module_action_checks_basis_elements_that_are_not_generators():
    assert 0 not in M2.generators                   # e11
    E = bump(Matrix.zeros(QQ, 4, 4), 1, 1)
    action = list(REG.action)
    action[0] = action[0] + E
    assert verify.module_action(M2, action) == "unit does not act as the identity"
    # the same change taken off rho(e22) keeps rho(1) = 1, but rho(e11) rho(e21) != 0
    action[3] = action[3] - E
    assert verify.module_action(M2, action) == \
        "action is not multiplicative at basis pair (0, 2)"


def test_intertwines():
    H = mod.hom_space(REG, REG)
    assert verify.intertwines(M2, REG.action, REG.action, *H.basis) is None
    assert verify.intertwines(M2, REG.action, REG.action, H.basis[0], bump(H.basis[1], 0, 0)) \
        == "intertwining law fails at (basis element 1, map 1)"


def test_double_module_and_its_involution():
    assert verify.double_module(M2, K.action0, K.action1) is None
    assert verify.swaps_actions(K, THETA.matrix) is None
    action1 = list(K.action1)
    action1[2] = bump(action1[2], 0, 0)
    assert verify.double_module(M2, K.action0, action1) == \
        "action1: action is not multiplicative at basis pair (0, 2)"
    # two copies of the right action do not commute: e12 e11 != e11 e12
    assert verify.double_module(M2, K.action1, K.action1) == \
        "the two actions do not commute: intertwining law fails at (basis element 1, map 0)"
    assert verify.swaps_actions(K, bump(THETA.matrix, 0, 0)) == \
        "swap law for action0: intertwining law fails at (basis element 1, map 0)"


def test_balanced():
    tensor = form_tensor()
    b = forms.BilinearForm(REG, K, tensor)
    assert verify.balanced(b) is None
    tensor[1][2][0] += 1                 # b(e12, e21) = e11 instead of 0
    bad = SimpleNamespace(module=REG, values=K, tensor=tensor)
    assert verify.balanced(bad) == "left balance law fails at basis triple (0, 1, 2)"


def test_balanced_proves_on_every_generator_and_names_the_first_basis_triple():
    tensor = form_tensor()
    tensor[0][0][3] += 1                 # b(e11, e11) = e11 + e22 instead of e11
    bad = SimpleNamespace(module=REG, values=K, tensor=tensor)
    # the laws still hold at the generator e12 but not at e21, nor at e11 and e22
    assert M2.generators == (1, 2)
    assert verify.balanced(bad) == "left balance law fails at basis triple (0, 0, 0)"


def test_anti_structure():
    assert verify.anti_structure(M2, TR, M2.unit) is None
    # v = e11 - e22 is its own inverse and transpose, but conjugation by it
    # negates e12 while gamma^2 = 1
    v = (1, 0, 0, -1)
    assert verify.anti_structure(M2, TR, v) == \
        "gamma^2 = conjugation by v fails at basis element 1"
    assert verify.anti_structure(M2, TR, bump_vector(M2.unit, 0)) == \
        "v gamma(v) = gamma(v) v = 1 fails"


def test_theta_relation():
    # theta = gamma: (gamma(a) b c)^gamma = gamma(c) gamma(b) a for an involution
    theta = TR.matrix.transpose()
    assert verify.theta_relation(M2, TR, theta) is None
    assert verify.theta_relation(M2, TR, bump(theta, 1, 2)) == \
        "theta relation fails at basis triple (0, 0, 1)"


def test_partial_order():
    leq = [list(row) for row in posets.chain(3).leq]
    assert verify.partial_order(leq) is None
    leq[1][1] = False
    assert verify.partial_order(leq) == "reflexivity fails at 1"
    leq = [list(row) for row in posets.chain(3).leq]
    leq[2][0] = True
    assert verify.partial_order(leq) == "antisymmetry fails at (0, 2)"
    leq = [list(row) for row in posets.chain(3).leq]
    leq[0][2] = False
    assert verify.partial_order(leq) == "transitivity fails at (0, 1, 2)"
    assert verify.partial_order([[True, False]]) == "relation matrix must be square"


def test_order_reversing():
    P = posets.chain(3)
    assert verify.order_reversing(P.leq, (2, 1, 0)) is None
    assert verify.order_reversing(P.leq, (0, 1, 2)) == "order reversal fails at pair (0, 1)"

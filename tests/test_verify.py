"""fdalg.verify: every checker passes on constructed objects and names the
equation and basis tuple that a one-entry perturbation breaks."""

from types import SimpleNamespace

import pytest

from fdalg import algebras as alg, forms, modules as mod, posets, verify
from fdalg.errors import VerificationError
from fdalg.linalg import Matrix, QQ

from helpers import transpose_map

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
    return alg.AlgebraMap(M2, M2, matrix, alg.AlgebraMap.ANTI, validate=False)


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
    table = [[list(cell) for cell in row] for row in M2.table]
    table[1][2][0] += 1                  # e12 e21 = 2 e11
    bad = alg.Algebra(QQ, M2.basis_names, table, M2.unit, validate=False)
    # (e12 e21) e12 = 2 e12 but e12 (e21 e12) = e12
    assert verify.associative_unital(bad) == "associativity fails at basis triple (1, 2, 1)"
    unit = alg.Algebra(QQ, M2.basis_names, M2.table, bump_vector(M2.unit, 1),
                       validate=False)
    assert verify.associative_unital(unit) == "unit law fails at basis element 0"


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


def test_module_action():
    assert verify.module_action(M2, REG.action) is None
    action = list(REG.action)
    action[1] = bump(action[1], 0, 0)
    assert verify.module_action(M2, action) == \
        "action is not multiplicative at basis pair (1, 0)"
    unit = [bump(m, 0, 0) if t in (0, 3) else m for t, m in enumerate(REG.action)]
    assert verify.module_action(M2, unit) == "unit does not act as the identity"


def test_intertwines():
    H = mod.hom_space(REG, REG)
    assert verify.intertwines(REG.action, REG.action, *H.basis) is None
    assert verify.intertwines(REG.action, REG.action, H.basis[0], bump(H.basis[1], 0, 0)) \
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

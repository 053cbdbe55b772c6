"""Objects built by the trusted constructors satisfy the laws that the
checking constructors would verify, and no constructor grows a switch
between the two paths again."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import fdalg
from fdalg import algebras as alg, forms, involutions as inv, modules as mod, verify
from fdalg.linalg import Field, Matrix, QQ

from helpers import assert_field_elements, random_regular_form, transpose_map, ut_flip_map

FIELDS = (QQ, Field(5), Field(2 ** 61 - 1))
CASES = {
    "M2-transpose": lambda F: (alg.matrix_algebra(F, 2), lambda A: transpose_map(A, 2)),
    "UT3-flip": lambda F: (alg.upper_triangular_algebra(F, 3), lambda A: ut_flip_map(A, 3)),
}


def _unitriangular(field: Field, n: int) -> Matrix:
    return Matrix(field, [[1 if j >= i else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", sorted(CASES))
def test_trusted_constructions_inherit_their_laws(field, case):
    A, make_gamma = CASES[case](field)
    gamma = make_gamma(A)
    R = mod.regular_module(A)
    K = forms.standard_double_module(A, gamma)
    e = A.basis_vector(0)  # the matrix unit e_11 in both algebras
    built = {
        "regular_module": R,
        "direct_sum": mod.direct_sum([R, mod.principal_right_module(A, e)]),
        "principal_right_module": mod.principal_right_module(A, e),
        "change_of_basis": mod.change_of_basis(R, _unitriangular(field, A.dim)),
        "dual_module 0": forms.dual_module(R, K, 0)[0],
        "dual_module 1": forms.dual_module(R, K, 1)[0],
        "DoubleModule.module 0": K.module(0),
        "DoubleModule.module 1": K.module(1),
    }
    for name, M in built.items():
        assert verify.module_action(A, M.action) is None, name

    for name, f in {"compose": gamma.compose(gamma), "inverse": gamma.inverse(),
                    "compose with inverse": gamma.compose(gamma.inverse())}.items():
        assert verify.algebra_map(f) is None, name

    ends = {"of_module R": forms.EndData.of_module(R),
            "of_module eA": forms.EndData.of_module(built["principal_right_module"]),
            "matrix_ring_end_data 1": inv.matrix_ring_end_data(A, 1),
            "matrix_ring_end_data 2": inv.matrix_ring_end_data(A, 2)}
    for name, end in ends.items():
        M = end.module
        assert end.hom.independent, name
        assert verify.intertwines(A, M.action, M.action, *end.maps) is None, name
        assert verify.module_action(alg.opposite(end.algebra), end.maps) is None, name

    # the standard double module: both laws, their commuting, and 1 generating K_0 and K_1
    assert verify.double_module(A, K.action0, K.action1) is None
    for i in (0, 1):
        assert K.module(i).generators == (A.unit,)
        assert K.module(i).spin[2].nrows == 1

    hyp = inv.hyperbolic_involution(K, forms.standard_involution(K, gamma), R)
    regular = random_regular_form(R, K, seed=1)
    summed = forms.orthogonal_sum(hyp.form, regular)
    for name, b in {"hyperbolic form": hyp.form, "orthogonal_sum": summed}.items():
        assert verify.balanced(b) is None, name
    # the trusted path stores the tensor uncoerced, so its entries must already be canonical
    assert_field_elements(field, (x for row in hyp.form.tensor for cell in row for x in cell))

    # the corresponding map alpha: anti-multiplicative and unital, with canonical entries
    alphas = {"hyperbolic": hyp.involution,
              "random regular form": forms.corresponding_anti_automorphism(regular)[0]}
    for name, alpha in alphas.items():
        assert verify.algebra_map(alpha) is None, name
        assert verify.unit_preserved(alpha) is None, name
        assert_field_elements(field, (x for row in alpha.matrix.rows for x in row))


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_correspondence_path_certifies_no_law_twice(case, monkeypatch):
    # End_A(A^n), the corresponding map and the duals of End maps inherit their laws
    A, make_gamma = CASES[case](Field(5))
    b = random_regular_form(mod.regular_module(A), forms.standard_double_module(A, make_gamma(A)),
                            seed=1)

    def refuse(*args):
        raise AssertionError("a law was certified a second time")

    for module, name in ((verify, "module_action"), (verify, "algebra_map"),
                         (forms, "dual_morphism")):
        monkeypatch.setattr(module, name, refuse)
    for n in (1, 2):
        inv.matrix_ring_end_data(A, n)
    forms.corresponding_anti_automorphism(b)


def _fdalg_callables():
    """(qualified name, callable) for every function, class and method
    defined in an fdalg module, public or private."""
    for info in pkgutil.iter_modules(fdalg.__path__):
        module = importlib.import_module(f"fdalg.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_constructor_takes_a_checking_switch():
    seen = 0
    for qualname, obj in _fdalg_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        seen += 1
        assert not {"validate", "regular"} & set(params), qualname
    assert seen > 200, seen


# Every function that builds a verified object with ``Cls._trusted``, so that a new
# trusted construction cannot land without being named here.
TRUSTED_SITES = {
    "algebras.AlgebraMap.compose", "algebras.AlgebraMap.inverse", "algebras._quotient",
    "algebras.direct_product", "algebras.matrix_unit_algebra", "algebras.opposite",
    "algebras.subalgebra", "algebras.tensor_product",
    "cli.verify_anti_map",
    "forms.DoubleModule._store", "forms.EndData.of_module",
    "forms.corresponding_anti_automorphism", "forms.dual_module", "forms.orthogonal_sum",
    "forms.standard_double_module",
    # two actions of End(M) on F^d: w -> mat(alpha(w)), a right action as alpha is anti
    # and mat(w o v) = mat(v) mat(w); and w -> mat(w)^T, by the same identity transposed
    "forms.form_from_anti_automorphism",
    "involutions.hyperbolic_involution", "involutions.matrix_ring_end_data",
    "modules.change_of_basis", "modules.direct_sum", "modules.endomorphism_algebra",
    "modules.regular_module", "modules.submodule",
}


def _sites(match) -> set:
    """The qualified names of the functions in ``src/fdalg`` that hold a node for
    which ``match(node)`` is true, as module.Class.function."""

    class Sites(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], set()

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_ClassDef = visit_scope

        def generic_visit(self, node):
            if match(node):
                self.found.add(".".join(self.scope))
            super().generic_visit(node)

    found = set()
    for path in pathlib.Path(fdalg.__file__).parent.glob("*.py"):
        sites = Sites(path.stem)
        sites.visit(ast.parse(path.read_text()))
        found |= sites.found
    return found


def test_trusted_constructions_are_the_pinned_sites():
    for info in pkgutil.iter_modules(fdalg.__path__):
        importlib.import_module(f"fdalg.{info.name}")
    # Matrix._trusted is not a Verified constructor and is left out
    verified = {cls.__name__ for cls in verify.Verified.__subclasses__()}
    assert verified == {"Algebra", "AlgebraMap", "Module", "EndData", "DoubleModule",
                        "BilinearForm"}

    def trusted_call(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_trusted"):
            return False
        owner = node.func.value  # Cls or module.Cls
        return (owner.attr if isinstance(owner, ast.Attribute)
                else getattr(owner, "id", None)) in verified

    assert _sites(trusted_call) == TRUSTED_SITES


# Every function that reads the stored rows ``Algebra._sparse``.  A certificate on
# structure constants goes through the one product ``Algebra._mul_pairs`` (or is the
# associativity check itself), so a new reader cannot land without being named here.
SPARSE_READERS = {
    "algebras.Algebra.__eq__", "algebras.Algebra._mul_pairs", "algebras.Algebra.generators",
    "algebras.Algebra.left_mult_matrix", "algebras.Algebra.mul", "algebras.Algebra.product",
    "algebras.Algebra.right_mult_matrix", "algebras._left_traces", "algebras.direct_product",
    "algebras.jacobson_radical", "algebras.opposite", "algebras.tensor_product",
    "verify.associative_unital",
}


def test_stored_rows_are_read_at_the_pinned_sites():
    assert _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_sparse"
                  and isinstance(node.ctx, ast.Load)) == SPARSE_READERS

"""Golden reports: the CLI's output bytes must not change between versions.

``test_demo_determinism_bytes`` compares two runs of the same code; this
file compares the current code against reports committed earlier.
``tests/golden`` holds the report of every demo and, for each command,
one small input (``<command>.in.json``) with its report
(``<command>.json``).  A few
more inputs pin one path of a command: ``orbit-quaternion-p1000003``
needs the roots of minimal polynomials over GF(1000003), and its report
was written when those roots were found by evaluating at every field
element.  ``reduce-standard-transpose-q`` runs the transpose on M_3 of
Q[s]/(s^2 - 3), and ``hyperbolic-simple-module-q`` takes the
2-dimensional simple module of M_2(Q) as P instead of the regular
module.  ``reduce-standard-m3-n2-gfp`` (M_3, n = 2) and
``transfer-ut3-n3-gfp`` (UT_3, n = 3), both over GF(10007), take the
gamma-transpose of the transpose and of the flip: their tensor squares
and balancing quotients are larger than those of the small cases.  ``poset-check`` runs the 3-chain and ``poset-check-scharlau``
the Scharlau covers (exit 2); ``steinitz-unsolvable`` is the Z/48 twist
of the ``azumaya-no-involution`` demo (exit 2); ``transfer-f2-exhaustive``
is the transpose on M_2(GF(2)), whose unit search is exhaustive and finds
nothing (exit 2, empty checks).  ``idempotents-random-basis-q`` is
M_2 x Q x Q and ``basic-random-basis-gfp`` is M_2 x UT_2 over GF(101),
each on the basis given by the rows of a fixed integer matrix with
entries in [-2, 2] (as ``helpers.in_basis`` builds it), so that the
central splitting runs on a center with no basis vector among the
central idempotents; ``idempotents-not-split-q`` is Q x Q(sqrt 2), which
the central splitting refuses (exit 2).  ``form-correspond-ut3-n2-gfp``
(UT_3 over GF(10007) with the flip) and ``form-correspond-h-n2-q`` ((-1, -1)
over Q with conjugation) take b(x, y) = sum gamma(x_i) y_i on A^2, and pin
the anti-automorphism that corresponds to it.  All runs use seed 0.

A change that is meant to alter report bytes must say why, then rewrite
the reports from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest

from fdalg import algebras as alg
from fdalg import cli
from fdalg import involutions as inv
from fdalg.linalg import QQ, Field

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# golden input -> (command, exit code)
CASES = {
    "center": ("center", cli.EXIT_OK),
    "idempotents": ("idempotents", cli.EXIT_OK),
    "idempotents-random-basis-q": ("idempotents", cli.EXIT_OK),
    "idempotents-not-split-q": ("idempotents", cli.EXIT_NEGATIVE),
    "basic": ("basic", cli.EXIT_OK),
    "basic-random-basis-gfp": ("basic", cli.EXIT_OK),
    "poset-of-algebra": ("poset-of-algebra", cli.EXIT_OK),
    "orbit": ("orbit", cli.EXIT_OK),
    "orbit-quaternion-p1000003": ("orbit", cli.EXIT_OK),
    "hyperbolic": ("hyperbolic", cli.EXIT_OK),
    "hyperbolic-simple-module-q": ("hyperbolic", cli.EXIT_OK),
    "anti-structure-m2": ("anti-structure-m2", cli.EXIT_OK),
    "transfer": ("transfer", cli.EXIT_OK),
    "reduce-standard": ("reduce-standard", cli.EXIT_OK),
    "reduce-standard-transpose-q": ("reduce-standard", cli.EXIT_OK),
    "reduce-standard-m3-n2-gfp": ("reduce-standard", cli.EXIT_OK),
    "form-correspond": ("form-correspond", cli.EXIT_OK),
    "form-correspond-ut3-n2-gfp": ("form-correspond", cli.EXIT_OK),
    "form-correspond-h-n2-q": ("form-correspond", cli.EXIT_OK),
    "radical": ("radical", cli.EXIT_OK),
    "incidence": ("incidence", cli.EXIT_OK),
    "poset-check": ("poset-check", cli.EXIT_OK),
    "poset-check-scharlau": ("poset-check", cli.EXIT_NEGATIVE),
    "steinitz": ("steinitz", cli.EXIT_OK),
    "steinitz-unsolvable": ("steinitz", cli.EXIT_NEGATIVE),
    "transfer-f2-exhaustive": ("transfer", cli.EXIT_NEGATIVE),
    "transfer-ut3-n3-gfp": ("transfer", cli.EXIT_OK),
}
DEMO_EXITS = {name: cli.EXIT_OK for name in cli.DEMOS}
DEMO_EXITS.update({"scharlau": cli.EXIT_NEGATIVE, "azumaya-no-involution": cli.EXIT_NEGATIVE})


def _demo_argv(name):
    return ["demo", name], os.path.join(GOLDEN, f"demo-{name}.json")


def _command_argv(case):
    argv = [CASES[case][0], "--input", os.path.join(GOLDEN, f"{case}.in.json")]
    return argv, os.path.join(GOLDEN, f"{case}.json")


def _run(argv, out_path):
    code = cli.run(argv + ["--seed", "0", "--output", str(out_path)])
    with open(out_path, "rb") as fh:
        return code, fh.read()


def _expected(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", cli.DEMOS)
def test_demo_report_bytes(name, tmp_path):
    argv, golden = _demo_argv(name)
    code, data = _run(argv, tmp_path / "out.json")
    assert code == DEMO_EXITS[name]
    assert data == _expected(golden)


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_report_bytes(case, tmp_path):
    argv, golden = _command_argv(case)
    code, data = _run(argv, tmp_path / "out.json")
    assert code == CASES[case][1]
    assert data == _expected(golden)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(GOLDEN)
                                         if not f.endswith(".in.json")))
def test_report_key_order(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        keys = list(json.load(fh))
    demo = name.startswith("demo-")
    head = ["command"] + ["demo"] * demo + ["seed"]
    if "error" in keys:
        # a refused input: the head, then the error text alone
        assert keys == head + ["error"]
    else:
        assert keys == head + ["description"] * demo + ["result", "certificate", "checks"]


def _swap_first_two(field, factors):
    """F x ... x F with the anti-automorphism swapping the first two factors."""
    F = alg.field_algebra(field)
    A = F
    for _ in range(factors - 1):
        A = alg.direct_product(F, A)
    images = [A.basis_vector(1), A.basis_vector(0)] + \
        [A.basis_vector(i) for i in range(2, A.dim)]
    return A, alg.AlgebraMap.from_images(A, A, images, alg.AlgebraMap.ANTI)


@pytest.mark.parametrize("field, factors, seed, v", [
    (Field(5), 3, 0, (2, 3, 1)),
    (Field(5), 3, 1, (3, 2, 4)),
    (QQ, 2, 0, (1, 1)),
    (QQ, 2, 2, (-1, -1)),
])
def test_seeded_anti_structure_search(field, factors, seed, v):
    # no basis vector of the solution space is a unit here, so the answer
    # is the first seeded random candidate that works
    A, swap = _swap_first_two(field, factors)
    assert inv.find_anti_structure(A, swap, seed=seed, trials=20).v == v


def regenerate() -> None:
    import tempfile

    cases = [_demo_argv(name) for name in cli.DEMOS]
    cases += [_command_argv(case) for case in sorted(CASES)]
    with tempfile.TemporaryDirectory() as tmp:
        for argv, golden in cases:
            _run(argv, os.path.join(tmp, "out.json"))
            os.replace(os.path.join(tmp, "out.json"), golden)
            print("wrote", os.path.relpath(golden))


if __name__ == "__main__":
    regenerate()

"""Golden reports: the CLI's output bytes must not change between versions.

``test_demo_determinism_bytes`` compares two runs of the same code; this
file compares the current code against reports committed earlier.
``tests/golden`` holds the report of every demo and, for each command
built on the shared linear-algebra helpers, one small input
(``<command>.in.json``) with its report (``<command>.json``).  All runs
use seed 0.

A change that is meant to alter report bytes must say why, then rewrite
the reports from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import os

import pytest

from fdalg import algebras as alg
from fdalg import cli
from fdalg import involutions as inv
from fdalg.linalg import QQ, Field

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# command -> exit code of its golden input
COMMANDS = {
    "center": cli.EXIT_OK,
    "idempotents": cli.EXIT_OK,
    "basic": cli.EXIT_OK,
    "poset-of-algebra": cli.EXIT_OK,
    "orbit": cli.EXIT_OK,
    "hyperbolic": cli.EXIT_OK,
    "anti-structure-m2": cli.EXIT_OK,
    "transfer": cli.EXIT_OK,
    "reduce-standard": cli.EXIT_OK,
    "form-correspond": cli.EXIT_OK,
}
DEMO_EXITS = {name: cli.EXIT_OK for name in cli.DEMOS}
DEMO_EXITS.update({"scharlau": cli.EXIT_NEGATIVE, "azumaya-no-involution": cli.EXIT_NEGATIVE})


def _demo_argv(name):
    return ["demo", name], os.path.join(GOLDEN, f"demo-{name}.json")


def _command_argv(command):
    argv = [command, "--input", os.path.join(GOLDEN, f"{command}.in.json")]
    return argv, os.path.join(GOLDEN, f"{command}.json")


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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_report_bytes(command, tmp_path):
    argv, golden = _command_argv(command)
    code, data = _run(argv, tmp_path / "out.json")
    assert code == COMMANDS[command]
    assert data == _expected(golden)


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


def test_seeded_goldman_search():
    F5 = Field(5)
    T, g = alg.find_goldman_element(alg.matrix_algebra(F5, 2), seed=0, trials=20)
    assert g == tuple(int(i in (0, 6, 9, 15)) for i in range(16))


def regenerate() -> None:
    import tempfile

    cases = [_demo_argv(name) for name in cli.DEMOS]
    cases += [_command_argv(command) for command in sorted(COMMANDS)]
    with tempfile.TemporaryDirectory() as tmp:
        for argv, golden in cases:
            _run(argv, os.path.join(tmp, "out.json"))
            os.replace(os.path.join(tmp, "out.json"), golden)
            print("wrote", os.path.relpath(golden))


if __name__ == "__main__":
    regenerate()

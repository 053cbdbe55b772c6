"""CLI: exit-code contract, schemas, determinism."""

import json
from pathlib import Path

import pytest

from fdalg import algebras as alg, cli, verify
from fdalg.linalg import Field, QQ

from helpers import two_cycle_algebra


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def q_field_algebra_json():
    return {"field": "Q", "basis": ["1"], "table": [[["1"]]], "unit": ["1"]}


def test_demo_list_stable():
    assert cli.DEMOS == (
        "scharlau",
        "azumaya-no-involution",
        "goldman",
        "hyperbolic-quaternion",
        "dyadic",
        "rank-bounds",
    )
    assert set(cli.DEMO_FUNCS) == set(cli.DEMOS)


def test_demo_scharlau_exit_and_content(capsys):
    code, out = run_cli(capsys, "demo", "scharlau")
    assert code == cli.EXIT_NEGATIVE
    rep = json.loads(out)
    assert rep["result"]["involutions"] == []
    assert len(rep["result"]["anti_automorphisms"]) > 0
    assert all(c["pass"] for c in rep["checks"])
    assert rep["result"]["center_dimension"] == 1


def test_demo_azumaya_exit_and_certificate(capsys):
    code, out = run_cli(capsys, "demo", "azumaya-no-involution")
    assert code == cli.EXIT_NEGATIVE
    rep = json.loads(out)
    assert rep["result"]["exists"] is False
    assert rep["result"]["certificate"][0] == [48, 16, 24, False]


@pytest.mark.parametrize("name", ["goldman", "hyperbolic-quaternion", "dyadic",
                                  "rank-bounds"])
def test_positive_demos(capsys, name):
    code, out = run_cli(capsys, "demo", name)
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert all(c["pass"] for c in rep["checks"])
    assert rep["demo"] == name
    assert rep["seed"] == 0


def test_demo_determinism_bytes(tmp_path, capsys):
    for name in cli.DEMOS:
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        cli.run(["demo", name, "--output", str(a)])
        cli.run(["demo", name, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_unknown_demo(capsys):
    code, out = run_cli(capsys, "demo", "nope")
    assert code == cli.EXIT_INPUT
    assert "unknown demo" in json.loads(out)["error"]


def test_transfer_m3_transpose_cli(tmp_path, capsys):
    path = tmp_path / "m3.json"
    path.write_text(json.dumps({"algebra": q_field_algebra_json(),
                                "n": 3, "alpha": "transpose"}))
    code, out = run_cli(capsys, "transfer", "--input", str(path))
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["beta"] == [["1"]]
    assert all(c["pass"] for c in rep["checks"])


def test_transfer_f2_exit_negative(tmp_path, capsys):
    path = tmp_path / "f2.json"
    alg2 = {"field": {"p": 2}, "basis": ["1"], "table": [[["1 mod 2"]]],
            "unit": ["1 mod 2"]}
    path.write_text(json.dumps({"algebra": alg2, "n": 2, "alpha": "transpose"}))
    code, out = run_cli(capsys, "transfer", "--input", str(path))
    assert code == cli.EXIT_NEGATIVE
    rep = json.loads(out)
    assert rep["result"]["transferred"] is False
    assert rep["certificate"]["exhaustive"] is True


def test_radical_and_center_commands(tmp_path, capsys):
    ut2 = {
        "field": "Q",
        "basis": ["e11", "e12", "e22"],
        "table": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]],
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
        ],
        "unit": ["1", "0", "1"],
    }
    path = tmp_path / "ut2.json"
    path.write_text(json.dumps({"algebra": ut2}))
    code, out = run_cli(capsys, "radical", "--input", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["result"]["dimension"] == 1
    code, out = run_cli(capsys, "center", "--input", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["result"]["dimension"] == 1
    code, out = run_cli(capsys, "idempotents", "--input", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["result"]["count"] == 2
    code, out = run_cli(capsys, "basic", "--input", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["result"]["dimension"] == 3


@pytest.mark.parametrize("algebra", [
    cli.algebra_to_json(alg.quaternion_algebra(QQ)),         # the division algebra (-1, -1)
    {"field": "Q", "basis": ["1", "s"], "unit": ["1", "0"],  # Q(sqrt 2): s^2 = 2
     "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["2", "0"]]]},
])
def test_idempotents_of_a_certified_non_split_algebra_exit_2(tmp_path, capsys, algebra):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"algebra": algebra}))
    code, out = run_cli(capsys, "idempotents", "--input", str(path))
    assert code == cli.EXIT_NEGATIVE
    assert "error" in json.loads(out)


def test_poset_check_exit_codes(tmp_path, capsys):
    chain3 = tmp_path / "chain3.json"
    chain3.write_text(json.dumps({"size": 3, "cover": [[0, 1], [1, 2]]}))
    code, out = run_cli(capsys, "poset-check", "--input", str(chain3))
    assert code == cli.EXIT_OK  # the chain has an order-reversing involution
    sch = tmp_path / "sch.json"
    from fdalg import posets as ps

    P = ps.scharlau_poset()
    sch.write_text(json.dumps({"size": 12, "cover": [list(c) for c in P.covers()]}))
    code, out = run_cli(capsys, "poset-check", "--input", str(sch))
    assert code == cli.EXIT_NEGATIVE
    rep = json.loads(out)
    assert rep["result"]["involutions"] == []


def test_incidence_and_poset_of_algebra_roundtrip(tmp_path, capsys):
    poset = {"size": 2, "cover": [[0, 1]], "field": "Q"}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poset))
    code, out = run_cli(capsys, "incidence", "--input", str(path))
    assert code == cli.EXIT_OK
    alg_json = json.loads(out)["result"]["algebra"]
    path2 = tmp_path / "a.json"
    path2.write_text(json.dumps({"algebra": alg_json}))
    code, out = run_cli(capsys, "poset-of-algebra", "--input", str(path2))
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["poset"]["size"] == 2
    assert rep["result"]["poset"]["cover"] == [[0, 1]] or \
        rep["result"]["poset"]["cover"] == [[1, 0]]


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=str)
def test_projective_classes_of_the_two_cycle_algebra(tmp_path, capsys, field):
    # e1 A and e2 A have the same dimension and nonzero maps both ways but are
    # not isomorphic; a search over Q cannot prove that no isomorphism exists,
    # the blocks of A/J decide it
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"algebra": cli.algebra_to_json(two_cycle_algebra(field))}))
    code, out = run_cli(capsys, "basic", "--input", str(path))
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert (rep["certificate"]["class_count"], rep["result"]["dimension"]) == (2, 4)
    code, out = run_cli(capsys, "poset-of-algebra", "--input", str(path))
    assert code == cli.EXIT_NEGATIVE
    assert "antisymmetry fails at (0, 1)" in json.loads(out)["error"]


def test_steinitz_command(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"pic": [48], "l": [3], "j": [1]}))
    code, out = run_cli(capsys, "steinitz", "--input", str(path))
    assert code == cli.EXIT_NEGATIVE
    rep = json.loads(out)
    assert rep["result"]["exists"] is False
    path.write_text(json.dumps({"pic": [5], "l": [1], "j": [1]}))
    code, out = run_cli(capsys, "steinitz", "--input", str(path))
    assert code == cli.EXIT_OK  # gcd(16,5)=1: always solvable


def test_hyperbolic_command(tmp_path, capsys):
    data = {"algebra": q_field_algebra_json(), "gamma": "identity"}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "hyperbolic", "--input", str(path))
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["endomorphism_dimension"] == 4


def test_anti_structure_m2_command(tmp_path, capsys):
    data = {"algebra": q_field_algebra_json(), "gamma": "identity", "v": ["1"]}
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "anti-structure-m2", "--input", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["result"]["dimension"] == 4


def test_orbit_command(tmp_path, capsys):
    # M2(Q) with the transpose as gamma
    from fdalg import algebras as alg
    from helpers import transpose_map

    M2 = alg.matrix_algebra(QQ, 2)
    tr = transpose_map(M2, 2)
    data = {
        "algebra": cli.algebra_to_json(M2),
        "gamma": {"matrix": cli.matrix_json(tr.matrix),
                  "variance": "anti_homomorphism"},
    }
    path = tmp_path / "o.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "orbit", "--input", str(path))
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["n"] == 1
    assert rep["result"]["permutation"] == [0]


def test_form_correspond_command(tmp_path, capsys):
    # dot product on F^2 over the field algebra
    FA = q_field_algebra_json()
    data = {
        "algebra": FA,
        "module": {"dim": 2, "action": [[["1", "0"], ["0", "1"]]]},
        "values": {"dim": 1, "action0": [[["1"]]], "action1": [[["1"]]]},
        "tensor": [[["1"], ["0"]], [["0"], ["1"]]],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "form-correspond", "--input", str(path))
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["endomorphism_dimension"] == 4
    assert rep["result"]["is_involution"] is True


@pytest.mark.parametrize("action, pair", [("action0", "(0, 1)"), ("action1", "(1, 0)")])
def test_form_correspond_checks_the_double_module_it_reads(tmp_path, capsys, action, pair):
    # the standard double module of UT_3 with the flip, entered as JSON, with one
    # entry of the action of e12 changed: JSON values are checked, not trusted
    golden = Path(__file__).parent / "golden" / "form-correspond-ut3-n2-gfp.in.json"
    data = json.loads(golden.read_text())
    data["values"][action][1][0][0] = 1
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "form-correspond", "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"] == (
        f"VerificationError: {action}: action is not multiplicative at basis pair {pair}")


def test_reduce_standard_command(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"algebra": q_field_algebra_json(),
                                "n": 2, "alpha": "transpose"}))
    code, out = run_cli(capsys, "reduce-standard", "--input", str(path))
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["gamma"] == [["1"]]
    assert rep["result"]["theta"] == [["1"]]


def test_bad_input_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    code, _ = run_cli(capsys, "radical", "--input", str(path))
    assert code == cli.EXIT_INPUT
    code, _ = run_cli(capsys, "radical")
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("field", (QQ, Field(5)), ids=str)
@pytest.mark.parametrize("bad", (True, 0.0, 1.0), ids=repr)
@pytest.mark.parametrize("entry", ((0, 0, 0), (0, 0, 1)), ids=("nonzero", "zero"))
def test_inexact_table_entries_exit_one(tmp_path, capsys, field, bad, entry):
    ut2 = alg.upper_triangular_algebra(field, 2)             # e11 e11 = e11
    table = [[list(ut2.product(i, j)) for j in range(3)] for i in range(3)]
    i, j, k = entry
    table[i][j][k] = bad
    path = tmp_path / "in.json"
    algebra = {"field": cli.field_to_json(field), "basis": list(ut2.basis_names),
               "table": table, "unit": [1, 0, 1]}
    path.write_text(json.dumps({"algebra": algebra}))
    code, out = run_cli(capsys, "radical", "--input", str(path))
    assert code == cli.EXIT_INPUT and "inexact scalar" in json.loads(out)["error"]


def test_non_associative_input_exit_one_naming_a_basis_triple(tmp_path, capsys):
    m2 = cli.algebra_to_json(alg.matrix_algebra(QQ, 2))      # basis e11, e12, e21, e22
    m2["table"][1][2][0] = "2"                               # e12 e21 = 2 e11
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"algebra": m2}))
    code, out = run_cli(capsys, "center", "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert "associativity fails at basis triple (1, 2, 1)" in json.loads(out)["error"]


def test_unsupported_characteristic_exit_one(tmp_path, capsys):
    ut_f2 = {
        "field": {"p": 2},
        "basis": ["a", "b", "c"],
        "table": [
            [["1 mod 2", "0 mod 2", "0 mod 2"], ["0 mod 2", "1 mod 2", "0 mod 2"],
             ["0 mod 2", "0 mod 2", "0 mod 2"]],
            [["0 mod 2", "0 mod 2", "0 mod 2"], ["0 mod 2", "0 mod 2", "0 mod 2"],
             ["0 mod 2", "1 mod 2", "0 mod 2"]],
            [["0 mod 2", "0 mod 2", "0 mod 2"], ["0 mod 2", "0 mod 2", "0 mod 2"],
             ["0 mod 2", "0 mod 2", "1 mod 2"]],
        ],
        "unit": ["1 mod 2", "0 mod 2", "1 mod 2"],
    }
    path = tmp_path / "f2ut.json"
    path.write_text(json.dumps({"algebra": ut_f2}))
    code, _ = run_cli(capsys, "radical", "--input", str(path))
    assert code == cli.EXIT_INPUT


def test_seed_flag_changes_only_search_paths(capsys):
    code1, out1 = run_cli(capsys, "demo", "dyadic", "--seed", "7")
    code2, out2 = run_cli(capsys, "demo", "dyadic", "--seed", "7")
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["seed"] == 7


@pytest.mark.parametrize("field, entry", [
    ({"p": 5}, 0.5),      # was rounded to 0
    ({"p": 5}, 2.7),      # was truncated to 2
    ("Q", 0.1),           # was taken as 3602879701896397/2**55
    ("Q", True),
    ({"p": 5}, "1/5"),    # denominator divisible by p
    ("Q", "1/0"),
])
def test_inexact_or_undefined_scalars_exit_one(tmp_path, capsys, field, entry):
    alg = {"field": field, "basis": ["1"], "table": [[[entry]]], "unit": [1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": alg}))
    code, out = run_cli(capsys, "center", "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"]


@pytest.mark.parametrize("argv", [
    ["radical", "--bogus"],
    ["no-such-command"],
    ["demo", "goldman", "--seed", "x"],
    ["incidence", "--field", "Q"],   # the option was removed
])
def test_usage_errors_exit_one_with_json(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == cli.EXIT_INPUT
    assert "usage: fdalg" in json.loads(out)["error"]


@pytest.mark.parametrize("p", [5.5, 5.0, True, "5", None])
def test_field_characteristic_must_be_a_json_integer(tmp_path, capsys, p):
    alg = {"field": {"p": p}, "basis": ["1"], "table": [[[1]]], "unit": [1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": alg}))
    code, out = run_cli(capsys, "center", "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert "characteristic must be an integer" in json.loads(out)["error"]


def test_prime_above_the_certified_bound_exits_one(tmp_path, capsys):
    # 2^89 - 1 is prime, but above the bound of the Miller-Rabin test
    p = 2 ** 89 - 1
    alg = {"field": {"p": p}, "basis": ["1"], "table": [[[1]]], "unit": [1]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"algebra": alg}))
    code, out = run_cli(capsys, "center", "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert "bound below which primality is certified" in json.loads(out)["error"]


class _FailingVerify:
    """fdalg.verify as the CLI sees it, with one checker forced to fail."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        if attr == self.name:
            return lambda *args: "forced failure"
        return getattr(verify, attr)


@pytest.mark.parametrize("command, data, checker, check", [
    ("reduce-standard", {"algebra": q_field_algebra_json(), "n": 2, "alpha": "transpose"},
     "theta_relation", "theta relation holds on all basis triples"),
    ("incidence", {"field": "Q", "size": 3, "cover": [[0, 1], [1, 2]]},
     "associative_unital", "associativity and unit laws"),
    ("poset-of-algebra", "poset-of-algebra.in.json",
     "partial_order", "relation is a partial order"),
    ("radical", "radical.in.json",
     "nilpotent_ideal", "radical is a nilpotent two-sided ideal"),
], ids=["reduce-standard", "incidence", "poset-of-algebra", "radical"])
def test_checks_rerun_the_verify_checkers(tmp_path, capsys, monkeypatch, command, data,
                                          checker, check):
    if isinstance(data, str):
        data = json.loads((Path(__file__).parent / "golden" / data).read_text())
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, command, "--input", str(path))
    assert code == cli.EXIT_OK
    assert {"name": check, "pass": True} in json.loads(out)["checks"]
    monkeypatch.setattr(cli, "verify", _FailingVerify(checker))
    code, out = run_cli(capsys, command, "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"].endswith("re-verification failed: " + check)


def test_demo_goldman_reruns_the_goldman_checker(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify", _FailingVerify("goldman"))
    code, out = run_cli(capsys, "demo", "goldman")
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"].endswith("re-verification failed: " + "; ".join(
        f"n={n}: g^2 = 1 and swap law on all basis pairs" for n in (1, 2, 3)))


@pytest.mark.parametrize("argv", [["demo", name] for name in cli.DEMOS] +
                         [[command] for command in sorted(cli.COMMANDS)],
                         ids=lambda argv: argv[-1])
def test_no_report_ships_with_a_failed_check(capsys, monkeypatch, argv):
    if argv[0] != "demo":
        path = Path(__file__).parent / "golden" / f"{argv[0]}.in.json"
        assert path.is_file()
        argv = argv + ["--input", str(path)]
    monkeypatch.setattr(cli, "_check", lambda name, ok: {"name": name, "pass": False})
    code, out = run_cli(capsys, *argv)
    assert code == cli.EXIT_INPUT
    rep = json.loads(out)
    assert "re-verification failed: " in rep["error"]
    assert "result" not in rep


_CHAIN3 = {"size": 3, "cover": [[0, 1], [1, 2]]}
_DOT_PRODUCT = {
    "algebra": q_field_algebra_json(),
    "module": {"dim": 2, "action": [[["1", "0"], ["0", "1"]]]},
    "values": {"dim": 1, "action0": [[["1"]]], "action1": [[["1"]]]},
    "tensor": [[["1"], ["0"]], [["0"], ["1"]]],
}
_TWIST = {"pic": [48], "l": [3], "j": [1]}
# count -> (command, valid input, path to the count in it)
_COUNT_INPUTS = {
    "size": ("poset-check", _CHAIN3, ("size",)),
    "cover": ("poset-check", _CHAIN3, ("cover", 0, 1)),
    "module-dim": ("form-correspond", _DOT_PRODUCT, ("module", "dim")),
    "double-module-dim": ("form-correspond", _DOT_PRODUCT, ("values", "dim")),
    "n": ("reduce-standard", {"algebra": q_field_algebra_json(), "n": 2, "alpha": "transpose"},
          ("n",)),
    "pic": ("steinitz", _TWIST, ("pic", 0)),
    "l": ("steinitz", _TWIST, ("l", 0)),
    "j": ("steinitz", _TWIST, ("j", 0)),
}


@pytest.mark.parametrize("bad", ["fraction", "integral-float", "bool"])
@pytest.mark.parametrize("field", sorted(_COUNT_INPUTS))
def test_counts_must_be_json_integers(tmp_path, capsys, field, bad):
    command, data, where = _COUNT_INPUTS[field]
    data = json.loads(json.dumps(data))  # a copy: the inputs are shared
    slot = data
    for key in where[:-1]:
        slot = slot[key]
    value = slot[where[-1]]
    slot[where[-1]] = {"fraction": value + 0.5, "integral-float": float(value),
                       "bool": True}[bad]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, command, "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert "must be an integer, got" in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["poset-check", "incidence"])
@pytest.mark.parametrize("poset", [
    {"size": 3, "cover": [[0, 5]]},     # was an IndexError traceback
    {"size": 3, "cover": [[0, -1]]},    # was read as the cover (0, 2)
    {"size": -2, "cover": []},          # was read as the empty poset
])
def test_cover_entries_must_be_points_of_the_poset(tmp_path, capsys, command, poset):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(poset))
    code, out = run_cli(capsys, command, "--input", str(path))
    assert code == cli.EXIT_INPUT
    assert "cover entries must lie in range(size)" in json.loads(out)["error"]

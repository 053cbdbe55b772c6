"""Command-line front end.

Reads JSON descriptions of algebras, posets and class groups, runs the
named construction, and emits a JSON report.  Every report has the keys
``command``, ``demo`` (demos only), ``seed``, ``description`` (demos
only), ``result``, ``certificate`` and ``checks``, in that order.  The
"checks" section re-runs the :mod:`fdalg.verify` checkers on the returned
objects (only the class-count check of ``basic`` is still constant).  Each
command and demo builds its report body through ``_report``, which
refuses to build one when any check failed: the command then exits 1
with an error naming the failed checks instead of a report.

Exit codes: 0 success; 1 malformed or unsupported input, usage errors
and failed checks included; 2 a certified mathematical negative (no
involution, impossible twist, a semisimple factor that does not split);
3 inconclusive searches.  Reports are UTF-8 JSON with fixed key order;
the same seed and input always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import algebras as _alg
from . import forms as _forms
from . import involutions as _inv
from . import modules as _mod
from . import posets as _posets
from . import steinitz as _st
from . import verify
from .errors import (
    FdalgError,
    InconclusiveError,
    NoSymmetricUnitError,
    NotAPosetError,
    NotSplitError,
    UnsplitQuotientError,
    UnsupportedCharacteristicError,
    VerificationError,
)
from .linalg import Field, Matrix, QQ

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3


# -- JSON (de)serialization ---------------------------------------------

def _json_int(value, what: str) -> int:
    """A count read from the JSON input, which must be a JSON integer."""
    # int() would truncate 5.5 to 5, and bool is an int
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and "p" in obj:
        return Field(_json_int(obj["p"], "field characteristic"))
    raise ValueError(f"unknown field spec {obj!r}")


def field_to_json(field: Field):
    return "Q" if field.p is None else {"p": field.p}


def vector_json(field: Field, v) -> list:
    zero = field.format(field.zero)
    return [field.format(x) if x else zero for x in v]


def matrix_json(m: Matrix) -> list:
    return [vector_json(m.field, row) for row in m.rows]


# Scalars in the JSON input are ints or strings ("3", "-1/2", "4 mod 7");
# Matrix, Algebra, BilinearForm and AntiStructure coerce every entry
# through Field.coerce, which parses strings and rejects inexact values.

def matrix_from_json(field: Field, rows, ncols=None) -> Matrix:
    return Matrix(field, rows, ncols=ncols)


def algebra_from_json(obj) -> _alg.Algebra:
    field = field_from_json(obj["field"])
    return _alg.Algebra(field, obj["basis"], obj["table"], obj["unit"])


def algebra_to_json(A: _alg.Algebra) -> dict:
    return {
        "field": field_to_json(A.field),
        "basis": list(A.basis_names),
        "table": [[vector_json(A.field, A.product(i, j)) for j in range(A.dim)]
                  for i in range(A.dim)],
        "unit": vector_json(A.field, A.unit),
    }


def map_from_json(A: _alg.Algebra, obj) -> _alg.AlgebraMap:
    anti = _alg.AlgebraMap.ANTI
    if obj == "identity":
        return _alg.AlgebraMap(A, A, Matrix.identity(A.field, A.dim), anti)
    variance = obj.get("variance", anti) if isinstance(obj, dict) else anti
    mat = matrix_from_json(A.field, obj["matrix"])
    return _alg.AlgebraMap(A, A, mat, variance)


def poset_from_json(obj) -> _posets.Poset:
    size = _json_int(obj["size"], "poset size")
    covers = [tuple(_json_int(i, "cover entry") for i in c) for c in obj["cover"]]
    return _posets.Poset.from_covers(size, covers)


def poset_to_json(P: _posets.Poset) -> dict:
    return {"size": P.size, "cover": [list(c) for c in P.covers()]}


def module_from_json(A: _alg.Algebra, obj) -> _mod.Module:
    dim = _json_int(obj["dim"], "module dimension")
    action = [matrix_from_json(A.field, m, ncols=dim) for m in obj["action"]]
    return _mod.Module(A, dim, action)


def double_module_from_json(A: _alg.Algebra, obj) -> _forms.DoubleModule:
    dim = _json_int(obj["dim"], "double module dimension")
    a0 = [matrix_from_json(A.field, m, ncols=dim) for m in obj["action0"]]
    a1 = [matrix_from_json(A.field, m, ncols=dim) for m in obj["action1"]]
    return _forms.DoubleModule(A, dim, a0, a1)


# -- re-verification of returned objects (the "checks" sections) --------

def _check(name: str, ok: bool) -> dict:
    return {"name": name, "pass": bool(ok)}


def verify_anti_map(A: _alg.Algebra, m: Matrix, label: str) -> list:
    f = _alg.AlgebraMap._trusted(A, A, m, _alg.AlgebraMap.ANTI)
    return [
        _check(f"{label}: unit preserved", verify.unit_preserved(f) is None),
        _check(f"{label}: anti-multiplicative on all basis pairs",
               verify.multiplicative(f) is None),
        _check(f"{label}: bijective", verify.bijective(m) is None),
    ]


def verify_involution_map(A: _alg.Algebra, m: Matrix, label: str) -> list:
    return verify_anti_map(A, m, label) + [
        _check(f"{label}: squares to the identity", verify.squares_to_identity(m) is None)]


def verify_double_involution(K: _forms.DoubleModule, T: Matrix, label: str) -> list:
    return [
        _check(f"{label}: squares to the identity", verify.squares_to_identity(T) is None),
        _check(f"{label}: swaps the two actions", verify.swaps_actions(K, T) is None),
    ]


def verify_form_balance(b: _forms.BilinearForm, label: str) -> list:
    return [_check(f"{label}: balance laws on all basis triples", verify.balanced(b) is None)]


def _report(result, checks: list, certificate=None, code=EXIT_OK, description=None):
    """A command's report body, in report key order, and its exit code.

    Refuses to build one unless every check passed: a failed check raises
    VerificationError naming the failed checks, which ``run`` reports as
    exit 1.
    """
    failures = [c["name"] for c in checks if not c["pass"]]
    if failures:
        raise VerificationError("independent re-verification failed: " + "; ".join(failures))
    head = {} if description is None else {"description": description}
    return {**head, "result": result, "certificate": certificate or {}, "checks": checks}, code


# -- command implementations ---------------------------------------------

def cmd_radical(data, args):
    A = algebra_from_json(data["algebra"])
    J = _alg.jacobson_radical(A)
    return _report({"dimension": len(J), "basis": [vector_json(A.field, v) for v in J]},
                   [_check("radical is a nilpotent two-sided ideal",
                           verify.nilpotent_ideal(A, J) is None)],
                   {"quotient_dimension": A.dim - len(J)})


def cmd_center(data, args):
    A = algebra_from_json(data["algebra"])
    c = _alg.center(A)
    checks = [_check("center basis commutes with all basis elements",
                     verify.central(A, c.basis) is None)]
    return _report({"dimension": c.dim, "basis": [vector_json(A.field, v) for v in c.basis]},
                   checks)


def cmd_idempotents(data, args):
    A = algebra_from_json(data["algebra"])
    idems = _alg.primitive_idempotents(A, seed=args.seed)
    checks = [
        _check("each element is idempotent", verify.idempotents(A, idems) is None),
        _check("pairwise orthogonal", verify.orthogonal(A, idems) is None),
        _check("sum is 1", verify.sum_to_unit(A, idems) is None),
    ]
    return _report({"count": len(idems), "idempotents": [vector_json(A.field, e) for e in idems]},
                   checks)


def cmd_basic(data, args):
    A = algebra_from_json(data["algebra"])
    res = _alg.basic_algebra(A, seed=args.seed)
    checks = [
        _check("idempotent squares to itself",
               A.mul(res.idempotent, res.idempotent) == res.idempotent),
        _check("basic algebra has one class per indecomposable projective", True),
    ]
    return _report({
        "dimension": res.algebra.dim,
        "idempotent": vector_json(A.field, res.idempotent),
        "algebra": algebra_to_json(res.algebra),
    }, checks, {"class_count": len(res.class_representatives)})


def cmd_form_correspond(data, args):
    A = algebra_from_json(data["algebra"])
    M = module_from_json(A, data["module"])
    K = double_module_from_json(A, data["values"])
    dimK = K.dim
    b = _forms.BilinearForm(M, K, data["tensor"])
    alpha, end = _forms.corresponding_anti_automorphism(b)
    checks = verify_anti_map(end.algebra, alpha.matrix, "corresponding map")
    checks += verify_form_balance(b, "input form")
    return _report({
        "endomorphism_dimension": end.algebra.dim,
        "alpha": matrix_json(alpha.matrix),
        "is_involution": alpha.is_involution(),
    }, checks, {"values_dimension": dimK})


def cmd_hyperbolic(data, args):
    A = algebra_from_json(data["algebra"])
    gamma = map_from_json(A, data["gamma"])
    if not gamma.is_involution():
        raise ValueError("hyperbolic construction expects an involution gamma")
    K = _forms.standard_double_module(A, gamma)
    theta = _forms.standard_involution(K, gamma)
    if data.get("module", "regular") == "regular":
        P = _mod.regular_module(A)
    else:
        P = module_from_json(A, data["module"])
    res = _inv.hyperbolic_involution(K, theta, P)
    checks = verify_involution_map(res.algebra, res.involution.matrix, "hyperbolic involution")
    checks += verify_form_balance(res.form, "hyperbolic form")
    checks.append(_check("form is theta-symmetric",
                         res.form.is_symmetric_under(theta)))
    return _report({
        "endomorphism_dimension": res.algebra.dim,
        "involution": matrix_json(res.involution.matrix),
    }, checks, {"module_dimension": res.module.dim})


def cmd_anti_structure_m2(data, args):
    A = algebra_from_json(data["algebra"])
    gamma = map_from_json(A, data["gamma"])
    s = _inv.AntiStructure(A, gamma, data["v"])
    alpha = _inv.anti_structure_m2_involution(s)
    checks = verify_involution_map(alpha.source, alpha.matrix, "matrix-ring involution")
    return _report({"dimension": alpha.source.dim, "involution": matrix_json(alpha.matrix)},
                   checks)


def _alpha_on_matrix_ring(data, A):
    n = _json_int(data["n"], "matrix size n")
    W = _alg.matrix_algebra_over(A, n)
    spec = data["alpha"]
    if spec == "transpose":
        ident = _alg.AlgebraMap(A, A, Matrix.identity(A.field, A.dim), _alg.AlgebraMap.ANTI)
        alpha = _inv.transpose_gamma(ident, n)
    else:
        alpha = _alg.AlgebraMap(W, W, matrix_from_json(A.field, spec["matrix"]),
                                _alg.AlgebraMap.ANTI)
    return n, alpha


def cmd_reduce_standard(data, args):
    A = algebra_from_json(data["algebra"])
    n, alpha = _alpha_on_matrix_ring(data, A)
    red = _inv.reduce_to_standard(alpha, A, n, seed=args.seed)
    checks = verify_anti_map(A, red.gamma.matrix, "recovered gamma")
    if red.theta_pair is not None:
        checks.append(_check("theta relation holds on all basis triples",
                             verify.theta_relation(A, red.gamma, red.theta_pair.theta) is None))
    return _report({
        "gamma": matrix_json(red.gamma.matrix),
        "theta": matrix_json(red.theta_pair.theta) if red.theta_pair else None,
    }, checks, {
        "values_dimension": red.certificate["values_dim"],
        "identification": matrix_json(red.psi),
        "checks_performed": red.certificate["checks"],
    })


def cmd_transfer(data, args):
    A = algebra_from_json(data["algebra"])
    n, alpha = _alpha_on_matrix_ring(data, A)
    try:
        res = _inv.transfer_involution(alpha, A, n, seed=args.seed)
    except NoSymmetricUnitError as e:
        return _report({"transferred": False, "reason": str(e)}, [],
                       {"exhaustive": e.exhaustive},
                       EXIT_NEGATIVE if e.exhaustive else EXIT_INCONCLUSIVE)
    checks = verify_involution_map(A, res.beta.matrix, "transferred involution")
    return _report({
        "transferred": True,
        "beta": matrix_json(res.beta.matrix),
        "gamma": matrix_json(res.gamma.matrix),
        "unit": vector_json(A.field, res.u),
        "sign": res.sign,
    }, checks, {"trials": res.trials})


def cmd_orbit(data, args):
    A = algebra_from_json(data["algebra"])
    gamma = map_from_json(A, data["gamma"])
    K = _forms.standard_double_module(A, gamma)
    orb = _inv.duality_orbit(A, K, seed=args.seed)
    res = _inv.anti_automorphism_from_orbit(A, K, orb.n, seed=args.seed)
    checks = verify_anti_map(res.algebra, res.anti_automorphism.matrix, "orbit anti-automorphism")
    checks.append(_check("duality permutes the classes",
                         sorted(orb.permutation) == list(range(len(orb.permutation)))))
    return _report({
        "class_dimensions": [m.dim for m in orb.representatives],
        "multiplicities": orb.multiplicities,
        "permutation": orb.permutation,
        "n": orb.n,
        "endomorphism_dimension": res.algebra.dim,
    }, checks)


def cmd_poset_check(data, args):
    P = poset_from_json(data)
    maps = _posets.order_reversing_maps(P)
    invs = [m for m in maps if _posets.perm_order(m) <= 2]
    checks = [
        _check("order-reversing maps verified by definition",
               all(verify.order_reversing(P.leq, m) is None for m in maps)),
    ]
    return _report({
        "connected": P.is_connected(),
        "order_reversing": [list(m) for m in maps],
        "involutions": [list(m) for m in invs],
        "orders": sorted({_posets.perm_order(m) for m in maps}),
    }, checks, {"search": "exhaustive backtracking"}, EXIT_OK if invs else EXIT_NEGATIVE)


def cmd_incidence(data, args):
    field = field_from_json(data.get("field", "Q"))
    P = poset_from_json(data)
    A = _posets.incidence_algebra(field, P)
    checks = [_check("associativity and unit laws", verify.associative_unital(A) is None)]
    return _report({"dimension": A.dim, "algebra": algebra_to_json(A)}, checks)


def cmd_poset_of_algebra(data, args):
    A = algebra_from_json(data["algebra"])
    P = _posets.poset_of_algebra(A, seed=args.seed)
    checks = [_check("relation is a partial order", verify.partial_order(P.leq) is None)]
    return _report({"poset": poset_to_json(P)}, checks)


def cmd_steinitz(data, args):
    pic = _st.ClassGroup(tuple(_json_int(d, "invariant factor") for d in data["pic"]))
    l = pic.element([_json_int(c, "class coordinate") for c in data["l"]])
    j = pic.element([_json_int(c, "class coordinate") for c in data["j"]])
    rep = _st.example_12_check(pic, l, j)
    checks = [
        _check("solvability agrees with per-factor gcd certificate",
               rep["exists"] == all(c[3] for c in rep["certificate"])),
    ]
    return _report(rep, checks, {"per_factor": rep["certificate"]},
                   EXIT_OK if rep["exists"] else EXIT_NEGATIVE)


# -- demos ----------------------------------------------------------------

def demo_scharlau(args):
    P = _posets.scharlau_poset()
    maps = _posets.order_reversing_maps(P)
    invs = _posets.order_reversing_maps(P, 2)
    A = _posets.incidence_algebra(QQ, P)
    c = _alg.center(A)
    P2 = _posets.poset_of_algebra(A, seed=args.seed)
    iso = _posets.poset_isomorphism(P2, P)
    checks = [
        _check("poset is connected", P.is_connected()),
        _check("an order-reversing bijection of order 4 exists",
               any(_posets.perm_order(m) == 4 for m in maps)),
        _check("exhaustive search finds no order-reversing involution", not invs),
        _check("incidence algebra has one-dimensional center", c.dim == 1),
        _check("poset recovered from the algebra is isomorphic", iso is not None),
    ]
    return _report({
        "poset": poset_to_json(P),
        "anti_automorphisms": [list(m) for m in maps],
        "involutions": [list(m) for m in invs],
        "incidence_dimension": A.dim,
        "center_dimension": c.dim,
        "recovered_poset_isomorphism": list(iso) if iso else None,
    }, checks, {"order_reversing_count": len(maps)}, EXIT_NEGATIVE,
        description="12-element poset with an order-reversing symmetry of "
                    "order 4 and no order-reversing involution, after "
                    "Scharlau's 1975 example; its incidence algebra has an "
                    "anti-automorphism but no Morita-equivalent ring has an "
                    "involution")


def demo_azumaya(args):
    pic = _st.ClassGroup((48,))
    rep = _st.example_12_check(pic, pic.element([3]), pic.element([1]))
    checks = [
        _check("twist equation 16 x = delta is unsolvable", not rep["exists"]),
        _check("gcd(16,48) = 16 does not divide delta = 24",
               rep["certificate"][0][1] == 16 and rep["certificate"][0][2] == 24
               and rep["certificate"][0][2] % rep["certificate"][0][1] != 0),
        _check("[L] has order 16", rep["order_l"] == 16),
        _check("16 [L] = 0", rep["sixteen_l_zero"]),
    ]
    return _report(
        rep, checks, {"per_factor": rep["certificate"]}, EXIT_NEGATIVE,
        description="rank-16 endomorphism algebra of a quaternion algebra "
                    "twisted by a line bundle over a cubic number ring with "
                    "class group Z/48: no anti-automorphism fixing the base "
                    "exists, by the Steinitz-class solvability test")


def demo_goldman(args):
    results = []
    checks = []
    for n in (1, 2, 3):
        T, g = _alg.goldman_element(n, QQ)
        results.append({"n": n, "tensor_dimension": T.dim,
                        "element": vector_json(QQ, g)})
        checks.append(_check(f"n={n}: g^2 = 1 and swap law on all basis pairs",
                             verify.goldman(T, n * n, g) is None))
    M2 = _alg.matrix_algebra(QQ, 2)
    tr = _alg.AlgebraMap.from_images(
        M2, M2, [M2.basis_vector(i) for i in (0, 2, 1, 3)], _alg.AlgebraMap.ANTI)
    K = _forms.standard_double_module(M2, tr)
    theta = _forms.involution_from_goldman(K)
    checks += verify_double_involution(K, theta.matrix, "right-multiplication by g")
    return _report(
        {"elements": results,
         "involution_on_standard_module": matrix_json(theta.matrix)},
        checks,
        description="Goldman swap elements of M_n (x) M_n and the induced "
                    "involution k -> k g on a first-kind double module")


def demo_hyperbolic_quaternion(args):
    H = _alg.quaternion_algebra(QQ)
    conj = _alg.quaternion_conjugation(H)
    K = _forms.standard_double_module(H, conj)
    theta = _forms.standard_involution(K, conj)
    res = _inv.hyperbolic_involution(K, theta, _mod.regular_module(H))
    s = _inv.AntiStructure(H, conj, H.unit)
    alpha = _inv.anti_structure_m2_involution(s)
    tr = _inv.transfer_involution(alpha, H, 2, seed=args.seed)
    checks = verify_involution_map(res.algebra, res.involution.matrix,
                                   "hyperbolic involution")
    checks += verify_involution_map(alpha.source, alpha.matrix,
                                    "anti-structure involution on M_2")
    checks += verify_involution_map(H, tr.beta.matrix, "transferred involution")
    return _report({
        "hyperbolic_dimension": res.algebra.dim,
        "hyperbolic_involution": matrix_json(res.involution.matrix),
        "m2_involution_dimension": alpha.source.dim,
        "transferred_beta": matrix_json(tr.beta.matrix),
        "unit": vector_json(QQ, tr.u),
        "sign": tr.sign,
    }, checks, {"transfer_trials": tr.trials},
        description="hyperbolic involution on End(H + H^[1]) for the rational "
                    "quaternions, the 2x2 anti-structure involution, and its "
                    "transfer back to a quaternion involution")


def demo_dyadic(args):
    rng = random.Random(args.seed)
    orbit = []
    x = Fraction(2)
    for _ in range(6):
        orbit.append(str(x))
        x = _st.dyadic_dual_rank(x)
    fixed_free = True
    strictly_halving = True
    for _ in range(1000):
        v = Fraction(rng.randrange(1, 1 << 12), 1 << rng.randrange(0, 12))
        img = _st.dyadic_dual_rank(v)
        if img == v:
            fixed_free = False
        if img * 2 != v:
            strictly_halving = False
    checks = [
        _check("map halves exactly", strictly_halving),
        _check("no nonzero fixed point in 1000 samples", fixed_free),
        _check("zero is fixed", _st.dyadic_dual_rank(0) == 0),
    ]
    return _report(
        {"orbit_of_2": orbit}, checks, {"samples": 1000},
        description="the duality functor on the projectives of the infinite "
                    "2x2-matrix limit acts on dyadic ranks by halving, so no "
                    "nonzero projective is self-dual")


def demo_rank_bounds(args):
    hom = _st.rank_hom(4, 4, 4)
    doubles = {n * n: _st.rank_double_module(n * n, n * n) for n in (2, 3, 4)}
    bounds = {r: _st.saltman_rank_bound(r, r) for r in (4, 16, 64)}
    checks = [
        _check("rank Hom over rank-4 algebra with rank-4 modules is 4", hom == 4),
        _check("double modules of equal-rank type have square rank",
               all(v == (k, k) for k, v in doubles.items())),
        _check("equal-rank bound is 4 rank(A)",
               all(v == 4 * k for k, v in bounds.items())),
    ]
    return _report({
        "rank_hom_4_4_4": str(hom),
        "rank_double_module": {str(k): list(v) for k, v in doubles.items()},
        "saltman_bound": {str(k): v for k, v in bounds.items()},
    }, checks,
        description="rank bookkeeping for hom modules, double modules and "
                    "the 4 rank(A) bound on the algebra carrying the "
                    "constructed involution")


DEMO_FUNCS = {
    "scharlau": demo_scharlau,
    "azumaya-no-involution": demo_azumaya,
    "goldman": demo_goldman,
    "hyperbolic-quaternion": demo_hyperbolic_quaternion,
    "dyadic": demo_dyadic,
    "rank-bounds": demo_rank_bounds,
}
DEMOS = tuple(DEMO_FUNCS)

COMMANDS = {
    "radical": cmd_radical,
    "center": cmd_center,
    "idempotents": cmd_idempotents,
    "basic": cmd_basic,
    "form-correspond": cmd_form_correspond,
    "hyperbolic": cmd_hyperbolic,
    "anti-structure-m2": cmd_anti_structure_m2,
    "reduce-standard": cmd_reduce_standard,
    "transfer": cmd_transfer,
    "orbit": cmd_orbit,
    "poset-check": cmd_poset_check,
    "incidence": cmd_incidence,
    "poset-of-algebra": cmd_poset_of_algebra,
    "steinitz": cmd_steinitz,
}


class UsageError(ValueError):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    # report usage errors through run() as exit 1 with a JSON error,
    # instead of argparse's exit 2, which is the certified-negative code
    def error(self, message):
        raise UsageError(f"{message}; {' '.join(self.format_usage().split())}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fdalg",
        description="exact constructions on finite-dimensional algebras: "
                    "bilinear forms, involutions, incidence algebras, "
                    "Steinitz classes",
    )
    parser.add_argument("command", choices=sorted(COMMANDS) + ["demo"])
    parser.add_argument("name", nargs="?", help="demo name (for the demo command)")
    parser.add_argument("--input", help="path to the input JSON ('-' for stdin)")
    parser.add_argument("--output", help="path for the report (default stdout)")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        _emit(None, {"error": f"{type(e).__name__}: {e}"})
        return EXIT_INPUT
    report_head = {"command": args.command}
    if args.command == "demo":
        report_head["demo"] = args.name
    report_head["seed"] = args.seed
    try:
        if args.command == "demo":
            if args.name not in DEMO_FUNCS:
                raise ValueError(
                    f"unknown demo {args.name!r}; available: {', '.join(DEMOS)}"
                )
            body, code = DEMO_FUNCS[args.name](args)
        else:
            data = _load_input(args)
            body, code = COMMANDS[args.command](data, args)
    except UnsupportedCharacteristicError as e:
        _emit(args.output, {**report_head, "error": str(e)})
        return EXIT_INPUT
    except (NotAPosetError, NotSplitError) as e:
        _emit(args.output, {**report_head, "error": str(e)})
        return EXIT_NEGATIVE
    except (UnsplitQuotientError, InconclusiveError) as e:
        _emit(args.output, {**report_head, "error": str(e)})
        return EXIT_INCONCLUSIVE
    except (FdalgError, ValueError, KeyError, TypeError,
            json.JSONDecodeError, OSError) as e:
        _emit(args.output, {**report_head, "error": f"{type(e).__name__}: {e}"})
        return EXIT_INPUT
    report = {**report_head, **body}
    _emit(args.output, report)
    return code


def _emit(output, report) -> None:
    """Stream the report, so that no second copy of it is held as one string."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
    else:
        json.dump(report, sys.stdout, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")


def _load_input(args) -> dict:
    if not args.input:
        raise ValueError("this command needs --input")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time and asserting the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from fdalg import algebras as alg, cli, forms, involutions as inv
from fdalg import modules as mod, posets as ps, steinitz as stz
from fdalg.linalg import Field, QQ

from helpers import identity_anti, random_adjoint, transpose_map, ut_flip_map

F5 = Field(5)


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.label}: {status} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.label} exceeded {self.budget}s"
        return False


def _independent_anti_check(W, alpha):
    """Anti-multiplicativity verified by raw products, independent of the
    AlgebraMap construction path."""
    for i in range(W.dim):
        for j in range(W.dim):
            lhs = alpha.apply(W.mul(W.basis_vector(i), W.basis_vector(j)))
            rhs = W.mul(alpha.apply(W.basis_vector(j)), alpha.apply(W.basis_vector(i)))
            if lhs != rhs:
                return False
    return True


def _corpus():
    m2q = alg.matrix_algebra(QQ, 2)
    m2f5 = alg.matrix_algebra(F5, 2)
    ut3 = alg.upper_triangular_algebra(QQ, 3)
    return [
        (m2q, transpose_map(m2q, 2)),
        (m2f5, transpose_map(m2f5, 2)),
        (ut3, ut_flip_map(ut3, 3)),
    ]


def test_criterion_1_correspondence_round_trip():
    with _Timer("1 (correspondence round trip)", 10):
        count = 0
        for A, gamma in _corpus():
            K = forms.standard_double_module(A, gamma)
            R = mod.regular_module(A)
            generators = [R]
            if A.dim == 4:  # matrix algebras: adjoin a column summand
                generators.append(mod.direct_sum([R, mod.decompose(R)[0]]))
            else:
                # upper triangular: adjoin the middle projective, the one
                # fixed by the flip duality, so regular forms exist
                middle = next(p for p in mod.decompose(R) if p.dim == 2)
                generators.append(mod.direct_sum([R, middle]))
            for M in generators:
                assert M.dim <= 8
                D1, H1 = forms.dual_module(M, K, 1)
                for seed in range(4):
                    f = random_adjoint(M, D1, seed)
                    b = forms.form_from_adjoint(M, K, H1, f)
                    alpha, end = forms.corresponding_anti_automorphism(b)
                    assert _independent_anti_check(end.algebra, alpha)
                    res = forms.form_from_anti_automorphism(alpha, end)
                    back, _ = forms.corresponding_anti_automorphism(res.form, end)
                    assert back.matrix == alpha.matrix
                    count += 1
        assert count >= 20, count


def test_criterion_2_duality_functor_laws():
    with _Timer("2 (duality functor laws)", 30):
        form_count = 0
        for A, gamma in _corpus():
            K = forms.standard_double_module(A, gamma)
            assert forms.is_double_progenerator(K)
            R = mod.regular_module(A)
            pieces = mod.decompose(R)
            projectives = [R, pieces[0], mod.direct_sum([pieces[0], R])]
            if A.dim == 4:
                projectives.append(mod.direct_sum([R, R]))
            for M in projectives:
                assert M.dim <= 12
                D0, _ = forms.dual_module(M, K, 0)
                D01, _ = forms.dual_module(D0, K, 1)
                assert mod.is_isomorphic(D01, M, seed=1) is not None
                D1, _ = forms.dual_module(M, K, 1)
                D10, _ = forms.dual_module(D1, K, 0)
                assert mod.is_isomorphic(D10, M, seed=1) is not None
            # right regular iff left regular on random (possibly singular) forms
            M = projectives[2]
            D1, H1 = forms.dual_module(M, K, 1)
            for seed in range(7):
                f = random_adjoint(M, D1, seed, invertible=False)
                b = forms.form_from_adjoint(M, K, H1, f)
                adj = forms.adjoints(b)
                assert adj.right_regular == adj.left_regular
                form_count += 1
        assert form_count >= 20, form_count


def test_criterion_3_hyperbolic_construction():
    with _Timer("3 (hyperbolic involutions)", 10):
        cases = []
        FQ = alg.field_algebra(QQ)
        cases.append((FQ, identity_anti(FQ)))
        m2f5 = alg.matrix_algebra(F5, 2)
        cases.append((m2f5, transpose_map(m2f5, 2)))
        H = alg.quaternion_algebra(QQ)
        cases.append((H, alg.quaternion_conjugation(H)))
        for A, gamma in cases:
            K = forms.standard_double_module(A, gamma)
            theta = forms.standard_involution(K, gamma)
            res = inv.hyperbolic_involution(K, theta, mod.regular_module(A))
            W = res.algebra
            assert _independent_anti_check(W, res.involution)
            sq = res.involution.matrix * res.involution.matrix
            assert sq.is_identity()
            # type matches K's type (re-checked independently)
            inv.check_type_on_center(res.involution, res.end, forms.type_of(K))


def test_criterion_4_transfer():
    with _Timer("4 (involution transfer)", 10):
        H = alg.quaternion_algebra(QQ)
        conj = alg.quaternion_conjugation(H)
        s = inv.AntiStructure(H, conj, H.unit)
        alpha = inv.anti_structure_m2_involution(s)
        res = inv.transfer_involution(alpha, H, 2)
        beta = res.beta
        assert (beta.matrix * beta.matrix).is_identity()
        assert _independent_anti_check(H, beta)
        FQ = alg.field_algebra(QQ)
        T3 = inv.transpose_gamma(identity_anti(FQ), 3)
        res2 = inv.transfer_involution(T3, FQ, 3)
        assert res2.beta.matrix.is_identity()


def test_criterion_5_scharlau_counterexample():
    with _Timer("5 (Scharlau counterexample)", 60):
        P = ps.scharlau_poset()  # the validation gate runs at construction
        assert P.is_connected()
        maps = ps.order_reversing_maps(P)
        assert any(ps.perm_order(m) == 4 for m in maps)
        assert [m for m in maps if ps.perm_order(m) <= 2] == []
        A = ps.incidence_algebra(QQ, P)
        assert alg.center(A).dim == 1
        P2 = ps.poset_of_algebra(A)
        assert ps.poset_isomorphism(P2, P) is not None


def test_criterion_6_goldman():
    with _Timer("6 (Goldman elements)", 10):
        for n in (1, 2, 3):
            T, g = alg.goldman_element(n, QQ)
            assert T.mul(g, g) == T.unit
            d = n * n
            for r in range(d):
                for s in range(d):
                    assert T.mul(g, T.basis_vector(r * d + s)) == \
                        T.mul(T.basis_vector(s * d + r), g)
        M2 = alg.matrix_algebra(QQ, 2)
        K = forms.standard_double_module(M2, transpose_map(M2, 2))
        theta = forms.involution_from_goldman(K)
        Tm = theta.matrix
        assert (Tm * Tm).is_identity()
        for t in range(M2.dim):
            assert K.action0[t] * Tm == Tm * K.action1[t]
            assert K.action1[t] * Tm == Tm * K.action0[t]


def test_criterion_7_azumaya_example():
    with _Timer("7 (class-group obstruction)", 1):
        pic = stz.ClassGroup((48,))
        l = pic.element([3])
        rep = stz.example_12_check(pic, l, pic.element([1]))
        assert rep["exists"] is False
        assert rep["certificate"] == [[48, 16, 24, False]]
        assert 24 % 16 != 0
        assert rep["order_l"] == 16
        assert rep["sixteen_l_zero"] is True


def test_criterion_8_rank_formulas():
    with _Timer("8 (rank formulas)", 1):
        assert stz.rank_hom(4, 4, 4) == 4
        for n in (2, 3, 4):
            assert stz.rank_double_module(n * n, n * n) == (n * n, n * n)
        for r in (4, 16, 64):
            assert stz.saltman_rank_bound(r, r) == 4 * r


def test_criterion_9_dyadic_map():
    with _Timer("9 (dyadic halving)", 1):
        rng = random.Random(0)
        for _ in range(1000):
            x = Fraction(rng.randrange(1, 1 << 10), 1 << rng.randrange(0, 10))
            y = stz.dyadic_dual_rank(x)
            assert 2 * y == x
            assert y != x


def test_criterion_10_demo_determinism(tmp_path):
    with _Timer("10 (demo determinism)", 120):
        for name in cli.DEMOS:
            a = tmp_path / f"{name}-a.json"
            b = tmp_path / f"{name}-b.json"
            code_a = cli.run(["demo", name, "--seed", "0", "--output", str(a)])
            code_b = cli.run(["demo", name, "--seed", "0", "--output", str(b)])
            assert code_a == code_b
            assert a.read_bytes() == b.read_bytes()
            json.loads(a.read_text())


def test_orbit_over_a_61_bit_prime(tmp_path):
    # roots of minimal polynomials over GF(2^61 - 1) come from gcds, and
    # the field itself from a deterministic primality test
    M2 = alg.matrix_algebra(Field(2 ** 61 - 1), 2)
    data = {"algebra": cli.algebra_to_json(M2),
            "gamma": {"matrix": cli.matrix_json(transpose_map(M2, 2).matrix)}}
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(data))
    with _Timer("orbit over GF(2^61 - 1)", 5):
        code = cli.run(["orbit", "--input", str(src), "--seed", "0", "--output", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["checks"] and all(c["pass"] for c in report["checks"])
        assert report["result"]["permutation"] == [0]

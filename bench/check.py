"""Independent checks of ``fdalg`` reports with the benchmark's own
arithmetic.

A report's own ``checks`` section is not trusted on its own: several of
its entries are constant.  Each family of jobs is checked here against
the expected exit code and against invariants known from how its input
was constructed (``gen.py``), recomputed with plain ints and Fractions on
the input tables.  ``check`` returns a list of problems; empty means the
report is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

import gen


class Arith:
    """Scalars of Q (``p is None``) or GF(p), and dense vectors over them."""

    def __init__(self, p):
        self.p = p

    def red(self, x):
        return x if self.p is None else x % self.p

    def inv(self, x):
        return 1 / Fraction(x) if self.p is None else pow(x, -1, self.p)

    def parse(self, s):
        if self.p is None:
            return Fraction(s)
        k, _, q = str(s).partition(" mod ")
        if int(q) != self.p:
            raise ValueError(f"scalar {s!r} is not in GF({self.p})")
        return int(k)

    def vec(self, strings):
        return [self.parse(s) for s in strings]

    def mat(self, rows):
        return [self.vec(r) for r in rows]

    def matmul(self, a, b):
        out = []
        for row in a:
            acc = [0] * len(b[0])
            for i, c in enumerate(row):
                if c:
                    for j, x in enumerate(b[i]):
                        if x:
                            acc[j] += c * x
            out.append([self.red(x) for x in acc])
        return out

    def is_identity(self, m):
        return all(x == (1 if i == j else 0) for i, r in enumerate(m) for j, x in enumerate(r))

    def rank(self, rows):
        rows = [list(r) for r in rows]
        rank = 0
        ncols = len(rows[0]) if rows else 0
        for c in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = self.inv(rows[rank][c])
            rows[rank] = [self.red(inv * x) for x in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [self.red(a - f * b) for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank


class Alg:
    """An input algebra from ``gen.py``, multiplied with its own table."""

    def __init__(self, data):
        f = data["field"]
        self.ar = Arith(None if f == "Q" else f["p"])
        self.d = len(data["basis"])
        self.sparse = [[[(k, c) for k, c in enumerate(cell) if c] for cell in row]
                       for row in data["table"]]
        self.unit = [self.ar.red(c) for c in data["unit"]]

    def basis(self, i):
        v = [0] * self.d
        v[i] = 1
        return v

    def mul(self, x, y):
        out = [0] * self.d
        for i, xi in enumerate(x):
            if xi:
                row = self.sparse[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj
                        for k, ck in row[j]:
                            out[k] += c * ck
        return [self.ar.red(v) for v in out]

    def apply(self, m, x):
        """A map's matrix (column j = image of e_j) applied to x."""
        return [self.ar.red(sum(r[i] * xi for i, xi in enumerate(x) if xi)) for r in m]

    def anti_problems(self, m, label):
        """Unit preserved, anti-multiplicative on basis pairs, bijective."""
        out = []
        if self.apply(m, self.unit) != self.unit:
            out.append(f"{label}: unit not preserved")
        images = [self.apply(m, self.basis(i)) for i in range(self.d)]
        for i in range(self.d):
            for j in range(self.d):
                lhs = self.apply(m, self.mul(self.basis(i), self.basis(j)))
                if lhs != self.mul(images[j], images[i]):
                    out.append(f"{label}: not anti-multiplicative at ({i},{j})")
                    return out
        if self.ar.rank(m) != self.d:
            out.append(f"{label}: not bijective")
        return out


def _poset_isomorphic(p, q) -> bool:
    """Backtracking isomorphism test of two relation matrices."""
    n = len(p)
    if n != len(q):
        return False

    def profile(r, i):
        return (sum(r[i]), sum(r[k][i] for k in range(n)))

    pp = [profile(p, i) for i in range(n)]
    qp = [profile(q, i) for i in range(n)]
    if sorted(pp) != sorted(qp):
        return False
    image, used = [None] * n, [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or pp[i] != qp[j]:
                continue
            if all(p[i][k] == q[j][image[k]] and p[k][i] == q[image[k]][j]
                   for k in range(i)):
                image[i], used[j] = j, True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def _closure(n, covers):
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in covers:
        leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


# -- structure-q ------------------------------------------------------------

def _radical(job, rep, A, ar):
    e = job["expect"]
    basis = [ar.vec(v) for v in rep["result"]["basis"]]
    support = set(e["radical_support"])
    out = []
    if rep["result"]["dimension"] != len(support) or len(basis) != len(support):
        out.append(f"radical dimension {rep['result']['dimension']} != {len(support)}")
    if any(x for v in basis for t, x in enumerate(v) if t not in support):
        out.append("radical vector outside the radical")
    if basis and ar.rank(basis) != len(basis):
        out.append("radical basis is dependent")
    return out


def _center(job, rep, A, ar):
    basis = [ar.vec(v) for v in rep["result"]["basis"]]
    out = []
    if rep["result"]["dimension"] != job["expect"]["center_dim"] or len(basis) != job["expect"]["center_dim"]:
        out.append(f"center dimension {rep['result']['dimension']} != {job['expect']['center_dim']}")
    for z in basis:
        for i in range(A.d):
            if A.mul(z, A.basis(i)) != A.mul(A.basis(i), z):
                return out + [f"center vector does not commute with e{i}"]
    if basis and ar.rank(basis) != len(basis):
        out.append("center basis is dependent")
    return out


def _idempotents(job, rep, A, ar):
    idems = [ar.vec(v) for v in rep["result"]["idempotents"]]
    out = []
    if rep["result"]["count"] != job["expect"]["idempotents"] or len(idems) != job["expect"]["idempotents"]:
        out.append(f"idempotent count {rep['result']['count']} != {job['expect']['idempotents']}")
    zero = [0] * A.d
    for a, e in enumerate(idems):
        if A.mul(e, e) != e:
            out.append(f"element {a} is not idempotent")
        for b, f in enumerate(idems):
            if a != b and A.mul(e, f) != zero:
                out.append(f"elements {a}, {b} are not orthogonal")
    total = [ar.red(sum(col)) for col in zip(*idems)] if idems else zero
    if total != A.unit:
        out.append("idempotents do not sum to 1")
    return out


def _basic(job, rep, A, ar):
    e = ar.vec(rep["result"]["idempotent"])
    want = job["expect"]["basic_dim"]
    out = []
    if A.mul(e, e) != e:
        out.append("basic idempotent is not idempotent")
    corner = [A.mul(e, A.mul(A.basis(i), e)) for i in range(A.d)]
    if ar.rank(corner) != want:
        out.append(f"dim eAe is {ar.rank(corner)}, expected {want}")
    if rep["result"]["dimension"] != want or len(rep["result"]["algebra"]["basis"]) != want:
        out.append(f"basic dimension {rep['result']['dimension']} != {want}")
    return out


def _poset_of_algebra(job, rep, A, ar):
    P = rep["result"]["poset"]
    leq = _closure(P["size"], P["cover"])
    if not _poset_isomorphic(leq, job["expect"]["poset"]):
        return ["recovered poset is not isomorphic to the input poset"]
    return []


# -- forms-gfp --------------------------------------------------------------

def _hyperbolic(job, rep, A, ar):
    out = []
    if rep["result"]["endomorphism_dimension"] != 4 * A.d:
        out.append(f"End dimension {rep['result']['endomorphism_dimension']} != 4 dim A")
    if rep["certificate"]["module_dimension"] != 2 * A.d:
        out.append("hyperbolic module is not P + P^[1]")
    m = ar.mat(rep["result"]["involution"])
    if len(m) != 4 * A.d or not ar.is_identity(ar.matmul(m, m)):
        out.append("hyperbolic involution does not square to the identity")
    return out


def _orbit(job, rep, A, ar):
    e = job["expect"]
    res = rep["result"]
    out = []
    if len(res["class_dimensions"]) != e["classes"] or set(res["multiplicities"]) != {e["mult"]}:
        out.append("wrong projective classes")
    if sum(m * d for m, d in zip(res["multiplicities"], res["class_dimensions"])) != A.d:
        out.append("class dimensions do not add up to dim A")
    if sorted(res["permutation"]) != list(range(e["classes"])):
        out.append("duality is not a permutation of the classes")
    if res["n"] != 1 or res["endomorphism_dimension"] != A.d:
        out.append("regular module should be self-dual with End = A")
    return out


def _transfer(job, rep, A, ar):
    res = rep["result"]
    if not res.get("transferred"):
        return ["no transfer"]
    beta, gamma, u = ar.mat(res["beta"]), ar.mat(res["gamma"]), ar.vec(res["unit"])
    out = A.anti_problems(beta, "beta") + A.anti_problems(gamma, "gamma")
    if not ar.is_identity(ar.matmul(beta, beta)):
        out.append("beta does not square to the identity")
    if res["sign"] not in (1, -1):
        out.append("sign is not +-1")
    if ar.rank([A.mul(u, A.basis(i)) for i in range(A.d)]) != A.d:
        out.append("u is not a unit")
    for i in range(A.d):
        r = A.basis(i)
        if A.mul(u, A.apply(beta, r)) != A.mul(A.apply(gamma, r), u):
            out.append(f"beta != u^-1 gamma u at e{i}")
            break
    return out


def _reduce(job, rep, A, ar):
    res = rep["result"]
    gamma = ar.mat(res["gamma"])
    out = A.anti_problems(gamma, "gamma")
    if rep["certificate"]["values_dimension"] != A.d:
        out.append("values module is not of dimension dim A")
    if res["theta"] is None:
        return out + ["no theta for an involution"]
    theta = ar.mat(res["theta"])
    if not ar.is_identity(ar.matmul(theta, theta)):
        out.append("theta does not square to the identity")

    def th(x):  # row vector times theta
        return [ar.red(sum(x[i] * theta[i][j] for i in range(A.d) if x[i]))
                for j in range(A.d)]

    for i in range(A.d):
        ga = A.apply(gamma, A.basis(i))
        for j in range(A.d):
            tb = th(A.basis(j))
            for k in range(A.d):
                c = A.basis(k)
                lhs = th(A.mul(ga, A.mul(A.basis(j), c)))
                if lhs != A.mul(A.apply(gamma, c), A.mul(tb, A.basis(i))):
                    return out + [f"theta relation fails at ({i},{j},{k})"]
    return out


def _anti_structure(job, rep, A, ar):
    """Compare with the closed form [[a,b],[c,d]] -> [[g(d), g(b)],
    [g(c), g(a)]] of v = 1 and an involution g."""
    g = job["expect"]["gamma"]
    d = A.d
    want = [[0] * (4 * d) for _ in range(4 * d)]
    slot = {(0, 0): (1, 1), (0, 1): (0, 1), (1, 0): (1, 0), (1, 1): (0, 0)}
    for (i, j), (k, l) in slot.items():
        for t in range(d):
            for s in range(d):
                want[(k * 2 + l) * d + s][(i * 2 + j) * d + t] = ar.red(g[s][t])
    got = ar.mat(rep["result"]["involution"])
    if rep["result"]["dimension"] != 4 * d or got != want:
        return ["2x2 involution differs from its closed form"]
    return []


def _form_correspond(job, rep, A, ar):
    n = job["expect"]["n"]
    res = rep["result"]
    out = []
    if res["endomorphism_dimension"] != n * n * A.d:
        out.append(f"End dimension {res['endomorphism_dimension']} != n^2 dim A")
    if rep["certificate"]["values_dimension"] != A.d:
        out.append("values module is not of dimension dim A")
    alpha = ar.mat(res["alpha"])
    if res["is_involution"] is not True or not ar.is_identity(ar.matmul(alpha, alpha)):
        out.append("corresponding map of a hermitian form is not an involution")
    return out


# -- demos ------------------------------------------------------------------

def _demo(job, rep):
    name = job["argv"][1]
    res = rep["result"]
    out = []
    if name == "scharlau":
        P = res["poset"]
        leq = _closure(P["size"], P["cover"])
        n = P["size"]
        strict = sum(map(sum, leq)) - n
        for m in res["anti_automorphisms"]:
            if any(leq[i][j] != leq[m[j]][m[i]] for i in range(n) for j in range(n)):
                out.append("listed map is not order-reversing")
                break
        orders = set()
        for m in res["anti_automorphisms"]:
            k, cur = 1, list(m)
            while cur != list(range(n)):
                cur = [m[x] for x in cur]
                k += 1
            orders.add(k)
        if n != 12 or 4 not in orders or res["involutions"] or orders & {1, 2}:
            out.append("Scharlau poset lost its order-4 symmetry or gained an involution")
        if res["incidence_dimension"] != n + strict or res["center_dimension"] != 1:
            out.append("incidence algebra has the wrong dimension or center")
        iso = res["recovered_poset_isomorphism"]
        if iso is None or sorted(iso) != list(range(n)):
            out.append("recovered poset is not isomorphic")
    elif name == "azumaya-no-involution":
        if res["exists"] or res["order_l"] != 16:
            out.append("twist equation result changed")
    elif name == "goldman":
        for el in res["elements"]:
            n = el["n"]
            g = [Fraction(x) for x in el["element"]]
            # e_ij (x) e_kl is the matrix unit at ((i,k), (j,l)) of M_{n^2}
            m = [[Fraction(0)] * (n * n) for _ in range(n * n)]
            for idx, c in enumerate(g):
                if c:
                    a, b = divmod(idx, n * n)
                    (i, j), (k, l) = divmod(a, n), divmod(b, n)
                    m[i * n + k][j * n + l] += c
            if not Arith(None).is_identity(Arith(None).matmul(m, m)):
                out.append(f"Goldman element for n={n} does not square to 1")
        t = Arith(None).mat(res["involution_on_standard_module"])
        if not Arith(None).is_identity(Arith(None).matmul(t, t)):
            out.append("Goldman involution does not square to the identity")
    elif name == "hyperbolic-quaternion":
        H = Alg(gen.quaternions(None))
        beta = H.ar.mat(res["transferred_beta"])
        out += H.anti_problems(beta, "transferred beta")
        if not H.ar.is_identity(H.ar.matmul(beta, beta)):
            out.append("transferred beta does not square to the identity")
        hyp = H.ar.mat(res["hyperbolic_involution"])
        if res["hyperbolic_dimension"] != 16 or not H.ar.is_identity(H.ar.matmul(hyp, hyp)):
            out.append("hyperbolic involution is not an involution of a 16-dim algebra")
        if res["m2_involution_dimension"] != 16:
            out.append("M_2(H) has the wrong dimension")
    elif name == "dyadic":
        if res["orbit_of_2"] != ["2", "1", "1/2", "1/4", "1/8", "1/16"]:
            out.append("dyadic orbit is not halving")
    elif name == "rank-bounds":
        if (res["rank_hom_4_4_4"] != "4"
                or res["saltman_bound"] != {"4": 16, "16": 64, "64": 256}):
            out.append("rank bookkeeping changed")
    return out


FAMILIES = {
    "radical": _radical, "center": _center, "idempotents": _idempotents,
    "basic": _basic, "poset-of-algebra": _poset_of_algebra,
    "hyperbolic": _hyperbolic, "orbit": _orbit, "transfer": _transfer,
    "reduce-standard": _reduce, "anti-structure-m2": _anti_structure,
    "form-correspond": _form_correspond,
}


def check(job: dict, code: int, report_bytes: bytes) -> list:
    """Problems with one job's exit code and report; empty when correct."""
    want = job["expect"]["exit"]
    if code != want:
        return [f"exit code {code}, expected {want}"]
    try:
        rep = json.loads(report_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        return [f"report is not JSON: {e}"]
    cmd = job["argv"][0]
    if rep.get("command") != cmd:
        return [f"report names command {rep.get('command')!r}"]
    if want == 1:
        return [] if "too small" in rep.get("error", "") else ["unexpected error text"]
    if "error" in rep:
        return [f"report carries an error: {rep['error']}"]
    failed = [c["name"] for c in rep.get("checks", []) if c.get("pass") is not True]
    if failed:
        return [f"report check failed: {name}" for name in failed]
    try:
        if cmd == "demo":
            return _demo(job, rep)
        A = Alg(job["input"]["algebra"])
        return FAMILIES[cmd](job, rep, A, A.ar)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return [f"report has an unexpected shape: {type(e).__name__}: {e}"]

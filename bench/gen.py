"""Seeded benchmark inputs written from closed forms.

Nothing here imports ``fdalg``: every algebra, map, module and form is
built with plain integers from its textbook definition, so the inputs do
not depend on the code under test.  Scalars are Python ints; over GF(p)
they are reduced into ``range(p)``.

An algebra is a dict ``{"field", "basis", "table", "unit"}`` in the CLI's
input format, where ``table[i][j]`` lists the coordinates of
``e_i * e_j``.  A map is a square matrix whose column ``j`` is the image
of basis vector ``j`` (the CLI's ``AlgebraMap`` convention).
"""

from __future__ import annotations

import random


def field_spec(p):
    return "Q" if p is None else {"p": p}


def _red(p, x):
    return x if p is None else x % p


def _algebra(p, names, products, unit_idx):
    """Build a table from ``products[(i, j)] = {k: c}`` (sparse)."""
    d = len(names)
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), out in products.items():
        for k, c in out.items():
            table[i][j][k] = _red(p, c)
    unit = [0] * d
    for k, c in unit_idx.items():
        unit[k] = _red(p, c)
    return {"field": field_spec(p), "basis": names, "table": table, "unit": unit}


def _unit_pairs(p, pairs, names=None):
    """Span of matrix units ``e_ij`` for ``(i, j)`` in ``pairs``, closed
    under the product ``e_ij e_jl = e_il``."""
    index = {pr: t for t, pr in enumerate(pairs)}
    products = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                products[(a, b)] = {index[(i, l)]: 1}
    diag = {index[(i, j)]: 1 for (i, j) in pairs if i == j}
    if names is None:
        names = [f"e{i + 1}_{j + 1}" for i, j in pairs]
    return _algebra(p, names, products, diag)


def matrix_algebra(p, n):
    """M_n on matrix units, row-major."""
    return _unit_pairs(p, [(i, j) for i in range(n) for j in range(n)])


def upper_triangular(p, n):
    """UT_n on the units e_ij, i <= j."""
    return _unit_pairs(p, [(i, j) for i in range(n) for j in range(i, n)])


def incidence_algebra(p, leq):
    """Incidence algebra of the poset with relation matrix ``leq``."""
    n = len(leq)
    return _unit_pairs(p, [(i, j) for i in range(n) for j in range(n) if leq[i][j]])


def quaternions(p, a=-1, b=-1):
    """(a, b) with i^2 = a, j^2 = b, ij = -ji = k, on the basis 1, i, j, k."""
    products = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (1, 1): {0: a}, (1, 2): {3: 1}, (1, 3): {2: a},
        (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {0: b}, (2, 3): {1: -b},
        (3, 0): {3: 1}, (3, 1): {2: -a}, (3, 2): {1: b}, (3, 3): {0: -a * b},
    }
    return _algebra(p, ["1", "i", "j", "k"], products, {0: 1})


def direct_product(A, B):
    da, db = len(A["basis"]), len(B["basis"])
    d = da + db
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(da):
        for j in range(da):
            table[i][j][:da] = A["table"][i][j]
    for i in range(db):
        for j in range(db):
            table[da + i][da + j][da:] = B["table"][i][j]
    names = [f"({n},0)" for n in A["basis"]] + [f"(0,{n})" for n in B["basis"]]
    return {"field": A["field"], "basis": names, "table": table,
            "unit": list(A["unit"]) + list(B["unit"])}


# -- maps -----------------------------------------------------------------

def _columns_to_matrix(cols):
    d = len(cols)
    return [[cols[j][k] for j in range(d)] for k in range(len(cols[0]))]


def unit_pair_anti(p, pairs, sigma):
    """e_ij -> e_{sigma(j) sigma(i)} on a span of matrix units."""
    index = {pr: t for t, pr in enumerate(pairs)}
    cols = []
    for i, j in pairs:
        col = [0] * len(pairs)
        col[index[(sigma[j], sigma[i])]] = 1
        cols.append(col)
    return _columns_to_matrix(cols)


def transpose_map(p, n):
    """Transpose on M_n."""
    return unit_pair_anti(p, [(i, j) for i in range(n) for j in range(n)],
                          list(range(n)))


def flip_map(p, n):
    """e_ij -> e_{n-1-j, n-1-i}, the anti-automorphism of UT_n."""
    return unit_pair_anti(p, [(i, j) for i in range(n) for j in range(i, n)],
                          [n - 1 - i for i in range(n)])


def conjugation_map(p):
    """1 -> 1, i -> -i, j -> -j, k -> -k on the quaternions."""
    return [[_red(p, c if i == j else 0) for j in range(4)]
            for i, c in enumerate((1, -1, -1, -1))]


def gamma_transpose(p, gamma, n):
    """(r_ij) -> (gamma(r_ji)) on M_n(A), basis (i, j, t) -> (i*n + j)*d + t."""
    d = len(gamma)
    D = n * n * d
    cols = []
    for i in range(n):
        for j in range(n):
            for t in range(d):
                col = [0] * D
                base = (j * n + i) * d
                for k in range(d):
                    col[base + k] = gamma[k][t]
                cols.append(col)
    return _columns_to_matrix(cols)


# -- modules and forms ----------------------------------------------------

def free_module(A, n):
    """A^n as a right module: rows (i, s) -> i*d + s, x . a_t blockwise."""
    d = len(A["basis"])
    action = []
    for t in range(d):
        rho = [[0] * (n * d) for _ in range(n * d)]
        for i in range(n):
            for s in range(d):
                for k, c in enumerate(A["table"][s][t]):
                    rho[i * d + s][i * d + k] = c
        action.append(rho)
    return {"dim": n * d, "action": action}


def _left_mult(A, x):
    """Matrix L with [x y] = [y] L, so row i holds x * e_i."""
    d = len(A["basis"])
    p = _prime(A)
    rows = []
    for i in range(d):
        out = [0] * d
        for s, xs in enumerate(x):
            if xs:
                for k, c in enumerate(A["table"][s][i]):
                    if c:
                        out[k] = _red(p, out[k] + xs * c)
        rows.append(out)
    return rows


def _prime(A):
    f = A["field"]
    return None if f == "Q" else f["p"]


def standard_double_module(A, gamma):
    """A with k .0 r = gamma(r) k and k .1 r = k r."""
    d = len(A["basis"])
    action0 = [_left_mult(A, [gamma[k][t] for k in range(d)]) for t in range(d)]
    action1 = [[list(A["table"][i][t]) for i in range(d)] for t in range(d)]
    return {"dim": d, "action0": action0, "action1": action1}


def hermitian_form(A, gamma, n):
    """b(x, y) = sum_i gamma(x_i) y_i on A^n with values in the standard
    double module of gamma; b((i, s), (j, u)) = [i == j] gamma(e_s) e_u."""
    d = len(A["basis"])
    p = _prime(A)
    zero = [0] * d
    prods = []
    for s in range(d):
        gs = [gamma[k][s] for k in range(d)]
        row = []
        for u in range(d):
            out = [0] * d
            for m, c in enumerate(gs):
                if c:
                    for k, c2 in enumerate(A["table"][m][u]):
                        if c2:
                            out[k] = _red(p, out[k] + c * c2)
            row.append(out)
        prods.append(row)
    return [[prods[s][u] if i == j else zero
             for j in range(n) for u in range(d)]
            for i in range(n) for s in range(d)]


# -- posets ---------------------------------------------------------------

def random_connected_poset(rng, n, strict):
    """A connected poset on n points with exactly ``strict`` strict
    relations whenever extra relations can reach it.

    A random tree with random edge directions makes it connected (trees
    with too many relations are drawn again); random extra relations
    follow while they keep the order acyclic and the count in range.
    Returns the relation matrix.
    """
    def gain(a, b):
        return [(i, j) for i in range(n) if leq[i][a]
                for j in range(n) if leq[b][j] and not leq[i][j]]

    count = strict + 1
    while count > strict:
        leq = [[i == j for j in range(n)] for i in range(n)]
        count = 0
        for k in range(1, n):
            j = rng.randrange(k)
            a, b = (j, k) if rng.random() < 0.5 else (k, j)
            new = gain(a, b)
            for i, jj in new:
                leq[i][jj] = True
            count += len(new)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    rng.shuffle(pairs)
    for a, b in pairs:
        if count >= strict:
            break
        if leq[a][b] or leq[b][a]:
            continue
        new = gain(a, b)
        if count + len(new) <= strict:
            for i, jj in new:
                leq[i][jj] = True
            count += len(new)
    return leq


# -- workloads ------------------------------------------------------------

DEMOS = ("scharlau", "azumaya-no-involution", "goldman", "hyperbolic-quaternion",
         "dyadic", "rank-bounds")


def _poset_algebra(p, leq):
    """Incidence algebra with the invariants its construction fixes."""
    n = len(leq)
    pairs = [(i, j) for i in range(n) for j in range(n) if leq[i][j]]
    return incidence_algebra(p, leq), {
        "radical_support": [t for t, (i, j) in enumerate(pairs) if i != j],
        "center_dim": _components(leq),
        "idempotents": n,
        "basic_dim": len(pairs),
        "poset": leq,
    }


def _components(leq):
    n = len(leq)
    seen, count = set(), 0
    for s in range(n):
        if s in seen:
            continue
        count += 1
        todo = [s]
        while todo:
            i = todo.pop()
            if i in seen:
                continue
            seen.add(i)
            todo.extend(j for j in range(n) if leq[i][j] or leq[j][i])
    return count


def _chain(n):
    return [[i <= j for j in range(n)] for i in range(n)]


def _matrix_invariants(n):
    return {"radical_support": [], "center_dim": 1, "idempotents": n,
            "basic_dim": 1, "poset": _chain(1)}


def _ut_invariants(n):
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return {"radical_support": [t for t, (i, j) in enumerate(pairs) if i != j],
            "center_dim": 1, "idempotents": n, "basic_dim": len(pairs),
            "poset": _chain(n)}


def _product_invariants(a, b, da):
    """Invariants of A x B from those of A and B (A has dimension da)."""
    pa, pb = a["poset"], b["poset"]
    na, nb = len(pa), len(pb)
    poset = [[False] * (na + nb) for _ in range(na + nb)]
    for i in range(na):
        for j in range(na):
            poset[i][j] = pa[i][j]
    for i in range(nb):
        for j in range(nb):
            poset[na + i][na + j] = pb[i][j]
    return {"radical_support": a["radical_support"] + [da + t for t in b["radical_support"]],
            "center_dim": a["center_dim"] + b["center_dim"],
            "idempotents": a["idempotents"] + b["idempotents"],
            "basic_dim": a["basic_dim"] + b["basic_dim"],
            "poset": poset}


def poset_shape(n):
    """The random connected poset on n points with 3n strict relations
    that every seed uses.  Its shape comes from a fixed generator seed, so
    all seeds measure the same amount of work; the benchmark seed only
    relabels its points (see ``relabel``)."""
    return random_connected_poset(random.Random(f"poset-{n}"), n, 3 * n)


def relabel(rng, leq):
    """The same poset with its points renamed by a random permutation."""
    n = len(leq)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[leq[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def structure_algebras(rng):
    """The structure-q algebras over Q with the invariants the checker uses."""
    algs = {f"M{n}": (matrix_algebra(None, n), _matrix_invariants(n)) for n in (5, 6)}
    algs.update({f"UT{n}": (upper_triangular(None, n), _ut_invariants(n)) for n in (8, 10)})
    for n in (10, 12, 14):
        algs[f"inc{n}"] = _poset_algebra(None, relabel(rng, poset_shape(n)))
    m3, ut5 = matrix_algebra(None, 3), upper_triangular(None, 5)
    algs["M3xUT5"] = (direct_product(m3, ut5),
                      _product_invariants(_matrix_invariants(3), _ut_invariants(5), 9))
    return algs


# structure-q: (command, algebra).  Every job family is a few large exact
# eliminations over Fraction; none touches forms or involutions.
STRUCTURE_JOBS = (
    # radical: trace-form Gram matrix, d x d; the report lists the radical
    ("radical", "UT10"), ("radical", "inc14"),
    # center: a d x d^2 system; spinning from generators would shrink it
    ("center", "M6"), ("center", "M3xUT5"),
    # idempotents: center splitting, zero-divisor search, lifting
    ("idempotents", "M5"), ("idempotents", "inc12"),
    # basic: idempotents plus is_isomorphic class grouping; a large report
    ("basic", "UT8"), ("basic", "M3xUT5"),
    # poset-of-algebra: the same grouping, then e A f tests per class pair
    ("poset-of-algebra", "inc10"),
)


def forms_algebra(name, p):
    """(algebra, anti-automorphism, invariants) over GF(p).  The
    quaternions are (-1, -1): with random (a, b), `orbit` took from 0.05 s
    to 0.33 s depending on (a, b) alone."""
    if name.startswith("M"):
        n = int(name[1:])
        return matrix_algebra(p, n), transpose_map(p, n), {"classes": 1, "mult": n}
    if name.startswith("UT"):
        n = int(name[2:])
        return upper_triangular(p, n), flip_map(p, n), {"classes": n, "mult": 1}
    return quaternions(p), conjugation_map(p), {"classes": 1, "mult": 2}


P_SMALL, P_MID, P_BIG = 5, 10007, 1000003

# forms-gfp: (command, algebra, p, n).  The work is hom_space, dual_module,
# is_isomorphic and decompose on mid-size prime-field systems.
FORMS_JOBS = (
    # hyperbolic: End(P + P^[1]) with the hyperbolic involution
    ("hyperbolic", "M2", P_BIG, None), ("hyperbolic", "UT3", P_SMALL, None),
    ("hyperbolic", "H", P_MID, None),
    # orbit: duality on projective classes; p = 1000003 walks all of GF(p)
    # in _poly_roots, and UT3 over GF(5) must exit 1 (char too small)
    ("orbit", "M2", P_BIG, None), ("orbit", "UT3", P_SMALL, None),
    ("orbit", "UT4", P_MID, None), ("orbit", "H", P_MID, None),
    # transfer: an involution of M_n(A) given as an explicit gamma-transpose
    ("transfer", "M2", P_BIG, 3), ("transfer", "H", P_SMALL, 2),
    ("transfer", "UT3", P_MID, 2),
    # reduce-standard: the same maps, reduced to (gamma, theta) on A
    ("reduce-standard", "H", P_MID, 3), ("reduce-standard", "UT3", P_SMALL, 2),
    ("reduce-standard", "M2", P_BIG, 2),
    # anti-structure-m2: the 2x2 involution of (gamma, v = 1)
    ("anti-structure-m2", "UT4", P_MID, None), ("anti-structure-m2", "M2", P_SMALL, None),
    ("anti-structure-m2", "H", P_BIG, None),
    # form-correspond: b(x, y) = sum gamma(x_i) y_i on A^n
    ("form-correspond", "M3", P_MID, 1), ("form-correspond", "UT3", P_SMALL, 2),
    ("form-correspond", "H", P_BIG, 2),
)


def jobs(workload: str, seed: int) -> list:
    """The job list of a workload.  Each job is a dict with ``id``, the CLI
    ``argv`` (without --input/--output/--seed), the ``input`` to write as
    JSON (or None) and what the checker expects in ``expect``."""
    rng = random.Random(seed)
    if workload == "demos":
        exit2 = {"scharlau", "azumaya-no-involution"}
        return [{"id": f"demo-{d}", "argv": ["demo", d], "input": None,
                 "expect": {"exit": 2 if d in exit2 else 0}} for d in DEMOS]
    if workload == "structure-q":
        algs = structure_algebras(rng)
        return [{"id": f"{cmd}-{name}", "argv": [cmd], "input": {"algebra": algs[name][0]},
                 "expect": {"exit": 0, **algs[name][1]}}
                for cmd, name in STRUCTURE_JOBS]
    if workload == "forms-gfp":
        out = []
        for cmd, name, p, n in FORMS_JOBS:
            A, g, inv = forms_algebra(name, p)
            d = len(A["basis"])
            expect = {"exit": 0, "p": p, "n": n, "gamma": g, **inv}
            if cmd in ("hyperbolic", "orbit"):
                data = {"algebra": A, "gamma": {"matrix": g}}
                if cmd == "orbit" and p <= d:
                    expect["exit"] = 1
            elif cmd == "anti-structure-m2":
                data = {"algebra": A, "gamma": {"matrix": g}, "v": A["unit"]}
            elif cmd in ("transfer", "reduce-standard"):
                data = {"algebra": A, "n": n, "alpha": {"matrix": gamma_transpose(p, g, n)}}
            else:
                data = {"algebra": A, "module": free_module(A, n),
                        "values": standard_double_module(A, g),
                        "tensor": hermitian_form(A, g, n)}
            suffix = f"-n{n}" if n else ""
            out.append({"id": f"{cmd}-{name}-p{p}{suffix}", "argv": [cmd],
                        "input": data, "expect": expect})
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("demos", "structure-q", "forms-gfp")

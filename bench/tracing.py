"""Per-layer tracing of ``fdalg`` from outside the package.

A :class:`Tracer` wraps the public entry points of each ``fdalg`` module
in place: the function in its defining module, every ``from .x import``
binding of it in the other ``fdalg`` modules, and class methods on the
class.  Each wrapped call records a span ``(layer, start, end, parent,
job)`` in memory; the hottest entry points only count calls, because a
span on each of them would distort the times being measured.

A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of all layers in a job add up to the
job's root span.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

# layer -> entry points, as "module:function" or "module:Class.method"
LAYERS = {
    "linalg.elim": ["linalg:kernel_rows", "linalg:kernel_basis",
                    "linalg:left_kernel_rows", "linalg:solve",
                    "linalg:solve_columns", "linalg:invert", "linalg:Matrix.rank"],
    "linalg.matmul": ["linalg:Matrix.__mul__"],
    "linalg.rowspace": ["linalg:RowSpace.reduce", "linalg:RowSpace.insert",
                        "linalg:RowSpace.extend", "linalg:RowSpace.contains",
                        "linalg:RowSpace.coordinates", "linalg:RowSpace.basis_matrix",
                        "linalg:QuotientSpace.__init__", "linalg:QuotientSpace.project",
                        "linalg:QuotientSpace.lift"],
    "algebras.construct": ["algebras:Algebra.__init__"],
    "algebras.map": ["algebras:AlgebraMap._validate"],
    "algebras.center": ["algebras:center"],
    "algebras.radical": ["algebras:jacobson_radical"],
    "algebras.idempotents": ["algebras:primitive_idempotents"],
    "algebras.basic": ["algebras:basic_algebra"],
    "modules.hom_space": ["modules:hom_space"],
    "modules.endomorphism": ["modules:endomorphism_algebra"],
    "modules.decompose": ["modules:decompose", "modules:decompose_with_embeddings"],
    "modules.proj_gen": ["modules:is_projective", "modules:is_generator"],
    "modules.is_isomorphic": ["modules:is_isomorphic"],
    "forms.dual_module": ["forms:dual_module"],
    "forms.adjoints": ["forms:adjoints"],
    "forms.corresponding": ["forms:corresponding_anti_automorphism"],
    "forms.from_anti": ["forms:form_from_anti_automorphism"],
    "forms.progenerator": ["forms:is_double_progenerator"],
    "involutions.hyperbolic": ["involutions:hyperbolic_involution"],
    "involutions.reduce": ["involutions:reduce_to_standard"],
    "involutions.transfer": ["involutions:transfer_involution"],
    "involutions.orbit": ["involutions:duality_orbit"],
    "involutions.orbit_anti": ["involutions:anti_automorphism_from_orbit"],
    "posets.search": ["posets:poset_isomorphisms", "posets:order_reversing_maps"],
    "posets.of_algebra": ["posets:poset_of_algebra"],
    "posets.incidence": ["posets:incidence_algebra"],
    "steinitz": ["steinitz:symbol", "steinitz:direct_sum", "steinitz:tensor",
                 "steinitz:dual", "steinitz:hom_symbol", "steinitz:is_isomorphic_symbol",
                 "steinitz:anti_automorphism_test", "steinitz:anti_automorphism_test_brute",
                 "steinitz:example_12_check", "steinitz:rank_hom",
                 "steinitz:rank_double_module", "steinitz:saltman_rank_bound",
                 "steinitz:dyadic_dual_rank"],
    "cli.parse": ["cli:field_from_json", "cli:matrix_from_json", "cli:algebra_from_json",
                  "cli:map_from_json", "cli:poset_from_json", "cli:module_from_json",
                  "cli:double_module_from_json"],
    "cli.verify": ["cli:verify_anti_map", "cli:verify_involution_map",
                   "cli:verify_double_involution", "cli:verify_form_balance"],
}
ROOT = "cli.run"

# entry points that only count calls: metric -> entry point
COUNTED = {
    "algebras.mul.calls": "algebras:Algebra.mul",
    "algebras.minpoly.calls": "algebras:minimal_polynomial",
}

def _cells(args, kwargs):
    m = args[0]
    return m.nrows * m.ncols


def _unknowns(args, kwargs):
    return args[0].dim * args[1].dim


# layer -> (quantity name, f(args, kwargs)), taken on the outermost call
ENTRY_QUANTITIES = {
    "linalg.elim": ("linalg.elim.cells", _cells),
    "modules.hom_space": ("modules.hom_space.unknowns", _unknowns),
}
# layer -> (quantity name, f(result)), taken on the outermost call
RESULT_QUANTITIES = {
    "modules.is_isomorphic": ("modules.is_isomorphic.hits",
                              lambda r: int(r is not None)),
    "involutions.transfer": ("involutions.transfer.trials", lambda r: r.trials),
}

# layers whose outermost calls are reported as well as their self time
CALL_LAYERS = ("linalg.elim", "linalg.matmul", "linalg.rowspace", "algebras.construct",
               "modules.hom_space", "modules.is_isomorphic", "forms.dual_module")


def metric_units() -> dict:
    """The per-layer metrics, name -> unit, in report order."""
    units = {}
    for layer in LAYERS:
        if layer in CALL_LAYERS:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in ENTRY_QUANTITIES:
            units[ENTRY_QUANTITIES[layer][0]] = "count"
    units["algebras.mul.calls"] = "count"
    units["algebras.minpoly.calls"] = "count"
    units["modules.is_isomorphic.hit_ratio"] = "ratio"
    units["involutions.transfer.trials"] = "count"
    units[f"{ROOT}.self_s"] = "s"
    units["cli.report_bytes"] = "bytes"
    units["trace.job_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def _resolve(modules: dict, target: str):
    mod_name, _, attr = target.partition(":")
    owner = modules[mod_name]
    if "." in attr:
        cls_name, _, attr = attr.partition(".")
        owner = getattr(owner, cls_name)
        return owner, attr, True
    return owner, attr, False


class Tracer:
    """Span and counter recorder for one worker process.

    Not re-entrant across threads: the benchmark runs jobs one at a time.
    """

    def __init__(self):
        self.spans: list = []      # (layer, start, end, parent index, job id)
        self.counts = defaultdict(float)
        self._stack: list = []     # indices of open spans
        self._layers: list = []    # layer of each open span
        self._job = None
        self._patches: list = []   # (owner, attr, original)

    # -- installing wrappers ---------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every entry point in ``modules`` (name -> ``fdalg`` module)."""
        for layer, targets in LAYERS.items():
            for target in targets:
                self._patch(modules, target, lambda fn, layer=layer: self._spanned(fn, layer))
        for metric, target in COUNTED.items():
            self._patch(modules, target, lambda fn, metric=metric: self._counted(fn, metric))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modules, target, make) -> None:
        owner, attr, is_method = _resolve(modules, target)
        original = getattr(owner, attr) if not is_method else owner.__dict__[attr]
        wrapper = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if is_method:
            return
        # the names other modules imported with "from .x import name"
        for mod in modules.values():
            if mod is not owner and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _spanned(self, fn, layer):
        tracer = self
        stack, layers = self._stack, self._layers
        entry = ENTRY_QUANTITIES.get(layer)
        result_q = RESULT_QUANTITIES.get(layer)
        calls_key = f"{layer}.calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, counts = tracer.spans, tracer.counts
            outermost = not layers or layers[-1] != layer
            if outermost:
                counts[calls_key] += 1
                if entry is not None:
                    counts[entry[0]] += entry[1](args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[idx] = (layer, start, end, parent, tracer._job)
            if outermost and result_q is not None:
                counts[result_q[0]] += result_q[1](result)
            return result

        return wrapper

    def _counted(self, fn, metric):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- jobs and passes -------------------------------------------------

    def root(self, fn):
        """``fn`` wrapped as the root span of a job; set ``job`` first."""
        return self._spanned(fn, ROOT)

    def set_job(self, job_id) -> None:
        self._job = job_id

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def take(self):
        """The spans and counters recorded since the last call."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(float)
        return spans, counts


def write_spans(path: str, passes: list) -> None:
    """Write the spans of every traced pass, one JSON array per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for layer, start, end, parent, job in spans:
                fh.write(json.dumps([number, layer, start, end, parent, job]) + "\n")


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover inside it."""
    children = defaultdict(list)
    for idx, (layer, start, end, parent, job) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (layer, start, end, parent, job) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics of one pass from its spans and counters."""
    selfs = defaultdict(float)
    for (layer, *_), s in zip(spans, self_times(spans)):
        selfs[layer] += s
    out = {}
    for name in metric_units():
        if name == "trace.overhead":  # needs the untraced passes too
            continue
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = float(counts.get(name, 0))
    calls = counts.get("modules.is_isomorphic.calls", 0)
    out["modules.is_isomorphic.hit_ratio"] = (
        counts.get("modules.is_isomorphic.hits", 0) / calls if calls else 0.0)
    out["trace.job_s"] = sum(end - start for layer, start, end, parent, job in spans
                             if parent < 0)
    return out


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))

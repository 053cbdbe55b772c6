"""One workload in a fresh process: set up, run timed passes, check.

Started by ``run.py``; not meant to be run by hand.  It prints ``BENCH
READY`` when set-up is done, then ``BENCH REF <seconds>``, the mean time
of three runs of the reference kernel, and finally one ``BENCH {json}``
line with the raw measurements.  Jobs run one at a time in this process
(a closed loop with one client), each as an in-process ``fdalg.cli.run``
call on a generated JSON input.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

import check
import gen
import tracing

MIN_PASSES = 3          # timed passes per run, whatever --seconds says
TRACED_PASSES = 2       # traced passes per traced run, at least
JOB_LIMIT_S = 60.0      # a job running longer than this fails
HARD_LIMIT_S = 150.0    # no job starts after this much time in the worker
REFERENCE_RUNS = 2      # reference-kernel runs before each job


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that fdalg's handlers miss it."""


def _alarm(signum, frame):
    raise JobTimeout()


def emit(obj) -> None:
    sys.stdout.write("BENCH " + (obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
    sys.stdout.flush()


def load_fdalg(root: str) -> dict:
    """Import fdalg from the checkout's ``src``, not from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fdalg
    if not os.path.abspath(fdalg.__file__).startswith(src + os.sep):
        raise SystemExit(f"fdalg imported from {fdalg.__file__}, not from {src}")
    from fdalg import algebras, cli, forms, involutions, linalg, modules, posets, steinitz
    return {"linalg": linalg, "algebras": algebras, "modules": modules, "forms": forms,
            "involutions": involutions, "posets": posets, "steinitz": steinitz, "cli": cli}


# A fixed exact elimination in the benchmark's own code, timed before
# every job.  It runs in the same process and time window as the jobs, so
# it sees the same slowdowns from other tenants of the machine.
_KERNEL = [[Fraction((i * 31 + j * 17) % 23 - 11, 1 + (i + j) % 5) for j in range(16)]
           for i in range(16)]


def reference_kernel() -> float:
    """Wall time of one run of the reference elimination."""
    start = time.perf_counter()
    check.Arith(None).rank(_KERNEL)
    return time.perf_counter() - start


class Runner:
    """Runs the job list pass after pass and keeps the failure account."""

    def __init__(self, mods, jobs, work, seed, deadline):
        self.cli = mods["cli"]
        self.posets = mods["posets"]
        self.jobs = jobs
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.digests: dict = {}     # job id -> sha256 of the first correct report
        self.attempted = 0
        self.failed = 0
        self.failures: list = []    # (job id, reason), first few only
        self.current = None         # the job being run

    def argv(self, job) -> list:
        argv = list(job["argv"])
        if job["input"] is not None:
            argv += ["--input", os.path.join(self.work, job["id"] + ".json")]
        return argv + ["--output", os.path.join(self.work, job["id"] + ".out.json"),
                       "--seed", str(self.seed)]

    def one_pass(self, call=None, on_report=None):
        """Job wall times and reference-kernel times of one pass, or None
        when the deadline cut it."""
        run = call or self.cli.run
        times, refs = [], []
        for job in self.jobs:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                return None
            argv = self.argv(job)
            out_path = argv[-3]
            if os.path.exists(out_path):
                os.remove(out_path)
            # as cold as a CLI call: no cached poset, no garbage left over
            self.posets.scharlau_poset.cache_clear()
            gc.collect()
            refs.extend(reference_kernel() for _ in range(REFERENCE_RUNS))
            self.current = job
            self.attempted += 1
            problems = []
            signal.setitimer(signal.ITIMER_REAL, min(JOB_LIMIT_S, remaining))
            start = time.perf_counter()
            try:
                code = run(argv)
            except JobTimeout:
                problems = ["timed out"]
            except Exception as e:  # a job that raises is a failure, not a crash
                problems = [f"raised {type(e).__name__}: {e}"]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = time.perf_counter() - start
            times.append(elapsed)
            if not problems:
                with open(out_path, "rb") as fh:
                    data = fh.read()
                if on_report is not None:
                    on_report(data)
                digest = hashlib.sha256(data).hexdigest()
                if job["id"] not in self.digests:
                    problems = check.check(job, code, data)
                    if not problems:
                        self.digests[job["id"]] = digest
                elif digest != self.digests[job["id"]]:
                    problems = ["report bytes differ from an earlier pass"]
                elif code != job["expect"]["exit"]:
                    problems = [f"exit code {code}"]
            if problems:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append([job["id"], "; ".join(problems)[:300]])
        return times, refs


def run_passes(runner, seconds, min_passes) -> list:
    """Passes until ``seconds`` would be exceeded, at least ``min_passes``."""
    passes, durations = [], []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        got = runner.one_pass()
        if got is None:
            break
        passes.append(got)
        durations.append(time.perf_counter() - started)
        spent = time.perf_counter() - begin
        if len(passes) >= min_passes and spent + statistics.median(durations) > seconds:
            break
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    # set-up: import fdalg, generate the inputs, write them as JSON
    mods = load_fdalg(args.root)
    work = os.path.join(args.root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        jobs = gen.jobs(args.workload, args.seed)
        for job in jobs:
            if job["input"] is not None:
                with open(os.path.join(work, job["id"] + ".json"), "w", encoding="utf-8") as fh:
                    json.dump(job["input"], fh)
        emit("READY")
        emit(f"REF {statistics.mean(reference_kernel() for _ in range(3))}")
        if args.setup_only:
            return 0

        signal.signal(signal.SIGALRM, _alarm)
        runner = Runner(mods, jobs, work, args.seed, deadline)
        result = {}
        if not args.trace:
            passes = run_passes(runner, args.seconds, MIN_PASSES)
        else:
            # untraced and traced passes alternate, so drift hits both alike
            tracer = tracing.Tracer()
            root_run = tracer.root(mods["cli"].run)

            def traced(argv):
                tracer.set_job(runner.current["id"])
                return root_run(argv)

            def count_bytes(data):
                tracer.add("cli.report_bytes", len(data))

            passes, layer_passes, span_passes = [], [], []
            begin = time.perf_counter()
            while True:
                plain = runner.one_pass()
                if plain is None:
                    break
                tracer.install(mods)
                try:
                    got = runner.one_pass(call=traced, on_report=count_bytes)
                finally:
                    tracer.uninstall()
                if got is None:
                    break
                times = got[0]
                spans, counts = tracer.take()
                passes.append(plain)
                layer_passes.append(tracing.layer_metrics(spans, counts))
                layer_passes[-1]["pass_s"] = sum(times)
                layer_passes[-1]["ref_s"] = statistics.mean(got[1])
                span_passes.append(spans)
                done = len(layer_passes)
                spent = time.perf_counter() - begin
                if done >= TRACED_PASSES and spent * (done + 1) / done > args.seconds:
                    break
            tracing.write_spans(os.path.join(args.root, ".bench_work",
                                           f"spans-{args.workload}.jsonl"), span_passes)
            result["layers"] = layer_passes
        result.update({
            "passes": passes,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "jobs": [job["id"] for job in jobs],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
        emit(result)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

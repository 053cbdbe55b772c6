"""fdalg benchmark: how long a user waits for a verified report.

Usage, from the root of a checkout:

    python3 bench/run.py --workload demos|structure-q|forms-gfp \\
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (``worker.py``), so its peak
resident memory is its own; at most this process and one worker run at
a time.  Set-up (interpreter start, ``import fdalg``, generating the inputs
and writing them as JSON) is timed in several fresh workers and reported
as a median.  Times are scaled to the speed of a reference kernel timed
in the same worker, which takes out the drift other tenants of the
machine cause (see ``README.md``).  With ``--trace 0`` the last line of
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  Exits 2 without a result
when the checkout has no ``src/fdalg`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 5      # fresh workers timed from start to their first job
REF_S = 0.015          # reference-kernel time that job times are scaled to
RUN_LIMIT_S = 170.0    # the whole run, set-up included


def percentile_tail(values):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (0.5, 0.9, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = q
    if best is None:
        return None
    ordered = sorted(values)
    return {"p": best * 100, "value": ordered[min(n - 1, math.ceil(best * n) - 1)]}


def timing(values):
    return {"median": statistics.median(values), "samples": len(values),
            "tail": percentile_tail(values)}


def start_worker(args, setup_only, timeout):
    """Run one worker; returns the seconds until it was ready, its
    reference-kernel time and its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    out, ready = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise SystemExit("worker ran past the run limit")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and b"BENCH READY\n" in out:
                ready = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    ref, result = None, None
    for line in out.decode("utf-8").splitlines():
        if line.startswith("BENCH REF "):
            ref = float(line[len("BENCH REF "):])
        elif line.startswith("BENCH {"):
            result = json.loads(line[len("BENCH "):])
    if proc.returncode != 0 or ready is None or ref is None:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return ready, ref, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fdalg", "cli.py")):
        print(f"no fdalg sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    began = time.monotonic()
    workers = [start_worker(args, True, 60) for _ in range(SETUP_SAMPLES - 1)]
    workers.append(start_worker(args, False, RUN_LIMIT_S - (time.monotonic() - began)))
    res = workers[-1][2]
    if not res["passes"] or (args.trace and not res["layers"]):
        print("no pass finished before the worker's time limit", file=sys.stderr)
        return 1
    wall_setups = [ready for ready, _, _ in workers]
    setups = [ready * REF_S / ref for ready, ref, _ in workers]

    # Job times are scaled by REF_S / (the pass's mean reference-kernel
    # time), which removes most of the slowdown other tenants cause.  The
    # mean, not the median, because a job's time integrates every slow
    # moment of the machine.
    passes = [[t * REF_S / statistics.mean(refs) for t in times]
              for times, refs in res["passes"]]
    pass_s = [sum(p) for p in passes]
    wall_pass_s = [sum(times) for times, _ in res["passes"]]
    # each job's time is its median over passes, so that a stall in one
    # millisecond job does not move the geometric mean
    job_medians = {job: statistics.median(p[i] for p in passes)
                   for i, job in enumerate(res["jobs"])}
    job_geomean_s = tracing.geomean(job_medians.values())
    job_times = [t for p in passes for t in p]
    summary = {
        "workload": args.workload, "seed": args.seed, "jobs": res["jobs"],
        "setup_s": timing(setups), "wall_setup_s": timing(wall_setups),
        "pass_s": timing(pass_s),
        "wall_pass_s": timing(wall_pass_s),
        "reference_s": timing([r for _, refs in res["passes"] for r in refs]),
        "job_s": timing(job_times), "job_median_s": job_medians,
        "fail_share": res["failed"] / res["attempted"], "failures": res["failures"],
    }
    if args.trace:
        units = tracing.metric_units()
        layers = res["layers"]
        values = {name: statistics.median(p[name] for p in layers) for name in layers[0]
                  if name in units}
        values["trace.overhead"] = (
            statistics.median(p["pass_s"] * REF_S / p["ref_s"] for p in layers)
            / statistics.median(pass_s))
        # the layers' self times add up to the job time in every pass
        summary["self_time_gap_s"] = max(
            abs(sum(v for k, v in p.items() if k.endswith(".self_s")) - p["trace.job_s"])
            for p in layers)
        summary["traced_wall_pass_s"] = timing([p["pass_s"] for p in layers])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "job_geomean_s": {"value": job_geomean_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

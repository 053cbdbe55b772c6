"""Tests of the benchmark's own machinery: the generator, the checker and
the tracer.  Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

import json

import check
import gen
import tracing
from fdalg import algebras, cli, forms, involutions, linalg, modules, posets, steinitz

MODULES = {"linalg": linalg, "algebras": algebras, "modules": modules, "forms": forms,
           "involutions": involutions, "posets": posets, "steinitz": steinitz, "cli": cli}


def _span(layer, start, end, parent, job="j"):
    return (layer, start, end, parent, job)


def test_self_times_subtract_children():
    spans = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("linalg.elim", 1.0, 4.0, 0),
        _span("linalg.matmul", 2.0, 3.0, 1),
        _span("modules.hom_space", 5.0, 9.0, 0),
        _span("linalg.elim", 6.0, 8.5, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.5]
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["linalg.elim.self_s"] == 4.5
    assert metrics["cli.run.self_s"] == 3.0
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == metrics["trace.job_s"] == 10.0


def test_self_times_clip_overlapping_children():
    spans = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("linalg.elim", 2.0, 6.0, 0),
        _span("linalg.elim", 5.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == 2.0


def test_generator_is_deterministic_per_seed():
    for workload in gen.WORKLOADS:
        assert gen.jobs(workload, 7) == gen.jobs(workload, 7)
    a, b = gen.jobs("structure-q", 1), gen.jobs("structure-q", 2)
    assert [j["id"] for j in a] == [j["id"] for j in b]
    assert a != b  # the random posets follow the seed


def test_random_posets_have_the_requested_size():
    import random
    for seed in range(5):
        leq = gen.random_connected_poset(random.Random(seed), 12, 36)
        assert sum(map(sum, leq)) - 12 == 36
        assert gen._components(leq) == 1


def _run(job, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(job["input"]))
    out = tmp_path / "out.json"
    code = cli.run(job["argv"] + ["--input", str(path), "--output", str(out)])
    return code, out.read_bytes()


def _idempotents_job():
    return {"id": "idempotents-M3", "argv": ["idempotents"],
            "input": {"algebra": gen.matrix_algebra(None, 3)},
            "expect": {"exit": 0, **gen._matrix_invariants(3)}}


def test_checker_accepts_a_real_report(tmp_path):
    job = _idempotents_job()
    code, data = _run(job, tmp_path)
    assert check.check(job, code, data) == []


def test_checker_rejects_a_flipped_byte(tmp_path):
    job = _idempotents_job()
    code, data = _run(job, tmp_path)
    # the first idempotent's first coordinate "1" becomes "3"
    at = data.index(b'"idempotents": [')
    at = data.index(b'"1"', at)
    tampered = data[:at + 1] + b"3" + data[at + 2:]
    json.loads(tampered)
    assert check.check(job, code, tampered) != []


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    job = _idempotents_job()
    code, data = _run(job, tmp_path)
    assert check.check(job, 2, data) != []


def test_checker_rejects_a_wrong_invariant(tmp_path):
    job = _idempotents_job()
    code, data = _run(job, tmp_path)
    job["expect"]["idempotents"] = 2
    assert check.check(job, code, data) != []


def test_forms_jobs_pass_the_checker(tmp_path):
    jobs = [j for j in gen.jobs("forms-gfp", 3)
            if j["id"] in ("transfer-H-p5-n2", "reduce-standard-M2-p1000003-n2",
                           "anti-structure-m2-M2-p5", "orbit-UT3-p5")]
    assert len(jobs) == 4
    for job in jobs:
        code, data = _run(job, tmp_path)
        assert check.check(job, code, data) == [], job["id"]


def test_tracer_restores_the_package_and_sums_to_job_time(tmp_path):
    originals = (linalg.kernel_rows, modules.kernel_rows, linalg.Matrix.__mul__,
                 algebras.Algebra.mul, posets.is_isomorphic)
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        assert modules.kernel_rows is linalg.kernel_rows is not originals[0]
        job = _idempotents_job()
        tracer.set_job(job["id"])
        path = tmp_path / "in.json"
        path.write_text(json.dumps(job["input"]))
        code = tracer.root(cli.run)(["idempotents", "--input", str(path),
                                     "--output", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (linalg.kernel_rows, modules.kernel_rows, linalg.Matrix.__mul__,
            algebras.Algebra.mul, posets.is_isomorphic) == originals
    spans, counts = tracer.take()
    metrics = tracing.layer_metrics(spans, counts)
    assert metrics["algebras.mul.calls"] > 0 and metrics["linalg.elim.calls"] > 0
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(total - metrics["trace.job_s"]) < 1e-9
    assert set(metrics) >= set(tracing.metric_units()) - {"trace.overhead"}


def test_runner_counts_raising_and_timed_out_jobs(tmp_path, monkeypatch):
    import signal
    import time
    import worker

    def slow(argv):
        time.sleep(5)

    def broken(argv):
        raise ZeroDivisionError("1/5 over GF(5)")

    monkeypatch.setattr(worker, "JOB_LIMIT_S", 0.2)
    monkeypatch.setattr(worker, "REFERENCE_RUNS", 0)
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        runner = worker.Runner(MODULES, [_idempotents_job()], str(tmp_path), 0,
                               time.monotonic() + 60)
        for call in (slow, broken):
            started = time.perf_counter()
            times, refs = runner.one_pass(call=call)
            assert time.perf_counter() - started < 2
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (runner.attempted, runner.failed) == (2, 2)
    assert [reason for _, reason in runner.failures] == [
        "timed out", "raised ZeroDivisionError: 1/5 over GF(5)"]

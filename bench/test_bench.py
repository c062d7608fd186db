"""Tests of the benchmark itself: inputs, statistics, tracing and the gate.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


# ----------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_jobs_and_other_seeds_other_inputs(name):
    a, b, c = (workloads.make_jobs(name, s) for s in (7, 7, 8))
    assert a == b
    assert [j.name for j in a] == [j.name for j in c]
    assert [j.drift for j in a] != [j.drift for j in c]
    assert len({j.name for j in a}) == len(a)


def test_job_kinds_cover_every_compiler_path():
    kinds = {j.kind for name in workloads.WORKLOADS for j in workloads.make_jobs(name, 1)}
    assert kinds == {"cnot", "pair", "onpair", "routed"}


# ----------------------------------------------------------------------
# statistics


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(11, 400):
        pct = run.tail_percentile(n)
        values = sorted(float(v) for v in range(n))
        beyond = sum(v > run.nearest_rank(values, pct) for v in values)
        assert beyond >= 10
        assert sum(v > run.nearest_rank(values, pct + 1) for v in values) < 10
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    with pytest.raises(run.BenchmarkError):
        run.tail_percentile(10)


def test_first_outcomes_rejects_a_changed_schedule():
    first = run.Outcome(1.0, 1.0, None, {"instructions": "5"}, 1e-3, "abc")
    again = run.Outcome(2.0, 2.0, None, {"instructions": "5"}, 1e-3, "abc")
    assert run.first_outcomes([[(0, first)], [(0, again)]]) == [first]  # timings may differ
    again.digest = "abd"
    with pytest.raises(run.BenchmarkError):
        run.first_outcomes([[(0, first)], [(0, again)]])


def test_speed_scale_uses_the_probes_on_both_sides():
    samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 9.0]
    assert speed.scale_at(samples, 3) == speed.REFERENCE_S / 1.5
    assert speed.scale_at(samples, 0) == speed.REFERENCE_S / 1.0
    assert speed.scale_at([0.5], 1) == speed.REFERENCE_S / 0.5
    with pytest.raises(ValueError):
        speed.scale_at([], 0)


def test_weights_spread_repeats_over_a_pass(tmp_path):
    jobs = workloads.make_jobs("a2a", 1)
    order = run.Runner(jobs, tmp_path).order
    assert [order.count(i) for i in range(len(jobs))] == [j.weight for j in jobs]
    assert order[: len(jobs)] == list(range(len(jobs)))


# ----------------------------------------------------------------------
# independent reference


def test_reference_evaluator_operator_order_by_hand():
    h = reference.dense(2, workloads.SAMPLE_DRIFT)
    x = reference.PAULI["X"]
    rows = " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in x.ravel())
    text = f"qubits 2\nphase 0.25\nlayer 0 0 {rows}\nlocal 0\ndrift 0.5\n"
    want = np.exp(0.25j) * np.kron(x, np.eye(2)) @ scipy.linalg.expm(-0.5j * h)
    got = reference.evaluate(text, workloads.SAMPLE_DRIFT)
    assert np.abs(got - want).max() < 1e-12


def test_reference_distance_ignores_global_phase():
    u = scipy.linalg.expm(-1j * reference.dense(2, workloads.SAMPLE_DRIFT))
    assert reference.distance(u, np.exp(0.7j) * u) < 1e-12
    assert reference.distance(u, -u @ reference.CNOT) > 0.1


def _one_job_per_kind():
    picked = {}
    for name in ("pair2", "chain"):
        for job in workloads.make_jobs(name, 3):
            if job.kind == "cnot" and job.order == 1:
                continue  # the order-2 CNOT is the cheap representative
            picked.setdefault(job.kind, job)
    return list(picked.values())


@pytest.mark.parametrize("job", _one_job_per_kind(), ids=lambda j: j.kind)
def test_reference_agrees_with_hamrc_verify(job, tmp_path):
    runner = run.Runner([job], tmp_path)
    outcome = runner.run(0)
    assert outcome.failure is None
    mine = reference.schedule_error(job, runner.schedule_text(0))
    assert abs(mine - outcome.measured) <= run.GATE_TOL
    assert mine <= float(outcome.report["predicted_error"]) + run.PREDICTED_SLACK
    assert mine <= job.epsilon


def test_known_unsound_cnot_plan_is_counted_as_failure(tmp_path):
    jobs = [j for j in workloads.make_jobs("pair2", 1) if j.kind == "cnot"]
    outcomes = [run.Runner([j], tmp_path / j.name).run(0) for j in jobs if j.order == 2]
    assert any(o.failure == "exit_5" for o in outcomes)


# ----------------------------------------------------------------------
# tracing


def test_tracer_self_times_add_up_and_patches_are_undone(tmp_path):
    import hamrc.schedule
    import hamrc.synth

    original = hamrc.schedule.canonicalize
    job = next(j for j in workloads.make_jobs("chain", 2) if j.kind == "routed")
    runner = run.Runner([job], tmp_path)
    tracer = Tracer()
    instrument(tracer)
    try:
        assert hamrc.synth.canonicalize is not original
        with tracer.span("bench.self_s", "job"):
            outcome = runner.run(0)
    finally:
        tracer.restore()
    assert hamrc.synth.canonicalize is original and hamrc.schedule.canonicalize is original
    assert outcome.failure is None
    (root,) = [s for s in tracer.spans if s[1] == -1]
    assert sum(tracer.self_s.values()) == pytest.approx(root[4] - root[3], rel=1e-9)
    assert tracer.counts["routing.segments"] == 2 * (job.n - 1) - 1
    assert tracer.counts["schedule.eval_calls"] >= 1 and tracer.counts["bounds.measure_calls"] >= 1
    assert tracer.self_s["routing.self_s"] > 0 and tracer.self_s["decouple.self_s"] > 0


# ----------------------------------------------------------------------
# the whole command


def _cheap_jobs(workload, seed):
    jobs = workloads.make_jobs("pair2", seed)
    return [j for j in jobs if j.kind == "pair"][:2] + [jobs[2]]  # two pairs and an order-2 CNOT


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_main_prints_every_declared_metric(monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "make_jobs", _cheap_jobs)
    assert run.main(["--workload", "pair2", "--seed", "4", "--seconds", "0", "--trace", "0"]) == 0
    out = _result(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= run.MIN_SAMPLES
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert run.main(["--workload", "pair2", "--seed", "4", "--seconds", "0", "--trace", "0"]) == 0
    again = _result(capsys)
    for name in ("drift_time_ratio", "raw_drift_periods", "instructions", "slack"):
        assert again["metrics"][name] == out["metrics"][name]  # bit for bit across runs
    assert run.main(["--workload", "pair2", "--seed", "4", "--seconds", "0", "--trace", "1"]) == 0
    out = _result(capsys)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert out["metrics"]["synth.emitted"]["value"] > 0


#: runs run.py on the cheap job list in a fresh interpreter
CHILD = (
    "import sys; sys.path[:0] = ['bench']; import run, test_bench; "
    "run.make_jobs = test_bench._cheap_jobs; sys.exit(run.main(sys.argv[1:]))"
)


def _digest_in_child(hash_seed: str, trace: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "--workload", "pair2", "--seed", "4",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = [l for l in proc.stdout.splitlines() if l.startswith("schedules sha256 ")]
    return line.split()[-1]


def test_schedules_repeat_across_processes_and_tracing():
    first = _digest_in_child("1", "0")
    assert _digest_in_child("2", "0") == first
    assert _digest_in_child("3", "1") == first


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

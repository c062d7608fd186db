"""hamrc benchmark: seeded compile-and-verify jobs through the real CLI.

    python3 bench/run.py --workload {pair2,chain,a2a} --seed N --seconds S --trace {0,1}

Run from the repository root; hamrc is imported from ``src/``.  One
process is one closed-loop client: it runs the workload's job list in
whole passes, each job a ``hamrc compile`` then a ``hamrc verify`` called
in-process through ``hamrc.cli.main`` on generated files (process
start-up would swamp the two-qubit jobs).  The number of passes is the
one that fills ``--seconds`` at the workload's nominal pass time, at
least two, raised if needed until both commands have at least 21 timed
samples.

``--trace 0`` times the jobs untraced and prints the end-to-end
metrics.  Their times are scaled to the reference machine's usual speed
by a hamrc-free probe timed between the jobs (``speed.py``); the run also
prints them unscaled.  ``--trace 1`` makes an untraced and a traced
pass for every two passes of ``--trace 0`` (at least one of each), and
prints the per-layer metrics, unscaled and taken from
the traced passes; spans go to ``.bench_work/trace-<workload>-s<seed>.jsonl``.

Every run checks its results: each succeeded job's schedule is
re-evaluated by ``reference.py`` without hamrc and must agree with the
``measured_error`` that ``hamrc verify`` reported to 1e-9, or the run
prints ``"correct": false``.  A schedule hash or a report value that
differs between passes of one job is a benchmark error (exit 3, no
result).  The line ``schedules sha256 <hex>`` hashes every job's schedule
hash and reported values, so runs in different processes can be
compared.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
from tracing import Tracer, instrument
from workloads import NOMINAL_PASS_S, WORKLOADS, hamfile, make_jobs

ROOT = Path(__file__).resolve().parent.parent
#: BLAS threads, fixed below the two cores of the reference machine
BLAS_THREADS = 1
#: set-up repetitions whose median is reported
SETUP_REPEATS = 3
#: run in a fresh interpreter; prints how long the imports took
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import numpy, scipy.linalg, hamrc.cli; "
    "print(time.perf_counter() - start)"
)
#: job time between two speed probes in an untraced pass
PROBE_EVERY_S = 1.0
#: fewest timed samples per command in a run; from 21 on, the tail percentile
#: (the highest with 10 samples beyond it) is never below the median
MIN_SAMPLES = 21
#: largest allowed gap between hamrc's measured error and the reference one
GATE_TOL = 1e-9
#: a measured error may exceed the prediction by this much (rounding)
PREDICTED_SLACK = 1e-12
#: measured errors at or below this are exact and left out of ``slack``
EXACT_ERROR = 1e-12
#: traced self times must add up to the traced wall time within this share
TRACE_SUM_TOL = 0.01

EXIT_CLASSES = ("exit_2", "exit_3", "exit_4", "exit_5")


class BenchmarkError(RuntimeError):
    """The benchmark cannot vouch for its own numbers."""


@dataclass
class Outcome:
    """What one job did: timings, failure class and the reported values."""

    compile_s: float
    verify_s: float | None = None
    failure: str | None = None
    report: dict[str, str] = field(default_factory=dict)
    measured: float | None = None
    digest: str | None = None
    job_s: float = 0.0  # wall time of the whole job, bench overhead included
    probe_pos: int = 0  # speed probe samples taken before the job
    scale: float = 1.0  # speed.scale_at() for the job; 1.0 in a traced run

    def fingerprint(self) -> tuple:
        """Everything that must repeat bit-exactly between passes."""
        return (self.failure, self.digest, tuple(sorted(self.report.items())), self.measured)


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    return sorted_values[max(0, math.ceil(pct * len(sorted_values) / 100) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank sample has 10 samples beyond it."""
    if n <= 10:
        raise BenchmarkError(f"{n} samples leave no percentile with 10 beyond it")
    return (100 * (n - 10)) // n


def timing_summary(values: list[float]) -> tuple[float, float, int]:
    """``(median, tail value, tail percentile)`` of a list of timings."""
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    return statistics.median(ordered), nearest_rank(ordered, pct), pct


def geomean(values: list[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


class Runner:
    """Runs jobs of one workload through ``hamrc.cli.main``."""

    def __init__(self, jobs, workdir: Path):
        import hamrc.cli  # only importable once use_sources() has run

        self.cli = hamrc.cli
        self.jobs = jobs
        # a pass runs job i jobs[i].weight times, repeats spread over the pass
        self.order = [
            i for r in range(max(j.weight for j in jobs)) for i, j in enumerate(jobs) if j.weight > r
        ]
        self.files = []
        workdir.mkdir(parents=True, exist_ok=True)
        for i, job in enumerate(jobs):
            stem = workdir / f"{i:03d}"
            paths = {k: Path(f"{stem}.{k}") for k in ("drift", "target", "sched", "crep", "vrep")}
            paths["drift"].write_text(hamfile(job.n, job.drift), encoding="utf-8")
            paths["target"].write_text(hamfile(2, job.target), encoding="utf-8")
            self.files.append(paths)

    def _call(self, argv: list[str]) -> int:
        # looked up on every call, so a traced run sees the patched main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        if code != 0:
            print(f"{argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return code

    def run(self, i: int) -> Outcome:
        job, f = self.jobs[i], self.files[i]
        s = {k: str(v) for k, v in f.items()}
        start = time.perf_counter()
        code = self._call(job.compile_args(s["drift"], s["target"], s["sched"], s["crep"]))
        out = Outcome(compile_s=time.perf_counter() - start)
        if code != 0:
            out.failure = f"exit_{code}"
            return out
        out.report = read_report(f["crep"])
        out.digest = hashlib.sha256(f["sched"].read_bytes()).hexdigest()
        predicted = float(out.report["predicted_error"])
        tolerance = predicted + PREDICTED_SLACK
        start = time.perf_counter()
        code = self._call(job.verify_args(s["drift"], s["target"], s["sched"], tolerance, s["vrep"]))
        out.verify_s = time.perf_counter() - start
        if code != 0:
            out.failure = f"exit_{code}"
            return out
        out.measured = float(read_report(f["vrep"])["measured_error"])
        if out.measured > job.epsilon:
            out.failure = "over_epsilon"
        return out

    def run_safe(self, i: int) -> Outcome:
        """``run``, with a crash counted as a failed job rather than raised."""
        start = time.perf_counter()
        try:
            return self.run(i)
        except Exception:  # a crash inside hamrc is a failed job, not a dropped one
            traceback.print_exc()
            return Outcome(compile_s=time.perf_counter() - start, failure="crash")

    def run_pass(self, tracer=None, probes=None) -> tuple[list[tuple[int, Outcome]], float]:
        """One pass over ``self.order``: ``[(job index, outcome)]`` and the jobs' wall time.

        Given a list ``probes``, the speed probe runs at the start and the
        end of the pass and between jobs once ``PROBE_EVERY_S`` of job time
        has passed since the last one; its times are appended to ``probes``.
        The probe's own time is not part of the returned wall time.
        """
        outcomes, busy, since = [], 0.0, PROBE_EVERY_S
        for i in self.order:
            if probes is not None and since >= PROBE_EVERY_S:
                probes.append(speed.probe())
                since = 0.0
            start = time.perf_counter()
            with tracer.span("bench.self_s", self.jobs[i].name) if tracer else contextlib.nullcontext():
                out = self.run_safe(i)
            out.job_s = time.perf_counter() - start
            busy += out.job_s
            since += out.job_s
            if probes is not None:
                out.probe_pos = len(probes)
            outcomes.append((i, out))
        if probes is not None:
            probes.append(speed.probe())
        return outcomes, busy

    def schedule_text(self, i: int) -> str:
        return self.files[i]["sched"].read_text(encoding="utf-8")


def run_digest(outcomes: list[Outcome]) -> str:
    """sha256 over every job's fingerprint, in job order."""
    rows = [[o.failure, o.digest, sorted(o.report.items()), repr(o.measured)] for o in outcomes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def first_outcomes(passes) -> list[Outcome]:
    """Each job's first outcome; raises if any later run of it differs."""
    first: dict[int, Outcome] = {}
    for outcomes in passes:
        for i, o in outcomes:
            if first.setdefault(i, o).fingerprint() != o.fingerprint():
                raise BenchmarkError(f"job {i}: schedule hash or report differs between runs")
    return [first[i] for i in sorted(first)]


def quality(jobs, outcomes: list[Outcome]) -> dict[str, float]:
    """The four output-quality metrics plus the count of exact jobs."""
    ok = [(j, o) for j, o in zip(jobs, outcomes) if o.failure is None]
    if not ok:
        raise BenchmarkError("no job succeeded, so no quality metric exists")
    slack, exact = [], 0
    for _, o in ok:
        if o.report.get("bound", "empirical") == "empirical":
            continue  # empirical and routed plans carry a measured, not a predicted, error
        predicted = float(o.report["predicted_error"])
        if predicted > 0 and o.measured > EXACT_ERROR:
            slack.append(predicted / o.measured)
        else:
            exact += 1
    return {
        "drift_time_ratio": geomean(
            [float(o.report["total_drift_time"]) / j.evolution_time() for j, o in ok]
        ),
        "raw_drift_periods": geomean(
            [float(o.report.get("raw_drift_periods", o.report["drift_periods"])) for _, o in ok]
        ),
        "instructions": geomean([float(o.report["instructions"]) for _, o in ok]),
        "slack": geomean(slack),
        "bounds.exact_jobs": exact,
    }


def gate(runner: Runner, outcomes: list[Outcome]) -> list[str]:
    """Jobs whose reported measured error the reference evaluator disputes."""
    from reference import schedule_error  # loads numpy, so only after use_sources()

    disputed = []
    for i, (job, o) in enumerate(zip(runner.jobs, outcomes)):
        if o.failure is not None:
            continue
        mine = schedule_error(job, runner.schedule_text(i))
        if not abs(mine - o.measured) <= GATE_TOL:
            disputed.append(f"{job.name}: hamrc {o.measured!r}, reference {mine!r}")
    return disputed


def measure_setup(workload: str, seed: int, workdir: Path):
    """Median set-up time, scaled to the reference speed like the job times.

    One repetition imports numpy, scipy and hamrc in a fresh interpreter,
    then generates the inputs, writes the files and runs one warm-up job in
    this process.  Each is scaled by the speed probes taken before and
    after it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, probes = [], [speed.probe()]
    for _ in range(SETUP_REPEATS):
        imports = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                                 capture_output=True, text=True, check=True, timeout=60)
        start = time.perf_counter()
        runner = Runner(make_jobs(workload, seed), workdir)
        runner.run_safe(0)
        elapsed = float(imports.stdout) + time.perf_counter() - start
        probes.append(speed.probe())
        times.append(elapsed * speed.scale_at(probes, len(probes) - 1))
    return runner, statistics.median(times)


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time, at least two.

    The count depends on ``seconds`` alone, not on how fast this machine
    happens to be, so every run times the same samples and a percentile
    never moves from one job's times to another's.  With two passes or
    more, every job's schedule is compared with a second run of it.
    """
    return max(2, math.ceil(seconds / NOMINAL_PASS_S[workload]))


def timed_run(runner: Runner, passes_wanted: int):
    """Untraced whole passes, more than wanted if needed for ``MIN_SAMPLES`` timings.

    Every pass repeats the first one's outcomes, so the first pass fixes
    how many verify timings a pass yields.  Each outcome gets the scale
    factor of the speed probes around it.
    """
    passes, probes = [], []
    while len(passes) < passes_wanted:
        outcomes, _ = runner.run_pass(probes=probes)
        passes.append(outcomes)
        if len(passes) == 1:
            verified = sum(o.verify_s is not None for _, o in outcomes)
            if not verified:
                raise BenchmarkError("no job got as far as verify")
            passes_wanted = max(passes_wanted, math.ceil(MIN_SAMPLES / verified))
    for outcomes in passes:
        for _, o in outcomes:
            o.scale = speed.scale_at(probes, o.probe_pos)
    print(f"speed probe: {len(probes)} samples, median {statistics.median(probes):.4f} s, "
          f"reference {speed.REFERENCE_S} s")
    return passes


def traced_run(runner: Runner, passes_wanted: int):
    """``passes_wanted`` untraced and as many traced passes, alternating."""
    tracer = Tracer()
    plain_walls, traced_walls, passes = [], [], []
    while len(traced_walls) < passes_wanted:
        outcomes, wall = runner.run_pass()
        passes.append(outcomes)
        plain_walls.append(wall)
        instrument(tracer)
        try:
            outcomes, wall = runner.run_pass(tracer)
        finally:
            tracer.restore()
        passes.append(outcomes)
        traced_walls.append(wall)
    return tracer, passes, plain_walls, traced_walls


def end_to_end_metrics(
    passes, setup_s: float, peak_rss_mb: float, qual
) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of an untraced run, times scaled to the reference speed.

    Prints each tail's percentile and sample count, and the timing
    metrics as measured, before scaling.
    """
    out: dict[str, tuple[float, str]] = {}
    outcomes = [o for p in passes for _, o in p]
    unscaled = []
    for cmd in ("compile_s", "verify_s"):
        timed = [o for o in outcomes if getattr(o, cmd) is not None]
        p50, tail, pct = timing_summary([getattr(o, cmd) * o.scale for o in timed])
        out[f"{cmd}.p50"] = (p50, "s")
        out[f"{cmd}.tail"] = (tail, "s")
        print(f"{cmd}.tail is p{pct} of {len(timed)} samples")
        raw_p50, raw_tail, _ = timing_summary([getattr(o, cmd) for o in timed])
        unscaled += [f"{cmd}.p50 {raw_p50:.4g}", f"{cmd}.tail {raw_tail:.4g}"]
    out["jobs_per_s"] = (len(outcomes) / math.fsum(o.job_s * o.scale for o in outcomes), "1/s")
    unscaled.append(f"jobs_per_s {len(outcomes) / math.fsum(o.job_s for o in outcomes):.4g}")
    print("unscaled: " + ", ".join(unscaled))
    out["setup_s"] = (setup_s, "s")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    out["drift_time_ratio"] = (qual["drift_time_ratio"], "ratio")
    out["raw_drift_periods"] = (qual["raw_drift_periods"], "count")
    out["instructions"] = (qual["instructions"], "count")
    out["slack"] = (qual["slack"], "ratio")
    return out


def layer_metrics(
    tracer, plain_walls, traced_walls, outcomes, exact_jobs, fail_frac
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: times and counters per traced pass, job counts per distinct job."""
    n = len(traced_walls)
    traced_total = sum(traced_walls)
    self_total = math.fsum(tracer.self_s.values())
    if abs(self_total - traced_total) > TRACE_SUM_TOL * traced_total:
        raise BenchmarkError(
            f"self times add up to {self_total:.4f} s, traced wall time is {traced_total:.4f} s"
        )
    out: dict[str, tuple[float, str]] = {}
    buckets = ("cli.self_s", "hamio.self_s", "synth.model_s", "synth.emit_s", "synth.self_s",
               "bounds.plan_s", "decouple.self_s", "routing.self_s", "schedule.eval_s",
               "schedule.canon_s", "dense.self_s", "bench.self_s", "trace.self_s")
    unknown = set(tracer.self_s) - set(buckets)
    if unknown:
        raise BenchmarkError(f"spans outside the reported buckets: {sorted(unknown)}")
    for name in buckets:
        out[name] = (tracer.self_s[name] / n, "s")
    counters = ("bounds.norms", "bounds.dense_builds", "bounds.measure_calls", "schedule.eval_calls",
                "schedule.eval_ins", "dense.calls", "synth.emitted", "synth.factors",
                "schedule.canon_in", "schedule.canon_out", "hamio.bytes", "decouple.frames",
                "decouple.depth", "routing.segments")
    for name in counters:
        out[name] = (tracer.counts[name] / n, "count")
    layers = tracer.counts["schedule.eval_layers"]
    out["schedule.layer_reuse"] = (tracer.counts["schedule.eval_locals"] / layers if layers else 0.0, "ratio")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    failures = [o.failure for o in outcomes]
    for cls in EXIT_CLASSES:
        out[f"cli.{cls}"] = (failures.count(cls), "count")
    out["bounds.exact_jobs"] = (exact_jobs, "count")
    out["fail_frac"] = (fail_frac, "ratio")
    return out


def use_sources() -> None:
    """Fix the BLAS thread count and import hamrc from ``src/``; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hamrc" / "__init__.py").is_file():
        print(f"error: no hamrc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    use_sources()
    workdir = ROOT / ".bench_work" / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        runner, setup_s = measure_setup(args.workload, args.seed, workdir)
        jobs = runner.jobs
        print(f"workload {args.workload} seed {args.seed} jobs {len(jobs)} blas_threads {BLAS_THREADS}")
        passes_wanted = pass_count(args.workload, args.seconds)
        if args.trace:
            traced_passes = max(1, passes_wanted // 2)
            tracer, passes, plain_walls, traced_walls = traced_run(runner, traced_passes)
        else:
            passes = timed_run(runner, passes_wanted)
            # read before the gate, whose dense matrices are the benchmark's, not hamrc's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        first = first_outcomes(passes)
        print(f"schedules sha256 {run_digest(first)}")
        qual = quality(jobs, first)
        disputed = gate(runner, first)
        for line in disputed:
            print(f"gate: {line}", file=sys.stderr)
        attempted = sum(len(p) for p in passes)
        failed = sum(o.failure is not None for p in passes for _, o in p)
        if args.trace:
            metrics = layer_metrics(tracer, plain_walls, traced_walls, first,
                                    qual["bounds.exact_jobs"], failed / attempted)
            trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-s{args.seed}.jsonl"
            tracer.write_jsonl(str(trace_path))
            print(f"passes {len(passes)} (half traced); {len(tracer.spans)} spans in {trace_path.name}")
        else:
            metrics = end_to_end_metrics(passes, setup_s, peak_rss_mb, qual)
            print(f"passes {len(passes)}; failed {failed} of {attempted} jobs")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not disputed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

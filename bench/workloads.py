"""Seeded job lists for the hamrc benchmark.

A job is one ``hamrc compile`` followed by one ``hamrc verify`` on
generated ``.ham`` files.  Every Hamiltonian is kept here as a plain term
list, so the correctness gate can build its dense matrices without
going through hamrc.  The same seed always gives the same jobs.

Each workload draws its job structure (which terms, which pairs, which
random drifts) once from a fixed generator, and ``--seed`` scales every
coefficient by its own factor in [0.99, 1.01].  Inputs therefore differ
from seed to seed, while step counts, error slack and run time stay
comparable between seeds; with fully random drifts the geometric means
over a few dozen jobs swing by tens of percent from seed to seed.

Workloads:

* ``pair2``: two-qubit register.  CNOTs at orders 1 and 2 and budgets
  1e-2 and 1e-3 on the README sample drift and on 16 random coupled
  drifts (the order-1, 1e-3 CNOT, twice a pass, on the first two of
  them only), plus random drift/target pairs under the chained bound.
  Dense work is 4x4, so the time goes to per-instruction Python work.
  The tail samples fall among the 39k-instruction CNOTs.  Three of the
  random drifts have weak couplings and strong local fields, which the
  CNOT plans ignore: their CNOT compiles fail hamrc's own self-check.
* ``chain``: XZ-chain drifts with local Z fields, n = 4..7.  Direct pair
  targets on (0, 1) under the chained bound at orders 1 and 2 (and the
  empirical bound at order 2 on n = 4), and routed targets between the
  chain ends under the default empirical bound, at order 1 on n = 4 and
  order 2 on n = 5.  Few factors on large matrices; the only workload
  that routes.
* ``a2a``: all-to-all Heisenberg drifts with random coupling strengths,
  n = 4 and 5.  A pair target on a random pair under the chained bound
  at order 2 (and order 1 at n = 4) and the empirical bound at order 2.
  Many factors on small matrices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

#: one Pauli term: coefficient and ``((site, axis), ...)`` sorted by site
Term = tuple[float, tuple[tuple[int, str], ...]]

WORKLOADS = ("pair2", "chain", "a2a")

#: wall time of one pass on the reference machine (2 shared x86-64 cores,
#: Python 3.11, numpy 2.4, one BLAS thread); a run makes
#: ceil(seconds / this) passes, and at least two
NOMINAL_PASS_S = {"pair2": 11.0, "chain": 17.0, "a2a": 9.5}


@dataclass(frozen=True)
class Job:
    """One compile-and-verify job.

    ``kind`` groups jobs that go through the same compiler path:
    ``cnot`` (built-in gate), ``pair`` (two-qubit register),
    ``onpair`` (pair target on an adjacent pair of a larger register)
    and ``routed`` (pair target across uncoupled sites).  ``weight`` is
    how often the job runs in one pass: cheap jobs run more often, so the
    median and the tail sample land among one job's runs instead of
    between two jobs.
    """

    name: str
    kind: str
    n: int
    drift: tuple[Term, ...]
    epsilon: float
    order: int
    target: tuple[Term, ...] = ()
    t: float | None = None
    pair: tuple[int, int] | None = None
    bound: str | None = None
    weight: int = 1  # runs per pass

    def target_sites(self) -> tuple[int, int]:
        """Register sites that the two-qubit target acts on."""
        return self.pair if self.pair is not None else (0, 1)

    def evolution_time(self) -> float:
        """``t``, or pi/4 for the built-in CNOT."""
        return math.pi / 4 if self.kind == "cnot" else self.t

    def compile_args(self, drift_path: str, target_path: str, out: str, report: str) -> list[str]:
        args = ["compile", drift_path] + self._target_args(target_path)
        args += ["--order", str(self.order), "--epsilon", repr(self.epsilon)]
        if self.bound is not None:
            args += ["--bound", self.bound]
        return args + ["--out", out, "--report", report]

    def verify_args(
        self, drift_path: str, target_path: str, sched: str, tolerance: float, report: str
    ) -> list[str]:
        args = ["verify", drift_path, sched] + self._target_args(target_path)
        return args + ["--tolerance", repr(tolerance), "--report", report]

    def _target_args(self, target_path: str) -> list[str]:
        if self.kind == "cnot":
            return ["--gate", "cnot"]
        args = ["--target", target_path, "--t", repr(self.t)]
        if self.pair is not None:
            args += ["--pair", str(self.pair[0]), str(self.pair[1])]
        return args


def hamfile(n: int, terms: tuple[Term, ...]) -> str:
    """Hamiltonian file text; ``repr`` keeps every float bit-exact."""
    lines = [f"qubits {n}"]
    for coeff, ops in terms:
        support = " ".join(f"{q}:{a}" for q, a in ops) if ops else "I"
        lines.append(f"{coeff!r} {support}")
    return "\n".join(lines) + "\n"


def _term(coeff: float, *ops: tuple[int, str]) -> Term:
    return (coeff, tuple(sorted(ops)))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# ----------------------------------------------------------------------
# pair2

SAMPLE_DRIFT: tuple[Term, ...] = (
    _term(1.0, (0, "Z")),
    _term(2.0, (0, "X"), (1, "Z")),
    _term(1.0, (0, "Z"), (1, "Z")),
)


def random_coupled_drift(rng: random.Random) -> tuple[Term, ...]:
    """Two-qubit drift with standard-normal coefficients and a coupling.

    Each of the nine couplings appears with probability 0.7/9 and each
    local term with 0.7/3, as in the unit tests' random drifts; one
    coupling is forced when none was drawn.  Strong local fields are
    what the CNOT plans fail to account for.
    """
    terms: list[Term] = []
    for q in (0, 1):
        for a in "XYZ":
            if rng.random() < 0.7 / 3:
                terms.append(_term(rng.gauss(0.0, 1.0), (q, a)))
    couplings = [
        _term(rng.gauss(0.0, 1.0), (0, a), (1, b))
        for a in "XYZ"
        for b in "XYZ"
        if rng.random() < 0.7 / 9
    ]
    if not couplings:
        couplings.append(_term(_signed(rng, 0.5, 1.5), (0, rng.choice("XYZ")), (1, rng.choice("XYZ"))))
    return tuple(terms + couplings)


def random_pair_problem(rng: random.Random) -> tuple[tuple[Term, ...], tuple[Term, ...], float]:
    """Drift/target pair whose chained plan stays a bounded size.

    The drift has one dominant coupling of magnitude 1..2, up to two
    weaker couplings and small local fields; the target has two
    couplings and one local field.  Keeping the dominant coupling
    clearly ahead bounds the per-step rate, so no job runs away.
    """
    axes = [(a, b) for a in "XYZ" for b in "XYZ"]
    rng.shuffle(axes)
    h = _signed(rng, 1.0, 2.0)
    drift = [_term(h, (0, axes[0][0]), (1, axes[0][1]))]
    for a, b in axes[1 : 1 + rng.randint(0, 2)]:
        drift.append(_term(_signed(rng, 0.1, 0.4) * abs(h), (0, a), (1, b)))
    for q in (0, 1):
        drift.append(_term(_signed(rng, 0.1, 0.5), (q, rng.choice("XYZ"))))
    rng.shuffle(axes)
    target = [
        _term(_signed(rng, 0.3, 1.0), (0, axes[0][0]), (1, axes[0][1])),
        _term(_signed(rng, 0.1, 0.5), (0, axes[1][0]), (1, axes[1][1])),
        _term(_signed(rng, 0.1, 0.5), (rng.randint(0, 1), rng.choice("XYZ"))),
    ]
    return tuple(drift), tuple(target), rng.uniform(0.4, 0.8)


def pair2_jobs(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    drifts = [("sample", SAMPLE_DRIFT)]
    drifts += [(f"rand{i}", random_coupled_drift(rng)) for i in range(16)]
    for k, (label, drift) in enumerate(drifts):
        for order in (1, 2):
            for eps in (1e-2, 1e-3):
                heavy = (order, eps) == (1, 1e-3)  # 39k instructions
                if heavy and k > 2:
                    continue  # three of them already take most of a pass
                # twice a pass, so that both tail samples (the 11th and 12th
                # slowest of three passes) fall inside the 18 runs of these jobs
                jobs.append(Job(f"cnot-{label}-o{order}-e{eps:g}", "cnot", 2, drift, eps, order,
                                weight=2 if heavy else 1))
    for i in range(8):
        drift, target, t = random_pair_problem(rng)
        for order, eps in ((1, 1e-2), (2, 1e-3)):
            jobs.append(
                Job(f"pair-rand{i}-o{order}", "pair", 2, drift, eps, order,
                    target=target, t=t, bound="chained")
            )
    return jobs


# ----------------------------------------------------------------------
# chain


def xz_chain(rng: random.Random, n: int) -> tuple[Term, ...]:
    """Nearest-neighbour X(q) Z(q+1) couplings plus a Z field per site."""
    terms = [_term(rng.uniform(0.8, 1.2), (q, "X"), (q + 1, "Z")) for q in range(n - 1)]
    terms += [_term(_signed(rng, 0.1, 0.5), (q, "Z")) for q in range(n)]
    return tuple(terms)


def chain_pair_target(rng: random.Random) -> tuple[Term, ...]:
    """``XX 0.7 + ZZ 0.2 + IZ -0.3`` (the ROADMAP baseline target), jittered."""
    j = lambda x: x * rng.uniform(0.9, 1.1)  # noqa: E731
    return (
        _term(j(0.7), (0, "X"), (1, "X")),
        _term(j(0.2), (0, "Z"), (1, "Z")),
        _term(j(-0.3), (1, "Z")),
    )


#: runs per pass of the direct chain jobs, by (n, order), for a run of two
#: passes (48 runs).  The median falls in the middle of the 12 runs of n = 6
#: at order 2, a large-matrix job as the workload intends: the cheap jobs
#: (n = 4 and 5, mostly interpreter time, which swings most with the load on
#: a shared machine) fill the 18 ranks below it, and the 18 runs above it are
#: n = 5 order 1, n = 6 order 1, n = 7 and the routed jobs.  The tail sample
#: (the 11th slowest) falls among the 10 runs of n = 7 order 2 and n = 6
#: order 1, whose times are close, below the 6 runs of n = 7 order 1 and the
#: two routed jobs.  So neither percentile samples a routed job, an n = 4 or
#: 5 job or n = 7 order 1: routing shows in ``jobs_per_s`` only.
CHAIN_WEIGHTS = {(4, 1): 1, (4, 2): 3, (5, 1): 1, (5, 2): 2, (6, 1): 1, (6, 2): 6, (7, 1): 1, (7, 2): 4}


def chain_jobs(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    for n in (4, 5, 6, 7):
        drift = xz_chain(rng, n)
        target = chain_pair_target(rng)
        for order in (1, 2):
            jobs.append(
                Job(f"chain-n{n}-o{order}", "onpair", n, drift, 1e-2, order,
                    target=target, t=0.5, pair=(0, 1), bound="chained",
                    weight=CHAIN_WEIGHTS[n, order])
            )
        if n == 4:
            jobs.append(
                Job("chain-n4-empirical-o2", "onpair", n, drift, 1e-2, 2,
                    target=target, t=0.5, pair=(0, 1), bound="empirical", weight=3)
            )
    # order 1 on n = 5 would emit 222k instructions and take 10 s a run
    for n, order in ((4, 1), (5, 2)):
        drift = xz_chain(rng, n)
        target = (_term(rng.uniform(0.8, 1.2), (0, "Z"), (1, "Z")),)
        jobs.append(
            Job(f"chain-n{n}-routed-o{order}", "routed", n, drift, 1e-2, order,
                target=target, t=0.5, pair=(0, n - 1))
        )
    return jobs


# ----------------------------------------------------------------------
# a2a


def heisenberg_all_to_all(rng: random.Random, n: int) -> tuple[Term, ...]:
    """``J_ij (XX + YY + ZZ)`` on every pair, J_ij uniform in [0.5, 1.5]."""
    terms: list[Term] = []
    for i in range(n):
        for j in range(i + 1, n):
            coupling = rng.uniform(0.5, 1.5)
            terms += [_term(coupling, (i, a), (j, a)) for a in "XYZ"]
    return tuple(terms)


def a2a_jobs(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    for n in (4, 5):
        drift = heisenberg_all_to_all(rng, n)
        pair = tuple(sorted(rng.sample(range(n), 2)))
        target = chain_pair_target(rng)
        # (bound, order, weight): the two multi-second jobs run once a pass, so
        # the 11th slowest of three passes is in the middle of the 9 runs of
        # the empirical job at n = 5
        kinds = [("chained", 2, 4 if n == 4 else 1), ("empirical", 2, 4 if n == 4 else 3)]
        if n == 4:
            kinds.append(("chained", 1, 1))
        for bound, order, weight in kinds:
            jobs.append(
                Job(f"a2a-n{n}-{bound}-o{order}", "onpair", n, drift, 1e-2, order,
                    target=target, t=0.3, pair=pair, bound=bound, weight=weight)
            )
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for ``seed``; same seed, same jobs.

    Jobs that share a Hamiltonian share its scaled copy.  The README
    sample drift is kept exact.
    """
    generators = {"pair2": pair2_jobs, "chain": chain_jobs, "a2a": a2a_jobs}
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    base = generators[workload](random.Random(f"{workload}:base"))
    jitter = random.Random(f"{workload}:{seed}")
    scaled: dict[tuple[Term, ...], tuple[Term, ...]] = {SAMPLE_DRIFT: SAMPLE_DRIFT}

    def scale(terms: tuple[Term, ...]) -> tuple[Term, ...]:
        if terms not in scaled:
            scaled[terms] = tuple((c * jitter.uniform(0.99, 1.01), ops) for c, ops in terms)
        return scaled[terms]

    return [replace(job, drift=scale(job.drift), target=scale(job.target)) for job in base]

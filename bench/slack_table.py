"""Bound slack and step counts at a 1e-3 budget, in the layout of ROADMAP's table.

    python3 bench/slack_table.py

Rows use the benchmark's own inputs: the first random drift/target pair
of ``pair2`` (n = 2) and the direct pair jobs of ``chain`` (n = 4..6),
both for seed ``SEED``.  For each order the chained plan is compiled and
verified, giving its step count and its slack (predicted / measured
error); the empirical plan gives the step count that the measured error
alone would need.  Prints a Markdown table.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
from workloads import make_jobs

EPSILON = 1e-3
SEED = 1


def rows():
    pair = next(j for j in make_jobs("pair2", SEED) if j.kind == "pair")
    chain = [j for j in make_jobs("chain", SEED) if j.kind == "onpair" and j.bound == "chained" and j.n <= 6]
    bases = [pair] + [j for j in chain if j.order == 1]
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for base in bases:
            for order in (1, 2):
                got = {}
                for bound in ("chained", "empirical"):
                    job = replace(base, epsilon=EPSILON, order=order, bound=bound)
                    out = run.Runner([job], Path(tmp)).run(0)
                    if out.failure is not None:
                        raise run.BenchmarkError(f"{job.name} at {bound}: {out.failure}")
                    got[bound] = out
                chained = got["chained"]
                slack = float(chained.report["predicted_error"]) / chained.measured
                yield base.n, order, slack, chained.report["steps"], got["empirical"].report["steps"]


def main() -> int:
    run.use_sources()
    print(f"epsilon {EPSILON:g}, seed {SEED}\n")
    print("| n | order | slack | chained steps | empirical steps |")
    print("|---|-------|-------|---------------|-----------------|")
    for n, order, slack, chained, empirical in rows():
        print(f"| {n} | {order} | {slack:.1f}x | {chained} | {empirical} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

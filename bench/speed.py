"""Machine-speed probe for the hamrc benchmark.

The reference machine shares its cores with other tenants, and its speed
moves between levels about 30% apart on a scale of seconds to minutes.
Every kind of code moves together: a 39k-instruction CNOT compile, a pure
Python loop and a LAPACK SVD got faster and slower at the same moments.
So a run times this fixed probe between its jobs and reports each job's
time scaled by ``REFERENCE_S / probe time nearby``: the seconds the job
would have taken at the reference machine's usual speed.

The probe uses no hamrc code, so a change to hamrc cannot change it.  It
mixes the three kinds of work the workloads spend their time on:
interpreter work on dicts, tuples and strings (emit, canonicalize, file
I/O), small numpy calls (4x4 products, as in evaluating a two-qubit
schedule) and LAPACK on a 128x128 matrix (norms on a 7-qubit register).
"""

from __future__ import annotations

import functools
import statistics
import time

#: probe wall time on the reference machine (2 shared x86-64 cores,
#: Python 3.11, numpy 2.4, one BLAS thread) at its usual speed
REFERENCE_S = 0.032
#: probe samples taken on each side of a job for its scale factor
NEIGHBOURS = 3


@functools.cache
def _matrices():
    """The probe's fixed 4x4 and 128x128 matrices; numpy loads on first use,
    after the runner has fixed the BLAS thread count."""
    import numpy as np

    rng = np.random.default_rng(20011)
    small = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 2
    return np, small, rng.standard_normal((128, 128))


def _interpreter_work() -> int:
    table: dict[tuple[int, str], float] = {}
    parts = []
    for i in range(10000):
        key = (i % 61, "XYZ"[i % 3])
        table[key] = table.get(key, 0.0) + i * 0.5
        parts.append(repr(i * 0.1))
    return len(table) + sum(len(p) for p in " ".join(parts).split())


def _small_numpy_work() -> complex:
    np, small, _ = _matrices()
    x = np.eye(4, dtype=complex)
    for _ in range(1200):
        x = x @ small
        x /= np.abs(x).max()
    return complex(x[0, 0])


def _lapack_work() -> float:
    np, _, large = _matrices()
    return float(sum(np.linalg.svd(large, compute_uv=False)[0] for _ in range(4)))


def probe() -> float:
    """Wall time of one run of the fixed probe work."""
    start = time.perf_counter()
    _interpreter_work()
    _small_numpy_work()
    _lapack_work()
    return time.perf_counter() - start


def scale_at(samples: list[float], position: int) -> float:
    """Scale factor for a job timed after ``samples[:position]`` were taken.

    The median of up to ``NEIGHBOURS`` probe times on each side of the
    job, divided into ``REFERENCE_S``.
    """
    near = samples[max(0, position - NEIGHBOURS) : position + NEIGHBOURS]
    if not near:
        raise ValueError("no probe sample near the job")
    return REFERENCE_S / statistics.median(near)

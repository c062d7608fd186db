"""Independent correctness gate: dense matrices built without hamrc.

Everything here uses only numpy and scipy, on the term lists and the
schedule text, so a verdict never rests on hamrc's dense layer alone.
The evaluator is the plain one: every instruction becomes a full
``2^n x 2^n`` matrix (a Kronecker product for a local layer,
``scipy.linalg.expm`` for a drift period) and the matrices are
multiplied in operator order.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.linalg

from workloads import Job, Term

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: control on qubit 0, qubit 0 the leftmost tensor factor
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def kron(mats) -> np.ndarray:
    return reduce(np.kron, mats, np.eye(1, dtype=complex))


def dense(n: int, terms: tuple[Term, ...]) -> np.ndarray:
    """Dense Hermitian matrix of a term list on ``n`` qubits."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, ops in terms:
        axes = dict(ops)
        out += coeff * kron(PAULI[axes.get(q, "I")] for q in range(n))
    return out


def embed(terms: tuple[Term, ...], sites: tuple[int, int]) -> tuple[Term, ...]:
    """Move a two-qubit term list onto register ``sites``."""
    return tuple((c, tuple(sorted((sites[q], a) for q, a in ops))) for c, ops in terms)


def goal(job: Job) -> np.ndarray:
    """The ideal unitary a job's schedule should implement."""
    if job.kind == "cnot":
        return CNOT
    target = embed(job.target, job.target_sites())
    return scipy.linalg.expm(-1j * job.t * dense(job.n, target))


def parse_schedule(text: str):
    """``(n, phase, layers, stream)`` from hamrc's schedule text.

    ``layers`` maps a layer id to ``{site: 2x2 matrix}``; ``stream``
    holds ``("local", id)`` and ``("drift", tau)`` in operator order.
    """
    n, phase = None, 0.0
    layers: dict[int, dict[int, np.ndarray]] = {}
    stream: list[tuple[str, float | int]] = []
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        kind, args = tok[0], tok[1:]
        if kind == "qubits":
            n = int(args[0])
        elif kind == "phase":
            phase = float(args[0])
        elif kind == "layer":
            rows = layers.setdefault(int(args[0]), {})
            if len(args) == 10:
                v = [float(x) for x in args[2:]]
                rows[int(args[1])] = np.array(
                    [complex(v[2 * k], v[2 * k + 1]) for k in range(4)]
                ).reshape(2, 2)
        elif kind == "local":
            stream.append(("local", int(args[0])))
        elif kind == "drift":
            stream.append(("drift", float(args[0])))
        elif kind not in ("periods", "predicted"):
            raise ValueError(f"unknown schedule record {kind!r}")
    if n is None:
        raise ValueError("schedule has no qubit count")
    return n, phase, layers, stream


def evaluate(text: str, drift: tuple[Term, ...]) -> np.ndarray:
    """Dense unitary of a schedule: the plain operator-ordered product."""
    n, phase, layers, stream = parse_schedule(text)
    h = dense(n, drift)
    cache: dict[tuple[str, float | int], np.ndarray] = {}
    w = np.eye(2**n, dtype=complex)
    for item in stream:
        op = cache.get(item)
        if op is None:
            kind, value = item
            if kind == "drift":
                op = scipy.linalg.expm(-1j * value * h)
            else:
                rows = layers[value]
                op = kron(rows.get(q, PAULI["I"]) for q in range(n))
            cache[item] = op
        w = w @ op
    return np.exp(1j * phase) * w


def distance(want: np.ndarray, got: np.ndarray) -> float:
    """Spectral-norm distance after aligning the global phase.

    The phase is the one of the trace overlap ``tr(want^dag got)``, the
    convention ``hamrc verify`` documents, so the two numbers are
    comparable to rounding.
    """
    overlap = np.trace(want.conj().T @ got)
    if abs(overlap) > 0:
        got = got * (abs(overlap) / overlap)
    return float(np.linalg.norm(want - got, 2))


def schedule_error(job: Job, text: str) -> float:
    """Phase-aligned error of a schedule against the job's goal."""
    return distance(goal(job), evaluate(text, job.drift))

"""Route interactions between qubits that the drift does not couple.

The drift's coupling graph says which pairs can talk directly.  For a
distant pair we walk the lexicographically smallest shortest path,
compile an exchange pulse (a quarter-period of ``XX + YY + ZZ``, which
swaps the pair up to a global phase) for every edge except the last,
apply the target interaction across the final edge, then undo the swaps
with the same pulses in reverse.  The whole sequence is a palindrome in
time, so the operator-ordered instruction list is the plain
concatenation of the segment lists.
"""

from __future__ import annotations

import math
from collections import deque

from . import decouple as _decouple
from .errors import InvalidStep, InvalidTerm, NotConnected
from .pauli import CouplingGraph, HamExpansion, build_expansion, coupling_graph
from .schedule import Schedule, canonicalize


def route(graph: CouplingGraph, src: int, dst: int) -> list[int]:
    """Lexicographically smallest shortest path from src to dst.

    Breadth-first distances from the destination let a greedy walk pick,
    at every vertex, the smallest neighbor that still lies on some
    shortest path; that walk is the lexicographic minimum over all
    shortest paths.  ``route(k, k)`` is ``[k]``.
    """
    for q in (src, dst):
        if not 0 <= q < graph.n:
            raise InvalidTerm(f"qubit {q} outside register of {graph.n}")
    if src == dst:
        return [src]

    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    if src not in dist:
        raise NotConnected(f"no coupling path between {src} and {dst}")

    path = [src]
    while path[-1] != dst:
        here = path[-1]
        step = min(u for u in graph.neighbors(here) if dist.get(u) == dist[here] - 1)
        path.append(step)
    return path


def exchange_generator() -> HamExpansion:
    """Two-qubit Heisenberg exchange; a quarter period realizes a SWAP."""
    return build_expansion(2, [("XX", 1.0), ("YY", 1.0), ("ZZ", 1.0)])


SWAP_TIME = math.pi / 4.0


def compile_remote(
    drift: HamExpansion,
    src: int,
    dst: int,
    target_pair: HamExpansion,
    t: float,
    *,
    steps: int | None = None,
    epsilon: float | None = None,
    order: int = 1,
    bound: str | None = None,
) -> Schedule:
    """Schedule approximating ``exp(-i K t)`` for a pair target on
    register sites ``src`` and ``dst``, routed when the drift does not
    couple them directly.

    On a direct edge this is :func:`compile_on_pair`'s schedule, plan
    included; only there may ``steps`` replace ``epsilon``, and the
    default bound is ``chained``.  Across a longer path the default bound
    is ``empirical`` and the error budget is split evenly over the
    ``2*(hops-1) + 1`` segments (out-swaps, the target pulse, back-swaps),
    so the chained total stays within ``epsilon``.  Each forward swap
    pulse is reused verbatim on the way back; the pure phases the
    exchange pulses inject are cancelled through the schedule's global
    phase.
    """
    if src == dst:
        raise InvalidTerm("remote compilation needs two distinct qubits")
    path = route(coupling_graph(drift), src, dst)
    hops = len(path) - 1
    if bound is None:
        bound = "chained" if hops == 1 else "empirical"

    def segment(k: int, l: int, target: HamExpansion, time: float, **count) -> Schedule:
        return _decouple.compile_on_pair(
            drift, (k, l), target, time,
            order=order, bound=bound, **count,
        )

    if hops == 1:
        return segment(src, dst, target_pair, t, steps=steps, epsilon=epsilon)
    if steps is not None or epsilon is None:
        raise InvalidStep("routing between uncoupled qubits needs epsilon, not steps")
    if not t > 0:
        raise InvalidStep(f"total time must be positive, got {t}")
    if not epsilon > 0:
        raise InvalidStep(f"error budget must be positive, got {epsilon}")

    segments = 2 * (hops - 1) + 1
    eps_seg = epsilon / segments
    swaps = [
        segment(path[i], path[i + 1], exchange_generator(), SWAP_TIME, epsilon=eps_seg)
        for i in range(hops - 1)
    ]
    core = segment(path[-2], path[-1], target_pair, t, epsilon=eps_seg)

    pieces = swaps + [core] + swaps[::-1]
    blocks: list = []
    phase = 0.0
    raw = 0
    predicted = 0.0
    for piece in pieces:
        blocks += piece.blocks
        phase += piece.phase
        raw += piece.raw_drift_periods
        predicted += piece.predicted_error
    # each swap pulse carries an intrinsic exp(-i pi/4); the out/back pair
    # then composes to a pure phase the target never asked for
    phase += 2.0 * SWAP_TIME * (hops - 1)

    return canonicalize(
        Schedule.from_blocks(
            drift.n,
            blocks,
            phase,
            raw_drift_periods=raw,
            plan=None,
            predicted_error=predicted,
        )
    )

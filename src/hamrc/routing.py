"""Route interactions between qubits that the drift does not couple.

The drift's coupling graph says which pairs can talk directly.  For a
distant pair we walk the lexicographically smallest shortest path,
compile an exchange pulse (a quarter-period of ``XX + YY + ZZ``, which
swaps the pair up to a global phase) for every edge except the last,
apply the target interaction across the final edge, then undo the swaps
with the same pulses in reverse.  The whole sequence is a palindrome in
time, so in operator order it is the same list: ``routed_program`` lists
the swap segments, the target's segment and the same swap segments
reversed, and ``synth.compile_program`` plans and emits each swap once
and canonicalizes the routed schedule once, as a whole.
"""

from __future__ import annotations

import math
from collections import deque

from . import synth as _synth
from .errors import InvalidTerm, NotConnected
from .pauli import CouplingGraph, HamExpansion, build_expansion, coupling_graph
from .schedule import Schedule


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


def routed_program(
    drift: HamExpansion, src: int, dst: int, target_pair: HamExpansion, t: float
) -> _synth.Program:
    """A pair target on register sites ``src`` and ``dst``: its segment on
    the route's last edge, between the swap segments and the same swap
    segments reversed.  Each swap pulse carries an intrinsic
    ``exp(-i pi/4)``; the program's phase cancels the pure phase that an
    out and back pair composes to."""
    if src == dst:
        raise InvalidTerm("remote compilation needs two distinct qubits")
    path = route(coupling_graph(drift), src, dst)
    core = _synth.Segment(target_pair, t, (path[-2], path[-1]))
    if len(path) == 2:
        return _synth.Program((core,))
    swaps = [_synth.Segment(exchange_generator(), SWAP_TIME, e) for e in zip(path, path[1:-1])]
    return _synth.Program((*swaps, core, *reversed(swaps)), phase=2.0 * SWAP_TIME * len(swaps))


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
    """``routed_program``'s schedule.  On a direct edge it is
    :func:`compile_on_pair`'s, plan included, and the default bound is
    ``chained``; across a longer path only ``epsilon`` sets the step
    counts, split evenly over the ``2*(hops-1) + 1`` product segments, and
    the default bound is ``empirical``."""
    return _synth.compile_program(
        drift, routed_program(drift, src, dst, target_pair, t),
        steps=steps, epsilon=epsilon, order=order, bound=bound,
    )

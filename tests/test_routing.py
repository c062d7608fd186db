"""Shortest-path routing and remote-pair compilation."""

import itertools
import math

import numpy as np
import pytest

from hamrc import (
    InvalidStep,
    InvalidTerm,
    NotConnected,
    build_expansion,
    compile_on_pair,
    compile_remote,
    coupling_graph,
    dense_of_expansion,
    distance,
    embed,
    evaluate_schedule,
    exchange_generator,
    expm_hermitian,
    route,
)
from hamrc.routing import SWAP_TIME

CHAIN4 = build_expansion(
    4,
    [
        ("XXII", 1.0), ("IXXI", 0.8), ("IIXX", 1.2),
        ("ZIII", 0.3), ("IZII", -0.4), ("IIZI", 0.5), ("IIIZ", 0.2),
    ],
)


def _graph_from_edges(n, edges):
    entries = []
    for i, j in edges:
        ops = ["I"] * n
        ops[i] = ops[j] = "Z"
        entries.append(("".join(ops), 1.0))
    return coupling_graph(build_expansion(n, entries))


def _all_shortest_paths(graph, src, dst):
    """Every shortest simple path, found by exhaustive level-by-level search."""
    if src == dst:
        return [[src]]
    frontier = [[src]]
    found = []
    while frontier and not found:
        nxt = []
        for path in frontier:
            for v in graph.neighbors(path[-1]):
                if v in path:
                    continue
                if v == dst:
                    found.append(path + [v])
                else:
                    nxt.append(path + [v])
        frontier = nxt
    return found


def test_route_matches_exhaustive_lexicographic_oracle():
    graphs = [
        _graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
        _graph_from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)]),
        _graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    ]
    for graph in graphs:
        for src, dst in itertools.permutations(range(graph.n), 2):
            want = min(_all_shortest_paths(graph, src, dst))
            assert route(graph, src, dst) == want


def test_route_trivial_and_disconnected():
    graph = _graph_from_edges(4, [(0, 1), (2, 3)])
    assert route(graph, 2, 2) == [2]
    with pytest.raises(NotConnected):
        route(graph, 0, 3)
    with pytest.raises(InvalidTerm):
        route(graph, 0, 9)


def test_exchange_generator_quarter_period_swaps():
    gen = exchange_generator()
    w = expm_hermitian(dense_of_expansion(gen), SWAP_TIME)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.abs(w - np.exp(-1j * math.pi / 4.0) * swap).max() < 1e-12


def test_remote_compile_reaches_distant_pair():
    target = build_expansion(2, [("ZZ", 1.0)])
    sched = compile_remote(CHAIN4, 0, 3, target, 0.5, epsilon=1e-2)
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (0, 3))), 0.5)
    got = evaluate_schedule(sched, CHAIN4)
    err = distance(goal, got)
    assert err <= sched.predicted_error <= 1e-2
    # the schedule phase accounts for the exchange pulses exactly, so
    # the strict comparison is just as good
    assert distance(goal, got, phase_align=False) <= 2e-2


def test_remote_compile_on_adjacent_pair_is_single_segment():
    target = build_expansion(2, [("XX", 0.4)])
    sched = compile_remote(CHAIN4, 2, 3, target, 0.3, epsilon=1e-2)
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (2, 3))), 0.3)
    assert distance(goal, evaluate_schedule(sched, CHAIN4)) <= 1e-2


def test_remote_compile_on_a_direct_edge_is_compile_on_pair():
    target = build_expansion(2, [("XX", 0.4)])
    sched = compile_remote(CHAIN4, 2, 3, target, 0.3, epsilon=1e-2)
    assert sched == compile_on_pair(CHAIN4, (2, 3), target, 0.3, epsilon=1e-2)
    assert sched.plan.bound == "chained"
    stepped = compile_remote(CHAIN4, 3, 2, target, 0.3, steps=5)
    assert stepped == compile_on_pair(CHAIN4, (3, 2), target, 0.3, steps=5)
    with pytest.raises(InvalidStep):
        compile_remote(CHAIN4, 0, 3, target, 0.3, steps=5)


def test_remote_compile_validation():
    target = build_expansion(2, [("ZZ", 1.0)])
    with pytest.raises(InvalidTerm):
        compile_remote(CHAIN4, 1, 1, target, 0.5, epsilon=1e-2)
    with pytest.raises(NotConnected):
        split = build_expansion(4, [("XXII", 1.0), ("IIXX", 1.0)])
        compile_remote(split, 0, 3, target, 0.5, epsilon=1e-2)

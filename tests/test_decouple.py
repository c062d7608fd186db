"""Frame averaging that isolates a principal pair inside a register."""

from itertools import product

import numpy as np
import pytest

from conftest import random_two_body
from hamrc import (
    HamExpansion,
    InvalidTerm,
    NotCoupled,
    PauliString,
    build_expansion,
    compile_on_pair,
    conjugation_sign,
    dense_of_expansion,
    dense_of_pauli,
    distance,
    embed,
    evaluate_schedule,
    expm_hermitian,
    filter_support,
    isolate_principal,
)

CHAIN4 = build_expansion(
    4,
    [
        ("XXII", 1.0), ("IXXI", 0.8), ("IIXX", 1.2),
        ("ZIII", 0.3), ("IZII", -0.4), ("IIZI", 0.5), ("IIIZ", 0.2),
        ("YYII", -0.6), ("IZZI", 0.9),
    ],
)


def _frame_average_dense(ham, frames):
    h = dense_of_expansion(ham)
    acc = np.zeros_like(h)
    for w, f in frames.frames:
        u = dense_of_pauli(f)
        acc += w * (u @ h @ u)
    return acc


# the single-site Pauli product up to phase: row a, column b, in I X Y Z order
_PRODUCT = dict(
    zip((a + b for a in "IXYZ" for b in "IXYZ"), "IXYZ" "XIZY" "YZIX" "ZYXI")
)


def _reference_isolation(ham, pair):
    """Isolation by explicit averaging: four conjugations per round, the
    survivors' coefficients summed and divided by four, and the frames
    composed through the Pauli product table."""

    def conjugators(sites):
        return [
            PauliString("".join(axis if q in sites else "I" for q in range(ham.n)))
            for axis in "IXYZ"
        ]

    def average_round(h, frames):
        acc = {}
        for f in frames:
            for p, c in h.items():
                acc[p] = acc.get(p, 0.0) + conjugation_sign(p, f) * c
        return HamExpansion(h.n, {p: c / 4.0 for p, c in acc.items()})

    rest = [q for q in range(ham.n) if q not in pair]
    rounds = [conjugators(rest)]
    current = average_round(ham, rounds[0])
    blocks = [rest] if rest else []
    while any(
        len(set(p.support()) & set(b)) == 2
        for p in current
        for b in blocks
        if len(b) > 1
    ):
        halves, fronts = [], []
        for b in blocks:
            if len(b) == 1:
                halves.append(b)
                continue
            cut = (len(b) + 1) // 2
            fronts.extend(b[:cut])
            halves.extend([b[:cut], b[cut:]])
        rounds.append(conjugators(fronts))
        current = average_round(current, rounds[-1])
        blocks = halves
    merged = {}
    for combo in product(*rounds):
        frame = combo[0]
        for extra in combo[1:]:
            frame = PauliString(
                "".join(_PRODUCT[a + b] for a, b in zip(frame.ops, extra.ops))
            )
        merged[frame] = merged.get(frame, 0.0) + 0.25 ** len(rounds)
    frames = tuple((w, f) for f, w in merged.items())
    return current, frames, len(rounds) - 1


def _same_axis_drift(n, axis):
    """A same-axis coupling on every pair: the worst case for the rounds."""
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            ops = ["I"] * n
            ops[i] = ops[j] = axis
            entries.append(("".join(ops), 1.0 + 0.1 * i - 0.03 * j))
    return build_expansion(n, entries)


def test_isolation_matches_the_averaging_reference():
    rng = np.random.default_rng(29)
    cases = []
    for n in range(2, 10):
        for density in (0.3, 1.0):
            ham = random_two_body(n, rng, coupling_density=density, connected=True)
            pairs = {(0, 1), (n - 1, 0)}
            pairs.add(tuple(int(q) for q in rng.choice(n, 2, replace=False)))
            cases += [(ham, pair) for pair in sorted(pairs)]
        for axis in "XYZ":
            cases.append((_same_axis_drift(n, axis), (n - 2, n - 1)))
    for ham, pair in cases:
        isolated, frames = isolate_principal(ham, pair)
        want, want_frames, want_depth = _reference_isolation(ham, pair)
        assert isolated == want
        assert frames.frames == want_frames
        assert frames.depth == want_depth


def test_same_axis_rest_coupling_needs_a_blocking_round():
    # IIXX straddles the final two sites; splitting the rest separates it
    _, frames = isolate_principal(CHAIN4, (0, 1))
    assert frames.depth == 1
    assert len(frames.frames) == 16


def test_isolation_is_exact_on_coefficients():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5, 6, 7, 8):
        ham = random_two_body(n, rng, connected=True)
        for pair in [(0, 1), (1, n - 1), (n - 1, 0)]:
            isolated, frames = isolate_principal(ham, pair)
            assert isolated == filter_support(ham, pair)
            assert len(frames.frames) <= 16 * n * n
            assert sum(w for w, _ in frames.frames) == pytest.approx(1.0, abs=1e-15)


def test_frame_average_matches_dense_conjugation():
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        ham = random_two_body(n, rng, connected=True)
        isolated, frames = isolate_principal(ham, (0, 2))
        dense_avg = _frame_average_dense(ham, frames)
        assert np.abs(dense_avg - dense_of_expansion(isolated)).max() < 1e-12


def test_zero_outside_terms_needs_no_blocking():
    ham = build_expansion(5, [("XZIII", 1.5), ("ZIIII", 0.2)])
    isolated, frames = isolate_principal(ham, (0, 1))
    assert isolated == ham
    assert frames.depth == 0
    assert len(frames.frames) == 4


def test_two_qubit_register_degenerates_to_one_identity_frame():
    ham = build_expansion(2, [("XZ", 2.0), ("ZI", 1.0)])
    isolated, frames = isolate_principal(ham, (0, 1))
    assert isolated == ham
    assert frames.frames == ((1.0, PauliString("II")),)


def test_frame_counts_by_register_size():
    # a same-axis coupling on every pair forces the worst-case depth:
    # every block keeps an internal coupling until it is a singleton
    for n, expect in ((3, 4), (4, 16), (6, 64), (8, 256)):
        entries = []
        for i in range(n):
            for j in range(i + 1, n):
                ops = ["I"] * n
                ops[i] = ops[j] = "Z"
                entries.append(("".join(ops), 1.0))
        ham = build_expansion(n, entries)
        _, frames = isolate_principal(ham, (0, 1))
        assert len(frames.frames) == expect


def test_frames_act_as_identity_on_the_pair():
    rng = np.random.default_rng(13)
    ham = random_two_body(6, rng, connected=True)
    _, frames = isolate_principal(ham, (2, 4))
    for _, f in frames.frames:
        assert f.ops[2] == "I" and f.ops[4] == "I"


def test_pair_validation():
    with pytest.raises(InvalidTerm):
        isolate_principal(CHAIN4, (1, 1))
    with pytest.raises(InvalidTerm):
        isolate_principal(CHAIN4, (0, 7))
    with pytest.raises(InvalidTerm):
        isolate_principal(build_expansion(3, [("XXX", 1.0)]), (0, 1))


def test_compile_on_pair_hits_its_budget():
    target = build_expansion(2, [("XX", 1.0)])
    sched = compile_on_pair(
        CHAIN4, (0, 1), target, 1.0, epsilon=1e-2, order=2, bound="empirical"
    )
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (0, 1))), 1.0)
    err = distance(goal, evaluate_schedule(sched, CHAIN4))
    assert err <= sched.predicted_error <= 1e-2


def test_compile_on_pair_chained_bound_is_sound():
    target = build_expansion(2, [("ZZ", 0.6)])
    sched = compile_on_pair(
        CHAIN4, (1, 2), target, 0.7, epsilon=5e-2, order=1, bound="chained"
    )
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (1, 2))), 0.7)
    err = distance(goal, evaluate_schedule(sched, CHAIN4))
    assert err <= sched.predicted_error <= 5e-2


def test_compile_on_pair_matches_plain_pair_compiler_on_two_qubits():
    from hamrc import compile_schedule

    drift = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])
    target = build_expansion(2, [("XX", 0.7), ("YZ", -0.3), ("IZ", 0.2)])
    a = compile_schedule(drift, target, 1.0, steps=7, order=2)
    b = compile_on_pair(drift, (0, 1), target, 1.0, steps=7, order=2)
    assert a == b
    assert a.raw_drift_periods == b.raw_drift_periods


def test_uncoupled_pair_is_named_by_register_sites():
    target = build_expansion(2, [("ZZ", 1.0)])
    with pytest.raises(NotCoupled, match="qubits 0 and 3"):
        compile_on_pair(CHAIN4, (0, 3), target, 0.5, epsilon=1e-2)


def test_compile_on_pair_respects_site_order():
    # pair (1, 0): target qubit 0 lands on register site 1
    target = build_expansion(2, [("XZ", 0.5)])
    sched = compile_on_pair(CHAIN4, (1, 0), target, 0.4, steps=60, order=1)
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (1, 0))), 0.4)
    err = distance(goal, evaluate_schedule(sched, CHAIN4))
    assert err < 0.05

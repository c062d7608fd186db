"""Frame averaging that isolates a principal pair inside a register."""

import numpy as np
import pytest

from conftest import random_two_body
from hamrc import (
    InvalidTerm,
    NotCoupled,
    PauliString,
    build_expansion,
    compile_on_pair,
    decouple_principal,
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


def test_single_round_kills_pair_rest_couplings_and_rest_locals():
    decoupled, frames = decouple_principal(CHAIN4, (0, 1))
    # pair-supported terms survive with exact coefficients
    for ops in ("XXII", "YYII", "ZIII", "IZII"):
        assert decoupled.coefficient(ops) == CHAIN4.coefficient(ops)
    # pair-to-rest couplings and rest locals vanish
    for ops in ("IXXI", "IIZI", "IIIZ"):
        assert decoupled.coefficient(ops) == 0.0
    # a same-axis coupling inside the rest survives the first round
    assert decoupled.coefficient("IIXX") == 1.2
    assert frames.depth == 0
    assert len(frames.frames) == 4


def test_isolation_without_blocking_rounds_is_the_principal_round():
    # no same-axis coupling inside the rest, so the first round is the last
    ham = build_expansion(
        4, [("XXII", 1.0), ("IZZI", 0.5), ("IIXY", 0.3), ("ZIIZ", 0.2), ("IIZI", 0.4)]
    )
    assert decouple_principal(ham, (0, 1)) == isolate_principal(ham, (0, 1))


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
            assert frames.weight_total() == pytest.approx(1.0, abs=1e-15)


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

"""End-to-end acceptance criteria, one test per criterion.

Each test states its tolerance inline and checks its own wall-clock
budget, so a verbose run reads as a pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_coupled_pair, random_two_body
from hamrc import (
    CNOT_MATRIX,
    GLOBAL_BOUND_C,
    build_expansion,
    chained_rate,
    compile_cnot,
    compile_on_pair,
    compile_remote,
    compile_schedule,
    coupling_graph,
    dense_of_expansion,
    distance,
    embed,
    evaluate_schedule,
    expm_hermitian,
    filter_support,
    is_entangling,
    isolate_principal,
    operator_norm,
)
from hamrc.routing import SWAP_TIME, exchange_generator
from hamrc.schedule import Schedule
from hamrc.synth import CNOT_BODY, emit_step, plan_for_model, step_model

DRIFT2 = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])

CHAIN4 = build_expansion(
    4,
    [
        ("XXII", 1.0), ("IXXI", 0.8), ("IIXX", 1.2),
        ("ZIII", 0.3), ("IZII", -0.4), ("IIZI", 0.5), ("IIIZ", 0.2),
    ],
)


def _stopwatch(limit: float):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < limit, f"criterion exceeded its {limit:.0f}s budget"
        return elapsed

    return check


def _power_error(drift, target_mat, model, t, steps, order):
    """Error of the compiled evolution via one emitted step and matrix power."""
    instructions, phase = emit_step(model, t / steps, order)
    frag = Schedule(model.n, ((tuple(instructions), 1),), phase)
    w = evaluate_schedule(frag, drift)
    return distance(target_mat, np.linalg.matrix_power(w, steps))


def test_criterion_01_cnot_order2_budget_and_period_count():
    done = _stopwatch(5.0)
    sched = compile_cnot(DRIFT2, epsilon=1e-3, order=2)
    assert 50 <= sched.raw_drift_periods <= 500
    err = distance(CNOT_MATRIX, evaluate_schedule(sched, DRIFT2))
    assert err <= 1e-3
    assert err <= sched.predicted_error
    done()


def test_criterion_02_cnot_order1_budget_and_period_count():
    done = _stopwatch(30.0)
    sched = compile_cnot(DRIFT2, epsilon=1e-3, order=1)
    assert 5_000 <= sched.raw_drift_periods <= 50_000
    err = distance(CNOT_MATRIX, evaluate_schedule(sched, DRIFT2))
    assert err <= 1e-3
    done()


def test_criterion_03_trotter_error_slopes():
    done = _stopwatch(60.0)
    rng = np.random.default_rng(2024)
    grids = {1: [10, 100, 1_000, 10_000, 300_000], 2: [4, 16, 64, 256, 1024]}
    for case in range(5):
        drift = random_coupled_pair(rng)
        target = random_coupled_pair(rng)
        goal = expm_hermitian(dense_of_expansion(target), 1.0)
        model = step_model(drift, target)
        for order, grid in grids.items():
            errs = [
                _power_error(drift, goal, model, 1.0, n, order) for n in grid
            ]
            logs_n = np.log10(grid)
            logs_e = np.log10(errs)
            slope = -np.polyfit(logs_n, logs_e, 1)[0]
            assert abs(slope - order) <= 0.2, (case, order, slope, errs)
            assert logs_e[0] - logs_e[-1] >= 4.0, (case, order, errs)
        # the powered single step is the compiled schedule, exactly
        full = compile_schedule(drift, target, 1.0, steps=3, order=2)
        via_power = _power_error(drift, goal, model, 1.0, 3, 2)
        via_full = distance(goal, evaluate_schedule(full, drift))
        assert abs(via_power - via_full) < 1e-12
    done()


def test_criterion_04_full_coupling_step_fits_in_36_periods():
    done = _stopwatch(5.0)
    entries = [(a + b, 0.25) for a in "XYZ" for b in "XYZ"]
    target = build_expansion(2, entries)
    model = step_model(DRIFT2, target)
    assert model.raw_drifts_per_step(1) <= 36
    assert model.drift_factor_count() == 36
    done()


def test_criterion_05_decoupling_is_exact_for_random_drifts():
    done = _stopwatch(60.0)
    rng = np.random.default_rng(77)
    for case in range(20):
        n = int(rng.integers(3, 9))
        ham = random_two_body(n, rng, connected=True)
        for pair in coupling_graph(ham).edge_pairs():
            isolated, frames = isolate_principal(ham, pair)
            assert isolated == filter_support(ham, pair), (case, n, pair)
            assert len(frames.frames) <= 16 * n * n, (case, n, pair)
    done()


def test_criterion_06_pair_compile_on_chain_hits_budgets():
    done = _stopwatch(120.0)
    target = build_expansion(2, [("XX", 1.0)])
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (0, 1))), 1.0)

    emp = compile_on_pair(
        CHAIN4, (0, 1), target, 1.0, epsilon=1e-2, order=2, bound="empirical"
    )
    err_emp = distance(goal, evaluate_schedule(emp, CHAIN4))
    assert err_emp <= 1e-2

    chained = compile_on_pair(
        CHAIN4, (0, 1), target, 1.0, epsilon=5e-2, order=2, bound="chained"
    )
    err_chained = distance(goal, evaluate_schedule(chained, CHAIN4))
    assert err_chained <= chained.predicted_error <= 5e-2
    done()


def test_criterion_07_routed_interaction_and_swap_involution():
    done = _stopwatch(60.0)
    target = build_expansion(2, [("ZZ", 1.0)])
    sched = compile_remote(CHAIN4, 0, 3, target, 0.5, epsilon=1e-2)
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (0, 3))), 0.5)
    err = distance(goal, evaluate_schedule(sched, CHAIN4))
    assert err <= 1e-2

    # a compiled exchange pulse squares to the identity up to phase
    eps_seg = 1e-2 / 5.0
    swap = compile_on_pair(
        CHAIN4, (0, 1), exchange_generator(), SWAP_TIME,
        epsilon=eps_seg, order=1, bound="empirical",
    )
    s = evaluate_schedule(swap, CHAIN4)
    assert distance(np.eye(16), s @ s) <= 2.0 * eps_seg
    done()


def test_criterion_08_analytic_bounds_are_sound():
    done = _stopwatch(10.0)
    t = math.pi / 4.0

    cnot_model = step_model(DRIFT2, CNOT_BODY)
    for order, kind in ((1, "first_order_cnot"), (2, "second_order_cnot")):
        plan = plan_for_model(cnot_model, CNOT_BODY, t, 3e-2, order, kind)
        sched = compile_cnot(DRIFT2, steps=plan.steps, order=order)
        err = distance(CNOT_MATRIX, evaluate_schedule(sched, DRIFT2))
        assert err <= plan.predicted_error, (kind, err, plan.predicted_error)

    rng = np.random.default_rng(5150)
    for order in (1, 2):
        for _ in range(3):
            drift = random_coupled_pair(rng)
            target = random_coupled_pair(rng)
            model = step_model(drift, target)
            rate = chained_rate(model, order)
            steps = 20
            bound = steps * rate * (1.0 / steps) ** (order + 1)
            sched = compile_schedule(drift, target, 1.0, steps=steps, order=order)
            goal = expm_hermitian(dense_of_expansion(target), 1.0)
            err = distance(goal, evaluate_schedule(sched, drift))
            assert err <= bound + 1e-12, (order, err, bound)

    target = build_expansion(2, [("XX", 1.0)])
    sched = compile_schedule(DRIFT2, target, 1.0, steps=40, order=1)
    goal = expm_hermitian(dense_of_expansion(target), 1.0)
    err = distance(goal, evaluate_schedule(sched, DRIFT2))
    # the global bound C * D^2 * t * delta at 40 steps
    plan = plan_for_model(step_model(DRIFT2, target), target, 1.0, 1.0, 1, "global")
    assert plan.constants["C"] == GLOBAL_BOUND_C
    assert err <= 40 * plan.constants["rate"] * (1.0 / 40) ** 2
    done()


def test_criterion_09_norm_and_conjugation_exactness_suite():
    done = _stopwatch(60.0)
    rng = np.random.default_rng(808)
    tol = 1e-10

    def random_unitary(dim):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    for _ in range(25):
        # conjugation pattern: U exp(-i tau H) U^dag == exp(-i tau UHU^dag)
        from hamrc.schedule import Drift, LocalLayer

        drift = random_coupled_pair(rng)
        u0, u1 = random_unitary(2), random_unitary(2)
        layer = LocalLayer({0: u0, 1: u1})
        tau = float(rng.uniform(0.1, 2.0))
        sched = Schedule(2, (((layer, Drift(tau), layer.dagger()), 1),))
        got = evaluate_schedule(sched, drift)
        u = np.kron(u0, u1)
        want = expm_hermitian(
            u @ dense_of_expansion(drift) @ u.conj().T, tau
        )
        assert distance(want, got, phase_align=False) <= tol

    for _ in range(25):
        # unitary invariance of the operator norm
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, v = random_unitary(4), random_unitary(4)
        base = operator_norm(a - b)
        assert abs(operator_norm(u @ (a - b) @ v) - base) <= tol * max(1, base)

    for _ in range(25):
        # tensoring with an idle register does not change the distance
        a, b = random_unitary(4), random_unitary(4)
        base = operator_norm(a - b)
        lifted = operator_norm(np.kron(a, np.eye(2)) - np.kron(b, np.eye(2)))
        assert abs(lifted - base) <= tol * max(1, base)

    for _ in range(25):
        # chaining: ||V1 W1 - V2 W2|| <= ||V1 - V2|| + ||W1 - W2||
        v1, v2, w1, w2 = (random_unitary(4) for _ in range(4))
        lhs = operator_norm(v1 @ w1 - v2 @ w2)
        rhs = operator_norm(v1 - v2) + operator_norm(w1 - w2)
        assert lhs <= rhs + tol
    done()


def test_criterion_10_entangling_verdicts_match_brute_force():
    done = _stopwatch(30.0)
    rng = np.random.default_rng(31337)
    for case in range(200):
        n = int(rng.integers(2, 9))
        ham = random_two_body(
            n, rng, coupling_density=float(rng.uniform(0.1, 1.5))
        )
        verdict = is_entangling(ham)

        comp = list(range(n))

        def find(a):
            while comp[a] != a:
                comp[a] = comp[comp[a]]
                a = comp[a]
            return a

        for p in ham.terms:
            sup = p.support()
            if len(sup) == 2:
                ra, rb = find(sup[0]), find(sup[1])
                if ra != rb:
                    comp[max(ra, rb)] = min(ra, rb)
        groups = {}
        for q in range(n):
            groups.setdefault(find(q), []).append(q)
        brute = tuple(tuple(g) for _, g in sorted(groups.items()))
        assert verdict.components == brute, case
        assert verdict.entangling == (len(brute) == 1), case
    done()

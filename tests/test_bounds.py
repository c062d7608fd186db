"""Step planning and the analytic error bounds behind it."""

import math

import numpy as np
import pytest

from hamrc import (
    GLOBAL_BOUND_C,
    ErrorPlan,
    Infeasible,
    InvalidTerm,
    NotCoupled,
    TooLarge,
    build_expansion,
    chained_rate,
    coupling_ratio,
    global_bound,
    plan_steps,
)


def test_first_order_rate_on_anticommuting_pair():
    x = build_expansion(1, [("X", 1.0)])
    z = build_expansion(1, [("Z", 1.0)])
    # ||[X, Z]|| = 2, so one step of length tau is bounded by tau^2
    tau = 0.3
    assert chained_rate([x, z], 1) * tau * tau == pytest.approx(tau * tau)
    assert chained_rate([x, x], 1) == 0.0
    assert chained_rate([x], 1) == 0.0


def test_chained_rate_respects_cap():
    big = build_expansion(11, [("X" + "I" * 10, 1.0)])
    with pytest.raises(TooLarge):
        chained_rate([big, big], 1, dense_cap=10)


def test_chained_rate_orders():
    x = build_expansion(1, [("X", 1.0)])
    z = build_expansion(1, [("Z", 1.0)])
    assert chained_rate([x, z], 1) == pytest.approx(1.0)  # ||[X,Z]||/2
    # order 2 peel: a=1, r=1 -> (1/6)*1*1*(1+2) = 0.5
    assert chained_rate([x, z], 2) == pytest.approx(0.5)
    with pytest.raises(InvalidTerm):
        chained_rate([x, z], 3)


def test_plan_invariants_and_monotonicity():
    t = 1.0
    rate = 0.8
    plans = [
        plan_steps("chained", eps, t, order=1, rate=rate)
        for eps in (0.1, 0.03, 0.01, 0.003)
    ]
    steps = [p.steps for p in plans]
    assert steps == sorted(steps)
    for p in plans:
        assert p.steps * p.delta == pytest.approx(p.t)
        assert p.predicted_error <= 0.1 + 1e-15
        assert p.analytic
    # second order needs no more steps than first at the same budget
    n1 = plan_steps("chained", 1e-3, t, order=1, rate=rate).steps
    n2 = plan_steps("chained", 1e-3, t, order=2, rate=rate).steps
    assert n2 <= n1


def test_cnot_plan_kinds_fix_their_order():
    t = math.pi / 4.0
    p1 = plan_steps("first_order_cnot", 1e-3, t)
    assert p1.order == 1
    assert p1.predicted_error == pytest.approx(8.0 * t * (t / p1.steps))
    p2 = plan_steps("second_order_cnot", 1e-3, t)
    assert p2.order == 2
    assert p2.steps == 16
    assert p2.predicted_error == pytest.approx(0.5 * t * (t / 16) ** 2)
    assert p2.steps < p1.steps


def test_global_bound_matches_formula():
    drift = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])
    target = build_expansion(2, [("XX", 1.0)])
    # largest drift coefficient 2, largest target coefficient 1,
    # strongest coupling 2 -> D = 1
    assert coupling_ratio(drift, target) == pytest.approx(1.0)
    assert global_bound(drift, target, 2.0, 0.1) == pytest.approx(
        GLOBAL_BOUND_C * 2.0 * 0.1
    )
    plan = plan_steps("global", 0.5, 2.0, D=1.0)
    assert plan.bound == "global"
    assert GLOBAL_BOUND_C * 2.0 * plan.delta <= 0.5
    with pytest.raises(NotCoupled):
        coupling_ratio(build_expansion(2, [("XI", 1.0)]), target)


def test_plan_infeasible_budgets():
    with pytest.raises(Infeasible):
        plan_steps("first_order_cnot", 1e-30, math.pi / 4.0)
    with pytest.raises(Infeasible):
        plan_steps("chained", 1e-12, 10.0, order=1, rate=100.0, max_steps=1000)


def test_plan_rejects_bad_arguments():
    with pytest.raises(InvalidTerm):
        plan_steps("nonsense", 0.1, 1.0)
    with pytest.raises(InvalidTerm):
        plan_steps("chained", -0.1, 1.0, order=1, rate=1.0)
    with pytest.raises(InvalidTerm):
        plan_steps("chained", 0.1, 0.0, order=1, rate=1.0)
    with pytest.raises(InvalidTerm):
        plan_steps("chained", 0.1, 1.0, order=1)  # rate missing
    with pytest.raises(InvalidTerm):
        plan_steps("global", 0.1, 1.0)  # D missing
    with pytest.raises(InvalidTerm):
        plan_steps("empirical", 0.1, 1.0, order=1)  # measure missing


def test_empirical_plan_bisects_to_the_smallest_step_count():
    calls = []

    def measure(n):
        calls.append(n)
        return 1.0 / n**2

    plan = plan_steps("empirical", 1e-2, 1.0, order=1, measure=measure)
    assert plan.steps == 10
    assert not plan.analytic
    assert plan.predicted_error == pytest.approx(1e-2)
    assert measure(plan.steps - 1) > 1e-2


def test_empirical_plan_gives_up_at_the_cap():
    with pytest.raises(Infeasible):
        plan_steps(
            "empirical", 1e-3, 1.0, order=1, measure=lambda n: 1.0, max_steps=64
        )


def test_error_plan_validation():
    with pytest.raises(InvalidTerm):
        ErrorPlan("chained", 1, 0, 1.0, 1.0, 0.1)
    with pytest.raises(InvalidTerm):
        ErrorPlan("chained", 1, 2, 1.0, 1.0, 0.1)  # steps*delta != t
    with pytest.raises(InvalidTerm):
        ErrorPlan("chained", 1, 1, 1.0, 1.0, -0.1)


def test_analytic_predictions_are_sound_per_formula():
    # the planner's predicted error must be the bound formula at the
    # returned step count, never something smaller
    t, eps = 2.0, 7e-3
    plan = plan_steps("chained", eps, t, order=2, rate=1.3)
    want = plan.steps * 1.3 * (t / plan.steps) ** 3
    assert plan.predicted_error == pytest.approx(want)
    assert plan.predicted_error <= eps
    if plan.steps > 1:
        prev = (plan.steps - 1) * 1.3 * (t / (plan.steps - 1)) ** 3
        assert prev > eps  # minimality

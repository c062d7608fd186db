"""The segment program behind every compile: one plan per distinct product
segment, one emission, one canonicalize, one refusal per bad argument."""

import math
import sys

import pytest

import hamrc.synth as synth
from hamrc import (
    CNOT_MATRIX,
    InvalidStep,
    InvalidTerm,
    Schedule,
    build_expansion,
    canonicalize,
    compile_cnot,
    compile_on_pair,
    compile_remote,
    compile_schedule,
    distance,
    embed,
    evaluate_schedule,
)
from hamrc.dense import evolution
from hamrc.hamio import parse_schedule, serialize_schedule
from hamrc.schedule import Listing

DRIFT2 = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])
CHAIN4 = build_expansion(
    4,
    [
        ("XXII", 1.0), ("IXXI", 0.8), ("IIXX", 1.2),
        ("ZIII", 0.3), ("IZII", -0.4), ("IIZI", 0.5), ("IIIZ", 0.2),
    ],
)
ZZ = build_expansion(2, [("ZZ", 1.0)])
XX_ZZ = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])

#: each entry point, called with a step count or a budget
ENTRY_POINTS = {
    "compile_schedule": lambda **count: compile_schedule(DRIFT2, ZZ, 0.5, **count),
    "compile_on_pair": lambda **count: compile_on_pair(CHAIN4, (1, 2), ZZ, 0.5, **count),
    "compile_cnot": lambda **count: compile_cnot(DRIFT2, **count),
    "compile_remote": lambda **count: compile_remote(CHAIN4, 0, 3, ZZ, 0.5, **count),
}


def _patch_everywhere(monkeypatch, fn, wrapper):
    """Replace ``fn`` by ``wrapper`` at every hamrc module attribute that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "hamrc" or name.startswith("hamrc."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_a_bad_budget_is_refused_once_the_same_way(entry, epsilon):
    with pytest.raises(InvalidTerm, match="error budget must be positive"):
        ENTRY_POINTS[entry](epsilon=epsilon)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_canonicalizes_once(monkeypatch, entry):
    # the program once, outside the planner; an empirical plan (a route's
    # default) also canonicalizes once per probe, since each probe measures
    # the schedule the compile writes
    outside, inside, probes = [], [], []
    real_measure = synth._make_measure

    def counting(sched):
        (inside if probes and probes[-1] is None else outside).append(len(sched))
        return canonicalize(sched)

    def counting_measure(*args):
        measure = real_measure(*args)

        def probe(n_steps):
            probes.append(None)  # open until the probe returns
            err = measure(n_steps)
            probes[-1] = n_steps
            return err

        return probe

    _patch_everywhere(monkeypatch, canonicalize, counting)
    monkeypatch.setattr(synth, "_make_measure", counting_measure)
    ENTRY_POINTS[entry](epsilon=5e-2)
    assert len(outside) == 1
    assert len(inside) == len(probes)
    assert bool(probes) == (entry == "compile_remote")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_no_schedule_is_built_from_another_schedules_table(monkeypatch, entry):
    real = Schedule.__post_init__
    tables, foreign = [], []

    def checked(self):
        foreign.extend(
            body for body, _ in self.blocks
            if isinstance(body, Listing) and any(body.table is t for t in tables)
        )
        real(self)
        tables.append(self.table)

    monkeypatch.setattr(Schedule, "__post_init__", checked)
    ENTRY_POINTS[entry](epsilon=5e-2)
    assert tables and foreign == []


@pytest.mark.parametrize("dst, hops", [(1, 1), (2, 2), (3, 3)])
def test_a_route_plans_each_distinct_segment_once(monkeypatch, dst, hops):
    calls = []
    real = synth.plan_for_model

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(synth, "plan_for_model", counting)
    sched = compile_remote(CHAIN4, 0, dst, ZZ, 0.5, epsilon=5e-2)
    # the back-swaps are the out-swaps' segments, planned once
    assert len(calls) == hops
    assert sched.predicted_error <= 5e-2


def test_a_program_plans_what_it_compiles():
    program = synth.CNOT_PROGRAM
    plans = synth.plan_program(DRIFT2, program, 1e-2, 2, "second_order_cnot")
    (seg,) = program.products
    sched = synth.compile_program(
        DRIFT2, program, epsilon=1e-2, order=2, bound="second_order_cnot"
    )
    assert sched.plan == plans[seg][1]
    assert sched.predicted_error == plans[seg][1].predicted_error
    assert distance(CNOT_MATRIX, evaluate_schedule(sched, DRIFT2)) <= sched.predicted_error


def test_a_repeated_segment_splits_the_budget_by_its_runs():
    seg = synth.Segment(ZZ, 0.25)
    twice = synth.Program((seg, seg))
    (model, plan), = synth.plan_program(DRIFT2, twice, 2e-2, 1).values()
    once = synth.plan_program(DRIFT2, synth.Program((seg,)), 1e-2, 1, "empirical")
    assert plan.bound == "empirical"
    assert plan == once[seg][1]
    sched = synth.compile_program(DRIFT2, twice, epsilon=2e-2)
    assert sched.plan is None
    assert sched.predicted_error == plan.predicted_error + plan.predicted_error
    assert sched.raw_drift_periods == 2 * model.raw_drifts_per_step(1) * plan.steps


def test_program_arguments_are_checked_once():
    Program, Segment, compile_program = synth.Program, synth.Segment, synth.compile_program
    seg = Segment(ZZ, 0.5)
    with pytest.raises(InvalidStep, match="total time must be positive"):
        Segment(ZZ, 0.0)
    with pytest.raises(InvalidStep, match="exactly one of steps and epsilon"):
        compile_program(DRIFT2, Program((seg,)))
    with pytest.raises(InvalidStep, match="exactly one of steps and epsilon"):
        compile_program(DRIFT2, Program((seg,)), steps=3, epsilon=1e-2)
    with pytest.raises(InvalidStep, match="need epsilon, not steps"):
        compile_program(DRIFT2, Program((seg, seg)), steps=3)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("compile_one, drift, target", [
    (lambda **kw: compile_schedule(DRIFT2, XX_ZZ, 0.5, **kw), DRIFT2, XX_ZZ),
    (lambda **kw: compile_on_pair(CHAIN4, (1, 2), XX_ZZ, 0.5, **kw), CHAIN4,
     embed(XX_ZZ, 4, (1, 2))),
], ids=["compile_schedule", "compile_on_pair"])
def test_an_empirical_prediction_is_what_the_written_file_measures(compile_one, drift, target, order):
    sched = compile_one(epsilon=1e-3, order=order, bound="empirical")
    written = parse_schedule(serialize_schedule(sched))
    measured = distance(evolution(target, 0.5), evaluate_schedule(written, drift))
    assert measured == sched.predicted_error

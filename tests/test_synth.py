"""Pair compiler: recipes, step models, schedules, and the CNOT path."""

import math

import numpy as np
import pytest

from conftest import framed_expansion, heisenberg, random_coupled_pair, xz_chain
from hamrc import (
    CNOT_MATRIX,
    Drift,
    InvalidStep,
    InvalidTerm,
    LocalLayer,
    NotCoupled,
    PauliString,
    VerificationFailure,
    average,
    build_expansion,
    cnot_generator,
    compile_cnot,
    compile_schedule,
    conjugate_by_cliffords,
    dense_of_expansion,
    dense_of_pauli,
    distance,
    evaluate_schedule,
    expm_hermitian,
    pair_step_model,
    synth_max_term,
    synth_pauli_product,
)
from hamrc.bounds import _factor_matrices
from hamrc.synth import FramedDrift, LocalFactor, decompose_target, emit_step, step_model


def _dense_recipe_residual(drift, recipe):
    """Operator-norm defect of the recipe identity, computed densely."""
    h = dense_of_expansion(drift)
    acc = np.zeros((4, 4), dtype=complex)
    for frame in recipe.frames:
        layers = frame.layer_map()
        u = np.kron(layers[0].matrix, layers[1].matrix)
        acc += frame.rate * (u @ h @ u.conj().T)
    acc += dense_of_expansion(recipe.local_correction)
    acc += recipe.phase_correction * np.eye(4)
    return np.abs(acc - dense_of_expansion(recipe.target)).max()


def test_max_term_recipe_on_sample_drift(sample_drift):
    recipe = synth_max_term(sample_drift)
    assert recipe.target.terms == {PauliString("XZ"): 1.0}
    assert recipe.divisor == 8.0
    assert len(recipe.frames) == 4
    # the drift has no X(x)I or I(x)Z local terms, so nothing to correct
    assert len(recipe.local_correction) == 0
    assert recipe.phase_correction == 0.0
    assert _dense_recipe_residual(sample_drift, recipe) < 1e-15


def test_partial_average_worked_example(sample_drift):
    # averaging the sample drift over {II, XI} alone kills ZI and ZZ:
    # XI anticommutes with both Z factors but commutes with XZ
    h = dense_of_expansion(sample_drift)
    xi = dense_of_pauli(PauliString("XI"))
    avg = 0.5 * (h + xi @ h @ xi)
    assert np.abs(avg - 2.0 * dense_of_pauli(PauliString("XZ"))).max() < 1e-15


def test_recipe_corrections_are_exact_floats():
    # locals parallel to the coupling axes survive the average and must
    # be cancelled with coefficients that are exact quotients
    drift = build_expansion(
        2, [("XZ", 0.3), ("XI", 0.1), ("IZ", -0.7), ("II", 0.2), ("YY", 0.05)]
    )
    recipe = synth_max_term(drift)
    assert recipe.target.terms == {PauliString("XZ"): 1.0}
    assert recipe.local_correction.coefficient("XI") == -(0.1 / 0.3)
    assert recipe.local_correction.coefficient("IZ") == -(-0.7 / 0.3)
    assert recipe.phase_correction == -(0.2 / 0.3)
    assert _dense_recipe_residual(drift, recipe) < 1e-15


@pytest.mark.parametrize("axis_a", "XYZ")
@pytest.mark.parametrize("axis_b", "XYZ")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pauli_product_recipes_cover_all_axes(sample_drift, axis_a, axis_b, sign):
    recipe = synth_pauli_product(sample_drift, axis_a, axis_b, sign)
    assert recipe.target.terms == {PauliString(axis_a + axis_b): sign}
    assert _dense_recipe_residual(sample_drift, recipe) < 1e-15


def test_pauli_product_recipes_on_random_drifts():
    rng = np.random.default_rng(11)
    for _ in range(25):
        drift = random_coupled_pair(rng)
        recipe = synth_pauli_product(drift, "Y", "X", -1.0)
        assert _dense_recipe_residual(drift, recipe) < 1e-13


def test_synthesis_requires_a_coupling():
    with pytest.raises(NotCoupled):
        synth_max_term(build_expansion(2, [("XI", 1.0), ("IZ", 0.5)]))


def test_decompose_target_orders_and_reassembles():
    target = build_expansion(
        2, [("XY", -2.0), ("ZZ", 2.0), ("YI", 0.3), ("IX", -0.1), ("II", 0.7)]
    )
    decomp = decompose_target(target)
    assert decomp.couplings == ((-2.0, "X", "Y"), (2.0, "Z", "Z"))
    assert decomp.locals_ == ((0, "Y", 0.3), (1, "X", -0.1))
    assert decomp.identity == 0.7
    assert decomp.reassemble() == target


def test_step_model_shapes(sample_drift):
    target = build_expansion(2, [("XX", 0.5), ("ZY", -0.25), ("ZI", 1.0)])
    model = step_model(sample_drift, target)
    assert isinstance(model.factors[0], LocalFactor)
    assert model.drift_factor_count() == 8  # two couplings, four frames each
    assert model.raw_drifts_per_step(1) == 8
    assert model.raw_drifts_per_step(2) == 15  # palindrome reuses the last


def test_full_coupling_target_needs_at_most_36_periods(sample_drift):
    entries = [(a + b, 0.1 * (i + 1)) for i, (a, b) in enumerate(
        (a, b) for a in "XYZ" for b in "XYZ")]
    target = build_expansion(2, entries)
    model = step_model(sample_drift, target)
    assert model.drift_factor_count() == 36
    sched = compile_schedule(sample_drift, target, 0.05, steps=1, order=1)
    assert sched.raw_drift_periods == 36
    assert sched.drift_count() <= 36


def test_proportional_target_compiles_to_bare_drift(sample_drift):
    target = build_expansion(2, [("ZI", 0.5), ("XZ", 1.0), ("ZZ", 0.5)])
    sched = compile_schedule(sample_drift, target, 2.0, steps=1, order=1)
    assert sched.instructions == (Drift(1.0),)
    # and the evolution is exact, not just a first-order approximation
    goal = expm_hermitian(dense_of_expansion(target), 2.0)
    got = evaluate_schedule(sched, sample_drift)
    assert distance(goal, got, phase_align=False) < 1e-12


def test_single_step_error_shrinks_cubically_at_order_two(sample_drift):
    target = build_expansion(2, [("YY", 0.8), ("XI", -0.3)])
    goal = lambda d: expm_hermitian(dense_of_expansion(target), d)
    errs = []
    for delta in (0.2, 0.1, 0.05):
        sched = compile_schedule(sample_drift, target, delta, steps=1, order=2)
        errs.append(distance(goal(delta), evaluate_schedule(sched, sample_drift)))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.35)
    assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.35)


def test_compiled_error_improves_with_order(sample_drift):
    target = build_expansion(2, [("XX", 0.7), ("YZ", -0.3), ("IZ", 0.2)])
    goal = expm_hermitian(dense_of_expansion(target), 1.0)
    errs = {}
    for order in (1, 2):
        sched = compile_schedule(sample_drift, target, 1.0, steps=40, order=order)
        errs[order] = distance(goal, evaluate_schedule(sched, sample_drift))
    assert errs[2] < errs[1] / 10


def test_compile_schedule_argument_validation(sample_drift):
    target = build_expansion(2, [("XX", 1.0)])
    with pytest.raises(InvalidStep):
        compile_schedule(sample_drift, target, 1.0)
    with pytest.raises(InvalidStep):
        compile_schedule(sample_drift, target, 1.0, steps=3, epsilon=0.1)
    with pytest.raises(InvalidStep):
        compile_schedule(sample_drift, target, -1.0, steps=3)
    with pytest.raises(InvalidTerm):
        compile_schedule(
            build_expansion(3, [("XXI", 1.0)]), target, 1.0, steps=1
        )


def test_cnot_generator_flows_to_cnot():
    gen = cnot_generator()
    w = expm_hermitian(dense_of_expansion(gen), math.pi / 4.0)
    assert distance(CNOT_MATRIX, w) < 1e-12


def test_compile_cnot_order_two(sample_drift):
    sched = compile_cnot(sample_drift, epsilon=1e-3, order=2)
    assert sched.plan.steps == 16
    assert sched.raw_drift_periods == 112
    got = evaluate_schedule(sched, sample_drift)
    assert distance(CNOT_MATRIX, got) <= sched.predicted_error <= 1e-3


def test_compile_cnot_explicit_steps(sample_drift):
    sched = compile_cnot(sample_drift, steps=8, order=2)
    got = evaluate_schedule(sched, sample_drift)
    assert distance(CNOT_MATRIX, got) < 5e-3


def test_compile_cnot_self_check_catches_bad_plans(sample_drift, monkeypatch):
    import hamrc.synth as synth_mod

    real = synth_mod.plan_for_model

    def lying_plan(*args, **kwargs):
        plan = real(*args, **kwargs)
        object.__setattr__(plan, "predicted_error", plan.predicted_error * 1e-9)
        return plan

    monkeypatch.setattr(synth_mod, "plan_for_model", lying_plan)
    with pytest.raises(VerificationFailure):
        compile_cnot(sample_drift, epsilon=1e-3, order=2)


def test_negative_dominant_coupling_still_works():
    drift = build_expansion(2, [("XZ", -2.0), ("ZI", 1.0), ("ZZ", 1.0)])
    sched = compile_cnot(drift, epsilon=1e-2, order=2)
    got = evaluate_schedule(sched, drift)
    assert distance(CNOT_MATRIX, got) <= 1e-2


def test_emit_step_rejects_bad_arguments(sample_drift):
    model = step_model(sample_drift, build_expansion(2, [("XX", 1.0)]))
    with pytest.raises(InvalidStep):
        emit_step(model, 0.1, 3)
    with pytest.raises(InvalidStep):
        emit_step(model, 0.0, 1)


def _frame_pairs(instructions):
    """(layer before, layer after) around every drift of one emitted step."""
    return [
        (instructions[i - 1], instructions[i + 1])
        for i, ins in enumerate(instructions)
        if isinstance(ins, Drift)
    ]


def test_emit_step_shares_frame_layers_across_steps(sample_drift):
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    model = step_model(sample_drift, target)
    framed = [f for f in model.factors if isinstance(f, FramedDrift)]
    assert isinstance(model.factors[0], LocalFactor) and len(framed) > 1

    first, _ = emit_step(model, 0.1, 1)
    second, _ = emit_step(model, 0.037, 2)
    order1 = _frame_pairs(first)
    order2 = _frame_pairs(second)
    assert len(order1) == len(framed)
    assert len(order2) == 2 * len(framed) - 1
    # order 2 runs the framed drifts as a palindrome around the last one
    for (fwd, back), f in zip(order1, framed):
        assert fwd is f.frame_layer and back is f.frame_layer_dagger
    for (a, b), (c, d) in zip(order2, order1[:-1] + order1[::-1]):
        assert a is c and b is d

    # the shared layers are the ones a fresh per-call construction builds
    for (fwd, back), f in zip(order1, framed):
        fresh = LocalLayer({q: c.matrix for q, c in f.layer_map().items()})
        assert fwd.cache_key() == fresh.cache_key()
        assert back.cache_key() == fresh.dagger().cache_key()


def test_framed_drift_effective_is_the_scaled_conjugate_in_one_pass():
    # the models of the chain and all-to-all benchmarks, and random pairs:
    # each framed drift's matrix, built in one pass from the drift's masks,
    # is rate * C H C^dag with C the frame layer the step emits
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    models = [pair_step_model(xz_chain(n), (0, 1), target) for n in (4, 5, 6)]
    models += [pair_step_model(heisenberg(n), (1, 3), target) for n in (4, 5)]
    rng = np.random.default_rng(404)
    models += [step_model(random_coupled_pair(rng), random_coupled_pair(rng)) for _ in range(8)]
    for model in models:
        h = dense_of_expansion(model.drift)
        framed = [f for f in model.factors if isinstance(f, FramedDrift)]
        assert framed
        for f, mat in zip(framed, _factor_matrices(model, framed)):
            c = f.frame_layer.dense(model.n)
            want = f.rate * (c @ h @ c.conj().T)
            assert np.allclose(mat, want, atol=1e-12)
            assert np.allclose(dense_of_expansion(framed_expansion(model.drift, f)), want, atol=1e-12)
    with pytest.raises(InvalidTerm):
        list(_factor_matrices(models[0], [FramedDrift(-1.0, ())]))


def test_framed_drift_effective_expansion(sample_drift):
    model = step_model(sample_drift, build_expansion(2, [("XX", 1.0)]))
    drifts = [f for f in model.factors if isinstance(f, FramedDrift)]
    total = np.zeros((4, 4), dtype=complex)
    for f in drifts:
        total += dense_of_expansion(framed_expansion(sample_drift, f))
    # summed framed drifts realize the coupling plus the cancelled locals
    for f in model.factors:
        if isinstance(f, LocalFactor):
            total += dense_of_expansion(f.ham)
    want = dense_of_expansion(build_expansion(2, [("XX", 1.0)]))
    got = total + model.phase_rate * np.eye(4)
    assert np.abs(got - want).max() < 1e-14

"""Pair compiler: the one-pass step model, schedules, and the CNOT path.

The step-model tests check the two-qubit construction densely (its
framed drifts, local factor and phase rebuild the target) and against a
test-local copy of the recipe-layer construction it replaced, which must
give the same factors float for float.
"""

import math

import numpy as np
import pytest

from conftest import (
    framed_expansion,
    heisenberg,
    random_coupled_pair,
    random_two_body,
    xz_chain,
)
from hamrc import (
    AXIS_ROTATION,
    CLIFF_S,
    CNOT_MATRIX,
    PAULI_CLIFF,
    Drift,
    HamExpansion,
    HamrcError,
    Infeasible,
    InvalidStep,
    InvalidTerm,
    LocalLayer,
    NotCoupled,
    PauliString,
    VerificationFailure,
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
    max_coupling,
    pair_step_model,
    sign_flip_clifford,
)
from hamrc.bounds import MAX_PLAN_STEPS, _factor_matrices
from hamrc.synth import (
    CNOT_BODY,
    CNOT_TIME,
    FramedDrift,
    LocalFactor,
    StepModel,
    _proportional_rate,
    emit_step,
    step_model,
)


def _framed_dense(f, h):
    """``rate * U H U^dag`` of a framed drift, from its emitted frame layer."""
    u = f.frame_layer.dense(2)
    return f.rate * (u @ h @ u.conj().T)


def _dense_model_residual(model, target):
    """Largest entry of the sum of rate * U H U^dag over the framed drifts,
    plus the local factor and ``phase_rate`` times identity, minus the target."""
    h = dense_of_expansion(model.drift)
    acc = model.phase_rate * np.eye(4, dtype=complex)
    for f in model.factors:
        if isinstance(f, LocalFactor):
            acc += dense_of_expansion(f.ham)
        else:
            acc += _framed_dense(f, h)
    return np.abs(acc - dense_of_expansion(target)).max()


def test_max_term_recipe_on_sample_drift(sample_drift):
    # the dominant coupling itself: the four Pauli frames {I, X} (x) {I, Z}
    # with no outer rotation, each at rate 1/(4 |h_XZ|)
    target = build_expansion(2, [("XZ", 1.0)])
    model = step_model(sample_drift, target)
    frames = model.factors
    assert len(frames) == 4 and all(isinstance(f, FramedDrift) for f in frames)
    assert [f.rate for f in frames] == [1.0 / 8.0] * 4
    assert [tuple(c.images for _, c in f.frame) for f in frames] == [
        (PAULI_CLIFF[a].images, PAULI_CLIFF[b].images) for a in "IX" for b in "IZ"
    ]
    # the drift has no X(x)I or I(x)Z local terms, so nothing to correct
    assert model.phase_rate == 0.0
    assert _dense_model_residual(model, target) < 1e-15


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
    target = build_expansion(2, [("XZ", 1.0)])
    model = step_model(drift, target)
    local, *frames = model.factors
    assert len(frames) == 4 and all(f.rate == 1.0 / (4.0 * 0.3) for f in frames)
    assert local.ham.coefficient("XI") == -(0.1 / 0.3)
    assert local.ham.coefficient("IZ") == -(-0.7 / 0.3)
    assert model.phase_rate == -(0.2 / 0.3)
    assert _dense_model_residual(model, target) < 1e-15


@pytest.mark.parametrize("axis_a", "XYZ")
@pytest.mark.parametrize("axis_b", "XYZ")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pauli_product_recipes_cover_all_axes(sample_drift, axis_a, axis_b, sign):
    target = build_expansion(2, [(axis_a + axis_b, sign)])
    model = step_model(sample_drift, target)
    assert [f.rate for f in model.factors] == [1.0 / 8.0] * 4
    assert _dense_model_residual(model, target) < 1e-15


def test_pauli_product_recipes_on_random_drifts():
    rng = np.random.default_rng(11)
    target = build_expansion(2, [("YX", -1.0)])
    for _ in range(25):
        drift = random_coupled_pair(rng)
        assert _dense_model_residual(step_model(drift, target), target) < 1e-13


def test_synthesis_requires_a_coupling():
    with pytest.raises(NotCoupled):
        step_model(
            build_expansion(2, [("XI", 1.0), ("IZ", 0.5)]),
            build_expansion(2, [("XZ", 1.0)]),
        )


def test_decompose_target_orders_and_reassembles(sample_drift):
    # the model splits the target into couplings by decreasing |coeff|
    # (ties to the smaller axis pair), locals and identity; the sample
    # drift leaves no correction, so the parts reassemble the target
    target = build_expansion(
        2, [("XY", -2.0), ("ZZ", 2.0), ("YI", 0.3), ("IX", -0.1), ("II", 0.7)]
    )
    model = step_model(sample_drift, target)
    local, *frames = model.factors
    assert local.ham == build_expansion(2, [("YI", 0.3), ("IX", -0.1)])
    assert model.phase_rate == 0.7
    h = dense_of_expansion(sample_drift)
    for group, term, coeff in ((frames[:4], "XY", -2.0), (frames[4:], "ZZ", 2.0)):
        acc = sum(_framed_dense(f, h) for f in group)
        assert np.abs(acc - coeff * dense_of_pauli(PauliString(term))).max() < 1e-14
    assert _dense_model_residual(model, target) < 1e-14


def _reference_step_model(drift, target):
    """The recipe-layer construction that the one-pass ``step_model``
    replaced: the dominant-coupling recipe, checked, then wrapped in the
    outer Cliffords and checked again, once per target coupling."""

    def check(frames, div, correction, phase, unit):
        total = {}
        for frame in frames:
            for p, c in conjugate_by_cliffords(drift, dict(frame)).items():
                total[p] = total.get(p, 0.0) + c
        rebuilt = {p: c / div for p, c in total.items()}
        for p, c in correction.items():
            rebuilt[p] = rebuilt.get(p, 0.0) + c
        ident = PauliString("II")
        rebuilt[ident] = rebuilt.get(ident, 0.0) + phase
        if HamExpansion(2, rebuilt) != unit:
            raise HamrcError("recipe reassembly does not reproduce the target exactly")

    def max_term():
        r, s, h_rs = max_coupling(drift, (0, 1))
        div = 4.0 * abs(h_rs)
        frames = [((0, PAULI_CLIFF[a]), (1, PAULI_CLIFF[b])) for a in ("I", r) for b in ("I", s)]
        correction = HamExpansion(2, {
            PauliString(r + "I"): -(drift.coefficient(r + "I") / abs(h_rs)),
            PauliString("I" + s): -(drift.coefficient("I" + s) / abs(h_rs)),
        })
        phase = -(drift.coefficient("II") / abs(h_rs))
        unit = HamExpansion(2, {PauliString(r + s): h_rs / abs(h_rs)})
        check(frames, div, correction, phase, unit)
        return r, s, unit.coefficient(r + s), frames, correction, phase, div

    def pauli_product(a, b, sign):
        r, s, base_sign, frames, correction, phase, div = max_term()
        outer = [AXIS_ROTATION[(r, a)], AXIS_ROTATION[(s, b)]]
        if (sign < 0) != (base_sign < 0):
            outer[0] = sign_flip_clifford(a).compose(outer[0])
        frames = [tuple((q, outer[q].compose(c)) for q, c in f) for f in frames]
        correction = conjugate_by_cliffords(correction, dict(enumerate(outer)))
        unit = HamExpansion(2, {PauliString(a + b): 1.0 if sign > 0 else -1.0})
        check(frames, div, correction, phase, unit)
        return frames, correction, phase, div

    if drift.n != 2 or target.n != 2:
        raise InvalidTerm("pair compilation expects two-qubit expansions")
    lam = _proportional_rate(target, drift)
    if lam is not None:
        return StepModel(2, drift, (FramedDrift(lam, ()),), 0.0)
    couplings, local_acc, phase_rate = [], {}, 0.0
    for p, c in target.items():
        if p.weight() == 2:
            couplings.append((c, p.ops[0], p.ops[1]))
        elif p.weight() == 1:
            local_acc[p] = local_acc.get(p, 0.0) + c
        else:
            phase_rate = c
    couplings.sort(key=lambda t: (-abs(t[0]), t[1], t[2]))
    drifts = []
    for coeff, a, b in couplings:
        frames, correction, phase, div = pauli_product(a, b, math.copysign(1.0, coeff))
        mag = abs(coeff)
        drifts += [FramedDrift(mag / div, f) for f in frames]
        for p, c in correction.items():
            local_acc[p] = local_acc.get(p, 0.0) + mag * c
        phase_rate += mag * phase
    local = HamExpansion(2, local_acc)
    factors = ((LocalFactor(local),) if len(local) else ()) + tuple(drifts)
    return StepModel(2, drift, factors, phase_rate)


def _model_key(build, drift, target):
    """Everything a step model holds, exactly, or the error building it raised."""
    try:
        model = build(drift, target)
    except HamrcError as exc:
        return type(exc), str(exc)
    factors = []
    for f in model.factors:
        if isinstance(f, LocalFactor):
            factors.append(("local", f.ham))
        else:
            frame = tuple((q, c.images, c.matrix.tobytes()) for q, c in f.frame)
            factors.append(("drift", f.rate, frame))
    return model.n, model.drift, tuple(factors), model.phase_rate


def _reference_cases():
    rng = np.random.default_rng(2024)
    sample = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])
    # every local parallel to the coupling axes, a negative dominant coupling
    # and an identity: each correction must be carried through the rotations
    cluttered = build_expansion(
        2, [("YX", -0.6), ("YI", 0.4), ("IX", -0.25), ("II", 0.3), ("ZZ", 0.1)]
    )
    uncoupled = build_expansion(2, [("XI", 1.0), ("IZ", 0.5)])
    cases = []
    for drift in (sample, cluttered):
        for a in "XYZ":
            for b in "XYZ":
                for sign in (1.0, -1.0):
                    cases.append((drift, build_expansion(2, [(a + b, sign)])))
        # all nine couplings at one magnitude: order is by axis pair alone
        ties = [(a + b, (-1.0) ** i) for i, (a, b) in enumerate(
            (a, b) for a in "XYZ" for b in "XYZ")]
        cases.append((drift, build_expansion(2, ties + [("ZI", 0.2), ("II", -0.4)])))
    cases.append((sample, build_expansion(2, [("ZI", 0.5), ("XZ", 1.0), ("ZZ", 0.5)])))
    cases.append((uncoupled, build_expansion(2, [("YI", 0.3), ("IX", -0.2), ("II", 1.0)])))
    cases.append((uncoupled, build_expansion(2, [("ZY", 1.0)])))
    for _ in range(60):
        drift = random_two_body(2, rng, coupling_density=0.7, local_density=0.7)
        target = random_two_body(2, rng, coupling_density=0.9, local_density=0.7)
        cases.append((drift, target))
        cases.append((random_coupled_pair(rng), target))
    return cases


def test_step_model_matches_the_recipe_reference():
    cases = _reference_cases()
    outcomes = set()
    for drift, target in cases:
        got = _model_key(step_model, drift, target)
        assert got == _model_key(_reference_step_model, drift, target), (drift, target)
        outcomes.add(got[0] if isinstance(got[0], type) else "model")
    assert outcomes == {"model", NotCoupled}


def test_reassembly_check_catches_a_wrong_rotation(sample_drift, monkeypatch):
    # X -> Y instead of X -> Z: the frames rebuild Y(x)Z, not the target
    monkeypatch.setitem(AXIS_ROTATION, ("X", "Z"), CLIFF_S)
    with pytest.raises(HamrcError, match="reassembly"):
        step_model(sample_drift, build_expansion(2, [("ZZ", 1.0)]))


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


def test_explicit_step_counts_get_the_planners_cap(sample_drift):
    # a planned count above the cap is infeasible, and so is an explicit one
    target = build_expansion(2, [("XX", 1.0)])
    assert len(compile_schedule(sample_drift, target, 1.0, steps=MAX_PLAN_STEPS)) > MAX_PLAN_STEPS
    with pytest.raises(Infeasible, match="more than"):
        compile_schedule(sample_drift, target, 1.0, steps=MAX_PLAN_STEPS + 1)
    with pytest.raises(Infeasible, match="more than"):
        compile_cnot(sample_drift, steps=MAX_PLAN_STEPS + 1)


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


@pytest.mark.parametrize("count", [{"epsilon": 1e-3}, {"steps": 8}])
def test_compile_cnot_canonicalizes_once(sample_drift, monkeypatch, count):
    import hamrc.synth as synth_mod

    real = synth_mod.canonicalize
    calls = []

    def counting(sched):
        calls.append(len(sched.instructions))
        return real(sched)

    monkeypatch.setattr(synth_mod, "canonicalize", counting)
    sched = compile_cnot(sample_drift, order=2, **count)
    assert len(calls) == 1
    assert distance(CNOT_MATRIX, evaluate_schedule(sched, sample_drift)) < 5e-3


def test_canonical_work_does_not_grow_with_the_step_count(sample_drift, monkeypatch):
    import hamrc.schedule as schedule_mod

    real = schedule_mod._merge_layers
    merges = []

    def counting(a, b):
        merges.append(1)
        return real(a, b)

    monkeypatch.setattr(schedule_mod, "_merge_layers", counting)
    per_count = {}
    for steps in (50, 5000):
        merges.clear()
        sched = compile_cnot(sample_drift, steps=steps, order=1)
        per_count[steps] = len(merges)
        assert max(count for _, count in sched.blocks) == steps - 2
    assert per_count[50] == per_count[5000] > 0


def test_cnot_plan_kind_at_the_other_order_is_refused(sample_drift):
    # an order-2 plan (5 steps, predicted 9.69e-3) under an order-1 body
    # would miss the target by 5.56e-2
    with pytest.raises(InvalidTerm):
        compile_schedule(
            sample_drift, CNOT_BODY, CNOT_TIME,
            epsilon=1e-2, order=1, bound="second_order_cnot",
        )
    with pytest.raises(InvalidTerm):
        compile_schedule(
            sample_drift, CNOT_BODY, CNOT_TIME,
            epsilon=1e-2, order=2, bound="first_order_cnot",
        )


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

"""Pair compiler: the one-pass step model, schedules, and the CNOT path.

The step-model tests check the two-qubit construction densely (its
framed drifts, local factor and phase rebuild the target) and against a
test-local copy of the recipe-layer construction it replaced, which must
give the same factors float for float.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cnot_generator,
    conjugate_by_cliffords,
    dense_of_pauli,
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
    TooLarge,
    VerificationFailure,
    build_expansion,
    compile_cnot,
    compile_on_pair,
    compile_schedule,
    dense_of_expansion,
    distance,
    embed,
    evaluate_schedule,
    expm_hermitian,
    isolate_principal,
    max_coupling,
    pair_step_model,
    sign_flip_clifford,
)
from hamrc.bounds import MAX_PLAN_STEPS, ROUNDING, _coefficient_table
from hamrc.cliffords import framed_images
from hamrc.dense import _dense_of_masks, evolution
from hamrc.hamio import serialize_schedule
from hamrc.schedule import Schedule, canonicalize
from hamrc.synth import (
    CNOT_BODY,
    CNOT_TIME,
    FramedDrift,
    LocalFactor,
    StepModel,
    _proportional_rate,
    _reassembly,
    compile_model,
    emit_step,
    merge_framed_drifts,
    step_model,
)


def _frame_matrix(f, n):
    """A framed drift's frame on ``n`` qubits from its Cliffords' own
    matrices: their ``np.kron`` product, site 0 leftmost, with the identity
    on the other sites."""
    on = dict(f.frame)
    u = np.eye(1, dtype=complex)
    for q in range(n):
        u = np.kron(u, on[q].matrix if q in on else np.eye(2))
    return u


def _framed_dense(f, h):
    """``rate * U H U^dag`` of a framed drift on two qubits."""
    u = _frame_matrix(f, 2)
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


def test_reassembly_check_catches_a_flipped_image_sign(sample_drift, monkeypatch):
    # the check reads the model's own image table: one wrong sign in it,
    # the dominant coupling's image under the last frame, must be caught
    def flipped(drift, frames):
        x, z, ny, sign = framed_images(drift, frames)
        sign = sign.copy()
        sign[-1, 0] *= -1
        return x, z, ny, sign

    monkeypatch.setattr("hamrc.synth.framed_images", flipped)
    with pytest.raises(HamrcError, match="reassembly"):
        step_model(sample_drift, build_expansion(2, [("ZZ", 1.0)]))


def test_step_model_shapes(sample_drift):
    target = build_expansion(2, [("XX", 0.5), ("ZY", -0.25), ("ZI", 1.0)])
    model = step_model(sample_drift, target)
    assert isinstance(model.factors[0], LocalFactor)
    assert model.raw_drifts_per_step(1) == 8  # two couplings, four frames each
    assert model.raw_drifts_per_step(2) == 15  # palindrome reuses the last


def test_full_coupling_target_needs_at_most_36_periods(sample_drift):
    entries = [(a + b, 0.1 * (i + 1)) for i, (a, b) in enumerate(
        (a, b) for a in "XYZ" for b in "XYZ")]
    target = build_expansion(2, entries)
    model = step_model(sample_drift, target)
    assert model.raw_drifts_per_step(1) == 36
    sched = compile_schedule(sample_drift, target, 0.05, steps=1, order=1)
    assert sched.raw_drift_periods <= 36
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
    assert sched.raw_drift_periods == 48
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
    with pytest.raises(VerificationFailure, match="on the goal exceeds plan"):
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

    real = schedule_mod._merge_seams
    merges = []

    def counting(seams, n):
        # every seam the one merge kernel merges, batch by batch
        merges.append(len(seams))
        return real(seams, n)

    monkeypatch.setattr(schedule_mod, "_merge_seams", counting)
    per_count = {}
    for steps in (50, 5000):
        merges.clear()
        sched = compile_cnot(sample_drift, steps=steps, order=1)
        per_count[steps] = sum(merges)
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


def _frame_models():
    """A two-qubit model, a pair model on a 4-site drift and the merged
    model a compile runs for it, each a local factor and framed drifts."""
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    drift = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])  # sample_drift
    return [
        step_model(drift, target),
        pair_step_model(heisenberg(4), (1, 3), target),
        compile_model(heisenberg(4), target, (1, 3)),
    ]


def test_framed_drifts_are_plain_data():
    # a framed drift is its rate and frame, nothing more: the one builder of
    # its layers is the model that runs it (``StepModel.frame_layers``)
    assert [f.name for f in dataclasses.fields(FramedDrift)] == ["rate", "frame"]
    assert [name for name in vars(FramedDrift) if not name.startswith("__")] == []


def test_emit_step_shares_frame_layers_across_steps():
    for model in _frame_models():
        framed = [k for k, f in enumerate(model.factors) if isinstance(f, FramedDrift)]
        assert isinstance(model.factors[0], LocalFactor) and len(framed) > 1
        assert isinstance(model.factors[-1], FramedDrift)
        first, _ = emit_step(model, 0.1, 1)
        second, _ = emit_step(model, 0.037, 2)
        third, _ = emit_step(model, 0.2, 2)
        layers = model.frame_layers
        assert [k for k, fb in enumerate(layers) if fb is not None] == framed
        # order 2 runs the framed drifts as a palindrome around the last one
        order2 = framed + framed[-2::-1]
        for got, runs in ((first, framed), (second, order2), (third, order2)):
            at = [i for i, ins in enumerate(got) if isinstance(ins, Drift)]
            assert len(at) == len(runs)
            # each framed drift between the model's own frame layer and its
            # inverse: the same objects in every step
            for i, k in zip(at, runs):
                assert got[i - 1] is layers[k][0] and got[i + 1] is layers[k][1]
        # the shared layers are the ones a fresh construction builds, and
        # the frame the Cliffords' own matrices give
        for k in framed:
            f, (fwd, back) = model.factors[k], layers[k]
            fresh = LocalLayer({q: c.matrix for q, c in f.frame})
            assert fwd.cache_key() == fresh.cache_key()
            assert back.cache_key() == fresh.dagger().cache_key()
            u = _frame_matrix(f, model.n)
            assert np.allclose(fwd.dense(model.n), u, atol=1e-15)
            assert np.allclose(back.dense(model.n), u.conj().T, atol=1e-15)


def test_emit_step_builds_a_models_frame_layers_in_one_batch(monkeypatch):
    batches, dagger_batches = [], []
    real, real_daggers = LocalLayer.from_stacks.__func__, LocalLayer.daggers.__func__

    def record(cls, specs):
        specs = list(specs)
        batches.append(specs)
        return real(cls, specs)

    def record_daggers(cls, layers):
        dagger_batches.append(list(layers))
        return real_daggers(cls, layers)

    monkeypatch.setattr(LocalLayer, "from_stacks", classmethod(record))
    monkeypatch.setattr(LocalLayer, "daggers", classmethod(record_daggers))
    for model in _frame_models():
        framed = [f for f in model.factors if isinstance(f, FramedDrift)]
        batches.clear()
        dagger_batches.clear()
        emit_step(model, 0.1, 2)
        emit_step(model, 0.05, 1)
        # every framed drift in one batch, in factor order, and its daggers
        # in another; then each emission's local factor, a batch of one
        assert [len(b) for b in batches] == [len(framed), 1, 1]
        for (sites, stack), f in zip(batches[0], framed):
            assert list(sites) == [q for q, _ in f.frame]
            assert all(m is c.matrix for m, (_, c) in zip(stack, f.frame))
        built = [fb[0] for fb in model.frame_layers if fb is not None]
        assert len(dagger_batches) == 1
        assert all(a is b for a, b in zip(dagger_batches[0], built))


def test_an_order_two_step_builds_its_local_layer_once(sample_drift, monkeypatch):
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    model = step_model(sample_drift, target)
    local = model.factors[0]
    assert isinstance(local, LocalFactor)
    calls, real = [], LocalFactor.layer
    monkeypatch.setattr(LocalFactor, "layer", lambda self, d: calls.append(d) or real(self, d))
    out, _ = emit_step(model, 0.2, 2)
    # the head and the mirrored head emit one object
    assert calls == [0.1] and out[0] is out[-1]
    assert out[0].cache_key() == local.layer(0.1).cache_key()


def test_framed_drift_effective_is_the_scaled_conjugate_in_one_pass():
    # the models of the chain and all-to-all benchmarks, and random pairs:
    # each framed drift's row of the coefficient table, scattered in one
    # pass from the drift's masks and built densely, is rate * C H C^dag
    # with C the kron of the frame's own Clifford matrices
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    models = [pair_step_model(xz_chain(n), (0, 1), target) for n in (4, 5, 6)]
    models += [pair_step_model(heisenberg(n), (1, 3), target) for n in (4, 5)]
    rng = np.random.default_rng(404)
    models += [step_model(random_coupled_pair(rng), random_coupled_pair(rng)) for _ in range(8)]
    for model in models:
        h = dense_of_expansion(model.drift)
        x, z, ny, table = _coefficient_table(model)
        framed = [(f, row) for f, row in zip(model.factors, table) if isinstance(f, FramedDrift)]
        assert framed
        for f, row in framed:
            (mat,) = _dense_of_masks(model.n, x, z, ny, row[None])
            c = _frame_matrix(f, model.n)
            want = f.rate * (c @ h @ c.conj().T)
            assert np.allclose(mat, want, atol=1e-12)
            assert np.allclose(dense_of_expansion(framed_expansion(model.drift, f)), want, atol=1e-12)
    with pytest.raises(InvalidTerm):
        _coefficient_table(StepModel(models[0].n, models[0].drift, (FramedDrift(-1.0, ()),), 0.0))


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


# ----------------------------------------------------------------------
# framed drifts that are one operator run as one factor

_COUPLINGS = [a + b for a in "XYZ" for b in "XYZ"]
_LOCALS = [a + "I" for a in "XYZ"] + ["I" + b for b in "XYZ"]


def _signed(lo, hi):
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(lo, hi)).map(lambda sm: sm[0] * sm[1])


@st.composite
def _pair_expansions(draw, couplings=(1, 4), locals_=(0, 3)):
    """A sparse two-qubit expansion: strong couplings and weaker fields.
    Hypothesis draws equal coefficients too, which is the case the image
    key keeps apart (``test_the_image_key_keeps_apart_frames_that_permute_equal_terms``)."""
    terms = draw(st.lists(st.sampled_from(_COUPLINGS), min_size=couplings[0],
                          max_size=couplings[1], unique=True))
    fields = draw(st.lists(st.sampled_from(_LOCALS), min_size=locals_[0],
                           max_size=locals_[1], unique=True))
    return build_expansion(2, [(p, draw(_signed(0.5, 2.0))) for p in terms]
                           + [(p, draw(_signed(0.1, 1.0))) for p in fields])


def _reference_reassembly(model):
    """``(norm, phase, corrections, rebuilt)`` of a coupled model: the check's
    inputs, and each coupling's rebuilt target from the Python loop, the
    drift conjugated by each of its four frames one term at a time, summed
    frame by frame, nonzero coefficients only."""
    drift = model.drift
    r, s, h_rs = max_coupling(drift, (0, 1))
    norm = abs(h_rs)
    correction = HamExpansion(2, {
        PauliString(r + "I"): -(drift.coefficient(r + "I") / norm),
        PauliString("I" + s): -(drift.coefficient("I" + s) / norm),
    })
    phase = -(drift.coefficient("II") / norm)
    frames = [f.frame for f in model.factors if isinstance(f, FramedDrift)]
    corrections, rebuilt = [], []
    for k in range(0, len(frames), 4):
        total = {}
        for frame in frames[k : k + 4]:
            for p, c in conjugate_by_cliffords(drift, dict(frame)).items():
                total[p] = total.get(p, 0.0) + c / norm
        got = {p: c / 4 for p, c in total.items()}
        # the first frame is the coupling's outer rotation times the identity
        conj = dict(conjugate_by_cliffords(correction, dict(frames[k])).items())
        for p, c in conj.items():
            got[p] = got.get(p, 0.0) + c
        got[PauliString("II")] = got.get(PauliString("II"), 0.0) + phase
        corrections.append(conj)
        rebuilt.append({p: c for p, c in got.items() if c})
    return norm, phase, corrections, rebuilt


@settings(max_examples=150)
@given(
    drift=_pair_expansions(locals_=(0, 6)),
    coupled=_pair_expansions(couplings=(1, 4), locals_=(0, 3)),
    locals_only=_pair_expansions(couplings=(0, 0), locals_=(1, 4)),
    kind=st.sampled_from(["coupled", "locals", "proportional"]),
    negative=st.booleans(),
    identity=st.sampled_from([0.0, 0.3, -1.7]),
    scale=st.sampled_from([0.25, 0.5, 2.0, 4.0]),
)
def test_reassembly_sums_equal_the_python_reference_bitwise(
    drift, coupled, locals_only, kind, negative, identity, scale
):
    # the sums the check reads from the image table are the Python loop's,
    # float for float, with the dominant coupling of either sign; a
    # locals-only or proportional target has nothing to reassemble
    flip = -1.0 if (max_coupling(drift, (0, 1))[2] < 0) != negative else 1.0
    drift = build_expansion(2, [(p, flip * c) for p, c in drift.items()] + [("II", identity)])
    target = {
        "coupled": coupled,
        "locals": locals_only,
        "proportional": build_expansion(2, [(p, scale * c) for p, c in drift.items()]),
    }[kind]
    model = step_model(drift, target)
    assert _model_key(step_model, drift, target) == _model_key(_reference_step_model, drift, target)
    framed = [f for f in model.factors if isinstance(f, FramedDrift)]
    lam = _proportional_rate(target, drift)
    if kind == "proportional":
        assert lam == scale
    if lam is not None:
        assert framed == [FramedDrift(lam, ())]
    elif kind == "locals":
        assert framed == []
    else:
        norm, phase, corrections, want = _reference_reassembly(model)
        assert len(want) == len([p for p in target.terms if p.weight() == 2])
        assert _reassembly(model, norm, phase, corrections) == want


def _term_images(drift, f):
    """Each drift term's signed image under a framed drift's frame, term by term."""
    layer = dict(f.frame)
    return tuple(
        tuple(conjugate_by_cliffords(build_expansion(drift.n, [(p.ops, 1.0)]), layer).items())
        for p in drift.terms
    )


def _factor_sum(model):
    """The sum of a model's factors as Pauli coefficients, each string's
    contributions added exactly (``math.fsum``), exact zeros dropped."""
    parts = {}
    for f in model.factors:
        if isinstance(f, FramedDrift):
            ham = conjugate_by_cliffords(model.drift, dict(f.frame))
            items = [(p, f.rate * c) for p, c in ham.items()]
        else:
            items = f.ham.items()
        for p, c in items:
            parts.setdefault(p, []).append(c)
    return {p: s for p, cs in parts.items() if (s := math.fsum(cs)) != 0.0}


def _check_merge(model):
    """``merge_framed_drifts`` against an independent grouping: term-by-term
    images from ``conjugate_by_cliffords``."""
    merged = merge_framed_drifts(model)
    groups = {}  # term images -> positions of the framed drifts
    for i, f in enumerate(model.factors):
        if isinstance(f, FramedDrift):
            groups.setdefault(_term_images(model.drift, f), []).append(i)
    lead = {rows[0]: rows for rows in groups.values()}
    want = []
    for i, f in enumerate(model.factors):
        if not isinstance(f, FramedDrift):
            want.append(f)
        elif i in lead:
            want.append((math.fsum(model.factors[r].rate for r in lead[i]), f.frame))
    got = [(f.rate, f.frame) if isinstance(f, FramedDrift) else f for f in merged.factors]
    assert got == want
    assert (merged.drift, merged.phase_rate, merged.n) == (model.drift, model.phase_rate, model.n)
    if len(groups) == model.raw_drifts_per_step(1):
        assert merged is model
    # the merged factor sum is the unmerged one, exactly, as expansions
    assert _factor_sum(merged) == _factor_sum(model)
    assert HamExpansion(model.n, _factor_sum(merged)) == HamExpansion(model.n, _factor_sum(model))
    # a group merges exactly when its conjugated expansions are equal, but
    # for frames that permute drift terms of equal coefficient
    by_expansion = {}
    for rows in groups.values():
        for r in rows:
            by_expansion.setdefault(
                conjugate_by_cliffords(model.drift, dict(model.factors[r].frame)), set()
            ).add(rows[0])
    for leads in by_expansion.values():
        if len(leads) > 1:
            magnitudes = [abs(c) for c in model.drift.terms.values()]
            assert len(set(magnitudes)) < len(magnitudes), "the image key missed a merge"
    return merged


@settings(max_examples=150)
@given(drift=_pair_expansions(), target=_pair_expansions(couplings=(1, 3), locals_=(0, 2)))
def test_merged_two_qubit_models_keep_their_factor_sum(drift, target):
    _check_merge(step_model(drift, target))


@settings(max_examples=25)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    target=_pair_expansions(couplings=(1, 2), locals_=(0, 1)),
)
def test_merged_pair_models_keep_their_factor_sum(n, seed, target):
    rng = np.random.default_rng(seed)
    drift = random_two_body(n, rng, coupling_density=0.6, local_density=0.3, connected=True)
    coupled = sorted(p for p in drift.terms if p.weight() == 2)
    pair = coupled[int(rng.integers(len(coupled)))].support()
    _check_merge(pair_step_model(drift, pair, target))


@pytest.mark.parametrize("axes", ["XY XZ", "YY YZ", "ZY ZZ"])
def test_forty_site_pair_models_merge_only_equal_images(axes):
    # from 32 sites up, term masks packed into one integer would wrap, and
    # 16 of these 32 distinct framed drifts would merge with others
    target = build_expansion(2, list(zip(axes.split(), (0.7, 0.3))))
    model = pair_step_model(xz_chain(40), (0, 1), target)
    assert model.raw_drifts_per_step(1) == 32
    _check_merge(model)
    assert merge_framed_drifts(model) is model


def test_a_register_past_63_sites_is_refused_before_its_masks_wrap():
    # a mask is one int64: at 70 sites its top bits wrapped, and half of
    # these 32 distinct framed drifts merged
    target = build_expansion(2, [("XY", 0.7), ("XZ", 0.3)])
    assert compile_model(xz_chain(63), target, (0, 1)).raw_drifts_per_step(1) == 32
    for refused in (
        lambda drift: compile_model(drift, target, (0, 1)),
        lambda drift: isolate_principal(drift, (0, 1)),
        lambda drift: pair_step_model(drift, (0, 1), target),
    ):
        with pytest.raises(TooLarge, match="70 qubits exceeds the 63 sites a Pauli mask holds"):
            refused(xz_chain(70))


@settings(max_examples=30)
@given(
    drift=_pair_expansions(),
    target=_pair_expansions(couplings=(1, 2), locals_=(0, 2)),
    order=st.sampled_from([1, 2]),
)
def test_merged_compiles_verify_within_their_chained_prediction(drift, target, order):
    sched = compile_schedule(drift, target, 0.5, epsilon=1e-2, order=order)
    goal = expm_hermitian(dense_of_expansion(target), 0.5)
    err = distance(goal, evaluate_schedule(sched, drift))
    assert err <= sched.predicted_error + ROUNDING
    merged = compile_model(drift, target)
    assert sched.raw_drift_periods == merged.raw_drifts_per_step(order) * sched.plan.steps


@st.composite
def _register_drifts(draw):
    """A connected two-body drift on 3 to 5 qubits: a strong coupling on
    each chain edge, a few weaker ones anywhere, and some fields."""
    n = draw(st.integers(3, 5))
    entries = []

    def term(sites, axes, lo, hi):
        ops = ["I"] * n
        for q, a in zip(sites, axes):
            ops[q] = a
        entries.append(("".join(ops), draw(_signed(lo, hi))))

    for q in range(n - 1):
        term((q, q + 1), draw(st.sampled_from(_COUPLINGS)), 0.5, 1.5)
    for _ in range(draw(st.integers(0, 3))):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        term((i, j), draw(st.sampled_from(_COUPLINGS)), 0.1, 0.5)
    for q in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        term((q,), draw(st.sampled_from("XYZ")), 0.1, 0.5)
    return build_expansion(n, entries)


@settings(max_examples=15)
@given(
    drift=_register_drifts(),
    edge=st.integers(0, 3),
    target=_pair_expansions(couplings=(1, 2), locals_=(0, 1)),
    order=st.sampled_from([1, 2]),
)
def test_merged_pair_compiles_verify_within_their_chained_prediction(drift, edge, target, order):
    pair = (edge % (drift.n - 1), edge % (drift.n - 1) + 1)
    sched = compile_on_pair(drift, pair, target, 0.5, epsilon=1e-2, order=order)
    goal = expm_hermitian(dense_of_expansion(embed(target, drift.n, pair)), 0.5)
    assert distance(goal, evaluate_schedule(sched, drift)) <= sched.predicted_error + ROUNDING
    merged = compile_model(drift, target, pair)
    assert sched.raw_drift_periods == merged.raw_drifts_per_step(order) * sched.plan.steps


def _raw_step(model, delta, order):
    """The step by its definition: each factor in turn, a framed drift
    between its layer and that layer's inverse."""
    frames = model.frame_layers

    def run(k, duration):
        factor = model.factors[k]
        if isinstance(factor, LocalFactor):
            return [factor.layer(duration)]
        drift = Drift(factor.rate * duration)
        return [frames[k][0], drift, frames[k][1]] if frames[k] else [drift]

    last = len(model.factors) - 1
    if order == 1 or last < 1:
        out = [ins for k in range(last + 1) for ins in run(k, delta)]
    else:
        head = [ins for k in range(last) for ins in run(k, delta / 2.0)]
        out = head + run(last, delta) + [ins for k in reversed(range(last)) for ins in run(k, delta / 2.0)]
    return out, -model.phase_rate * delta


def _check_merged_step(model, delta, order, steps):
    """``emit_step`` writes the raw step, and the step repeated ``steps``
    times canonicalizes byte for byte as the raw one does."""
    step, phase = emit_step(model, delta, order)
    raw, raw_phase = _raw_step(model, delta, order)
    assert phase == raw_phase and step == raw
    text = [
        serialize_schedule(canonicalize(Schedule(model.n, ((body, steps),), phase * steps)))
        for body in (step, raw)
    ]
    assert text[0] == text[1]
    return step


@settings(max_examples=40)
@given(
    drift=_pair_expansions(),
    target=_pair_expansions(couplings=(1, 3), locals_=(0, 2)),
    merge=st.booleans(),
    order=st.sampled_from([1, 2]),
    delta=st.floats(1e-3, 2.0),
    steps=st.integers(1, 6),
)
def test_merged_two_qubit_steps_canonicalize_as_the_raw_ones(drift, target, merge, order, delta, steps):
    model = step_model(drift, target)
    _check_merged_step(merge_framed_drifts(model) if merge else model, delta, order, steps)


@settings(max_examples=15)
@given(
    drift=_register_drifts(),
    edge=st.integers(0, 3),
    target=_pair_expansions(couplings=(1, 2), locals_=(0, 1)),
    merge=st.booleans(),
    order=st.sampled_from([1, 2]),
    delta=st.floats(1e-3, 2.0),
    steps=st.integers(1, 4),
)
def test_merged_pair_steps_canonicalize_as_the_raw_ones(drift, edge, target, merge, order, delta, steps):
    pair = (edge % (drift.n - 1), edge % (drift.n - 1) + 1)
    model = pair_step_model(drift, pair, target)
    _check_merged_step(merge_framed_drifts(model) if merge else model, delta, order, steps)


def test_a_seam_that_cancels_is_written_as_nothing(sample_drift):
    # two framed drifts on one frame meet at L^dag L, the identity:
    # canonicalize drops it, so their drifts fuse, and so do the copies'
    frame = ((0, CLIFF_S), (1, PAULI_CLIFF["X"]))
    model = StepModel(2, sample_drift, (FramedDrift(0.5, frame), FramedDrift(0.25, frame)), 0.0)
    fwd, back = model.frame_layers[0]
    for order, drifts in ((1, [0.05, 0.025]), (2, [0.025, 0.025, 0.025])):
        step = _check_merged_step(model, 0.1, order, 3)
        assert step == [ins for tau in drifts for ins in (fwd, Drift(tau), back)]
        canon = canonicalize(Schedule(2, ((step, 3),), 0.0))
        assert canon.instructions == (fwd, Drift(sum(drifts * 3)), back)


def test_a_zero_duration_drift_is_canonicalized_away(sample_drift):
    # canonicalize drops a zero drift and merges its frame layers into the
    # seams beside it: the schedule is the one of the model without it
    model = merge_framed_drifts(step_model(sample_drift, build_expansion(2, [("XX", 0.7), ("ZZ", 0.2)])))
    framed = [k for k, f in enumerate(model.factors) if isinstance(f, FramedDrift)]
    assert len(framed) >= 4
    zero = framed[1]
    factors = list(model.factors)
    gone = dataclasses.replace(model, factors=tuple(factors[:zero] + factors[zero + 1:]))
    factors[zero] = FramedDrift(0.0, factors[zero].frame)
    model = dataclasses.replace(model, factors=tuple(factors))
    for order in (1, 2):
        step = _check_merged_step(model, 0.1, order, 4)
        assert Drift(0.0) in step
        canon, without = (
            canonicalize(Schedule(2, ((emit_step(m, 0.1, order)[0], 4),), 0.0)) for m in (model, gone)
        )
        assert Drift(0.0) not in canon.instructions
        assert [(len(body), count) for body, count in canon.blocks] == [
            (len(body), count) for body, count in without.blocks
        ]
        assert canon == without


def test_a_model_with_nothing_to_merge_comes_back_unchanged():
    # dense random drifts: no two frames agree on every term
    rng = np.random.default_rng(7)
    drift = build_expansion(2, [(p, float(rng.normal())) for p in _COUPLINGS + _LOCALS])
    model = step_model(drift, build_expansion(2, [("XY", 0.4), ("ZZ", -0.3)]))
    assert merge_framed_drifts(model) is model
    heis = pair_step_model(heisenberg(5), (1, 3), build_expansion(2, [("XX", 0.7)]))
    assert merge_framed_drifts(heis) is heis
    bare = step_model(drift, build_expansion(2, [(p, 2.0 * c) for p, c in drift.items()]))
    assert merge_framed_drifts(bare) is bare


def test_merging_keeps_the_first_frame_at_the_summed_rate(sample_drift):
    # on ZI + XZ + ZZ a coupling's frames are {I, X} (x) {I, Z} inside its
    # rotation, and Z on qubit 1 commutes with every drift term: the frames
    # that differ only there agree on every term
    target = build_expansion(2, [("XX", 0.5), ("ZY", -0.25), ("ZI", 1.0)])
    model = step_model(sample_drift, target)
    merged = merge_framed_drifts(model)
    assert merged.raw_drifts_per_step(1) == 4
    assert merged.factors[0] is model.factors[0]
    framed = [f for f in model.factors if isinstance(f, FramedDrift)]
    kept = [f for f in merged.factors if isinstance(f, FramedDrift)]
    assert all(f.frame is framed[i].frame for f, i in zip(kept, (0, 2, 4, 6)))
    assert [f.rate for f in kept] == [2 * framed[i].rate for i in (0, 2, 4, 6)]
    assert (merged.raw_drifts_per_step(1), merged.raw_drifts_per_step(2)) == (4, 7)
    assert merge_framed_drifts(merged) is merged


def test_compile_model_is_the_built_model_merged(sample_drift):
    target = build_expansion(2, [("XX", 0.5), ("ZY", -0.25), ("ZI", 1.0)])
    assert _model_key(compile_model, sample_drift, target) == _model_key(
        lambda d, k: merge_framed_drifts(step_model(d, k)), sample_drift, target
    )
    drift = build_expansion(3, [("XXI", 1.0), ("IZZ", 0.8), ("ZIZ", 0.3), ("IXI", 0.2)])
    assert _model_key(lambda d, k: compile_model(d, k, (1, 2)), drift, target) == _model_key(
        lambda d, k: merge_framed_drifts(pair_step_model(d, (1, 2), k)), drift, target
    )


def test_the_image_key_keeps_apart_frames_that_permute_equal_terms():
    # S (x) S sends XX to YY and YY to XX: on XX + YY + ZZ at equal strengths
    # the first frames of the XX and of the YY coupling are both the drift
    # itself, but they send the terms one by one to different images, so
    # they stay apart
    drift = build_expansion(2, [("XX", 1.0), ("YY", 1.0), ("ZZ", 1.0)])
    model = step_model(drift, build_expansion(2, [("XX", 0.5), ("YY", 0.25)]))
    merged = merge_framed_drifts(model)
    assert model.raw_drifts_per_step(1) == 8
    assert merged.raw_drifts_per_step(1) == 4
    operators = {conjugate_by_cliffords(drift, dict(f.frame))
                 for f in merged.factors if isinstance(f, FramedDrift)}
    assert len(operators) == 3
    assert _factor_sum(merged) == _factor_sum(model)


def test_an_empirical_measure_diagonalizes_the_drift_once(monkeypatch):
    from hamrc.synth import _make_measure

    drift = xz_chain(4)
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    model = pair_step_model(drift, (0, 1), target)
    full = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        full.append(a.shape[-1] == 16)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    measure = _make_measure(model, embed(target, 4, (0, 1)), 0.5, 2)
    errors = [measure(n) for n in (1, 2, 3, 5)]
    assert sum(full) == 1  # the drift's; the goal is built on the pair
    assert errors == sorted(errors, reverse=True)


def test_an_empirical_plan_holds_in_the_schedule_it_compiles():
    # a 2-million-step plan with no margin (seed-1 pair-rand0 of
    # bench/workloads.py): its schedule measures exactly its prediction,
    # which is within the budget
    drift = build_expansion(
        2, [("YY", 1.836433539213007), ("ZI", -0.36636215430696994), ("IY", -0.30806612075077816)]
    )
    target = build_expansion(
        2, [("ZX", 0.4301763609298778), ("ZZ", -0.49629896551736535), ("XI", 0.3490944932887033)]
    )
    t = 0.7258399566531842
    sched = compile_schedule(drift, target, t, epsilon=1e-7, order=1, bound="empirical")
    assert sched.plan.steps > 10**6
    measured = distance(evolution(target, t), evaluate_schedule(sched, drift))
    assert measured == sched.predicted_error <= 1e-7

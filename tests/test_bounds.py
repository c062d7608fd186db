"""Step planning and the analytic error bounds behind it."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_local_cliffords,
    framed_expansion,
    heisenberg,
    random_coupled_pair,
    random_two_body,
    xz_chain,
)
from hamrc import (
    GLOBAL_BOUND_C,
    ErrorPlan,
    Infeasible,
    InvalidStep,
    InvalidTerm,
    NotCoupled,
    PauliString,
    TooLarge,
    build_expansion,
    chained_rate,
    coupling_ratio,
    dense_of_expansion,
    embed,
    operator_norm,
    pair_step_model,
    plan_steps,
)
from hamrc.bounds import (
    _BATCH,
    MAX_PLAN_STEPS,
    _coefficient_table,
    _commutator_norm,
    _dense_of_masks,
    _diagonal_sites,
    _norms,
    _on_supports,
    _supports,
    _tails,
    plan_empirical,
)
from hamrc.cliffords import CLIFF_HAD, CLIFF_S, CLIFF_XQ, PAULI_CLIFF
from hamrc.dense import hermitian_norm
from hamrc.synth import (
    CNOT_BODY,
    FramedDrift,
    LocalFactor,
    StepModel,
    _make_measure,
    plan_for_model,
    step_model,
)


X1 = build_expansion(1, [("X", 1.0)])
#: unit-rate framed drifts of X1: X itself, and Z = H X H^dag
AS_X = FramedDrift(1.0, ())
AS_Z = FramedDrift(1.0, ((0, CLIFF_HAD),))


def _model(drift, *factors):
    return StepModel(drift.n, drift, factors, 0.0)


def test_first_order_rate_on_anticommuting_pair():
    x, z = AS_X, AS_Z
    # ||[X, Z]|| = 2, so one step of length tau is bounded by tau^2
    tau = 0.3
    assert chained_rate(_model(X1, x, z), 1) * tau * tau == pytest.approx(tau * tau)
    assert chained_rate(_model(X1, x, x), 1) == 0.0
    assert chained_rate(_model(X1, x), 1) == 0.0


def test_first_order_rate_sees_a_cancelling_tail():
    # X, then Z, then X Z X = -Z: the tail Z - Z vanishes, so the split is
    # exact, while the pairwise sum counts ||[X, Z]|| + ||[X, -Z]|| = 4
    minus_z = FramedDrift(1.0, ((0, PAULI_CLIFF["X"].compose(CLIFF_HAD)),))
    model = _model(X1, AS_X, AS_Z, minus_z)
    assert chained_rate(model, 1) == 0.0
    assert _pairwise_rate(_factor_mats(model)) == pytest.approx(2.0)


def test_chained_rate_respects_cap(monkeypatch):
    big = build_expansion(11, [("X" + "I" * 10, 1.0)])
    monkeypatch.setenv("HAMRC_DENSE_CAP", "10")
    with pytest.raises(TooLarge):
        chained_rate(_model(big, AS_X, AS_X), 1)


def test_chained_rate_orders():
    x, z = AS_X, AS_Z
    assert chained_rate(_model(X1, x, z), 1) == pytest.approx(1.0)  # ||[X,Z]||/2
    # order 2 peel: a=1, r=1 -> (1/6)*1*1*(1+2) = 0.5
    assert chained_rate(_model(X1, x, z), 2) == pytest.approx(0.5)
    with pytest.raises(InvalidTerm):
        chained_rate(_model(X1, x, z), 3)


def _factor_mats(model):
    """Dense matrix of every factor through its expansion: a framed drift is
    the rate-weighted conjugate of the drift."""
    mats = []
    for f in model.factors:
        if isinstance(f, FramedDrift):
            mats.append(dense_of_expansion(framed_expansion(model.drift, f)))
        else:
            mats.append(dense_of_expansion(f.ham))
    return mats


def _pairwise_rate(mats):
    """The looser order-1 rate: half the sum of ``||[F_j, F_k]||`` over ``j < k``."""
    total = 0.0
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            total += operator_norm(mats[j] @ mats[k] - mats[k] @ mats[j])
    return 0.5 * total


def _rate_by_factor_svds(model, order):
    """The rate from a dense matrix and an SVD norm of every factor, every
    tail sum and every tail commutator, with no use of the frames."""
    mats = _factor_mats(model)
    if len(mats) < 2:
        return 0.0
    tails = [mats[-1]]
    for m in reversed(mats[1:-1]):
        tails.append(tails[-1] + m)
    tails.reverse()  # tails[i] = F_(i+1) + ... + F_last
    if order == 1:
        return 0.5 * sum(operator_norm(a @ r - r @ a) for a, r in zip(mats, tails))
    total = 0.0
    for a, r in zip(mats, tails):
        a, r = operator_norm(a), operator_norm(r)
        total += a * r * (a + 2.0 * r) / 6.0
    return total


@settings(max_examples=40)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([0.0, 1.0, 8.0]),
    order=st.sampled_from([1, 2]),
    steps=st.integers(1, 40),
)
# an exact model: the rate is 0
@example(n=2, seed=82, field=0.0, order=1, steps=1)
# tail rate 5.55e-17 from rounding, pairwise rate 0.0
@example(n=2, seed=530982893, field=0.0, order=1, steps=1)
def test_chained_rate_matches_per_factor_norms_and_bounds_the_error(n, seed, field, order, steps):
    rng = np.random.default_rng(seed)
    drift = random_two_body(n, rng, connected=True)
    # strong local fields are what a drift-blind plan misses
    fields = [("".join(a if q == s else "I" for q in range(n)), field * rng.normal())
              for s in range(n) for a in "XZ"]
    drift = build_expansion(n, [(p.ops, c) for p, c in drift.items()] + fields)
    pairs = sorted({p.support() for p in drift.terms if p.weight() == 2})
    pair = pairs[int(rng.integers(len(pairs)))]
    target = random_coupled_pair(rng)
    model = pair_step_model(drift, pair, target)
    assume(len(model.factors) <= 70)  # keeps the pairwise SVD reference cheap

    rate = chained_rate(model, order)
    want = _rate_by_factor_svds(model, order)
    assert abs(rate - want) <= 1e-12 * want
    if order == 1:
        # the tail form drops a triangle inequality from the pairwise sum;
        # both sides can be 0 in exact arithmetic, so the rounding of the
        # commutators, at the scale of the squared factor norms, is allowed
        mats = _factor_mats(model)
        rounding = 1e-12 * sum(operator_norm(m) for m in mats) ** 2
        assert rate <= _pairwise_rate(mats) * (1 + 1e-12) + rounding

    t = 0.4
    # an exact model (rate 0) still needs a positive budget
    epsilon = max(rate * t ** (order + 1) / steps**order * (1 + 1e-9), 1e-12)
    register_target = embed(target, n, pair)
    plan = plan_for_model(model, register_target, t, epsilon, order, "chained")
    measured = _make_measure(model, register_target, t, order)(plan.steps)
    assert measured <= plan.predicted_error + 1e-12


def test_chained_rate_matches_the_svd_reference_with_locals_anywhere():
    rng = np.random.default_rng(77)
    drift = random_two_body(3, rng, coupling_density=2.0, local_density=1.5, connected=True)
    x, y, z = (PAULI_CLIFF[a] for a in "XYZ")
    frames = [
        (),
        ((0, x),),
        ((0, z),),
        ((0, y),),
        ((0, CLIFF_HAD), (1, CLIFF_S)),
        ((0, CLIFF_HAD), (1, CLIFF_S), (2, CLIFF_XQ)),
        ((1, CLIFF_XQ), (2, y)),
    ]
    local = LocalFactor(build_expansion(3, [("XII", 0.7), ("IZI", -0.4), ("IIY", 0.2)]))
    near = LocalFactor(build_expansion(3, [("ZII", 0.3), ("IXI", 0.9)]))
    framed = tuple(FramedDrift(float(r), f) for r, f in zip(rng.uniform(0.2, 2.0, len(frames)), frames))
    cliffs = all_local_cliffords()
    picks = rng.integers(len(cliffs), size=(60, 2))
    many = tuple(
        FramedDrift(1.0 + 0.01 * i, ((0, cliffs[a]), (1, cliffs[b]))) for i, (a, b) in enumerate(picks)
    )
    mixed = framed[:3] + (local,) + framed[3:] + (near,)
    for factors in (framed, (local,) + framed, (near, local) + framed[::-1], mixed, many):
        model = StepModel(3, drift, factors, 0.0)
        for order in (1, 2):
            want = _rate_by_factor_svds(model, order)
            assert abs(chained_rate(model, order) - want) <= 1e-12 * want


def _string(n, x, z):
    """The Pauli string of packed masks, qubit 0 the top bit."""
    bits = range(n - 1, -1, -1)
    return PauliString("".join("IZXY"[(x >> b & 1) * 2 + (z >> b & 1)] for b in bits))


def test_coefficient_table_rows_equal_the_conjugated_expansions():
    # the models of the chain and all-to-all benchmarks, random pair models,
    # and random frames at random rates on a drift with every axis and an
    # identity term
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    models = [pair_step_model(xz_chain(n), (0, 1), target) for n in (4, 5, 6)]
    models += [pair_step_model(heisenberg(n), (1, 3), target) for n in (4, 5)]
    rng = np.random.default_rng(404)
    models += [step_model(random_coupled_pair(rng), random_coupled_pair(rng)) for _ in range(8)]
    drift = random_two_body(4, rng, coupling_density=2.0, local_density=1.5, connected=True)
    drift = build_expansion(4, [(p.ops, c) for p, c in drift.items()] + [("IIII", 0.25)])
    cliffs = all_local_cliffords()
    rates = [1.0, 0.3, 1.0 / 7.0, 0.0] + list(rng.uniform(0.0, 3.0, 36))
    framed = []
    for rate in rates:
        sites = sorted(rng.choice(4, size=int(rng.integers(5)), replace=False).tolist())
        framed.append(FramedDrift(float(rate), tuple((q, cliffs[rng.integers(24)]) for q in sites)))
    local = LocalFactor(build_expansion(4, [("XIII", 0.7), ("IIYI", -0.4)]))
    random_frames = StepModel(4, drift, (local,) + tuple(framed), 0.0)
    models.append(random_frames)
    # S on sites 0 and 1 maps XXI, XXZ, YYI, YYZ to YYI, YYZ, XXI, XXZ
    same_x = build_expansion(3, [("XXI", 1.0), ("XXZ", 0.1), ("YYI", -1.0), ("YYZ", 0.3)])
    models.append(StepModel(3, same_x, (FramedDrift(1.0, ((0, CLIFF_S), (1, CLIFF_S))),), 0.0))

    for model in models:
        x, z, ny, table = _coefficient_table(model)
        assert table.shape == (len(model.factors), len(x))
        strings = [_string(model.n, a, b) for a, b in zip(x.tolist(), z.tolist())]
        assert len(set(strings)) == len(strings)
        assert ny.tolist() == [p.ops.count("Y") for p in strings]
        for f, row in zip(model.factors, table):
            want = framed_expansion(model.drift, f) if isinstance(f, FramedDrift) else f.ham
            got = {p: c for p, c in zip(strings, row.tolist()) if c != 0.0}
            assert got.keys() == want.terms.keys()
            for p, c in want.items():
                assert np.float64(got[p]).tobytes() == np.float64(c).tobytes()
    zero = StepModel(4, drift, (FramedDrift(0.0, framed[0].frame),), 0.0)
    assert not _coefficient_table(zero)[3].any()
    with pytest.raises(InvalidTerm):
        _coefficient_table(StepModel(4, drift, (local, FramedDrift(-1.0, ())), 0.0))


def _support_sites(n, mask):
    return {q for q in range(n) if mask >> (n - 1 - q) & 1}


@pytest.mark.parametrize(
    "drift, pair, count, diagonal",
    [(xz_chain(n), (0, 1), 16, {n - 1}) for n in (4, 5, 6, 7)]
    + [(heisenberg(n), (1, 3), 32, set()) for n in (4, 5)],
)
def test_tails_that_end_on_a_complete_orbit_act_on_the_pair_alone(drift, pair, count, diagonal):
    # the frames that isolate the pair cancel every other term once a tail
    # holds whole orbits of them, and the cancelled strings are exactly 0.0
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    model = pair_step_model(drift, pair, target)
    x, z, _, table = _coefficient_table(model)
    tails = _tails(table)
    supports = _supports(x, z, tails)
    sites = [_support_sites(drift.n, m) for m in supports.tolist()]
    assert len(sites) == count
    assert sum(s == set(pair) for s in sites) == 8
    assert all(s in (set(pair), set(range(drift.n))) for s in sites)
    # a Pauli frame only flips signs on a site where the drift holds I or Z
    full = [
        _support_sites(drift.n, _diagonal_sites(m, x[row != 0.0]))
        for m, row in zip(supports.tolist(), tails)
        if m == 2**drift.n - 1
    ]
    assert len(full) == count - 8
    assert all(d == diagonal for d in full)


@settings(max_examples=60)
@given(
    n=st.integers(1, 6),
    diagonal=st.sampled_from(["none", "some", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, diagonal="none", seed=0)
@example(n=6, diagonal="all", seed=0)
@example(n=1, diagonal="all", seed=1)
def test_norms_and_commutators_block_by_block_equal_the_full_register(n, diagonal, seed):
    rng = np.random.default_rng(seed)
    if diagonal == "some":
        iz = int(rng.integers(2**n))
    else:
        iz = 0 if diagonal == "none" else 2**n - 1
    x = rng.integers(2**n, size=int(rng.integers(1, 13))) & ~iz
    z = rng.integers(2**n, size=len(x))
    keys = np.unique((x << n) | z)  # distinct strings, as in the coefficient table
    x, z = keys >> n, keys & (2**n - 1)
    ny = np.array([bin(m).count("1") for m in (x & z).tolist()])
    # real coefficients, some of them exactly 0.0: absent strings
    rows = rng.normal(size=(6, len(x))) * (rng.random((6, len(x))) < 0.7)
    mats = _dense_of_masks(n, x, z, ny, rows)
    norms = hermitian_norm(mats)
    assert np.allclose(_norms(x, z, ny, rows), norms, rtol=1e-12, atol=0)
    pairs = np.stack([rows[:3], rows[3:]], axis=1)
    got = _on_supports(_commutator_norm, 4, x, z, ny, pairs)
    want = _commutator_norm(mats[:3], mats[3:])
    # relative to ||A|| ||B||: a commuting pair's norm is rounding at that scale
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, norms[:3] * norms[3:]))


def test_tail_norms_of_a_cancelled_tail_and_of_a_multiple_of_the_identity():
    # H = 0.25 II + X I; frames of H: X -> X, Z X Z = -X, H X H = Z
    drift = build_expansion(2, [("II", 0.25), ("XI", 1.0)])
    plus, minus = FramedDrift(1.0, ()), FramedDrift(1.0, ((0, PAULI_CLIFF["Z"]),))
    as_z = FramedDrift(1.0, ((0, CLIFF_HAD),))
    x, z, ny, table = _coefficient_table(StepModel(2, drift, (as_z, plus, minus), 0.0))
    tails = _tails(table)
    # tail 0 is 0.5 II exactly; tail 1 is 0.25 II - XI
    assert _supports(x, z, tails).tolist() == [0, 0b10]
    assert _norms(x, z, ny, tails).tolist() == [0.5, 1.25]
    # without the identity term the first tail cancels to 0
    bare = build_expansion(2, [("XI", 1.0)])
    x, z, ny, table = _coefficient_table(StepModel(2, bare, (as_z, plus, minus), 0.0))
    assert _norms(x, z, ny, _tails(table)).tolist() == [0.0, 1.0]
    assert chained_rate(StepModel(2, bare, (as_z, plus, minus), 0.0), 1) == 0.0
    assert chained_rate(StepModel(2, drift, (as_z, plus, minus), 0.0), 1) == 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_chained_rate_keeps_its_dense_stacks_within_the_batch(monkeypatch, order):
    n = 7
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    model = pair_step_model(xz_chain(n), (0, 1), target)
    built = []

    def counted(m, x, z, ny, coeffs):
        # one matrix per row of coeffs: per item and row, one per block of
        # its I/Z-only sites.  At order 1 every build is a commutator
        # chunk's A and B, which also holds AB and i[A, B]: twice the
        # entries built
        built.append(((2 if order == 1 else 1) * len(coeffs) * 4**m, m))
        return _dense_of_masks(m, x, z, ny, coeffs)

    monkeypatch.setattr("hamrc.bounds._dense_of_masks", counted)
    want = chained_rate(model, order)
    monkeypatch.undo()
    assert chained_rate(model, order) == want
    assert max(held for held, _ in built) <= max(_BATCH, 4**n)
    # full-support tails are two blocks, one per sign of Z on the last site
    assert n not in {m for _, m in built}
    assert max(m for _, m in built) == n - 1


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


def _cnot_plan(kind, epsilon, order):
    model = step_model(build_expansion(2, [("ZI", 1.0), ("XZ", 2.0)]), CNOT_BODY)
    return plan_for_model(model, CNOT_BODY, math.pi / 4.0, epsilon, order, kind)


def test_cnot_plan_kinds_fix_their_order():
    t = math.pi / 4.0
    # each kind plans only at its own order and refuses the other
    p1 = _cnot_plan("first_order_cnot", 1e-3, 1)
    assert p1.order == 1
    assert p1.predicted_error == pytest.approx(8.0 * t * (t / p1.steps))
    assert p1.constants == {"rate": 8.0}
    with pytest.raises(InvalidTerm):
        _cnot_plan("first_order_cnot", 1e-3, 2)
    p2 = _cnot_plan("second_order_cnot", 1e-3, 2)
    assert p2.order == 2
    assert p2.steps == 16
    assert p2.predicted_error == pytest.approx(0.5 * t * (t / 16) ** 2)
    with pytest.raises(InvalidTerm):
        _cnot_plan("second_order_cnot", 1e-3, 1)
    assert p2.steps < p1.steps


def test_global_bound_matches_formula():
    drift = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])
    target = build_expansion(2, [("XX", 1.0)])
    # largest drift coefficient 2, largest target coefficient 1,
    # strongest coupling 2 -> D = 1
    assert coupling_ratio(drift, target) == pytest.approx(1.0)
    plan = plan_for_model(step_model(drift, target), target, 2.0, 0.5, 1, "global")
    # C * D^2 * t * delta at the planned step
    assert plan.predicted_error == pytest.approx(GLOBAL_BOUND_C * 2.0 * plan.delta)
    assert plan.constants == {"rate": GLOBAL_BOUND_C, "C": GLOBAL_BOUND_C, "D": 1.0}
    assert plan.bound == "global"
    assert GLOBAL_BOUND_C * 2.0 * plan.delta <= 0.5
    with pytest.raises(NotCoupled):
        coupling_ratio(build_expansion(2, [("XI", 1.0)]), target)
    # a target with no coupling is exact on any drift
    assert coupling_ratio(build_expansion(2, [("XI", 1.0)]), build_expansion(2, [("IZ", 0.3)])) == 0.0


def test_plan_infeasible_budgets():
    with pytest.raises(Infeasible):
        _cnot_plan("first_order_cnot", 1e-30, 1)
    with pytest.raises(Infeasible):
        plan_steps("chained", 1e-12, 10.0, order=1, rate=100.0, max_steps=1000)


def test_plan_rejects_bad_arguments():
    drift = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])
    target = build_expansion(2, [("XX", 1.0)])
    model = step_model(drift, target)
    with pytest.raises(InvalidStep):
        plan_for_model(model, target, 1.0, 0.1, 1, "nonsense")
    with pytest.raises(InvalidTerm):
        plan_steps("chained", -0.1, 1.0, order=1, rate=1.0)
    with pytest.raises(InvalidTerm):
        plan_steps("chained", 0.1, 0.0, order=1, rate=1.0)
    for bad in ((math.nan, 1.0), (0.1, math.nan)):
        with pytest.raises(InvalidTerm):
            plan_steps("chained", *bad, order=1, rate=1.0)
        with pytest.raises(InvalidTerm):
            plan_empirical(lambda n: 0.0, *bad, order=1)
    with pytest.raises(TypeError):
        plan_steps("chained", 0.1, 1.0, order=1)  # rate missing
    with pytest.raises(TypeError):
        plan_steps("global", 0.1, 1.0)  # order and rate missing
    with pytest.raises(InvalidTerm, match="order 1"):
        plan_for_model(model, target, 2.0, 0.5, 2, "global")  # first-order formula only
    with pytest.raises(TypeError):
        plan_empirical(0.1, 1.0, order=1)  # measure missing


def test_empirical_plan_bisects_to_the_smallest_step_count():
    calls = []

    def measure(n):
        calls.append(n)
        return 1.0 / n**2

    plan = plan_empirical(measure, 1e-2, 1.0, order=1)
    # 1, the first-order extrapolation 100, the log-log secant 10 (the
    # measure falls as N^-2), and 9 to close the bracket; the error at the
    # answer is not measured again
    assert calls == [1, 100, 10, 9]
    assert plan.steps == 10
    assert not plan.analytic
    assert plan.predicted_error == pytest.approx(1e-2)
    assert measure(plan.steps - 1) > 1e-2


def test_empirical_plan_gives_up_at_the_cap():
    with pytest.raises(Infeasible):
        plan_empirical(lambda n: 1.0, 1e-3, 1.0, order=1, max_steps=64)


def test_empirical_plan_finds_a_count_below_a_cap_that_is_no_power_of_two():
    # doubling used to jump from 64 to 128, past the cap, and give up
    plan = plan_empirical(lambda n: 1 / n, 1 / 90, 1.0, order=1, max_steps=100)
    assert plan.steps == 90
    with pytest.raises(Infeasible, match="at 100 steps"):
        plan_empirical(lambda n: 1 / n, 1 / 101, 1.0, order=1, max_steps=100)


def doubling_then_bisection(measure, epsilon):
    """The search ``plan_empirical`` made before its guided probes: (steps, error)."""
    lo, hi = 0, 1
    err_hi = measure(hi)
    while err_hi > epsilon:
        lo, hi = hi, hi * 2
        if hi > MAX_PLAN_STEPS:
            raise Infeasible(f"measured error still {err_hi:.3e} at {lo} steps")
        err_hi = measure(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        err = measure(mid)
        if err <= epsilon:
            hi, err_hi = mid, err
        else:
            lo = mid
    return hi, err_hi


@settings(max_examples=300)
@given(
    c=st.floats(1e-3, 1e3),
    q=st.floats(0.5, 4.0),
    head=st.none() | st.floats(1e-2, 10.0),
    width=st.integers(1, 50),
    floor=st.none() | st.floats(1e-9, 1e-1),
    zero_from=st.none() | st.integers(1, 5000),
    epsilon=st.floats(1e-6, 1e-1),
    order=st.sampled_from([1, 2]),
)
@example(c=1.0, q=0.5, head=None, width=1, floor=None, zero_from=3, epsilon=1e-6, order=2)
@example(c=1.0, q=4.0, head=None, width=1, floor=None, zero_from=None, epsilon=1e-6, order=1)
@example(c=1e3, q=0.5, head=None, width=1, floor=1e-3, zero_from=None, epsilon=1e-2, order=2)
@example(  # probes 1, 11, 7, 5, 4, 3, 2 where doubling probes 1, 2
    c=0.022525818696450595, q=3.7434022340866395, head=None, width=1,
    floor=0.001167183493060786, zero_from=None, epsilon=0.0021285934855867204, order=1,
)
def test_empirical_plan_matches_doubling_then_bisection(
    c, q, head, width, floor, zero_from, epsilon, order
):
    """On a non-increasing measure the guided probes find the same count and error.

    The measure is ``c N^-q``, optionally capped at ``head``, constant on
    runs of ``width`` counts, held up by ``floor`` (past the cap when the
    floor is over budget), and exactly 0 from ``zero_from`` on.
    """

    def measure(n):
        if zero_from is not None and n >= zero_from:
            return 0.0
        err = c * (width * math.ceil(n / width)) ** -q
        err = err if head is None else min(head, err)
        return err if floor is None else max(floor, err)

    def counted(calls):
        def probe(n):
            calls.append(n)
            return measure(n)
        return probe

    calls, ref_calls = [], []
    try:
        want = doubling_then_bisection(counted(ref_calls), epsilon)
    except Infeasible:
        with pytest.raises(Infeasible):
            plan_empirical(counted(calls), epsilon, 1.0, order=order)
    else:
        plan = plan_empirical(counted(calls), epsilon, 1.0, order=order)
        assert (plan.steps, plan.predicted_error) == want
    # the most seen on this family is 3.5 times: 7 probes on a floor that an
    # extrapolation overshoots, where doubling meets the answer 2 in 2
    assert len(calls) <= 4 * len(ref_calls)


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

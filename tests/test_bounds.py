"""Step planning and the analytic error bounds behind it."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_local_cliffords,
    dense_of_pauli,
    framed_expansion,
    heisenberg,
    random_coupled_pair,
    random_two_body,
    xz_chain,
)
from hamrc import (
    ErrorPlan,
    Infeasible,
    InvalidStep,
    InvalidTerm,
    PauliString,
    build_expansion,
    chained_rate,
    dense_of_expansion,
    embed,
    operator_norm,
    pair_step_model,
    plan_steps,
)
from hamrc.bounds import (
    _BATCH,
    MAX_PLAN_STEPS,
    ROUNDING,
    _coefficient_table,
    _commutator_norm,
    _commutator_one_norms,
    _dense_of_masks,
    _nested_norms,
    _nested_one_norms,
    _on_supports,
    _splits,
    _supports,
    _tails,
    chained_bounds,
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
    compile_model,
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
    # the cap bounds the sites a split is built on, not the register: on an
    # 11-site register X and Z act on site 0 alone, so under a cap of 10
    # every split is built densely on that one site
    big = build_expansion(11, [("X" + "I" * 10, 1.0)])
    monkeypatch.setenv("HAMRC_DENSE_CAP", "10")
    built = []

    def counted(m, *args, **kwargs):
        built.append(m)
        return _dense_of_masks(m, *args, **kwargs)

    monkeypatch.setattr("hamrc.bounds._dense_of_masks", counted)
    assert chained_rate(_model(big, AS_X, AS_Z), 1) == 1.0
    assert chained_rate(_model(big, AS_X, AS_Z), 2) == 0.5
    assert chained_rate(_model(big, AS_X, AS_X), 1) == 0.0
    assert built == [1, 1, 1]

    # a split wider than the cap takes coefficient 1-norms and builds no
    # matrix: XX and ZX act on 2 sites, ||[XX, ZX]|| = ||-2i YI||_1 = 2,
    # and every factor and tail has 1-norm 1
    def no_dense(*args, **kwargs):
        raise AssertionError("dense build past the cap")

    monkeypatch.setattr("hamrc.bounds._dense_of_masks", no_dense)
    monkeypatch.setenv("HAMRC_DENSE_CAP", "1")
    xx = build_expansion(2, [("XX", 1.0)])
    assert chained_rate(_model(xx, AS_X, AS_Z), 1) == 1.0
    assert chained_rate(_model(xx, AS_X, AS_Z), 2) == 0.5
    assert chained_rate(_model(xx, AS_X, AS_X), 1) == 0.0
    monkeypatch.setenv("HAMRC_DENSE_CAP", "2")
    with pytest.raises(AssertionError, match="dense build"):
        chained_rate(_model(xx, AS_X, AS_Z), 1)


def test_chained_rate_orders():
    x, z = AS_X, AS_Z
    assert chained_rate(_model(X1, x, z), 1) == pytest.approx(1.0)  # ||[X,Z]||/2
    # order 2 peel: [X, Z] = -2iY, ||[Z, -2iY]||/12 + ||[X, -2iY]||/24 = 4/12 + 4/24
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


def _split_mats(model):
    """``(A, B)`` of every split as full dense matrices: each factor, and
    the sum of the factors after it."""
    mats = _factor_mats(model)
    splits, tail = [], None
    for a, b in zip(mats[-2::-1], mats[:0:-1]):
        tail = b if tail is None else tail + b
        splits.append((a, tail))
    return splits[::-1]


def _rate_by_factor_svds(model, order):
    """The rate from a dense matrix and an SVD norm of every factor, every
    tail sum and every commutator nested up to ``order`` deep, with no use
    of the frames or of supports."""
    total = 0.0
    for a, b in _split_mats(model):
        c = a @ b - b @ a
        if order == 1:
            total += 0.5 * operator_norm(c)
        else:
            total += operator_norm(b @ c - c @ b) / 12.0 + operator_norm(a @ c - c @ a) / 24.0
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


def _one_norm_rate_by_traces(model):
    """The order-1 rate from coefficient 1-norms, from dense matrices: every
    commutator of a factor and its tail sum expanded on the Pauli strings
    by ``Tr(P M) / 2^n``."""
    n = model.n
    paulis = np.array([dense_of_pauli(PauliString("".join(ops)))
                       for ops in itertools.product("IXYZ", repeat=n)])

    def one_norm(m):
        return np.abs(np.einsum("pij,ji->p", paulis, m)).sum() / 2**n

    mats = _factor_mats(model)
    pairs = [(a, sum(mats[j + 1 :])) for j, a in enumerate(mats[:-1])]
    return 0.5 * sum(one_norm(a @ r - r @ a) for a, r in pairs)


def _rate_under_cap(model, order, cap):
    """``chained_rate`` with ``HAMRC_DENSE_CAP`` set to ``cap``, or unset for ``None``."""
    with pytest.MonkeyPatch.context() as mp:
        if cap is None:
            mp.delenv("HAMRC_DENSE_CAP", raising=False)
        else:
            mp.setenv("HAMRC_DENSE_CAP", str(cap))
        return chained_rate(model, order)


@settings(max_examples=30)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from([1, 2]),
    steps=st.integers(1, 40),
)
@example(n=8, seed=0, order=1, steps=40)
@example(n=8, seed=0, order=2, steps=40)
def test_the_coefficient_rate_bounds_the_dense_rate_and_the_error(n, seed, order, steps):
    # the same model with every split past the dense cap (cap 0: coefficient
    # 1-norms), the splits on more than 2 sites past it (mixed) and none
    rng = np.random.default_rng(seed)
    drift = random_two_body(n, rng, connected=True)
    pairs = sorted({p.support() for p in drift.terms if p.weight() == 2})
    pair = pairs[int(rng.integers(len(pairs)))]
    target = random_coupled_pair(rng)
    model = compile_model(drift, target, pair)
    assume(len(model.factors) <= 40)  # keeps the dense rate and the measure cheap

    coefficient, mixed, dense = (_rate_under_cap(model, order, cap) for cap in (0, 2, None))
    # a commutator that cancels is 0 in the 1-norm and rounding in the
    # dense norm, at the scale of the factors' 1-norms
    table = _coefficient_table(model)[3]
    scale = np.abs(table).sum() ** (order + 1)
    assert dense <= mixed * (1 + 1e-12) + 1e-12 * scale
    assert mixed <= coefficient * (1 + 1e-12) + 1e-12 * scale
    if order == 1 and n <= 5:
        assert abs(coefficient - _one_norm_rate_by_traces(model)) <= 1e-12 * scale
    if order == 2:
        # the product form a b (a + 2 b) / 6 of whole factor and tail rows
        a, b = np.abs(table[:-1]).sum(axis=1), np.abs(_tails(table)).sum(axis=1)
        assert coefficient <= (a * b * (a + 2.0 * b) / 6.0).sum() * (1 + 1e-12)

    t = 0.4
    epsilon = max(mixed * t ** (order + 1) / steps**order * (1 + 1e-9), 1e-12)
    plan = plan_steps("chained", epsilon, t, order=order, rate=mixed)
    measured = _make_measure(model, embed(target, n, pair), t, order)(plan.steps)
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
    # 40 sites: packed into one integer, (x, z) keys would wrap and collide
    models = [pair_step_model(xz_chain(n), (0, 1), target) for n in (4, 5, 6, 40)]
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


def _one_norms(x, z, ny, rows):
    """The 1-norm of each item's one row of coefficients."""
    return np.abs(rows[:, 0]).sum(axis=-1)


def _norms(x, z, ny, rows):
    """Operator norm of each row of coefficients, taken on its support."""
    return _on_supports(hermitian_norm, _one_norms, 1, x, z, ny, rows[:, None])


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
    # a Pauli frame only flips signs on a site where the drift holds I or Z,
    # so the other tails hold no X or Y there
    full = [
        _support_sites(drift.n, m & ~int(np.bitwise_or.reduce(x[row != 0.0])))
        for m, row in zip(supports.tolist(), tails)
        if m == 2**drift.n - 1
    ]
    assert len(full) == count - 8
    assert all(d == diagonal for d in full)


@settings(max_examples=60)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(n=6, seed=0)
@example(n=1, seed=1)
def test_norms_and_commutators_block_by_block_equal_the_full_register(n, seed):
    # each support group is built as one block of its own sites; up to the
    # cap the norms are the full register's, and past it the coefficient
    # bounds, which are never below them
    rng = np.random.default_rng(seed)
    x = rng.integers(2**n, size=int(rng.integers(1, 13)))
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
    got = _on_supports(_commutator_norm, _commutator_one_norms, 4, x, z, ny, pairs)
    want = _commutator_norm(mats[:3], mats[3:])
    # relative to ||A|| ||B||: a commuting pair's norm is rounding at that scale
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, norms[:3] * norms[3:]))
    got = _on_supports(_nested_norms, _nested_one_norms, 5, x, z, ny, pairs, (2,))
    nested = _nested_norms(mats[:3], mats[3:])
    scale = norms[:3] * norms[3:] * (norms[:3] + norms[3:])
    assert got.shape == nested.shape == (3, 2)
    assert np.all(np.abs(got - nested) <= 1e-12 * np.maximum(nested, scale[:, None]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HAMRC_DENSE_CAP", "0")
        past = _on_supports(_commutator_norm, _commutator_one_norms, 4, x, z, ny, pairs)
        past_nested = _on_supports(_nested_norms, _nested_one_norms, 5, x, z, ny, pairs, (2,))
    assert np.all(want <= past * (1 + 1e-12) + 1e-12 * norms[:3] * norms[3:])
    assert np.all(nested <= past_nested * (1 + 1e-12) + 1e-12 * scale[:, None])


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

    def counted(m, x, z, ny, coeffs, **kwargs):
        # one matrix per row of coeffs, per item and row.  Every build is
        # a chunk's A and B; at order 1 the commutator also holds AB and
        # i[A, B], at order 2 the nested norms hold [A, B], a product with
        # it and a commutator with it
        held = 2.0 if order == 1 else 2.5
        built.append((held * len(coeffs) * 4**m, m))
        return _dense_of_masks(m, x, z, ny, coeffs, **kwargs)

    def no_drift(*args):
        raise AssertionError("a register-size build")

    monkeypatch.setattr("hamrc.bounds._dense_of_masks", counted)
    monkeypatch.setattr("hamrc.dense.dense_of_expansion", no_drift)
    want = chained_rate(model, order)
    monkeypatch.undo()
    assert chained_rate(model, order) == want
    assert max(held for held, _ in built) <= _BATCH
    # every split is taken around the smaller of its tail and its tail plus
    # its head: within two hops of it the chain reaches 4 sites at most
    assert max(m for _, m in built) <= 4


def test_the_dense_cap_bounds_every_build(monkeypatch):
    # the cap is checked on the sites each split is built on: on long XZ
    # chains every split fits on 4 sites, so the rate is the one a 10-site
    # chain has, bit for bit, whatever the register and wherever the cap
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    built = []

    def counted(m, *args, **kwargs):
        built.append(m)
        return _dense_of_masks(m, *args, **kwargs)

    monkeypatch.delenv("HAMRC_DENSE_CAP", raising=False)
    want = [chained_rate(pair_step_model(xz_chain(10), (0, 1), target), order) for order in (1, 2)]
    monkeypatch.setattr("hamrc.bounds._dense_of_masks", counted)
    for n in (12, 48):
        model = pair_step_model(xz_chain(n), (0, 1), target)
        for order in (1, 2):
            monkeypatch.delenv("HAMRC_DENSE_CAP", raising=False)
            built.clear()
            assert chained_rate(model, order) == want[order - 1]
            assert built and max(built) <= 4
            monkeypatch.setenv("HAMRC_DENSE_CAP", str(n))
            assert chained_rate(model, order) == want[order - 1]
    # under a cap of 3 the 4-site splits take coefficient 1-norms instead
    model = pair_step_model(xz_chain(7), (0, 1), target)
    for order in (1, 2):
        monkeypatch.setenv("HAMRC_DENSE_CAP", "3")
        built.clear()
        rate = chained_rate(model, order)
        assert built and max(built) <= 3
        assert rate >= want[order - 1]


def _sites_within(heads, x, z, rows, hops):
    """Sites of each row, and of the head terms within ``hops`` hops of them,
    one set of register bits per split, string by string in Python ints."""
    masks = [a | b for a, b in zip(x.tolist(), z.tolist())]
    out = []
    for head, row in zip(heads.tolist(), rows.tolist()):
        sites = 0
        for m, c in zip(masks, row):
            sites |= m if c != 0.0 else 0
        for _ in range(hops):
            near = [m for m, c in zip(masks, head) if c != 0.0 and m & sites]
            sites |= functools.reduce(operator.or_, near, 0)
        out.append(sites)
    return out


@pytest.mark.parametrize("hops", [1, 2])
def test_each_split_is_built_on_the_smaller_reach_of_its_tail_and_its_sum(hops):
    # on a 6-site chain with the local factor moved to every position, each
    # split's rows act on the sites within ``hops`` hops of the tail B or of
    # S = A + B, whichever reach is smaller, both choices occur, and the
    # rate of order ``hops`` is the full-register reference's
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    model = pair_step_model(xz_chain(6), (0, 1), target)
    local, framed = model.factors[0], model.factors[1:]
    took_sum = set()
    for at in range(len(model.factors)):
        factors = framed[:at] + (local,) + framed[at:]
        moved = StepModel(model.n, model.drift, factors, 0.0)
        x, z, ny, heads, rests = _splits(_coefficient_table(moved), hops)
        table = _coefficient_table(moved)[3]
        tails = _tails(table)
        sums = np.concatenate([table[:1] + tails[:1], tails[:-1]])
        reach = [_sites_within(table[:-1], x, z, rows, hops) for rows in (tails, sums)]
        built = _supports(x, z, np.stack([heads, rests], axis=1))
        for j, (b, s) in enumerate(zip(*reach)):
            use_sum = bin(s).count("1") < bin(b).count("1")
            took_sum.add(use_sum)
            assert np.bitwise_or.reduce(built[j]) == (s if use_sum else b)
            assert np.array_equal(rests[j], sums[j] - heads[j] if use_sum else tails[j])
        want = _rate_by_factor_svds(moved, hops)
        assert abs(chained_rate(moved, hops) - want) <= 1e-12 * want
    assert took_sum == {False, True}


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["frames", "chain"]),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    locals_=st.integers(1, 3),
)
@example(kind="frames", n=3, seed=0, locals_=2)
@example(kind="chain", n=5, seed=0, locals_=1)
def test_first_order_rate_equals_the_full_register_reference_with_locals_anywhere(kind, n, seed, locals_):
    # framed drifts under random frames, or a random chain's compile model,
    # with local factors added at random places: each split is taken
    # around B or around S, and either leaves ||[A, B]|| as the
    # full-register reference has it
    rng = np.random.default_rng(seed)
    if kind == "chain":
        model, _ = _random_register_model("chain", max(n, 3), rng)
        drift, factors = model.drift, list(model.factors)
    else:
        drift = random_two_body(n, rng, coupling_density=1.5, local_density=1.0, connected=True)
        cliffs = all_local_cliffords()
        factors = []
        for _ in range(int(rng.integers(2, 9))):
            sites = sorted(rng.choice(n, size=int(rng.integers(n + 1)), replace=False).tolist())
            frame = tuple((q, cliffs[int(rng.integers(len(cliffs)))]) for q in sites)
            factors.append(FramedDrift(float(rng.uniform(0.1, 2.0)), frame))
    for _ in range(locals_):
        ops = ["I"] * drift.n
        ops[int(rng.integers(drift.n))] = "XYZ"[int(rng.integers(3))]
        local = LocalFactor(build_expansion(drift.n, [("".join(ops), float(rng.normal()))]))
        factors.insert(int(rng.integers(len(factors) + 1)), local)
    model = StepModel(drift.n, drift, tuple(factors), 0.0)
    want = _rate_by_factor_svds(model, 1)
    assert abs(chained_rate(model, 1) - want) <= 1e-12 * want


def _random_register_model(kind, n, rng):
    """A compile model and its register target: a random connected
    two-qubit drift, an XZ chain or an all-to-all Heisenberg drift with
    random strengths, and a random coupled pair target."""
    target = random_coupled_pair(rng)
    if kind == "pair":
        drift = random_two_body(2, rng, connected=True)
        return compile_model(drift, target), target
    if kind == "chain":
        terms = [("I" * q + "XZ" + "I" * (n - q - 2), float(rng.uniform(0.5, 1.5))) for q in range(n - 1)]
        terms += [("I" * q + "Z" + "I" * (n - q - 1), float(rng.uniform(-0.5, 0.5))) for q in range(n)]
        q = int(rng.integers(n - 1))
        pair = (q, q + 1)
    else:
        terms = []
        for i, j in itertools.combinations(range(n), 2):
            for a in "XYZ":
                ops = ["I"] * n
                ops[i] = ops[j] = a
                terms.append(("".join(ops), float(rng.uniform(0.3, 1.0))))
        pair = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
    drift = build_expansion(n, terms)
    return compile_model(drift, target, pair), embed(target, n, pair)


@settings(max_examples=30)
@given(
    kind=st.sampled_from(["pair", "chain", "a2a"]),
    n=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="chain", n=5, seed=0)
@example(kind="a2a", n=4, seed=0)
def test_each_nested_split_is_at_most_its_product_of_norms(kind, n, seed):
    # ||[B, [B, A]]||/12 + ||[A, [A, B]]||/24 <= ||A|| ||B|| (||A|| + 2 ||B||)/6
    # split by split, so no plan takes more steps than the product form's
    rng = np.random.default_rng(seed)
    model, _ = _random_register_model(kind, n, rng)
    x, z, ny, heads, rests = _splits(_coefficient_table(model), 2)
    pairs = np.stack([heads, rests], axis=1)
    nested = _on_supports(_nested_norms, _nested_one_norms, 5, x, z, ny, pairs, (2,))
    nested = nested[:, 0] / 24.0 + nested[:, 1] / 12.0
    products = []
    for a, b in _split_mats(model):
        a, b = operator_norm(a), operator_norm(b)
        products.append(a * b * (a + 2.0 * b) / 6.0)
    products = np.array(products)
    assert np.all(nested <= products * (1 + 1e-12))
    rate = chained_rate(model, 2)
    assert abs(rate - nested.sum()) <= 1e-12 * rate
    product_rate = products.sum()
    for epsilon in (1e-2, 1e-4):
        nested_plan = plan_steps("chained", epsilon, 1.0, order=2, rate=rate)
        assert nested_plan.steps <= plan_steps("chained", epsilon, 1.0, order=2, rate=product_rate).steps


@settings(max_examples=30)
@given(
    kind=st.sampled_from(["pair", "chain", "a2a"]),
    n=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 8),
)
@example(kind="chain", n=5, seed=1, steps=8)
@example(kind="a2a", n=5, seed=1, steps=3)
@example(kind="pair", n=3, seed=1, steps=1)
def test_second_order_plans_are_sound_on_random_register_models(kind, n, seed, steps):
    rng = np.random.default_rng(seed)
    model, target = _random_register_model(kind, n, rng)
    t = 0.5
    rate = chained_rate(model, 2)
    epsilon = max(rate * t**3 / steps**2 * (1 + 1e-9), 1e-12)
    plan = plan_for_model(model, target, t, epsilon, 2, "chained")
    assert plan.steps <= steps
    measured = _make_measure(model, target, t, 2)(plan.steps)
    assert measured <= plan.predicted_error + ROUNDING


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
    assert p1.rate == 8.0
    with pytest.raises(InvalidTerm):
        _cnot_plan("first_order_cnot", 1e-3, 2)
    p2 = _cnot_plan("second_order_cnot", 1e-3, 2)
    assert p2.order == 2
    assert p2.steps == 16
    assert p2.predicted_error == pytest.approx(0.5 * t * (t / 16) ** 2)
    with pytest.raises(InvalidTerm):
        _cnot_plan("second_order_cnot", 1e-3, 1)
    assert p2.steps < p1.steps


def test_plan_infeasible_budgets():
    with pytest.raises(Infeasible):
        _cnot_plan("first_order_cnot", 1e-30, 1)
    with pytest.raises(Infeasible):
        plan_steps("chained", 1e-12, 10.0, order=1, rate=100.0, max_steps=1000)


@pytest.mark.parametrize("leading", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1e-300, 1e-300)])
def test_a_two_term_bound_past_the_float_range_is_infeasible(leading):
    # a d^2 and b d^3 overflow at t = 1e300 with no OverflowError, as the
    # rate's bound does; a count that one bound cannot reach is the other's
    with pytest.raises(Infeasible, match="needs more than"):
        plan_steps("chained", 1e-2, 1e300, order=1, rate=1.0, leading=leading)
    exact = plan_steps("chained", 1e-2, 1e300, order=1, rate=1.0, leading=(0.0, 0.0))
    assert (exact.steps, exact.predicted_error, exact.set_by) == (1, 0.0, "leading")
    plan = plan_steps("chained", 1e-2, 1.0, order=1, rate=1e300, leading=leading)
    assert plan.set_by == "leading" and plan.predicted_error <= 1e-2
    with pytest.raises(Infeasible):
        plan_steps("chained", 1e-2, 1.0, order=1, rate=1e300)
    with pytest.raises(Infeasible):
        plan_steps("chained", 1e-2, 1.0, order=1, rate=1e300, leading=(1e300, 1.0))


@pytest.mark.parametrize("rate, leading, steps, set_by", [
    (0.5, (0.5, 0.0), 50, "rate"),  # equal counts: the rate's
    (1.0, (0.25, 1.0), 29, "leading"),
    (1.0, (1.0, 1.0), 100, "rate"),
])
def test_the_two_term_plan_takes_the_smaller_count(rate, leading, steps, set_by):
    plan = plan_steps("chained", 1e-2, 1.0, order=1, rate=rate, leading=leading)
    assert (plan.steps, plan.set_by, plan.leading) == (steps, set_by, leading)
    a, b = leading
    d = 1.0 / steps
    assert plan.predicted_error == min(steps * rate * d**2, steps * (a * d * d + b * d * d * d))
    fewer = 1.0 / (steps - 1)
    assert (steps - 1) * min(rate * fewer**2, a * fewer**2 + b * fewer**3) > 1e-2


@pytest.mark.parametrize("kind, n, seed", [
    ("pair", 2, 0), ("pair", 2, 1), ("chain", 4, 0), ("chain", 5, 2), ("a2a", 4, 0), ("a2a", 5, 1),
])
def test_the_leading_error_is_half_the_norm_of_the_summed_commutators(kind, n, seed):
    # a = ||C||/2 for C = sum_j [F_j, B_j] from full-register matrices, and
    # the one-step error divided by d^2 tends to it as d falls
    rng = np.random.default_rng(seed)
    model, target = _random_register_model(kind, n, rng)
    rate, (a, b) = chained_bounds(model, 1)
    assert rate == chained_rate(model, 1)
    summed = sum(x @ y - y @ x for x, y in _split_mats(model))
    assert abs(a - 0.5 * operator_norm(summed)) <= 1e-12 * a
    for d in (1e-4, 2e-4):
        measured = _make_measure(model, target, d, 1)(1)
        assert abs(measured / d**2 - a) <= 5e-3 * a
        assert measured <= a * d**2 + b * d**3


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["pair", "random"]),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.sampled_from([0.3, 0.1, 0.03, 0.01]),
    t=st.floats(0.1, 2.0),
)
@example(kind="pair", n=2, seed=0, epsilon=0.3, t=2.0)
@example(kind="random", n=6, seed=3, epsilon=0.3, t=2.0)
def test_first_order_two_term_plans_are_sound(kind, n, seed, epsilon, t):
    # up to the longest steps the planner picks: measured with the phase
    # aligned, as verify's default and the benchmark measure it, and never
    # more steps than the rate alone plans
    rng = np.random.default_rng(seed)
    target = random_coupled_pair(rng)
    if kind == "pair":
        n, pair = 2, None
        drift = random_two_body(2, rng, connected=True)
    else:
        drift = random_two_body(n, rng, connected=True)
        pairs = sorted({p.support() for p in drift.terms if p.weight() == 2})
        pair = pairs[int(rng.integers(len(pairs)))]
    model = compile_model(drift, target, pair)
    assume(len(model.factors) <= 70)  # keeps the measure cheap
    register_target = target if pair is None else embed(target, n, pair)
    plan = plan_for_model(model, register_target, t, epsilon, 1, "chained")
    by_rate = plan_steps("chained", epsilon, t, order=1, rate=plan.rate)
    assert plan.steps <= by_rate.steps
    measured = _make_measure(model, register_target, t, 1)(plan.steps)
    assert measured <= plan.predicted_error + ROUNDING


#: the seed-1 ``a2a-n4-chained-o1`` job of bench/workloads.py: an
#: all-to-all Heisenberg drift and a pair target on its sites 0 and 3
_A2A_COUPLINGS = {
    (0, 1): (1.119615859279665, 1.1082618152694792, 1.122230606444568),
    (0, 2): (0.6837960139394139, 0.6837232002372617, 0.6836638480930639),
    (0, 3): (0.5441172733763043, 0.5440235193167154, 0.5430430495624131),
    (1, 2): (0.7951165196137593, 0.7989065522265333, 0.7939387192451736),
    (1, 3): (0.7517689342402072, 0.7613401082462218, 0.763124741263871),
    (2, 3): (0.8904859804329539, 0.8948044315886031, 0.8937283280406528),
}
_A2A_TARGET = build_expansion(
    2, [("XX", 0.7654466952945524), ("ZZ", 0.21267585724251115), ("IZ", -0.2895046933538879)]
)


def test_the_leading_error_bound_plans_the_seeded_all_to_all_model():
    # the decoupling frames' commutators cancel in C: the rate's 40 steps
    # become 13, and each plan measures within its prediction, as it would
    # not without the remainder (2 steps at 1e-2, measuring above a t^2 / 2)
    terms = []
    for (i, j), strengths in _A2A_COUPLINGS.items():
        for axis, c in zip("XYZ", strengths):
            terms.append(("".join(axis if q in (i, j) else "I" for q in range(4)), c))
    model = compile_model(build_expansion(4, terms), _A2A_TARGET, (0, 3))
    target, t = embed(_A2A_TARGET, 4, (0, 3)), 0.3
    measure = _make_measure(model, target, t, 1)
    plan = plan_for_model(model, target, t, 1e-2, 1, "chained")
    assert plan_steps("chained", 1e-2, t, order=1, rate=plan.rate).steps == 40
    assert (plan.steps, plan.set_by) == (13, "leading")
    for epsilon in (0.3, 0.1, 0.03, 0.01):
        plan = plan_for_model(model, target, t, epsilon, 1, "chained")
        assert measure(plan.steps) <= plan.predicted_error + ROUNDING
    a = plan.leading[0]
    assert measure(2) > 2 * a * (t / 2) ** 2


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
        plan_steps("chained", 0.1, 1.0)  # order and rate missing
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

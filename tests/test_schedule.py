"""Schedule semantics: operator ordering, canonicalization, evaluation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_layer, random_two_body
from hamrc import schedule
from hamrc.schedule import Listing
from hamrc import (
    Drift,
    InvalidTerm,
    LocalLayer,
    PauliString,
    Schedule,
    TooLarge,
    build_expansion,
    canonicalize,
    dense_of_expansion,
    dense_of_pauli,
    distance,
    evaluate_schedule,
    expm_hermitian,
    operator_norm,
    serialize_schedule,
    unitarity_defect,
)

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_layer_validates_factors():
    with pytest.raises(InvalidTerm):
        LocalLayer({0: np.eye(3)})
    with pytest.raises(InvalidTerm):
        LocalLayer({0: np.array([[1.0, 0.0], [0.0, 2.0]])})
    # a nan defect compares false both ways
    with pytest.raises(InvalidTerm):
        LocalLayer({0: np.full((2, 2), np.nan)})
    with pytest.raises(InvalidTerm):
        LocalLayer({0: np.array([[1.0, 0.0], [0.0, np.nan]])})


def test_instruction_list_is_operator_ordered(sample_drift):
    # [U, drift(t), U^dag] must evaluate to exp(-i t U H U^dag)
    layer = LocalLayer({0: HAD, 1: HAD})
    sched = Schedule(
        2, (((layer, Drift(0.3), layer.dagger()), 1),)
    )
    got = evaluate_schedule(sched, sample_drift)
    h = dense_of_expansion(sample_drift)
    u = layer.dense(2)
    want = expm_hermitian(u @ h @ u.conj().T, 0.3)
    assert distance(want, got, phase_align=False) < 1e-12


def test_last_instruction_acts_first_on_states(sample_drift):
    x0 = LocalLayer({0: dense_of_pauli(PauliString("X"))})
    z0 = LocalLayer({0: dense_of_pauli(PauliString("Z"))})
    sched = Schedule(2, (((x0, z0), 1),))  # X after Z in time
    got = evaluate_schedule(sched, sample_drift)
    want = np.kron(
        dense_of_pauli(PauliString("X")) @ dense_of_pauli(PauliString("Z")),
        np.eye(2),
    )
    assert np.allclose(got, want)


def test_phase_multiplies_evaluation(sample_drift):
    sched = Schedule(2, (((Drift(0.2),), 1),), phase=0.9)
    bare = Schedule(2, (((Drift(0.2),), 1),))
    got = evaluate_schedule(sched, sample_drift)
    want = np.exp(1j * 0.9) * evaluate_schedule(bare, sample_drift)
    assert np.allclose(got, want)


def test_canonicalize_merges_and_preserves_value(sample_drift):
    layer = LocalLayer({0: HAD})
    raw = Schedule(
        2,
        ((
            (
                Drift(0.1),
                Drift(0.2),
                layer,
                layer,  # HAD twice = identity, cancels out
                Drift(0.0),
                Drift(0.3),
                LocalLayer({}),
            ),
            1,
        ),),
        phase=0.4,
    )
    canon = canonicalize(raw)
    # drifts fuse across the cancelled layer pair and the zero drift
    assert canon.instructions == (Drift(0.1 + 0.2 + 0.3),)
    assert canon.phase == 0.4
    a = evaluate_schedule(raw, sample_drift)
    b = evaluate_schedule(canon, sample_drift)
    assert distance(a, b, phase_align=False) < 1e-12


def test_canonicalize_keeps_metadata(sample_drift):
    raw = Schedule(2, (((Drift(0.1), Drift(0.1)), 1),), raw_drift_periods=2,
                   predicted_error=0.5)
    canon = canonicalize(raw)
    assert canon.raw_drift_periods == 2
    assert canon.predicted_error == 0.5
    assert canon.drift_count() == 1
    assert abs(canon.total_drift_time() - 0.2) < 1e-15


def test_evaluation_respects_dense_cap(monkeypatch):
    big = build_expansion(11, [("XX" + "I" * 9, 1.0)])
    sched = Schedule(11, (((Drift(0.1),), 1),))
    with pytest.raises(TooLarge):
        evaluate_schedule(sched, big)
    # raising the cap through the environment allows it
    monkeypatch.setenv("HAMRC_DENSE_CAP", "11")
    w = evaluate_schedule(sched, big)
    assert unitarity_defect(w) < 1e-10


def test_drift_duration_must_be_nonnegative():
    with pytest.raises(InvalidTerm):
        Drift(-0.1)


@pytest.mark.parametrize("tau", [float("inf"), float("nan")])
def test_drift_duration_must_be_finite(tau):
    with pytest.raises(InvalidTerm):
        Drift(tau)


@pytest.mark.parametrize("site", [5, -1])
def test_a_layer_outside_the_register_is_refused(site):
    layer = LocalLayer({site: HAD})
    with pytest.raises(InvalidTerm, match="outside register of 2"):
        Schedule(2, (((layer, Drift(0.1)), 1),))
    # a listing is checked by its table
    with pytest.raises(InvalidTerm, match="outside register of 2"):
        Schedule(2, ((Listing([Drift(0.1), layer], [0, 1, 0]), 1),))


def test_schedule_equality_ignores_plan_metadata():
    a = Schedule(2, (((Drift(0.1),), 1),), raw_drift_periods=5)
    b = Schedule(2, (((Drift(0.1),), 1),), raw_drift_periods=9, predicted_error=1.0)
    assert a == b
    assert a != Schedule(2, (((Drift(0.1),), 1),), phase=0.2)


# ----------------------------------------------------------------------
# the shared-product evaluator and the memoized canonicalization against
# the plain left-to-right loops they replace


def reference_evaluate(sched, drift):
    """One matrix product per instruction, left to right."""
    evals, vecs = np.linalg.eigh(dense_of_expansion(drift))
    w = np.eye(2**sched.n, dtype=complex)
    for ins in sched.instructions:
        if isinstance(ins, Drift):
            op = (vecs * np.exp(-1j * evals * ins.tau)) @ vecs.conj().T
        else:
            op = ins.dense(sched.n)
        w = w @ op
    return np.exp(1j * sched.phase) * w


def _reference_merge(a, b):
    out = dict(a.factors)
    for q, u in b.factors.items():
        out[q] = out[q] @ u if q in out else u
    return LocalLayer(
        {q: u for q, u in out.items() if np.abs(u - np.eye(2)).max() > 1e-12}
    )


def reference_canonicalize(sched):
    """A fresh merge at every seam, then a second drift-fusing pass."""
    out = []
    for ins in sched.instructions:
        if isinstance(ins, Drift):
            if ins.tau == 0.0:
                continue
            if out and isinstance(out[-1], Drift):
                out[-1] = Drift(out[-1].tau + ins.tau)
            else:
                out.append(ins)
        elif out and isinstance(out[-1], LocalLayer):
            merged = _reference_merge(out[-1], ins)
            if merged.factors:
                out[-1] = merged
            else:
                out.pop()
        elif ins.factors:
            out.append(ins)
    fused = []
    for ins in out:
        if isinstance(ins, Drift) and fused and isinstance(fused[-1], Drift):
            fused[-1] = Drift(fused[-1].tau + ins.tau)
        else:
            fused.append(ins)
    return Schedule(sched.n, ((tuple(fused), 1),), sched.phase,
                    raw_drift_periods=sched.raw_drift_periods)


@st.composite
def schedules(draw, *, cancelling=False, sizes=(1, 4), max_repeats=200):
    """Schedules over a small pool: ``step * k`` or one unrepeated list.

    Pool layers are reused as objects; an unrepeated list also holds
    value-equal copies, so sharing by key and by object both occur.
    With ``cancelling`` the pool adds each layer's inverse, an identity
    layer and a zero drift.  ``sizes`` bounds the register, and
    ``max_repeats`` the ``k``.
    """
    n = draw(st.integers(*sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = [random_layer(rng, n) for _ in range(draw(st.integers(1, 4)))]
    taus = rng.uniform(0.05, 1.0, size=draw(st.integers(1, 3)))
    pool = layers + [Drift(float(t)) for t in taus]
    if cancelling:
        pool += [layer.dagger() for layer in layers] + [LocalLayer({}), Drift(0.0)]
    pick = st.integers(0, len(pool) - 1)
    phase = draw(st.floats(-np.pi, np.pi))
    if draw(st.booleans()):
        step = [pool[i] for i in draw(st.lists(pick, min_size=1, max_size=12))]
        instructions = step * draw(st.integers(1, max_repeats))
    else:
        instructions = []
        for i in draw(st.lists(pick, max_size=60)):
            ins = pool[i]
            if isinstance(ins, LocalLayer) and draw(st.booleans()):
                ins = LocalLayer(ins.factors)
            instructions.append(ins)
    return Schedule(n, ((tuple(instructions), 1),), phase)


def _check_against_the_left_to_right_product(sched, drift_seed):
    drift = random_two_body(sched.n, np.random.default_rng(drift_seed))
    if not drift.terms:
        drift = build_expansion(sched.n, [("Z" * sched.n, 1.0)])
    got = evaluate_schedule(sched, drift)
    want = reference_evaluate(sched, drift)
    assert operator_norm(got - want) < 1e-12


@settings(max_examples=60)
@given(sched=schedules(), drift_seed=st.integers(0, 2**32 - 1))
def test_evaluation_matches_the_left_to_right_product(sched, drift_seed):
    _check_against_the_left_to_right_product(sched, drift_seed)


@settings(max_examples=8)
@given(sched=schedules(sizes=(6, 7), max_repeats=12), drift_seed=st.integers(0, 2**32 - 1))
def test_grammar_evaluation_matches_the_left_to_right_product(sched, drift_seed):
    _check_against_the_left_to_right_product(sched, drift_seed)


def _leaves_under(pairs, root, leaves):
    """Leaf ids under ``root``, left to right."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if node < leaves:
            out.append(node)
        else:
            stack += reversed(pairs[node - leaves])
    return out


@given(
    runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9)), min_size=1, max_size=30),
    copies=st.integers(1, 4),
)
@example(runs=[(0, 64)], copies=1)  # one long run: every other pair overlaps
@example(runs=[(0, 7), (1, 1), (0, 7)], copies=3)
def test_grammar_expands_to_its_sequence(runs, copies):
    seq = [leaf for leaf, length in runs for _ in range(length)] * copies
    pairs, root = schedule._grammar_tree(seq, 4)
    assert _leaves_under(pairs, root, 4) == seq
    assert len(set(pairs)) == len(pairs)


def _loop_product_tree(seq, leaves):
    """The pairwise tree paired by the dict loop alone, level after level."""
    nodes = {}
    level = list(seq)
    while len(level) > 1:
        up = [nodes.setdefault(pair, leaves + len(nodes)) for pair in zip(level[::2], level[1::2])]
        if len(level) % 2:
            up.append(level[-1])
        level = up
    return list(nodes), level[0]


@st.composite
def id_sequences(draw):
    """Leaf ids: a lead then a period repeated (the last copy cut short), random ids, or one run."""
    leaves = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(1, 3 * schedule.NUMPY_LEVEL))
    kind = draw(st.sampled_from(["periodic", "random", "run"]))
    if kind == "periodic":
        period = rng.integers(0, leaves, draw(st.integers(1, 12)))
        lead = rng.integers(0, leaves, draw(st.integers(0, 3)))
        seq = np.r_[lead, np.resize(period, length)]
    elif kind == "random":
        seq = rng.integers(0, leaves, length)
    else:
        seq = np.full(length, rng.integers(0, leaves))
    return seq.tolist(), leaves


@settings(max_examples=80)
@given(case=id_sequences())
@example(case=([8] + [0, 1, 2, 3, 4, 5, 6, 1] * 4935, 9))  # 39,481 ids, as a CNOT file's body
@example(case=([3] * 40_001, 4))  # one long run of a single id, odd length
@example(case=(np.random.default_rng(5).integers(0, 40, 5_001).tolist(), 40))
def test_numpy_levels_make_the_nodes_of_the_loop(case):
    seq, leaves = case
    want = _loop_product_tree(seq, leaves)
    # numpy on every level, on the long levels only, and on an id array
    for cut in (2, schedule.NUMPY_LEVEL):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schedule, "NUMPY_LEVEL", cut)
            assert schedule._product_tree(seq, leaves) == want
            assert schedule._product_tree(np.array(seq, dtype=np.intp), leaves) == want


@pytest.mark.parametrize("n,built", [(5, ("_product_tree", 11)), (6, ("_grammar_tree", 5))])
def test_grammar_builds_the_product_from_six_qubits(monkeypatch, n, built):
    # a period of three instructions sits across the pairwise tree's pairs,
    # so the tree needs 11 products where the grammar needs 5
    assert schedule.GRAMMAR_QUBITS == 6
    calls = []

    def spy(name):
        real = getattr(schedule, name)

        def record(seq, leaves):
            pairs, root = real(seq, leaves)
            calls.append((name, len(pairs)))
            return pairs, root

        return record

    for name in ("_product_tree", "_grammar_tree"):
        monkeypatch.setattr(schedule, name, spy(name))
    rng = np.random.default_rng(6)
    sched = Schedule(n, (((random_layer(rng, n), Drift(0.3), random_layer(rng, n)) * 8, 1),))
    drift = random_two_body(n, rng, connected=True)
    got = evaluate_schedule(sched, drift)
    assert calls[-1] == built  # the grammar pairs up its last ids by the tree
    assert operator_norm(got - reference_evaluate(sched, drift)) < 1e-12


def test_empty_schedule_evaluates_to_its_phase(sample_drift):
    got = evaluate_schedule(Schedule(2, (), phase=0.7), sample_drift)
    assert np.array_equal(got, np.exp(1j * 0.7) * np.eye(4))


@settings(max_examples=60)
@given(sched=schedules(cancelling=True))
def test_canonicalize_matches_the_fresh_merge_fold(sched):
    got = canonicalize(sched)
    want = reference_canonicalize(sched)
    assert got == want
    assert serialize_schedule(got) == serialize_schedule(want)
    kinds = [type(ins) for ins in got.instructions]
    assert all(a is not b for a, b in zip(kinds, kinds[1:]))


def test_canonicalize_shares_one_layer_per_repeated_seam():
    a, b = LocalLayer({0: HAD}), LocalLayer({1: HAD})
    canon = canonicalize(Schedule(2, (((a, Drift(0.1), b) * 5, 1),)))
    seams = [ins for ins in canon.instructions[1:-1] if isinstance(ins, LocalLayer)]
    assert len(seams) == 4
    assert all(s is seams[0] for s in seams)


# ----------------------------------------------------------------------
# repeated blocks against the plain fold and product of their expansion

_RNG = np.random.default_rng(14)
_L, _M = random_layer(_RNG, 2), random_layer(_RNG, 2)
#: shared objects, as a step model shares its frame layers across steps
BLOCK_POOL = (
    _L, _L.dagger(), _M, Drift(0.3), Drift(0.0), Drift(-0.0), Drift(0.7),
    LocalLayer(_L.factors),  # a separate object equal to _L
)
BLOCK_DRIFT = random_two_body(2, _RNG)
_pool_lists = st.lists(st.integers(0, len(BLOCK_POOL) - 1), max_size=3)


def test_equal_layers_are_one_value():
    copy = LocalLayer(_L.factors)
    assert copy is not _L and copy == _L and hash(copy) == hash(_L)
    assert len({_L, copy, _M}) == 2
    # a body holding both objects keeps one of them, written as one layer record
    body = Schedule(2, (((_L, Drift(0.3), copy), 1),)).blocks[0][0]
    assert type(body) is Listing and len(body.table) == 2 and body.table[0] is _L
    assert body.ids.tolist() == [0, 1, 0]
    lines = serialize_schedule(Schedule(2, ((body, 1),))).splitlines()
    assert {ln.split()[1] for ln in lines if ln.startswith("layer ")} == {"0"}
    assert [ln for ln in lines if ln.startswith("local ")] == ["local 0"] * 2


@settings(max_examples=80)
@given(
    step=st.lists(st.integers(0, len(BLOCK_POOL) - 1), min_size=1, max_size=8),
    lead=_pool_lists,
    trail=_pool_lists,
    count=st.integers(1, 7),
)
@example(step=[0, 3, 1], lead=[], trail=[], count=7)  # [L, D, L^dag]: the seam cancels
@example(step=[3], lead=[2], trail=[2], count=7)  # [D]: the drifts keep fusing
@example(step=[3, 0], lead=[], trail=[1, 6], count=7)  # the trail cancels into a settled copy
def test_block_canonicalize_and_evaluate_match_the_expansion(step, lead, trail, count):
    def pick(ids):
        return [BLOCK_POOL[i] for i in ids]

    blocks = [(pick(lead), 1), (pick(step), count), (pick(trail), 1)]
    sched = Schedule(2, blocks + [(pick(step), 0)], phase=0.2)
    # list bodies become listings with the same expansion; empty bodies and
    # zero counts are dropped
    assert [(tuple(body), k) for body, k in sched.blocks] == [
        (tuple(body), k) for body, k in blocks if body
    ]
    assert all(type(body) is Listing for body, _ in sched.blocks)
    assert len(sched) == len(sched.instructions)
    flat = Schedule(2, ((sched.instructions, 1),), sched.phase)
    got = canonicalize(sched)
    assert serialize_schedule(got) == serialize_schedule(reference_canonicalize(flat))
    assert got.drift_count() == canonicalize(flat).drift_count()
    assert got.total_drift_time() == canonicalize(flat).total_drift_time()
    for a in (sched, got):
        assert operator_norm(
            evaluate_schedule(a, BLOCK_DRIFT) - reference_evaluate(flat, BLOCK_DRIFT)
        ) < 1e-12


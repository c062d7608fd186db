"""Schedule semantics: operator ordering, canonicalization, evaluation."""

import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    clifford_layer,
    dense_of_pauli,
    interned,
    random_layer,
    random_two_body,
    unitarity_defect,
    value_key,
    without_runs,
    xz_chain,
)
from hamrc import schedule, synth
from hamrc.bounds import MAX_PLAN_STEPS
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
    compile_cnot,
    dense_of_expansion,
    distance,
    evaluate_schedule,
    expm_hermitian,
    operator_norm,
    parse_schedule,
    serialize_schedule,
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
    # with several sites, the first failing site in site order is named
    bad, bad2 = np.diag([1.0, 2.0]), np.diag([3.0, 1.0])
    with pytest.raises(InvalidTerm, match="on site 3 "):
        LocalLayer({0: HAD, 3: bad})
    for factors in ({0: bad, 2: bad2}, {2: bad2, 0: bad}):
        with pytest.raises(InvalidTerm, match="on site 0 "):
            LocalLayer(factors)
    with pytest.raises(InvalidTerm, match="on site 1 "):
        LocalLayer.from_stack([2, 0, 1], [bad, HAD, bad2])


def test_layer_sites_are_integers():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    # a float site once made a layer that acts nowhere, and a bool or float
    # site a file that does not parse
    for site in (0.5, 1.0, "1", None):
        with pytest.raises(InvalidTerm, match="not an integer"):
            LocalLayer({site: x})
        with pytest.raises(InvalidTerm, match="not an integer"):
            LocalLayer.from_stack([site], [x])
    for site in (True, np.int64(1), 1):
        layer = LocalLayer({site: x})
        assert layer.sites() == (1,) and type(layer.sites()[0]) is int
        assert layer == LocalLayer.from_stack([site], [x]) == LocalLayer({1: x})
        sched = Schedule(2, (((layer, Drift(0.5)), 1),))
        assert "layer 0 1 0 0 1 0 1 0 0 0" in serialize_schedule(sched).splitlines()
        assert parse_schedule(serialize_schedule(sched)) == sched


def test_layer_factors_are_read_only():
    layer = LocalLayer({0: HAD, 2: HAD})
    twin = LocalLayer({0: HAD, 2: HAD})
    with pytest.raises(TypeError):
        layer.factors[1] = HAD
    with pytest.raises(TypeError):
        del layer.factors[0]
    views = [*layer.factors.values(), layer.stack, layer.factor(0), layer.factor(1)]
    assert not any(u.flags.writeable for u in views)
    with pytest.raises(ValueError):
        layer.factors[0][0, 0] = 2.0
    assert layer.sites() == (0, 2) and layer == twin
    assert layer.dense(3).tobytes() == twin.dense(3).tobytes()


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


@pytest.mark.parametrize("count", [-2, 2.5, "3", None])
def test_a_block_count_is_a_nonnegative_integer(count):
    with pytest.raises(InvalidTerm, match="block count"):
        Schedule(2, (([Drift(0.3)], count),))


@pytest.mark.parametrize("ids", [[0, 2], [-1, 0]])
def test_a_listing_id_outside_its_table_is_refused(ids):
    with pytest.raises(InvalidTerm, match="outside its table of 2"):
        Schedule(2, ((Listing([Drift(0.1), Drift(0.2)], ids), 1),))


def test_listings_of_fresh_tables_keep_their_own_instructions():
    # each listing views a table made for it alone, which is freed once the
    # generator moves on, so a later table may be made at the same address
    had = LocalLayer({0: HAD})
    taus = [0.1 * (k + 1) for k in range(40)]
    sched = Schedule(2, ((Listing([Drift(tau), had], [1, 0]), 1) for tau in taus))
    assert sched.instructions == tuple(chain.from_iterable((had, Drift(tau)) for tau in taus))
    assert sched.table == (had, *map(Drift, taus))
    # views of two tables, taken in turn
    a, b = [Drift(0.1), had], [Drift(0.2)]
    sched = Schedule(2, [(Listing(a, [0, 1]), 1), (Listing(b, [0]), 2), (Listing(a, [1, 1]), 1)])
    assert sched.instructions == (Drift(0.1), had, Drift(0.2), Drift(0.2), had, had)
    assert sched.table == (Drift(0.1), had, Drift(0.2))


def test_a_zero_count_drops_its_block():
    had = LocalLayer({0: HAD})
    sched = Schedule(2, (([Drift(0.3)], 0), ([Drift(0.1)], np.int64(2)), ([had], True)))
    assert [(tuple(body), k) for body, k in sched.blocks] == [((Drift(0.1),), 2), ((had,), 1)]
    assert all(type(k) is int for _, k in sched.blocks)
    assert sched.drift_count() == len(sched) - 1 == 2


def test_schedule_equality_ignores_plan_metadata():
    a = Schedule(2, (((Drift(0.1),), 1),), raw_drift_periods=5)
    b = Schedule(2, (((Drift(0.1),), 1),), raw_drift_periods=9, predicted_error=1.0)
    assert a == b
    assert a != Schedule(2, (((Drift(0.1),), 1),), phase=0.2)


# ----------------------------------------------------------------------
# the shared-product evaluator and the memoized canonicalization against
# the plain left-to-right loops they replace


def reference_evaluate(sched, drift):
    """One matrix product per instruction, left to right; each instruction
    object's matrix is built once."""
    evals, vecs = np.linalg.eigh(dense_of_expansion(drift))
    w = np.eye(2**sched.n, dtype=complex)
    ops = {}
    for ins in sched.instructions:
        op = ops.get(id(ins))
        if op is None:
            if isinstance(ins, Drift):
                op = (vecs * np.exp(-1j * evals * ins.tau)) @ vecs.conj().T
            else:
                op = ins.dense(sched.n)
            ops[id(ins)] = op
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
    ``max_repeats`` the ``k``.  Clifford layers and their daggers join the
    Haar-random ones, so products see exact and signed zeros.
    """
    n = draw(st.integers(*sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = [random_layer(rng, n) for _ in range(draw(st.integers(1, 4)))]
    cliffords = [clifford_layer(rng, n) for _ in range(draw(st.integers(0, 2)))]
    layers += cliffords + [layer.dagger() for layer in cliffords]
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
    cuts=st.lists(st.integers(1, 300), max_size=3),
)
@example(runs=[(0, 64)], copies=1, cuts=[])  # one long run: every other pair overlaps
@example(runs=[(0, 7), (1, 1), (0, 7)], copies=3, cuts=[])
@example(runs=[(0, 64)], copies=1, cuts=[31])  # a run across a cut
def test_grammar_expands_to_its_sequence(runs, copies, cuts):
    seq = [leaf for leaf, length in runs for _ in range(length)] * copies
    # the sequence cut into pieces, each at least one id long
    ends = sorted({c for c in cuts if c < len(seq)} | {len(seq)})
    pieces = [seq[a:b] for a, b in zip([0, *ends], ends)]
    pairs, roots = schedule._grammar_tree(pieces, 4)
    assert [_leaves_under(pairs, root, 4) for root in roots] == pieces
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
            for ids in (seq, np.array(seq, dtype=np.intp)):
                nodes = {}
                root = schedule._product_tree(ids, leaves, nodes)
                assert (list(nodes), root) == want


def _bincount_grammar(seqs, leaves):
    """``_grammar_tree`` as it counted pairs before: one ``np.bincount``
    over every code below ``top^2``."""
    s = np.concatenate([np.asarray(seq, dtype=np.int64) for seq in seqs])
    cut = np.zeros(max(len(s) - 1, 0), dtype=bool)
    cut[np.cumsum([len(seq) for seq in seqs[:-1]], dtype=np.intp) - 1] = True
    pairs = []
    while len(s) > 2:
        top = leaves + len(pairs)
        codes = s[:-1] * top + s[1:]
        same = (s[:-1] == s[1:]) & ~cut
        if same.any():
            at = np.arange(len(same))
            run_start = np.maximum.accumulate(np.where(same & ~np.r_[False, same[:-1]], at, 0))
            codes[same & ((at - run_start) % 2 == 1)] = top * top
        codes[cut] = top * top
        counts = np.bincount(codes)
        counts[top * top:] = 0
        best = counts.argmax()
        if counts[best] < 2:
            break
        where = np.flatnonzero(codes == best)
        pairs.append((int(s[where[0]]), int(s[where[0] + 1])))
        s[where] = top
        s = np.delete(s, where + 1)
        cut = np.delete(cut, where)
    tree, roots = schedule._product_trees(np.split(s, np.flatnonzero(cut) + 1), leaves + len(pairs))
    return pairs + tree, roots


@settings(max_examples=80)
@given(case=id_sequences(), cuts=st.lists(st.integers(1, 3 * schedule.NUMPY_LEVEL), max_size=3))
@example(case=([0] * 64, 1), cuts=[31])
@example(case=([0, 1] * 40 + [1, 0] * 40, 2), cuts=[])  # ties between pair codes
def test_grammar_counts_pairs_as_the_bincount_did(case, cuts):
    seq, leaves = case
    ends = sorted({c for c in cuts if c < len(seq)} | {len(seq)})
    pieces = [seq[a:b] for a, b in zip([0, *ends], ends)]
    assert schedule._grammar_tree(pieces, leaves) == _bincount_grammar(pieces, leaves)


def test_the_grammar_counts_pairs_in_memory_of_the_body():
    # a count per code below top^2 took 140 MB here
    seq = np.random.default_rng(3).integers(0, 3000, 20_000)
    tracemalloc.start()
    try:
        pairs, roots = schedule._grammar_tree([seq], 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _leaves_under(pairs, roots[0], 3000) == seq.tolist()
    assert peak < 8_000_000


@pytest.mark.parametrize("n,built", [(5, ("_product_tree", 11)), (6, ("_grammar_tree", 5))])
def test_grammar_builds_the_product_from_six_qubits(monkeypatch, n, built):
    # a period of three instructions sits across the pairwise tree's pairs,
    # so the tree needs 11 products where the grammar needs 5
    assert schedule.GRAMMAR_QUBITS == 6
    calls = []

    def spy(name):
        real = getattr(schedule, name)

        def record(seq, leaves, *nodes):
            # the tree adds its pairs to the shared nodes; the grammar returns its own
            got = real(seq, leaves, *nodes)
            calls.append((name, len(nodes[0]) if nodes else len(got[0])))
            return got

        return record

    for name in ("_product_tree", "_grammar_tree"):
        monkeypatch.setattr(schedule, name, spy(name))
    rng = np.random.default_rng(6)
    sched = Schedule(n, (((random_layer(rng, n), Drift(0.3), random_layer(rng, n)) * 8, 1),))
    drift = random_two_body(n, rng, connected=True)
    got = evaluate_schedule(sched, drift)
    assert calls[-1] == built  # the grammar pairs up its last ids by the tree
    assert operator_norm(got - reference_evaluate(sched, drift)) < 1e-12


@st.composite
def shared_block_schedules(draw, sizes=(1, 5), max_count=5000):
    """Two to four blocks on ``sizes`` qubits, counts up to ``max_count``,
    whose bodies draw on one pool, so they share instructions, and
    sometimes repeat an earlier body or a part of it."""
    n = draw(st.integers(*sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cliffords = [clifford_layer(rng, n) for _ in range(draw(st.integers(0, 2)))]
    pool = [random_layer(rng, n) for _ in range(draw(st.integers(1, 3)))]
    pool += cliffords + [layer.dagger() for layer in cliffords]
    pool += [Drift(float(t)) for t in rng.uniform(0.05, 1.0, size=draw(st.integers(1, 2)))]
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        if blocks and draw(st.booleans()):
            body = blocks[draw(st.integers(0, len(blocks) - 1))][0]
            body = body[draw(st.integers(0, len(body) - 1)):]
        else:
            body = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
        blocks.append((body, draw(st.integers(1, max_count))))
    return Schedule(n, tuple(blocks), draw(st.floats(-np.pi, np.pi)))


def _check_blocks_and_their_text(sched, drift_seed):
    _check_against_the_left_to_right_product(sched, drift_seed)
    # the schedule's text parses into blocks of its own, evaluated alike
    drift = random_two_body(sched.n, np.random.default_rng(drift_seed))
    if not drift.terms:
        drift = build_expansion(sched.n, [("Z" * sched.n, 1.0)])
    parsed = parse_schedule(serialize_schedule(sched))
    got = evaluate_schedule(parsed, drift)
    assert operator_norm(got - evaluate_schedule(sched, drift)) < 1e-12


@settings(max_examples=25)
@given(sched=shared_block_schedules(), drift_seed=st.integers(0, 2**32 - 1))
def test_blocks_evaluate_as_the_left_to_right_product(sched, drift_seed):
    _check_blocks_and_their_text(sched, drift_seed)


@settings(max_examples=6)
@given(
    sched=shared_block_schedules(sizes=(6, 7), max_count=300),
    drift_seed=st.integers(0, 2**32 - 1),
)
def test_grammar_blocks_evaluate_as_the_left_to_right_product(sched, drift_seed):
    _check_blocks_and_their_text(sched, drift_seed)


def test_the_grammar_reads_each_body_once(monkeypatch):
    # a step repeated MAX_PLAN_STEPS times is one body raised to its count:
    # the grammar never sees the 2^22 copies of its ids
    seen = []
    real = schedule._grammar_tree

    def record(seqs, leaves):
        seen.append([len(seq) for seq in seqs])
        return real(seqs, leaves)

    monkeypatch.setattr(schedule, "_grammar_tree", record)
    rng = np.random.default_rng(7)
    step = (random_layer(rng, 6), Drift(0.3), random_layer(rng, 6), Drift(0.2))
    sched = Schedule(6, ((step[:1], 1), (step, MAX_PLAN_STEPS), (step[2:], 1)))
    got = evaluate_schedule(sched, random_two_body(6, rng, connected=True))
    assert seen == [[1, 4, 2]]
    assert unitarity_defect(got) < 1e-7  # rounding grows with the count, about 2^22 eps


def test_blocks_share_one_node_table(sample_drift):
    # a CNOT file of 20,009 records: the parsed step is the written block,
    # one node raised to its count, where the pairwise tree over the whole
    # file took 32 nodes
    sched = compile_cnot(sample_drift, steps=5000, order=1)
    parsed = parse_schedule(serialize_schedule(sched))
    assert [(len(body), count) for body, count in parsed.blocks] == [
        (len(body), count) for body, count in sched.blocks
    ] == [(8, 1), (4, 4998), (1, 1)]
    leaves, pairs, roots = schedule._product_nodes(parsed)
    assert len(leaves) == 4 and len(pairs) == 5
    assert [count for _, count in roots] == [1, 4998, 1]
    # repeated squaring: bit_length - 1 squarings, and a product for each
    # further set bit; then one product per block after the first
    powers = sum(k.bit_length() - 1 + k.bit_count() - 1 for _, k in roots)
    assert len(pairs) + powers + len(roots) - 1 == 24 < 32
    assert operator_norm(
        evaluate_schedule(parsed, sample_drift) - reference_evaluate(parsed, sample_drift)
    ) < 1e-12


def test_an_order_2_cnot_keeps_its_repeated_step(sample_drift, monkeypatch):
    # each join cancels the step's outer layers and fuses the drifts beside
    # them, so every copy pops what the one before appended
    raw = []

    def record(sched):
        raw.append(sched)
        return canonicalize(sched)

    monkeypatch.setattr(synth, "canonicalize", record)
    sched = compile_cnot(sample_drift, steps=300, order=2)
    assert [(len(body), count) for body, count in sched.blocks] == [(9, 1), (4, 298), (2, 1)]
    flat = replace(raw[0], blocks=((raw[0].instructions, 1),))
    assert without_runs(serialize_schedule(sched)) == serialize_schedule(
        reference_canonicalize(flat)
    )


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
# the batched layer kernels against one layer at a time


def _merge_one(a, b):
    """One seam merged as the fold merged it before seams came in batches."""
    sa, sb = a.sites(), b.sites()
    if sa == sb:
        sites, stack = sa, a.stack @ b.stack
    else:
        shared = [q for q in sa if q in sb]
        products = a.stack.take([sa.index(q) for q in shared], 0) @ b.stack.take(
            [sb.index(q) for q in shared], 0
        )
        row = {q: i for i, q in enumerate((*sa, *sb, *shared))}
        sites = tuple(sorted(row))
        stack = np.concatenate((a.stack, b.stack, products)).take([row[q] for q in sites], 0)
    near = np.abs(stack - np.eye(2)) <= 1e-12
    if near.any():
        kept = ~near.reshape(-1, 4).all(axis=1)
        sites, stack = tuple(q for q, keep in zip(sites, kept.tolist()) if keep), stack[kept]
    return LocalLayer.from_stack(sites, stack)


@st.composite
def seam_lists(draw):
    """Seams over a pool of Haar-random and Clifford layers and their daggers,
    with site sets equal, nested and disjoint, empty layers and cancelling seams."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [random_layer(rng, n) for _ in range(3)] + [clifford_layer(rng, n) for _ in range(3)]
    pool += [layer.dagger() for layer in pool]
    for layer in pool[:4]:
        sites = layer.sites()
        inner = sites[: len(sites) // 2]
        pool.append(LocalLayer({q: layer.factor(q) for q in inner}))  # nested
        pool.append(LocalLayer({q: HAD for q in range(n) if q not in sites}))  # disjoint
        other = random_layer(rng, n)
        pool.append(LocalLayer({q: other.factor(q) for q in sites}))  # equal
    pool.append(LocalLayer({}))
    pick = st.integers(0, len(pool) - 1)
    seams = [(pool[i], pool[j]) for i, j in draw(st.lists(st.tuples(pick, pick), max_size=12))]
    seams += [(pool[i], pool[i].dagger()) for i in draw(st.lists(pick, max_size=3))]
    return n, draw(st.permutations(seams))


@settings(max_examples=80)
@given(case=seam_lists())
def test_batched_merges_equal_one_seam_at_a_time(case):
    n, seams = case
    got = schedule._merge_seams(seams, n)
    assert [m.cache_key() for m in got] == [_merge_one(a, b).cache_key() for a, b in seams]
    assert all(not m.stack.flags.writeable for m in got)


def test_a_batch_names_the_site_the_single_check_names():
    bad, bad2 = np.diag([1.0, 2.0]), np.diag([3.0, 1.0])
    failing = ([2, 0, 1], [bad, HAD, bad2])
    with pytest.raises(InvalidTerm) as single:
        LocalLayer.from_stack(*failing)
    specs = [([0, 1], [HAD, HAD]), failing, ([3], [HAD]), ([1], [bad])]
    with pytest.raises(InvalidTerm) as batch:
        LocalLayer.from_stacks(specs)
    assert "on site 1 " in str(single.value) and str(batch.value) == str(single.value)
    # a merged seam that fails is named the same way, and the others are kept
    a = np.sqrt(1.0 + 0.9e-10)  # each factor passes, their product does not
    u = LocalLayer({1: np.diag([1.0, a]), 2: np.diag([a, 1.0])})
    with pytest.raises(InvalidTerm) as single:
        _merge_one(u, u)
    ok = LocalLayer({0: HAD})
    merged = schedule._merge_seams([(ok, u), (u, u), (ok, ok)], 3)
    assert isinstance(merged[1], InvalidTerm) and str(merged[1]) == str(single.value)
    assert merged[0].cache_key() == _merge_one(ok, u).cache_key() and merged[2].sites() == ()


def test_canonicalize_raises_at_a_failing_seam_only_when_it_reaches_it():
    a = np.sqrt(1.0 + 0.9e-10)
    u = LocalLayer({0: np.diag([a, 1.0])})
    with pytest.raises(InvalidTerm) as want:
        _merge_one(u, u)
    assert "on site 0 has unitarity defect" in str(want.value)
    with pytest.raises(InvalidTerm) as got:
        canonicalize(Schedule(1, (((u, u), 1),)))
    assert str(got.value) == str(want.value)
    # the seam (u, u) is written twice, but the fold merges (v, u) to the
    # identity first and never reaches it
    v = LocalLayer({0: np.diag([1.0 / a, 1.0])})
    for blocks in ((((v, u, u), 1),), (((v,), 1), ((u, u), 1)), (((v, u), 1), ((u,), 1))):
        canon = canonicalize(Schedule(1, blocks))
        assert canon.instructions == (u,)


def full_sites(layer):
    """How many of the layer's factors are neither exactly diagonal nor
    exactly anti-diagonal."""
    return sum(
        (f[0, 1] != 0 or f[1, 0] != 0) and (f[0, 0] != 0 or f[1, 1] != 0)
        for f in layer.stack
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_chunked_leaves_equal_kron_all_per_layer(n, monkeypatch):
    from hamrc.dense import kron_all

    rng = np.random.default_rng(700 + n)
    cliffords = [clifford_layer(rng, n) for _ in range(3)]
    layers = [random_layer(rng, n) for _ in range(4)] + cliffords
    layers += [layer.dagger() for layer in cliffords] + [LocalLayer({}), LocalLayer({0: HAD})]

    def want(layer):
        return kron_all([layer.factor(q) for q in range(n)]).tobytes()

    assert [m.tobytes() for m in schedule._dense_layers(layers, n)] == list(map(want, layers))
    assert all(layer.dense(n).tobytes() == want(layer) for layer in layers)

    body = [ins for layer in layers for ins in (layer, Drift(0.1 + 0.01 * len(layer.sites())))]
    sched = Schedule(n, ((body, 1),))
    drift = build_expansion(n, [("Z" * n, 1.0)] + ([("XX" + "I" * (n - 2), 0.5)] if n > 1 else []))
    whole = evaluate_schedule(sched, drift).tobytes()
    real = schedule._dense_layers

    def record(batch, k):
        mats = real(batch, k)
        calls.append((list(batch), mats.copy()))
        return mats

    # from GRAMMAR_QUBITS up, only the layers with more than two full sites
    # (neither diagonal nor anti-diagonal) are built; the others are
    # multiplied in as phased permutations
    dense_built = [
        layer for layer in dict.fromkeys(layers)
        if n < schedule.GRAMMAR_QUBITS or full_sites(layer) > 2
    ]
    if n >= schedule.GRAMMAR_QUBITS:
        assert LocalLayer({}) not in dense_built and LocalLayer({0: HAD}) not in dense_built
        assert dense_built
    # a chunk of one leaf, of three (which splits the body), and the default
    for chunk, per_chunk in ((1, 1), (3 * 4**n, 3), (schedule.LEAF_CHUNK, None)):
        calls = []
        monkeypatch.setattr(schedule, "LEAF_CHUNK", chunk)
        monkeypatch.setattr(schedule, "_dense_layers", record)
        assert evaluate_schedule(sched, drift).tobytes() == whole
        built = [(layer, m) for batch, mats in calls for layer, m in zip(batch, mats)]
        # each distinct layer built once, in table order
        assert [layer for layer, _ in built] == dense_built
        assert all(m.tobytes() == want(layer) for layer, m in built)
        if per_chunk is not None:
            assert max(len(batch) for batch, _ in calls) == min(per_chunk, len(dense_built))
        monkeypatch.undo()


def test_a_leaf_does_not_keep_a_larger_chunk_alive(monkeypatch):
    n = 3
    rng = np.random.default_rng(9)
    layers = [random_layer(rng, n) for _ in range(6)]
    # the first layer is used again last, so it outlives its chunk's sibling
    body = [ins for layer in layers for ins in (layer, Drift(0.2))] + [layers[0]]
    sched = Schedule(n, ((body, 1),))
    monkeypatch.setattr(schedule, "LEAF_CHUNK", 2 * 4**n)
    real, chunks = schedule._dense_layers, []

    def record(batch, k):
        # each earlier chunk's memory is freed once its leaves are copied out
        assert all(ref() is None for ref in chunks)
        mats = real(batch, k)
        chunks.append(weakref.ref(mats if mats.base is None else mats.base))
        return mats

    monkeypatch.setattr(schedule, "_dense_layers", record)
    evaluate_schedule(sched, build_expansion(n, [("ZZZ", 1.0)]))
    assert len(chunks) == 3


# ----------------------------------------------------------------------
# large registers: layers as phased permutations, real drifts in real
# arithmetic, against the dense products and the complex eigendecomposition

#: factors that are exactly diagonal or exactly anti-diagonal, zeros of
#: both signs among them
MONOMIAL_FACTORS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]).astype(complex),
    np.diag([1.0, 1j]),
    np.array([[1, -0.0], [-0.0, -1j]]),
    np.array([[-0.0, 1j], [-1, -0.0]]),
)
#: a chain file's frame factor: its off-diagonal is 2e-17, not zero
NEAR_Z = np.array([[0.99999999999999978, 2.2371143170757382e-17],
                   [-2.2371143170757382e-17, -0.99999999999999978]], dtype=complex)


def haar(rng):
    u, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return u * (np.diag(r) / np.abs(np.diag(r)))


def mixed_layer(rng, n, full):
    """A layer with Haar factors on ``full`` random sites and diagonal or
    anti-diagonal factors, drawn or random phases, on some of the others."""
    sites = rng.permutation(n)
    factors = {int(q): haar(rng) for q in sites[:full]}
    for q in sites[full:].tolist():
        if rng.random() < 0.3:
            continue
        a, b = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        factors[q] = [*MONOMIAL_FACTORS, np.diag([a, b]), np.array([[0, a], [b, 0]])][
            rng.integers(len(MONOMIAL_FACTORS) + 2)]
    return LocalLayer(factors)


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("full", [0, 1, 2])
def test_phased_permutations_multiply_as_the_dense_layer(n, full):
    rng = np.random.default_rng(100 * n + full)
    layers = [mixed_layer(rng, n, full) for _ in range(6)]
    batch = schedule._phased_permutations(layers, n)
    m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    tol = 1e-13 * operator_norm(m)
    scratch = np.empty_like(m)
    for layer, terms in zip(layers, batch):
        assert full_sites(layer) == full and len(terms[0]) == 2**full
        # the batch splits each layer as it splits it alone
        alone = schedule._phased_permutations([layer], n)[0]
        assert all(np.array_equal(a, b) for a, b in zip(terms, alone))
        dense = layer.dense(n)
        assert np.array_equal(schedule._permuted(terms, np.eye(2**n, dtype=complex), 0, scratch), dense)
        assert operator_norm(schedule._permuted(terms, m, 0, scratch) - dense @ m) <= tol
        assert operator_norm(schedule._permuted(terms, m, 1, scratch) - m @ dense) <= tol


def test_a_tiny_off_diagonal_makes_a_factor_full():
    n = 6
    layer = LocalLayer({1: NEAR_Z, 3: MONOMIAL_FACTORS[0]})
    (x, v), = schedule._phased_permutations([layer], n)
    assert x.tolist() == [0b000100, 0b010100]  # site 3 flips; site 1 both ways
    assert np.abs(v[1]).max() == 2.2371143170757382e-17
    assert np.array_equal(
        schedule._permuted((x, v), np.eye(2**n, dtype=complex), 0, np.empty((2**n, 2**n), complex)),
        layer.dense(n),
    )


def test_a_layer_with_three_full_sites_is_built_densely(monkeypatch):
    n = 6
    rng = np.random.default_rng(31)
    three, two = mixed_layer(rng, n, 3), mixed_layer(rng, n, 2)
    assert schedule._phased_permutations([three, two], n)[0] is None
    sched = Schedule(n, (((three, Drift(0.3), two, Drift(0.2)), 2), ((three,), 1)))
    drift = xz_chain(n)
    built = []
    real = schedule._dense_layers

    def record(batch, k):
        built.extend(batch)
        return real(batch, k)

    monkeypatch.setattr(schedule, "_dense_layers", record)
    got = evaluate_schedule(sched, drift)
    assert built == [three]
    assert operator_norm(got - reference_evaluate(sched, drift)) < 1e-12


@pytest.mark.parametrize("odd_y", [False, True])
def test_a_real_drift_is_diagonalized_in_real_arithmetic(odd_y):
    n = 6
    drift = xz_chain(n)
    if odd_y:
        drift = build_expansion(n, [*drift.items(), ("IIXYII", 0.3)])
    evals, vecs = schedule._drift_eigh(drift)
    assert np.isrealobj(vecs) != odd_y
    rng = np.random.default_rng(32)
    layers = [mixed_layer(rng, n, k) for k in (0, 1, 2, 3)] + [clifford_layer(rng, n)]
    body = [ins for layer in layers for ins in (layer, Drift(0.1 + 0.1 * len(layer.sites())))]
    # a lone layer repeated, two layers in a row and a repeated body
    blocks = ((layers[1:2], 3), ((layers[0], layers[2], Drift(0.4)), 1), (body, 5))
    sched = Schedule(n, blocks, phase=0.3)
    assert operator_norm(evaluate_schedule(sched, drift) - reference_evaluate(sched, drift)) < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_large_register_routes_run_from_grammar_qubits_up(n, monkeypatch):
    from hamrc import embed, pair_step_model

    kernel, eigh = schedule._phased_permutations, np.linalg.eigh
    calls, real = [], []

    def spy_kernel(layers, k):
        calls.append(k)
        return kernel(layers, k)

    def spy_eigh(a, *args, **kwargs):
        if a.shape[-1] == 2**n:  # the drift's; the goal is built on the pair
            real.append(np.isrealobj(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(schedule, "_phased_permutations", spy_kernel)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    rng = np.random.default_rng(33)
    drift = xz_chain(n)
    layers = [mixed_layer(rng, n, 1), clifford_layer(rng, n)]
    sched = Schedule(n, (((layers[0], Drift(0.2), layers[1], Drift(0.1)), 3),))
    evaluate_schedule(sched, drift)
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    model = pair_step_model(drift, (0, 1), target)
    synth._make_measure(model, embed(target, n, (0, 1)), 0.5, 2)(2)
    large = n >= schedule.GRAMMAR_QUBITS
    assert calls == ([n] * 2 if large else [])
    # the drift once for each, a real matrix from 6 qubits up
    assert real == [large] * 2


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
    sched = Schedule(2, (((_L, Drift(0.3), copy), 1),))
    body = sched.blocks[0][0]
    assert len(sched.table) == 2 and sched.table[0] is _L
    assert type(body) is Listing and body.table is sched.table
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
# an order-2 step: the join cancels its outer layers and fuses two drifts
@example(step=[0, 3, 2, 6, 2, 3, 1], lead=[2], trail=[2], count=7)
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
    # every body is a listing of the schedule's one table, its distinct
    # instructions in order of first use
    assert all(type(body) is Listing and body.table is sched.table for body, _ in sched.blocks)
    table, ids = interned(sched.instructions)
    assert len(table) == len(sched.table) and all(a is b for a, b in zip(table, sched.table))
    assert [i for body, k in sched.blocks for i in body.ids.tolist() * k] == ids
    assert len(sched) == len(sched.instructions)
    flat = Schedule(2, ((sched.instructions, 1),), sched.phase)
    got = canonicalize(sched)
    # the same records; only the blocked one has run comments
    text = without_runs(serialize_schedule(got))
    assert text == serialize_schedule(reference_canonicalize(flat))
    assert got.drift_count() == canonicalize(flat).drift_count()
    assert got.total_drift_time() == canonicalize(flat).total_drift_time()
    # no two blocks of count 1 in a row, so the file reads back these
    # blocks and evaluates bit for bit as the schedule
    assert not any(a == b == 1 for (_, a), (_, b) in zip(got.blocks, got.blocks[1:]))
    back = parse_schedule(serialize_schedule(got))
    assert np.array_equal(evaluate_schedule(back, BLOCK_DRIFT), evaluate_schedule(got, BLOCK_DRIFT))
    for a in (sched, got):
        assert operator_norm(
            evaluate_schedule(a, BLOCK_DRIFT) - reference_evaluate(flat, BLOCK_DRIFT)
        ) < 1e-12


# ----------------------------------------------------------------------
# the one table: built once, and read as it is


def _joined_ids(sched):
    """Each block's ids and count, with each stretch of count-1 blocks
    joined into one, as its file parses."""
    out = []
    for body, count in sched.blocks:
        if count == 1 and out and out[-1][1] == 1:
            out[-1] = (out[-1][0] + body.ids.tolist(), 1)
        else:
            out.append((body.ids.tolist(), count))
    return out


@settings(max_examples=80)
@given(blocks=st.lists(st.tuples(_pool_lists, st.integers(0, 5)), max_size=5))
def test_a_parsed_file_has_its_schedules_table_and_ids(blocks):
    sched = Schedule(2, [([BLOCK_POOL[i] for i in body], k) for body, k in blocks], phase=0.2)
    back = parse_schedule(serialize_schedule(sched))
    # the table by value and in the same order, and the ids of the blocks
    assert list(map(value_key, back.table)) == list(map(value_key, sched.table))
    assert _joined_ids(back) == _joined_ids(sched)
    assert all(body.table is back.table for body, _ in back.blocks)


def test_the_readers_take_the_table_as_it_is(monkeypatch):
    sched = Schedule(2, (((_L, Drift(0.3), _M), 5), ((_M, Drift(0.7), _L.dagger()), 1)))
    keyed = []
    for name in ("cache_key", "__hash__", "__eq__"):
        real = getattr(LocalLayer, name)
        monkeypatch.setattr(LocalLayer, name, lambda *a, real=real: keyed.append(a) or real(*a))
    leaves, _, _ = schedule._product_nodes(sched)
    assert leaves is sched.table
    text = serialize_schedule(sched)
    assert keyed == []
    # the parsed schedule interns each layer record it uses once, by its key
    parsed = parse_schedule(text)
    assert [a[0] for a in keyed] == [ins for ins in parsed.table if isinstance(ins, LocalLayer)]


@settings(max_examples=40)
@given(sched=shared_block_schedules(sizes=(1, 3), max_count=300))
def test_drift_statistics_are_the_exact_sums_of_the_expansion(sched):
    taus = [ins.tau for ins in sched.instructions if isinstance(ins, Drift)]
    flat = Schedule(sched.n, ((sched.instructions, 1),))
    assert sched.drift_count() == flat.drift_count() == len(taus)
    assert sched.total_drift_time() == flat.total_drift_time() == float(sum(map(Fraction, taus)))


def test_drift_statistics_read_each_body_once():
    sched = Schedule(2, (((_L, Drift(0.3), _M, Drift(0.7)), 10**6), ((Drift(0.1),), 1)))
    tracemalloc.start()
    try:
        count, total = sched.drift_count(), sched.total_drift_time()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 * 10**6 + 1
    assert total == float((Fraction(0.3) + Fraction(0.7)) * 10**6 + Fraction(0.1))
    assert peak < 100_000  # the expansion's durations alone would take 16 MB

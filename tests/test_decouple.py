"""Frame averaging that isolates a principal pair inside a register."""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import conjugation_sign, dense_of_pauli, filter_support, random_two_body, xz_chain
from hamrc import (
    HamExpansion,
    HamrcError,
    InvalidTerm,
    NotCoupled,
    PauliString,
    build_expansion,
    compile_on_pair,
    dense_of_expansion,
    distance,
    embed,
    evaluate_schedule,
    expm_hermitian,
    isolate_principal,
)
from hamrc import decouple
from hamrc.decouple import (
    MAX_ORDERED_GENERATORS,
    FrameSet,
    _frame_set,
    _greedy_cover,
    _ordering_error,
    _ordering_parts,
)
from hamrc.dense import evolution
from hamrc.pauli import anticommutes, pack_masks, unpack_masks

CHAIN4 = build_expansion(
    4,
    [
        ("XXII", 1.0), ("IXXI", 0.8), ("IIXX", 1.2),
        ("ZIII", 0.3), ("IZII", -0.4), ("IIZI", 0.5), ("IIIZ", 0.2),
        ("YYII", -0.6), ("IZZI", 0.9),
    ],
)


def _frame_average_dense(ham, frames):
    h = dense_of_expansion(ham)
    acc = np.zeros_like(h)
    for w, f in frames.frames:
        u = dense_of_pauli(f)
        acc += w * (u @ h @ u)
    return acc


# the single-site Pauli product up to phase: row a, column b, in I X Y Z order
_PRODUCT = dict(
    zip((a + b for a in "IXYZ" for b in "IXYZ"), "IXYZ" "XIZY" "YZIX" "ZYXI")
)


def _reference_isolation(ham, pair):
    """Isolation by explicit averaging: four conjugations per round, the
    survivors' coefficients summed and divided by four, and the frames
    composed through the Pauli product table."""

    def conjugators(sites):
        return [
            PauliString("".join(axis if q in sites else "I" for q in range(ham.n)))
            for axis in "IXYZ"
        ]

    def average_round(h, frames):
        acc = {}
        for f in frames:
            for p, c in h.items():
                acc[p] = acc.get(p, 0.0) + conjugation_sign(p, f) * c
        return HamExpansion(h.n, {p: c / 4.0 for p, c in acc.items()})

    rest = [q for q in range(ham.n) if q not in pair]
    rounds = [conjugators(rest)]
    current = average_round(ham, rounds[0])
    blocks = [rest] if rest else []
    while any(
        len(set(p.support()) & set(b)) == 2
        for p in current
        for b in blocks
        if len(b) > 1
    ):
        halves, fronts = [], []
        for b in blocks:
            if len(b) == 1:
                halves.append(b)
                continue
            cut = (len(b) + 1) // 2
            fronts.extend(b[:cut])
            halves.extend([b[:cut], b[cut:]])
        rounds.append(conjugators(fronts))
        current = average_round(current, rounds[-1])
        blocks = halves
    merged = {}
    for combo in product(*rounds):
        frame = combo[0]
        for extra in combo[1:]:
            frame = PauliString(
                "".join(_PRODUCT[a + b] for a, b in zip(frame.ops, extra.ops))
            )
        merged[frame] = merged.get(frame, 0.0) + 0.25 ** len(rounds)
    frames = tuple((w, f) for f, w in merged.items())
    return current, frames, len(rounds) - 1


def _same_axis_drift(n, axis):
    """A same-axis coupling on every pair: the worst case for the rounds."""
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            ops = ["I"] * n
            ops[i] = ops[j] = axis
            entries.append(("".join(ops), 1.0 + 0.1 * i - 0.03 * j))
    return build_expansion(n, entries)


def test_isolation_matches_the_averaging_reference():
    rng = np.random.default_rng(29)
    cases = []
    for n in range(2, 10):
        for density in (0.3, 1.0):
            ham = random_two_body(n, rng, coupling_density=density, connected=True)
            pairs = {(0, 1), (n - 1, 0)}
            pairs.add(tuple(int(q) for q in rng.choice(n, 2, replace=False)))
            cases += [(ham, pair) for pair in sorted(pairs)]
        for axis in "XYZ":
            cases.append((_same_axis_drift(n, axis), (n - 2, n - 1)))
    for ham, pair in cases:
        isolated, frames = isolate_principal(ham, pair)
        want, want_frames, want_depth = _reference_isolation(ham, pair)
        assert isolated == want
        assert len(frames.frames) <= len(want_frames)
        assert sum(w for w, _ in frames.frames) == 1.0
        if len(frames.frames) == len(want_frames):
            # a tie keeps the halving rounds, frame for frame
            assert frames.frames == want_frames
            assert frames.depth == want_depth
        else:
            assert frames.depth == 0
            dense_avg = _frame_average_dense(ham, frames)
            assert np.abs(dense_avg - dense_of_expansion(want)).max() < 1e-12


def test_same_axis_rest_coupling_needs_a_blocking_round():
    # IIXX straddles the final two sites, so the halving rounds need a
    # blocking round (16 frames); one generator anticommutes with every
    # term off the pair
    _, frames = isolate_principal(CHAIN4, (0, 1))
    assert frames.depth == 0
    assert frames.frames == ((0.5, PauliString("IIII")), (0.5, PauliString("IIYX")))


def test_isolation_is_exact_on_coefficients():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5, 6, 7, 8):
        ham = random_two_body(n, rng, connected=True)
        for pair in [(0, 1), (1, n - 1), (n - 1, 0)]:
            isolated, frames = isolate_principal(ham, pair)
            assert isolated == filter_support(ham, pair)
            assert len(frames.frames) <= 16 * n * n
            assert sum(w for w, _ in frames.frames) == pytest.approx(1.0, abs=1e-15)


def test_frame_average_matches_dense_conjugation():
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        ham = random_two_body(n, rng, connected=True)
        isolated, frames = isolate_principal(ham, (0, 2))
        dense_avg = _frame_average_dense(ham, frames)
        assert np.abs(dense_avg - dense_of_expansion(isolated)).max() < 1e-12


def test_zero_outside_terms_needs_no_blocking():
    ham = build_expansion(5, [("XZIII", 1.5), ("ZIIII", 0.2)])
    isolated, frames = isolate_principal(ham, (0, 1))
    assert isolated == ham
    assert frames == FrameSet(((1.0, PauliString("IIIII")),), 0)


def test_two_qubit_register_degenerates_to_one_identity_frame():
    ham = build_expansion(2, [("XZ", 2.0), ("ZI", 1.0)])
    isolated, frames = isolate_principal(ham, (0, 1))
    assert isolated == ham
    assert frames.frames == ((1.0, PauliString("II")),)


def test_frame_counts_by_register_size():
    # a same-axis coupling on every pair forces the halving rounds' worst
    # case, (4, 16, 64, 256) frames: every block keeps an internal coupling
    # until it is a singleton.  The cover needs generators whose X supports
    # give every site off the pair its own nonzero code.
    for n, expect, halving in ((3, 2, 4), (4, 4, 16), (6, 8, 64), (8, 8, 256)):
        entries = []
        for i in range(n):
            for j in range(i + 1, n):
                ops = ["I"] * n
                ops[i] = ops[j] = "Z"
                entries.append(("".join(ops), 1.0))
        ham = build_expansion(n, entries)
        _, frames = isolate_principal(ham, (0, 1))
        assert len(frames.frames) == expect <= halving


def _heisenberg_all_to_all(n, rng):
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            coupling = float(rng.uniform(0.5, 1.5))
            for axis in "XYZ":
                ops = ["I"] * n
                ops[i] = ops[j] = axis
                entries.append(("".join(ops), coupling))
    return build_expansion(n, entries)


def _xz_chain(n, rng):
    entries = []
    for q in range(n - 1):
        ops = ["I"] * n
        ops[q], ops[q + 1] = "X", "Z"
        entries.append(("".join(ops), float(rng.uniform(0.8, 1.2))))
    for q in range(n):
        ops = ["I"] * n
        ops[q] = "Z"
        entries.append(("".join(ops), float(rng.choice([-1, 1]) * rng.uniform(0.1, 0.5))))
    return build_expansion(n, entries)


def test_benchmark_shaped_drifts_need_few_frames():
    # the halving rounds give 16 (n = 4) and 64 (n = 5) frames on every
    # all-to-all pair, and 4 on every chain
    rng = np.random.default_rng(41)
    cases = []
    for n in (4, 5):
        ham = _heisenberg_all_to_all(n, rng)
        cases += [(ham, (i, j), 4) for i in range(n) for j in range(n) if i != j]
    cases += [(_xz_chain(n, rng), (0, 1), 2) for n in (4, 5, 6, 7)]
    for ham, pair, expect in cases:
        isolated, frames = isolate_principal(ham, pair)
        assert isolated == filter_support(ham, pair)
        assert len(frames.frames) == expect, (ham.n, pair)
        assert frames.depth == 0
        assert isolate_principal(ham, pair) == (isolated, frames)


def _pauli_product(a, b):
    """The product of two Pauli strings up to phase, site by site."""
    return PauliString("".join(_PRODUCT[x + y] for x, y in zip(a.ops, b.ops)))


def _reference_frames(ham, pair):
    """The frames and depth ``isolate_principal`` chose with both generator
    sets built in full: the halving rounds of the averaging reference, and
    a brute-force greedy cover (each pick the first string on the sites off
    the pair, in canonical order, that anticommutes with the most terms not
    yet covered), used when it has strictly fewer generators."""
    _, halving, depth = _reference_isolation(ham, pair)
    rest = [q for q in range(ham.n) if q not in pair]
    if 4 ** len(rest) > decouple.MAX_COVER_CANDIDATES:
        return halving, depth
    candidates = []
    for axes in product("IXYZ", repeat=len(rest)):
        ops = ["I"] * ham.n
        for q, axis in zip(rest, axes):
            ops[q] = axis
        candidates.append(PauliString("".join(ops)))
    left = [p for p in ham if set(p.support()) - set(pair)]
    picks = []
    while left:
        counts = [sum(conjugation_sign(p, c) < 0 for p in left) for c in candidates]
        best = candidates[counts.index(max(counts))]
        picks.append(best)
        left = [p for p in left if conjugation_sign(p, best) > 0]
    if len(picks) >= len(halving).bit_length() - 1:  # a tie keeps the halving rounds
        return halving, depth
    group = [PauliString("I" * ham.n)]
    for g in picks:
        group += [_pauli_product(f, g) for f in group]
    return tuple((0.5 ** len(picks), f) for f in group), 0


def test_frames_are_those_of_both_generator_sets_built_in_full():
    # the halving rounds stop once they need more generators than the
    # cover; the frames, weights and order stay those of comparing the two
    # sets in full
    rng = np.random.default_rng(53)
    cases = [(xz_chain(n), pair) for n in range(3, 13) for pair in ((0, 1), (1, 2), (n - 2, n - 1))]
    for n in (3, 4, 5):
        ham = _heisenberg_all_to_all(n, rng)
        cases += [(ham, (i, j)) for i in range(n) for j in range(i + 1, n)]
    for n in range(3, 8):
        for density in (0.3, 1.0, 3.0):
            ham = random_two_body(n, rng, coupling_density=density, connected=True)
            cases.append((ham, tuple(int(q) for q in rng.choice(n, 2, replace=False))))
        cases.append((_same_axis_drift(n, "Y"), (0, n - 1)))
    for ham, pair in cases:
        frames = isolate_principal(ham, pair)[1]
        assert (frames.frames, frames.depth) == _reference_frames(ham, pair), (ham.n, pair)


@pytest.mark.parametrize("n", [48, 63])
def test_large_chains_decouple_by_one_halving_round(n):
    # one round, all-X and all-Y off the pair, cancels every chain term off
    # it; on 63 sites the pair's terms set bit 62, the top bit below an
    # int64's sign, so a sign or shift slip in the masks would show here
    ham = xz_chain(n)
    isolated, frames = isolate_principal(ham, (0, 1))
    assert isolated == filter_support(ham, (0, 1))
    assert frames == FrameSet(
        tuple((0.25, PauliString("II" + axis * (n - 2))) for axis in "IXYZ"), 0
    )


@settings(max_examples=60)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.3, 1.0, 3.0]),
    data=st.data(),
)
def test_frames_average_to_the_restriction(n, seed, density, data):
    ham = random_two_body(
        n, np.random.default_rng(seed), coupling_density=density, connected=True
    )
    pair = tuple(
        data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    )
    isolated, frames = isolate_principal(ham, pair)
    assert isolated == filter_support(ham, pair)
    for _, f in frames.frames:
        assert f.ops[pair[0]] == f.ops[pair[1]] == "I"
    assert sum(w for w, _ in frames.frames) == 1.0
    dense_avg = _frame_average_dense(ham, frames)
    assert np.abs(dense_avg - dense_of_expansion(isolated)).max() < 1e-12
    assert len(frames.frames) <= len(_reference_isolation(ham, pair)[1])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.3, 1.0, 3.0]),
    data=st.data(),
)
def test_greedy_cover_matches_a_brute_force_greedy(n, seed, density, data):
    # every Pauli string on the sites off the pair, in canonical order, each
    # pick the first that anticommutes with the most uncovered terms
    ham = random_two_body(
        n, np.random.default_rng(seed), coupling_density=density, connected=True
    )
    pair = tuple(
        data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    )
    rest = [q for q in range(n) if q not in pair]
    x, z, _ = pack_masks(n, [p for p in ham if set(p.support()) - set(pair)])
    candidates = []
    for axes in product("IXYZ", repeat=len(rest)):
        ops = ["I"] * n
        for q, axis in zip(rest, axes):
            ops[q] = axis
        candidates.append(PauliString("".join(ops)))
    cx, cz, _ = pack_masks(n, candidates)
    want, lx, lz = [], x, z
    while len(lx):
        counts = [int(anticommutes(lx, lz, a, b).sum()) for a, b in zip(cx, cz)]
        best = counts.index(max(counts))
        want.append((int(cx[best]), int(cz[best])))
        left = ~anticommutes(lx, lz, cx[best], cz[best])
        lx, lz = lx[left], lz[left]
    assert list(zip(*(g.tolist() for g in _greedy_cover(n, x, z, rest)))) == want


def test_a_cover_that_misses_a_term_is_refused(monkeypatch):
    # the two-generator cover of an all-to-all drift beats the halving
    # rounds' four; without its last generator some term off the pair
    # survives the average, which the exact check must catch
    ham = _heisenberg_all_to_all(4, np.random.default_rng(41))
    full = decouple._greedy_cover
    monkeypatch.setattr(decouple, "_greedy_cover", lambda *a: [g[:-1] for g in full(*a)])
    with pytest.raises(HamrcError, match="pair restriction"):
        isolate_principal(ham, (0, 1))


def test_frames_act_as_identity_on_the_pair():
    rng = np.random.default_rng(13)
    ham = random_two_body(6, rng, connected=True)
    _, frames = isolate_principal(ham, (2, 4))
    for _, f in frames.frames:
        assert f.ops[2] == "I" and f.ops[4] == "I"


def test_pair_validation():
    with pytest.raises(InvalidTerm):
        isolate_principal(CHAIN4, (1, 1))
    with pytest.raises(InvalidTerm):
        isolate_principal(CHAIN4, (0, 7))
    with pytest.raises(InvalidTerm):
        isolate_principal(build_expansion(3, [("XXX", 1.0)]), (0, 1))


def test_compile_on_pair_hits_its_budget():
    target = build_expansion(2, [("XX", 1.0)])
    sched = compile_on_pair(
        CHAIN4, (0, 1), target, 1.0, epsilon=1e-2, order=2, bound="empirical"
    )
    # the plan measures the schedule it compiles, the goal built as verify builds it
    err = distance(evolution(embed(target, 4, (0, 1)), 1.0), evaluate_schedule(sched, CHAIN4))
    assert err == sched.predicted_error <= 1e-2


def test_compile_on_pair_chained_bound_is_sound():
    target = build_expansion(2, [("ZZ", 0.6)])
    sched = compile_on_pair(
        CHAIN4, (1, 2), target, 0.7, epsilon=5e-2, order=1, bound="chained"
    )
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (1, 2))), 0.7)
    err = distance(goal, evaluate_schedule(sched, CHAIN4))
    assert err <= sched.predicted_error <= 5e-2


def test_compile_on_pair_matches_plain_pair_compiler_on_two_qubits():
    from hamrc import compile_schedule

    drift = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])
    target = build_expansion(2, [("XX", 0.7), ("YZ", -0.3), ("IZ", 0.2)])
    a = compile_schedule(drift, target, 1.0, steps=7, order=2)
    b = compile_on_pair(drift, (0, 1), target, 1.0, steps=7, order=2)
    assert a == b
    assert a.raw_drift_periods == b.raw_drift_periods


def test_uncoupled_pair_is_named_by_register_sites():
    target = build_expansion(2, [("ZZ", 1.0)])
    with pytest.raises(NotCoupled, match="qubits 0 and 3"):
        compile_on_pair(CHAIN4, (0, 3), target, 0.5, epsilon=1e-2)


def test_compile_on_pair_respects_site_order():
    # pair (1, 0): target qubit 0 lands on register site 1
    target = build_expansion(2, [("XZ", 0.5)])
    sched = compile_on_pair(CHAIN4, (1, 0), target, 0.4, steps=60, order=1)
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (1, 0))), 0.4)
    err = distance(goal, evaluate_schedule(sched, CHAIN4))
    assert err < 0.05


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
    axes=st.tuples(st.sampled_from("IXYZ"), st.sampled_from("IXYZ")),
    data=st.data(),
)
def test_ordering_error_is_the_commutator_sum_the_pair_frames_keep(n, seed, axes, data):
    ham = random_two_body(n, np.random.default_rng(seed), coupling_density=1.0, connected=True)
    pair = tuple(
        data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    )
    _, frames = isolate_principal(ham, pair)
    k = len(frames.frames).bit_length() - 1
    assume(2 <= k <= MAX_ORDERED_GENERATORS)
    gx, gz, _ = pack_masks(n, [frames.frames[1 << i][1] for i in range(k)])
    parts = _ordering_parts(ham, pair, gx, gz, axes)
    h = dense_of_expansion(ham)
    pair_frames = []
    for a, b in product(("I", axes[0]), ("I", axes[1])):
        ops = ["I"] * n
        ops[pair[0]], ops[pair[1]] = a, b
        pair_frames.append(dense_of_pauli(PauliString("".join(ops))))
    for order in permutations(range(k)):
        reordered = _frame_set(n, gx[list(order)], gz[list(order)], 0)
        framed = [u @ h @ u for u in (dense_of_pauli(f) for _, f in reordered.frames)]
        e = sum(a @ b - b @ a for i, a in enumerate(framed) for b in framed[i + 1 :])
        kept = sum(u @ e @ u for u in pair_frames) / len(pair_frames)
        left = _ordering_error(parts, order)
        want = sum(
            (2j * c * dense_of_pauli(p) for p, c in zip(unpack_masks(n, *parts[:2]), left)),
            np.zeros_like(h),
        )
        assert np.abs(kept - want).max() < 1e-10 * (1 + np.abs(e).max())


def test_pair_error_does_not_depend_on_which_coupling_axis_is_strongest():
    # An all-to-all Heisenberg drift leaves the pair's XX, YY and ZZ within
    # a percent, so which of them step_model frames by is a coin toss.  The
    # four-frame cover's ordering error survives the pair frames of one
    # axis in the binary-counting order; the chosen order avoids it, so the
    # measured error stays put (it was 2.7 times larger on one axis).
    rng = np.random.default_rng(5)
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    goal = expm_hermitian(dense_of_expansion(embed(target, 4, (0, 3))), 0.3)
    base = _heisenberg_all_to_all(4, rng)
    errors = []
    for strongest in "XYZ":
        entries = []
        for p, c in base.items():
            if p.support() == (0, 3) and p.ops[0] == strongest:
                c *= 1.01
            entries.append((p.ops, c))
        ham = build_expansion(4, entries)
        for order, steps in ((1, 39), (2, 3)):
            sched = compile_on_pair(ham, (0, 3), target, 0.3, steps=steps, order=order)
            errors.append((order, distance(goal, evaluate_schedule(sched, ham))))
    for order in (1, 2):
        mine = [e for o, e in errors if o == order]
        assert max(mine) < 1.1 * min(mine), mine

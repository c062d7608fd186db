"""Symbolic Pauli-expansion algebra, property-tested where that pays off."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    average,
    conjugate_by_cliffords,
    conjugation_sign,
    dense_of_pauli,
    filter_support,
)
from hamrc import (
    HamExpansion,
    InvalidTerm,
    NotCoupled,
    NotTwoBody,
    PAULI_CLIFF,
    PauliString,
    build_expansion,
    coupling_graph,
    dense_of_expansion,
    embed,
    is_entangling,
    max_coupling,
    project_to_sites,
)
from hamrc.dense import PAULI_MATS, kron_all
from hamrc.pauli import anticommutes, pack_masks, pauli_product, popcount, unpack_masks

strings = st.integers(1, 5).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
)


@st.composite
def expansions(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        ops = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        coeff = draw(
            st.floats(-4, 4, allow_nan=False).filter(lambda x: abs(x) > 1e-6)
        )
        terms[ops] = coeff
    return build_expansion(n, list(terms.items()))


def _pauli_layer(frame):
    return {q: PAULI_CLIFF[axis] for q, axis in enumerate(frame.ops)}


def test_string_basics():
    p = PauliString("IXZY")
    assert p.n == 4
    assert p.weight() == 3
    assert p.support() == (1, 2, 3)
    assert PauliString.identity(3).ops == "III"
    assert PauliString.single(3, 1, "Y").ops == "IYI"
    with pytest.raises(InvalidTerm):
        PauliString("IXQ")


def test_expansion_drops_negligible_and_sums_duplicates():
    ham = build_expansion(2, [("XZ", 1.0), ("XZ", 2.0), ("ZZ", 1e-15)])
    assert ham.coefficient(PauliString("XZ")) == 3.0
    assert PauliString("ZZ") not in ham.terms
    assert len(ham) == 1


def test_expansion_threshold_is_relative_to_the_largest_term():
    tiny = build_expansion(2, [("ZI", 1e-13), ("XZ", 2e-13), ("ZZ", 1e-13)])
    assert tiny.terms == {
        PauliString("ZI"): 1e-13, PauliString("XZ"): 2e-13, PauliString("ZZ"): 1e-13
    }
    assert is_entangling(tiny).entangling
    # 1e-12 of the largest magnitude is the floor, whatever the scale
    big = build_expansion(2, [("XZ", -1e3), ("ZZ", 5e-10), ("ZI", 2e-9)])
    assert set(big.terms) == {PauliString("XZ"), PauliString("ZI")}
    assert len(build_expansion(2, [("XZ", 0.0), ("ZZ", 0.0)])) == 0


def test_expansion_is_immutable():
    ham = build_expansion(2, [("XZ", 1.0)])
    with pytest.raises(AttributeError):
        ham.n = 3
    ham.terms[PauliString("ZZ")] = 5.0  # mutating the copy is harmless
    assert ham.coefficient(PauliString("ZZ")) == 0.0


@given(strings, strings)
def test_conjugation_sign_matches_dense(a, b):
    if len(a) != len(b):
        a = a[: min(len(a), len(b))]
        b = b[: len(a)]
        if not a:
            return
    pa, pb = PauliString(a), PauliString(b)
    sign = conjugation_sign(pa, pb)
    da, db = dense_of_pauli(pa), dense_of_pauli(pb)
    assert np.allclose(db @ da @ db.conj().T, sign * da)


@given(expansions(), strings)
@settings(max_examples=60)
def test_conjugation_involution_and_weight_preservation(ham, frame_ops):
    frame = PauliString((frame_ops * ham.n)[: ham.n])
    conj = conjugate_by_cliffords(ham, _pauli_layer(frame))
    assert set(conj.terms) == set(ham.terms)
    for p, c in ham.items():
        assert abs(conj.coefficient(p)) == abs(c)
    assert conjugate_by_cliffords(conj, _pauli_layer(frame)) == ham


@given(expansions(max_n=3), strings)
@settings(max_examples=40)
def test_conjugation_matches_dense(ham, frame_ops):
    frame = PauliString((frame_ops * ham.n)[: ham.n])
    got = dense_of_expansion(conjugate_by_cliffords(ham, _pauli_layer(frame)))
    f = dense_of_pauli(frame)
    want = f @ dense_of_expansion(ham) @ f.conj().T
    assert np.allclose(got, want, atol=1e-12)


@given(expansions(max_n=3), expansions(max_n=3))
@settings(max_examples=40)
def test_average_is_linear(a, b):
    if a.n != b.n:
        return
    combo = average([(0.25, a), (0.75, b)])
    da = dense_of_expansion(a)
    db = dense_of_expansion(b)
    assert np.allclose(dense_of_expansion(combo), 0.25 * da + 0.75 * db, atol=1e-12)


def test_average_rejects_negative_weights():
    ham = build_expansion(1, [("X", 1.0)])
    with pytest.raises(InvalidTerm):
        average([(-0.5, ham)])


def test_coupling_graph_and_two_body_guard():
    ham = build_expansion(3, [("XXI", 1.0), ("IZZ", -2.0), ("YII", 0.5)])
    graph = coupling_graph(ham)
    assert graph.edge_pairs() == ((0, 1), (1, 2))
    assert graph.neighbors(1) == (0, 2)
    assert dict(graph.edges)[(1, 2)] == (("Z", "Z", -2.0),)
    with pytest.raises(NotTwoBody):
        coupling_graph(build_expansion(3, [("XXX", 1.0)]))


def _brute_components(ham):
    n = ham.n
    comp = list(range(n))
    changed = True
    while changed:
        changed = False
        for p in ham.terms:
            sup = p.support()
            if len(sup) == 2:
                a, b = comp[sup[0]], comp[sup[1]]
                if a != b:
                    lo, hi = min(a, b), max(a, b)
                    comp = [lo if c == hi else c for c in comp]
                    changed = True
    groups = {}
    for q in range(n):
        groups.setdefault(comp[q], []).append(q)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


@given(expansions(max_n=5))
@settings(max_examples=80)
def test_entangling_matches_brute_force_closure(ham):
    if not ham.is_two_body():
        return
    verdict = is_entangling(ham)
    brute = _brute_components(ham)
    assert verdict.components == brute
    assert verdict.entangling == (len(brute) == 1)
    assert bool(verdict) == verdict.entangling


def test_max_coupling_picks_largest_then_lexicographic():
    ham = build_expansion(
        2, [("XY", -3.0), ("ZZ", 3.0), ("XX", 1.0), ("IX", 9.0)]
    )
    assert max_coupling(ham, (0, 1)) == ("X", "Y", -3.0)
    with pytest.raises(NotCoupled):
        max_coupling(build_expansion(2, [("XI", 1.0)]), (0, 1))


def test_max_coupling_respects_pair_order():
    ham = build_expansion(3, [("XIZ", 2.0)])
    assert max_coupling(ham, (0, 2)) == ("X", "Z", 2.0)
    assert max_coupling(ham, (2, 0)) == ("Z", "X", 2.0)


def test_filter_project_embed_round_trip():
    ham = build_expansion(4, [("XIIZ", 1.5), ("IYXI", -0.5), ("IIII", 0.25)])
    kept = filter_support(ham, (0, 3))
    assert set(p.ops for p in kept.terms) == {"XIIZ", "IIII"}
    small = project_to_sites(kept, (0, 3))
    assert small.n == 2
    assert small.coefficient(PauliString("XZ")) == 1.5
    back = embed(small, 4, (0, 3))
    assert back == kept
    with pytest.raises(InvalidTerm):
        project_to_sites(ham, (0, 3))  # the IYXI term leaks


def test_project_and_embed_respect_site_order():
    ham = build_expansion(3, [("XIZ", 1.0)])
    flipped = project_to_sites(filter_support(ham, (0, 2)), (2, 0))
    assert flipped.coefficient(PauliString("ZX")) == 1.0
    assert embed(flipped, 3, (2, 0)) == ham


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expansion_rejects_non_finite_coefficients(bad):
    with pytest.raises(InvalidTerm):
        HamExpansion(2, {PauliString("XZ"): bad})
    with pytest.raises(InvalidTerm):
        build_expansion(2, [("XZ", 1.0), ("ZZ", bad)])


def test_build_expansion_rejects_length_mismatch():
    with pytest.raises(InvalidTerm):
        build_expansion(3, [("XX", 1.0)])


def _kron(p):
    """The dense matrix of a string, one Kronecker factor per site."""
    return kron_all([PAULI_MATS[a] for a in p.ops])


#: two strings on one register of up to five sites
string_pairs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.text(alphabet="IXYZ", min_size=n, max_size=n)] * 2)
)


@given(
    st.integers(1, 63).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), max_size=6)
        )
    )
)
def test_unpack_masks_inverts_pack_masks(case):
    n, ops = case
    x, z, ny = pack_masks(n, [PauliString(o) for o in ops])
    assert [p.ops for p in unpack_masks(n, x, z)] == ops
    assert ny.tolist() == [o.count("Y") for o in ops]
    # qubit 0 is the top bit, bit 62 on 63 sites, and masks stay non-negative
    top = [m.tolist() for m in pack_masks(n, [PauliString.single(n, 0, "Y")])]
    assert top == [[1 << n - 1], [1 << n - 1], [1]]


@given(string_pairs)
def test_anticommutes_agrees_with_the_dense_products(case):
    s, t = map(PauliString, case)
    (xs, xt), (zs, zt), _ = pack_masks(s.n, [s, t])
    ds, dt = _kron(s), _kron(t)
    assert bool(anticommutes(xs, zs, xt, zt)) == np.allclose(ds @ dt, -dt @ ds)


@given(string_pairs)
def test_pauli_product_masks_and_phase_equal_the_dense_product(case):
    s, t = map(PauliString, case)
    x, z, ny = pack_masks(s.n, [s, t])
    px, pz, power = pauli_product(x[0], z[0], ny[0], x[1], z[1], ny[1])
    (p,) = unpack_masks(s.n, [px], [pz])
    assert np.array_equal((1, 1j, -1, -1j)[power] * _kron(p), _kron(s) @ _kron(t))


@settings(max_examples=60)
@given(masks=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20))
@example(masks=[0, 1, 2**62, 2**63 - 1])
def test_popcount_counts_the_set_bits_of_every_mask(masks):
    got = popcount(np.array(masks, dtype=np.int64))
    assert got.tolist() == [bin(m).count("1") for m in masks]

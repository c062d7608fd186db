"""Single-qubit Clifford tableau entries against dense conjugation."""

import numpy as np
import pytest

from conftest import (
    all_local_cliffords,
    average,
    conjugate_by_cliffords,
    dense_of_pauli,
    random_two_body,
)
from hamrc import (
    AXIS_ROTATION,
    CLIFF_HAD,
    CLIFF_ID,
    CLIFF_S,
    CLIFF_SDG,
    CLIFF_XQ,
    CLIFF_XQI,
    PAULI_CLIFF,
    LocalClifford,
    PauliString,
    build_expansion,
    dense_of_expansion,
    sign_flip_clifford,
)
from hamrc.cliffords import framed_images
from hamrc.pauli import unpack_masks
from hamrc.synth import FramedDrift, StepModel, emit_step, step_model

_SIGMA = {a: dense_of_pauli(PauliString(a)) for a in "XYZ"}

ALL_CLIFFORDS = [
    CLIFF_ID, CLIFF_HAD, CLIFF_S, CLIFF_SDG, CLIFF_XQ, CLIFF_XQI,
    PAULI_CLIFF["X"], PAULI_CLIFF["Y"], PAULI_CLIFF["Z"],
]


@pytest.mark.parametrize("cliff", ALL_CLIFFORDS, ids=lambda c: repr(c.images))
def test_tableau_matches_dense_conjugation(cliff):
    u = cliff.matrix
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    for axis in "XYZ":
        sign, image = cliff.image(axis)
        assert np.allclose(
            u @ _SIGMA[axis] @ u.conj().T, sign * _SIGMA[image], atol=1e-12
        )


@pytest.mark.parametrize("outer", ALL_CLIFFORDS[:6])
@pytest.mark.parametrize("inner", ALL_CLIFFORDS[:6])
def test_compose_applies_inner_first(outer, inner):
    combo = outer.compose(inner)
    assert np.allclose(combo.matrix, outer.matrix @ inner.matrix, atol=1e-12)
    # the composed tableau must agree with dense conjugation by the
    # composed matrix, which pins the inner-first convention
    for axis in "XYZ":
        sign, image = combo.image(axis)
        got = combo.matrix @ _SIGMA[axis] @ combo.matrix.conj().T
        assert np.allclose(got, sign * _SIGMA[image], atol=1e-12)


@pytest.mark.parametrize("cliff", ALL_CLIFFORDS)
def test_dagger_inverts_the_action(cliff):
    # a frame is undone by the inverse layer its framed drift emits
    model = StepModel(1, build_expansion(1, [("Z", 1.0)]), (FramedDrift(1.0, ((0, cliff),)),), 0.0)
    (fwd, _, back), _ = emit_step(model, 1.0, 1)
    assert np.array_equal(fwd.factor(0), cliff.matrix)
    inv = back.factor(0)
    assert np.allclose(inv @ cliff.matrix, np.eye(2), atol=1e-12)
    for axis in "XYZ":
        sign, image = cliff.image(axis)
        back = inv @ (sign * _SIGMA[image]) @ inv.conj().T
        assert np.allclose(back, _SIGMA[axis], atol=1e-12)


def test_cliffords_compare_and_hash_by_value():
    combo = CLIFF_HAD.compose(CLIFF_ID)
    assert combo is not CLIFF_HAD
    assert combo == CLIFF_HAD and hash(combo) == hash(CLIFF_HAD)
    # distinct Cliffords are unequal, the identity and X included
    for i, a in enumerate(ALL_CLIFFORDS):
        for b in ALL_CLIFFORDS[i + 1:]:
            assert a != b
    assert CLIFF_ID != PAULI_CLIFF["X"] and len(set(ALL_CLIFFORDS)) == len(ALL_CLIFFORDS)
    # the same images with another matrix (a global phase) is another value
    assert CLIFF_ID != LocalClifford(-CLIFF_ID.matrix, CLIFF_ID.images)


def test_step_models_of_equal_inputs_are_equal():
    drift = build_expansion(2, [("XZ", 2.0), ("ZI", 1.0), ("IX", 0.3)])
    target = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    a, b = step_model(drift, target), step_model(drift, target)
    assert a.factors[1] is not b.factors[1]
    assert a == b and a.factors == b.factors
    assert a != step_model(drift, build_expansion(2, [("XX", 0.7), ("ZZ", -0.2)]))


def test_axis_rotation_table_is_complete_and_correct():
    for a in "XYZ":
        for b in "XYZ":
            cliff = AXIS_ROTATION[(a, b)]
            sign, image = cliff.image(a)
            assert (sign, image) == (1, b)


@pytest.mark.parametrize("axis", "XYZ")
def test_sign_flip_negates_exactly_one_axis(axis):
    cliff = sign_flip_clifford(axis)
    sign, image = cliff.image(axis)
    assert (sign, image) == (-1, axis)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_framed_images_match_dense_conjugation(n):
    # each term's row entry is C P C^dag built from the frame's own matrices
    rng = np.random.default_rng(40 + n)
    cliffords = all_local_cliffords()
    drift = random_two_body(n, rng, coupling_density=0.6, local_density=0.6, connected=True)
    frames = [
        tuple((q, cliffords[int(rng.integers(len(cliffords)))])
              for q in range(n) if rng.random() < 0.7)
        for _ in range(6)
    ]
    x, z, ny, sign = framed_images(drift, frames)
    assert x.shape == z.shape == ny.shape == sign.shape == (len(frames), len(drift))
    for f, frame in enumerate(frames):
        on = dict(frame)
        u = np.eye(1, dtype=complex)
        for q in range(n):
            u = np.kron(u, on[q].matrix if q in on else np.eye(2))
        images = unpack_masks(n, x[f], z[f])
        assert ny[f].tolist() == [p.ops.count("Y") for p in images]
        for t, p in enumerate(drift):
            want = u @ dense_of_pauli(p) @ u.conj().T
            assert np.allclose(sign[f, t] * dense_of_pauli(images[t]), want, atol=1e-12)


def test_framed_images_are_exact_signed_images():
    ham = build_expansion(2, [("XZ", 2.0), ("ZI", 1.0)])
    frames = [((0, CLIFF_HAD),), ((0, PAULI_CLIFF["Y"]), (1, CLIFF_S)), ()]
    x, z, _, sign = framed_images(ham, frames)
    images = [[p.ops for p in unpack_masks(2, x[f], z[f])] for f in range(len(frames))]
    # Hadamard swaps X and Z on qubit 0; Y flips both; S leaves Z be
    assert images == [["ZZ", "XI"], ["XZ", "ZI"], ["XZ", "ZI"]]
    assert sign.tolist() == [[1, 1], [-1, -1], [1, 1]]
    for a in framed_images(ham, frames):
        assert not a.flags.writeable


def test_scaled_conjugation_equals_the_weighted_average(sample_drift):
    # a framed drift is rate * C H C^dag: scaling before or after the
    # conjugation gives the same expansion, exactly, for every rate
    layer = {0: CLIFF_XQ, 1: PAULI_CLIFF["Y"]}
    conj = conjugate_by_cliffords(sample_drift, layer)
    for scale in (1.0, 0.3, 1.0 / 7.0, 0.0):
        got = conjugate_by_cliffords(average([(scale, sample_drift)]), layer)
        assert got == average([(scale, conj)])
        want = scale * dense_of_expansion(conj)
        assert np.array_equal(dense_of_expansion(got), want)

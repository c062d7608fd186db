"""Single-qubit Clifford tableau entries against dense conjugation."""

import numpy as np
import pytest

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
    average,
    build_expansion,
    conjugate_by_cliffords,
    dense_of_expansion,
    dense_of_pauli,
    sign_flip_clifford,
)
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


def test_expansion_conjugation_matches_dense(sample_drift):
    layer = {0: CLIFF_HAD, 1: CLIFF_S}
    got = conjugate_by_cliffords(sample_drift, layer)
    u = np.kron(CLIFF_HAD.matrix, CLIFF_S.matrix)
    want = u @ dense_of_expansion(sample_drift) @ u.conj().T
    assert np.allclose(dense_of_expansion(got), want, atol=1e-12)


def test_expansion_conjugation_is_exact_on_coefficients():
    ham = build_expansion(2, [("XZ", 2.0), ("ZI", 1.0)])
    got = conjugate_by_cliffords(ham, {0: CLIFF_HAD})
    # Hadamard swaps X and Z on qubit 0
    assert got.coefficient(PauliString("ZZ")) == 2.0
    assert got.coefficient(PauliString("XI")) == 1.0
    assert len(got) == 2


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

"""Dense 2^n x 2^n realizations and the phase-aligned distance."""

import functools
import math

import numpy as np
import pytest

from conftest import dense_of_pauli
from hamrc import (
    DimMismatch,
    HamExpansion,
    LocalLayer,
    NotHermitian,
    PauliString,
    TooLarge,
    build_expansion,
    dense_of_expansion,
    distance,
    expm_hermitian,
    operator_norm,
    phase_match,
)
from hamrc.dense import evolution, hermitian_norm, kron_all

# drift used in many examples: Z on qubit 0, strong XZ coupling, ZZ
H_SAMPLE = build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])


def test_pauli_matrices_place_qubit_zero_leftmost():
    zi = dense_of_pauli(PauliString("ZI"))
    assert np.allclose(zi, np.diag([1, 1, -1, -1]))
    iz = dense_of_pauli(PauliString("IZ"))
    assert np.allclose(iz, np.diag([1, -1, 1, -1]))


def test_sample_drift_spectrum_and_norm():
    mat = dense_of_expansion(H_SAMPLE)
    evals = np.linalg.eigvalsh(mat)
    r2 = 2.0 * math.sqrt(2.0)
    assert np.allclose(evals, [-r2, -2.0, 2.0, r2], atol=1e-12)
    assert abs(operator_norm(mat) - r2) < 1e-12


def test_exchange_quarter_period_is_phased_swap():
    exchange = build_expansion(2, [("XX", 1.0), ("YY", 1.0), ("ZZ", 1.0)])
    w = expm_hermitian(dense_of_expansion(exchange), math.pi / 4.0)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(w, np.exp(-1j * math.pi / 4.0) * swap, atol=1e-12)


def test_expm_requires_hermitian():
    with pytest.raises(NotHermitian):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_agrees_with_series():
    mat = dense_of_expansion(H_SAMPLE)
    t = 0.37
    w = expm_hermitian(mat, t)
    # Taylor reference, converges fast for ||tH|| ~ 1
    acc = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 40):
        term = term @ (-1j * t * mat) / k
        acc = acc + term
    assert np.allclose(w, acc, atol=1e-12)
    assert abs(operator_norm(w.conj().T @ w - np.eye(4))) < 1e-12


def test_distance_is_phase_invariant_when_aligned():
    mat = dense_of_expansion(H_SAMPLE)
    w = expm_hermitian(mat, 0.5)
    shifted = np.exp(1j * 1.234) * w
    assert distance(w, shifted) < 1e-12
    assert distance(w, shifted, phase_align=False) > 1.0


def test_phase_match_recovers_the_phase():
    w = expm_hermitian(dense_of_expansion(H_SAMPLE), 0.2)
    theta = 0.777
    z = phase_match(w, np.exp(1j * theta) * w)
    assert abs(z - np.exp(-1j * theta)) < 1e-12


def test_distance_checks_shapes():
    with pytest.raises(DimMismatch):
        distance(np.eye(2), np.eye(4))


def test_operator_norm_on_known_matrix():
    assert abs(operator_norm(np.diag([3.0, -5.0])) - 5.0) < 1e-14
    x = dense_of_pauli(PauliString("X"))
    z = dense_of_pauli(PauliString("Z"))
    assert abs(operator_norm(x @ z - z @ x) - 2.0) < 1e-12


def test_hermitian_norm_on_known_matrices():
    assert hermitian_norm(np.diag([3.0, -5.0])) == 5.0
    assert hermitian_norm(np.diag([3.0, -5.0]).astype(complex)) == 5.0
    assert hermitian_norm(np.zeros((4, 4), dtype=complex)) == 0.0
    assert hermitian_norm(dense_of_pauli(PauliString("Y"))) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
def test_hermitian_norm_agrees_with_the_singular_value_norm(dim):
    rng = np.random.default_rng(dim)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    r = rng.normal(size=(dim, dim))
    for a in (z + z.conj().T, r + r.T, (r + r.T).astype(complex), 1j * (r - r.T)):
        want = operator_norm(a)
        assert abs(hermitian_norm(a) - want) <= 1e-12 * max(1.0, want)


def test_hermitian_norm_and_expm_reject_non_finite_entries():
    for bad in (math.nan, math.inf):
        a = np.array([[bad, 1.0], [1.0, 0.0]])
        assert math.isnan(hermitian_norm(a))
        with np.errstate(invalid="ignore"), pytest.raises(NotHermitian):
            expm_hermitian(a)  # inf - inf is nan


@pytest.mark.parametrize("dim", [1, 2, 16, 64])
def test_hermitian_norm_of_a_stack_is_each_matrix_norm(dim):
    rng = np.random.default_rng(500 + dim)
    z = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    r = rng.normal(size=(3, dim, dim))
    # complex, real held as complex, and purely imaginary Hermitian matrices
    mats = [m + m.conj().T for m in z] + [(m + m.T).astype(complex) for m in r]
    mats += [1j * (m - m.T) for m in r]
    stack = np.array(mats).reshape(3, 3, dim, dim)
    got = hermitian_norm(stack)
    assert got.shape == (3, 3)
    for g, m in zip(got.ravel(), mats):
        want = hermitian_norm(m)
        assert abs(g - want) <= 1e-14 * want
    # a non-finite matrix gives nan for itself only
    for bad in (math.nan, math.inf):
        spoiled = stack.copy()
        spoiled[1, 2, 0, 0] = bad
        norms = hermitian_norm(spoiled)
        assert math.isnan(norms[1, 2])
        norms[1, 2] = got[1, 2]
        assert norms.tolist() == got.tolist()


def test_hermitian_norm_takes_the_real_route_for_a_real_stack(monkeypatch):
    rng = np.random.default_rng(7)
    r = rng.normal(size=(4, 8, 8))
    stack = (r + r.swapaxes(1, 2)).astype(complex)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(a.dtype)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = hermitian_norm(stack)
    mixed = hermitian_norm(np.concatenate([stack, 1j * (r - r.swapaxes(1, 2))]))
    assert seen == [np.float64, np.complex128]
    assert got.tolist() == [hermitian_norm(m.real) for m in stack]
    assert mixed[:4].tolist() == pytest.approx(got.tolist(), rel=1e-14)


# Reference builders: the plain Kronecker-product definitions.
KRON_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_reference(mats):
    return functools.reduce(np.kron, list(mats), np.eye(1, dtype=complex))


def _expansion_reference(ham):
    out = np.zeros((2**ham.n, 2**ham.n), dtype=complex)
    for p, c in ham.items():
        out += c * _kron_reference(KRON_PAULI[o] for o in p.ops)
    return out


def _random_strings(n, count, rng):
    # Y drawn three times as often as X or Z, plus the all-Y string
    ops = rng.choice(list("IXYYYZ"), size=(count, n))
    return ["".join(row) for row in ops] + ["Y" * n]


def _random_unitary_2x2(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q


@pytest.mark.parametrize("n", range(1, 9))
def test_dense_of_expansion_is_byte_equal_to_the_kron_sum(n):
    rng = np.random.default_rng(100 + n)
    for count in (1, 5, 40):
        terms = {PauliString(s): float(rng.normal()) for s in _random_strings(n, count, rng)}
        terms[PauliString.identity(n)] = float(rng.normal())
        ham = HamExpansion(n, terms)
        assert dense_of_expansion(ham).tobytes() == _expansion_reference(ham).tobytes()
    empty = HamExpansion(n, {})
    assert dense_of_expansion(empty).tobytes() == _expansion_reference(empty).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_dense_of_pauli_is_byte_equal_to_the_kron_product(n):
    rng = np.random.default_rng(200 + n)
    for s in _random_strings(n, 12, rng) + ["I" * n]:
        ref = _kron_reference(KRON_PAULI[o] for o in s)
        # np.kron leaves -0.0 in some zero entries; adding 0.0 turns only
        # those into 0.0 and changes no other bit
        assert dense_of_pauli(PauliString(s)).tobytes() == (ref + 0.0).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_kron_all_and_layer_dense_are_byte_equal_to_the_kron_product(n):
    rng = np.random.default_rng(300 + n)
    factors = [_random_unitary_2x2(rng) for _ in range(n)]
    assert kron_all(factors).tobytes() == _kron_reference(factors).tobytes()
    kept = {q: u for q, u in enumerate(factors) if rng.random() < 0.6}
    layer = LocalLayer(kept)
    ref = _kron_reference(kept.get(q, np.eye(2, dtype=complex)) for q in range(n))
    assert layer.dense(n).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n, terms", [
    (4, [("XIXI", 0.7), ("ZIII", -0.3), ("IIII", 0.4)]),  # sites 0 and 2, a phase
    (5, [("IIIYZ", 0.5), ("IIIIX", 0.2)]),  # the last two sites
    (3, [("YIZ", 1.1), ("IXI", -0.6)]),  # every site
    (3, [("III", 0.25)]),  # a phase alone
    (2, []),  # nothing at all
])
def test_evolution_embeds_the_exponential_on_the_target_sites(n, terms):
    ham = build_expansion(n, terms)
    want = expm_hermitian(dense_of_expansion(ham), 0.9)
    got = evolution(ham, 0.9)
    assert got.shape == (2**n, 2**n)
    assert np.abs(got - want).max() <= 1e-15
    if len(ham.support()) == n:  # a target on every site is exponentiated as it is
        assert got.tobytes() == want.tobytes()
    # the identity on the untouched sites is exact: no entry flips one
    idx = np.arange(2**n)
    for q in set(range(n)) - set(ham.support()):
        bit = idx >> (n - 1 - q) & 1
        assert not got[bit[:, None] != bit[None, :]].any()


def test_evolution_checks_the_cap_for_the_whole_register(monkeypatch):
    monkeypatch.setenv("HAMRC_DENSE_CAP", "3")
    with pytest.raises(TooLarge):
        evolution(build_expansion(4, [("XXII", 1.0)]), 1.0)


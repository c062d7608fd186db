"""Dense matrix backend: building operators, exponentials, norms, distances.

Qubit 0 is always the leftmost Kronecker factor, that is the most
significant bit of a row or column index: on ``n`` qubits, qubit ``q`` is
bit ``n - 1 - q``, as in the packed masks of ``pauli.pack_masks``.

A Pauli string is built from its packed ``(x, z, ny)`` masks.  Its matrix
has one nonzero entry per column ``c``::

    P[c ^ x, c] = i**ny * (-1)**popcount(c & z)

so an expansion is built by scattering each term's coefficient along the
permutation ``c -> c ^ x``, with no Kronecker products.  Matrices on one set
of terms that differ only in their coefficients are built together.  Local
layers are Kronecker products of 2x2 factors, taken as broadcast outer
products, and a stack of layers is built in the same products over a
leading stack axis.

Exponentials go through a Hermitian eigendecomposition so the result is
unitary to machine precision.

The operator norm is the largest singular value, which is the metric every
error bound in this package is stated in.  It is unitarily invariant,
``||U A V|| = ||A||`` for unitary ``U`` and ``V``, so a drift conjugated by a
local Clifford frame keeps the drift's norm.  For a Hermitian
matrix it is the largest eigenvalue magnitude, which ``hermitian_norm`` reads
from ``eigvalsh``: cheaper than an SVD, and on a real symmetric matrix about
a third of the SVD's time.  ``operator_norm`` is for everything else.
"""

from __future__ import annotations

import math
import os
import numpy as np

from .errors import DimMismatch, InvalidTerm, NotHermitian, TooLarge
from .pauli import HamExpansion, pack_masks, popcount, project_to_sites

HERMITIAN_TOL = 1e-10
#: largest register built densely unless ``HAMRC_DENSE_CAP`` sets another cap
DEFAULT_DENSE_CAP = 10

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check_dense_cap(n: int) -> None:
    """Refuse, with :class:`TooLarge`, to build an ``n``-qubit register densely
    above the cap: ``HAMRC_DENSE_CAP`` when set, else ``DEFAULT_DENSE_CAP``.

    This is the one place the cap is read; a malformed value raises
    :class:`InvalidTerm`.  Call it before the first dense build, so a
    refusal costs nothing.
    """
    raw = os.environ.get("HAMRC_DENSE_CAP")
    try:
        cap = DEFAULT_DENSE_CAP if raw is None else int(raw)
    except ValueError:
        raise InvalidTerm(f"HAMRC_DENSE_CAP must be an integer, got {raw!r}") from None
    if n > cap:
        raise TooLarge(f"{n} qubits exceeds dense cap {cap}")


#: i**k for k = 0..3
_I_POWERS = np.array([1, 1j, -1, -1j], dtype=complex)


def kron_all(factors) -> np.ndarray:
    """Kronecker product of the factors, the first one leftmost.

    A factor may be a stack ``(..., r, c)``: the leading stack axes
    broadcast, and the result is the stack of the products, each entry
    multiplied in the same order as in a product of single matrices.
    """
    out = np.eye(1, dtype=complex)
    for f in factors:
        (r, c), (fr, fc) = out.shape[-2:], f.shape[-2:]
        prod = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = prod.reshape(*prod.shape[:-4], r * fr, c * fc)
    return out


def _dense_of_masks(
    n: int, x: np.ndarray, z: np.ndarray, ny: np.ndarray, coeffs: np.ndarray, *, real: bool = False
) -> np.ndarray:
    """Matrices on one set of Pauli terms, given by their packed ``(x, z, ny)``
    masks: matrix ``b`` sums ``coeffs[b, k] * P_k``, adding the terms in order.

    With ``real`` they are built as real matrices, which they are when
    every term holds an even number of Y; the caller checks that."""
    dim = 2**n
    cols = np.arange(dim)
    signs = 1 - 2 * (popcount(z[:, None] & cols) & 1)
    phases = _I_POWERS[ny % 4]
    values = (coeffs * (phases.real if real else phases)).T[:, :, None] * signs[:, None]
    # by_x[k, b, c] accumulates entry [c ^ used[k], c] of matrix b, one term
    # at a time in order; values is (term, matrix, c)
    used, slot = np.unique(x, return_inverse=True)
    by_x = np.zeros((len(used), len(coeffs), dim), dtype=values.dtype)
    for k, row in zip(slot.tolist(), values):
        by_x[k] += row
    out = np.zeros((len(coeffs), dim, dim), dtype=values.dtype)
    out[:, used[:, None] ^ cols, cols] = by_x.transpose(1, 0, 2)
    return out


def dense_of_expansion(ham: HamExpansion) -> np.ndarray:
    """Dense Hermitian matrix of a real Pauli expansion, its terms added in
    their order."""
    coeffs = np.array([[c for _, c in ham.items()]], dtype=float)
    return _dense_of_masks(ham.n, *pack_masks(ham.n, ham), coeffs)[0]


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    return float(np.linalg.norm(a, 2))


def hermitian_norm(a: np.ndarray) -> float | np.ndarray:
    """Spectral norm of a Hermitian matrix: its largest eigenvalue magnitude.

    A ``(..., d, d)`` stack gives the array of its matrices' norms.  Only
    the lower triangles are read, as by ``eigvalsh``.  A stack with no
    imaginary part takes the real symmetric route.  A matrix with a
    non-finite entry gives ``nan`` for itself: LAPACK's eigenvalues of such
    a matrix are unspecified.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        a = np.where(finite[..., None, None], a, 0)
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    evals = np.linalg.eigvalsh(a)
    norms = np.where(finite, np.abs(evals[..., [0, -1]]).max(axis=-1), math.nan)
    return float(norms) if norms.ndim == 0 else norms


def expm_hermitian(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i*t*a) for Hermitian ``a`` via spectral decomposition.

    Raises :class:`NotHermitian` when the Hermiticity defect exceeds
    1e-10 in operator norm.  ``i(a - a^dag)`` is exactly Hermitian, so the
    defect is a Hermitian norm.
    """
    defect = hermitian_norm(1j * (a - a.conj().T))
    if not defect <= HERMITIAN_TOL:  # nan too
        raise NotHermitian(f"Hermiticity defect {defect:.3e}")
    evals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T


def evolution(ham: HamExpansion, t: float) -> np.ndarray:
    """``exp(-i t ham)`` on the whole register.

    It is exponentiated on the sites the terms act on (an identity term
    goes along as a phase) and embedded with the identity on the others,
    so a pair target on many qubits costs one small eigendecomposition.
    A target on every site is exponentiated as it is.  The dense cap is
    checked for the whole register before anything is built.
    """
    check_dense_cap(ham.n)
    n = ham.n
    sites = ham.support() or (0,)
    if len(sites) == n:
        return expm_hermitian(dense_of_expansion(ham), t)
    small, rest = 2 ** len(sites), 2 ** (n - len(sites))
    u = expm_hermitian(dense_of_expansion(project_to_sites(ham, sites)), t)
    # u (x) I, with the axes of ``sites`` first, then moved into site order
    full = u.reshape(small, 1, small, 1) * np.eye(rest).reshape(1, rest, 1, rest)
    order = np.argsort([*sites, *(q for q in range(n) if q not in sites)])
    return full.reshape((2,) * 2 * n).transpose([*order, *(order + n)]).reshape(2**n, 2**n)


def phase_match(w: np.ndarray, w_prime: np.ndarray) -> complex:
    """Unit phase aligning ``w_prime`` to ``w`` via the trace overlap.

    Returns exp(i*arg(tr(w^dag w_prime))) conjugated so that multiplying
    ``w_prime`` by it cancels the relative global phase; falls back to 1
    when the overlap vanishes.
    """
    overlap = np.vdot(w, w_prime)
    if abs(overlap) == 0.0:
        return 1.0 + 0.0j
    return complex(overlap / abs(overlap)).conjugate()


def distance(w: np.ndarray, w_prime: np.ndarray, phase_align: bool = True) -> float:
    """Operator-norm distance between two (usually unitary) matrices.

    With ``phase_align`` the comparison quotients out a global phase:
    the second operator is rotated by the unit phase of the trace
    overlap before subtracting.
    """
    if w.shape != w_prime.shape:
        raise DimMismatch(f"shapes {w.shape} and {w_prime.shape}")
    if phase_align:
        w_prime = phase_match(w, w_prime) * w_prime
    return operator_norm(w - w_prime)

import math
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import settings

from hamrc import (
    CLIFF_HAD,
    CLIFF_ID,
    CLIFF_S,
    HamExpansion,
    InvalidTerm,
    LocalClifford,
    LocalLayer,
    PauliString,
    build_expansion,
    dense_of_expansion,
)
from hamrc.dense import hermitian_norm

# The same examples on every run, and no per-example deadline: dense
# examples can take longer than Hypothesis's 200 ms on a loaded machine.
settings.register_profile("hamrc", derandomize=True, deadline=None)
settings.load_profile("hamrc")


@pytest.fixture
def sample_drift() -> HamExpansion:
    """Two-qubit drift with a dominant XZ coupling plus clutter terms."""
    return build_expansion(2, [("ZI", 1.0), ("XZ", 2.0), ("ZZ", 1.0)])


def random_two_body(
    n: int,
    rng: np.random.Generator,
    *,
    coupling_density: float = 0.5,
    local_density: float = 0.5,
    connected: bool = False,
) -> HamExpansion:
    """Random two-body expansion; optionally forced to couple all qubits."""
    entries: list[tuple[str, float]] = []
    for q in range(n):
        for axis in "XYZ":
            if rng.random() < local_density / 3:
                ops = ["I"] * n
                ops[q] = axis
                entries.append(("".join(ops), float(rng.normal())))
    for i in range(n):
        for j in range(i + 1, n):
            for a in "XYZ":
                for b in "XYZ":
                    if rng.random() < coupling_density / 9:
                        ops = ["I"] * n
                        ops[i], ops[j] = a, b
                        entries.append(("".join(ops), float(rng.normal())))
    if connected:
        order = list(rng.permutation(n))
        for i, j in zip(order, order[1:]):
            ops = ["I"] * n
            ops[i] = "XYZ"[int(rng.integers(3))]
            ops[j] = "XYZ"[int(rng.integers(3))]
            entries.append(("".join(ops), float(rng.normal()) or 0.5))
    return build_expansion(n, entries)


def random_layer(rng: np.random.Generator, n: int) -> LocalLayer:
    """Haar-random single-qubit factors on a random subset of the ``n`` sites."""
    factors = {}
    for q in range(n):
        if rng.random() < 0.6:
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, r = np.linalg.qr(z)
            factors[q] = u * (np.diag(r) / np.abs(np.diag(r)))
    return LocalLayer(factors)


def clifford_layer(rng: np.random.Generator, n: int) -> LocalLayer:
    """Clifford factors on a random subset of the ``n`` sites, each one a
    ``LocalClifford.matrix`` as frame layers take them.

    Their entries are 0, +-1, +-i and +-1/sqrt(2); their daggers hold
    zeros of both signs.
    """
    cliffords = all_local_cliffords()
    return LocalLayer({
        q: cliffords[int(rng.integers(len(cliffords)))].matrix
        for q in range(n) if rng.random() < 0.6
    })


def random_coupled_pair(rng: np.random.Generator) -> HamExpansion:
    """Random two-qubit expansion guaranteed to carry a coupling term."""
    ham = random_two_body(2, rng, coupling_density=0.7, local_density=0.7)
    if not any(p.weight() == 2 for p in ham.terms):
        a, b = rng.choice(list("XYZ"), size=2)
        extra = build_expansion(2, [(a + b, float(rng.normal()) or 1.0)])
        ham = build_expansion(
            2, [(p.ops, c) for p, c in ham.items()] + [(q.ops, c) for q, c in extra.items()]
        )
    return ham


def all_local_cliffords() -> list[LocalClifford]:
    """One single-qubit Clifford for each of the 24 actions, identity first."""
    found = {CLIFF_ID.images: CLIFF_ID}
    frontier = [CLIFF_ID]
    while frontier:
        grown = []
        for c in frontier:
            for g in (CLIFF_HAD, CLIFF_S):
                d = g.compose(c)
                if d.images not in found:
                    found[d.images] = d
                    grown.append(d)
        frontier = grown
    return list(found.values())


def conjugate_by_cliffords(
    ham: HamExpansion, layer: Mapping[int, LocalClifford]
) -> HamExpansion:
    """Exact coefficient-level conjugation of an expansion by a frame layer,
    one site of one term at a time: the reference for
    ``cliffords.framed_images``.

    Sites absent from ``layer`` are left untouched.  Every term maps to a
    single term with the same coefficient magnitude.
    """
    images = [(site, {a: cliff.image(a) for a in "IXYZ"}) for site, cliff in layer.items()]
    out: dict[PauliString, float] = {}
    for p, c in ham.items():
        ops = list(p.ops)
        sign = 1
        for site, image in images:
            s, ops[site] = image[ops[site]]
            sign *= s
        # a frame permutes Pauli strings, so no two terms land on one string
        out[PauliString("".join(ops))] = sign * c
    return HamExpansion(ham.n, out)


def conjugation_sign(term: PauliString, frame: PauliString) -> int:
    """Sign picked up by ``term`` under conjugation with the Pauli ``frame``.

    Each site contributes -1 when the two single-qubit operators
    anticommute (both non-identity and different) and +1 otherwise.
    """
    flips = 0
    for a, c in zip(term.ops, frame.ops):
        if a != "I" and c != "I" and a != c:
            flips += 1
    return -1 if flips % 2 else 1


def framed_expansion(drift: HamExpansion, factor) -> HamExpansion:
    """A framed drift ``rate * C H C^dag`` as an expansion: the rate-weighted
    conjugate of the drift."""
    return average([(factor.rate, conjugate_by_cliffords(drift, dict(factor.frame)))])


def xz_chain(n: int) -> HamExpansion:
    """XZ couplings along a chain with a Z field on every site."""
    terms = [("I" * q + "XZ" + "I" * (n - q - 2), 1.0 + 0.05 * q) for q in range(n - 1)]
    terms += [("I" * q + "Z" + "I" * (n - q - 1), 0.1 + 0.07 * q) for q in range(n)]
    return build_expansion(n, terms)


def heisenberg(n: int) -> HamExpansion:
    """All-to-all XX + YY + ZZ couplings with distinct strengths."""
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in "XYZ":
                ops = ["I"] * n
                ops[i] = ops[j] = a
                terms.append(("".join(ops), 0.5 + 0.1 * i + 0.03 * j))
    return build_expansion(n, terms)


def without_runs(text: str) -> str:
    """Schedule ``text`` with its run comments left out."""
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("# run "))


def value_key(ins) -> object:
    """What a schedule interns ``ins`` by: a layer's key, or a drift's
    duration with ``0.0`` and ``-0.0`` apart."""
    if isinstance(ins, LocalLayer):
        return ins.cache_key()
    return ins.tau, math.copysign(1.0, ins.tau)


def interned(instructions) -> tuple[list, list[int]]:
    """The distinct ``instructions`` in order of first use, and each
    position's index into them, interned one instruction at a time by
    :func:`value_key`."""
    index: dict[object, int] = {}
    table: list = []
    ids: list[int] = []
    for ins in instructions:
        key = value_key(ins)
        if key not in index:
            index[key] = len(table)
            table.append(ins)
        ids.append(index[key])
    return table, ids


def unitarity_defect(w: np.ndarray) -> float:
    """Operator-norm distance of ``w^dag w`` from the identity.

    ``w^dag w - I`` is Hermitian, so its norm is a Hermitian norm.
    """
    return hermitian_norm(w.conj().T @ w - np.eye(w.shape[0]))


def average(items: Sequence[tuple[float, HamExpansion]]) -> HamExpansion:
    """Term-wise weighted sum of expansions (weights are used as given)."""
    if not items:
        raise InvalidTerm("average needs at least one expansion")
    n = items[0][1].n
    acc: dict[PauliString, float] = {}
    for w, ham in items:
        if w < 0:
            raise InvalidTerm("average weights must be non-negative")
        if ham.n != n:
            raise InvalidTerm("averaged expansions must share the qubit count")
        if w == 0:
            continue
        for p, c in ham.items():
            acc[p] = acc.get(p, 0.0) + w * c
    return HamExpansion(n, acc)


def filter_support(ham: HamExpansion, sites: Iterable[int]) -> HamExpansion:
    """Keep only the terms supported inside ``sites`` (same qubit count)."""
    keep = set(sites)
    return HamExpansion(
        ham.n, {p: c for p, c in ham.items() if set(p.support()) <= keep}
    )


def dense_of_pauli(term: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, qubit 0 leftmost."""
    return dense_of_expansion(HamExpansion(term.n, {term: 1.0}))


def cnot_generator() -> HamExpansion:
    """Commuting three-term generator whose time-pi/4 flow is a CNOT."""
    return build_expansion(2, [("IX", 1.0), ("ZI", 1.0), ("ZX", -1.0)])

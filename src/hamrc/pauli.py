"""Pauli-string expansions of n-qubit Hamiltonians and their exact algebra.

Everything here is symbolic: coefficients are plain floats attached to
Pauli strings, and all operations (averaging, restriction, embedding)
act term by term with exact sign bookkeeping.  No matrices are built.
How a Clifford frame maps a string lives in ``cliffords.framed_images``.

Arrays of strings are handled in the binary symplectic form (Aaronson &
Gottesman, PRA 70, 052328 (2004); Dehaene & De Moor, PRA 68, 042318
(2003)): a string on ``n <= 63`` sites is its packed int64 masks
``(x, z, ny)``, qubit 0 the top bit, so qubit ``q`` is bit ``n - 1 - q``.
``x`` marks the X and Y sites, ``z`` the Y and Z sites, and ``ny`` counts
the Y sites, so the string is ``P(x, z) = i**ny X**x Z**z``.
``pack_masks`` and ``unpack_masks`` are the one conversion between strings
and masks, and ``popcount``, ``anticommutes``, ``pauli_product`` and
``_string_keys`` the one count, commutation test, product and key on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidTerm, NotCoupled, NotTwoBody, TooLarge

OPS = "IXYZ"

#: coefficients at or below this fraction of an expansion's largest
#: magnitude are treated as exact zeros
ZERO_TOL = 1e-12


@dataclass(frozen=True, order=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators, one per qubit.

    ``ops`` holds one character per qubit out of ``I X Y Z``; qubit 0 is
    the first character.  Instances are immutable and ordered by their
    ``ops`` string, which gives the canonical term order used everywhere
    (``I`` < ``X`` < ``Y`` < ``Z`` per site).
    """

    ops: str

    def __post_init__(self):
        if not self.ops:
            raise InvalidTerm("a Pauli string needs at least one qubit")
        bad = set(self.ops) - set(OPS)
        if bad:
            raise InvalidTerm(f"invalid Pauli operators: {sorted(bad)!r}")

    @property
    def n(self) -> int:
        return len(self.ops)

    def weight(self) -> int:
        """Number of non-identity sites."""
        return len(self.ops) - self.ops.count("I")

    def support(self) -> tuple[int, ...]:
        """Indices of the non-identity sites, ascending."""
        return tuple(q for q, o in enumerate(self.ops) if o != "I")

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString("I" * n)

    @staticmethod
    def single(n: int, site: int, axis: str) -> "PauliString":
        """Weight-one string with ``axis`` on ``site``."""
        if not 0 <= site < n:
            raise InvalidTerm(f"site {site} outside 0..{n - 1}")
        ops = ["I"] * n
        ops[site] = axis
        return PauliString("".join(ops))

    def __str__(self) -> str:
        return self.ops


def _as_string(term: "PauliString | str") -> PauliString:
    return term if isinstance(term, PauliString) else PauliString(term)


#: the number of set bits of each byte
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)
#: the x bit and the z bit of each character code: X and Y set x, Y and Z set z
_X_BIT, _Z_BIT = (
    np.isin(np.arange(256), [ord(a) for a in axes]).astype(np.int64) for axes in ("XY", "YZ")
)
#: the bit of each qubit of a 63-site mask, qubit 0 first; ``n`` sites take the last ``n``
_SITE_BITS = 1 << np.arange(62, -1, -1, dtype=np.int64)


def pack_masks(n: int, strings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packed int64 ``(x, z, ny)`` arrays of ``n``-site strings: an
    iterable of :class:`PauliString`, or an array of their characters'
    codes whose last axis runs over the sites, which gives masks in the
    shape of its other axes.

    Raises :class:`TooLarge` past 63 sites, where a mask would wrap.
    """
    if n > 63:
        raise TooLarge(f"{n} qubits exceeds the 63 sites a Pauli mask holds")
    if not isinstance(strings, np.ndarray):
        text = "".join(p.ops for p in strings).encode()
        strings = np.frombuffer(text, dtype=np.uint8).reshape(-1, n)
    x, z = _X_BIT[strings], _Z_BIT[strings]
    return x @ _SITE_BITS[63 - n :], z @ _SITE_BITS[63 - n :], (x & z).sum(axis=-1)


def unpack_masks(n: int, x: np.ndarray, z: np.ndarray) -> list[PauliString]:
    """The ``n``-site strings of the masks ``x`` and ``z``."""
    bits = _SITE_BITS[63 - n :]
    code = (np.asarray(x)[:, None] & bits != 0) + 2 * (np.asarray(z)[:, None] & bits != 0)
    text = np.frombuffer(b"IXZY", dtype=np.uint8)[code].tobytes().decode()
    return [PauliString(text[i : i + n]) for i in range(0, len(text), n)]


def popcount(masks) -> np.ndarray:
    """The number of set bits of each int64 mask: one read of a byte table
    per byte, for as many bytes as the widest mask holds."""
    masks = np.asarray(masks, dtype="<i8")  # little-endian: byte k holds bits 8k to 8k + 7
    flat = np.ascontiguousarray(masks.reshape(-1))
    width = int(np.bitwise_or.reduce(flat.view(np.uint64), initial=0)).bit_length()
    byte = flat.view(np.uint8).reshape(*masks.shape, 8)
    count = _BYTE_BITS[byte[..., 0]]
    for k in range(1, (width + 7) // 8):
        count += _BYTE_BITS[byte[..., k]]
    return count


def anticommutes(x1, z1, x2, z2) -> np.ndarray:
    """Whether the strings of masks ``(x1, z1)`` and ``(x2, z2)``
    anticommute, broadcast: the parity of ``(x1 & z2) ^ (z1 & x2)``, the
    sites where one holds an X part and the other a Z part."""
    return popcount((x1 & z2) ^ (z1 & x2)) & 1 == 1


def pauli_product(x1, z1, ny1, x2, z2, ny2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, z, power)`` with ``s t = i**power P(x, z)`` for the strings
    ``s = P(x1, z1)`` and ``t = P(x2, z2)``, broadcast.

    Moving ``Z**z1`` past ``X**x2`` gives ``(-1)**|z1 & x2|``, so
    ``s t = i**(ny1 + ny2 + 2 |z1 & x2|) X**x Z**z`` with ``x = x1 ^ x2``
    and ``z = z1 ^ z2``, and ``X**x Z**z`` is ``i**-|x & z| P(x, z)``.
    ``power`` is reduced to 0..3.
    """
    x, z = x1 ^ x2, z1 ^ z2
    return x, z, (ny1 + ny2 + 2 * popcount(z1 & x2) - popcount(x & z)) & 3


def _string_keys(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One key per Pauli string of masks ``x`` and ``z``: the big-endian bytes
    of both masks, which sort in the order of ``(x, z)`` and, unlike one
    packed integer, never collide."""
    return np.stack([x, z], axis=-1).astype(">i8").view("V16").ravel()


class HamExpansion:
    """A real linear combination of Pauli strings on ``n`` qubits.

    Terms are stored in canonical sorted order with negligible
    coefficients dropped: a term goes when ``|c| <= ZERO_TOL * max|c|``
    over the given terms, so the threshold scales with the expansion and
    a uniformly tiny drift keeps its terms.  Two expansions are equal iff
    they were built from the same coefficients.  Instances are immutable.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[PauliString, float] | None = None):
        if n < 1:
            raise InvalidTerm("an expansion needs at least one qubit")
        object.__setattr__(self, "n", n)
        given: dict[PauliString, float] = {}
        for p in sorted(terms or {}):
            c = float(terms[p])
            if p.n != n:
                raise InvalidTerm(f"term {p} has {p.n} sites, expected {n}")
            if not math.isfinite(c):
                raise InvalidTerm(f"term {p} has non-finite coefficient {c}")
            given[p] = c
        floor = ZERO_TOL * max(map(abs, given.values()), default=0.0)
        clean = {p: c for p, c in given.items() if abs(c) > floor}
        object.__setattr__(self, "_terms", clean)

    @property
    def terms(self) -> dict[PauliString, float]:
        """Canonical term -> coefficient map (copy; the expansion stays frozen)."""
        return dict(self._terms)

    def coefficient(self, term: PauliString | str) -> float:
        return self._terms.get(_as_string(term), 0.0)

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HamExpansion)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, tuple(self._terms.items())))

    def __setattr__(self, *_):
        raise AttributeError("HamExpansion is immutable")

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{p}" for p, c in self._terms.items()) or "0"
        return f"HamExpansion({self.n}, {body})"

    def max_weight(self) -> int:
        return max((p.weight() for p in self._terms), default=0)

    def is_two_body(self) -> bool:
        """True when every stored term touches at most two qubits."""
        return self.max_weight() <= 2

    def support(self) -> tuple[int, ...]:
        """Union of the supports of all stored terms."""
        sites: set[int] = set()
        for p in self._terms:
            sites.update(p.support())
        return tuple(sorted(sites))


def build_expansion(
    n: int, entries: Iterable[tuple[PauliString | str, float]]
) -> HamExpansion:
    """Assemble an expansion from (term, coefficient) pairs.

    Duplicate terms are summed.  Raises :class:`InvalidTerm` when a term
    has the wrong length or an invalid operator character.
    """
    acc: dict[PauliString, float] = {}
    for term, coeff in entries:
        p = _as_string(term)
        if p.n != n:
            raise InvalidTerm(f"term {p} has {p.n} sites, expected {n}")
        acc[p] = acc.get(p, 0.0) + float(coeff)
    return HamExpansion(n, acc)


@dataclass(frozen=True)
class CouplingGraph:
    """Weight-two connectivity of a two-body expansion.

    ``edges`` maps each unordered pair ``(k, l)`` with ``k < l`` to the
    coupling terms that touch it, each as ``(axis_k, axis_l, coeff)``.
    """

    n: int
    edges: tuple[tuple[tuple[int, int], tuple[tuple[str, str, float], ...]], ...]

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(pair for pair, _ in self.edges)

    def neighbors(self, site: int) -> tuple[int, ...]:
        out = set()
        for (k, l), _ in self.edges:
            if k == site:
                out.add(l)
            elif l == site:
                out.add(k)
        return tuple(sorted(out))


def coupling_graph(ham: HamExpansion) -> CouplingGraph:
    """Collect the weight-two terms of a two-body expansion into a graph."""
    if not ham.is_two_body():
        raise NotTwoBody(f"expansion has weight-{ham.max_weight()} terms")
    buckets: dict[tuple[int, int], list[tuple[str, str, float]]] = {}
    for p, c in ham.items():
        sup = p.support()
        if len(sup) != 2:
            continue
        k, l = sup
        buckets.setdefault((k, l), []).append((p.ops[k], p.ops[l], c))
    edges = tuple(
        (pair, tuple(sorted(buckets[pair]))) for pair in sorted(buckets)
    )
    return CouplingGraph(ham.n, edges)


@dataclass(frozen=True)
class EntanglingVerdict:
    """Connectivity answer plus the component partition and the coupling
    graph it was read from, as witnesses."""

    entangling: bool
    components: tuple[tuple[int, ...], ...]
    graph: CouplingGraph

    def __bool__(self) -> bool:
        return self.entangling


def is_entangling(ham: HamExpansion) -> EntanglingVerdict:
    """Check that the coupling graph connects all ``n`` qubits.

    A qubit with no coupling term counts as its own component, so any
    isolated qubit makes the verdict negative.
    """
    graph = coupling_graph(ham)
    parent = list(range(ham.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (k, l), _ in graph.edges:
        ra, rb = find(k), find(l)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for q in range(ham.n):
        groups.setdefault(find(q), []).append(q)
    components = tuple(tuple(groups[r]) for r in sorted(groups))
    return EntanglingVerdict(len(components) == 1, components, graph)


def max_coupling(ham: HamExpansion, pair: tuple[int, int]) -> tuple[str, str, float]:
    """Strongest coupling term on ``pair`` as ``(axis_k, axis_l, coeff)``.

    Ties on magnitude break toward the lexicographically smallest axis
    pair with the order X < Y < Z.  Raises :class:`NotCoupled` when the
    pair carries no coupling term at all.
    """
    k, l = pair
    if k == l or not (0 <= k < ham.n and 0 <= l < ham.n):
        raise InvalidTerm(f"invalid pair {pair} for {ham.n} qubits")
    best: tuple[str, str, float] | None = None
    for p, c in ham.items():
        if p.support() != (min(k, l), max(k, l)):
            continue
        r, s = p.ops[k], p.ops[l]
        if best is None or abs(c) > abs(best[2]) or (
            abs(c) == abs(best[2]) and (r, s) < (best[0], best[1])
        ):
            best = (r, s, c)
    if best is None:
        raise NotCoupled(f"no coupling between qubits {k} and {l}")
    return best


def project_to_sites(ham: HamExpansion, sites: Sequence[int]) -> HamExpansion:
    """Re-index the terms supported inside ``sites`` onto len(sites) qubits.

    Qubit ``q`` of the result corresponds to ``sites[q]`` of the input;
    terms leaking outside ``sites`` raise :class:`InvalidTerm`.
    """
    keep = set(sites)
    out: dict[PauliString, float] = {}
    for p, c in ham.items():
        if not set(p.support()) <= keep:
            raise InvalidTerm(f"term {p} not supported on {tuple(sites)}")
        out[PauliString("".join(p.ops[q] for q in sites))] = c
    return HamExpansion(len(sites), out)


def embed(ham: HamExpansion, n: int, sites: Sequence[int]) -> HamExpansion:
    """Place a small expansion onto ``sites`` of an ``n``-qubit register."""
    if len(sites) != ham.n:
        raise InvalidTerm("need one target site per qubit of the expansion")
    if len(set(sites)) != len(sites):
        raise InvalidTerm("target sites must be distinct")
    out: dict[PauliString, float] = {}
    for p, c in ham.items():
        ops = ["I"] * n
        for q, site in enumerate(sites):
            if not 0 <= site < n:
                raise InvalidTerm(f"site {site} outside 0..{n - 1}")
            ops[site] = p.ops[q]
        out[PauliString("".join(ops))] = c
    return HamExpansion(n, out)

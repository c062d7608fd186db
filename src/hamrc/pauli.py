"""Pauli-string expansions of n-qubit Hamiltonians and their exact algebra.

Everything here is symbolic: coefficients are plain floats attached to
Pauli strings, and all operations (conjugation, averaging, restriction)
act term by term with exact sign bookkeeping.  No matrices are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InvalidTerm, NotCoupled, NotTwoBody

AXES = "XYZ"
OPS = "IXYZ"

#: coefficients at or below this magnitude are treated as exact zeros
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
        return sum(1 for o in self.ops if o != "I")

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

    @staticmethod
    def pair(n: int, site_a: int, axis_a: str, site_b: int, axis_b: str) -> "PauliString":
        """Weight-two string with the given axes on two distinct sites."""
        if site_a == site_b:
            raise InvalidTerm("pair term needs two distinct sites")
        ops = ["I"] * n
        for site, axis in ((site_a, axis_a), (site_b, axis_b)):
            if not 0 <= site < n:
                raise InvalidTerm(f"site {site} outside 0..{n - 1}")
            ops[site] = axis
        return PauliString("".join(ops))

    def __str__(self) -> str:
        return self.ops


def _as_string(term: "PauliString | str") -> PauliString:
    return term if isinstance(term, PauliString) else PauliString(term)


class HamExpansion:
    """A real linear combination of Pauli strings on ``n`` qubits.

    Terms are stored in canonical sorted order with zero coefficients
    dropped, so two expansions are equal iff they were built from the
    same coefficients.  Instances are immutable.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[PauliString, float] | None = None):
        if n < 1:
            raise InvalidTerm("an expansion needs at least one qubit")
        object.__setattr__(self, "n", n)
        clean: dict[PauliString, float] = {}
        for p in sorted(terms or {}):
            c = float(terms[p])
            if p.n != n:
                raise InvalidTerm(f"term {p} has {p.n} sites, expected {n}")
            if abs(c) > ZERO_TOL:
                clean[p] = c
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


def conjugate_by_pauli(ham: HamExpansion, frame: PauliString) -> HamExpansion:
    """Conjugate every term of ``ham`` by a Pauli string.

    The result keeps every term in place with an exact +-1 sign, so
    weights and coefficient magnitudes are preserved and conjugating
    twice returns the original expansion exactly.
    """
    if frame.n != ham.n:
        raise InvalidTerm(f"frame acts on {frame.n} sites, expected {ham.n}")
    return HamExpansion(
        ham.n, {p: conjugation_sign(p, frame) * c for p, c in ham.items()}
    )


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

    def couplings(self, pair: tuple[int, int]) -> tuple[tuple[str, str, float], ...]:
        want = (min(pair), max(pair))
        for p, terms in self.edges:
            if p == want:
                return terms
        return ()

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


def filter_support(ham: HamExpansion, sites: Iterable[int]) -> HamExpansion:
    """Keep only the terms supported inside ``sites`` (same qubit count)."""
    keep = set(sites)
    return HamExpansion(
        ham.n, {p: c for p, c in ham.items() if set(p.support()) <= keep}
    )


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

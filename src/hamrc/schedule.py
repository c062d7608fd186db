"""Drift-plus-local-frame pulse schedules and their dense evaluation.

A schedule alternates two instruction kinds: ``LocalLayer`` (a tensor
product of single-qubit unitaries, applied instantaneously) and ``Drift``
(free evolution under the fixed drift Hamiltonian for a duration).  A
layer is stored as its sorted sites and one read-only ``(k, 2, 2)`` stack
of factors.  Layers are built, checked, merged and turned into matrices a
list at a time: each of those operations is one kernel that takes a few
stacked numpy calls however many layers and sites it is given, and a
single layer is a batch of one.

Instructions are listed in operator-product order: evaluating
``[A, B, C]`` yields ``A @ B @ C`` (times the global phase), so the last
entry acts first on a state.  The conjugation pattern
``[LocalLayer(U), Drift(t), LocalLayer(U^dag)]`` therefore evaluates to
``exp(-i t U H U^dag)`` exactly.

A compiled schedule is one step repeated many times, so a ``Schedule``
holds its instructions only as blocks ``(body, count)``: the body
repeated ``count`` times, block after block.  The schedule interns its
instructions by value once, when it is built, into one ``table`` of its
distinct instructions in order of first use, and every body is a
:class:`Listing`, a view of each position's index into that table.
Canonicalization, evaluation, serialization and the drift statistics
read the table and each body once, not every copy, and intern nothing
again; the expansion is built only when ``instructions`` is read.  A
parsed file is one block per run the parser found, each a view on the
file's table of records until the schedule interns them.

Evaluation keeps the operator order and changes only the grouping of
the product: the table's instructions are built once, and each
distinct product node once.  The nodes are one table over the bodies,
each body once; each body's product is raised to its count by repeated
squaring, and the blocks are multiplied left to right.  From
``GRAMMAR_QUBITS`` qubits up the nodes are a Re-Pair grammar (the most
frequent adjacent pair within a body becomes a node, round after round)
over all the bodies; below it, where a matrix product costs less than a
grammar round, they are each body's pairwise tree.  The pairwise tree
pairs a long level in numpy and a short one in a dict loop; both make
the same nodes.

From ``GRAMMAR_QUBITS`` up, two more rules save most of a product's
cost, and keep every grouping and basis.  A layer whose factors are all
exactly diagonal or anti-diagonal but on at most two sites is a sum of at
most four phased permutations ``diag(v) P_x``, ``P_x[r, r ^ x] = 1`` (a
Pauli frame is one, a signed permutation), and a product with it gathers
the other side's rows or columns instead of building the layer and
multiplying.  A drift whose matrix is real (no term holds an odd number
of Y) is diagonalized in real arithmetic, and each drift leaf is one
real product.  Below it nothing changes.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

import numpy as np

from .dense import check_dense_cap, dense_of_expansion, kron_all
from .errors import DimMismatch, InvalidTerm
from .pauli import HamExpansion

if TYPE_CHECKING:  # pragma: no cover
    from .bounds import ErrorPlan

UNITARY_TOL = 1e-10

_ID2 = np.eye(2, dtype=complex)
_ID2.flags.writeable = False


def _index(value: Any, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidTerm(f"{what} {value!r} is not an integer") from None


class LocalLayer:
    """One layer of single-qubit unitaries; omitted sites act as identity.

    A layer is its sorted integer sites and one read-only complex
    ``(k, 2, 2)`` stack, ``stack[i]`` acting on ``sites()[i]``.
    ``LocalLayer(factors)`` takes a ``site -> 2x2`` mapping and
    :meth:`from_stack` the sites and their factors; a site is anything
    ``operator.index`` accepts, stored as an ``int``.  ``factors`` and
    ``factor()`` are read-only views of the stack.

    Layers are made in batches: :meth:`from_stacks` builds a list of
    layers and :meth:`daggers` conjugates one, and a batch's factors are
    checked for unitarity in one pass, merged or conjugated layers too.
    A failing layer names its first failing site.  A single layer is a
    batch of one, so it takes the same path.

    Layers are values: equal, and hashing alike, when their sites and
    stacks are bitwise equal.  The key is computed once.
    """

    __slots__ = ("_sites", "_stack", "_key")

    def __init__(self, factors: Mapping[int, np.ndarray]):
        _adopt([self], [(list(factors), list(factors.values()))])

    @classmethod
    def from_stack(cls, sites: Sequence[int], stack: Sequence[np.ndarray]) -> "LocalLayer":
        """The layer with ``stack[i]`` on ``sites[i]``; the sites may come in any order."""
        return cls.from_stacks([(sites, stack)])[0]

    @classmethod
    def from_stacks(
        cls, specs: Iterable[tuple[Sequence[int], Sequence[np.ndarray]]]
    ) -> list["LocalLayer"]:
        """One layer per ``(sites, stack)`` pair, as :meth:`from_stack` makes it.

        All the factors are converted in one array and checked in one
        pass; the first layer that fails its unitarity check raises, with
        its index in ``specs`` as the error's ``layer``.
        """
        specs = list(specs)
        layers = [cls.__new__(cls) for _ in specs]
        _adopt(layers, specs)
        return layers

    @classmethod
    def daggers(cls, layers: Sequence["LocalLayer"]) -> list["LocalLayer"]:
        """The inverse of each layer, conjugated and checked in one pass."""
        if not layers:
            return []
        stack = np.concatenate([layer._stack for layer in layers]).swapaxes(1, 2)
        out = [cls.__new__(cls) for _ in layers]
        errors = _seal(out, [layer._sites for layer in layers], np.conj(stack, order="C"))
        if errors:
            raise errors[min(errors)]
        return out

    @property
    def stack(self) -> np.ndarray:
        """The read-only ``(k, 2, 2)`` factors, in site order."""
        return self._stack

    @property
    def factors(self) -> Mapping[int, np.ndarray]:
        """Read-only ``site -> 2x2`` view of the stack, in site order."""
        return MappingProxyType(dict(zip(self._sites, self._stack)))

    def sites(self) -> tuple[int, ...]:
        return self._sites

    def factor(self, site: int) -> np.ndarray:
        return self.factors.get(site, _ID2)

    def dense(self, n: int) -> np.ndarray:
        return _dense_layers([self], n)[0]

    def dagger(self) -> "LocalLayer":
        return LocalLayer.daggers([self])[0]

    def cache_key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalLayer) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"LocalLayer(sites={self.sites()})"


def _adopt(layers: Sequence[LocalLayer], specs: Sequence[tuple[Sequence[Any], Any]]) -> None:
    """Make ``layers[i]`` the layer of ``specs[i]``, a ``(sites, factors)`` pair.

    The factors of all the specs become one complex array, sorted by site
    within each layer and sealed; the first spec that fails raises.
    """
    try:
        site_lists = [list(map(operator.index, sites)) for sites, _ in specs]
    except TypeError:
        site_lists = [[_index(q, "layer site") for q in sites] for sites, _ in specs]
    for sites, (_, mats) in zip(site_lists, specs):
        if len(mats) != len(sites):
            raise InvalidTerm(f"{len(sites)} layer sites for {len(mats)} factors")
    flat = [u for _, mats in specs for u in mats]
    try:
        stack = np.array(flat, dtype=complex)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.shape != (len(flat), 2, 2):
        for sites, (_, mats) in zip(site_lists, specs):
            if any(np.shape(u) != (2, 2) for u in mats):
                bad = min(q for q, u in zip(sites, mats) if np.shape(u) != (2, 2))
                raise InvalidTerm(f"layer factor on site {bad} is not 2x2")
        # every factor is 2x2: a failed conversion raises again, and an
        # empty one is reshaped
        stack = np.array(flat, dtype=complex).reshape(-1, 2, 2)
    keys: list[tuple[int, ...]] = []
    moved: list[tuple[int, list[int]]] = []  # (first row, order) of each unsorted layer
    lo = 0
    for sites in site_lists:
        ordered = sorted(sites)
        if len(set(ordered)) < len(ordered):
            raise InvalidTerm(f"layer sites {ordered} repeat")
        if ordered != sites:
            moved.append((lo, sorted(range(len(sites)), key=sites.__getitem__)))
        keys.append(tuple(ordered))
        lo += len(sites)
    if moved:
        rows = np.arange(lo)
        for start, order in moved:
            rows[start:start + len(order)] = np.add(order, start)
        stack = stack[rows]
    errors = _seal(layers, keys, stack)
    if errors:
        first = min(errors)
        errors[first].layer = first
        raise errors[first]


def _seal(
    layers: Sequence[LocalLayer], sites: Sequence[tuple[int, ...]], stack: np.ndarray
) -> dict[int, InvalidTerm]:
    """Keep each layer's rows of ``stack``, once all its factors are unitary.

    ``stack`` is owned and holds the layers' factors back to back, each
    layer's on its sorted ``sites``; all of them are checked in one
    ``U^dag U - I`` pass.  ``layers[k]`` is filled in when its factors
    pass, and otherwise the result maps ``k`` to the error naming its
    first failing site.
    """
    defect = np.abs(np.matmul(stack.conj().swapaxes(1, 2), stack) - _ID2)
    errors: dict[int, InvalidTerm] = {}
    if not defect.max(initial=0.0) <= UNITARY_TOL:  # nan too
        per_site = defect.reshape(-1, 4).max(axis=1)
        failing = np.flatnonzero(~(per_site <= UNITARY_TOL))
        ends = np.cumsum([len(on) for on in sites])
        for i, k in zip(failing.tolist(), np.searchsorted(ends, failing, side="right").tolist()):
            if k not in errors:
                on = sites[k]
                errors[k] = InvalidTerm(
                    f"layer factor on site {on[i - ends[k] + len(on)]} "
                    f"has unitarity defect {per_site[i]:.3e}"
                )
    stack.flags.writeable = False
    lo = 0
    for k, (layer, on) in enumerate(zip(layers, sites)):
        hi = lo + len(on)
        if k not in errors:
            layer._sites, layer._stack = on, stack[lo:hi]
            layer._key = (on, layer._stack.tobytes())
        lo = hi
    return errors


def _scatter(layers: Sequence[LocalLayer], n: int) -> tuple[np.ndarray, list[int]]:
    """The layers' factors on an ``(len(layers), n, 2, 2)`` grid of identities,
    and the flat grid positions they took."""
    grid = np.empty((len(layers) * n, 2, 2), dtype=complex)
    grid[...] = _ID2
    at = [k * n + q for k, layer in enumerate(layers) for q in layer._sites]
    if at:
        grid[at] = np.concatenate([layer._stack for layer in layers])
    return grid.reshape(-1, n, 2, 2), at


def _dense_layers(layers: Sequence[LocalLayer], n: int) -> np.ndarray:
    """``(len(layers), 2^n, 2^n)`` stack of the layers' matrices on ``n`` qubits.

    Each layer's sites take its factors and the others the identity, and
    :func:`kron_all` multiplies them over the stack axis, so every matrix
    is bitwise the one a single layer's product gives.
    """
    return kron_all(_scatter(layers, n)[0].swapaxes(0, 1))


#: a layer as phased permutations ``(x, v)``: ``sum_s diag(v[s]) P_{x[s]}``,
#: where ``P_x[r, r ^ x] = 1``
PhasedPermutations = tuple[np.ndarray, np.ndarray]


def _phased_permutations(layers: Sequence[LocalLayer], n: int) -> list[PhasedPermutations | None]:
    """Each layer on ``n`` qubits as at most four phased permutations, or
    ``None`` for a layer with more than two full sites.

    A factor is exactly diagonal, exactly anti-diagonal (a zero of either
    sign is zero), or full.  Row ``r`` of ``diag(v) P_x`` holds ``v[r]``
    in column ``r ^ x``, so a factor is its diagonal part on flip bit 0
    plus its anti-diagonal part on flip bit 1, and one of them is zero
    unless the factor is full.  A layer's terms pick one part per site,
    either part on each full site, and multiply the picked parts in site
    order, as :func:`kron_all` multiplies the factors: ``2^k`` terms for
    ``k`` full sites.  All the layers go through one stacked product.
    """
    grid = _scatter(layers, n)[0]
    parts = np.stack([np.diagonal(grid, axis1=2, axis2=3), grid[..., [0, 1], [1, 0]]], axis=2)
    zero = (parts == 0).all(axis=3)  # (layer, site, part)
    full = ~zero.any(axis=2)
    # term s takes part (s >> j) & 1 on the j-th full site and the nonzero
    # part elsewhere: an identity site's diagonal, whose off-diagonal is zero
    rank = np.cumsum(full, axis=1) - full  # the full sites before each site
    bit = np.arange(4)[:, None] >> rank[:, None] & 1  # (layer, term, site)
    pick = np.where(full[:, None], bit, zero[:, None, :, 0])
    v = np.ones((len(layers), 4, 1), dtype=complex)
    for q in range(n):
        picked = parts[:, q][np.arange(len(layers))[:, None], pick[..., q]]
        v = (v[..., :, None] * picked[..., None, :]).reshape(len(layers), 4, -1)
    x = pick @ (1 << np.arange(n - 1, -1, -1))
    counts = full.sum(axis=1).tolist()
    return [(x[k, :1 << c], v[k, :1 << c]) if c <= 2 else None for k, c in enumerate(counts)]


def _permuted(terms: PhasedPermutations, m: np.ndarray, axis: int, scratch: np.ndarray) -> np.ndarray:
    """``L @ m`` (``axis`` 0) or ``m @ L`` (``axis`` 1) for the layer ``L``
    of ``terms``.

    Term ``s`` adds row ``r ^ x[s]`` of ``m`` times ``v[s, r]`` into row
    ``r``, or column ``c ^ x[s]`` times ``v[s, c ^ x[s]]`` into column
    ``c``.  The terms after the first are gathered into ``scratch``, an
    array like ``m``: every index is in range, and with mode "clip" take
    writes ``out`` directly, where the default mode fills a buffer.
    """
    at, out = np.arange(len(m)), None
    for x, v in zip(terms[0].tolist(), terms[1]):
        term = np.take(m, at ^ x, axis=axis, out=None if out is None else scratch, mode="clip")
        term *= v[:, None] if axis == 0 else v[at ^ x]
        out = term if out is None else np.add(out, term, out=out)
    return out


@dataclass(frozen=True)
class Drift:
    """Free evolution under the drift Hamiltonian for ``tau`` time units."""

    tau: float

    def __post_init__(self):
        if not (self.tau >= 0.0 and math.isfinite(self.tau)):
            raise InvalidTerm(
                f"drift duration must be finite and >= 0, got {self.tau}"
            )


Instruction = LocalLayer | Drift


def _value_key(ins: Instruction) -> Any:
    """What interning keys ``ins`` by: a layer's key, or a drift's duration,
    with ``0.0`` and ``-0.0`` apart (a zero is keyed by its sign)."""
    return ins.tau or (0, math.copysign(1.0, ins.tau)) if isinstance(ins, Drift) else ins.cache_key()


class Listing:
    """A body of instructions, viewed as ``table[k]`` for each ``k`` in ``ids``.

    In a :class:`Schedule`, every body's listing views the schedule's one
    ``table`` and ``ids`` is a read-only integer array into it.  A
    listing made by hand may view any table, such as a parsed file's
    records or another schedule's table, and is interned when a schedule
    is built from it.  A listing iterates as its instructions.
    """

    __slots__ = ("table", "ids")

    def __init__(self, table: Sequence[Instruction], ids: Sequence[int]):
        self.table, self.ids = table, np.asarray(ids, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Instruction]:
        return map(self.table.__getitem__, self.ids.tolist())

    def __repr__(self) -> str:
        return f"Listing({len(self)} instructions, table of {len(self.table)})"


#: ``(body, count)``: the body's instructions repeated ``count`` times
Block = tuple[Listing, int]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Operator-ordered instructions, stored as blocks, with a global phase.

    ``blocks`` lists ``(body, count)`` pairs, each body repeated ``count``
    times; a body is a :class:`Listing` or a sequence of instructions, and
    a count is anything ``operator.index`` accepts.  Empty bodies and zero
    counts are dropped; a negative count, a listing id outside its table
    and a layer on a site outside the register are refused.

    The constructor interns the instructions once, by :func:`_value_key`,
    so each distinct drift also has one spelling on file: ``table`` holds
    the distinct ones in order of first use, and every body becomes a
    listing of it.  ``len()`` counts the expanded instructions and
    ``instructions`` builds the expansion on each read; schedules are
    equal when their ``n``, ``phase`` and expansions are, however they
    are blocked.

    ``raw_drift_periods`` preserves the pre-merge drift count when the
    schedule came out of a compiler; ``plan`` carries the step plan that
    produced it, when one exists.  ``predicted_error`` is the compiler's
    error budget for the whole schedule (a chained total when several
    independently planned pieces were concatenated).
    """

    n: int
    blocks: tuple[Block, ...]
    phase: float = 0.0
    raw_drift_periods: int | None = None
    plan: "ErrorPlan | None" = None
    predicted_error: float | None = None
    table: tuple[Instruction, ...] = field(init=False, repr=False)

    def __post_init__(self):
        entries: list[Instruction] = []  # the bodies' tables, end to end
        last = start = None  # the last listing's table, and its first entry
        seqs, counts = [], []  # each kept block's ids into ``entries``, and its count
        for body, count in self.blocks:
            count = _index(count, "block count")
            if count < 0:
                raise InvalidTerm(f"block count must be >= 0, got {count}")
            if not (len(body) and count):
                continue
            if not isinstance(body, Listing):
                body = Listing(body, np.arange(len(body)))
            elif not (body.ids.min() >= 0 and body.ids.max() < len(body.table)):
                raise InvalidTerm(f"listing ids outside its table of {len(body.table)}")
            if body.table is not last:  # views of one table in a row add it once
                last, start = body.table, len(entries)
                entries += body.table
            seqs.append(body.ids + start)
            counts.append(count)
        flat = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.intp)
        used = list(dict.fromkeys(flat.tolist()))  # the entries used, in order of first use
        keyed = list(map(entries.__getitem__, used))
        index: dict[Any, int] = {}  # key -> its entry of ``table``
        slots = [index.setdefault(_value_key(ins), len(index)) for ins in keyed]
        first = dict(zip(reversed(slots), reversed(keyed)))  # each entry's first use
        table = tuple(map(first.__getitem__, range(len(index))))
        for sites in (ins.sites() for ins in table if isinstance(ins, LocalLayer)):  # sorted
            if sites and not (sites[0] >= 0 and sites[-1] < self.n):
                raise InvalidTerm(f"layer sites {sites} outside register of {self.n}")
        remap = np.zeros(len(entries), dtype=np.intp)
        remap[used] = slots
        ids = remap[flat]
        ids.flags.writeable = False
        ends = list(accumulate(map(len, seqs)))
        blocks = [(Listing(table, ids[lo:hi]), k) for lo, hi, k in zip([0, *ends], ends, counts)]
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "blocks", tuple(blocks))

    def __len__(self) -> int:
        return sum(len(body) * count for body, count in self.blocks)

    def _key(self) -> tuple:
        expansion = chain.from_iterable(list(body) * count for body, count in self.blocks)
        return self.n, self.phase, tuple(expansion)

    #: the blocks' expansion, built on each read
    instructions = property(lambda self: self._key()[2])

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, Schedule) else NotImplemented

    def _drifts(self) -> list[tuple[float, int]]:
        """Each distinct drift duration, and how many times the expansion holds it."""
        uses = [0] * len(self.table)
        for body, count in self.blocks:
            times = np.bincount(body.ids, minlength=len(uses)).tolist()
            uses = [u + m * count for u, m in zip(uses, times)]
        return [(ins.tau, m) for ins, m in zip(self.table, uses) if isinstance(ins, Drift)]

    def drift_count(self) -> int:
        return sum(m for _, m in self._drifts())

    def total_drift_time(self) -> float:
        # the exact sum, rounded once, so neither the blocking nor the order
        # of the expansion can change it
        return float(sum(Fraction(tau) * m for tau, m in self._drifts()))


_LAYER_DROP_TOL = 1e-12


def _merge_seams(
    seams: Sequence[tuple[LocalLayer, LocalLayer]], n: int
) -> list[LocalLayer | InvalidTerm]:
    """The merged layer of each seam ``(a, b)``, all in one stacked product.

    ``a`` comes left of ``b`` in operator order, so on each site both
    hold, the factors multiply ``a @ b``; a site that one side holds
    keeps its factor, since a product with the identity can flip the sign
    of a zero.  Each merged factor within ``_LAYER_DROP_TOL`` of the
    identity is dropped, and the merged layers are sealed in one pass.  A
    seam whose merged factors fail the check gives its error instead of a
    layer, for the caller to raise if it uses that seam.  ``n`` bounds the
    sites.
    """
    m = len(seams)
    factors, at = _scatter([a for a, _ in seams] + [b for _, b in seams], n)
    held = np.zeros(2 * m * n, dtype=bool)
    held[at] = True
    left, right = factors[:m], factors[m:]
    in_left, in_right = held.reshape(2, m, n)
    both = in_left & in_right
    grid = np.where(in_right[..., None, None], right, left)
    grid[both] = left[both] @ right[both]
    keep = (in_left | in_right) & ~(np.abs(grid - _ID2) <= _LAYER_DROP_TOL).all(axis=(2, 3))
    cols = np.nonzero(keep)[1].tolist()
    bounds = np.cumsum(keep.sum(axis=1)).tolist()
    sites = [tuple(cols[lo:hi]) for lo, hi in zip([0, *bounds], bounds)]
    merged: list[LocalLayer | InvalidTerm] = [LocalLayer.__new__(LocalLayer) for _ in seams]
    for k, error in _seal(merged, sites, grid[keep]).items():
        merged[k] = error
    return merged


def _seams(sched: Schedule) -> list[tuple[LocalLayer, LocalLayer]]:
    """The distinct layer-layer seams of the blocks, as written.

    They are the adjacent layers inside each body and across the join of
    two blocks, and the last and first instruction of a repeated body,
    when both are layers: pairs of table ids, read through one layer mask
    over the table.
    """
    if not sched.blocks:
        return []
    table = sched.table
    flat = np.concatenate([body.ids for body, _ in sched.blocks])
    repeated = [body.ids for body, count in sched.blocks if count > 1]
    left = np.concatenate([flat[:-1], *(ids[-1:] for ids in repeated)])
    right = np.concatenate([flat[1:], *(ids[:1] for ids in repeated)])
    is_layer = np.array([isinstance(ins, LocalLayer) for ins in table])
    both = is_layer[left] & is_layer[right]
    codes = set((left[both] * len(table) + right[both]).tolist())
    return [(table[a], table[b]) for a, b in (divmod(code, len(table)) for code in codes)]


def _fold(
    out: list[Instruction],
    body: Iterable[Instruction],
    merges: dict[tuple[LocalLayer, LocalLayer], LocalLayer | InvalidTerm],
    settled: list[tuple[Sequence[Instruction], int]],
    n: int,
) -> int:
    """Fold ``body`` onto ``out`` in place; returns the least length ``out`` had.

    ``settled`` is finished output to the left of ``out``: when a
    cancelled layer empties ``out``, its last copy moves back into ``out``.
    ``merges`` maps a seam's two layers to their merged layer (or the
    error its merge gives, raised here when the fold reaches it); layers
    are values, so each distinct seam is merged once.  A seam not yet in
    ``merges`` is merged as a batch of one on ``n`` sites.
    """
    low = len(out)
    for ins in body:
        if isinstance(ins, Drift):
            if ins.tau == 0.0:
                continue
            if out and isinstance(out[-1], Drift):
                out[-1] = Drift(out[-1].tau + ins.tau)
            else:
                out.append(ins)
        else:
            if out and isinstance(out[-1], LocalLayer):
                seam = (out[-1], ins)
                merged = merges.get(seam)
                if merged is None:
                    merged = merges[seam] = _merge_seams([seam], n)[0]
                if isinstance(merged, InvalidTerm):
                    raise merged
                if merged.sites():
                    out[-1] = merged
                else:
                    out.pop()
                    low = min(low, len(out))
                    while not out and settled:
                        last, count = settled.pop()
                        if count > 1:
                            settled.append((last, count - 1))
                        out.extend(last)
            elif ins.sites():
                out.append(ins)
    # a layer that cancels out leaves a drift last, so the next drift
    # fuses into it: ``out`` never holds two drifts or two layers in a row
    return low


def canonicalize(sched: Schedule) -> Schedule:
    """Merge adjacent layers, drop identities, fuse adjacent drifts.

    Every rewrite preserves the evaluated operator exactly (up to the
    1e-12 identity-dropping tolerance), so canonical and raw schedules
    are interchangeable for verification.  A repeated seam between two
    equal layers is merged once, and every occurrence shares the merged
    layer.

    Before the fold, the distinct seams written in the blocks (adjacent
    layers in a body, a repeated body's wrap and the joins between
    blocks) are merged in one stacked product; a seam the fold makes
    itself, a merged layer meeting the next layer, is merged by the same
    kernel as a batch of one.  A seam whose merged factors are not
    unitary raises :class:`InvalidTerm` only when the fold reaches it.

    A repeated body is folded one copy at a time until a copy settles: it
    leaves last the instructions it read, equal in value to what they
    were.  A copy reads the instructions it pops and the one left last
    after them, and only their values, so every later copy does the same,
    and the rest of the block is the settled copy's output repeated.  A
    join whose seam cancels, as an order-2 step's outer frame layers do,
    settles on its second copy.  A body that never settles (a lone drift
    that keeps fusing) is folded copy by copy.  The result has the same
    instructions as folding the expansion, and no two blocks of count 1
    in a row: they are one block, as ``parse_schedule`` reads them back,
    so the schedule and its file evaluate alike.
    """
    seams = _seams(sched)
    merges = dict(zip(seams, _merge_seams(seams, sched.n))) if seams else {}  # seam -> merged
    settled: list[tuple[Sequence[Instruction], int]] = []
    out: list[Instruction] = []
    for body, count in sched.blocks:
        for copy in range(count):
            size = len(out)
            # a copy pops at most one instruction per instruction of the body
            tail = out[-len(body) - 1:]
            low = _fold(out, body, merges, settled, sched.n)
            if not low:
                continue
            # the copy read out[low - 1:size], the last ``width`` of ``tail``
            width = size - low + 1
            # ``out`` holds no zero drift, so equal drifts share a sign
            if out[-width:] == tail[-width:]:
                # the copy rewrote them as out[low - 1:cut] and themselves
                left = count - copy - 1
                if left:
                    cut = len(out) - width
                    settled += [(tuple(out[:cut]), 1), (tuple(out[low - 1:cut]), left)]
                    del out[:cut]
                break
    settled.append((tuple(out), 1))
    blocks: list[tuple[Sequence[Instruction], int]] = []
    for body, count in settled:
        if count == 1 and blocks and blocks[-1][1] == 1:
            blocks[-1] = (blocks[-1][0] + body, 1)
        else:
            blocks.append((body, count))
    return Schedule(
        sched.n, blocks, sched.phase,
        raw_drift_periods=sched.raw_drift_periods,
        plan=sched.plan,
        predicted_error=sched.predicted_error,
    )


#: from this many ids up, a level of the pairwise tree is paired in numpy.
#: One level of a periodic listing takes 23 us in numpy against 30 us in
#: the dict loop at 512 ids, and 29 against 55 us at 1,024; at 256 ids
#: numpy is slower (20 against 15 us), and on random ids over 8 leaves the
#: two meet at 512 (32 against 29 us; one BLAS thread, 2-core machine)
NUMPY_LEVEL = 512


def _numpy_level(
    level: np.ndarray, nodes: dict[tuple[int, int], int], leaves: int
) -> np.ndarray:
    """One level of :func:`_product_tree`, paired in numpy.

    The level's distinct pairs are hash-consed into ``nodes`` in the
    order of their first use, as the loop does, so every node keeps its id.
    """
    top = leaves + len(nodes)  # past every id on the level and in ``nodes``
    codes = level[:-1:2] * top + level[1::2]
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.empty(len(distinct), dtype=np.intp)
    ids[order] = [
        nodes.setdefault(divmod(code, top), leaves + len(nodes))
        for code in distinct[order].tolist()
    ]
    up = ids[inverse]
    return np.append(up, level[-1]) if len(level) % 2 else up


def _product_tree(seq: Sequence[int], leaves: int, nodes: dict[tuple[int, int], int]) -> int:
    """Hash-consed pairwise product tree over the leaf ids ``seq``, and its
    root.

    Each level pairs neighbours left to right (an odd last entry moves up
    unpaired), and each distinct pair becomes one node of ``nodes``, the
    children of node ``leaves + k`` as its ``k``-th key: a pair it already
    holds keeps its id, and a new one is numbered in the order of first
    use.  A level of ``NUMPY_LEVEL`` ids or more is paired by
    :func:`_numpy_level`, which makes the same nodes.
    """
    level = seq
    while len(level) >= NUMPY_LEVEL:
        level = _numpy_level(np.asarray(level), nodes, leaves)
    if isinstance(level, np.ndarray):
        level = level.tolist()
    while len(level) > 1:
        up = [nodes.setdefault(pair, leaves + len(nodes))
              for pair in zip(level[::2], level[1::2])]
        if len(level) % 2:
            up.append(level[-1])
        level = up
    return level[0]


def _product_trees(
    seqs: Sequence[Sequence[int]], leaves: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The :func:`_product_tree` of each of ``seqs``, hash-consed into one
    node list: the children of node ``leaves + k`` at index ``k``, and each
    sequence's root."""
    nodes: dict[tuple[int, int], int] = {}
    roots = [_product_tree(seq, leaves, nodes) for seq in seqs]
    return list(nodes), roots


def _grammar_tree(
    seqs: Sequence[Sequence[int]], leaves: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Re-Pair grammar over the leaf ids ``seqs``, as :func:`_product_trees` returns.

    The sequences are read as one, but no pair spans two of them.  Each
    round replaces the most frequent adjacent pair of ids (the first in
    ``a * top + b`` order on a tie) by a new node, until no pair occurs
    twice; inside a run of one repeated id the pairs overlap, so every
    other one counts and is replaced.  What is left of each sequence is
    paired up by :func:`_product_trees`.  See Larsson and Moffat, *Off-line
    dictionary-based compression*, Proc. IEEE 88(11), 1722 (2000).
    """
    s = np.concatenate([np.asarray(seq, dtype=np.int64) for seq in seqs])
    cut = np.zeros(max(len(s) - 1, 0), dtype=bool)  # the pair at i spans two sequences
    cut[np.cumsum([len(seq) for seq in seqs[:-1]], dtype=np.intp) - 1] = True
    pairs: list[tuple[int, int]] = []
    while len(s) > 2:
        top = leaves + len(pairs)
        codes = s[:-1] * top + s[1:]
        same = (s[:-1] == s[1:]) & ~cut
        if same.any():
            at = np.arange(len(same))
            run_start = np.maximum.accumulate(np.where(same & ~np.r_[False, same[:-1]], at, 0))
            codes[same & ((at - run_start) % 2 == 1)] = top * top  # past every pair's code
        codes[cut] = top * top
        distinct, counts = np.unique(codes, return_counts=True)
        counts[distinct == top * top] = 0
        best = counts.argmax()  # the smallest code of the most frequent pair
        if counts[best] < 2:
            break
        where = np.flatnonzero(codes == distinct[best])
        pairs.append((int(s[where[0]]), int(s[where[0] + 1])))
        s[where] = top  # the new node's id
        s = np.delete(s, where + 1)
        cut = np.delete(cut, where)
    tree, roots = _product_trees(np.split(s, np.flatnonzero(cut) + 1), leaves + len(pairs))
    return pairs + tree, roots


#: from this register size up, a schedule's product nodes are a Re-Pair
#: grammar over its bodies, which shares more sub-products than their
#: pairwise trees; below it a 2^n x 2^n product costs less than a grammar
#: round.  From it up too, a layer with at most two full sites multiplies
#: in as phased permutations, never built (at 7 qubits a one-full-site
#: layer's two terms take about 75 us against 220 us for a complex
#: product), and a real drift is diagonalized in real arithmetic (1.1 ms
#: against 2.7 ms).  In-process ``hamrc verify`` of the seed-1 chain bench
#: jobs at n = 6 and 7, orders 1 and 2, took 4.4, 5.3, 11.8 and 14.8 ms
#: against 4.9, 6.3, 15.4 and 21.3 ms without them (medians of 6
#: alternating rounds, one BLAS thread, 2-core shared machine)
GRAMMAR_QUBITS = 6


#: matrix entries in one chunk of a schedule's layer leaves, built in one
#: stacked product: 64 layers at 4 qubits, 4 at 6, and one at 7 and above
LEAF_CHUNK = 2**14


def _product_nodes(
    sched: Schedule,
) -> tuple[tuple[Instruction, ...], list[tuple[int, int]], list[tuple[int, int]]]:
    """``(leaves, pairs, roots)``: the schedule is the product, left to
    right, of each ``(root, count)`` node raised to its count, where node
    ``len(leaves) + k`` is the product of ``pairs[k]``.

    The leaves are the schedule's table, and the nodes are one node list
    over the bodies' ids, each body once: the Re-Pair grammar from
    ``GRAMMAR_QUBITS`` up and the pairwise trees below.
    """
    tree = _grammar_tree if sched.n >= GRAMMAR_QUBITS else _product_trees
    pairs, roots = tree([body.ids for body, _ in sched.blocks], len(sched.table))
    return sched.table, pairs, list(zip(roots, (count for _, count in sched.blocks)))


def evaluate_schedule(sched: Schedule, drift: HamExpansion) -> np.ndarray:
    """Dense unitary implemented by a schedule under the given drift.

    The result is the operator-ordered product of the instruction
    matrices times ``exp(i*phase)``.  The order is kept; only the
    grouping changes: each distinct instruction and product node of
    :func:`_product_nodes` is built once, layers a chunk of ``LEAF_CHUNK``
    entries at a time, and each root is raised to its count by repeated
    squaring.  Raises :class:`TooLarge` when the register exceeds the
    dense cap (default 10 qubits).
    """
    check_dense_cap(sched.n)
    if drift.n != sched.n:
        raise DimMismatch(f"drift on {drift.n} qubits, schedule on {sched.n}")
    return _evaluate(sched, *_drift_eigh(drift))


def _drift_eigh(drift: HamExpansion) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues and eigenvectors of the drift's matrix, for :func:`_evaluate`.

    From ``GRAMMAR_QUBITS`` up, a matrix with no imaginary part (no term
    holds an odd number of Y) is diagonalized in real arithmetic, and the
    eigenvectors are real.
    """
    h = dense_of_expansion(drift)
    if drift.n >= GRAMMAR_QUBITS and not h.imag.any():
        h = h.real
    return np.linalg.eigh(h)


def _evaluate(sched: Schedule, evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``evaluate_schedule`` under the drift with eigendecomposition
    ``(evals, vecs)``, for a caller that evaluates many schedules on one
    drift and diagonalizes it once (:func:`_drift_eigh`).

    Nodes are built depth first, and each matrix is dropped after its last
    use by a parent or a root.  From ``GRAMMAR_QUBITS`` up, the layers
    that are phased permutations (:func:`_phased_permutations`) are split
    into their terms in one pass, and a product with one of them permutes
    the other side's rows or columns; real eigenvectors build each drift
    leaf in one real product.  The other layers are built a chunk at a
    time, when one of them is first asked for, each leaf its own array,
    so a leaf frees no later than it would alone.
    """
    n = sched.n
    if not sched.blocks:
        return np.exp(1j * sched.phase) * np.eye(2**n, dtype=complex)
    leaves, pairs, roots = _product_nodes(sched)
    uses = np.bincount([*chain.from_iterable(pairs), *(root for root, _ in roots)]).tolist()
    layers = [k for k, ins in enumerate(leaves) if isinstance(ins, LocalLayer)]
    held: dict[int, np.ndarray | PhasedPermutations] = {}
    if n >= GRAMMAR_QUBITS and layers:
        split = _phased_permutations([leaves[k] for k in layers], n)
        held.update((k, terms) for k, terms in zip(layers, split) if terms is not None)
        layers = [k for k in layers if k not in held]
    per_chunk = max(1, LEAF_CHUNK >> 2 * n)
    chunk_at = {k: i - i % per_chunk for i, k in enumerate(layers)}
    scratch = np.empty((2**n, 2**n), dtype=complex) if held else None
    real = np.isrealobj(vecs)
    vecs_h = np.ascontiguousarray(vecs.T) if real else vecs.conj().T

    def release(node: int) -> None:
        uses[node] -= 1
        if not uses[node]:
            del held[node]

    def dense(m: np.ndarray | PhasedPermutations) -> np.ndarray:
        return _permuted(m, np.eye(2**n, dtype=complex), 0, scratch) if isinstance(m, tuple) else m

    def value(node: int) -> np.ndarray | PhasedPermutations:
        m = held.get(node)
        if m is not None:
            return m
        if node < len(leaves):
            ins = leaves[node]
            if not isinstance(ins, Drift):
                chunk = layers[chunk_at[node]:chunk_at[node] + per_chunk]
                mats = _dense_layers([leaves[k] for k in chunk], n)
                held.update(zip(chunk, mats if len(chunk) == 1 else map(np.copy, mats)))
                return held[node]
            phases = np.exp(-1j * evals * ins.tau)
            if real:
                m = (vecs @ (phases[:, None] * vecs_h).view(float)).view(complex)
            else:
                m = (vecs * phases) @ vecs_h
        else:
            a, b = pairs[node - len(leaves)]
            left, right = value(a), value(b)
            if isinstance(left, tuple):
                m = _permuted(left, dense(right), 0, scratch)
            elif isinstance(right, tuple):
                m = _permuted(right, left, 1, scratch)
            else:
                m = left @ right
            release(a)
            release(b)
        held[node] = m
        return m

    w = None
    for root, count in roots:
        m = dense(value(root))
        release(root)
        if count > 1:
            m = np.linalg.matrix_power(m, count)
        w = m if w is None else w @ m
    return np.exp(1j * sched.phase) * w

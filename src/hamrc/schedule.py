"""Drift-plus-local-frame pulse schedules and their dense evaluation.

A schedule alternates two instruction kinds: ``LocalLayer`` (a tensor
product of single-qubit unitaries, applied instantaneously) and ``Drift``
(free evolution under the fixed drift Hamiltonian for a duration).

Instructions are listed in operator-product order: evaluating
``[A, B, C]`` yields ``A @ B @ C`` (times the global phase), so the last
entry acts first on a state.  The conjugation pattern
``[LocalLayer(U), Drift(t), LocalLayer(U^dag)]`` therefore evaluates to
``exp(-i t U H U^dag)`` exactly.

A compiled schedule is one step repeated many times, so a ``Schedule``
holds its instructions only as blocks ``(body, count)``: the body
repeated ``count`` times, block after block.  Every body is a
:class:`Listing`, its distinct instructions (interned by value once,
when the schedule is built) and each position's index into them.
Canonicalization, evaluation, serialization and the drift statistics
work on each body once, not on every copy, and the expansion is built
only when ``instructions`` is read.  A parsed file is one block, whose
listing is interned from the parser's table of distinct records without
a walk over its lines.

Evaluation keeps the operator order and changes only the grouping of
the product: a body's equal instructions are built once, each distinct
sub-product of its product nodes is built once, and the body's product
is raised to its count by repeated squaring.  The nodes come from a
Re-Pair grammar (the most frequent adjacent pair becomes a node, round
after round) from ``GRAMMAR_QUBITS`` qubits up, and from the pairwise
tree below, where a matrix product costs less than a grammar round.
The pairwise tree pairs a long level in numpy and a short one in a dict
loop; both make the same nodes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any

import numpy as np

from .dense import check_dense_cap, dense_of_expansion, hermitian_norm, kron_all
from .errors import DimMismatch, InvalidTerm
from .pauli import HamExpansion

if TYPE_CHECKING:  # pragma: no cover
    from .bounds import ErrorPlan

UNITARY_TOL = 1e-10

_ID2 = np.eye(2, dtype=complex)


class LocalLayer:
    """One layer of single-qubit unitaries; omitted sites act as identity.

    Layers are values: equal, and hashing alike, when their factors are
    bitwise equal.  The key is computed once, from the read-only copies.
    """

    __slots__ = ("factors", "_key")

    def __init__(self, factors: Mapping[int, np.ndarray]):
        checked: dict[int, np.ndarray] = {}
        for site in sorted(factors):
            u = np.asarray(factors[site], dtype=complex)
            if u.shape != (2, 2):
                raise InvalidTerm(f"layer factor on site {site} is not 2x2")
            defect = np.abs(u.conj().T @ u - _ID2).max()
            if not defect <= UNITARY_TOL:
                raise InvalidTerm(
                    f"layer factor on site {site} has unitarity defect {defect:.3e}"
                )
            u = u.copy()
            u.flags.writeable = False
            checked[site] = u
        self.factors = checked
        self._key = tuple((q, u.tobytes()) for q, u in checked.items())

    def sites(self) -> tuple[int, ...]:
        return tuple(self.factors)

    def factor(self, site: int) -> np.ndarray:
        return self.factors.get(site, _ID2)

    def dense(self, n: int) -> np.ndarray:
        return kron_all(self.factor(q) for q in range(n))

    def dagger(self) -> "LocalLayer":
        return LocalLayer({q: u.conj().T for q, u in self.factors.items()})

    def cache_key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalLayer) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"LocalLayer(sites={self.sites()})"


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


class Listing:
    """A body of instructions: its distinct ones, and each position's index.

    ``Listing(items)`` interns ``items`` by value.  Layers are equal when
    their keys are, and drifts when their durations are, except that
    ``0.0`` and ``-0.0`` stay apart (a zero is keyed by its sign), so each
    distinct drift also has one spelling on file.  ``table`` lists the
    distinct instructions in order of first use, and ``ids``, a read-only
    integer array, holds each position's index into it.

    With ``ids``, ``items`` is a table of records (a parsed file's
    distinct lines) and the listing is ``items[k]`` for each ``k`` in
    ``ids``: the records are interned and ``ids`` is remapped through
    them, with no walk over the positions.  A listing iterates as its
    instructions.
    """

    __slots__ = ("table", "ids")

    def __init__(self, items: Iterable[Instruction], ids: Sequence[int] | None = None):
        index: dict[Any, int] = {}
        table: list[Instruction] = []
        seq: list[int] = []
        for ins in items:
            key = ins.tau or (0, math.copysign(1.0, ins.tau)) if isinstance(ins, Drift) else ins
            k = index.setdefault(key, len(table))
            if k == len(table):
                table.append(ins)
            seq.append(k)
        self.table = tuple(table)
        remap = np.array(seq, dtype=np.intp)
        self.ids = remap if ids is None else remap[np.asarray(ids, dtype=np.intp)]
        self.ids.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Instruction]:
        return map(self.table.__getitem__, self.ids.tolist())

    def __repr__(self) -> str:
        return f"Listing({len(self)} instructions, {len(self.table)} distinct)"


#: ``(body, count)``: the body's instructions repeated ``count`` times
Block = tuple[Listing, int]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Operator-ordered instructions, stored as blocks, with a global phase.

    ``blocks`` lists ``(body, count)`` pairs, each body repeated ``count``
    times.  A :class:`Listing` body is kept as it is and any other becomes
    one, so each body is interned once; empty bodies and zero counts are
    dropped, and a layer on a site outside the register is refused.
    ``len()`` counts the expanded instructions and ``instructions`` builds
    the expansion on each read; schedules are equal when their ``n``,
    ``phase`` and expansions are, however they are blocked.

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

    def __post_init__(self):
        blocks = tuple(
            (body if isinstance(body, Listing) else Listing(body), count)
            for body, count in self.blocks if len(body) and count
        )
        for body, _ in blocks:
            for ins in body.table:
                sites = ins.sites() if isinstance(ins, LocalLayer) else ()  # sorted
                if sites and not (sites[0] >= 0 and sites[-1] < self.n):
                    raise InvalidTerm(f"layer sites {sites} outside register of {self.n}")
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return sum(len(body) * count for body, count in self.blocks)

    def _key(self) -> tuple:
        expansion = chain.from_iterable(list(body) * count for body, count in self.blocks)
        return self.n, self.phase, tuple(expansion)

    #: the blocks' expansion, built on each read
    instructions = property(lambda self: self._key()[2])

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, Schedule) else NotImplemented

    def drift_count(self) -> int:
        return sum(
            count * sum(isinstance(ins, Drift) for ins in body)
            for body, count in self.blocks
        )

    def total_drift_time(self) -> float:
        # the expansion's left-to-right sum, so blocking cannot change its rounding
        taus: list[float] = []
        for body, count in self.blocks:
            taus += [ins.tau for ins in body if isinstance(ins, Drift)] * count
        return sum(taus)


_LAYER_DROP_TOL = 1e-12


def _merge_layers(a: LocalLayer, b: LocalLayer) -> LocalLayer:
    # operator order: a comes left of b, so per-site factors multiply a @ b
    out: dict[int, np.ndarray] = {q: u for q, u in a.factors.items()}
    for q, u in b.factors.items():
        out[q] = out[q] @ u if q in out else u
    kept = {
        q: u for q, u in out.items() if np.abs(u - _ID2).max() > _LAYER_DROP_TOL
    }
    return LocalLayer(kept)


def _fold(
    out: list[Instruction],
    body: Iterable[Instruction],
    merges: dict[tuple[LocalLayer, LocalLayer], LocalLayer],
    settled: list[tuple[Sequence[Instruction], int]],
) -> int:
    """Fold ``body`` onto ``out`` in place; returns the least length ``out`` had.

    ``settled`` is finished output to the left of ``out``: when a
    cancelled layer empties ``out``, its last copy moves back into ``out``.
    ``merges`` maps a seam's two layers to their merged layer; layers are
    values, so each distinct seam is merged once.
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
                    merged = merges[seam] = _merge_layers(*seam)
                if merged.factors:
                    out[-1] = merged
                else:
                    out.pop()
                    low = min(low, len(out))
                    while not out and settled:
                        last, count = settled.pop()
                        if count > 1:
                            settled.append((last, count - 1))
                        out.extend(last)
            elif ins.factors:
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

    A repeated body is folded one copy at a time until a copy settles:
    it pops nothing it did not append, and leaves last an instruction
    equal to the one it found last.  The fold only reads the last
    instruction's value, so every later copy does the same, and the rest
    of the block is the settled copy's output repeated.  A body that never
    settles (one whose seam cancels, or a lone drift that keeps fusing) is
    folded copy by copy.  The result has the same instructions as folding
    the expansion.
    """
    merges: dict[tuple[LocalLayer, LocalLayer], LocalLayer] = {}  # (left, right) -> merged
    settled: list[tuple[Sequence[Instruction], int]] = []
    out: list[Instruction] = []
    for body, count in sched.blocks:
        for copy in range(count):
            start = out[-1] if out else None
            size = len(out)
            if _fold(out, body, merges, settled) < size or start is None:
                continue
            # ``out`` holds no zero drift, so equal drifts share a sign
            if out[-1] == start:
                # the copy rewrote ``start`` and appended out[size:]
                left = count - copy - 1
                if left:
                    settled += [(tuple(out[:-1]), 1), (tuple(out[size - 1:-1]), left)]
                    del out[:-1]
                break
    settled.append((tuple(out), 1))
    return Schedule(
        sched.n, settled, sched.phase,
        raw_drift_periods=sched.raw_drift_periods,
        plan=sched.plan,
        predicted_error=sched.predicted_error,
    )


#: from this many ids up, a level of the pairwise tree is paired in numpy.
#: One level of a periodic listing takes 37 us in numpy against 51 us in
#: the dict loop at 512 ids, and 46 against 104 us at 1,024; at 256 ids
#: numpy is slower (32 against 27 us), and on random ids over 8 leaves the
#: two meet at 512 (one BLAS thread, 2-core machine)
NUMPY_LEVEL = 512


def _numpy_level(
    level: np.ndarray, nodes: dict[tuple[int, int], int], leaves: int
) -> np.ndarray:
    """One level of :func:`_product_tree`, paired in numpy.

    The level's distinct pairs are hash-consed into ``nodes`` in the
    order of their first use, as the loop does, so every node keeps its id.
    """
    top = leaves + len(nodes)  # past every id on the level
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


def _product_tree(seq: Sequence[int], leaves: int) -> tuple[list[tuple[int, int]], int]:
    """Hash-consed pairwise product tree over the leaf ids ``seq``.

    Each level pairs neighbours left to right (an odd last entry moves up
    unpaired), and each distinct pair becomes one node, numbered in the
    order of first use.  Returns the children of node ``leaves + k`` at
    index ``k``, and the root.  A level of ``NUMPY_LEVEL`` ids or more is
    paired by :func:`_numpy_level`, which makes the same nodes.
    """
    nodes: dict[tuple[int, int], int] = {}
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
    return list(nodes), level[0]


def _grammar_tree(seq: Sequence[int], leaves: int) -> tuple[list[tuple[int, int]], int]:
    """Re-Pair grammar over the leaf ids ``seq``, as :func:`_product_tree` returns.

    Each round replaces the most frequent adjacent pair of ids (the first
    in ``a * top + b`` order on a tie) by a new node, until no pair occurs
    twice; inside a run of one repeated id the pairs overlap, so every
    other one counts and is replaced.  What is left is paired up by
    :func:`_product_tree`.  See Larsson and Moffat, *Off-line
    dictionary-based compression*, Proc. IEEE 88(11), 1722 (2000).
    """
    s = np.array(seq, dtype=np.int64)
    pairs: list[tuple[int, int]] = []
    while len(s) > 2:
        top = leaves + len(pairs)
        codes = s[:-1] * top + s[1:]
        same = s[:-1] == s[1:]
        if same.any():
            at = np.arange(len(same))
            run_start = np.maximum.accumulate(np.where(same & ~np.r_[False, same[:-1]], at, 0))
            codes[same & ((at - run_start) % 2 == 1)] = top * top  # past every pair's code
        counts = np.bincount(codes)
        counts[top * top:] = 0
        best = counts.argmax()
        if counts[best] < 2:
            break
        where = np.flatnonzero(codes == best)
        pairs.append((int(s[where[0]]), int(s[where[0] + 1])))
        s[where] = top  # the new node's id
        s = np.delete(s, where + 1)
    tree, root = _product_tree(s.tolist(), leaves + len(pairs))
    return pairs + tree, root


#: from this register size up, a body's product is built over its Re-Pair
#: grammar, which shares more sub-products than the pairwise tree; below
#: it a 2^n x 2^n product costs less than a grammar round
GRAMMAR_QUBITS = 6


def _body_product(body: Listing, n: int, evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Operator-ordered product of ``body`` over its shared product nodes.

    ``evals`` and ``vecs`` diagonalize the drift.  Each entry of the
    body's table is built once, and the nodes over its ids come from the
    Re-Pair grammar from ``GRAMMAR_QUBITS`` up and the pairwise tree below.
    """
    vecs_h = vecs.conj().T
    leaves, seq = body.table, body.ids
    tree = _grammar_tree if n >= GRAMMAR_QUBITS else _product_tree
    pairs, root = tree(seq, len(leaves))
    parents_left = [0] * (len(leaves) + len(pairs))
    for a, b in pairs:
        parents_left[a] += 1
        parents_left[b] += 1

    held: dict[int, np.ndarray] = {}

    def value(node: int) -> np.ndarray:
        # depth first; a matrix is dropped once its last parent is built
        m = held.get(node)
        if m is not None:
            return m
        if node < len(leaves):
            ins = leaves[node]
            if isinstance(ins, Drift):
                m = (vecs * np.exp(-1j * evals * ins.tau)) @ vecs_h
            else:
                m = ins.dense(n)
        else:
            a, b = pairs[node - len(leaves)]
            m = value(a) @ value(b)
            for child in (a, b):
                parents_left[child] -= 1
                if not parents_left[child]:
                    del held[child]
        held[node] = m
        return m

    return value(root)


def evaluate_schedule(sched: Schedule, drift: HamExpansion) -> np.ndarray:
    """Dense unitary implemented by a schedule under the given drift.

    The result is the operator-ordered product of the instruction
    matrices times ``exp(i*phase)``.  The order is kept; only the
    grouping changes: each block's body is multiplied over its product
    nodes (the Re-Pair grammar from ``GRAMMAR_QUBITS`` up, the pairwise
    tree below), each computed once, raised to the block's count by
    repeated squaring, and the blocks are multiplied left to right.  A
    one-block schedule with count 1 (a parsed file) is its body's
    product.  Raises :class:`TooLarge` when the register exceeds the
    dense cap (default 10 qubits).
    """
    check_dense_cap(sched.n)
    if drift.n != sched.n:
        raise DimMismatch(f"drift on {drift.n} qubits, schedule on {sched.n}")

    evals, vecs = np.linalg.eigh(dense_of_expansion(drift))
    if not sched.blocks:
        return np.exp(1j * sched.phase) * np.eye(2**sched.n, dtype=complex)

    w = None
    for body, count in sched.blocks:
        m = _body_product(body, sched.n, evals, vecs)
        if count > 1:
            m = np.linalg.matrix_power(m, count)
        w = m if w is None else w @ m
    return np.exp(1j * sched.phase) * w


def unitarity_defect(w: np.ndarray) -> float:
    """Operator-norm distance of ``w^dag w`` from the identity.

    ``w^dag w - I`` is Hermitian, so its norm is a Hermitian norm.
    """
    return hermitian_norm(w.conj().T @ w - np.eye(w.shape[0]))

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
also holds its instructions as blocks ``(body, count)``: the body
repeated ``count`` times, block after block.  Canonicalization,
evaluation, serialization and the drift statistics work on each body
once, not on every copy; a schedule built from a plain list (a parsed
file, say) is one block.

Evaluation keeps the operator order and changes only the grouping of
the product: a body's equal instructions are built once, each distinct
sub-product of its product nodes is built once, and the body's product
is raised to its count by repeated squaring.  The nodes come from a
Re-Pair grammar (the most frequent adjacent pair becomes a node, round
after round) from ``GRAMMAR_QUBITS`` qubits up, and from the pairwise
tree below, where a matrix product costs less than a grammar round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from .dense import check_dense_cap, dense_of_expansion, hermitian_norm, kron_all
from .errors import DimMismatch, InvalidTerm
from .pauli import HamExpansion

if TYPE_CHECKING:  # pragma: no cover
    from .bounds import ErrorPlan

UNITARY_TOL = 1e-10

_ID2 = np.eye(2, dtype=complex)


class LocalLayer:
    """One layer of single-qubit unitaries; omitted sites act as identity."""

    __slots__ = ("factors",)

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

    def sites(self) -> tuple[int, ...]:
        return tuple(self.factors)

    def factor(self, site: int) -> np.ndarray:
        return self.factors.get(site, _ID2)

    def dense(self, n: int) -> np.ndarray:
        return kron_all(self.factor(q) for q in range(n))

    def dagger(self) -> "LocalLayer":
        return LocalLayer({q: u.conj().T for q, u in self.factors.items()})

    def cache_key(self) -> tuple:
        return tuple((q, u.tobytes()) for q, u in self.factors.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalLayer) and self.cache_key() == other.cache_key()

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

#: ``(body, count)``: the body's instructions repeated ``count`` times
Block = tuple[tuple[Instruction, ...], int]


@dataclass(frozen=True)
class Schedule:
    """An operator-ordered instruction list with an explicit global phase.

    ``raw_drift_periods`` preserves the pre-merge drift count when the
    schedule came out of a compiler; ``plan`` carries the step plan that
    produced it, when one exists.  ``predicted_error`` is the compiler's
    error budget for the whole schedule (a chained total when several
    independently planned pieces were concatenated).

    ``blocks`` lists the same instructions as repeated bodies, and
    ``instructions`` is their expansion; left out, it is the one block
    ``((instructions, 1),)``.  :meth:`from_blocks` builds both, and a copy
    with other instructions needs its own blocks.
    """

    n: int
    instructions: tuple[Instruction, ...]
    phase: float = 0.0
    raw_drift_periods: int | None = field(default=None, compare=False)
    plan: "ErrorPlan | None" = field(default=None, compare=False)
    predicted_error: float | None = field(default=None, compare=False)
    blocks: tuple[Block, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not self.blocks:
            object.__setattr__(self, "blocks", ((self.instructions, 1),))
        elif sum(len(body) * count for body, count in self.blocks) != len(self.instructions):
            raise InvalidTerm("schedule blocks do not expand to its instructions")

    @classmethod
    def from_blocks(
        cls, n: int, blocks: Iterable[tuple[Sequence[Instruction], int]], phase: float = 0.0,
        **meta: Any,
    ) -> "Schedule":
        """Schedule of the blocks in order; empty bodies are dropped."""
        kept = tuple((tuple(body), count) for body, count in blocks if body and count)
        expansion: list[Instruction] = []
        for body, count in kept:
            expansion += body * count
        return cls(n, tuple(expansion), phase, blocks=kept, **meta)

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
    body: Sequence[Instruction],
    merges: dict[tuple[int, int], tuple[LocalLayer, LocalLayer, LocalLayer]],
    settled: list[Block],
) -> int:
    """Fold ``body`` onto ``out`` in place; returns the least length ``out`` had.

    ``settled`` is finished output to the left of ``out``: when a
    cancelled layer empties ``out``, its last copy moves back into ``out``.
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
                seam = (id(out[-1]), id(ins))
                if seam not in merges:
                    merges[seam] = (out[-1], ins, _merge_layers(out[-1], ins))
                merged = merges[seam][2]
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
    are interchangeable for verification.  A repeated seam between the
    same two layer objects is merged once, and every occurrence shares
    the merged layer.

    A repeated body is folded one copy at a time until a copy settles:
    it pops nothing it did not append, and leaves last the same
    instruction it found last.  The fold only reads the last instruction,
    so every later copy does the same, and the rest of the block is the
    settled copy's output repeated.  A body that never settles (one whose
    seam cancels, or a lone drift that keeps fusing) is folded copy by
    copy.  The result has the same instructions as folding the expansion.
    """
    # (id(left), id(right)) -> (left, right, merged); holding both inputs
    # keeps their ids from being reused while the memo is alive
    merges: dict[tuple[int, int], tuple[LocalLayer, LocalLayer, LocalLayer]] = {}
    settled: list[Block] = []
    out: list[Instruction] = []
    for body, count in sched.blocks:
        for copy in range(count):
            start = out[-1] if out else None
            size = len(out)
            if _fold(out, body, merges, settled) < size or start is None:
                continue
            # layers by identity, which the seam memo keeps stable; drifts by
            # value, and ``out`` holds no zero drift, so equal ones share a sign
            end = out[-1]
            if end is start or (isinstance(end, Drift) and end == start):
                # the copy rewrote ``start`` and appended out[size:]
                left = count - copy - 1
                if left:
                    settled += [(tuple(out[:-1]), 1), (tuple(out[size - 1:-1]), left)]
                    del out[:-1]
                break
    settled.append((tuple(out), 1))
    return Schedule.from_blocks(
        sched.n, settled, sched.phase,
        raw_drift_periods=sched.raw_drift_periods,
        plan=sched.plan,
        predicted_error=sched.predicted_error,
    )


def intern_instructions(
    instructions: Sequence[Instruction],
) -> tuple[list[Instruction], list[int]]:
    """Distinct instructions in order of first use, and each one's index.

    Drifts are equal when their durations are, except that ``0.0`` and
    ``-0.0`` stay apart (a zero is keyed by its sign), so each distinct
    drift also has one spelling on file; layers are equal when their
    ``cache_key()`` is, computed once per layer object.
    """
    index: dict[Any, int] = {}
    by_object: dict[int, int] = {}  # id(layer) -> index; ``instructions`` holds them
    distinct: list[Instruction] = []
    seq: list[int] = []
    for ins in instructions:
        if isinstance(ins, Drift):
            key = ins.tau or (0, math.copysign(1.0, ins.tau))
            k = index.setdefault(key, len(distinct))
        else:
            k = by_object.get(id(ins))
            if k is None:
                k = by_object[id(ins)] = index.setdefault(ins.cache_key(), len(distinct))
        if k == len(distinct):
            distinct.append(ins)
        seq.append(k)
    return distinct, seq


def _product_tree(seq: list[int], leaves: int) -> tuple[list[tuple[int, int]], int]:
    """Hash-consed pairwise product tree over the leaf ids ``seq``.

    Each level pairs neighbours left to right (an odd last entry moves up
    unpaired), and each distinct pair becomes one node.  Returns the
    children of node ``leaves + k`` at index ``k``, and the root.
    """
    nodes: dict[tuple[int, int], int] = {}
    level = seq
    while len(level) > 1:
        up = [nodes.setdefault(pair, leaves + len(nodes))
              for pair in zip(level[::2], level[1::2])]
        if len(level) % 2:
            up.append(level[-1])
        level = up
    return list(nodes), level[0]


def _grammar_tree(seq: list[int], leaves: int) -> tuple[list[tuple[int, int]], int]:
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


def _body_product(
    body: Sequence[Instruction], n: int, evals: np.ndarray, vecs: np.ndarray
) -> np.ndarray:
    """Operator-ordered product of ``body`` over its shared product nodes.

    ``evals`` and ``vecs`` diagonalize the drift.  Each distinct drift
    duration or layer is built once, and the nodes come from the Re-Pair
    grammar from ``GRAMMAR_QUBITS`` up and the pairwise tree below.
    """
    vecs_h = vecs.conj().T
    leaves, seq = intern_instructions(body)
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
    if not sched.instructions:
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

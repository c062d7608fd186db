"""Isolate a principal pair of an n-qubit drift by Pauli frame averaging.

One averaging round over {identity, all-X, all-Y, all-Z} applied to the
non-principal sites cancels every coupling between the pair and the rest
as well as every local term outside the pair; couplings inside the rest
survive only when both sites carry the same axis.  Splitting the rest
into halves and averaging over frames supported on the first halves
kills cross-half couplings, so recursing on the halves leaves nothing
outside the pair after at most a logarithmic number of rounds.  Every
cancellation is a signed sum of equal floats divided by a power of four,
so the surviving coefficients are reproduced exactly, not just to
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import synth as _synth
from .cliffords import PAULI_CLIFF, LocalClifford
from .errors import HamrcError, InvalidTerm
from .pauli import (
    HamExpansion,
    PauliString,
    conjugation_sign,
    embed,
    filter_support,
    max_coupling,
    project_to_sites,
)
from .schedule import Schedule


@dataclass(frozen=True)
class FrameSet:
    """Weighted Pauli conjugators whose average isolates the pair.

    ``depth`` counts the block-splitting rounds applied after the first
    principal-versus-rest round.  Weights are uniform per construction
    level (duplicate conjugators merge by summing) and always total 1.
    """

    n: int
    pair: tuple[int, int]
    frames: tuple[tuple[float, PauliString], ...]
    depth: int

    def weight_total(self) -> float:
        return sum(w for w, _ in self.frames)


_AXIS_PRODUCT = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}


def _compose_strings(a: PauliString, b: PauliString) -> PauliString:
    """Axis pattern of the operator product a*b; phases are irrelevant
    because conjugation by a Pauli string ignores them."""
    return PauliString(
        "".join(_AXIS_PRODUCT[(x, y)] for x, y in zip(a.ops, b.ops))
    )


def _uniform_conjugators(n: int, sites: list[int]) -> list[PauliString]:
    out = [PauliString.identity(n)]
    for axis in "XYZ":
        ops = ["I"] * n
        for q in sites:
            ops[q] = axis
        out.append(PauliString("".join(ops)))
    return out


def _average_round(ham: HamExpansion, conjugators: list[PauliString]) -> HamExpansion:
    """Average over four conjugators; survivors keep their coefficient exactly."""
    acc: dict[PauliString, float] = {}
    for frame in conjugators:
        for p, c in ham.items():
            acc[p] = acc.get(p, 0.0) + conjugation_sign(p, frame) * c
    return HamExpansion(ham.n, {p: c / 4.0 for p, c in acc.items()})


def _check_pair(n: int, pair: tuple[int, int]) -> tuple[int, int]:
    a, b = pair
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise InvalidTerm(f"invalid principal pair {pair} for {n} qubits")
    return pair


def _compose_frame_sets(
    n: int, pair: tuple[int, int], rounds: list[list[PauliString]], depth: int
) -> FrameSet:
    weight = 0.25 ** len(rounds)
    merged: dict[PauliString, float] = {}
    order: list[PauliString] = []
    for combo in product(*rounds):
        frame = combo[0]
        for extra in combo[1:]:
            frame = _compose_strings(frame, extra)
        if frame not in merged:
            merged[frame] = 0.0
            order.append(frame)
        merged[frame] += weight
    frames = tuple((merged[f], f) for f in order)
    return FrameSet(n, pair, frames, depth)


def _principal_round(
    ham: HamExpansion, pair: tuple[int, int]
) -> tuple[list[int], list[PauliString], HamExpansion]:
    """The sites off the pair, the round's conjugators on them, and the average."""
    rest = [q for q in range(ham.n) if q not in pair]
    conjugators = _uniform_conjugators(ham.n, rest)
    return rest, conjugators, _average_round(ham, conjugators)


def decouple_principal(
    ham: HamExpansion, pair: tuple[int, int]
) -> tuple[HamExpansion, FrameSet]:
    """Single averaging round cutting the pair loose from everything else.

    The result keeps the pair-supported terms exactly, wipes out every
    pair-to-rest coupling and rest-local term, and keeps same-axis
    couplings inside the rest (later rounds deal with those).
    """
    _check_pair(ham.n, pair)
    _, conjugators, averaged = _principal_round(ham, pair)
    return averaged, _compose_frame_sets(ham.n, pair, [conjugators], depth=0)


def isolate_principal(
    ham: HamExpansion, pair: tuple[int, int]
) -> tuple[HamExpansion, FrameSet]:
    """Frame set whose average leaves exactly the pair-restricted drift.

    Applies the principal round, then splits the remaining sites into
    halves and keeps averaging while any coupling survives inside a
    block; the survivor check is symbolic, so rounds stop as soon as the
    expansion is clean rather than after a worst-case count.
    """
    _check_pair(ham.n, pair)
    if not ham.is_two_body():
        raise InvalidTerm("decoupling expects a two-body drift")
    rest, conjugators, current = _principal_round(ham, pair)
    rounds: list[list[PauliString]] = [conjugators]

    blocks = [rest] if rest else []
    max_rounds = math.ceil(math.log2(len(rest))) if len(rest) > 1 else 0
    depth = 0
    while True:
        splittable = [b for b in blocks if len(b) > 1]
        dirty = any(
            len(set(p.support()) & set(b)) == 2
            for p in current
            for b in splittable
        )
        if not dirty:
            break
        if depth >= max_rounds:
            raise HamrcError("decoupling failed to terminate")  # pragma: no cover
        halves = []
        fronts: list[int] = []
        for b in blocks:
            if len(b) == 1:
                halves.append(b)
                continue
            cut = (len(b) + 1) // 2
            fronts.extend(b[:cut])
            halves.extend([b[:cut], b[cut:]])
        conj = _uniform_conjugators(ham.n, fronts)
        current = _average_round(current, conj)
        rounds.append(conj)
        blocks = halves
        depth += 1

    expected = filter_support(ham, pair)
    if current != expected:
        raise HamrcError(
            "decoupled drift does not match the pair restriction exactly"
        )  # pragma: no cover
    return current, _compose_frame_sets(ham.n, pair, rounds, depth)


def expand_step_model(
    model2: _synth.StepModel,
    drift: HamExpansion,
    pair: tuple[int, int],
    frames: FrameSet,
) -> _synth.StepModel:
    """Lift a two-qubit step model to n qubits through a frame set.

    Every framed drift splits into one sub-drift per frame: the pair
    conjugators land on the principal sites, the frame's Pauli string on
    the rest, and the rate picks up the frame weight.  Exact local
    factors embed unchanged.
    """
    factors: list[_synth.StepFactor] = []
    for factor in model2.factors:
        if isinstance(factor, _synth.LocalFactor):
            factors.append(
                _synth.LocalFactor(embed(factor.ham, drift.n, pair))
            )
            continue
        pair_layer = {pair[q]: cliff for q, cliff in factor.frame}
        for weight, frame in frames.frames:
            layer: dict[int, LocalClifford] = dict(pair_layer)
            for site, axis in enumerate(frame.ops):
                if axis != "I":
                    layer[site] = PAULI_CLIFF[axis]
            factors.append(
                _synth.FramedDrift(
                    factor.rate * weight, tuple(sorted(layer.items()))
                )
            )
    return _synth.StepModel(drift.n, drift, tuple(factors), model2.phase_rate)


def pair_step_model(
    drift: HamExpansion, pair: tuple[int, int], target_pair: HamExpansion
) -> _synth.StepModel:
    """n-qubit step model realizing a two-qubit target on the pair.

    Raises :class:`NotCoupled` naming the register sites when the drift
    has no coupling term on the pair.
    """
    if target_pair.n != 2:
        raise InvalidTerm("the pair target must be a two-qubit expansion")
    max_coupling(drift, pair)
    isolated, frames = isolate_principal(drift, pair)
    drift2 = project_to_sites(isolated, pair)
    return expand_step_model(
        _synth.step_model(drift2, target_pair), drift, pair, frames
    )


def compile_on_pair(
    drift: HamExpansion,
    pair: tuple[int, int],
    target_pair: HamExpansion,
    t: float,
    *,
    steps: int | None = None,
    epsilon: float | None = None,
    order: int = 1,
    bound: str = "chained",
    dense_cap: int | None = None,
) -> Schedule:
    """Schedule approximating ``exp(-i K t)`` for a pair target ``K``
    embedded in an n-qubit register, using only the n-qubit drift and
    local frames.
    """
    return _synth._repeat_steps(
        pair_step_model(drift, pair, target_pair),
        embed(target_pair, drift.n, pair),
        t,
        steps=steps,
        epsilon=epsilon,
        order=order,
        bound=bound,
        dense_cap=dense_cap,
    )

"""Isolate a principal pair of an n-qubit drift by Pauli frame averaging.

Averaging a term over the four frames {identity, all-X, all-Y, all-Z} on
a set of sites keeps it unchanged when it commutes with all-X and all-Z
there and cancels it otherwise, so the survivors of each round follow
from one commutation test and no coefficient is ever recomputed.  The
first round, on the sites off the pair, cancels every coupling between
the pair and the rest as well as every local term outside the pair;
couplings inside the rest survive only when both sites carry the same
axis.  Splitting the rest into halves and averaging over frames
supported on the first halves kills cross-half couplings, so recursing
on the halves leaves nothing outside the pair after at most a
logarithmic number of rounds.
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
from .schedule import Schedule, canonicalize


@dataclass(frozen=True)
class FrameSet:
    """Weighted Pauli conjugators whose average isolates the pair.

    ``depth`` counts the block-splitting rounds applied after the first
    principal-versus-rest round.  Weights are uniform per construction
    level (duplicate conjugators merge by summing) and always total 1.
    """

    frames: tuple[tuple[float, PauliString], ...]
    depth: int


_AXIS_CODE = {"I": 0, "X": 1, "Z": 2, "Y": 3}
_CODE_AXIS = "IXZY"


def _check_pair(n: int, pair: tuple[int, int]) -> tuple[int, int]:
    a, b = pair
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise InvalidTerm(f"invalid principal pair {pair} for {n} qubits")
    return pair


def _round_generators(n: int, sites: list[int]) -> tuple[PauliString, PauliString]:
    """All-X and all-Z on ``sites``; the round's frames are the group they generate."""
    return tuple(
        PauliString("".join(axis if q in sites else "I" for q in range(n)))
        for axis in "XZ"
    )


def _frame_set(n: int, rounds: list[list[int]], depth: int) -> FrameSet:
    """One frame per choice of I, X, Y or Z on each round's sites.

    A site's axis is the XOR of the 2-bit codes chosen by the rounds that
    contain it, which is the Pauli product up to a phase that conjugation
    ignores.  Repeated frames merge by summing weights, in first-seen order.
    """
    weight = 0.25 ** len(rounds)
    merged: dict[PauliString, float] = {}
    for choice in product("IXYZ", repeat=len(rounds)):
        codes = [0] * n
        for axis, sites in zip(choice, rounds):
            for q in sites:
                codes[q] ^= _AXIS_CODE[axis]
        frame = PauliString("".join(_CODE_AXIS[c] for c in codes))
        merged[frame] = merged.get(frame, 0.0) + weight
    return FrameSet(tuple((w, f) for f, w in merged.items()), depth)


def isolate_principal(
    ham: HamExpansion, pair: tuple[int, int]
) -> tuple[HamExpansion, FrameSet]:
    """Frame set whose average leaves exactly the pair-restricted drift.

    The first round acts on every site off the pair.  Then the remaining
    sites split into halves and rounds continue while any surviving
    coupling lies inside a block; the survivor check is symbolic, so
    rounds stop as soon as the expansion is clean rather than after a
    worst-case count.
    """
    _check_pair(ham.n, pair)
    if not ham.is_two_body():
        raise InvalidTerm("decoupling expects a two-body drift")
    rest = [q for q in range(ham.n) if q not in pair]
    rounds = [rest]
    survivors = list(ham)

    blocks = [rest] if rest else []
    max_rounds = math.ceil(math.log2(len(rest))) if len(rest) > 1 else 0
    depth = 0
    while True:
        x, z = _round_generators(ham.n, rounds[-1])
        survivors = [
            p for p in survivors
            if conjugation_sign(p, x) == conjugation_sign(p, z) == 1
        ]
        splittable = [b for b in blocks if len(b) > 1]
        dirty = any(
            len(set(p.support()) & set(b)) == 2
            for p in survivors
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
        rounds.append(fronts)
        blocks = halves
        depth += 1

    expected = filter_support(ham, pair)
    if survivors != list(expected):
        raise HamrcError(
            "decoupled drift does not match the pair restriction exactly"
        )  # pragma: no cover
    return expected, _frame_set(ham.n, rounds, depth)


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
) -> Schedule:
    """Schedule approximating ``exp(-i K t)`` for a pair target ``K``
    embedded in an n-qubit register, using only the n-qubit drift and
    local frames.
    """
    return canonicalize(
        _synth._repeat_steps(
            pair_step_model(drift, pair, target_pair),
            embed(target_pair, drift.n, pair),
            t,
            steps=steps, epsilon=epsilon, order=order, bound=bound,
        )
    )

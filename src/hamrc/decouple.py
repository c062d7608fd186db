"""Isolate a principal pair of an n-qubit drift by Pauli frame averaging.

Averaging a term over the group generated by a few Pauli strings keeps it
unchanged when it commutes with every generator and cancels it otherwise,
so the survivors follow from one commutation test on ``(x, z)`` masks and
no coefficient is ever recomputed.  The frames are the group's ``2^k``
elements, each of weight ``2^-k``, so the fewer the generators, the fewer
framed drifts every later layer handles.  Both generator sets below are
built in full, and the cover is used when it is strictly smaller:

* A greedy cover of the drift (Wocjan, Rötteler, Janzing & Beth, PRA 65,
  042309 (2002)).  One table holds the commutation test of every term off
  the pair against every Pauli string on the ``r`` sites off the pair;
  while a term is left, pick the string that anticommutes with the most
  of them.  The table has ``4^r`` columns, so the cover runs for
  ``r <= 6`` only.
* The drift-blind halving rounds, all-X and all-Y on a set of sites.  The
  first round, on the sites off the pair, cancels every coupling between
  the pair and the rest as well as every local term outside the pair;
  couplings inside the rest survive only when both sites carry the same
  axis.  Splitting the rest into halves and averaging over frames
  supported on the first halves kills cross-half couplings, so recursing
  on the halves leaves nothing outside the pair after at most a
  logarithmic number of rounds.

A tie keeps the halving rounds, so the cover only ever removes frames.
``pair_step_model`` then orders the generators so that the product's
first-order ordering error is the part the pair's own frames cancel best.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import synth as _synth
from .cliffords import PAULI_CLIFF
from .dense import _parity, pauli_masks
from .errors import HamrcError, InvalidTerm
from .pauli import HamExpansion, PauliString, embed, max_coupling, project_to_sites
from .schedule import Schedule, canonicalize

#: a Pauli string as its packed ``(x, z)`` masks, qubit 0 the top bit, as
#: ``dense.pauli_masks`` packs them
Masks = tuple[int, int]

#: the cover searches every Pauli string on the sites off the pair only up
#: to this many strings, i.e. six sites
MAX_COVER_CANDIDATES = 4096

#: frame orders are compared over every order of at most this many generators
MAX_ORDERED_GENERATORS = 3


@dataclass(frozen=True)
class FrameSet:
    """Weighted Pauli conjugators whose average isolates the pair.

    The frames are the ``2^k`` elements of the group some generators span,
    each of weight ``2^-k``, in binary-counting order: frame ``i`` is the
    product of the generators whose bit is set in ``i``.  ``depth`` counts
    the halving rounds applied after the first principal-versus-rest round;
    it is 0 when the generators come from the greedy cover.
    """

    frames: tuple[tuple[float, PauliString], ...]
    depth: int


def _check_pair(n: int, pair: tuple[int, int]) -> tuple[int, int]:
    a, b = pair
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise InvalidTerm(f"invalid principal pair {pair} for {n} qubits")
    return pair


def _anticommutes(term: Masks, gen: Masks) -> bool:
    return ((term[0] & gen[1]) ^ (term[1] & gen[0])).bit_count() % 2 == 1


def _site_mask(n: int, sites: Iterable[int]) -> int:
    return sum(1 << (n - 1 - q) for q in sites)


def _halving_generators(
    n: int, terms: list[Masks], rest: list[int]
) -> tuple[list[Masks], int]:
    """All-X and all-Y on each halving round's sites, and the rounds' depth.

    Rounds continue while a surviving term couples two sites of one block;
    the survivor check is symbolic, so they end once the drift is clean
    rather than after a worst-case count.  The last round comes
    first, so the frames run through each round's I, X, Y, Z with the
    first round slowest.
    """
    if not rest:
        return [], 0
    rounds = [rest]
    blocks = [rest]
    survivors = terms
    max_rounds = math.ceil(math.log2(len(rest))) if len(rest) > 1 else 0
    while True:
        s = _site_mask(n, rounds[-1])
        survivors = [
            t for t in survivors
            if not (_anticommutes(t, (s, 0)) or _anticommutes(t, (s, s)))
        ]
        splittable = [_site_mask(n, b) for b in blocks if len(b) > 1]
        if not any(
            ((x | z) & b).bit_count() == 2 for x, z in survivors for b in splittable
        ):
            break
        if len(rounds) > max_rounds:
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
    generators = []
    for sites in reversed(rounds):
        s = _site_mask(n, sites)
        generators += [(s, 0), (s, s)]
    return generators, len(rounds) - 1


@functools.lru_cache(maxsize=None)
def _candidates(n: int, rest: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, z)`` masks of every Pauli string on ``rest``.

    Entry ``i`` is the ``i``-th string in canonical ``PauliString`` order:
    each site runs through I, X, Y, Z, the last site fastest.
    ``4^|rest| <= MAX_COVER_CANDIDATES`` bounds each array to 4096 entries
    and the cache by the pairs of at most eight qubits.
    """
    index = np.arange(4 ** len(rest))
    cx, cz = np.zeros_like(index), np.zeros_like(index)
    for j, q in enumerate(reversed(rest)):
        axis = index >> 2 * j & 3
        cx |= ((axis ^ axis >> 1) & 1) << (n - 1 - q)  # X or Y
        cz |= (axis >> 1) << (n - 1 - q)  # Y or Z
    cx.flags.writeable = cz.flags.writeable = False
    return cx, cz


def _greedy_cover(n: int, terms: list[Masks], rest: list[int]) -> list[Masks]:
    """Generators on ``rest`` such that every term anticommutes with one of
    them, picked greedily.

    One table says which term anticommutes with which candidate, by the
    parity test of ``_anticommutes``.  Each pick is the candidate that
    anticommutes with the most terms not yet covered, the first in
    ``_candidates`` order on a tie, and the terms it covers leave the
    table.  A term that the picked generators all commute with also
    commutes with their products, so every pick lies outside the group of
    the earlier ones: the generators are independent, and there are at
    most ``2 |rest|``.
    """
    cx, cz = _candidates(n, tuple(rest))
    masks = np.array(terms, dtype=cx.dtype).reshape(-1, 2)
    x, z = masks[:, :1], masks[:, 1:]
    anti = _parity(n)[(x & cz) ^ (z & cx)]
    generators: list[Masks] = []
    while len(anti):
        best = anti.sum(axis=0).argmax()
        generators.append((int(cx[best]), int(cz[best])))
        anti = anti[anti[:, best] == 0]
    return generators


def _frame_set(n: int, generators: list[Masks], depth: int) -> FrameSet:
    """The group the independent ``generators`` span, in binary-counting
    order, each element of weight ``2^-k``.

    A product of Pauli strings is the XOR of their masks up to a phase
    that conjugation ignores.
    """
    elements = [(0, 0)]
    for gx, gz in generators:
        elements += [(x ^ gx, z ^ gz) for x, z in elements]
    weight = 0.5 ** len(generators)
    frames = []
    for x, z in elements:
        ops = "".join("IXZY"[(x >> s & 1) | (z >> s & 1) << 1] for s in reversed(range(n)))
        frames.append((weight, PauliString(ops)))
    return FrameSet(tuple(frames), depth)


def isolate_principal(
    ham: HamExpansion, pair: tuple[int, int]
) -> tuple[HamExpansion, FrameSet]:
    """Frame set whose average leaves exactly the pair-restricted drift.

    The frames come from the greedy cover when it needs strictly fewer
    generators than the halving rounds, and from the halving rounds
    otherwise.  The restriction keeps the terms that lie on the pair, and
    the frames must cancel exactly the others.
    """
    _check_pair(ham.n, pair)
    if not ham.is_two_body():
        raise InvalidTerm("decoupling expects a two-body drift")
    n = ham.n
    rest = [q for q in range(n) if q not in pair]
    terms = [pauli_masks(p)[:2] for p in ham]
    off_mask = ~_site_mask(n, pair)
    off_pair = [bool((x | z) & off_mask) for x, z in terms]
    generators, depth = _halving_generators(n, terms, rest)
    if 4 ** len(rest) <= MAX_COVER_CANDIDATES:
        cover = _greedy_cover(n, [t for t, off in zip(terms, off_pair) if off], rest)
        if len(cover) < len(generators):
            generators, depth = cover, 0

    if any(
        off != any(_anticommutes(t, g) for g in generators)
        for t, off in zip(terms, off_pair)
    ):
        raise HamrcError("decoupled drift does not match the pair restriction exactly")
    isolated = HamExpansion(
        n, {p: c for (p, c), off in zip(ham.items(), off_pair) if not off}
    )
    return isolated, _frame_set(n, generators, depth)


@functools.lru_cache(maxsize=None)
def _order_weights(k: int) -> tuple[tuple[int, ...], ...]:
    """``w[c][d]``: the weight of a commutator ``[s, t]`` in the first-order
    ordering error of a product over the ``2^k`` frames in binary-counting
    order, for terms of characters ``c`` and ``d``.

    Bit ``i`` of a term's character says that it anticommutes with
    generator ``i``, so frame ``e`` flips its sign when ``c & e`` has odd
    parity.  The product over the frames errs by ``sum_{a<b} [H_a, H_b]``
    to leading order, in which ``[s, t]`` enters with
    ``sum_{a<b} sign_c(a) sign_d(b) - sign_d(a) sign_c(b)``.
    """
    sign = [[1 - 2 * ((c & e).bit_count() & 1) for e in range(1 << k)] for c in range(1 << k)]
    return tuple(
        tuple(
            sum(sc[a] * sd[b] - sd[a] * sc[b] for a in range(1 << k) for b in range(a + 1, 1 << k))
            for sd in sign
        )
        for sc in sign
    )


def _ordering_parts(
    ham: HamExpansion, pair: tuple[int, int], generators: list[Masks], axes: tuple[str, str]
) -> list[tuple[Masks, int, int, float]]:
    """The commutators of two drift terms that the pair's frames keep, as
    ``(masks of s t, character of s, character of t, coefficient)``.

    ``h_s h_t [s, t] / 2i`` is that coefficient times the Pauli string of
    the masks, for terms ``s`` before ``t`` in the drift with coefficients
    ``h_s`` and ``h_t``.  Only terms of
    different characters enter an ordering error, and the pair's frames,
    I or ``axes[0]`` on the first pair site and I or ``axes[1]`` on the
    second, average away every product that anticommutes with one of them.
    """
    kept_by = [
        pauli_masks(PauliString.single(ham.n, q, axis))[:2]
        for q, axis in zip(pair, axes) if axis != "I"
    ]
    terms = [(pauli_masks(p)[:2], c) for p, c in ham.items()]
    chars = [sum(_anticommutes(t, g) << i for i, g in enumerate(generators)) for t, _ in terms]
    # [s, t] = 2 s t for anticommuting Paulis, and s t is i^power times the
    # Pauli of the XORed masks, with P(x, z) = i^|x & z| X^x Z^z
    parts = []
    for i, ((s, hs), c) in enumerate(zip(terms, chars)):
        for (t, ht), d in zip(terms[i + 1 :], chars[i + 1 :]):
            if c == d or not _anticommutes(s, t):
                continue
            prod = (s[0] ^ t[0], s[1] ^ t[1])
            if any(_anticommutes(prod, m) for m in kept_by):
                continue
            power = (s[0] & s[1]).bit_count() + (t[0] & t[1]).bit_count()
            power += 2 * (s[1] & t[0]).bit_count() - (prod[0] & prod[1]).bit_count()
            parts.append((prod, c, d, hs * ht * (1 if power % 4 == 1 else -1)))
    return parts


def _ordering_error(
    parts: list[tuple[Masks, int, int, float]], order: tuple[int, ...]
) -> dict[Masks, float]:
    """``sum_{a<b} [H_a, H_b] / 2i`` over the kept ``parts``, as Pauli
    coefficients, for the frames spanned by the generators in ``order``.

    ``H_a`` is the drift in frame ``a`` of the binary-counting order; the
    characters of ``parts`` are in the bits of the given generators.
    """
    weights = _order_weights(len(order))
    # a character in the bits of the reordered generators
    recode = [sum((c >> j & 1) << i for i, j in enumerate(order)) for c in range(1 << len(order))]
    left: defaultdict[Masks, float] = defaultdict(float)
    for prod, c, d, v in parts:
        left[prod] += v * weights[recode[c]][recode[d]]
    return left


def _order_frames(
    ham: HamExpansion, pair: tuple[int, int], frames: FrameSet, axes: tuple[str, str]
) -> FrameSet:
    """``frames`` with the generators in the order whose ordering error the
    pair's own frames leave smallest.

    A product over the framed drifts errs at leading order by the sum of
    the commutators of each framed drift with the later ones, and which
    commutators of drift terms that sum keeps depends on the order of the
    frames.  ``step_model`` frames every target coupling by I or
    ``axes[0]`` on the first pair site and I or ``axes[1]`` on the second,
    so the parts that anticommute with those average away; the rest adds
    up in every step.  Every order of at most ``MAX_ORDERED_GENERATORS``
    generators is compared by the coefficient 1-norm of what is left, and
    the given order is kept unless another is clearly smaller.
    """
    k = len(frames.frames).bit_length() - 1
    if not 2 <= k <= MAX_ORDERED_GENERATORS:
        return frames
    generators = [pauli_masks(frames.frames[1 << i][1])[:2] for i in range(k)]
    parts = _ordering_parts(ham, pair, generators, axes)
    scale = math.fsum(abs(v) for *_, v in parts) * max(map(max, _order_weights(k)))
    best, best_error = None, math.inf
    for order in itertools.permutations(range(k)):
        error = math.fsum(map(abs, _ordering_error(parts, order).values()))
        if error < best_error - 1e-12 * scale:
            best, best_error = order, error
    if best == tuple(range(k)):
        return frames
    return _frame_set(ham.n, [generators[j] for j in best], frames.depth)


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
    # frames are the identity on the pair, so the two layers never overlap
    frame_layers = [
        (weight, [(q, PAULI_CLIFF[axis]) for q, axis in enumerate(frame.ops) if axis != "I"])
        for weight, frame in frames.frames
    ]
    factors: list[_synth.StepFactor] = []
    for factor in model2.factors:
        if isinstance(factor, _synth.LocalFactor):
            factors.append(
                _synth.LocalFactor(embed(factor.ham, drift.n, pair))
            )
            continue
        pair_layer = [(pair[q], cliff) for q, cliff in factor.frame]
        for weight, frame_layer in frame_layers:
            layer = sorted(pair_layer + frame_layer, key=lambda entry: entry[0])
            factors.append(_synth.FramedDrift(factor.rate * weight, tuple(layer)))
    return _synth.StepModel(drift.n, drift, tuple(factors), model2.phase_rate)


def pair_step_model(
    drift: HamExpansion, pair: tuple[int, int], target_pair: HamExpansion
) -> _synth.StepModel:
    """n-qubit step model realizing a two-qubit target on the pair.

    The frames that isolate the pair come in the order of
    ``_order_frames`` for the pair frames of the two-qubit model.

    Raises :class:`NotCoupled` naming the register sites when the drift
    has no coupling term on the pair.
    """
    if target_pair.n != 2:
        raise InvalidTerm("the pair target must be a two-qubit expansion")
    r, s, _ = max_coupling(drift, pair)
    isolated, frames = isolate_principal(drift, pair)
    model2 = _synth.step_model(project_to_sites(isolated, pair), target_pair)
    # a target proportional to the drift is one bare framed drift
    if not any(isinstance(f, _synth.FramedDrift) and f.frame for f in model2.factors):
        r = s = "I"
    return expand_step_model(model2, drift, pair, _order_frames(drift, pair, frames, (r, s)))


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
            drift, target_pair, t,
            pair=pair, steps=steps, epsilon=epsilon, order=order, bound=bound,
        )
    )

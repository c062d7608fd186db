"""Isolate a principal pair of an n-qubit drift by Pauli frame averaging.

Averaging a term over the group generated by a few Pauli strings keeps it
unchanged when it commutes with every generator and cancels it otherwise,
so the survivors follow from one commutation test on the packed ``(x, z)``
masks of ``pauli`` (``pauli.anticommutes``) and no coefficient is ever
recomputed.  The frames are the group's ``2^k`` elements, each of weight
``2^-k``, so the fewer the generators, the fewer framed drifts every later
layer handles.  The cover below is found first, the halving rounds stop
once they need more generators than it, and the cover is used when it is
strictly smaller:

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
from dataclasses import dataclass

import numpy as np

from . import synth as _synth
from .cliffords import PAULI_CLIFF
from .errors import HamrcError, InvalidTerm
from .pauli import (
    OPS,
    HamExpansion,
    PauliString,
    _string_keys,
    anticommutes,
    embed,
    max_coupling,
    pack_masks,
    pauli_product,
    popcount,
    project_to_sites,
    unpack_masks,
)
from .schedule import Schedule

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


@functools.lru_cache(maxsize=None)
def _axis_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, z)`` masks of X and of Y on each site, as two read-only
    ``(2, n)`` arrays (X first), packed once per register size.  A string
    of one axis on a set of sites has the OR of its sites' masks."""
    x, z, _ = pack_masks(n, [PauliString.single(n, q, axis) for axis in "XY" for q in range(n)])
    x, z = x.reshape(2, n), z.reshape(2, n)
    x.flags.writeable = z.flags.writeable = False
    return x, z


def _on_sites(masks: np.ndarray, sites: list[int]) -> np.ndarray:
    """The OR of the ``masks`` columns of ``sites``: the masks of each
    axis's string on those sites."""
    return np.bitwise_or.reduce(masks[:, sites], axis=1)


def _halving_generators(
    n: int, x: np.ndarray, z: np.ndarray, rest: list[int], most: float
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """All-X and all-Y on each halving round's sites, as ``(x, z)`` masks,
    and the rounds' depth; ``None`` once they would need more than
    ``most`` generators.

    Rounds continue while a surviving term couples two sites of one block;
    the survivor check is symbolic, so they end once the drift is clean
    rather than after a worst-case count.  The last round comes
    first, so the frames run through each round's I, X, Y, Z with the
    first round slowest.
    """
    if not rest:
        return x[:0], z[:0], 0
    ax, az = _axis_masks(n)
    sites, blocks = rest, [rest]
    rounds = []  # each round's all-X and all-Y, as (x, z) masks
    max_rounds = math.ceil(math.log2(len(rest))) if len(rest) > 1 else 0
    while True:
        if 2 * len(rounds) + 2 > most:
            return None
        gx, gz = _on_sites(ax, sites), _on_sites(az, sites)
        rounds.append((gx, gz))
        keep = ~anticommutes(x[:, None], z[:, None], gx, gz).any(axis=1)
        x, z = x[keep], z[keep]
        splittable = [_on_sites(ax, b)[0] for b in blocks if len(b) > 1]
        if not (popcount((x | z)[:, None] & np.array(splittable, dtype=np.int64)) == 2).any():
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
        sites, blocks = fronts, halves
    gx, gz = (np.concatenate(masks[::-1]) for masks in zip(*rounds))
    return gx, gz, len(rounds) - 1


@functools.lru_cache(maxsize=None)
def _candidates(n: int, rest: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, z)`` masks of every Pauli string on ``rest``.

    Entry ``i`` is the ``i``-th string in canonical ``PauliString`` order:
    each site runs through I, X, Y, Z, the last site fastest; so the
    strings are the products of each site's four, the first site slowest.
    ``4^|rest| <= MAX_COVER_CANDIDATES`` bounds each array to 4096 entries
    and the cache by the pairs of at most eight qubits.
    """
    cx = cz = np.zeros(1, dtype=np.int64)
    for q in rest:
        sx, sz, _ = pack_masks(n, [PauliString.single(n, q, axis) for axis in OPS])
        cx, cz = (cx[:, None] | sx).ravel(), (cz[:, None] | sz).ravel()
    cx.flags.writeable = cz.flags.writeable = False
    return cx, cz


def _greedy_cover(
    n: int, x: np.ndarray, z: np.ndarray, rest: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Generators on ``rest`` such that every term of masks ``x`` and ``z``
    anticommutes with one of them, picked greedily, as ``(x, z)`` masks.

    One table says which term anticommutes with which candidate
    (``anticommutes``).  Each pick is the candidate that
    anticommutes with the most terms not yet covered, the first in
    ``_candidates`` order on a tie, and the terms it covers leave the
    table.  A term that the picked generators all commute with also
    commutes with their products, so every pick lies outside the group of
    the earlier ones: the generators are independent, and there are at
    most ``2 |rest|``.
    """
    cx, cz = _candidates(n, tuple(rest))
    anti = anticommutes(x[:, None], z[:, None], cx, cz)
    picks = []
    while len(anti):
        best = anti.sum(axis=0).argmax()
        picks.append(best)
        anti = anti[~anti[:, best]]
    return cx[picks], cz[picks]


def _frame_set(n: int, gx: np.ndarray, gz: np.ndarray, depth: int) -> FrameSet:
    """The group the independent generators of masks ``gx`` and ``gz``
    span, in binary-counting order, each element of weight ``2^-k``.

    A product of Pauli strings is the XOR of their masks up to a phase
    that conjugation ignores.
    """
    x, z = [0], [0]
    for a, b in zip(gx.tolist(), gz.tolist()):
        x += [e ^ a for e in x]
        z += [e ^ b for e in z]
    weight = 0.5 ** len(gx)
    return FrameSet(tuple((weight, p) for p in unpack_masks(n, np.array(x), np.array(z))), depth)


def isolate_principal(
    ham: HamExpansion, pair: tuple[int, int]
) -> tuple[HamExpansion, FrameSet]:
    """Frame set whose average leaves exactly the pair-restricted drift.

    The frames come from the greedy cover when it needs strictly fewer
    generators than the halving rounds, and from the halving rounds
    otherwise.  The cover is found first, and the halving rounds stop as
    soon as they need more generators than it: the cover is then used
    whatever the rounds would have come to.  The restriction keeps the
    terms that lie on the pair, and the frames must cancel exactly the
    others.
    """
    _check_pair(ham.n, pair)
    if not ham.is_two_body():
        raise InvalidTerm("decoupling expects a two-body drift")
    n = ham.n
    rest = [q for q in range(n) if q not in pair]
    x, z, _ = pack_masks(n, ham)
    on_pair = _on_sites(_axis_masks(n)[0], list(pair))[0]  # X on the pair
    off_pair = (x | z) & ~on_pair != 0
    cover = None
    if 4 ** len(rest) <= MAX_COVER_CANDIDATES:
        cover = _greedy_cover(n, x[off_pair], z[off_pair], rest)
    halving = _halving_generators(n, x, z, rest, math.inf if cover is None else len(cover[0]))
    if halving is None or cover is not None and len(cover[0]) < len(halving[0]):
        gx, gz, depth = *cover, 0
    else:
        gx, gz, depth = halving

    if (off_pair != anticommutes(x[:, None], z[:, None], gx, gz).any(axis=1)).any():
        raise HamrcError("decoupled drift does not match the pair restriction exactly")
    isolated = HamExpansion(
        n, {p: c for (p, c), off in zip(ham.items(), off_pair.tolist()) if not off}
    )
    return isolated, _frame_set(n, gx, gz, depth)


@functools.lru_cache(maxsize=None)
def _order_weights(k: int) -> np.ndarray:
    """``w[c, d]``: the weight of a commutator ``[s, t]`` in the first-order
    ordering error of a product over the ``2^k`` frames in binary-counting
    order, for terms of characters ``c`` and ``d``.

    Bit ``i`` of a term's character says that it anticommutes with
    generator ``i``, so frame ``e`` flips its sign when ``c & e`` has odd
    parity.  The product over the frames errs by ``sum_{a<b} [H_a, H_b]``
    to leading order, in which ``[s, t]`` enters with
    ``sum_{a<b} sign_c(a) sign_d(b) - sign_d(a) sign_c(b)``.  The array
    is read-only.
    """
    e = np.arange(1 << k)
    sign = 1 - 2 * (popcount(e[:, None] & e) & 1)  # sign[c, e] = sign_c(e)
    before = sign @ np.triu(np.ones_like(sign), 1) @ sign.T  # the sum's first half
    w = before - before.T
    w.flags.writeable = False
    return w


def _ordering_parts(
    ham: HamExpansion, pair: tuple[int, int], gx: np.ndarray, gz: np.ndarray, axes: tuple[str, str]
) -> tuple[np.ndarray, ...]:
    """The commutators of two drift terms that the pair's frames keep, as
    arrays ``(x, z, slot, c, d, v)``: the masks of the distinct products
    ``s t``, each part's product among them, the characters of ``s`` and
    ``t`` against the generators of masks ``gx`` and ``gz``, and a
    coefficient.

    ``h_s h_t [s, t] / 2i`` is that coefficient times the Pauli string of
    its product, for terms ``s`` before ``t`` in the drift with
    coefficients ``h_s`` and ``h_t``, in row-major order of ``(s, t)``.
    Only anticommuting terms of different characters enter an ordering
    error, and the pair's frames, I or ``axes[0]`` on the first pair site
    and I or ``axes[1]`` on the second, average away every product that
    anticommutes with one of them.
    """
    n = ham.n
    kx, kz, _ = pack_masks(n, [PauliString.single(n, q, a) for q, a in zip(pair, axes) if a != "I"])
    x, z, ny = pack_masks(n, ham)
    h = np.array([c for _, c in ham.items()])
    chars = anticommutes(x[:, None], z[:, None], gx, gz) @ (1 << np.arange(len(gx)))
    s, t = np.nonzero(np.triu(anticommutes(x[:, None], z[:, None], x, z), 1))
    differ = chars[s] != chars[t]
    s, t = s[differ], t[differ]
    px, pz, power = pauli_product(x[s], z[s], ny[s], x[t], z[t], ny[t])
    keep = ~anticommutes(px[:, None], pz[:, None], kx, kz).any(axis=1)
    s, t, px, pz, power = (a[keep] for a in (s, t, px, pz, power))
    _, first, slot = np.unique(_string_keys(px, pz), return_index=True, return_inverse=True)
    # [s, t] = 2 s t for anticommuting Paulis, and s t = i^power P: power is odd
    v = h[s] * h[t] * np.where(power == 1, 1.0, -1.0)
    return px[first], pz[first], slot, chars[s], chars[t], v


def _ordering_error(parts: tuple[np.ndarray, ...], order: tuple[int, ...]) -> np.ndarray:
    """``sum_{a<b} [H_a, H_b] / 2i`` over the kept ``parts``, as the
    coefficients of their distinct products, for the frames spanned by
    the generators in ``order``.

    ``H_a`` is the drift in frame ``a`` of the binary-counting order; the
    characters of ``parts`` are in the bits of the given generators.  Each
    coefficient adds its parts in their order.
    """
    x, _, slot, c, d, v = parts
    weights = _order_weights(len(order))
    # a character in the bits of the reordered generators
    recode = np.array(
        [sum((e >> j & 1) << i for i, j in enumerate(order)) for e in range(1 << len(order))]
    )
    return np.bincount(slot, v * weights[recode[c], recode[d]], minlength=len(x))


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
    gx, gz, _ = pack_masks(ham.n, [frames.frames[1 << i][1] for i in range(k)])
    parts = _ordering_parts(ham, pair, gx, gz, axes)
    scale = math.fsum(np.abs(parts[-1]).tolist()) * _order_weights(k).max()
    best, best_error = None, math.inf
    for order in itertools.permutations(range(k)):
        error = math.fsum(np.abs(_ordering_error(parts, order)).tolist())
        if error < best_error - 1e-12 * scale:
            best, best_error = order, error
    if best == tuple(range(k)):
        return frames
    return _frame_set(ham.n, gx[list(best)], gz[list(best)], frames.depth)


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
    local frames: the program of one segment on ``pair``.
    """
    return _synth.compile_program(
        drift, _synth.Program((_synth.Segment(target_pair, t, pair),)),
        steps=steps, epsilon=epsilon, order=order, bound=bound,
    )

"""Rigorous error bounds and step planning for product-formula schedules.

All bounds are stated in the operator norm, which is what makes them
composable: it is invariant under unitaries, stable under tensoring with
ancillas, and obeys the chaining inequality
``||V1 W1 - V2 W2|| <= ||V1 - V2|| + ||W1 - W2||``.

The chained rate reads one table of coefficients: a row per factor of a
step model, a column per Pauli string any factor holds.  Every tail
``F_(j+1) + ... + F_last`` is a reversed cumulative sum of its rows, so a
string whose terms cancel is absent from the tail.  Each split of a factor
``A`` off the sum ``S`` of it and its tail ``B`` is bounded by commutators
of ``A`` and ``B``; ``[A, B] = [A, S]``, so they are taken around
whichever of ``B`` and ``S`` reaches fewer sites, on those sites only, not
on the whole register.  The dense cap bounds those sites: a split whose
sites fit is built densely on them and normed exactly, and one past the
cap is bounded by coefficient 1-norms, taken on the strings' masks with
no matrix at all.  Strings are the packed masks of ``pauli``, and every
count, commutation test and product of them goes through its kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dense import _dense_of_masks, check_dense_cap, hermitian_norm
from .errors import Infeasible, InvalidTerm, TooLarge
from .pauli import _string_keys, anticommutes, pack_masks, pauli_product, popcount

#: step counts above this are refused as impractical
MAX_PLAN_STEPS = 2**22


@dataclass(frozen=True)
class ErrorPlan:
    """A step count with the bound that justified it.

    ``steps * delta`` always equals the total time to 1e-12, and the
    predicted error is non-increasing in the step count for every
    analytic kind.  Empirical plans carry the measured error instead.
    ``rate`` is the analytic kind's error rate, ``None`` for an empirical
    plan.
    """

    bound: str
    order: int
    steps: int
    delta: float
    t: float
    predicted_error: float
    rate: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidTerm("a plan needs at least one step")
        if abs(self.steps * self.delta - self.t) > 1e-12 * max(1.0, abs(self.t)):
            raise InvalidTerm("steps * delta must reproduce the total time")
        if self.predicted_error < 0:
            raise InvalidTerm("predicted error must be non-negative")

    @property
    def analytic(self) -> bool:
        return self.bound != "empirical"


#: a measured error may exceed a recorded ``predicted_error`` by this much:
#: the schedule that is checked rounds differently from the one that was
#: planned, and an exact plan predicts 0 for a product that rounds to ~1e-15
ROUNDING = 1e-12


def _plus_adjoint(p: np.ndarray, sign: int) -> np.ndarray:
    """``p + sign * p^dag`` of each matrix of a ``(..., d, d)`` stack, in a
    buffer of its own.

    For Hermitian ``a`` and ``b``, ``ba = (ab)^dag``, so ``[a, b]`` is
    ``ab - (ab)^dag`` from one product; for Hermitian ``a`` and
    anti-Hermitian ``c``, ``[a, c]`` is ``ac + (ac)^dag``, exactly
    Hermitian.
    """
    out = np.conjugate(p).swapaxes(-1, -2)
    return np.add(p, out, out=out) if sign > 0 else np.subtract(p, out, out=out)


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """``||[a, b]||`` of Hermitian ``a`` and ``b``, or of each pair of two
    ``(..., d, d)`` stacks.

    ``i[a, b]`` is Hermitian.  Four stacks are held: ``a``, ``b``, ``ab``
    and ``[a, b]``, then ``i[a, b]`` in place of ``ab``.
    """
    return hermitian_norm(1j * _plus_adjoint(a @ b, -1))


def _nested_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(||[a, [a, b]]||, ||[b, [b, a]]||)`` of Hermitian ``a`` and ``b``,
    one row per pair of two ``(..., d, d)`` stacks.

    Both come from ``c = [a, b]``: ``[a, [a, b]] = [a, c]`` and
    ``[b, [b, a]] = -[b, c]``.  Five stacks are held: ``a``, ``b``, ``c``,
    a product with ``c`` and the commutator formed from it.
    """
    c = _plus_adjoint(a @ b, -1)
    return np.stack([hermitian_norm(_plus_adjoint(m @ c, 1)) for m in (a, b)], axis=-1)


#: matrix entries (or string products) in flight at once: a chunk of norms
#: holds one stack, a chunk of commutators four (``A``, ``B``, ``AB``, ``i[A, B]``)
_BATCH = 2**16


def _coefficient_table(model) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(x, z, ny, table)``: the packed masks of every Pauli string a factor
    of ``model`` holds, and each factor's coefficients on them, one row per
    factor in order.

    A plain factor's row is its expansion.  A framed drift
    ``rate * C H C^dag`` is the drift's terms with each site's axis replaced
    by its signed image under ``C``, so its row is scattered from the image
    terms' masks in ``model.images`` (``cliffords.framed_images``) with no
    expansion in between.  A Clifford maps distinct strings to distinct
    strings, so each entry is the one product ``sign * coeff * rate``: the
    conjugated expansion's coefficient.
    """
    coeffs = np.array(list(model.drift.terms.values()), dtype=float)
    parts = []  # (row, x, z, ny, coefficient) of every term of every factor
    index, x, z, ny, sign = model.images
    if len(index):
        rates = np.array([model.factors[i].rate for i in index.tolist()])
        if (rates < 0).any():
            raise InvalidTerm("a framed drift needs a non-negative rate")
        parts.append((
            np.repeat(index, len(coeffs)),
            x.ravel(),
            z.ravel(),
            ny.ravel(),
            (sign * coeffs * rates[:, None]).ravel(),
        ))
    framed = set(index.tolist())
    for i, f in enumerate(model.factors):
        if i not in framed:
            terms = np.array([c for _, c in f.ham.items()], dtype=float)
            parts.append((np.full(len(terms), i), *pack_masks(model.n, f.ham), terms))
    rows, x, z, ny, values = (np.concatenate(column) for column in zip(*parts))
    _, first, cols = np.unique(_string_keys(x, z), return_index=True, return_inverse=True)
    table = np.zeros((len(model.factors), len(first)))
    table[rows, cols] = values
    return x[first], z[first], ny[first], table


def _tails(table: np.ndarray) -> np.ndarray:
    """Row ``j`` is ``F_(j+1) + ... + F_last`` for each factor ``j`` but the
    last: one reversed cumulative sum, adding from the last factor back in
    the order the factors are peeled."""
    return np.cumsum(table[:0:-1], axis=0)[::-1]


def _supports(x: np.ndarray, z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Site mask of each row of coefficients (over the last axis): the OR of
    the masks of its strings, where a coefficient of exactly 0.0 marks an
    absent string."""
    return np.bitwise_or.reduce(np.where(rows != 0.0, x | z, 0), axis=-1)


def _packed(masks: np.ndarray, bits: list[int]) -> np.ndarray:
    """``masks`` on the given bit positions only, packed into the low bits
    in the same order."""
    shifts = np.array(bits, dtype=masks.dtype)
    return (masks[..., None] >> shifts & 1) @ (1 << np.arange(len(bits)))


def _on_supports(
    measure: Callable, bound: Callable, held: int, x, z, ny, items: np.ndarray, values: tuple = ()
) -> np.ndarray:
    """``measure`` of each item's dense matrices on the sites the item acts
    on, or ``bound`` of its coefficients where those sites are past the
    dense cap.

    ``items`` is items x rows x strings of coefficients on the strings of
    masks ``x``, ``z`` and ``ny``; ``measure`` takes one stack per row and
    returns an array of shape ``values`` per matrix of a stack, so the
    result is items x ``values``.  Items that share a support form a group,
    and each group checks the dense cap for its own sites
    (``check_dense_cap``), so the cap bounds every matrix that is built.  A
    group that fits is built by one ``_dense_of_masks`` call and measured
    together, as many at once as keep the ``held`` stacks that ``measure``
    holds within ``_BATCH`` entries.  Where no string of a chunk holds an
    odd number of Y, its matrices are real and are built and measured in
    real arithmetic.  A group past the cap is passed to ``bound`` as
    ``(x, z, ny, items)`` on the strings it holds, and builds no matrix.
    """
    out = np.zeros((len(items), *values))
    present = items != 0.0
    support = np.bitwise_or.reduce(_supports(x, z, items), axis=1)
    width = items.shape[1]
    xz = np.stack([x, z])
    sups, group = np.unique(support, return_inverse=True)
    for g, sup in enumerate(sups.tolist()):
        index = np.flatnonzero(group == g)
        on = [b for b in range(sup.bit_length()) if sup >> b & 1]  # in qubit order
        try:
            check_dense_cap(len(on))
        except TooLarge:
            cols = present[index].any(axis=(0, 1))
            out[index] = bound(x[cols], z[cols], ny[cols], items[index][:, :, cols])
            continue
        dim = 2 ** len(on)
        per = max(1, _BATCH // (held * dim * dim))
        for start in range(0, len(index), per):
            part = index[start : start + per]
            cols = present[part].any(axis=(0, 1))
            sx, sz = _packed(xz[:, cols], on)
            coeffs = items[part][:, :, cols].transpose(1, 0, 2).reshape(width * len(part), len(sx))
            real = not (ny[cols] & 1).any()
            # one expression, so a chunk's matrices are freed before the next is built
            out[part] = measure(*_dense_of_masks(len(on), sx, sz, ny[cols], coeffs, real=real).reshape(
                width, len(part), dim, dim
            ))
    return out


def _commutator_one_norms(x, z, ny, pairs: np.ndarray) -> np.ndarray:
    """``||[A, B]||_1``, the 1-norm of the Pauli coefficients of the
    commutator, of each item of ``pairs`` (items x 2 x strings: ``A``,
    then ``B``, on the strings of masks ``x``, ``z`` and ``ny``).

    ``[A, B]`` sums ``a_s b_t [s, t] = 2 a_s b_t s t`` over the
    anticommuting pairs of a string ``s`` of ``A`` and ``t`` of ``B``, and
    ``s t = i^power P`` (``pauli_product``) with an odd power, so the terms
    are summed per product string ``P`` first.
    """
    s, t = np.nonzero(anticommutes(x[:, None], z[:, None], x, z))
    px, pz, power = pauli_product(x[s], z[s], ny[s], x[t], z[t], ny[t])
    keys, product = np.unique(_string_keys(px, pz), return_inverse=True)
    sign = np.where(power == 1, 2.0, -2.0)  # 2 i^power / i
    out = np.zeros(len(pairs))
    per = max(1, _BATCH // max(1, len(s)))
    for start in range(0, len(pairs), per):
        chunk = pairs[start : start + per]
        terms = chunk[:, 0, s] * chunk[:, 1, t] * sign
        rows = np.arange(len(terms))[:, None] * len(keys) + product
        sums = np.bincount(rows.ravel(), terms.ravel(), minlength=len(terms) * len(keys))
        out[start : start + per] = np.abs(sums).reshape(len(terms), len(keys)).sum(axis=1)
    return out


def _nested_one_norms(x, z, ny, pairs: np.ndarray) -> np.ndarray:
    """``(4 a^2 b, 4 a b^2)`` of each item of ``pairs``, from the 1-norms
    ``a`` and ``b`` of its rows ``A`` and ``B``: bounds on
    ``(||[A, [A, B]]||, ||[B, [B, A]]||)``, as ``_nested_norms`` orders them."""
    a, b = np.abs(pairs).sum(axis=-1).T
    return np.stack([4.0 * a * a * b, 4.0 * a * b * b], axis=-1)


def _splits(model, hops: int) -> tuple[np.ndarray, ...]:
    """``(x, z, ny, heads, rests)``: each split of ``model``'s step,
    restricted to the sites its commutators ``hops`` deep act on.

    Split ``j`` peels ``A = F_j`` off ``S = F_j + ... + F_last``, leaving
    the tail ``B = S - A``; ``S`` is the whole step for ``j = 0`` and the
    tail of split ``j - 1`` after.  ``[A, B] = [A, S]``, so the commutators
    can be built around either ``R = B`` or ``R = S``.  Each split takes
    the one with the fewer sites within ``hops`` hops: ``R``'s sites, then
    those of the terms of ``A`` that touch them, and so on.  A tail that
    ends on a complete decoupling orbit acts on the pair alone, and so
    does ``S`` of the split after it.

    A split's row of ``heads`` keeps the terms of ``A`` that touch the
    sites ``hops - 1`` hops out: every other term commutes with ``R`` and
    with ``[A, R]``.  Its row of ``rests`` is ``B``, or ``S - heads`` where
    ``R = S``, which differs from ``B`` by such terms only.  So the rows
    have the commutators of ``A`` and ``B`` up to ``hops`` deep.
    """
    x, z, ny, table = _coefficient_table(model)
    heads, tails = table[:-1], _tails(table)
    sums = np.concatenate([heads[:1] + tails[:1], tails[:-1]])
    masks = x | z
    live = heads != 0.0
    sites = _supports(x, z, np.stack([tails, sums]))  # R = B, then R = S
    for _ in range(hops):
        near = live & (masks & sites[..., None] != 0)
        sites = sites | np.bitwise_or.reduce(np.where(near, masks, 0), axis=-1)
    counts = popcount(sites)
    use_sum = (counts[1] < counts[0])[:, None]
    heads = np.where(np.where(use_sum, near[1], near[0]), heads, 0.0)
    return x, z, ny, heads, np.where(use_sum, sums - heads, tails)


#: per order: what ``_on_supports`` measures and bounds each split by, the
#: stacks the measure holds, and the shape of its values per split
_SPLIT_NORMS = {
    1: (_commutator_norm, _commutator_one_norms, 4, ()),
    2: (_nested_norms, _nested_one_norms, 5, (2,)),
}


def chained_rate(model, order: int) -> float:
    """Per-step bound coefficient of a step model at unit delta.

    ``model`` is a step model: its ``drift`` ``H``, its ordered
    ``factors`` and their ``images`` (``cliffords.framed_images`` of its
    framed drifts, built once per model).  A factor with a ``frame`` is the
    framed drift ``rate * C H C^dag`` for the frame's per-site Cliffords
    ``C``; any other factor is plain, with its expansion in ``ham``.  The
    per-step bound is ``rate * delta^(order+1)`` and chaining over N
    identical steps multiplies by N.

    The rate peels factors off the ordered list one at a time: split ``j``
    takes ``A = F_j`` off ``A + B``, ``B = F_(j+1) + ... + F_last``, and
    the chaining inequality adds the splits up.  At order 1, splitting
    ``exp(-i d (A + B))`` into ``exp(-i d A) exp(-i d B)`` costs at most
    ``||[A, B]|| d^2 / 2``: one commutator norm per factor, and by the
    triangle inequality never more than the pairwise sum over ``j < k``.
    At order 2 each split is one symmetric splitting
    ``e^{-iA/2} e^{-iB} e^{-iA/2}``, which differs from ``e^{-i(A+B)}`` by
    at most ``||[B, [B, A]]||/12 + ||[A, [A, B]]||/24`` at unit delta,
    both from ``C = [A, B]`` (``_nested_norms``).  These are the cases of
    Childs, Su, Tran, Wiebe and Zhu, *Theory of Trotter error with
    commutator scaling*, PRX 11, 011020 (2021).

    Each tail is its row of per-string sums, so terms that cancel are
    absent.  The commutators are taken on the sites ``order`` hops from
    the smaller of ``B`` and ``A + B`` (``_splits``): a middle split's
    ``A + B`` is the tail before it, and one that closes a decoupling
    orbit acts on the pair alone; a split with no term of ``A`` there is
    0.  Where those sites fit the dense cap the split is built on them and
    normed exactly, whatever the register size; past the cap its
    commutator is bounded by the 1-norm of its Pauli coefficients
    (``_commutator_one_norms``) at order 1, and its nested norms by
    ``4 a^2 b`` and ``4 a b^2`` from the 1-norms of its restricted rows
    (``_nested_one_norms``) at order 2.
    """
    if order not in (1, 2):
        raise InvalidTerm(f"order must be 1 or 2, got {order}")
    if not model.factors:
        return 0.0
    measure, bound, held, values = _SPLIT_NORMS[order]
    x, z, ny, heads, rests = _splits(model, order)
    live = np.flatnonzero((heads != 0.0).any(axis=1))
    norms = np.zeros((len(heads), *values))
    pairs = np.stack([heads[live], rests[live]], axis=1)
    norms[live] = _on_supports(measure, bound, held, x, z, ny, pairs, values)
    if order == 1:
        return 0.5 * sum(norms[::-1].tolist(), 0.0)
    return sum((norms[:, 0] / 24.0 + norms[:, 1] / 12.0)[::-1].tolist(), 0.0)


def _check_budget(epsilon: float, t: float) -> None:
    if not epsilon > 0:
        raise InvalidTerm("error budget must be positive")
    if not t > 0:
        raise InvalidTerm("total time must be positive")


def plan_steps(
    bound: str,
    epsilon: float,
    t: float,
    *,
    order: int,
    rate: float,
    max_steps: int = MAX_PLAN_STEPS,
) -> ErrorPlan:
    """Smallest step count ``N`` whose bound ``N * rate * (t/N)^(order+1)``
    meets ``epsilon``.

    Every analytic bound has this commutator-scaling form (Childs, Su,
    Tran, Wiebe and Zhu, PRX 11, 011020 (2021)); the kinds differ only in
    ``rate``, so ``bound`` just labels the plan.  Raises :class:`Infeasible`
    when no step count up to ``max_steps`` meets the budget, and when the
    bound overflows the float range; a rate of 0 is one exact step.
    """
    _check_budget(epsilon, t)

    def cumulative(n: int) -> float:
        try:
            return n * rate * (t / n) ** (order + 1)
        except OverflowError:  # (t/n)^(order+1) is past the largest float
            return math.inf if rate else 0.0

    c1 = cumulative(1)
    if c1 <= epsilon:
        n = 1
    else:
        # cumulative = c1 / n^order: invert, then nudge for float rounding
        guess = (c1 / epsilon) ** (1.0 / order)
        if not guess < max_steps:  # also catches inf pre-ceil
            raise Infeasible(f"needs more than {max_steps} steps")
        n = max(1, math.ceil(guess))
        while n > 1 and cumulative(n - 1) <= epsilon:
            n -= 1
        while cumulative(n) > epsilon:
            n += 1
            if n > max_steps:
                raise Infeasible(f"needs more than {max_steps} steps")
    return ErrorPlan(bound, order, n, t / n, t, cumulative(n), rate)


def plan_empirical(
    measure: Callable[[int], float],
    epsilon: float,
    t: float,
    *,
    order: int,
    max_steps: int = MAX_PLAN_STEPS,
) -> ErrorPlan:
    """Smallest step count whose ``measure(N)`` meets ``epsilon``.

    The search keeps a bracket ``measure(lo) > epsilon >= measure(hi)``,
    stops at ``hi - lo == 1`` and records the error measured at ``hi`` as
    the plan's prediction, so a non-increasing measure gets its smallest
    passing count.  It probes 1 first; while a probe fails, the next is
    the count at which an error scaling as ``N^-order`` would meet the
    budget, and at least twice the failed one.  Once a count passes, each
    probe is where the line through the bracket's errors on log-log axes
    meets the budget (a secant step).  A bisection on ``log N`` stands in
    when the error at ``hi`` is 0, and follows a secant step that neither
    halved the bracket nor moved less than half as far as the probe
    before it, so a measure that bends away from a power law still costs
    a bounded number of probes per halving.  Raises :class:`Infeasible`
    when the error at ``max_steps`` still exceeds the budget.
    """
    _check_budget(epsilon, t)
    lo, hi = 0, 1
    err_hi = measure(hi)
    while err_hi > epsilon:
        if hi >= max_steps:
            raise Infeasible(f"measured error still {err_hi:.3e} at {hi} steps")
        lo, err_lo = hi, err_hi
        guess = lo * (err_lo / epsilon) ** (1.0 / order)
        hi = min(max_steps, max(2 * lo, math.ceil(min(guess, max_steps))))
        err_hi = measure(hi)
    bisect, last, last_step = False, hi, hi - lo
    while hi - lo > 1:
        width = hi - lo
        # the secant needs two finite, positive errors whose logs differ
        span = math.log(err_lo) - math.log(err_hi) if 0 < err_hi and err_lo < math.inf else 0.0
        if bisect or not span > 0:
            n = math.isqrt(lo * hi)
        else:
            n = math.ceil(lo * (hi / lo) ** ((math.log(err_lo) - math.log(epsilon)) / span))
        n = min(max(n, lo + 1), hi - 1)
        err = measure(n)
        if err <= epsilon:
            hi, err_hi = n, err
        else:
            lo, err_lo = n, err
        step = abs(n - last)
        bisect = not bisect and 2 * (hi - lo) > width and 2 * step > last_step
        last, last_step = n, step
    return ErrorPlan("empirical", order, hi, t / hi, t, err_hi)

"""Rigorous error bounds and step planning for product-formula schedules.

All bounds are stated in the operator norm, which is what makes them
composable: it is invariant under unitaries, stable under tensoring with
ancillas, and obeys the chaining inequality
``||V1 W1 - V2 W2|| <= ||V1 - V2|| + ||W1 - W2||``.

The chained rate reads one table of coefficients: a row per factor of a
step model, a column per Pauli string any factor holds.  Every tail
``F_(j+1) + ... + F_last`` is a reversed cumulative sum of its rows, so a
string whose terms cancel is absent from the tail, and each tail, plain
factor and commutator is built densely on the sites it acts on, not on the
whole register.  On the sites where it holds only I or Z it commutes with
``Z``, so it is built and normed as one block per sign pattern of those
sites.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dense import (
    _dense_of_masks,
    _parity,
    _term_masks,
    check_dense_cap,
    dense_of_expansion,
    hermitian_norm,
)
from .errors import Infeasible, InvalidTerm, NotCoupled
from .pauli import HamExpansion

#: default constant of the coarse coupling-ratio bound C * D^2 * t * delta
GLOBAL_BOUND_C = 1.0e4

#: step counts above this are refused as impractical
MAX_PLAN_STEPS = 2**22


@dataclass(frozen=True)
class ErrorPlan:
    """A step count with the bound that justified it.

    ``steps * delta`` always equals the total time to 1e-12, and the
    predicted error is non-increasing in the step count for every
    analytic kind.  Empirical plans carry the measured error instead.
    """

    bound: str
    order: int
    steps: int
    delta: float
    t: float
    predicted_error: float
    constants: dict[str, float] = field(default_factory=dict, compare=False)

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


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """``||[a, b]||`` of Hermitian ``a`` and ``b``, or of each pair of two
    ``(..., d, d)`` stacks.

    ``ba = (ab)^dag``, so ``[a, b] = ab - (ab)^dag`` needs one product, and
    ``i[a, b]`` is then exactly Hermitian.  It is formed in the buffer of
    ``(ab)^dag``, so four stacks are held: ``a``, ``b``, ``ab`` and ``i[a, b]``.
    """
    ab = a @ b
    comm = ab.conj().swapaxes(-1, -2)
    np.subtract(ab, comm, out=comm)
    comm *= 1j
    return hermitian_norm(comm)


def _is_framed(factor) -> bool:
    return hasattr(factor, "frame")


#: image and sign of each axis I, X, Y, Z under the identity
_IDENTITY = ((0, 1, 2, 3), (1, 1, 1, 1))
#: matrix entries in flight at once: a chunk of norms holds its one stack of
#: matrices, a chunk of commutators four (``A``, ``B``, ``AB`` and ``i[A, B]``)
_BATCH = 2**16


@functools.lru_cache(maxsize=None)
def _axis_table(images: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Image and sign of each axis I, X, Y, Z under a Clifford's signed axis images."""
    return (0, *("IXYZ".index(a) for _, a in images)), (1, *(s for s, _ in images))


def _coefficient_table(model) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(x, z, ny, table)``: the packed masks of every Pauli string a factor
    of ``model`` holds, and each factor's coefficients on them, one row per
    factor in order.

    A plain factor's row is its expansion.  A framed drift
    ``rate * C H C^dag`` is the drift's terms with each site's axis replaced
    by its signed image under ``C``, so its row is scattered from the image
    terms' masks with no expansion in between.  A Clifford maps distinct
    strings to distinct strings, so each entry is the one product
    ``sign * coeff * rate``: the conjugated expansion's coefficient.
    """
    n = model.n
    sites = np.arange(n)
    bits = 1 << sites[::-1]  # qubit 0 is the top bit, as in pauli_masks
    terms = list(model.drift.items())
    axes = np.array([["IXYZ".index(a) for a in p.ops] for p, _ in terms], dtype=np.intp)
    axes = axes.reshape(len(terms), n)
    coeffs = np.array([c for _, c in terms], dtype=float)
    parts = []  # (row, x, z, ny, coefficient) of every term of every factor
    framed = [(i, f) for i, f in enumerate(model.factors) if _is_framed(f)]
    if framed:
        index, factors = zip(*framed)
        if any(f.rate < 0 for f in factors):
            raise InvalidTerm("a framed drift needs a non-negative rate")
        tables = []
        for f in factors:
            table = [_IDENTITY] * n
            for q, cliff in f.frame:
                table[q] = _axis_table(cliff.images)
            tables.append(tuple(zip(*table)))
        tables = np.array(tables, dtype=np.intp)  # (factor, image or sign, site, axis)
        image = tables[:, 0][:, sites, axes]  # (factor, term, site)
        sign = tables[:, 1][:, sites, axes].prod(axis=2)
        rates = np.array([f.rate for f in factors])
        parts.append((
            np.repeat(index, len(terms)),
            (((image == 1) | (image == 2)) @ bits).ravel(),
            ((image >= 2) @ bits).ravel(),
            (image == 2).sum(axis=2).ravel(),
            (sign * coeffs * rates[:, None]).ravel(),
        ))
    for i, f in enumerate(model.factors):
        if not _is_framed(f):
            x, z, ny, c = _term_masks(f.ham.items())
            parts.append((np.full(len(c), i), x, z, ny, c))
    rows, x, z, ny, values = (np.concatenate(column) for column in zip(*parts))
    keys, first, cols = np.unique((x << n) | z, return_index=True, return_inverse=True)
    table = np.zeros((len(model.factors), len(keys)))
    table[rows, cols] = values
    return keys >> n, keys & (2**n - 1), ny[first], table


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


def _diagonal_sites(support: int, x: np.ndarray) -> int:
    """The I/Z-only sites of an operator on the sites ``support`` whose
    strings have the x masks ``x``: the sites where none of them holds X
    or Y, so that the operator commutes with ``Z`` on each of them."""
    return support & ~int(np.bitwise_or.reduce(x))


def _packed(masks: np.ndarray, bits: list[int]) -> np.ndarray:
    """``masks`` on the given bit positions only, packed into the low bits
    in the same order."""
    shifts = np.array(bits, dtype=masks.dtype)
    return (masks[..., None] >> shifts & 1) @ (1 << np.arange(len(bits)))


def _on_supports(measure: Callable, held: int, x, z, ny, items: np.ndarray) -> np.ndarray:
    """``measure`` of each item's dense matrices, built block by block on
    the sites the item acts on.

    ``items`` is items x rows x strings of coefficients on the strings of
    masks ``x``, ``z`` and ``ny``; ``measure`` takes one stack per row and
    returns one value per item.  Items that share a support are built by
    one ``_dense_of_masks`` call and measured together, as many at once as
    keep the ``held`` stacks that ``measure`` holds within ``_BATCH``
    entries.

    On the group's ``k`` I/Z-only sites every row commutes with ``Z``, so
    its matrix is block diagonal, one block per sign pattern ``s`` of those
    sites: the rows on the other sites with each string's coefficient
    negated once per site where it holds ``Z`` and ``s`` is -1.  A norm,
    and the commutator of two such rows, is the largest over the ``2^k``
    blocks, so the blocks are built and measured in place of the whole.
    """
    out = np.zeros(len(items))
    present = items != 0.0
    support = np.bitwise_or.reduce(_supports(x, z, items), axis=1)
    width = items.shape[1]
    xz = np.stack([x, z])
    sups, group = np.unique(support, return_inverse=True)
    for g, sup in enumerate(sups.tolist()):
        index = np.flatnonzero(group == g)
        diag = _diagonal_sites(sup, x[present[index].any(axis=(0, 1))])
        on = [b for b in range(sup.bit_length()) if sup >> b & 1]  # in qubit order
        kept = [b for b in on if not diag >> b & 1]
        dropped = [b for b in on if diag >> b & 1]
        dim, blocks = 2 ** len(kept), 2 ** len(dropped)
        per = max(1, _BATCH // (held * blocks * dim * dim))
        for start in range(0, len(index), per):
            part = index[start : start + per]
            cols = present[part].any(axis=(0, 1))
            # the kept sites in the low bits, the dropped ones above them;
            # x is 0 on every dropped site
            sx, sz = _packed(xz[:, cols], kept + dropped)
            # (block, string): -1 where the string holds Z on an odd number
            # of the block's -1 sites
            signs = 1 - 2 * _parity(len(dropped))[np.arange(blocks)[:, None] & sz >> len(kept)]
            coeffs = (items[part][:, :, None, cols] * signs).transpose(1, 0, 2, 3)
            coeffs = coeffs.reshape(width * len(part) * blocks, len(sx))
            sz = sz & dim - 1  # the kept sites only
            # one expression, so a chunk's matrices are freed before the next is built
            out[part] = measure(*_dense_of_masks(len(kept), sx, sz, ny[cols], coeffs).reshape(
                width, len(part) * blocks, dim, dim
            )).reshape(len(part), blocks).max(axis=1)
    return out


def _norms(x, z, ny, rows: np.ndarray) -> np.ndarray:
    """Operator norm of each row of coefficients, taken on its support."""
    return _on_supports(hermitian_norm, 1, x, z, ny, rows[:, None])


def first_order_rate(model) -> float:
    """Coefficient c2 with per-step bound c2 * delta^2: half the sum over the
    splits of ``||[F_j, T_j]||``, ``T_j = F_(j+1) + ... + F_last``.

    Peels factors off the ordered list one at a time: splitting
    ``exp(-i d (F_j + T))`` into ``exp(-i d F_j) exp(-i d T)`` costs at most
    ``||[F_j, T]|| d^2 / 2``, and the chaining inequality adds the splits
    up.  That is one commutator norm per factor, and by the triangle
    inequality never more than the pairwise sum over ``j < k``.  This is
    the first-order case of Childs, Su, Tran, Wiebe and Zhu, *Theory of
    Trotter error with commutator scaling*, PRX 11, 011020 (2021).

    Each tail is its row of per-string sums, so terms that cancel are
    absent.  A term of ``F_j`` on sites the tail does not act on commutes
    with it, so ``[F_j, T_j]`` is taken on the tail's sites and those of
    the terms of ``F_j`` that touch them; a split with no such term is 0.
    Where both hold only I or Z on some of those sites, the commutator is
    block diagonal there and is normed block by block.
    """
    x, z, ny, table = _coefficient_table(model)
    tails = _tails(table)
    touching = ((x | z) & _supports(x, z, tails)[:, None]) != 0
    heads = np.where(touching, table[:-1], 0.0)
    live = np.flatnonzero((heads != 0.0).any(axis=1))
    norms = np.zeros(len(tails))
    pairs = np.stack([heads[live], tails[live]], axis=1)
    norms[live] = _on_supports(_commutator_norm, 4, x, z, ny, pairs)
    return 0.5 * sum(norms[::-1].tolist(), 0.0)


def second_order_rate(model) -> float:
    """Coefficient c3 with per-step bound c3 * delta^3 for a symmetric step.

    Peels factors off the ordered list one at a time, as the first-order
    rate does: each split of ``F_j`` against the exact sum of the remaining
    tail contributes one two-term symmetric-splitting defect, and the
    chaining inequality adds them up.  The operator norm is unitarily
    invariant, so a framed drift ``r C H C^dag`` has norm ``r ||H||`` from
    one norm of the drift ``H``.  A tail, and a plain factor, is normed on
    the sites its nonzero per-string sums act on: a tail that ends on a
    complete decoupling orbit acts on the pair alone.  On the sites where
    it holds only I or Z its norm is the largest over its diagonal blocks,
    one per sign pattern of those sites; on an XZ chain that halves every
    full-support tail.
    """
    x, z, ny, table = _coefficient_table(model)
    tails = _tails(table)
    drift_norm = hermitian_norm(dense_of_expansion(model.drift))
    a = np.array([f.rate * drift_norm if _is_framed(f) else 0.0 for f in model.factors[:-1]])
    plain = [j for j, f in enumerate(model.factors[:-1]) if not _is_framed(f)]
    norms = _norms(x, z, ny, np.concatenate([table[plain], tails]))
    a[plain] = norms[: len(plain)]
    b = norms[len(plain) :]
    # ||A|| ||B|| (||A|| + 2 ||B||) / 6 bounds the symmetric splitting
    # ||e^{-iA/2} e^{-iB} e^{-iA/2} - e^{-i(A+B)}|| at unit delta
    return sum((a * b * (a + 2.0 * b) / 6.0).tolist(), 0.0)


def chained_rate(model, order: int) -> float:
    """Per-step bound coefficient of a step model at unit delta.

    ``model`` is a step model: its ``drift`` ``H`` and its ordered
    ``factors``.  A factor with a ``frame`` is the framed drift
    ``rate * C H C^dag`` for the frame's per-site Cliffords ``C``; any other
    factor is plain, with its expansion in ``ham``.  The per-step bound is
    ``rate * delta^(order+1)`` and chaining over N identical steps
    multiplies by N.
    """
    if order not in (1, 2):
        raise InvalidTerm(f"order must be 1 or 2, got {order}")
    if not model.factors:
        return 0.0
    check_dense_cap(model.n)
    if order == 1:
        return first_order_rate(model)
    return second_order_rate(model)


def coupling_ratio(drift: HamExpansion, target: HamExpansion) -> float:
    """``D = |h * k / h_max_coupling|`` for the coarse global bound.

    ``h`` and ``k`` are the largest coefficient magnitudes of the drift
    and target expansions and the denominator is the drift's strongest
    coupling term.  A target with no coupling term needs no drift coupling:
    its step model holds only local factors or the bare drift, so it is
    exact and ``D`` is 0.
    """
    if not any(p.weight() == 2 for p in target.terms):
        return 0.0
    h = max((abs(c) for _, c in drift.items()), default=0.0)
    k = max((abs(c) for _, c in target.items()), default=0.0)
    coupling = max(
        (abs(c) for p, c in drift.items() if p.weight() == 2), default=0.0
    )
    if coupling == 0.0:
        raise NotCoupled("drift has no coupling term")
    return abs(h * k / coupling)


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
    return ErrorPlan(bound, order, n, t / n, t, cumulative(n), {"rate": rate})


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

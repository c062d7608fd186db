"""Rigorous error bounds and step planning for product-formula schedules.

All bounds are stated in the operator norm, which is what makes them
composable: it is invariant under unitaries, stable under tensoring with
ancillas, and obeys the chaining inequality
``||V1 W1 - V2 W2|| <= ||V1 - V2|| + ||W1 - W2||``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .dense import _dense_of_masks, check_dense_cap, dense_of_expansion, hermitian_norm
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


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``||[a, b]||`` of Hermitian ``a`` and ``b``.

    ``ba = (ab)^dag``, so ``[a, b] = ab - (ab)^dag`` needs one product, and
    ``i[a, b]`` is then exactly Hermitian.
    """
    ab = a @ b
    return hermitian_norm(1j * (ab - ab.conj().T))


def _is_framed(factor) -> bool:
    return hasattr(factor, "frame")


#: image and sign of each axis I, X, Y, Z under the identity
_IDENTITY = ((0, 1, 2, 3), (1, 1, 1, 1))
#: matrix entries built at once; bounds the memory of factor matrices in flight
_BATCH = 2**16


@functools.lru_cache(maxsize=None)
def _axis_table(images: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Image and sign of each axis I, X, Y, Z under a Clifford's signed axis images."""
    return (0, *("IXYZ".index(a) for _, a in images)), (1, *(s for s, _ in images))


def _factor_matrices(model, factors: Iterable) -> Iterator[np.ndarray]:
    """Dense matrix of each of ``factors``, factors of ``model``, in turn.

    A plain factor is its expansion's matrix.  A framed drift
    ``rate * C H C^dag`` is the drift's terms with each site's axis replaced
    by its signed image under ``C``, so it is built from the image terms'
    ``(x, z)`` masks with no expansion in between.  Frames that move the
    axes alike differ only in signs and rates, so their drifts share one
    set of image terms and are built together.  The image terms are put in
    canonical ``PauliString`` order, which makes every float addition the
    one ``dense_of_expansion`` of the conjugated expansion makes.
    """
    n = model.n
    terms = list(model.drift.items())
    axes = np.array([["IXYZ".index(a) for a in p.ops] for p, _ in terms], dtype=np.intp)
    axes = axes.reshape(len(terms), n)
    coeffs = np.array([c for _, c in terms], dtype=float)
    sites = np.arange(n)
    bits = 1 << sites[::-1]  # qubit 0 is the top bit, as in pauli_masks
    factors = list(factors)
    batch = max(1, _BATCH // 4**n)
    for start in range(0, len(factors), batch):
        part = factors[start : start + batch]
        alike: dict[tuple, list] = {}
        for i, f in enumerate(part):
            if not _is_framed(f):
                continue
            if f.rate < 0:
                raise InvalidTerm("a framed drift needs a non-negative rate")
            table = [_IDENTITY] * n
            for q, cliff in f.frame:
                table[q] = _axis_table(cliff.images)
            images, signs = zip(*table)
            alike.setdefault(images, []).append((i, signs, f.rate))
        built = {}
        for images, members in alike.items():
            index, signs, rates = zip(*members)
            image = np.array(images)[sites, axes]
            sign = np.array(signs)[:, sites, axes].prod(axis=2)
            order = np.argsort(image @ (bits * bits))  # base-4 digits I < X < Y < Z, site 0 first
            image = image[order]
            x, z = ((image == 1) | (image == 2)) @ bits, (image >= 2) @ bits
            values = sign[:, order] * coeffs[order] * np.array(rates)[:, None]
            mats = _dense_of_masks(n, x, z, (image == 2).sum(axis=1), values)
            built.update(zip(index, mats))
        for i, f in enumerate(part):
            yield built[i] if i in built else dense_of_expansion(f.ham)


def _tail_splits(model) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(F_j, F_(j+1) + ... + F_last)`` for each factor but the last, last first.

    The tail is one matrix, updated in place once the split is consumed.
    """
    dim = 2**model.n
    tail = np.zeros((dim, dim), dtype=complex)
    mats = _factor_matrices(model, reversed(model.factors))
    tail += next(mats)
    for mat in mats:
        yield mat, tail
        tail += mat


def first_order_rate(model) -> float:
    """Coefficient c2 with per-step bound c2 * delta^2: half the sum over the
    splits of ``||[F_j, F_(j+1) + ... + F_last]||``.

    Peels factors off the ordered list one at a time: splitting
    ``exp(-i d (F_j + T))`` into ``exp(-i d F_j) exp(-i d T)`` costs at most
    ``||[F_j, T]|| d^2 / 2``, and the chaining inequality adds the splits
    up.  That is one commutator norm per factor, and by the triangle
    inequality never more than the pairwise sum over ``j < k``.  This is
    the first-order case of Childs, Su, Tran, Wiebe and Zhu, *Theory of
    Trotter error with commutator scaling*, PRX 11, 011020 (2021).
    """
    return 0.5 * sum(_commutator_norm(mat, tail) for mat, tail in _tail_splits(model))


def second_order_rate(model) -> float:
    """Coefficient c3 with per-step bound c3 * delta^3 for a symmetric step.

    Peels factors off the ordered list one at a time, as the first-order
    rate does: each split of ``F_j`` against the exact sum of the remaining
    tail contributes one two-term symmetric-splitting defect, and the
    chaining inequality adds them up.  The operator norm is unitarily
    invariant, so a framed drift ``r C H C^dag`` has norm ``r ||H||`` from
    one norm of the drift ``H``.
    """
    drift_norm = hermitian_norm(dense_of_expansion(model.drift))
    defects = []
    for f, (mat, tail) in zip(reversed(model.factors[:-1]), _tail_splits(model)):
        a = f.rate * drift_norm if _is_framed(f) else hermitian_norm(mat)
        b = hermitian_norm(tail)
        # ||A|| ||B|| (||A|| + 2 ||B||) / 6 bounds the symmetric splitting
        # ||e^{-iA/2} e^{-iB} e^{-iA/2} - e^{-i(A+B)}|| at unit delta
        defects.append(a * b * (a + 2.0 * b) / 6.0)
    return sum(reversed(defects), 0.0)


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

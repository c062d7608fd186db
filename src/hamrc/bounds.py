"""Rigorous error bounds and step planning for product-formula schedules.

All bounds are stated in the operator norm, which is what makes them
composable: it is invariant under unitaries, stable under tensoring with
ancillas, and obeys the chaining inequality
``||V1 W1 - V2 W2|| <= ||V1 - V2|| + ||W1 - W2||``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dense import DEFAULT_DENSE_CAP, dense_of_expansion, operator_norm
from .errors import Infeasible, InvalidTerm, NotCoupled, TooLarge
from .pauli import HamExpansion

#: default constant of the coarse coupling-ratio bound C * D^2 * t * delta
GLOBAL_BOUND_C = 1.0e4

#: step counts above this are refused as impractical
MAX_PLAN_STEPS = 2**22

PLAN_KINDS = ("first_order_cnot", "second_order_cnot", "global", "chained", "empirical")


@dataclass(frozen=True)
class ErrorPlan:
    """A step count with the bound that justified it.

    ``steps * delta`` always equals the total time to 1e-12, and the
    predicted error is non-increasing in the step count for every
    analytic kind.  Empirical plans carry the measured error instead and
    are flagged non-analytic.
    """

    bound: str
    order: int
    steps: int
    delta: float
    t: float
    predicted_error: float
    analytic: bool = True
    constants: dict[str, float] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidTerm("a plan needs at least one step")
        if abs(self.steps * self.delta - self.t) > 1e-12 * max(1.0, abs(self.t)):
            raise InvalidTerm("steps * delta must reproduce the total time")
        if self.predicted_error < 0:
            raise InvalidTerm("predicted error must be non-negative")


def first_order_rate(mats: Sequence[np.ndarray]) -> float:
    """Coefficient c2 with per-step bound c2 * delta^2 for unit-rate factors."""
    total = 0.0
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            total += operator_norm(mats[j] @ mats[k] - mats[k] @ mats[j])
    return 0.5 * total


def second_order_correction(j1_norm: float, j2_norm: float, delta: float) -> float:
    """Per-step defect of the symmetric splitting of two Hamiltonians.

    ``(1/6) * ||J1|| * ||J2|| * (||J1|| + 2 ||J2||) * delta^3`` bounds
    ``||exp(-i d J1/2) exp(-i d J2) exp(-i d J1/2) - exp(-i d (J1+J2))||``;
    multiply by ``t / delta`` for the cumulative version.
    """
    return (j1_norm * j2_norm * (j1_norm + 2.0 * j2_norm) / 6.0) * delta**3


def second_order_rate(mats: Sequence[np.ndarray]) -> float:
    """Coefficient c3 with per-step bound c3 * delta^3 for a symmetric step.

    Peels factors off the ordered list one at a time: each split of
    ``J_i`` against the exact sum of the remaining tail contributes one
    two-term symmetric-splitting defect, and the chaining inequality adds
    them up.
    """
    if len(mats) < 2:
        return 0.0
    total = 0.0
    tail = mats[-1].copy()
    tail_norms: list[float] = [operator_norm(tail)]
    for m in reversed(mats[:-1]):
        tail = tail + m
        tail_norms.append(operator_norm(tail))
    tail_norms.reverse()  # tail_norms[i] = ||sum of mats[i:]||
    for i in range(len(mats) - 1):
        a = operator_norm(mats[i])
        r = tail_norms[i + 1]
        total += second_order_correction(a, r, 1.0)
    return total


def chained_rate(
    factors: Sequence[HamExpansion], order: int, *, dense_cap: int | None = None
) -> float:
    """Per-step bound coefficient for a factor list of unit-delta rates.

    The per-step bound is ``rate * delta^(order+1)`` and chaining over N
    identical steps multiplies by N.
    """
    if order not in (1, 2):
        raise InvalidTerm(f"order must be 1 or 2, got {order}")
    if not factors:
        return 0.0
    cap = DEFAULT_DENSE_CAP if dense_cap is None else dense_cap
    if factors[0].n > cap:
        raise TooLarge(f"{factors[0].n} qubits exceeds dense cap {cap}")
    mats = [dense_of_expansion(h) for h in factors]
    return first_order_rate(mats) if order == 1 else second_order_rate(mats)


def coupling_ratio(drift: HamExpansion, target: HamExpansion) -> float:
    """``D = |h * k / h_max_coupling|`` for the coarse global bound.

    ``h`` and ``k`` are the largest coefficient magnitudes of the drift
    and target expansions and the denominator is the drift's strongest
    coupling term.
    """
    h = max((abs(c) for _, c in drift.items()), default=0.0)
    k = max((abs(c) for _, c in target.items()), default=0.0)
    coupling = max(
        (abs(c) for p, c in drift.items() if p.weight() == 2), default=0.0
    )
    if coupling == 0.0:
        raise NotCoupled("drift has no coupling term")
    return abs(h * k / coupling)


def global_bound(
    drift: HamExpansion,
    target: HamExpansion,
    t: float,
    delta: float,
    C: float = GLOBAL_BOUND_C,
) -> float:
    """Coarse closed-form bound ``C * D^2 * t * delta`` for first order.

    The constant is deliberately loose; the bound exists to give an
    a-priori budget without any dense computation.
    """
    d_ratio = coupling_ratio(drift, target)
    return C * d_ratio * d_ratio * t * delta


def _analytic_cumulative(kind: str, order: int, t: float, constants: dict) -> Callable[[int], float]:
    if kind == "first_order_cnot":
        return lambda n: 8.0 * t * (t / n)
    if kind == "second_order_cnot":
        return lambda n: 0.5 * t * (t / n) ** 2
    if kind == "global":
        C, D = constants["C"], constants["D"]
        return lambda n: C * D * D * t * (t / n)
    if kind == "chained":
        rate = constants["rate"]
        return lambda n: n * rate * (t / n) ** (order + 1)
    raise InvalidTerm(f"unknown analytic bound kind {kind!r}")


def plan_steps(
    kind: str,
    epsilon: float,
    t: float,
    *,
    order: int | None = None,
    rate: float | None = None,
    C: float = GLOBAL_BOUND_C,
    D: float | None = None,
    measure: Callable[[int], float] | None = None,
    max_steps: int = MAX_PLAN_STEPS,
) -> ErrorPlan:
    """Smallest step count whose bound of the given kind meets ``epsilon``.

    Analytic kinds use their closed forms; ``empirical`` doubles and then
    bisects on the caller-supplied ``measure(N)`` and records the actual
    measured error (flagged non-analytic).  Raises :class:`Infeasible`
    when no admissible step count exists below ``max_steps``.
    """
    if kind not in PLAN_KINDS:
        raise InvalidTerm(f"unknown bound kind {kind!r}")
    if epsilon <= 0:
        raise InvalidTerm("error budget must be positive")
    if t <= 0:
        raise InvalidTerm("total time must be positive")

    if kind == "empirical":
        if measure is None:
            raise InvalidTerm("empirical planning needs a measure callable")
        if order is None:
            raise InvalidTerm("empirical planning needs the order")
        lo, hi = 0, 1
        err_hi = measure(hi)
        while err_hi > epsilon:
            lo, hi = hi, hi * 2
            if hi > max_steps:
                raise Infeasible(
                    f"measured error still {err_hi:.3e} at {lo} steps"
                )
            err_hi = measure(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if measure(mid) <= epsilon:
                hi = mid
            else:
                lo = mid
        final = measure(hi)
        return ErrorPlan(
            bound="empirical",
            order=order,
            steps=hi,
            delta=t / hi,
            t=t,
            predicted_error=final,
            analytic=False,
        )

    constants: dict[str, float] = {}
    if kind == "first_order_cnot":
        order = 1
    elif kind == "second_order_cnot":
        order = 2
    elif kind == "global":
        order = 1 if order is None else order
        if D is None:
            raise InvalidTerm("global bound needs the coupling ratio D")
        constants = {"C": C, "D": D}
    elif kind == "chained":
        if order is None or rate is None:
            raise InvalidTerm("chained bound needs order and rate")
        constants = {"rate": rate}

    cumulative = _analytic_cumulative(kind, order, t, constants)
    if cumulative(1) <= epsilon:
        n = 1
    else:
        # cumulative ~ c / n^p: invert, then nudge for float rounding
        p = {"first_order_cnot": 1, "second_order_cnot": 2, "global": 1,
             "chained": order}[kind]
        c1 = cumulative(1)
        guess = (c1 / epsilon) ** (1.0 / p)
        if not guess < max_steps:  # also catches inf pre-ceil
            raise Infeasible(f"needs more than {max_steps} steps")
        n = max(1, math.ceil(guess))
        while n > 1 and cumulative(n - 1) <= epsilon:
            n -= 1
        while cumulative(n) > epsilon:
            n += 1
            if n > max_steps:
                raise Infeasible(f"needs more than {max_steps} steps")
    return ErrorPlan(
        bound=kind,
        order=order,
        steps=n,
        delta=t / n,
        t=t,
        predicted_error=cumulative(n),
        constants=constants,
    )

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

from .cliffords import RELATIVE, frame_actions
from .dense import DEFAULT_DENSE_CAP, dense_of_expansion, hermitian_norm
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


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``||[a, b]||`` of Hermitian ``a`` and ``b``.

    ``ba = (ab)^dag``, so ``[a, b] = ab - (ab)^dag`` needs one product, and
    ``i[a, b]`` is then exactly Hermitian.
    """
    ab = a @ b
    return hermitian_norm(1j * (ab - ab.conj().T))


def _shared_norm_sum(mats, left, right, scale, keys) -> float:
    """``sum_p ||[mats[left[p]], mats[right[p]]]||`` with one commutator per key.

    Norm ``p`` must be ``scale[p] > 0`` times a value fixed by the row
    ``keys[p]``; that value is taken from the first pair with the row.
    """
    _, first, which = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    unit = np.array(
        [_commutator_norm(mats[left[p]], mats[right[p]]) / scale[p] for p in first]
    )
    return float(scale @ unit[which.reshape(-1)])


def _relative_keys(actions_j: np.ndarray, actions_k: np.ndarray) -> np.ndarray:
    """Per pair, the per-site action of ``R = C_j^dag C_k`` or of its inverse.

    ``||[H, R H R^dag]|| = ||[H, R^dag H R]||``, so the two name one norm;
    the row kept is the lexicographically smaller of the two.
    """
    rel = RELATIVE[actions_j, actions_k]
    inv = RELATIVE[rel, 0]
    site = (rel != inv).argmax(axis=1)[:, None]  # first differing site, or 0
    swap = np.take_along_axis(inv, site, 1) < np.take_along_axis(rel, site, 1)
    return np.where(swap, inv, rel)


def _is_framed(factor) -> bool:
    return hasattr(factor, "frame")


def first_order_rate(model, expansions: Sequence[HamExpansion]) -> float:
    """Coefficient c2 with per-step bound c2 * delta^2: half the sum of
    ``||[F_j, F_k]||`` over the factor pairs ``j < k``.

    The operator norm is unitarily invariant.  Two framed drifts
    ``r_j C_j H C_j^dag`` and ``r_k C_k H C_k^dag`` therefore give
    ``r_j r_k ||[H, R H R^dag]||`` with ``R = C_j^dag C_k``, and a plain
    factor ``P`` against a framed drift gives ``r_k ||[C_k^dag P C_k, H]||``,
    which depends on ``C_k`` only on the support of ``P``.  Each such norm
    is taken once, from the factor matrices of the first pair that needs
    it; pairs of plain factors are taken directly.
    """
    mats = [dense_of_expansion(h) for h in expansions]
    framed = [i for i, f in enumerate(model.factors) if _is_framed(f) and f.rate > 0]
    plain = sorted(set(range(len(mats))) - set(framed))
    index = np.array(framed, dtype=np.intp)
    rates = np.array([model.factors[i].rate for i in framed], dtype=float)
    actions = np.array(
        [frame_actions(model.factors[i].layer_map(), model.n) for i in framed], dtype=np.intp
    ).reshape(len(framed), model.n)

    j, k = np.triu_indices(len(framed), 1)
    keys = _relative_keys(actions[j], actions[k])
    total = _shared_norm_sum(mats, index[j], index[k], rates[j] * rates[k], keys)
    for pos, i in enumerate(plain):
        sites = list(expansions[i].support())
        left = np.full(len(framed), i)
        total += _shared_norm_sum(mats, left, index, rates, actions[:, sites])
        total += sum(_commutator_norm(mats[i], mats[other]) for other in plain[pos + 1 :])
    return 0.5 * total


def second_order_correction(j1_norm: float, j2_norm: float, delta: float) -> float:
    """Per-step defect of the symmetric splitting of two Hamiltonians.

    ``(1/6) * ||J1|| * ||J2|| * (||J1|| + 2 ||J2||) * delta^3`` bounds
    ``||exp(-i d J1/2) exp(-i d J2) exp(-i d J1/2) - exp(-i d (J1+J2))||``;
    multiply by ``t / delta`` for the cumulative version.
    """
    return (j1_norm * j2_norm * (j1_norm + 2.0 * j2_norm) / 6.0) * delta**3


def second_order_rate(model, expansions: Sequence[HamExpansion]) -> float:
    """Coefficient c3 with per-step bound c3 * delta^3 for a symmetric step.

    Peels factors off the ordered list one at a time: each split of
    ``F_i`` against the exact sum of the remaining tail contributes one
    two-term symmetric-splitting defect, and the chaining inequality adds
    them up.  The operator norm is unitarily invariant, so a framed drift
    ``r C H C^dag`` has norm ``r ||H||`` from one norm of the drift ``H``.
    The tail sums are built from the end, one factor matrix at a time.
    """
    if len(expansions) < 2:
        return 0.0
    drift_norm = hermitian_norm(dense_of_expansion(model.drift))
    norms = [
        f.rate * drift_norm if _is_framed(f) else hermitian_norm(dense_of_expansion(h))
        for f, h in zip(model.factors[:-1], expansions)
    ]
    dim = 2**model.n
    tail = np.zeros((dim, dim), dtype=complex)
    tail_norms: list[float] = []
    for h in reversed(expansions[1:]):
        tail += dense_of_expansion(h)
        tail_norms.append(hermitian_norm(tail))
    tail_norms.reverse()  # tail_norms[i] = ||F_(i+1) + ... + F_last||
    return sum(second_order_correction(a, r, 1.0) for a, r in zip(norms, tail_norms))


def chained_rate(model, order: int, *, dense_cap: int | None = None) -> float:
    """Per-step bound coefficient of a step model at unit delta.

    ``model`` is a step model: its ``drift`` ``H``, its ordered ``factors``
    and their expansions ``factor_expansions()``.  A factor with a
    ``frame`` is the framed drift ``rate * C H C^dag`` for the frame's
    per-site Cliffords ``C``; any other factor is plain.  The per-step
    bound is ``rate * delta^(order+1)`` and chaining over N identical
    steps multiplies by N.
    """
    if order not in (1, 2):
        raise InvalidTerm(f"order must be 1 or 2, got {order}")
    if not model.factors:
        return 0.0
    cap = DEFAULT_DENSE_CAP if dense_cap is None else dense_cap
    if model.n > cap:
        raise TooLarge(f"{model.n} qubits exceeds dense cap {cap}")
    expansions = model.factor_expansions()
    if order == 1:
        return first_order_rate(model, expansions)
    return second_order_rate(model, expansions)


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

"""Compile arbitrary two-qubit target evolutions out of a fixed drift.

The construction rests on three elementary moves: conjugating the drift
by local unitaries reshapes it exactly, product formulas split a sum of
generators into a sequence, and non-negative time rescaling is free.

``step_model`` builds it in one pass.  For a drift ``H`` whose dominant
coupling sits on axes (r, s) with coefficient h_rs, averaging the four
Pauli frames {I, sigma_r} (x) {I, sigma_s} cancels every term of ``H``
except those supported on the (r, s) axis pair.  Dividing by 4|h_rs| and
removing the surviving local terms (which commute with the coupling, so
their removal is exact) leaves exactly ``sign(h_rs) * sigma_r (x)
sigma_s``.  Each target coupling ``c * sigma_a (x) sigma_b`` wraps those
frames and the correction in the fixed Clifford rotations that carry
(r, s) onto (a, b), plus a Pauli conjugation on qubit 0 when the signs of
c and h_rs differ, and runs them at rate |c| / (4|h_rs|).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bounds as _bounds
from .cliffords import (
    AXIS_ROTATION,
    PAULI_CLIFF,
    LocalClifford,
    conjugate_by_cliffords,
    sign_flip_clifford,
)
from .dense import PAULI_MATS, check_dense_cap, dense_of_expansion, distance, expm_hermitian
from .errors import HamrcError, Infeasible, InvalidStep, InvalidTerm, VerificationFailure
from .pauli import HamExpansion, PauliString, build_expansion, max_coupling
from .schedule import Drift, Instruction, LocalLayer, Schedule, canonicalize, evaluate_schedule

#: evolution time for which the mapped coupling generates a CNOT
CNOT_TIME = math.pi / 4.0

#: coupling part of the CNOT generator, the only part that needs the drift
CNOT_BODY = build_expansion(2, [("ZX", -1.0)])

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class FramedDrift:
    """Drift evolution wrapped in a frame; ``rate`` scales the duration.

    An empty frame realizes the bare drift (used when the target is a
    positive multiple of the drift, which needs no splitting at all).
    """

    rate: float
    frame: tuple[tuple[int, LocalClifford], ...]  # sorted by site

    def layer_map(self) -> dict[int, LocalClifford]:
        return dict(self.frame)

    @functools.cached_property
    def frame_layer(self) -> LocalLayer:
        """The frame as one layer, built once; every emitted step shares it.

        Bodies are interned by value, so the sharing saves building and
        hashing a layer per step; it does not change a schedule.
        """
        return LocalLayer({q: c.matrix for q, c in self.frame})

    @functools.cached_property
    def frame_layer_dagger(self) -> LocalLayer:
        """Inverse of ``frame_layer``, built once."""
        return self.frame_layer.dagger()


@dataclass(frozen=True)
class LocalFactor:
    """Exact product-formula factor: a sum of single-site terms per unit time."""

    ham: HamExpansion

    def layer(self, duration: float) -> LocalLayer:
        per_site: dict[int, np.ndarray] = {}
        for p, c in self.ham.items():
            (site,) = p.support()
            mat = per_site.setdefault(site, np.zeros((2, 2), dtype=complex))
            mat += c * PAULI_MATS[p.ops[site]]
        return LocalLayer(
            {q: expm_hermitian(m, duration) for q, m in per_site.items()}
        )


StepFactor = LocalFactor | FramedDrift


@dataclass(frozen=True)
class StepModel:
    """Ordered factor list approximating ``exp(-i K delta)`` per step."""

    n: int
    drift: HamExpansion
    factors: tuple[StepFactor, ...]
    phase_rate: float

    def drift_factor_count(self) -> int:
        return sum(1 for f in self.factors if isinstance(f, FramedDrift))

    def raw_drifts_per_step(self, order: int) -> int:
        d = self.drift_factor_count()
        if order == 1 or d == 0:
            return d
        return 2 * d - (1 if isinstance(self.factors[-1], FramedDrift) else 0)


def _proportional_rate(target: HamExpansion, drift: HamExpansion) -> float | None:
    """lam > 0 with target == lam * drift coefficient-exactly, else None."""
    if len(drift) == 0 or set(target.terms) != set(drift.terms):
        return None
    anchor = max(drift, key=lambda p: abs(drift.coefficient(p)))
    lam = target.coefficient(anchor) / drift.coefficient(anchor)
    if not lam > 0:
        return None
    for p, h in drift.items():
        if target.coefficient(p) != lam * h:
            return None
    return lam


def _check_reassembly(
    drift: HamExpansion,
    frames: list[FramedDrift],
    norm: float,
    correction: HamExpansion,
    phase: float,
    target: HamExpansion,
) -> None:
    """Zero-tolerance check that the frames rebuild ``target`` exactly.

    The conjugated drifts' mean, divided by ``norm``, plus ``correction``,
    plus ``phase`` times identity, must equal ``target`` coefficient for
    coefficient.  Each coefficient is divided by ``norm`` before the sum,
    so a drift near the float maximum does not overflow in it.
    """
    total: dict[PauliString, float] = {}
    for frame in frames:
        for p, c in conjugate_by_cliffords(drift, frame.layer_map()).items():
            total[p] = total.get(p, 0.0) + c / norm
    rebuilt = {p: c / len(frames) for p, c in total.items()}
    for p, c in correction.items():
        rebuilt[p] = rebuilt.get(p, 0.0) + c
    ident = PauliString.identity(2)
    rebuilt[ident] = rebuilt.get(ident, 0.0) + phase
    if HamExpansion(2, rebuilt) != target:
        raise HamrcError("recipe reassembly does not reproduce the target exactly")


def step_model(drift: HamExpansion, target: HamExpansion) -> StepModel:
    """Factor a two-qubit target into exact locals plus framed drifts.

    The fixed order is: one exact local factor (the target's own local
    terms plus every coupling's local correction), then the coupling
    terms by decreasing magnitude, ties to the smaller axis pair, each as
    its four framed drifts.  Every coupling's frames are checked to
    reassemble it exactly; ``max_coupling`` is only asked for when the
    target has a coupling, so a locals-only target needs no coupled drift.
    """
    if drift.n != 2 or target.n != 2:
        raise InvalidTerm("pair compilation expects two-qubit expansions")

    lam = _proportional_rate(target, drift)
    if lam is not None:
        return StepModel(2, drift, (FramedDrift(lam, ()),), 0.0)

    couplings: list[tuple[PauliString, float]] = []
    local_acc: dict[PauliString, float] = {}
    phase_rate = 0.0
    for p, c in target.items():
        w = p.weight()
        if w == 2:
            couplings.append((p, c))
        elif w == 1:
            local_acc[p] = c
        else:
            phase_rate = c
    couplings.sort(key=lambda pc: (-abs(pc[1]), pc[0]))

    drifts: list[FramedDrift] = []
    if couplings:
        r, s, h_rs = max_coupling(drift, (0, 1))
        norm = abs(h_rs)
        paulis = [(PAULI_CLIFF[a], PAULI_CLIFF[b]) for a in ("I", r) for b in ("I", s)]
        correction = HamExpansion(
            2,
            {
                PauliString(r + "I"): -(drift.coefficient(r + "I") / norm),
                PauliString("I" + s): -(drift.coefficient("I" + s) / norm),
            },
        )
        phase = -(drift.coefficient("II") / norm)
        for p, coeff in couplings:
            a, b = p.ops
            outer_a, outer_b = AXIS_ROTATION[(r, a)], AXIS_ROTATION[(s, b)]
            if (coeff < 0) != (h_rs < 0):
                outer_a = sign_flip_clifford(a).compose(outer_a)
            mag = abs(coeff)
            rate = mag / norm / 4.0  # not mag / (4 * norm), which overflows first
            frames = [
                FramedDrift(rate, ((0, outer_a.compose(pa)), (1, outer_b.compose(pb))))
                for pa, pb in paulis
            ]
            conj = conjugate_by_cliffords(correction, {0: outer_a, 1: outer_b})
            unit = HamExpansion(2, {p: math.copysign(1.0, coeff)})
            _check_reassembly(drift, frames, norm, conj, phase, unit)
            drifts.extend(frames)
            for q, c in conj.items():
                local_acc[q] = local_acc.get(q, 0.0) + mag * c
            phase_rate += mag * phase

    factors: list[StepFactor] = []
    local_ham = HamExpansion(2, local_acc)
    if len(local_ham):
        factors.append(LocalFactor(local_ham))
    factors.extend(drifts)
    return StepModel(2, drift, tuple(factors), phase_rate)


def emit_step(
    model: StepModel, delta: float, order: int
) -> tuple[list[Instruction], float]:
    """Instruction list for one step plus its global-phase contribution.

    Order 1 runs every factor once for ``delta``.  Order 2 emits the
    symmetric palindrome: all but the last factor at ``delta/2``, the
    last at ``delta``, then the reflection.  A framed drift contributes
    its own ``frame_layer`` and ``frame_layer_dagger`` objects, so every
    step of a model shares them.
    """
    if order not in (1, 2):
        raise InvalidStep(f"order must be 1 or 2, got {order}")
    if not delta > 0:
        raise InvalidStep(f"step duration must be positive, got {delta}")

    if order == 1 or len(model.factors) <= 1:
        timed = [(f, delta) for f in model.factors]
    else:
        head = [(f, delta / 2.0) for f in model.factors[:-1]]
        timed = head + [(model.factors[-1], delta)] + head[::-1]

    out: list[Instruction] = []
    for factor, duration in timed:
        if isinstance(factor, LocalFactor):
            out.append(factor.layer(duration))
            continue
        if factor.frame:
            out.append(factor.frame_layer)
            out.append(Drift(factor.rate * duration))
            out.append(factor.frame_layer_dagger)
        else:
            out.append(Drift(factor.rate * duration))
    return out, -model.phase_rate * delta


def _make_measure(
    model: StepModel, target: HamExpansion, t: float, order: int
) -> Callable[[int], float]:
    check_dense_cap(model.n)
    goal = expm_hermitian(dense_of_expansion(target), t)

    def measure(n_steps: int) -> float:
        instructions, phase = emit_step(model, t / n_steps, order)
        frag = Schedule(model.n, ((instructions, 1),), phase)
        w = evaluate_schedule(frag, model.drift)
        return distance(goal, np.linalg.matrix_power(w, n_steps), phase_align=True)

    return measure


#: drift-blind CNOT plans: bound kind -> (order, rate)
_CNOT_RATES = {"first_order_cnot": (1, 8.0), "second_order_cnot": (2, 0.5)}


def plan_for_model(
    model: StepModel,
    target: HamExpansion,
    t: float,
    epsilon: float,
    order: int,
    bound: str,
    *,
    C: float = _bounds.GLOBAL_BOUND_C,
) -> _bounds.ErrorPlan:
    """Step plan for a prepared model under the requested bound kind.

    ``target`` is the evolution the model approximates, on the model's
    register; ``C`` is the constant of the coarse global bound.  Every
    analytic kind is ``plan_steps`` at its own rate: ``chained_rate`` of
    the model, ``C * D^2`` at order 1 for ``global``, and a fixed
    order and rate for each CNOT kind; ``global`` and the CNOT kinds
    refuse any other order.  This is the one place a plan is chosen by
    bound kind.
    """
    if bound == "chained":
        rate = _bounds.chained_rate(model, order)
        return _bounds.plan_steps(bound, epsilon, t, order=order, rate=rate)
    if bound == "global":
        d_ratio = _bounds.coupling_ratio(model.drift, target)
        if order != 1:
            raise InvalidTerm("the coarse global bound only covers order 1")
        plan = _bounds.plan_steps(bound, epsilon, t, order=1, rate=C * d_ratio * d_ratio)
        plan.constants.update(C=C, D=d_ratio)
        return plan
    if bound in _CNOT_RATES:
        kind_order, rate = _CNOT_RATES[bound]
        if order != kind_order:
            raise InvalidTerm(f"the {bound} bound only covers order {kind_order}")
        return _bounds.plan_steps(bound, epsilon, t, order=order, rate=rate)
    if bound == "empirical":
        measure = _make_measure(model, target, t, order)
        return _bounds.plan_empirical(measure, epsilon, t, order=order)
    raise InvalidStep(f"unknown bound kind {bound!r}")


def _repeat_steps(
    model: StepModel,
    target: HamExpansion,
    t: float,
    *,
    steps: int | None,
    epsilon: float | None,
    order: int,
    bound: str,
) -> Schedule:
    """Raw schedule approximating ``exp(-i target t)`` by repeating one step.

    ``target`` is the evolution ``model`` was built for, on its register.
    Exactly one of ``steps`` and ``epsilon`` selects the step count; with
    ``epsilon`` the plan comes from the requested bound kind and is
    attached to the returned schedule.  The schedule is one block, the
    emitted step repeated ``steps`` times; each entry point adds what it
    needs around it and canonicalizes its finished schedule once.
    """
    if not t > 0:
        raise InvalidStep(f"total time must be positive, got {t}")
    if (steps is None) == (epsilon is None):
        raise InvalidStep("pass exactly one of steps and epsilon")
    plan = None
    if epsilon is not None:
        plan = plan_for_model(model, target, t, epsilon, order, bound)
        steps = plan.steps
    if steps < 1:
        raise InvalidStep("step count must be at least 1")
    if steps > _bounds.MAX_PLAN_STEPS:
        raise Infeasible(f"{steps} steps is more than {_bounds.MAX_PLAN_STEPS}")
    instructions, phase = emit_step(model, t / steps, order)
    return Schedule(
        model.n,
        ((instructions, steps),),
        phase * steps,
        raw_drift_periods=model.raw_drifts_per_step(order) * steps,
        plan=plan,
        predicted_error=None if plan is None else plan.predicted_error,
    )


def compile_schedule(
    drift: HamExpansion,
    target: HamExpansion,
    t: float,
    *,
    steps: int | None = None,
    epsilon: float | None = None,
    order: int = 1,
    bound: str = "chained",
) -> Schedule:
    """Full schedule approximating ``exp(-i target t)`` on two qubits.

    Exactly one of ``steps`` and ``epsilon`` selects the step count; with
    ``epsilon`` the plan comes from the requested bound kind and is
    attached to the returned schedule.
    """
    return canonicalize(
        _repeat_steps(
            step_model(drift, target), target, t,
            steps=steps, epsilon=epsilon, order=order, bound=bound,
        )
    )


def cnot_generator() -> HamExpansion:
    """Commuting three-term generator whose time-pi/4 flow is a CNOT."""
    return build_expansion(2, [("IX", 1.0), ("ZI", 1.0), ("ZX", -1.0)])


def cnot_bound(order: int) -> str:
    """Bound kind that plans the CNOT body at the given order."""
    return "first_order_cnot" if order == 1 else "second_order_cnot"


def compile_cnot(
    drift: HamExpansion,
    *,
    steps: int | None = None,
    epsilon: float | None = None,
    order: int = 2,
) -> Schedule:
    """Schedule realizing a CNOT (control qubit 0) from the drift.

    The coupling part ``-Z (x) X`` is compiled for time pi/4 and
    sandwiched between the exact local rotations that supply the
    remaining commuting generator terms, one-layer blocks around the
    repeated step, and the whole is canonicalized once; the global phase
    is tracked so the result approximates the CNOT matrix itself, not
    just its ray.  A planned schedule is evaluated against the CNOT and
    refused when it misses its own predicted error.
    """
    lead = LocalLayer({0: expm_hermitian(PAULI_MATS["Z"], CNOT_TIME)})
    trail = LocalLayer({1: expm_hermitian(PAULI_MATS["X"], CNOT_TIME)})
    body = _repeat_steps(
        step_model(drift, CNOT_BODY), CNOT_BODY, CNOT_TIME,
        steps=steps, epsilon=epsilon, order=order, bound=cnot_bound(order),
    )
    sched = canonicalize(replace(
        body, blocks=(((lead,), 1), *body.blocks, ((trail,), 1)), phase=body.phase + CNOT_TIME
    ))
    if sched.plan is not None:
        achieved = distance(
            CNOT_MATRIX,
            evaluate_schedule(sched, drift),
            phase_align=True,
        )
        if not achieved <= sched.plan.predicted_error + _bounds.ROUNDING:
            raise VerificationFailure(
                f"CNOT error {achieved:.3e} exceeds plan "
                f"{sched.plan.predicted_error:.3e}"
            )
    return sched

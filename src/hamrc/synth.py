"""Compile arbitrary two-qubit target evolutions out of a fixed drift.

The construction rests on three elementary moves: conjugating the drift
by local unitaries reshapes it exactly, product formulas split a sum of
generators into a sequence, and non-negative time rescaling is free.

For a drift ``H`` whose dominant coupling sits on axes (r, s) with
coefficient h_rs, averaging the four Pauli frames {I, sigma_r} (x)
{I, sigma_s} cancels every term of ``H`` except those supported on the
(r, s) axis pair.  Dividing by 4|h_rs| and removing the surviving local
terms (which commute with the coupling, so their removal is exact)
leaves exactly ``sign(h_rs) * sigma_r (x) sigma_s``.  Outer single-qubit
Clifford rotations then move (r, s) onto any requested axis pair, and a
Pauli conjugation flips the sign when needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import bounds as _bounds
from .cliffords import (
    AXIS_ROTATION,
    PAULI_CLIFF,
    LocalClifford,
    conjugate_by_cliffords,
    sign_flip_clifford,
)
from .dense import PAULI_MATS, dense_of_expansion, distance, expm_hermitian
from .errors import HamrcError, InvalidStep, InvalidTerm, VerificationFailure
from .pauli import (
    HamExpansion,
    PauliString,
    average,
    build_expansion,
    max_coupling,
)
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

    def effective(self, drift: HamExpansion) -> HamExpansion:
        """Rate-scaled conjugated drift this factor contributes per unit time."""
        return average([(self.rate, conjugate_by_cliffords(drift, self.layer_map()))])


@dataclass(frozen=True)
class TermRecipe:
    """Exact reassembly of one signed coupling term from the drift.

    Invariant (checked symbolically on construction): the weighted sum of
    the conjugated drifts, plus ``local_correction``, plus
    ``phase_correction`` times identity, equals ``target`` exactly at the
    coefficient level.
    """

    target: HamExpansion
    frames: tuple[FramedDrift, ...]  # each at rate 1/divisor
    local_correction: HamExpansion
    phase_correction: float
    divisor: float  # kept for exact division


def _verify_recipe(drift: HamExpansion, recipe: TermRecipe) -> None:
    total: dict[PauliString, float] = {}
    for frame in recipe.frames:
        conj = conjugate_by_cliffords(drift, frame.layer_map())
        for p, c in conj.items():
            total[p] = total.get(p, 0.0) + c
    rebuilt = {p: c / recipe.divisor for p, c in total.items()}
    for p, c in recipe.local_correction.items():
        rebuilt[p] = rebuilt.get(p, 0.0) + c
    ident = PauliString.identity(2)
    rebuilt[ident] = rebuilt.get(ident, 0.0) + recipe.phase_correction
    if HamExpansion(2, rebuilt) != recipe.target:
        raise HamrcError(
            "recipe reassembly does not reproduce the target exactly"
        )


def synth_max_term(drift: HamExpansion) -> TermRecipe:
    """Recipe for ``sign(h_rs) sigma_r (x) sigma_s`` from the dominant coupling.

    Frames are the four Pauli strings {I, sigma_r} (x) {I, sigma_s} with
    weight 1/(4|h_rs|); the surviving same-axis local terms and identity
    are returned as exact corrections with a single floating division
    each, so the symbolic reassembly check passes with zero tolerance.
    """
    if drift.n != 2:
        raise InvalidTerm("pair synthesis expects a two-qubit drift")
    r, s, h_rs = max_coupling(drift, (0, 1))
    div = 4.0 * abs(h_rs)

    frames = tuple(
        FramedDrift(1.0 / div, ((0, PAULI_CLIFF[a]), (1, PAULI_CLIFF[b])))
        for a in ("I", r)
        for b in ("I", s)
    )

    h_r0 = drift.coefficient(r + "I")
    h_0s = drift.coefficient("I" + s)
    h_00 = drift.coefficient("II")
    correction = HamExpansion(
        2,
        {
            PauliString(r + "I"): -(h_r0 / abs(h_rs)),
            PauliString("I" + s): -(h_0s / abs(h_rs)),
        },
    )
    target = HamExpansion(2, {PauliString(r + s): h_rs / abs(h_rs)})
    recipe = TermRecipe(
        target=target,
        frames=frames,
        local_correction=correction,
        phase_correction=-(h_00 / abs(h_rs)),
        divisor=div,
    )
    _verify_recipe(drift, recipe)
    return recipe


def synth_pauli_product(
    drift: HamExpansion, axis_a: str, axis_b: str, sign: float = 1.0
) -> TermRecipe:
    """Recipe for ``sign * sigma_axis_a (x) sigma_axis_b`` on the pair.

    Wraps the dominant-coupling recipe in the fixed Clifford rotations
    that carry (r, s) onto the requested axes; a negative sign adds a
    conjugation by the smallest anticommuting Pauli on qubit 0.
    """
    if axis_a not in "XYZ" or axis_b not in "XYZ":
        raise InvalidTerm(f"invalid target axes ({axis_a}, {axis_b})")
    if sign == 0:
        raise InvalidTerm("target sign must be nonzero")
    base = synth_max_term(drift)
    (p,) = base.target.terms
    r, s = p.ops
    base_sign = base.target.coefficient(p)  # exactly +-1.0
    outer_a = AXIS_ROTATION[(r, axis_a)]
    outer_b = AXIS_ROTATION[(s, axis_b)]
    if (sign < 0) != (base_sign < 0):
        outer_a = sign_flip_clifford(axis_a).compose(outer_a)

    outer = (outer_a, outer_b)
    frames = tuple(
        FramedDrift(f.rate, tuple((q, outer[q].compose(c)) for q, c in f.frame))
        for f in base.frames
    )
    correction = conjugate_by_cliffords(
        base.local_correction, {0: outer_a, 1: outer_b}
    )
    sgn = 1.0 if sign > 0 else -1.0
    target = HamExpansion(2, {PauliString(axis_a + axis_b): sgn})
    recipe = TermRecipe(
        target=target,
        frames=frames,
        local_correction=correction,
        phase_correction=base.phase_correction,
        divisor=base.divisor,
    )
    _verify_recipe(drift, recipe)
    return recipe


@dataclass(frozen=True)
class TargetDecomposition:
    """A two-qubit target split into coupling, local, and identity parts."""

    couplings: tuple[tuple[float, str, str], ...]  # (coeff, axis_a, axis_b)
    locals_: tuple[tuple[int, str, float], ...]  # (site, axis, coeff)
    identity: float

    def reassemble(self) -> HamExpansion:
        entries: list[tuple[PauliString, float]] = []
        for coeff, a, b in self.couplings:
            entries.append((PauliString(a + b), coeff))
        for site, axis, coeff in self.locals_:
            entries.append((PauliString.single(2, site, axis), coeff))
        if self.identity:
            entries.append((PauliString.identity(2), self.identity))
        return build_expansion(2, entries)


def decompose_target(target: HamExpansion) -> TargetDecomposition:
    """Split a two-qubit expansion; couplings sorted by |coeff| descending.

    Magnitude ties break toward the lexicographically smaller axis pair,
    so the compilation order is deterministic.
    """
    if target.n != 2:
        raise InvalidTerm("target must act on two qubits")
    couplings: list[tuple[float, str, str]] = []
    locs: list[tuple[int, str, float]] = []
    ident = 0.0
    for p, c in target.items():
        w = p.weight()
        if w == 2:
            couplings.append((c, p.ops[0], p.ops[1]))
        elif w == 1:
            (site,) = p.support()
            locs.append((site, p.ops[site], c))
        else:
            ident = c
    couplings.sort(key=lambda t: (-abs(t[0]), t[1], t[2]))
    locs.sort()
    return TargetDecomposition(tuple(couplings), tuple(locs), ident)


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

    def factor_expansions(self) -> list[HamExpansion]:
        out = []
        for f in self.factors:
            out.append(f.ham if isinstance(f, LocalFactor) else f.effective(self.drift))
        return out

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


def step_model(drift: HamExpansion, target: HamExpansion) -> StepModel:
    """Factor a two-qubit target into exact locals plus framed drifts.

    The fixed order is: one exact local factor (the target's own local
    terms plus every recipe's local correction), then the coupling terms
    by decreasing magnitude, each as its four recipe frames.
    """
    if drift.n != 2 or target.n != 2:
        raise InvalidTerm("pair compilation expects two-qubit expansions")

    lam = _proportional_rate(target, drift)
    if lam is not None:
        return StepModel(2, drift, (FramedDrift(lam, ()),), 0.0)

    decomp = decompose_target(target)
    local_acc: dict[PauliString, float] = {}
    for site, axis, coeff in decomp.locals_:
        p = PauliString.single(2, site, axis)
        local_acc[p] = local_acc.get(p, 0.0) + coeff
    phase_rate = decomp.identity

    drifts: list[FramedDrift] = []
    for coeff, axis_a, axis_b in decomp.couplings:
        recipe = synth_pauli_product(drift, axis_a, axis_b, math.copysign(1.0, coeff))
        mag = abs(coeff)
        for frame in recipe.frames:
            drifts.append(FramedDrift(mag / recipe.divisor, frame.frame))
        for p, c in recipe.local_correction.items():
            local_acc[p] = local_acc.get(p, 0.0) + mag * c
        phase_rate += mag * recipe.phase_correction

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
    last at ``delta``, then the reflection.
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
        layers = factor.layer_map()
        if layers:
            fwd = LocalLayer({q: c.matrix for q, c in layers.items()})
            out.append(fwd)
            out.append(Drift(factor.rate * duration))
            out.append(fwd.dagger())
        else:
            out.append(Drift(factor.rate * duration))
    return out, -model.phase_rate * delta


def _make_measure(
    model: StepModel,
    target: HamExpansion,
    t: float,
    order: int,
    dense_cap: int | None,
) -> Callable[[int], float]:
    goal = expm_hermitian(dense_of_expansion(target), t)

    def measure(n_steps: int) -> float:
        instructions, phase = emit_step(model, t / n_steps, order)
        frag = Schedule(model.n, tuple(instructions), phase)
        w = evaluate_schedule(frag, model.drift, dense_cap=dense_cap)
        return distance(goal, np.linalg.matrix_power(w, n_steps), phase_align=True)

    return measure


def plan_for_model(
    model: StepModel,
    target: HamExpansion,
    t: float,
    epsilon: float,
    order: int,
    bound: str,
    dense_cap: int | None = None,
    *,
    C: float = _bounds.GLOBAL_BOUND_C,
) -> _bounds.ErrorPlan:
    """Step plan for a prepared model under the requested bound kind.

    ``target`` is the evolution the model approximates, on the model's
    register; ``C`` is the constant of the coarse global bound.
    """
    if bound == "chained":
        rate = _bounds.chained_rate(
            model.factor_expansions(), order, dense_cap=dense_cap
        )
        return _bounds.plan_steps("chained", epsilon, t, order=order, rate=rate)
    if bound == "global":
        if order != 1:
            raise InvalidStep("the coarse global bound only covers order 1")
        return _bounds.plan_steps(
            "global", epsilon, t, C=C, D=_bounds.coupling_ratio(model.drift, target)
        )
    if bound in ("first_order_cnot", "second_order_cnot"):
        return _bounds.plan_steps(bound, epsilon, t)
    if bound == "empirical":
        return _bounds.plan_steps(
            "empirical",
            epsilon,
            t,
            order=order,
            measure=_make_measure(model, target, t, order, dense_cap),
        )
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
    dense_cap: int | None,
) -> Schedule:
    """Schedule approximating ``exp(-i target t)`` by repeating one step.

    ``target`` is the evolution ``model`` was built for, on its register.
    Exactly one of ``steps`` and ``epsilon`` selects the step count; with
    ``epsilon`` the plan comes from the requested bound kind and is
    attached to the returned schedule.
    """
    if not t > 0:
        raise InvalidStep(f"total time must be positive, got {t}")
    if (steps is None) == (epsilon is None):
        raise InvalidStep("pass exactly one of steps and epsilon")
    plan = None
    if epsilon is not None:
        plan = plan_for_model(model, target, t, epsilon, order, bound, dense_cap)
        steps = plan.steps
    if steps < 1:
        raise InvalidStep("step count must be at least 1")
    instructions, phase = emit_step(model, t / steps, order)
    return canonicalize(
        Schedule(
            model.n,
            tuple(instructions) * steps,
            phase * steps,
            raw_drift_periods=model.raw_drifts_per_step(order) * steps,
            plan=plan,
            predicted_error=None if plan is None else plan.predicted_error,
        )
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
    dense_cap: int | None = None,
) -> Schedule:
    """Full schedule approximating ``exp(-i target t)`` on two qubits.

    Exactly one of ``steps`` and ``epsilon`` selects the step count; with
    ``epsilon`` the plan comes from the requested bound kind and is
    attached to the returned schedule.
    """
    return _repeat_steps(
        step_model(drift, target),
        target,
        t,
        steps=steps,
        epsilon=epsilon,
        order=order,
        bound=bound,
        dense_cap=dense_cap,
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
    dense_cap: int | None = None,
    self_check: bool = True,
) -> Schedule:
    """Schedule realizing a CNOT (control qubit 0) from the drift.

    The coupling part ``-Z (x) X`` is compiled for time pi/4 and
    sandwiched between the exact local rotations that supply the
    remaining commuting generator terms; the global phase is tracked so
    the result approximates the CNOT matrix itself, not just its ray.
    """
    body = compile_schedule(
        drift,
        CNOT_BODY,
        CNOT_TIME,
        steps=steps,
        epsilon=epsilon,
        order=order,
        bound=cnot_bound(order),
        dense_cap=dense_cap,
    )
    lead = LocalLayer({0: expm_hermitian(PAULI_MATS["Z"], CNOT_TIME)})
    trail = LocalLayer({1: expm_hermitian(PAULI_MATS["X"], CNOT_TIME)})
    sched = canonicalize(
        Schedule(
            2,
            (lead,) + body.instructions + (trail,),
            body.phase + CNOT_TIME,
            raw_drift_periods=body.raw_drift_periods,
            plan=body.plan,
            predicted_error=body.predicted_error,
        )
    )
    if self_check and sched.plan is not None:
        achieved = distance(
            CNOT_MATRIX,
            evaluate_schedule(sched, drift, dense_cap=dense_cap),
            phase_align=True,
        )
        if achieved > sched.plan.predicted_error:
            raise VerificationFailure(
                f"CNOT error {achieved:.3e} exceeds plan "
                f"{sched.plan.predicted_error:.3e}"
            )
    return sched

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
c and h_rs differ, and runs them at rate |c| / (4|h_rs|).  The model
is built first and then checked: the images of the drift under each
coupling's frames come from the model's own table
(``cliffords.framed_images``, ``StepModel.images``), which the merge and
the chained bound read too.

Every compile runs a ``Program``: exact local layers and product-formula
``Segment``s, which ``plan_program`` plans and ``compile_program`` emits
as one schedule, canonicalized once.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bounds as _bounds
from .cliffords import (
    AXIS_ROTATION,
    PAULI_CLIFF,
    LocalClifford,
    framed_images,
    sign_flip_clifford,
)
from .dense import PAULI_MATS, distance, evolution, expm_hermitian
from .errors import HamrcError, Infeasible, InvalidStep, InvalidTerm, VerificationFailure
from .pauli import HamExpansion, PauliString, build_expansion, embed, max_coupling, unpack_masks
from .schedule import (
    Drift,
    Instruction,
    LocalLayer,
    Schedule,
    _drift_eigh,
    _evaluate,
    canonicalize,
    evaluate_schedule,
)

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

    Plain data: the frame's layers are built by the model that runs the
    drift (``StepModel.frame_layers``).  An empty frame realizes the bare
    drift (used when the target is a positive multiple of the drift,
    which needs no splitting at all).
    """

    rate: float
    frame: tuple[tuple[int, LocalClifford], ...]  # sorted by site


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
        return LocalLayer.from_stack(
            list(per_site), [expm_hermitian(m, duration) for m in per_site.values()]
        )


StepFactor = LocalFactor | FramedDrift


@dataclass(frozen=True)
class StepModel:
    """Ordered factor list approximating ``exp(-i K delta)`` per step.

    The builders give each coupling its four framed drifts (and each frame
    that isolates a pair its copy of them); ``compile_model`` then runs
    the framed drifts that are one operator as one factor
    (``merge_framed_drifts``), and every compile plans, emits and counts
    that merged model.  The model builds, once, the layers its steps are
    emitted with: each framed drift's frame layer and its inverse
    (``frame_layers``).
    """

    n: int
    drift: HamExpansion
    factors: tuple[StepFactor, ...]
    phase_rate: float

    @functools.cached_property
    def frame_layers(self) -> tuple[tuple[LocalLayer, LocalLayer] | None, ...]:
        """Each factor's frame layer and its inverse, or ``None`` for a local
        factor or a bare drift.

        This is the one builder of frame layers: the first read, the first
        time ``emit_step`` sees the model, builds the layers of every framed
        drift in factor order in one batch and their daggers in another, so
        every step of the model shares them.  Bodies are interned by value,
        so the sharing saves building and hashing a layer per step; it does
        not change a schedule.
        """
        framed = [isinstance(f, FramedDrift) and bool(f.frame) for f in self.factors]
        built = LocalLayer.from_stacks(
            ([q for q, _ in f.frame], [c.matrix for _, c in f.frame])
            for f, fr in zip(self.factors, framed) if fr
        )
        layers = iter(zip(built, LocalLayer.daggers(built)))
        return tuple(next(layers) if fr else None for fr in framed)

    def runs(self, order: int) -> tuple[int, ...]:
        """The factors one step of ``order`` runs, in operator order: at
        order 1 each once, at order 2 the symmetric palindrome, every
        factor but the last, the last, then the head again in reverse.
        Each factor runs for the step duration in all, split evenly over
        its runs.
        """
        last = len(self.factors) - 1
        if order == 1 or last < 1:
            return tuple(range(last + 1))
        return (*range(last + 1), *reversed(range(last)))

    @functools.cached_property
    def images(self) -> tuple[np.ndarray, ...]:
        """``(index, x, z, ny, sign)``, built once: where the framed drifts
        sit among the factors, and ``cliffords.framed_images`` of their
        frames, what each does to each drift term.  ``step_model`` checks
        its reassembly on it, ``merge_framed_drifts`` groups by it, and the
        chained bound scatters its coefficient table from it.  The arrays
        are read-only."""
        framed = [i for i, f in enumerate(self.factors) if isinstance(f, FramedDrift)]
        index = np.array(framed, dtype=np.intp)
        index.flags.writeable = False
        return (index, *framed_images(self.drift, [self.factors[i].frame for i in framed]))

    def raw_drifts_per_step(self, order: int) -> int:
        return sum(isinstance(self.factors[k], FramedDrift) for k in self.runs(order))


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


#: the two-qubit strings, by ``4 x + z`` of their packed masks
_PAIR_STRINGS = unpack_masks(2, np.arange(16) >> 2, np.arange(16) & 3)


def _reassembly(
    model: StepModel, norm: float, phase: float, corrections: list[dict[PauliString, float]]
) -> list[dict[PauliString, float]]:
    """What each coupling's frames rebuild: its nonzero coefficients.

    ``corrections`` holds each coupling's conjugated correction, in the
    order the model runs their four framed drifts each.  A coupling's
    images of the drift (its rows of ``model.images``) are summed frame by
    frame, each term divided by ``norm`` first, so a drift near the float
    maximum does not overflow in the sum; the rebuilt target is their
    mean, plus the correction, plus ``phase`` times identity.
    """
    _, x, z, _, sign = model.images
    coeffs = np.array([c for _, c in model.drift.items()])
    slots = np.arange(len(x))[:, None] // 4 * 16 + (x << 2 | z)
    terms = (sign * coeffs / norm).ravel()
    sums = np.bincount(slots.ravel(), terms, minlength=16 * len(corrections))
    ident = PauliString.identity(2)
    out = []
    for row, correction in zip(sums.reshape(-1, 16) / 4, corrections):
        rebuilt = dict(zip(_PAIR_STRINGS, row.tolist()))
        for p, c in correction.items():
            rebuilt[p] += c
        rebuilt[ident] += phase
        out.append({p: c for p, c in rebuilt.items() if c})
    return out


def step_model(drift: HamExpansion, target: HamExpansion) -> StepModel:
    """Factor a two-qubit target into exact locals plus framed drifts.

    The fixed order is: one exact local factor (the target's own local
    terms plus every coupling's local correction), then the coupling
    terms by decreasing magnitude, ties to the smaller axis pair, each as
    its four framed drifts.  Every coupling's frames are checked to
    reassemble it exactly, on the model's own ``images``; ``max_coupling``
    is only asked for when the target has a coupling, so a locals-only
    target needs no coupled drift.
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
    corrections: list[dict[PauliString, float]] = []
    units: list[HamExpansion] = []
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
            outer = (outer_a, outer_b)
            conj = {}
            for q, c in correction.items():
                (site,) = q.support()
                flip, axis = outer[site].image(q.ops[site])
                conj[PauliString.single(2, site, axis)] = flip * c
            corrections.append(conj)
            units.append(HamExpansion(2, {p: math.copysign(1.0, coeff)}))
            drifts.extend(frames)
            for q, c in conj.items():
                local_acc[q] = local_acc.get(q, 0.0) + mag * c
            phase_rate += mag * phase

    factors: list[StepFactor] = []
    local_ham = HamExpansion(2, local_acc)
    if len(local_ham):
        factors.append(LocalFactor(local_ham))
    factors.extend(drifts)
    model = StepModel(2, drift, tuple(factors), phase_rate)
    if couplings:
        rebuilt = _reassembly(model, norm, phase, corrections)
        if any(HamExpansion(2, got) != unit for got, unit in zip(rebuilt, units)):
            raise HamrcError("recipe reassembly does not reproduce the target exactly")
    return model


def merge_framed_drifts(model: StepModel) -> StepModel:
    """``model`` with the framed drifts that are one operator run as one.

    Framed drifts whose frames send every drift term to the same image
    with the same sign (equal rows of ``StepModel.images``) are one
    operator ``C H C^dag`` at different rates.  Each such set becomes one
    framed drift at the summed rate, with the frame of, and in the place
    of, its first member; the other factors keep their order.  The sum of
    the factors is unchanged, so the product formula over them stays a
    product formula for the same target, with fewer drift periods and
    pulses per step.  A model with nothing to merge is returned as it is.

    The key compares drift terms one by one, so frames that permute terms
    of equal coefficient (``S (x) S`` on ``XX + YY``) stay apart.
    """
    index, x, z, ny, sign = model.images
    # whole rows, not packed integers: a packed key wraps from 32 sites up
    keys = np.hstack((x, z, sign))
    groups: dict[bytes, list[int]] = {}
    for row, key in enumerate(keys):
        groups.setdefault(key.tobytes(), []).append(row)
    if len(groups) == len(index):
        return model
    lead = {rows[0]: rows for rows in groups.values()}
    row_of = dict(zip(index.tolist(), range(len(index))))
    factors: list[StepFactor] = []
    for i, f in enumerate(model.factors):
        row = row_of.get(i)
        if row is None:
            factors.append(f)
        elif row in lead:
            rows = lead[row]
            if len(rows) > 1:
                f = FramedDrift(math.fsum(model.factors[index[r]].rate for r in rows), f.frame)
            factors.append(f)
    return replace(model, factors=tuple(factors))


def emit_step(
    model: StepModel, delta: float, order: int
) -> tuple[list[Instruction], float]:
    """Instruction list for one step plus its global-phase contribution.

    The factors run in ``StepModel.runs`` order, each for ``delta``
    split evenly over its runs: order 1 runs every factor once for
    ``delta``, and order 2's palindrome all but the last factor at
    ``delta/2``, the last at ``delta``, then the reflection, which repeats
    the head's instruction objects (a local factor's layer is built once
    per step).

    A framed drift runs between its frame layer and that layer's inverse
    (``StepModel.frame_layers``, shared by every step), and a seam where
    two layers meet is left to ``canonicalize``, the one place seams merge.
    """
    if order not in (1, 2):
        raise InvalidStep(f"order must be 1 or 2, got {order}")
    if not delta > 0:
        raise InvalidStep(f"step duration must be positive, got {delta}")

    shares = Counter(model.runs(order))
    runs = []
    for k, (f, frame) in enumerate(zip(model.factors, model.frame_layers)):
        d = delta / shares[k]
        if isinstance(f, LocalFactor):
            runs.append([f.layer(d)])
        elif frame is None:
            runs.append([Drift(f.rate * d)])
        else:
            runs.append([frame[0], Drift(f.rate * d), frame[1]])
    return [ins for k in model.runs(order) for ins in runs[k]], -model.phase_rate * delta


def _make_measure(
    model: StepModel, target: HamExpansion, t: float, order: int
) -> Callable[[int], float]:
    """The measured error of ``model`` at a step count, for the empirical
    plan.  The goal and the drift's eigendecomposition are built once, for
    every call of the returned closure.

    Each call measures the schedule ``compile_program`` writes for a
    program of this one segment: the step repeated ``n_steps`` times
    (``_repeat_steps``), canonicalized, so a plan's prediction is what
    ``verify`` measures on the written file.
    """
    goal = evolution(target, t)
    evals, vecs = _drift_eigh(model.drift)

    def measure(n_steps: int) -> float:
        block, phase, _ = _repeat_steps(model, t, n_steps, order)
        w = _evaluate(canonicalize(Schedule(model.n, [block], phase)), evals, vecs)
        return distance(goal, w, phase_align=True)

    return measure


#: drift-blind CNOT plans: bound kind -> (order, rate)
_CNOT_RATES = {"first_order_cnot": (1, 8.0), "second_order_cnot": (2, 0.5)}


def plan_for_model(
    model: StepModel, target: HamExpansion, t: float, epsilon: float, order: int, bound: str
) -> _bounds.ErrorPlan:
    """Step plan for a prepared model under the requested bound kind.

    ``target`` is the evolution the model approximates, on the model's
    register.  Every analytic kind is ``plan_steps`` at its own rate:
    ``chained_bounds`` of the model, from dense norms on each split's sites
    where they fit the dense cap and coefficient 1-norms where they do
    not, with the leading-error bound beside the rate at order 1, and a
    fixed order and rate for each CNOT kind, which refuses any other
    order.  This is the one place a plan is chosen by bound kind.
    """
    if bound == "chained":
        rate, leading = _bounds.chained_bounds(model, order)
        return _bounds.plan_steps(bound, epsilon, t, order=order, rate=rate, leading=leading)
    if bound in _CNOT_RATES:
        kind_order, rate = _CNOT_RATES[bound]
        if order != kind_order:
            raise InvalidTerm(f"the {bound} bound only covers order {kind_order}")
        return _bounds.plan_steps(bound, epsilon, t, order=order, rate=rate)
    if bound == "empirical":
        measure = _make_measure(model, target, t, order)
        return _bounds.plan_empirical(measure, epsilon, t, order=order)
    raise InvalidStep(f"unknown bound kind {bound!r}")


def compile_model(
    drift: HamExpansion, target: HamExpansion, pair: tuple[int, int] | None = None
) -> StepModel:
    """The step model a compile plans and emits for ``target``:
    ``step_model``'s on the drift's two qubits, or with ``pair``
    ``decouple.pair_step_model``'s on those register sites, its framed
    drifts that are one operator run as one (``merge_framed_drifts``).
    """
    if pair is None:
        return merge_framed_drifts(step_model(drift, target))
    from .decouple import pair_step_model  # decouple builds on this module

    return merge_framed_drifts(pair_step_model(drift, pair, target))


@dataclass(frozen=True, eq=False)
class Segment:
    """A product-formula segment: ``exp(-i target t)`` on ``compile_model``'s
    model of ``target`` and ``pair``.  A program that lists one segment
    twice, as a route lists its swaps, plans and emits it once."""

    target: HamExpansion
    t: float
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        if not self.t > 0:
            raise InvalidStep(f"total time must be positive, got {self.t}")


@dataclass(frozen=True, eq=False)
class Program:
    """Exact local layers and product segments in operator order, a
    ``phase`` added to theirs (the default ``-0.0`` keeps the sign of a
    zero phase) and the ``goal`` a planned compile checks itself against."""

    segments: tuple[LocalLayer | Segment, ...]
    phase: float = -0.0
    goal: np.ndarray | None = None

    @property
    def products(self) -> list[Segment]:
        return [s for s in self.segments if isinstance(s, Segment)]


def plan_program(
    drift: HamExpansion, program: Program, epsilon: float, order: int, bound: str | None = None
) -> dict[Segment, tuple[StepModel, _bounds.ErrorPlan]]:
    """Each distinct product segment's model and plan, the budget split
    evenly over the product segments, repeats included.  ``bound``
    defaults to ``chained`` for one product segment, ``empirical`` for more."""
    products = program.products
    share = epsilon / len(products)
    bound = bound or ("chained" if len(products) == 1 else "empirical")
    plans = {}
    for seg in products:
        if seg not in plans:
            model = compile_model(drift, seg.target, seg.pair)
            target = seg.target if seg.pair is None else embed(seg.target, drift.n, seg.pair)
            plans[seg] = model, plan_for_model(model, target, seg.t, share, order, bound)
    return plans


def _repeat_steps(model: StepModel, t: float, steps: int, order: int) -> tuple:
    """A product segment's block, its step for ``t / steps`` repeated
    ``steps`` times, with the block's phase and raw drift periods."""
    if steps < 1:
        raise InvalidStep("step count must be at least 1")
    if steps > _bounds.MAX_PLAN_STEPS:
        raise Infeasible(f"{steps} steps is more than {_bounds.MAX_PLAN_STEPS}")
    instructions, phase = emit_step(model, t / steps, order)
    return (instructions, steps), phase * steps, model.raw_drifts_per_step(order) * steps


def compile_program(
    drift: HamExpansion, program: Program, *, steps: int | None = None,
    epsilon: float | None = None, order: int = 1, bound: str | None = None,
) -> Schedule:
    """The schedule of ``program``, each segment one block, canonicalized once.

    ``epsilon`` plans every product segment (``plan_program``); ``steps``
    serves a program of one product segment only.  Phases, raw drift
    periods and predicted errors are summed in program order, and the plan
    is attached when there is one product segment.  A planned program is
    refused when it misses its own prediction on its ``goal``.
    """
    products = program.products
    if (steps is None) == (epsilon is None):
        raise InvalidStep("pass exactly one of steps and epsilon")
    if epsilon is not None:
        plans = plan_program(drift, program, epsilon, order, bound)
    elif len(products) == 1:
        plans = {seg: (compile_model(drift, seg.target, seg.pair), None) for seg in products}
    else:
        raise InvalidStep(f"{len(products)} product segments need epsilon, not steps")
    emitted = {
        seg: _repeat_steps(model, seg.t, steps if plan is None else plan.steps, order)
        for seg, (model, plan) in plans.items()
    }
    blocks, phase, raw = [], -0.0, 0
    for seg in program.segments:
        block, seg_phase, seg_raw = emitted.get(seg) or (((seg,), 1), -0.0, 0)
        blocks.append(block)
        phase += seg_phase
        raw += seg_raw
    plan = plans[products[0]][1] if len(products) == 1 else None
    predicted = None if epsilon is None else sum(plans[seg][1].predicted_error for seg in products)
    sched = canonicalize(Schedule(
        drift.n, blocks, phase + program.phase,
        raw_drift_periods=raw, plan=plan, predicted_error=predicted,
    ))
    if program.goal is not None and predicted is not None:
        achieved = distance(program.goal, evaluate_schedule(sched, drift), phase_align=True)
        if not achieved <= predicted + _bounds.ROUNDING:
            raise VerificationFailure(f"error {achieved:.3e} on the goal exceeds plan {predicted:.3e}")
    return sched


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
    """Full schedule approximating ``exp(-i target t)`` on two qubits: the
    program of one segment, planned by ``bound`` when given ``epsilon``."""
    return compile_program(
        drift, Program((Segment(target, t),)),
        steps=steps, epsilon=epsilon, order=order, bound=bound,
    )


def cnot_bound(order: int) -> str:
    """Bound kind that plans the CNOT body at the given order."""
    return "first_order_cnot" if order == 1 else "second_order_cnot"


#: a CNOT (control qubit 0): ``CNOT_BODY`` between the exact local rotations
#: that supply the rest of its generator ``IX + ZI - ZX``, phase included
CNOT_PROGRAM = Program(
    (
        LocalLayer.from_stack([0], [expm_hermitian(PAULI_MATS["Z"], CNOT_TIME)]),
        Segment(CNOT_BODY, CNOT_TIME),
        LocalLayer.from_stack([1], [expm_hermitian(PAULI_MATS["X"], CNOT_TIME)]),
    ),
    phase=CNOT_TIME,
    goal=CNOT_MATRIX,
)


def compile_cnot(
    drift: HamExpansion,
    *,
    steps: int | None = None,
    epsilon: float | None = None,
    order: int = 2,
) -> Schedule:
    """Schedule realizing a CNOT from the drift: ``CNOT_PROGRAM``, its body
    planned by ``cnot_bound(order)`` and self-checked against the CNOT."""
    return compile_program(
        drift, CNOT_PROGRAM, steps=steps, epsilon=epsilon, order=order, bound=cnot_bound(order)
    )

"""Command-line front end.

Four subcommands: ``check`` validates a drift Hamiltonian and reports
whether it can entangle the whole register, ``compile`` turns a target
into a pulse schedule, ``verify`` measures a schedule against its
target, and ``bound`` prints a step plan without compiling anything; an
analytic plan reports the ``rate`` of its bound ``N * rate * (t/N)^(order+1)``,
and an order-1 ``chained`` plan also the ``a`` and ``b`` of its
leading-error bound ``N (a d^2 + b d^3)`` and which of the two set its
step count.

Exit codes: 0 success, 2 malformed input, 3 structurally impossible
(not entangling, pair not coupled, no route), 4 infeasible or register
too large for dense work, 5 verification failure.  The dense cap is set
only by the ``HAMRC_DENSE_CAP`` environment variable, read when a command
may build a dense matrix; a malformed value exits 2.
All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import routing as _routing
from . import synth as _synth
from .bounds import ROUNDING
from .dense import distance, evolution
from .errors import (
    DimMismatch,
    HamrcError,
    Infeasible,
    InvalidStep,
    InvalidTerm,
    NotConnected,
    NotCoupled,
    NotHermitian,
    NotTwoBody,
    ParseError,
    TooLarge,
    VerificationFailure,
)
from .hamio import _fmt, format_report, parse_hamfile, parse_schedule, serialize_schedule
from .pauli import HamExpansion, embed, is_entangling
from .schedule import Schedule, evaluate_schedule

_EXIT_CODES = (
    (VerificationFailure, 5),
    ((Infeasible, TooLarge), 4),
    ((NotConnected, NotCoupled), 3),
    ((ParseError, NotTwoBody, NotHermitian, InvalidTerm, InvalidStep, DimMismatch), 2),
    (HamrcError, 1),
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def _finite(text: str) -> float:
    """argparse type for real-valued options: ``nan`` and ``inf`` are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for ``--tolerance``: finite and not below zero."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {text!r}")
    return value


def _resolve_order(args) -> int:
    if args.order is not None:
        return args.order
    return 2 if getattr(args, "gate", None) else 1


def _schedule_stats(sched: Schedule) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("qubits", sched.n),
        ("instructions", len(sched)),
        ("drift_periods", sched.drift_count()),
    ]
    if sched.raw_drift_periods is not None:
        items.append(("raw_drift_periods", sched.raw_drift_periods))
    items.append(("total_drift_time", sched.total_drift_time()))
    items.append(("phase", sched.phase))
    if sched.plan is not None:
        plan = sched.plan
        items += [
            ("bound", plan.bound),
            ("order", plan.order),
            ("steps", plan.steps),
            ("delta", plan.delta),
        ]
    if sched.predicted_error is not None:
        items.append(("predicted_error", sched.predicted_error))
    return items


# ----------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    ham = parse_hamfile(_read(args.hamfile))
    verdict = is_entangling(ham)
    edges = " ".join(f"{k}:{l}" for k, l in verdict.graph.edge_pairs()) or "none"
    comps = "|".join(",".join(str(q) for q in grp) for grp in verdict.components)
    report = format_report(
        [
            ("command", "check"),
            ("qubits", ham.n),
            ("terms", len(ham)),
            ("edges", edges),
            ("entangling", verdict.entangling),
            ("components", comps),
        ]
    )
    _emit(report, args.report)
    return 0 if verdict else 3


def _target(args, drift: HamExpansion) -> tuple[HamExpansion, HamExpansion]:
    """``--target`` as written, and the same target on the drift's register."""
    target = parse_hamfile(_read(args.target))
    full = target
    if args.pair is not None:
        if target.n != 2:
            raise InvalidTerm("a pair target must be a two-qubit expansion")
        full = embed(target, drift.n, tuple(args.pair))
    if full.n != drift.n:
        raise DimMismatch(f"target on {full.n} qubits, drift on {drift.n}")
    return target, full


def _program(args, drift: HamExpansion) -> tuple[_synth.Program, str | None]:
    """The program ``compile`` and ``bound`` run for ``args``, and the bound
    kind that plans it (``None``: the program's default)."""
    if args.gate:
        return _synth.CNOT_PROGRAM, _synth.cnot_bound(_resolve_order(args))
    target, _ = _target(args, drift)
    if args.pair is None:
        return _synth.Program((_synth.Segment(target, args.t),)), args.bound
    return _routing.routed_program(drift, *args.pair, target, args.t), args.bound


def _cmd_compile(args) -> int:
    drift = parse_hamfile(_read(args.hamfile))
    program, bound = _program(args, drift)
    sched = _synth.compile_program(
        drift, program,
        steps=args.steps, epsilon=args.epsilon, order=_resolve_order(args), bound=bound,
    )

    text = serialize_schedule(sched)
    report = format_report([("command", "compile")] + _schedule_stats(sched))
    if args.out is not None:
        _emit(text, args.out)
    sys.stdout.write(text if args.out is None else report)
    if args.report is not None:
        _emit(report, args.report)
    return 0


def _goal_matrix(args, drift: HamExpansion):
    if args.gate:
        if drift.n != 2:
            raise InvalidTerm("the built-in gate target lives on two qubits")
        return _synth.CNOT_MATRIX
    _, target = _target(args, drift)
    return evolution(target, args.t)


def _cmd_verify(args) -> int:
    drift = parse_hamfile(_read(args.hamfile))
    sched = parse_schedule(_read(args.schedule))
    goal = _goal_matrix(args, drift)
    w = evaluate_schedule(sched, drift)
    err = distance(goal, w, phase_align=not args.strict)

    tolerance = args.tolerance
    if tolerance is None:
        if sched.predicted_error is None:
            raise InvalidStep("schedule carries no error budget; pass --tolerance")
        tolerance = sched.predicted_error + ROUNDING
    ok = err <= tolerance
    report = format_report(
        [
            ("command", "verify"),
            ("qubits", sched.n),
            ("measured_error", err),
            ("tolerance", float(tolerance)),
            ("phase_aligned", not args.strict),
            ("pass", ok),
        ]
    )
    _emit(report, args.report)
    if not ok:
        raise VerificationFailure(
            f"measured error {err:.3e} exceeds tolerance {tolerance:.3e}"
        )
    return 0


def _plan_line(plan) -> str:
    """One segment's plan on one line: its bound kind, steps, predicted
    error and, for an order-1 ``chained`` plan, the bound that set the count."""
    line = f"{plan.bound} steps {plan.steps} predicted_error {_fmt(plan.predicted_error)}"
    return line if plan.set_by is None else f"{line} set_by {plan.set_by}"


def _cmd_bound(args) -> int:
    """Plan the program ``compile`` runs for the same input; several product
    segments report their summed ``predicted_error``, their count and one
    line each, in program order."""
    drift = parse_hamfile(_read(args.hamfile))
    order = _resolve_order(args)
    program, bound = _program(args, drift)
    plans = _synth.plan_program(drift, program, args.epsilon, order, bound)
    planned = [plans[seg][1] for seg in program.products]
    if len(planned) > 1:
        items: list[tuple[str, object]] = [
            ("command", "bound"), ("order", order), ("epsilon", args.epsilon),
            ("predicted_error", sum(plan.predicted_error for plan in planned)),
            ("segments", len(planned)),
        ]
        items += [(f"segment_{k}", _plan_line(plan)) for k, plan in enumerate(planned, 1)]
    else:
        (plan,) = planned
        items = [
            ("command", "bound"), ("bound", plan.bound), ("order", plan.order),
            ("analytic", plan.analytic), ("steps", plan.steps), ("delta", plan.delta),
            ("t", plan.t), ("epsilon", args.epsilon), ("predicted_error", plan.predicted_error),
        ]
        if plan.rate is not None:
            items.append(("rate", plan.rate))
        if plan.leading is not None:
            items += [("a", plan.leading[0]), ("b", plan.leading[1]), ("set_by", plan.set_by)]
    _emit(format_report(items), args.report)
    return 0


# ----------------------------------------------------------------------
# argument plumbing


def _add_target_opts(
    sub: argparse.ArgumentParser, *, with_steps: bool, with_order: bool = True
) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--gate", choices=["cnot"], help="built-in gate target")
    group.add_argument("--target", metavar="HAMFILE",
                       help="target interaction as a Hamiltonian file")
    sub.add_argument("--t", type=_finite, default=None,
                     help="evolution time for --target")
    sub.add_argument("--pair", type=int, nargs=2, metavar=("K", "L"),
                     help="register sites the two-qubit target acts on")
    if with_order:
        sub.add_argument("--order", type=int, choices=[1, 2], default=None,
                         help="product-formula order (default: 2 for --gate, else 1)")
    if with_steps:
        count = sub.add_mutually_exclusive_group(required=True)
        count.add_argument("--epsilon", type=_finite, help="error budget")
        count.add_argument("--steps", type=int, help="explicit step count")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="hamrc",
        description="compile two-qubit interactions out of a fixed drift "
        "Hamiltonian and local control",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p_check = subs.add_parser("check", help="validate a drift Hamiltonian")
    p_check.add_argument("hamfile")
    p_check.add_argument("--report", default=None, help="write the report here")
    p_check.set_defaults(fn=_cmd_check)

    p_comp = subs.add_parser("compile", help="compile a schedule")
    p_comp.add_argument("hamfile")
    _add_target_opts(p_comp, with_steps=True)
    p_comp.add_argument("--bound", default=None,
                        choices=["chained", "empirical"],
                        help="bound kind used to plan steps from --epsilon "
                        "(default: chained, or empirical when routing; "
                        "refused with --gate and with --steps)")
    p_comp.add_argument("--out", default=None, help="write the schedule here")
    p_comp.add_argument("--report", default=None, help="write a report here")
    p_comp.set_defaults(fn=_cmd_compile)

    p_ver = subs.add_parser("verify", help="measure a schedule against a target")
    p_ver.add_argument("hamfile")
    p_ver.add_argument("schedule")
    _add_target_opts(p_ver, with_steps=False, with_order=False)
    p_ver.add_argument("--tolerance", type=_tolerance, default=None,
                       help="acceptance threshold (default: the schedule's "
                       "budget plus a 1e-12 rounding allowance)")
    p_ver.add_argument("--strict", action="store_true",
                       help="compare without aligning the global phase")
    p_ver.add_argument("--report", default=None, help="write the report here")
    p_ver.set_defaults(fn=_cmd_verify)

    p_bnd = subs.add_parser("bound", help="plan a step count without compiling")
    p_bnd.add_argument("hamfile")
    _add_target_opts(p_bnd, with_steps=False)
    p_bnd.add_argument("--epsilon", type=_finite, required=True, help="error budget")
    p_bnd.add_argument("--bound", default=None,
                       choices=["chained", "empirical"],
                       help="bound kind (default: chained, or empirical when routing; "
                       "refused with --gate)")
    p_bnd.add_argument("--report", default=None, help="write the report here")
    p_bnd.set_defaults(fn=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "target", None) is not None and getattr(args, "t", None) is None:
        print("error: --target needs --t", file=sys.stderr)
        return 2
    if getattr(args, "gate", None) and getattr(args, "t", None) is not None:
        print("error: --gate fixes its own duration; drop --t", file=sys.stderr)
        return 2
    if getattr(args, "gate", None) and getattr(args, "pair", None) is not None:
        print("error: --gate acts on a two-qubit drift; drop --pair", file=sys.stderr)
        return 2
    if getattr(args, "gate", None) and getattr(args, "bound", None) is not None:
        print("error: --gate plans its own bound; drop --bound", file=sys.stderr)
        return 2
    if getattr(args, "steps", None) is not None and getattr(args, "bound", None) is not None:
        print("error: --steps plans nothing; drop --bound", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except HamrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                return code
        return 1  # pragma: no cover


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    run()

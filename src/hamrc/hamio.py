"""Plain-text formats for drift Hamiltonians, schedules, and reports.

Both formats are line oriented, ``#`` starts a comment, and every float
is written with ``%.17g`` so values survive a round trip bit for bit.

Hamiltonian files name each term by its support::

    qubits 3
    0.5  0:Z
    2.0  0:X 2:Z
    -0.25 I

Schedule files declare a table of distinct local layers (one row per
site, eight reals for the 2x2 factor, row major, re/im interleaved) and
then list the instructions in operator-product order::

    qubits 2
    phase 1.5707963267948966
    layer 0 0 0.70710678118654757 0 ...
    local 0
    drift 0.39269908169872414
    local 0
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidTerm, ParseError
from .pauli import HamExpansion, PauliString, build_expansion
from .schedule import Drift, Instruction, LocalLayer, Schedule, intern_instructions


def _fmt(x: float) -> str:
    return "%.17g" % x


def _lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line=lineno)
    return value


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line=lineno) from None


# ----------------------------------------------------------------------
# Hamiltonian files


def serialize_hamfile(ham: HamExpansion) -> str:
    """Render an expansion; terms are grouped identity, locals, couplings."""
    out = [f"qubits {ham.n}"]
    ranked = sorted(ham.items(), key=lambda pc: (pc[0].weight(), pc[0].ops))
    for p, c in ranked:
        if p.weight() == 0:
            out.append(f"{_fmt(c)} I")
        else:
            sites = " ".join(f"{q}:{p.ops[q]}" for q in p.support())
            out.append(f"{_fmt(c)} {sites}")
    return "\n".join(out) + "\n"


def parse_hamfile(text: str) -> HamExpansion:
    """Parse the textual term list; errors carry their line number."""
    n: int | None = None
    entries: list[tuple[str, float]] = []
    for lineno, tokens in _lines(text):
        if n is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ParseError("expected 'qubits <n>' header", line=lineno)
            n = _parse_int(tokens[1], lineno, "qubit count")
            if n < 1:
                raise ParseError(f"qubit count must be >= 1, got {n}", line=lineno)
            continue
        if len(tokens) < 2:
            raise ParseError("term needs a coefficient and a support", line=lineno)
        coeff = _parse_float(tokens[0], lineno, "coefficient")
        ops = ["I"] * n
        if tokens[1:] == ["I"]:
            entries.append(("".join(ops), coeff))
            continue
        seen: set[int] = set()
        for tok in tokens[1:]:
            site_s, _, axis = tok.partition(":")
            if not axis:
                raise ParseError(f"expected site:axis, got {tok!r}", line=lineno)
            site = _parse_int(site_s, lineno, "site")
            if not 0 <= site < n:
                raise ParseError(f"site {site} outside register of {n}", line=lineno)
            if site in seen:
                raise ParseError(f"site {site} repeated in one term", line=lineno)
            if axis not in ("X", "Y", "Z"):
                raise ParseError(f"axis must be X, Y or Z, got {axis!r}", line=lineno)
            seen.add(site)
            ops[site] = axis
        entries.append(("".join(ops), coeff))
    if n is None:
        raise ParseError("empty Hamiltonian file")
    return build_expansion(n, entries)


# ----------------------------------------------------------------------
# Schedule files


def serialize_schedule(sched: Schedule) -> str:
    out = [f"qubits {sched.n}", f"phase {_fmt(sched.phase)}"]
    if sched.raw_drift_periods is not None:
        out.append(f"periods {sched.raw_drift_periods}")
    if sched.predicted_error is not None:
        out.append(f"predicted {_fmt(sched.predicted_error)}")

    # one record per distinct instruction, layers numbered in order of first
    # use; the body lists each instruction's record.  A block's first copy
    # holds the first use of everything in it, so the bodies are interned once
    distinct, seq = intern_instructions([ins for body, _ in sched.blocks for ins in body])
    table: list[str] = []
    records: list[str] = []
    layers = 0
    for ins in distinct:
        if isinstance(ins, Drift):
            records.append(f"drift {_fmt(ins.tau)}")
            continue
        if not ins.factors:
            table.append(f"layer {layers}")
        for site, u in ins.factors.items():
            reals = " ".join(f"{_fmt(v.real)} {_fmt(v.imag)}" for v in u.flat)
            table.append(f"layer {layers} {site} {reals}")
        records.append(f"local {layers}")
        layers += 1
    listed: list[str] = []
    start = 0
    for body, count in sched.blocks:
        listed += [records[k] for k in seq[start:start + len(body)]] * count
        start += len(body)
    return "\n".join(out + table + listed) + "\n"


def parse_schedule(text: str) -> Schedule:
    n: int | None = None
    phase = 0.0
    periods: int | None = None
    predicted: float | None = None
    pending: dict[int, dict[int, np.ndarray]] = {}
    built: dict[int, LocalLayer] = {}
    instructions: list[Instruction] = []
    # ``local`` and ``drift`` records are nearly every line of a long
    # schedule, and few distinct: each distinct line is parsed once, and its
    # instruction is shared by every line that repeats it
    seen: dict[str, Instruction] = {}
    # header records set one value each, so a second one is refused, not obeyed
    headers = {"qubits"}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        ins = seen.get(raw)
        if ins is not None:
            instructions.append(ins)
            continue
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        if n is None:
            if kind != "qubits" or len(args) != 1:
                raise ParseError("expected 'qubits <n>' header", line=lineno)
            n = _parse_int(args[0], lineno, "qubit count")
            if n < 1:
                raise ParseError(f"qubit count must be >= 1, got {n}", line=lineno)
        elif kind == "local" and len(args) == 1:
            layer_id = _parse_int(args[0], lineno, "layer id")
            if layer_id not in built:
                if layer_id not in pending:
                    raise ParseError(f"layer {layer_id} never declared", line=lineno)
                try:
                    built[layer_id] = LocalLayer(pending[layer_id])
                except InvalidTerm as exc:
                    raise ParseError(str(exc), line=lineno) from None
            seen[raw] = built[layer_id]
            instructions.append(seen[raw])
        elif kind == "drift" and len(args) == 1:
            tau = _parse_float(args[0], lineno, "drift duration")
            try:
                seen[raw] = Drift(tau)
            except InvalidTerm as exc:
                raise ParseError(str(exc), line=lineno) from None
            instructions.append(seen[raw])
        elif kind in headers:
            raise ParseError(f"repeated {kind!r} record", line=lineno)
        elif kind == "phase" and len(args) == 1:
            headers.add(kind)
            phase = _parse_float(args[0], lineno, "phase")
        elif kind == "periods" and len(args) == 1:
            headers.add(kind)
            periods = _parse_int(args[0], lineno, "period count")
            if periods < 0:
                raise ParseError(f"period count must be >= 0, got {periods}", line=lineno)
        elif kind == "predicted" and len(args) == 1:
            headers.add(kind)
            predicted = _parse_float(args[0], lineno, "predicted error")
            if predicted < 0:
                raise ParseError(f"predicted error must be >= 0, got {predicted}", line=lineno)
        elif kind == "layer":
            if len(args) == 1:  # identity layer: declared with no factor rows
                pending.setdefault(_parse_int(args[0], lineno, "layer id"), {})
                continue
            if len(args) != 10:
                raise ParseError("layer rows take id, site and 8 reals", line=lineno)
            layer_id = _parse_int(args[0], lineno, "layer id")
            site = _parse_int(args[1], lineno, "site")
            if not 0 <= site < n:
                raise ParseError(f"site {site} outside register of {n}", line=lineno)
            if layer_id in built:
                raise ParseError(
                    f"layer {layer_id} extended after first use", line=lineno
                )
            vals = [_parse_float(tok, lineno, "matrix entry") for tok in args[2:]]
            mat = np.array(
                [complex(vals[2 * k], vals[2 * k + 1]) for k in range(4)]
            ).reshape(2, 2)
            rows = pending.setdefault(layer_id, {})
            if site in rows:
                raise ParseError(
                    f"site {site} repeated in layer {layer_id}", line=lineno
                )
            rows[site] = mat
        else:
            raise ParseError(f"unrecognized record {kind!r}", line=lineno)

    if n is None:
        raise ParseError("empty schedule file")
    return Schedule(
        n,
        tuple(instructions),
        phase,
        raw_drift_periods=periods,
        predicted_error=predicted,
    )


# ----------------------------------------------------------------------
# Reports


def format_report(items: Sequence[tuple[str, object]]) -> str:
    """Key-value lines in the given order; floats use the exact format."""
    out = []
    for key, value in items:
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, float):
            value = _fmt(value)
        out.append(f"{key} {value}")
    return "\n".join(out) + "\n"

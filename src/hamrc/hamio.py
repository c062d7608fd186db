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
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidTerm, ParseError
from .pauli import HamExpansion, PauliString, build_expansion
from .schedule import Drift, Instruction, Listing, LocalLayer, Schedule


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
    """Parse the textual term list; errors carry their line number.

    The sum of the coefficients' magnitudes must stay finite, so that no
    norm or matrix built from the file overflows.
    """
    n: int | None = None
    entries: list[tuple[str, float]] = []
    size = 0.0
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
        size += abs(coeff)
        if not math.isfinite(size):
            raise ParseError("coefficient magnitudes sum past the float range", line=lineno)
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
    """Render a schedule with one record per distinct instruction.

    The bodies' tables are interned together, so the records come in
    order of first use, and each body's ids are mapped through them.
    """
    out = [f"qubits {sched.n}", f"phase {_fmt(sched.phase)}"]
    if sched.raw_drift_periods is not None:
        out.append(f"periods {sched.raw_drift_periods}")
    if sched.predicted_error is not None:
        out.append(f"predicted {_fmt(sched.predicted_error)}")

    distinct = Listing(chain.from_iterable(body.table for body, _ in sched.blocks))
    table: list[str] = []
    records: list[str] = []
    layers = 0
    for ins in distinct.table:
        if isinstance(ins, Drift):
            records.append(f"drift {_fmt(ins.tau)}")
            continue
        if not ins.sites():
            table.append(f"layer {layers}")
        for site, reals in zip(ins.sites(), ins.stack.view(float).reshape(-1, 8).tolist()):
            table.append(f"layer {layers} {site} {' '.join(map(_fmt, reals))}")
        records.append(f"local {layers}")
        layers += 1
    listed: list[str] = []
    start = 0
    for body, count in sched.blocks:
        seq = distinct.ids[start:start + len(body.table)][body.ids]
        listed += [records[k] for k in seq.tolist()] * count
        start += len(body.table)
    return "\n".join(out + table + listed) + "\n"


def parse_schedule(text: str) -> Schedule:
    """Parse a schedule file; errors carry their line number.

    ``local`` and ``drift`` records are nearly every line of a long
    schedule, and few distinct: each distinct line is parsed once into a
    table entry, and the schedule is one block, a :class:`Listing` of the
    lines' table indices, interned from the table.  Lines that spell one
    instruction differently share one instruction, as repeated lines do.
    """
    n: int | None = None
    phase = 0.0
    periods: int | None = None
    predicted: float | None = None
    pending: dict[int, dict[int, list[float]]] = {}  # layer id -> site -> its 8 reals
    built: dict[int, LocalLayer] = {}
    table: list[Instruction] = []
    ids: list[int] = []
    seen: dict[str, int] = {}  # a local or drift line -> its table index
    # header records set one value each, so a second one is refused, not obeyed
    headers = {"qubits"}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        k = seen.get(raw)
        if k is not None:
            ids.append(k)
            continue
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        ins: Instruction | None = None
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
                rows = pending[layer_id]
                stack = np.array(list(rows.values()), dtype=float).view(complex).reshape(-1, 2, 2)
                try:
                    built[layer_id] = LocalLayer.from_stack(list(rows), stack)
                except InvalidTerm as exc:
                    raise ParseError(str(exc), line=lineno) from None
            ins = built[layer_id]
        elif kind == "drift" and len(args) == 1:
            tau = _parse_float(args[0], lineno, "drift duration")
            try:
                ins = Drift(tau)
            except InvalidTerm as exc:
                raise ParseError(str(exc), line=lineno) from None
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
            rows = pending.setdefault(layer_id, {})
            if site in rows:
                raise ParseError(
                    f"site {site} repeated in layer {layer_id}", line=lineno
                )
            rows[site] = vals
        else:
            raise ParseError(f"unrecognized record {kind!r}", line=lineno)
        if ins is not None:
            seen[raw] = len(table)
            ids.append(len(table))
            table.append(ins)

    if n is None:
        raise ParseError("empty schedule file")
    return Schedule(
        n, ((Listing(table, ids), 1),), phase, raw_drift_periods=periods, predicted_error=predicted
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

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

A compiled schedule repeats one step many times.  The format has no
repeat record, so the step is written out copy by copy, led by a run
comment that gives its records per copy and its count::

    # run 2 3
    local 0
    drift 0.39269908169872414
    local 0
    drift 0.39269908169872414
    local 0
    drift 0.39269908169872414

A reader that skips comments reads the copies line by line;
:func:`parse_schedule` checks the copies as text and keeps the run as one
block of the schedule, and reads a run comment the text does not bear out
as a plain comment.  A schedule's one table of distinct instructions is
the writer's table of records, and the reader's records become one.
"""

from __future__ import annotations

import math
import re
from array import array
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
    """Render a schedule with one record per entry of its table.

    The table lists the distinct instructions in order of first use, so
    the layer records are numbered in that order, and each body's ids
    pick their records.  A block's body is joined into text once and that
    text repeated ``count`` times, so a long repetition costs one string
    copy, not a line each.  A block of count above 1 is led by its run
    comment, ``# run <L> <count>`` with ``L`` the records of one copy.
    """
    out = [f"qubits {sched.n}", f"phase {_fmt(sched.phase)}"]
    if sched.raw_drift_periods is not None:
        out.append(f"periods {sched.raw_drift_periods}")
    if sched.predicted_error is not None:
        out.append(f"predicted {_fmt(sched.predicted_error)}")

    records: list[str] = []  # each table entry's line, with its break
    layers = 0
    for ins in sched.table:
        if isinstance(ins, Drift):
            records.append(f"drift {_fmt(ins.tau)}\n")
            continue
        if not ins.sites():
            out.append(f"layer {layers}")
        for site, reals in zip(ins.sites(), ins.stack.view(float).reshape(-1, 8).tolist()):
            out.append(f"layer {layers} {site} {' '.join(map(_fmt, reals))}")
        records.append(f"local {layers}\n")
        layers += 1
    listed = ["\n".join(out) + "\n"]
    for body, count in sched.blocks:
        if count > 1:
            listed.append(f"# run {len(body)} {count}\n")
        listed.append("".join(map(records.__getitem__, body.ids.tolist())) * count)
    return "".join(listed)


#: the line breaks of ``str.splitlines`` other than ``\n``; a text with
#: any of them is rewritten to ``\n`` breaks before it is read
_BREAKS = re.compile("\r\n|[\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
#: those of them in ASCII, looked for in each distinct line the parser
#: reads (one regex search of a 700 KB text takes milliseconds, and even
#: one fast scan per character tens of microseconds)
_ASCII_BREAKS = "\r\v\f\x1c\x1d\x1e"
#: a run comment; each number has at most 18 digits, so ``int`` never
#: meets one past its digit limit
_RUN = re.compile("# run ([1-9][0-9]{0,17}) ([1-9][0-9]{0,17})")
#: characters of a run's copies compared at a time
_BLOCK = 1 << 16


def _repeats(text: str, chunk: str, pos: int, copies: int) -> bool:
    """Whether ``copies`` copies of ``chunk`` follow at ``pos``.

    They are compared a block of copies at a time, at most ``_BLOCK``
    characters or one copy, so the check allocates no more than that
    whatever the count.
    """
    stop = pos + copies * len(chunk)
    block = chunk * min(copies, max(1, _BLOCK // len(chunk)))
    while pos + len(block) <= stop:
        if not text.startswith(block, pos):
            return False
        pos += len(block)
    return text.startswith(block[:stop - pos], pos)


def _build_layers(
    pending: dict[int, dict[int, list[float]]], used: dict[int, int]
) -> dict[int, LocalLayer]:
    """Each layer id of ``used`` -> its layer, all built in one batch.

    ``used`` maps a layer id to the line of its first use, in the order of
    those lines.  A layer that fails raises :class:`ParseError` at that
    line, the earliest line of any that fail.
    """
    specs = [
        (list(rows), np.array(list(rows.values()), dtype=float).view(complex).reshape(-1, 2, 2))
        for rows in map(pending.__getitem__, used)
    ]
    try:
        return dict(zip(used, LocalLayer.from_stacks(specs)))
    except InvalidTerm as exc:  # a factor's unitarity: every spec is 2x2 on distinct sites
        raise ParseError(str(exc), line=list(used.values())[exc.layer]) from None


def parse_schedule(text: str) -> Schedule:
    """Parse a schedule file; errors carry their line number.

    ``local`` and ``drift`` records are nearly every line of a long
    schedule, and few distinct: each distinct line is parsed once into a
    table entry, and each block of the schedule is a :class:`Listing`
    view of its lines' indices into that table, which the schedule
    interns once.  Lines that spell one instruction differently share
    one instruction, as repeated lines do.  The layers the records use
    are built in one batch once the text is read; a layer that fails is
    reported at the line of its first use, and of two faults the one on
    the earlier line is reported.

    The text is read line by line, except where a run comment,
    ``# run <L> <count>``, is borne out: when its next ``L`` lines are all
    records and ``count - 1`` copies of them follow, the copies are
    compared as text, not read, and the ``L`` records with ``count``
    become one block.  Anywhere else it is a plain comment, so a comment
    never changes what a text means; the records between runs are blocks
    of count 1.  No line is scanned for two run comments: once a run asks
    for more lines than are left, the lines left are counted, and a run
    that count cannot hold is not scanned.  Lines and line numbers are
    those of ``str.splitlines``: a text with another break than ``\\n`` is
    read again with ``\\n`` breaks.  Every character is in a line the
    parser reads or in a copy of read lines, so the ASCII breaks are looked
    for only in the distinct lines it reads, and a text without them is
    never scanned for them.
    """
    if not text.isascii():
        text = _BREAKS.sub("\n", text)
    try:
        return _parse_text(text)
    except _OtherBreak:
        return _parse_text(_BREAKS.sub("\n", text))


class _OtherBreak(Exception):
    """A line of a schedule text holds a break other than ``\\n``."""


def _parse_text(text: str) -> Schedule:
    """``parse_schedule`` of an ASCII text whose lines are split at ``\\n``
    only; raises :class:`_OtherBreak` at the first line read that holds
    another break."""
    n: int | None = None
    phase = 0.0
    periods: int | None = None
    predicted: float | None = None
    pending: dict[int, dict[int, list[float]]] = {}  # layer id -> site -> its 8 reals
    used: dict[int, int] = {}  # layer id -> line of its first use
    table: list[Instruction | int] = []  # a local record holds its layer id until the build
    seen: dict[str, int] = {}  # a local or drift line -> its table index
    # header records set one value each, so a second one is refused, not obeyed
    headers = {"qubits"}

    def read(raw: str, lineno: int) -> int | None:
        """Parse a line that is not in ``seen``: a record's table index, or
        ``None`` for any other line."""
        nonlocal n, phase, periods, predicted
        if not raw.isprintable() and any(br in raw for br in _ASCII_BREAKS):
            raise _OtherBreak
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            return None
        kind, args = tokens[0], tokens[1:]
        ins: Instruction | int | None = None
        if n is None:
            if kind != "qubits" or len(args) != 1:
                raise ParseError("expected 'qubits <n>' header", line=lineno)
            n = _parse_int(args[0], lineno, "qubit count")
            if n < 1:
                raise ParseError(f"qubit count must be >= 1, got {n}", line=lineno)
        elif kind == "local" and len(args) == 1:
            ins = _parse_int(args[0], lineno, "layer id")
            if ins not in pending:
                raise ParseError(f"layer {ins} never declared", line=lineno)
            used.setdefault(ins, lineno)
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
        # an identity layer is declared with no factor rows
        elif kind == "layer" and len(args) == 1:
            pending.setdefault(_parse_int(args[0], lineno, "layer id"), {})
        elif kind == "layer":
            if len(args) != 10:
                raise ParseError("layer rows take id, site and 8 reals", line=lineno)
            layer_id = _parse_int(args[0], lineno, "layer id")
            site = _parse_int(args[1], lineno, "site")
            if not 0 <= site < n:
                raise ParseError(f"site {site} outside register of {n}", line=lineno)
            if layer_id in used:
                raise ParseError(f"layer {layer_id} extended after first use", line=lineno)
            vals = [_parse_float(tok, lineno, "matrix entry") for tok in args[2:]]
            rows = pending.setdefault(layer_id, {})
            if site in rows:
                raise ParseError(f"site {site} repeated in layer {layer_id}", line=lineno)
            rows[site] = vals
        else:
            raise ParseError(f"unrecognized record {kind!r}", line=lineno)
        if ins is None:
            return None
        seen[raw] = len(table)
        table.append(ins)
        return seen[raw]

    blocks: list[tuple[array, int]] = []  # (table indices, count) of each block so far
    ids = array("q")  # the table index of each record since the latest run

    def read_lines(lines: list[str], lineno: int) -> int:
        """Read ``lines``, the first of them line ``lineno + 1``; returns the
        number of the last."""
        for lineno, raw in enumerate(lines, lineno + 1):
            k = seen.get(raw)
            if k is None:
                k = read(raw, lineno)
            if k is not None:
                ids.append(k)
        return lineno

    lineno = 0
    pos, end = 0, len(text) - text.endswith("\n")
    lines = math.inf  # the text's line count, once a run comment asks for more
    try:
        while pos < end:
            if not text.startswith("# run ", pos):  # the lines up to the next run comment
                mark = text.find("\n# run ", pos, end) + 1 or end
                lineno = read_lines(text[pos:mark - (mark < end)].split("\n"), lineno)
                pos = mark
                continue
            eol = text.find("\n", pos, end)
            raw = text[pos:end if eol < 0 else eol]
            lineno = read_lines([raw], lineno)  # a comment, whose breaks are checked
            pos = start = pos + len(raw) + 1
            run = _RUN.fullmatch(raw)
            if run is None or int(run[2]) < 2:
                continue
            length, count = int(run[1]), int(run[2])
            # a run the lines left cannot hold is a plain comment
            if length * count > lines - lineno:
                continue
            cut = start  # the end of the next ``length`` lines, if they end in breaks
            for _ in range(length):
                cut = text.find("\n", cut, end) + 1
                if not cut:
                    break
            if not cut:
                # the lines are counted once, so no later run scans them again;
                # a run they can hold is always scanned in full and read
                lines = lineno + text.count("\n", start, end) + 1
                continue
            first = len(ids)
            lineno = read_lines(text[start:cut - 1].split("\n"), lineno)
            pos = cut
            if len(ids) - first == length and _repeats(text, text[start:cut], cut, count - 1):
                body = ids[first:]
                del ids[first:]
                if ids:
                    blocks.append((ids, 1))
                blocks.append((body, count))
                ids = array("q")
                pos += (count - 1) * (cut - start)
                lineno += (count - 1) * length
    except ParseError:
        _build_layers(pending, used)  # a layer that fails on an earlier line is the fault
        raise

    if n is None:
        raise ParseError("empty schedule file")
    built = _build_layers(pending, used)
    records = [built[ins] if isinstance(ins, int) else ins for ins in table]
    if ids:
        blocks.append((ids, 1))
    bodies = [(Listing(records, np.frombuffer(body, dtype=np.int64)), k) for body, k in blocks]
    return Schedule(n, bodies, phase, raw_drift_periods=periods, predicted_error=predicted)


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

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
repeat record, so the step is written out copy by copy, but both
directions handle such text a repeated run at a time rather than a line
at a time, and a parsed run is one block of the schedule (see
:func:`serialize_schedule` and :func:`parse_schedule`).
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import chain, islice
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
    order of first use, and each body's ids are mapped through them.  A
    block's body is joined into text once and that text repeated ``count``
    times, so a long repetition costs one string copy, not a line each.
    """
    out = [f"qubits {sched.n}", f"phase {_fmt(sched.phase)}"]
    if sched.raw_drift_periods is not None:
        out.append(f"periods {sched.raw_drift_periods}")
    if sched.predicted_error is not None:
        out.append(f"predicted {_fmt(sched.predicted_error)}")

    distinct = Listing(chain.from_iterable(body.table for body, _ in sched.blocks))
    records: list[str] = []  # each distinct instruction's line, with its break
    layers = 0
    for ins in distinct.table:
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
    start = 0
    for body, count in sched.blocks:
        seq = distinct.ids[start:start + len(body.table)][body.ids]
        listed.append("".join(map(records.__getitem__, seq.tolist())) * count)
        start += len(body.table)
    return "".join(listed)


#: the line breaks of ``str.splitlines`` other than ``\n``; a text with
#: any of them is rewritten to ``\n`` breaks before it is walked
_BREAKS = re.compile("\r\n|[\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
#: those of them in ASCII, looked for in each distinct line the parser
#: reads (one regex search of a 700 KB text takes milliseconds, and even
#: one fast scan per character tens of microseconds)
_ASCII_BREAKS = "\r\v\f\x1c\x1d\x1e"
#: characters of schedule text split into lines at a time
_WINDOW = 4096
#: records that seek a run after each window start and each run
_PROBES = 8
#: characters of a chunk compared first when seeking a run
_PREFIX = 64


def _copies(text: str, start: int, pos: int) -> tuple[int, int]:
    """Whole copies of ``text[start:pos]`` that follow at ``pos``.

    Returns ``(copies, matched)``: when no copy follows, ``matched`` is
    how many characters at ``pos`` are known to agree with the chunk.  The
    chunk is compared a doubling prefix at a time, so a failed search
    stops near the first differing line; copies are then counted with
    blocks of 1, 2, 4, ... copies, doubling and then halving.
    """
    span = pos - start
    width = matched = 0
    while width < span:
        width = min(2 * width or _PREFIX, span)
        chunk = text[start:start + width]
        if not text.startswith(chunk, pos):
            return 0, matched
        matched = width
    blocks = [chunk]  # blocks[i] is 2**i copies
    copies = 1
    while text.startswith(blocks[-1], pos + copies * span):
        copies *= 2
        blocks.append(blocks[-1] * 2)
    for block in reversed(blocks[:-1]):
        if text.startswith(block, pos + copies * span):
            copies += len(block) // span
    return copies, 0


def _append(blocks: list[tuple[array, int]], body: array, count: int) -> None:
    """Add ``(body, count)`` to ``blocks``; an empty body adds nothing, and a
    body equal to the last block's adds its count there."""
    if blocks and blocks[-1][0] == body:
        blocks[-1] = (body, blocks[-1][1] + count)
    elif body:
        blocks.append((body, count))


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
    table entry, and each block of the schedule is a :class:`Listing` of
    its lines' table indices, interned from the table.  Lines that spell
    one instruction differently share one instruction, as repeated lines
    do.  The layers the records use are built in one batch once the text
    is read; a layer that fails is reported at the line of its first use,
    and of two faults the one on the earlier line is reported.

    A compiled file repeats one step many times, so the text is read a
    repeated run at a time, and each run becomes a block.  When a record
    line recurs and every line since an earlier occurrence of it is a
    record too, the text between the two is a chunk: the whole copies of
    it that follow are counted by string comparison, with no walk over
    their lines, and the chunk with its copies becomes one block.  A chunk
    that is copies of a shorter one is counted as those, and copies of it
    just before the run join the block, as does a preceding block of the
    same chunk.  A chunk starts after the latest run, and the records
    between runs are blocks of count 1.  Lines are split a window at a
    time; the first few records after a window start or a run seek a run,
    and for the other records only the table index is looked up.  The
    indices are kept in integer arrays that numpy reads without a copy.
    Lines and line numbers are those of ``str.splitlines``: a text with
    another break than ``\\n`` is read again with ``\\n`` breaks.  Every
    character is in a line the parser reads or in an exact copy of read
    lines, so the ASCII breaks are looked for only in the distinct lines
    it reads, and a text without them is never scanned for them.
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

    blocks: list[tuple[array, int]] = []  # (table indices, count) of each block so far
    ids = array("q")  # the table index of each record since the latest run
    # a table index -> offset of a line of it: its first, or the latest that
    # sought a run
    last: list[int] = []
    # offset of the latest line that is not a record, or of the latest
    # run's end: a chunk starts after it
    fence = -1
    # a chunk span -> the offset up to which a failed search matched: no
    # chunk of that span repeats before it
    ruled_out: dict[int, int] = {}
    lineno = 0
    pos, end = 0, len(text) - text.endswith("\n")
    try:
        while pos < end:
            # whole lines are split a window at a time
            cut = text.find("\n", pos + _WINDOW, end)
            if cut < 0:
                cut = end
            probes = _PROBES
            lines = text[pos:cut].split("\n")
            first = known = lineno + 1  # pos is the offset of line known
            walk = enumerate(lines, first)
            for lineno, raw in walk:
                k = seen.get(raw)
                if k is not None and not probes:
                    ids.append(k)
                    continue
                # this line's offset, counted on from line known
                if lineno > known:
                    pos += sum(map(len, lines[known - first:lineno - first])) + lineno - known
                here = pos
                known, pos = lineno + 1, here + len(raw) + 1
                if k is not None:  # a record that seeks a run
                    probes -= 1
                    start = last[k]
                    span = here - start
                    # a run needs its chunk of records to agree with the text that follows
                    if (start > fence and text.startswith(text[start:start + _PREFIX], here)
                            and here >= ruled_out.get(span, 0)):
                        copies, matched = _copies(text, start, here)
                        if copies:
                            width = text.count("\n", start, here)  # records in the chunk
                            chunk = ids[-width:]
                            count = copies + 1
                            del ids[-width:]
                            # a chunk of several copies of a shorter one counts those
                            size = next(p for p in range(1, width + 1) if width % p == 0
                                        and chunk[:p] * (width // p) == chunk)
                            chunk, count = chunk[:size], count * (width // size)
                            while ids[-size:] == chunk:  # earlier copies join the block
                                del ids[-size:]
                                count += 1
                            _append(blocks, ids, 1)
                            _append(blocks, chunk, count)
                            ids = array("q")
                            pos = here + copies * span
                            fence = pos - 1
                            known = lineno + copies * width
                            probes = _PROBES
                            if pos > cut:  # the run ends past the window
                                lineno = known - 1
                                break
                            m = copies * width - 1  # the run's other lines in this window
                            next(islice(walk, m, m), None)
                            continue
                        ruled_out[span] = here + matched
                    last[k] = here
                    ids.append(k)
                    continue
                if not raw.isprintable() and any(br in raw for br in _ASCII_BREAKS):
                    raise _OtherBreak
                tokens = raw.split("#", 1)[0].split()
                if not tokens:
                    fence = here
                    continue
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
                        raise ParseError(
                            f"predicted error must be >= 0, got {predicted}", line=lineno
                        )
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
                if ins is None:
                    fence = here
                else:
                    seen[raw] = len(table)
                    last.append(here)
                    ids.append(len(table))
                    table.append(ins)
            else:
                pos = cut + 1
    except ParseError:
        _build_layers(pending, used)  # a layer that fails on an earlier line is the fault
        raise

    if n is None:
        raise ParseError("empty schedule file")
    built = _build_layers(pending, used)
    records = [built[ins] if isinstance(ins, int) else ins for ins in table]
    _append(blocks, ids, 1)
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

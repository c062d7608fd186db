"""Text formats: exact round trips and line-numbered parse errors."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    clifford_layer,
    interned,
    random_layer,
    random_two_body,
    without_runs,
    xz_chain,
)
from hamrc import (
    Drift,
    InvalidTerm,
    LocalLayer,
    ParseError,
    Schedule,
    build_expansion,
    compile_cnot,
    compile_on_pair,
    compile_remote,
    compile_schedule,
    evaluate_schedule,
    format_report,
    operator_norm,
    parse_hamfile,
    parse_schedule,
    serialize_hamfile,
    serialize_schedule,
)
from hamrc.hamio import _parse_float, _parse_int
from hamrc.schedule import Listing


def test_hamfile_round_trip_is_exact():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 6):
        ham = random_two_body(n, rng, connected=n > 1)
        assert parse_hamfile(serialize_hamfile(ham)) == ham


def test_hamfile_accepts_comments_blanks_and_identity():
    text = """
# leading comment
qubits 3

0.5 0:Z      # trailing comment
-1.25 1:X 2:Y
0.125 I
"""
    ham = parse_hamfile(text)
    assert ham.coefficient("ZII") == 0.5
    assert ham.coefficient("IXY") == -1.25
    assert ham.coefficient("III") == 0.125


def test_hamfile_duplicate_terms_sum():
    ham = parse_hamfile("qubits 2\n1 0:X 1:X\n0.5 0:X 1:X\n")
    assert ham.coefficient("XX") == 1.5


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("0.5 0:Z\n", 1),  # missing header
        ("qubits 0\n", 1),
        ("qubits two\n", 1),
        ("qubits 2\n0.5\n", 2),
        ("qubits 2\nabc 0:Z\n", 2),
        ("qubits 2\n0.5 0:Q\n", 2),
        ("qubits 2\n0.5 5:Z\n", 2),
        ("qubits 2\n0.5 0:Z 0:X\n", 2),
        ("qubits 2\n0.5 0Z\n", 2),
        ("qubits 2\n# just a comment\n1 1:Z\n0.1 0:W\n", 4),
        ("qubits 2\n1 0:Z\nnan 0:X 1:X\n", 3),  # non-finite coefficients
        ("qubits 2\ninf 0:Z\n", 2),
        ("qubits 2\n-inf I\n", 2),
        ("qubits 2\n+Infinity 1:Y\n", 2),
    ],
)
def test_hamfile_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_hamfile(text)
    assert f"line {lineno}:" in str(err.value)


def test_empty_hamfile_is_an_error():
    with pytest.raises(ParseError):
        parse_hamfile("# nothing here\n")


def test_schedule_round_trip_is_exact(sample_drift):
    sched = compile_cnot(sample_drift, epsilon=1e-3, order=2)
    text = serialize_schedule(sched)
    back = parse_schedule(text)
    assert back == sched  # n, phase, and instructions, bit for bit
    assert back.raw_drift_periods == sched.raw_drift_periods
    assert back.predicted_error == sched.predicted_error
    # serializing again gives the identical bytes
    assert serialize_schedule(back) == text


def test_schedule_round_trip_with_identity_layer():
    sched = Schedule(2, (((LocalLayer({}), Drift(0.25)), 1),), phase=-0.5)
    back = parse_schedule(serialize_schedule(sched))
    assert back == sched


def test_schedule_parse_shares_one_instruction_per_argument(sample_drift):
    sched = compile_cnot(sample_drift, steps=4, order=2)
    back = parse_schedule(serialize_schedule(sched))
    assert back == sched
    by_arg: dict[object, object] = {}
    for ins in back.instructions:
        arg = ins.tau if isinstance(ins, Drift) else ins.cache_key()
        assert by_arg.setdefault(arg, ins) is ins
    assert len(by_arg) < len(back.instructions)
    # distinct spellings stay distinct records, signed zero included
    text = "qubits 1\nlayer 0\ndrift 0\nlocal 0\ndrift -0\nlocal 00\ndrift 0\ndrift -0\n"
    ins = parse_schedule(text).instructions
    assert ins[0] is ins[4] and ins[2] is ins[5]
    assert ins[1] is ins[3] and ins[1] == LocalLayer({})
    assert math.copysign(1.0, ins[0].tau) == 1.0 and math.copysign(1.0, ins[2].tau) == -1.0
    assert serialize_schedule(Schedule(1, ((ins, 1),))).endswith(
        "drift 0\nlocal 0\ndrift -0\nlocal 0\ndrift 0\ndrift -0\n"
    )


def test_schedule_layer_table_is_deduplicated(sample_drift):
    sched = compile_cnot(sample_drift, steps=4, order=2)
    text = serialize_schedule(sched)
    layer_ids = set()
    locals_seen = 0
    for line in text.splitlines():
        if line.startswith("layer"):
            layer_ids.add(line.split()[1])
        elif line.startswith("local"):
            locals_seen += 1
    assert locals_seen > len(layer_ids)  # repeated steps reuse table entries


def test_schedule_layer_table_keys_layers_by_value():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    layer = LocalLayer({0: x})
    shared = Schedule(2, (((layer, Drift(0.0), layer, Drift(-0.0), layer), 1),))
    copies = Schedule(
        2, (((layer, Drift(0.0), LocalLayer({0: x}), Drift(-0.0), LocalLayer(layer.factors)), 1),)
    )
    text = serialize_schedule(shared)
    assert serialize_schedule(copies) == text
    assert [ln for ln in text.splitlines() if ln.startswith("layer")] == [
        "layer 0 0 0 0 1 0 1 0 0 0"
    ]
    # each drift is written from its own duration, signed zero included
    assert "drift 0\nlocal 0\ndrift -0\n" in text


# a layer of several rows is refused at its local line, naming the first
# non-unitary factor in site order
_SECOND_ROW_BAD = "qubits 2\nlayer 0 0 0 0 1 0 1 0 0 0\nlayer 0 1 1 0 0 0 0 0 2 0\nlocal 0\n"
_BOTH_ROWS_BAD = "qubits 2\nlayer 0 1 1 0 0 0 0 0 2 0\nlayer 0 0 3 0 0 0 0 0 1 0\nlocal 0\n"
_BAD_ROW = "layer 0 0 1 0 0 0 0 0 2 0"  # declares a non-unitary layer 0
_GOOD_ROW = "layer 1 0 0 0 1 0 1 0 0 0"
# the layers are built once the text is read, but the earlier of two
# faults is reported: a layer's first use before a malformed line, the
# malformed line before a first use; a layer never used is never checked
_BAD_FIRST = f"qubits 2\n{_BAD_ROW}\nlocal 0\nwobble\n"
_BAD_IN_RUN = f"qubits 2\n{_BAD_ROW}\n" + "local 0\ndrift 0.5\n" * 5000 + "drift abc\n"
_MALFORMED_FIRST = f"qubits 2\n{_BAD_ROW}\nwobble\nlocal 0\n"
_NEVER_USED = f"qubits 2\n{_BAD_ROW}\n{_GOOD_ROW}\nlocal 1\ndrift 0.5\ndrift abc\n"
# of two bad layers, the one used first is reported, not the one declared first
_USED_FIRST = f"qubits 2\n{_BAD_ROW}\nlayer 1 1 3 0 0 0 0 0 1 0\nlocal 1\nlocal 0\n"
# a good layer used first: the bad one is reported at its own first use
_USED_LATER = f"qubits 2\n{_BAD_ROW}\n{_GOOD_ROW}\nlocal 1\ndrift 0.5\nlocal 0\nlocal 1\n"
#: what a refusal must name besides its line
_NAMES = {
    _SECOND_ROW_BAD: "on site 1 ", _BOTH_ROWS_BAD: "on site 0 ", _BAD_FIRST: "unitarity",
    _BAD_IN_RUN: "unitarity", _MALFORMED_FIRST: "wobble", _NEVER_USED: "drift duration",
    _USED_FIRST: "on site 1 ", _USED_LATER: "on site 0 ",
}


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("drift 0.1\n", 1),
        ("qubits 2\nwobble 3\n", 2),
        ("qubits 2\ndrift -0.5\n", 2),
        ("qubits 2\ndrift abc\n", 2),
        ("qubits 2\nlocal 0\n", 2),  # undeclared layer
        ("qubits 2\nlayer 0 0 1 0 0 0 0 0 1\n", 2),  # wrong arity
        ("qubits 2\nlayer 0 5 1 0 0 0 0 0 1 0\n", 2),  # site out of range
        ("qubits 2\nlayer 0 0 1 0 0 0 0 0 2 0\nlocal 0\n", 3),  # not unitary
        ("qubits 2\nphase nan\n", 2),  # non-finite fields
        ("qubits 2\npredicted inf\n", 2),
        ("qubits 2\ndrift 0.5\ndrift inf\n", 3),
        ("qubits 2\ndrift NaN\n", 2),
        ("qubits 2\nlayer 0 0 1 0 0 0 0 0 1 -inf\n", 2),
        # a bad record repeated is reported at its first occurrence
        ("qubits 2\ndrift -0.5\ndrift -0.5\n", 2),
        ("qubits 2\ndrift 0.5\nlocal 3\nlocal 3\n", 3),
        ("qubits 2\nlayer 0 0 1 0 0 0 0 0 2 0\nlocal 0\nlocal 0\n", 3),
        ("drift 0.5\ndrift 0.5\nqubits 2\n", 1),
        ("qubits 2\ndrift 0.5\npredicted -0.5\n", 3),  # negative fields
        ("qubits 2\nperiods -3\ndrift 0.5\n", 2),
        # a header record sets one value: a second one is refused, not obeyed
        ("qubits 2\npredicted 0.5\ndrift 0.5\npredicted 0.001\n", 4),
        ("qubits 2\nphase 0.5\nphase 0.5\n", 3),
        ("qubits 2\nperiods 3\ndrift 0.5\nperiods 4\n", 4),
        ("qubits 2\ndrift 0.5\nqubits 2\n", 3),
        # after a long run of repeated records, each read from the parser's cache
        ("qubits 2\n" + "drift 0.5\n" * 4999 + "drift -0.5\n", 5001),
        ("qubits 2\nlayer 0\n" + "local 0\ndrift 0.5\n" * 2500 + "local 1\n", 5003),
        ("qubits 2\npredicted 0.1\n" + "drift 0.5\n" * 5000 + "predicted 0.2\n", 5003),
        # after a run read as repeated copies of a chunk, a partial copy included
        ("qubits 2\nlayer 0\n" + "local 0\ndrift 0.5\n" * 10000 + "drift -1\n", 20003),
        ("qubits 2\nlayer 0\n" + "local 0\ndrift 0.5\n" * 10000 + "local 0\ndrift -1\n", 20004),
        ("qubits 2\nphase 0.5\nlayer 0\n" + "drift 0.5\nlocal 0\n" * 2500 + "phase 0.25\n", 5004),
        ("qubits 2\r\nlayer 0\r\n" + "local 0\r\ndrift 0.5\r\n" * 2500 + "drift -1", 5003),
        (_SECOND_ROW_BAD, 4),
        (_BOTH_ROWS_BAD, 4),
        (_BAD_FIRST, 3),
        (_BAD_IN_RUN, 3),
        (_MALFORMED_FIRST, 3),
        (_NEVER_USED, 6),
        (_USED_FIRST, 4),
        (_USED_LATER, 6),
    ],
)
def test_schedule_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_schedule(text)
    assert f"line {lineno}:" in str(err.value)
    assert _NAMES.get(text, "") in str(err.value)


def test_a_second_qubits_record_is_named_as_repeated():
    with pytest.raises(ParseError, match="repeated 'qubits' record"):
        parse_schedule("qubits 2\ndrift 0.5\nqubits 3\n")


def test_schedule_layer_cannot_grow_after_use():
    row = "layer 0 0 0 0 1 0 1 0 0 0"  # X gate
    text = f"qubits 2\n{row}\nlocal 0\nlayer 0 1 0 0 1 0 1 0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_schedule(text)
    assert "line 4:" in str(err.value)


def _instruction_pool(draw, n: int) -> list:
    """A few distinct records on ``n`` qubits.

    The pool holds random, Clifford and identity layers, the Clifford
    layers' daggers, whose zeros carry both signs, and drifts with both
    signed zeros.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [random_layer(rng, n) for _ in range(draw(st.integers(1, 3)))]
    cliffords = [clifford_layer(rng, n) for _ in range(draw(st.integers(0, 2)))]
    pool += cliffords + [layer.dagger() for layer in cliffords]
    pool += [LocalLayer({}), Drift(0.0), Drift(-0.0)]
    return pool + [Drift(float(t)) for t in rng.uniform(0.0, 1.0, size=draw(st.integers(1, 3)))]


@st.composite
def record_schedules(draw):
    """A repeated step and an unrepeated tail over a few distinct records,
    layers reused as objects or as value-equal copies."""
    n = draw(st.integers(1, 3))
    pool = _instruction_pool(draw, n)
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=12)
    step = [pool[i] for i in draw(picks)]
    instructions = step * draw(st.integers(1, 50))
    for i in draw(picks):
        ins = pool[i]
        if isinstance(ins, LocalLayer) and draw(st.booleans()):
            ins = LocalLayer(ins.factors)
        instructions.append(ins)
    return Schedule(n, ((tuple(instructions), 1),), draw(st.floats(-np.pi, np.pi)))


@settings(max_examples=60)
@given(sched=record_schedules())
def test_schedule_text_holds_one_record_per_instruction(sched):
    text = serialize_schedule(sched)
    back = parse_schedule(text)
    assert back == sched
    assert serialize_schedule(back) == text
    body = [ln for ln in text.splitlines() if ln.split()[0] in ("local", "drift")]
    assert len(body) == len(sched.instructions) == len(back.instructions)
    ids: dict[object, str] = {}
    shared: dict[str, object] = {}
    for ins, got, line in zip(sched.instructions, back.instructions, body):
        if isinstance(ins, Drift):
            # each drift is written from its own duration, signed zero included
            assert line == "drift %.17g" % ins.tau
            assert math.copysign(1.0, got.tau) == math.copysign(1.0, ins.tau)
        else:
            # layers equal by value share one id, numbered in order of first use
            assert line == f"local {ids.setdefault(ins.cache_key(), str(len(ids)))}"
        assert shared.setdefault(line, got) is got
    # the blocks follow the runs of the text: each block's copies are equal
    # lines, and two blocks in a row differ; each is a listing of the one
    # table, interned as a walk over the instructions interns them
    table, walked = interned(back.instructions)
    assert len(back.table) == len(table)
    assert all(a is b for a, b in zip(back.table, table))
    at, copies = 0, []
    for listing, count in back.blocks:
        assert type(listing) is Listing and listing.table is back.table
        copy = body[at:at + len(listing)]
        assert body[at:at + len(listing) * count] == copy * count
        assert listing.ids.tolist() == walked[at:at + len(listing)]
        at += len(listing) * count
        copies.append(copy)
    assert at == len(body)
    assert all(a != b for a, b in zip(copies, copies[1:]))


@st.composite
def block_schedules(draw):
    """Blocks of one to three steps, each repeated at least twice."""
    n = draw(st.integers(1, 3))
    pool = _instruction_pool(draw, n)
    step = st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    blocks = draw(st.lists(st.tuples(step, st.integers(2, 40)), min_size=1, max_size=3))
    return Schedule(
        n,
        tuple((tuple(body), count) for body, count in blocks),
        draw(st.floats(-np.pi, np.pi)),
        raw_drift_periods=draw(st.none() | st.integers(0, 10**6)),
        predicted_error=draw(st.none() | st.floats(0.0, 1.0)),
    )


def _shapes(sched: Schedule) -> list:
    """Each block's instructions and count."""
    return [(tuple(body), count) for body, count in sched.blocks]


@settings(max_examples=60)
@given(sched=block_schedules())
def test_a_repeated_block_is_written_as_its_expansion(sched):
    text = serialize_schedule(sched)
    flat = Schedule(
        sched.n,
        ((sched.instructions, 1),),
        sched.phase,
        raw_drift_periods=sched.raw_drift_periods,
        predicted_error=sched.predicted_error,
    )
    # the record lines are the expansion's; each block is led by its run
    assert without_runs(text) == serialize_schedule(flat)
    runs = [ln for ln in text.splitlines() if ln.startswith("# run ")]
    assert runs == [f"# run {len(body)} {count}" for body, count in sched.blocks]
    back = parse_schedule(text)
    assert back == sched
    assert _shapes(back) == _shapes(sched)
    assert back.raw_drift_periods == sched.raw_drift_periods
    assert back.predicted_error == sched.predicted_error
    assert serialize_schedule(back) == text


def _parse_lines(text: str) -> Schedule:
    """The schedule parser as a plain loop over ``str.splitlines``, one line
    at a time, each distinct record line parsed once: the reference that
    the run-at-a-time parser must agree with."""
    n, phase, periods, predicted = None, 0.0, None, None
    pending: dict[int, dict[int, list[float]]] = {}
    built: dict[int, LocalLayer] = {}
    table: list = []
    ids: list[int] = []
    seen: dict[str, int] = {}
    headers = {"qubits"}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw in seen:
            ids.append(seen[raw])
            continue
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        ins = None
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
            try:
                ins = Drift(_parse_float(args[0], lineno, "drift duration"))
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
        elif kind == "layer" and len(args) == 1:
            pending.setdefault(_parse_int(args[0], lineno, "layer id"), {})
        elif kind == "layer":
            if len(args) != 10:
                raise ParseError("layer rows take id, site and 8 reals", line=lineno)
            layer_id = _parse_int(args[0], lineno, "layer id")
            site = _parse_int(args[1], lineno, "site")
            if not 0 <= site < n:
                raise ParseError(f"site {site} outside register of {n}", line=lineno)
            if layer_id in built:
                raise ParseError(f"layer {layer_id} extended after first use", line=lineno)
            vals = [_parse_float(tok, lineno, "matrix entry") for tok in args[2:]]
            rows = pending.setdefault(layer_id, {})
            if site in rows:
                raise ParseError(f"site {site} repeated in layer {layer_id}", line=lineno)
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


def _outcome(parse, text: str) -> object:
    """What ``parse(text)`` gives: its headers and expansion, or the error
    with its line number."""
    try:
        sched = parse(text)
    except ParseError as exc:
        return str(exc)
    expansion = [
        ins.tau.hex() if isinstance(ins, Drift) else ins.cache_key() for ins in sched.instructions
    ]
    return (sched.n, sched.phase, sched.raw_drift_periods, sched.predicted_error, expansion)


#: record lines of the drawn texts: spellings of two layers and of drifts,
#: signed zeros included
_RECORDS = ("local 0", "local 1", "local 00", "local 0  # again", "drift 0.5", " drift 0.5",
            "drift 0.25", "drift 0", "drift -0")
#: other lines: blanks, comments, headers and records that are refused
_OTHERS = ("", "# note", "drift -1", "phase 0.5", "local 7", "layer 1 0 1 0 0 0 0 0 1 0", "wobble")
#: run comments that no text bears out: a zero, a word, a token too many
#: or too few, another spelling
_BAD_RUNS = ("# run 0 3", "# run 2 0", "# run 0 0", "# run x 3", "# run 2 y", "# run 2 3 4",
             "# run 2", "# run", "# run  2 3", "#run 2 3", "# run 02 3", "# run -2 3")
_ASCII_BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e")
_BREAKS = _ASCII_BREAKS + ("\u2028",)


def _run_comment(draw, length: int, count: int) -> str:
    """A run comment for ``count`` copies of ``length`` records: right, off
    by one in either number, or one of ``_BAD_RUNS``."""
    form = draw(st.sampled_from(("right", "right", "length", "count", "bad")))
    if form == "bad":
        return draw(st.sampled_from(_BAD_RUNS))
    if form == "length":
        length += draw(st.sampled_from((-1, 1)))
    elif form == "count":
        count += draw(st.sampled_from((-1, 1)))
    return f"# run {length} {count}"


@st.composite
def run_texts(draw):
    """Schedule text of long runs: chunks of records repeated, with a partial
    last copy, some with a blank, comment or refused line inside, some led
    by a run comment, right or not, at the run's start or before its last
    or partial copy; some lines ended by another ``str.splitlines`` break,
    a line after the last run, maybe a run comment, and sometimes no final
    line break."""
    lines = ["qubits 2", "phase 0.25", "layer 0 0 0 0 1 0 1 0 0 0", "layer 1"]
    comments = []  # the run comments' line indices
    for _ in range(draw(st.integers(1, 3))):
        chunk = draw(st.lists(st.sampled_from(_RECORDS), min_size=1, max_size=6))
        copies = draw(st.integers(1, 80))
        run = chunk * copies + chunk[:draw(st.integers(0, len(chunk)))]
        if draw(st.booleans()):
            run.insert(draw(st.integers(0, len(run))), draw(st.sampled_from(_OTHERS)))
        if draw(st.booleans()):
            at = draw(st.sampled_from((0, len(chunk) * (copies - 1), len(chunk) * copies)))
            run.insert(at, _run_comment(draw, len(chunk), copies - at // len(chunk)))
            comments.append(len(lines) + at)
        lines += run
    last = draw(st.sampled_from(_RECORDS + _OTHERS + ("# run",)))
    if last == "# run":
        last = _run_comment(draw, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        comments.append(len(lines))
    lines.append(last)
    breaks = ["\n"] * len(lines)
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=4)):
        breaks[i] = draw(st.sampled_from(_BREAKS))
    for i in comments:
        if draw(st.integers(0, 3)) == 0:
            breaks[i] = draw(st.sampled_from(_ASCII_BREAKS))
    text = "".join(map(str.__add__, lines, breaks))
    return text[:-len(breaks[-1])] if draw(st.booleans()) else text


@settings(max_examples=300)
@given(text=run_texts())
def test_runs_parse_as_lines_one_at_a_time(text):
    assert _outcome(parse_schedule, text) == _outcome(_parse_lines, text)


#: a one-qubit file head and a two-record step
_HEAD, _STEP = "qubits 1\nlayer 0\n", "local 0\ndrift 0.5\n"


@pytest.mark.parametrize("comment", [
    "# run 1 " + "9" * 5000,  # past ``int``'s digit limit
    "# run 2 " + "9" * 18,  # past what the text can hold
    "# run " + "9" * 18 + " 3",
    "# run 2 0",
    "# run 0 3",
    "# run 2 4",  # a copy too many
    "# run 3 3",  # a record too many
    "# run 2 1",
])
def test_a_run_comment_the_text_does_not_bear_out_is_a_plain_comment(comment):
    text = _HEAD + comment + "\n" + _STEP * 3 + "local 0\n"
    tracemalloc.start()
    try:
        parsed = parse_schedule(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert _outcome(parse_schedule, text) == _outcome(_parse_lines, text)
    assert [count for _, count in parsed.blocks] == [1]
    assert len(parsed) == 7


@pytest.mark.parametrize("other", ["# note", "", "phase 0.5", "layer 1"])
def test_a_run_comment_over_lines_that_are_not_all_records_is_a_plain_comment(other):
    # copies of a header or a layer row are refused line by line, so such a
    # run must not be taken as copies of its records
    text = _HEAD + "# run 2 3\n" + ("local 0\n" + other + "\n") * 3
    assert _outcome(parse_schedule, text) == _outcome(_parse_lines, text)
    if other in ("# note", ""):
        assert [count for _, count in parse_schedule(text).blocks] == [1]


def test_a_long_run_is_compared_in_blocks_of_fixed_size():
    copies = 200_000  # 3.6 MB of copies
    text = _HEAD + f"# run 2 {copies}\n" + _STEP * copies
    tracemalloc.start()
    try:
        parsed = parse_schedule(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block of copies, not the run: ``_STEP * copies`` alone is 3.6 MB
    assert peak < 400_000
    assert [(tuple(body), count) for body, count in parsed.blocks] == [
        ((LocalLayer({}), Drift(0.5)), copies)
    ]
    # a copy that differs in its last character is no run
    broken = text[:-2] + "6\n"
    assert [count for _, count in parse_schedule(broken).blocks] == [1]
    assert _outcome(parse_schedule, broken) == _outcome(_parse_lines, broken)


def test_many_run_comments_that_cannot_be_borne_out_parse_in_linear_time():
    # each comment asks for more lines than are left, or for a copy that
    # differs; scanning the lines left for each comment would take minutes
    lines = ("# run 999999999 2", "local 0", "# run 2 999999999", "drift 0.5", "# run 1 2")
    text = _HEAD + "\n".join(lines * 12_000) + "\n"  # 1 MB
    start = time.perf_counter()
    parsed = parse_schedule(text)
    elapsed = time.perf_counter() - start
    assert [(len(body), count) for body, count in parsed.blocks] == [(24_000, 1)]
    assert elapsed < 5.0  # about 0.1 s


@pytest.mark.parametrize("brk", list("\r\v\f\x1c\x1d\x1e"))
def test_every_ascii_break_ends_a_line_where_splitlines_ends_it(brk):
    # ``split`` would read each of them as blank space inside one line: in
    # the header, it would merge two records into one refused header
    run = "local 0\ndrift 0.5\n" * 300
    texts = {
        "qubits 2" + brk + "phase 0.5\nlayer 0\n" + run + "wobble\n": "line 604: unrecognized record 'wobble'",
        # inside a run's copy, after a run, and on the last line
        "qubits 2\nlayer 0\n" + run + "local 0" + brk + "drift 0.5\n" + run + "wobble": "line 1205:",
        "qubits 2\nlayer 0\n" + run + "drift 0.5" + brk + "drift -1\n": "line 604: drift duration",
        "qubits 2\nlayer 0\n" + run + "drift 0.5" + brk: None,
        "qubits 2" + brk + "layer 0" + brk + "local 0" + brk * 2 + run: None,
    }
    for text, error in texts.items():
        got = _outcome(parse_schedule, text)
        assert got == _outcome(_parse_lines, text)
        if error is None:
            assert got == _outcome(parse_schedule, text.replace(brk, "\n"))
        else:
            assert error in got


@pytest.mark.parametrize("steps,order", [(5000, 1), (4, 2)])
def test_a_parsed_file_evaluates_as_its_instruction_tuple(sample_drift, steps, order):
    text = serialize_schedule(compile_cnot(sample_drift, steps=steps, order=order))
    parsed = parse_schedule(text)
    assert len(text.splitlines()) >= (20_000 if steps == 5000 else 1)
    got = evaluate_schedule(parsed, sample_drift)
    # the same blocks cut from the instruction tuple evaluate bit for bit
    flat, at, blocks = parsed.instructions, 0, []
    for body, count in parsed.blocks:
        blocks.append((flat[at:at + len(body)], count))
        at += len(body) * count
    rebuilt = Schedule(parsed.n, tuple(blocks), parsed.phase)
    assert np.array_equal(got, evaluate_schedule(rebuilt, sample_drift))
    # as one block, the product is grouped otherwise
    whole = Schedule(parsed.n, ((flat, 1),), parsed.phase)
    assert operator_norm(got - evaluate_schedule(whole, sample_drift)) < 1e-12


def test_a_compiled_file_parses_into_its_runs(sample_drift):
    sched = compile_cnot(sample_drift, steps=5000, order=1)
    text = serialize_schedule(sched)
    parsed = parse_schedule(text)
    # 20,009 records and one run comment
    assert len(text.splitlines()) == 20_010
    # a short body repeated thousands of times between short ones, all
    # of them views of one table of the distinct instructions: the blocks
    # that were written
    assert _shapes(parsed) == _shapes(sched)
    assert any(len(body) <= 4 and count >= 1000 for body, count in parsed.blocks)
    assert len(parsed.table) == len(set(parsed.instructions))
    assert all(body.table is parsed.table for body, _ in parsed.blocks)
    assert serialize_schedule(parsed) == text


def test_a_parsed_file_holds_the_blocks_that_were_written(sample_drift):
    chain4 = xz_chain(4)
    pair = build_expansion(2, [("XX", 0.7), ("ZZ", 0.2), ("IZ", -0.3)])
    scheds = [
        compile_schedule(sample_drift, pair, 0.5, steps=7, order=2),
        compile_on_pair(chain4, (1, 2), pair, 0.5, steps=5, order=1),
        compile_cnot(sample_drift, steps=9, order=1),
        compile_cnot(sample_drift, steps=9, order=2),
        compile_remote(chain4, 0, 3, pair, 0.5, epsilon=1e-2, order=2),
    ]
    for sched in scheds:
        parsed = parse_schedule(serialize_schedule(sched))
        # a compile's blocks have no two of count 1 in a row, so the file
        # reads back its blocks, and the product is grouped alike
        assert _shapes(parsed) == _shapes(sched)
        assert any(count > 1 for _, count in parsed.blocks)
        drift = sample_drift if sched.n == 2 else chain4
        assert np.array_equal(evaluate_schedule(parsed, drift), evaluate_schedule(sched, drift))


def test_schedule_parse_ignores_spelling_of_repeated_records():
    x_row = "layer 0 0 0 0 1 0 1 0 0 0"
    text = (
        f"qubits 1\n{x_row}\n"
        "local 0\ndrift 0.5\n"
        "local 0  # again\n  drift   0.5\n"
        "local 00\ndrift 0.5 # a comment\n"
        "local 0\ndrift 0.5\n"
    )
    listing = parse_schedule(text).blocks[0][0]
    ins = tuple(listing)
    x = LocalLayer({0: np.array([[0, 1], [1, 0]], dtype=complex)})
    assert list(ins) == [x, Drift(0.5)] * 4
    assert ins == (x, Drift(0.5)) * 4 and ins[1:4] == (Drift(0.5), x, Drift(0.5))
    # every spelling of one layer id names the one layer it declared
    assert all(ins[k] is ins[0] for k in (2, 4, 6))
    # a repeated line shares the instruction its first occurrence made
    assert ins[7] is ins[1]
    # every spelling of one drift names one instruction, interned by value
    assert ins[3] is ins[1] and ins[5] is ins[1]
    table, walked = interned(ins)
    assert listing.table[0] is ins[0] and listing.table[1] is ins[1] and len(listing.table) == 2
    assert table == list(listing.table)
    assert listing.ids.tolist() == walked == [0, 1] * 4


def test_format_report_is_deterministic():
    items = [("command", "check"), ("ok", True), ("value", 1.0 / 3.0), ("count", 7)]
    a = format_report(items)
    assert a == format_report(list(items))
    assert "value 0.33333333333333331" in a
    assert "ok yes" in a
    assert "count 7" in a


def test_float_formatting_round_trips_exactly():
    vals = [math.pi, 1.0 / 3.0, 2.0 ** -52, -0.0, 1e300, 4935.0]
    for v in vals:
        assert float("%.17g" % v) == v

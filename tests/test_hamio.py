"""Text formats: exact round trips and line-numbered parse errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_layer, random_two_body
from hamrc import (
    Drift,
    LocalLayer,
    ParseError,
    Schedule,
    build_expansion,
    compile_cnot,
    evaluate_schedule,
    format_report,
    parse_hamfile,
    parse_schedule,
    serialize_hamfile,
    serialize_schedule,
)
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
    ],
)
def test_schedule_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_schedule(text)
    assert f"line {lineno}:" in str(err.value)


def test_a_second_qubits_record_is_named_as_repeated():
    with pytest.raises(ParseError, match="repeated 'qubits' record"):
        parse_schedule("qubits 2\ndrift 0.5\nqubits 3\n")


def test_schedule_layer_cannot_grow_after_use():
    row = "layer 0 0 0 0 1 0 1 0 0 0"  # X gate
    text = f"qubits 2\n{row}\nlocal 0\nlayer 0 1 0 0 1 0 1 0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_schedule(text)
    assert "line 4:" in str(err.value)


@st.composite
def record_schedules(draw):
    """A repeated step and an unrepeated tail over a few distinct records.

    The pool holds random and identity layers (reused as objects or as
    value-equal copies) and drifts with both signed zeros.
    """
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [random_layer(rng, n) for _ in range(draw(st.integers(1, 3)))]
    pool += [LocalLayer({}), Drift(0.0), Drift(-0.0)]
    pool += [Drift(float(t)) for t in rng.uniform(0.0, 1.0, size=draw(st.integers(1, 3)))]
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
    # a parsed file is one block (none when empty), a listing interned
    # from its table as a walk over its instructions is
    assert [(type(body), k) for body, k in back.blocks] == [(Listing, 1)] * bool(len(back))
    for listing, _ in back.blocks:
        walked = Listing(tuple(listing))
        assert len(listing.table) == len(walked.table)
        assert all(a is b for a, b in zip(listing.table, walked.table))
        assert listing.ids.tolist() == walked.ids.tolist()


@pytest.mark.parametrize("steps,order", [(5000, 1), (4, 2)])
def test_a_parsed_file_evaluates_as_its_instruction_tuple(sample_drift, steps, order):
    text = serialize_schedule(compile_cnot(sample_drift, steps=steps, order=order))
    parsed = parse_schedule(text)
    assert len(text.splitlines()) >= (40_000 if steps == 5000 else 1)
    flat = Schedule(parsed.n, ((parsed.instructions, 1),), parsed.phase)
    assert np.array_equal(evaluate_schedule(parsed, sample_drift), evaluate_schedule(flat, sample_drift))


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
    walked = Listing(ins)
    assert listing.table[0] is ins[0] and listing.table[1] is ins[1] and len(listing.table) == 2
    assert listing.ids.tolist() == walked.ids.tolist() == [0, 1] * 4


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

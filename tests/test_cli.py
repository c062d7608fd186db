"""Command-line behavior: reports, exit codes, determinism."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hamrc
from conftest import xz_chain
from hamrc import (
    CNOT_MATRIX,
    compile_on_pair,
    distance,
    evaluate_schedule,
    parse_hamfile,
    parse_schedule,
    serialize_hamfile,
    serialize_schedule,
)
from hamrc.bounds import ROUNDING, plan_steps
from hamrc.cli import main

DRIFT = "qubits 2\n1 0:Z\n2 0:X 1:Z\n1 0:Z 1:Z\n"
ZZ = "qubits 2\n1 0:Z 1:Z\n"
CHAIN = (
    "qubits 4\n"
    "1 0:X 1:X\n0.8 1:X 2:X\n1.2 2:X 3:X\n"
    "0.3 0:Z\n-0.4 1:Z\n0.5 2:Z\n0.2 3:Z\n"
)
ISOLATED = "qubits 3\n1 0:X 1:X\n0.5 2:Z\n"
TINY = "qubits 2\n1e-13 0:Z\n2e-13 0:X 1:Z\n1e-13 0:Z 1:Z\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("drift", DRIFT), ("zz", ZZ), ("chain", CHAIN), ("iso", ISOLATED),
        ("tiny", TINY),
    ]:
        p = tmp_path / f"{name}.ham"
        p.write_text(text)
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def test_check_reports_connectivity(files, capsys):
    assert main(["check", files["drift"]]) == 0
    out = capsys.readouterr().out
    assert "entangling yes" in out
    assert "edges 0:1" in out
    assert "components 0,1" in out


def test_check_flags_disconnected_registers(files, capsys):
    assert main(["check", files["iso"]]) == 3
    out = capsys.readouterr().out
    assert "entangling no" in out
    assert "components 0,1|2" in out


def test_uniformly_tiny_drift_keeps_its_terms_and_compiles(files, capsys):
    assert main(["check", files["tiny"]]) == 0
    out = capsys.readouterr().out
    assert "terms 3" in out
    assert "entangling yes" in out
    out_path = str(files["tmp"] / "tiny.hrs")
    assert main([
        "compile", files["tiny"], "--gate", "cnot",
        "--epsilon", "1e-2", "--out", out_path,
    ]) == 0
    capsys.readouterr()
    assert main(["verify", files["tiny"], out_path, "--gate", "cnot"]) == 0
    assert "pass yes" in capsys.readouterr().out


def test_parse_errors_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.ham"
    bad.write_text("qubits 2\n1 0:Q\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert main(["check", str(tmp_path / "missing.ham")]) == 2


def test_compile_cnot_writes_schedule_and_verifies(files, capsys):
    out_path = str(files["tmp"] / "cnot.hrs")
    code = main([
        "compile", files["drift"], "--gate", "cnot",
        "--epsilon", "1e-3", "--out", out_path,
    ])
    assert code == 0
    summary = capsys.readouterr().out
    assert "steps 16" in summary
    assert "raw_drift_periods 48" in summary

    sched = parse_schedule(Path(out_path).read_text())
    drift = parse_hamfile(DRIFT)
    assert distance(CNOT_MATRIX, evaluate_schedule(sched, drift)) < 1e-3

    assert main(["verify", files["drift"], out_path, "--gate", "cnot"]) == 0
    report = capsys.readouterr().out
    assert "pass yes" in report


def test_compile_without_out_prints_the_schedule(files, capsys):
    code = main([
        "compile", files["drift"], "--gate", "cnot", "--steps", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("qubits 2\n")
    assert "drift" in out


def test_compile_output_is_deterministic(files, capsys):
    argv = ["compile", files["drift"], "--target", files["zz"],
            "--t", "1.0", "--epsilon", "1e-2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_compile_pair_routes_when_not_adjacent(files, capsys):
    code = main([
        "compile", files["chain"], "--target", files["zz"],
        "--t", "0.5", "--epsilon", "1e-2", "--pair", "0", "3",
        "--out", str(files["tmp"] / "remote.hrs"),
    ])
    assert code == 0
    assert "predicted_error" in capsys.readouterr().out
    code = main([
        "verify", files["chain"], str(files["tmp"] / "remote.hrs"),
        "--target", files["zz"], "--t", "0.5", "--pair", "0", "3",
    ])
    assert code == 0


def test_routing_requires_a_path(files, capsys):
    split = files["tmp"] / "split.ham"
    split.write_text("qubits 4\n1 0:X 1:X\n1 2:X 3:X\n")
    code = main([
        "compile", str(split), "--target", files["zz"],
        "--t", "0.5", "--epsilon", "1e-2", "--pair", "0", "3",
    ])
    assert code == 3
    assert "no coupling path" in capsys.readouterr().err


def test_verify_failure_exits_5(files, capsys):
    out_path = str(files["tmp"] / "rough.hrs")
    main(["compile", files["drift"], "--gate", "cnot", "--steps", "2",
          "--out", out_path])
    capsys.readouterr()
    code = main([
        "verify", files["drift"], out_path, "--gate", "cnot",
        "--tolerance", "1e-8",
    ])
    assert code == 5
    captured = capsys.readouterr()
    assert "pass no" in captured.out
    assert "exceeds tolerance" in captured.err


def test_verify_needs_some_tolerance(files, capsys):
    out_path = str(files["tmp"] / "steps.hrs")
    main(["compile", files["drift"], "--gate", "cnot", "--steps", "4",
          "--out", out_path])
    capsys.readouterr()
    # a steps-only schedule carries no budget, so --tolerance is required
    code = main(["verify", files["drift"], out_path, "--gate", "cnot"])
    assert code == 2


def test_bound_command_prints_plan(files, capsys):
    assert main(["bound", files["drift"], "--gate", "cnot",
                 "--epsilon", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "bound second_order_cnot" in out
    assert "steps 16" in out

    assert main(["bound", files["drift"], "--target", files["zz"],
                 "--t", "1.0", "--epsilon", "1e-2"]) == 0
    out = capsys.readouterr().out
    assert "bound chained" in out
    assert "\nrate " in out

    assert main(["bound", files["drift"], "--target", files["zz"],
                 "--t", "1.0", "--epsilon", "1e-2", "--bound", "chained"]) == 0
    assert capsys.readouterr().out == out


CHAIN3 = "qubits 3\n1 0:X 1:Z\n1.05 1:X 2:Z\n0.1 0:Z\n0.17 1:Z\n0.24 2:Z\n"
TWO_COUPLINGS = "qubits 2\n0.5 0:X 1:X\n-0.25 0:Z 1:Y\n1 0:Z\n"


def _report(text):
    return dict(line.split(" ", 1) for line in text.splitlines())


@pytest.mark.parametrize("drift, pair", [(DRIFT, None), (CHAIN3, (1, 2))], ids=["pair", "on-pair"])
@pytest.mark.parametrize("order", ["1", "2"])
def test_bound_plans_the_merged_model_that_compile_runs(files, capsys, drift, pair, order):
    # both targets' models hold framed drifts that are one operator, so the
    # plans would differ if bound planned the model before the merge
    from hamrc.decouple import pair_step_model
    from hamrc.synth import merge_framed_drifts, step_model

    drift_path, target_path = files["tmp"] / "d.ham", files["tmp"] / "t.ham"
    drift_path.write_text(drift)
    target_path.write_text(TWO_COUPLINGS)
    ham, target = parse_hamfile(drift), parse_hamfile(TWO_COUPLINGS)
    model = step_model(ham, target) if pair is None else pair_step_model(ham, pair, target)
    assert merge_framed_drifts(model).raw_drifts_per_step(1) < model.raw_drifts_per_step(1)

    argv = [str(drift_path), "--target", str(target_path), "--t", "0.5",
            "--epsilon", "1e-2", "--order", order]
    if pair is not None:
        argv += ["--pair", *map(str, pair)]
    assert main(["bound", *argv]) == 0
    planned = _report(capsys.readouterr().out)
    assert main(["compile", *argv, "--out", str(files["tmp"] / "s.hrs")]) == 0
    compiled = _report(capsys.readouterr().out)
    assert planned["bound"] == compiled["bound"] == "chained"
    assert planned["steps"] == compiled["steps"]
    assert planned["predicted_error"] == compiled["predicted_error"]


def test_chained_bound_on_an_uncoupled_target_is_exact(files, capsys):
    drift = files["tmp"] / "uncoupled.ham"
    drift.write_text("qubits 2\n1 0:Z\n0.5 1:X\n")
    local = files["tmp"] / "local.ham"
    local.write_text("qubits 2\n0.3 0:Z\n-0.2 1:X\n")
    assert main(["bound", str(drift), "--target", str(local), "--t", "1.0",
                 "--epsilon", "1e-2", "--bound", "chained"]) == 0
    out = capsys.readouterr().out
    assert "steps 1\n" in out
    assert "predicted_error 0" in out
    # a coupled target still needs a coupled drift
    assert main(["bound", str(drift), "--target", files["zz"], "--t", "1.0",
                 "--epsilon", "1e-2", "--bound", "chained"]) == 3


def test_infeasible_budget_exits_4(files, capsys):
    code = main(["bound", files["drift"], "--gate", "cnot",
                 "--epsilon", "1e-30"])
    assert code == 4
    assert "steps" in capsys.readouterr().err


def test_dense_cap_env_override(files, capsys, monkeypatch):
    out_path = str(files["tmp"] / "cap.hrs")
    main(["compile", files["drift"], "--gate", "cnot", "--steps", "4",
          "--out", out_path])
    capsys.readouterr()
    monkeypatch.setenv("HAMRC_DENSE_CAP", "1")
    code = main(["verify", files["drift"], out_path, "--gate", "cnot",
                 "--tolerance", "0.1"])
    assert code == 4
    assert "dense cap" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["compile", "verify", "bound"])
def test_malformed_dense_cap_exits_2(files, capsys, monkeypatch, cmd):
    sched = files["tmp"] / "pair.hrs"
    sched.write_text("qubits 2\ndrift 0.1\n")
    target = ["--target", files["zz"], "--t", "0.5"]
    argv = {
        "compile": ["compile", files["drift"], *target, "--epsilon", "1e-2"],
        "verify": ["verify", files["drift"], str(sched), *target, "--tolerance", "1"],
        "bound": ["bound", files["drift"], *target, "--epsilon", "1e-2"],
    }[cmd]
    monkeypatch.setenv("HAMRC_DENSE_CAP", "ten")
    assert main(argv) == 2
    assert "HAMRC_DENSE_CAP must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["verify", "compile"])
def test_dense_cap_refuses_before_any_dense_build(files, capsys, monkeypatch, cmd):
    import hamrc.dense
    import hamrc.schedule

    sched = files["tmp"] / "chain.hrs"
    sched.write_text("qubits 4\ndrift 0.1\n")

    def no_dense(ham):
        raise AssertionError("dense build before the cap check")

    # verify's and measure's goal builder, dense.evolution, looks its dense
    # builder up in dense; both build the drift in schedule._drift_eigh
    for mod in (hamrc.schedule, hamrc.dense):
        monkeypatch.setattr(mod, "dense_of_expansion", no_dense)
    monkeypatch.setenv("HAMRC_DENSE_CAP", "3")
    target = ["--target", files["zz"], "--t", "0.5", "--pair", "0", "1"]
    argv = {
        "verify": ["verify", files["chain"], str(sched), *target, "--tolerance", "1"],
        "compile": ["compile", files["chain"], *target, "--epsilon", "1e-2",
                    "--bound", "empirical"],
    }[cmd]
    assert main(argv) == 4
    assert "exceeds dense cap 3" in capsys.readouterr().err


def _chain_compile(files, n, *count):
    """``compile`` of the pair target ZZ on sites 0 and 1 of an n-site XZ
    chain: its exit code and the path of its schedule."""
    drift = files["tmp"] / f"chain{n}.ham"
    drift.write_text(serialize_hamfile(xz_chain(n)))
    out = files["tmp"] / f"chain{n}.hrs"
    code = main(["compile", str(drift), "--target", files["zz"], "--t", "1.0",
                 "--pair", "0", "1", *count, "--out", str(out)])
    return code, str(drift), str(out)


def test_a_plan_past_the_dense_cap_is_chained_and_verify_refuses(files, capsys):
    code, drift, out = _chain_compile(files, 24, "--epsilon", "1e-2")
    assert code == 0
    assert "bound chained" in capsys.readouterr().out
    assert main(["verify", drift, out, "--target", files["zz"], "--t", "1.0",
                 "--pair", "0", "1"]) == 4
    assert "exceeds dense cap" in capsys.readouterr().err


def test_a_32_site_compile_builds_nothing_of_register_size(files, capsys):
    # a table of 2^32 signs, or any array of 2^32 entries, would not fit
    tracemalloc.start()
    try:
        code, _, _ = _chain_compile(files, 32, "--steps", "26")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "n, order, steps",
    [(16, 1, 41), (32, 1, 52), (48, 1, 64), (16, 2, 4), (32, 2, 4), (48, 2, 4)],
)
def test_bound_past_the_dense_cap_builds_nothing_of_register_size(
    files, capsys, n, order, steps
):
    # every split fits on at most 4 sites, so its norms are dense there and
    # the rate is a 10-site chain's: no norm of size 2^n.  At order 1 the
    # leading-error bound's remainder grows with the register's 1-norm, so
    # it sets the count at 16 and 32 sites and the rate's 64 steps at 48
    drift = files["tmp"] / f"chain{n}.ham"
    drift.write_text(serialize_hamfile(xz_chain(n)))
    target = files["tmp"] / "pair.ham"
    target.write_text("qubits 2\n0.7 0:X 1:X\n0.2 0:Z 1:Z\n-0.3 1:Z\n")
    tracemalloc.start()
    try:
        code = main(["bound", str(drift), "--target", str(target), "--t", "1.0",
                     "--pair", "0", "1", "--epsilon", "1e-2", "--order", str(order)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    out = capsys.readouterr().out
    assert "bound chained" in out and f"steps {steps}\n" in out
    if order == 1:
        assert ("set_by rate\n" if n == 48 else "set_by leading\n") in out
    assert peak < 16 * 2**20


def test_gate_rejects_time_flag(files, capsys):
    code = main(["compile", files["drift"], "--gate", "cnot",
                 "--steps", "4", "--t", "1.0"])
    assert code == 2
    code = main(["compile", files["drift"], "--target", files["zz"],
                 "--steps", "4"])
    assert code == 2


@pytest.mark.parametrize("cmd", ["compile", "verify", "bound"])
def test_gate_rejects_pair_flag(files, capsys, cmd):
    out_path = str(files["tmp"] / "cnot.hrs")
    main(["compile", files["drift"], "--gate", "cnot", "--steps", "4",
          "--out", out_path])
    capsys.readouterr()
    argv = {
        "compile": ["compile", files["drift"], "--epsilon", "1e-2"],
        "verify": ["verify", files["drift"], out_path, "--tolerance", "1"],
        "bound": ["bound", files["drift"], "--epsilon", "1e-2"],
    }[cmd]
    # the CNOT's control is always qubit 0, so a pair would be ignored
    assert main(argv + ["--gate", "cnot", "--pair", "1", "0"]) == 2
    assert "drop --pair" in capsys.readouterr().err


def test_uncoupled_pair_is_named_by_register_sites(files, capsys):
    # sites the drift couples only through others are routed, by bound as by compile
    code = main(["bound", files["chain"], "--target", files["zz"], "--t", "0.5",
                 "--pair", "0", "3", "--epsilon", "1e-2"])
    assert code == 0
    assert "segments 5\n" in capsys.readouterr().out
    # sites with no coupling path between them are refused by both
    argv = [files["iso"], "--target", files["zz"], "--t", "0.5",
            "--pair", "0", "2", "--epsilon", "1e-2"]
    for command in ("bound", "compile"):
        assert main([command, *argv]) == 3
        assert "no coupling path between 0 and 2" in capsys.readouterr().err


def test_bound_plans_a_routed_pair_as_compile_does(files, capsys):
    # the 0 -> 3 route is two swaps, the core and the same swaps back: one
    # line per product segment, in program order, and the summed
    # prediction is compile's, under the default bound and under chained
    for bound in ([], ["--bound", "chained"]):
        argv = [files["chain"], "--target", files["zz"], "--t", "0.5", "--pair", "0", "3",
                "--epsilon", "1e-2", *bound]
        assert main(["bound", *argv]) == 0
        text = capsys.readouterr().out
        assert main(["bound", *argv]) == 0
        assert capsys.readouterr().out == text
        planned = _report(text)
        assert main(["compile", *argv, "--out", str(files["tmp"] / "far.hrs")]) == 0
        compiled = _report(capsys.readouterr().out)
        assert list(planned) == [
            "command", "order", "epsilon", "predicted_error", "segments",
            *(f"segment_{k}" for k in range(1, 6)),
        ]
        assert planned["segments"] == "5"
        assert planned["predicted_error"] == compiled["predicted_error"]
        assert "bound" not in compiled
        lines = [planned[f"segment_{k}"].split() for k in range(1, 6)]
        assert lines[0] == lines[4] and lines[1] == lines[3] and lines[0] != lines[2]
        for line in lines:
            kind, _, steps, _, predicted, *rest = line
            assert kind == (bound[1] if bound else "empirical")
            assert int(steps) >= 1 and float(predicted) > 0
            # an order-1 chained count is set by the rate or the leading-error bound
            assert rest in ([["set_by", "rate"], ["set_by", "leading"]] if bound else [[]])
        assert float(planned["predicted_error"]) == sum(float(line[4]) for line in lines)


@pytest.mark.parametrize("command", ["bound", "compile"])
@pytest.mark.parametrize("epsilon", ["0", "-1"])
def test_a_bad_routed_budget_exits_2(files, capsys, command, epsilon):
    assert main([command, files["chain"], "--target", files["zz"], "--t", "0.5",
                 "--pair", "0", "3", "--epsilon", epsilon]) == 2
    assert "error budget must be positive" in capsys.readouterr().err


def test_bound_gate_needs_a_two_qubit_drift_as_compile_does(files, capsys):
    argv = [files["chain"], "--gate", "cnot", "--epsilon", "1e-2"]
    assert main(["compile"] + argv) == 2
    assert main(["bound"] + argv) == 2


def test_target_on_a_larger_register_needs_a_pair(files, capsys):
    code = main(["compile", files["chain"], "--target", files["zz"],
                 "--t", "0.5", "--epsilon", "1e-2"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_routed_pair_rejects_explicit_steps(files, capsys):
    code = main(["compile", files["chain"], "--target", files["zz"],
                 "--t", "0.5", "--pair", "0", "3", "--steps", "3"])
    assert code == 2


def test_adjacent_pair_writes_the_compile_on_pair_schedule(files, capsys):
    out_path = files["tmp"] / "pair.hrs"
    report = files["tmp"] / "pair.txt"
    code = main(["compile", files["chain"], "--target", files["zz"],
                 "--t", "0.5", "--pair", "1", "2", "--epsilon", "1e-2",
                 "--out", str(out_path), "--report", str(report)])
    assert code == 0
    want = compile_on_pair(parse_hamfile(CHAIN), (1, 2), parse_hamfile(ZZ), 0.5,
                           epsilon=1e-2)
    text = out_path.read_text()
    assert text == serialize_schedule(want)
    assert "phase -0\n" in text
    lines = report.read_text().splitlines()
    for line in ("bound chained", "order 1", f"steps {want.plan.steps}",
                 f"delta {want.plan.delta:.17g}"):
        assert line in lines


def test_reports_can_go_to_files(files, tmp_path):
    report = tmp_path / "check.txt"
    assert main(["check", files["drift"], "--report", str(report)]) == 0
    assert "entangling yes" in report.read_text()


def test_compile_summary_and_report_file_are_the_same_bytes(files, capsys):
    out_path = files["tmp"] / "pair.hrs"
    report = files["tmp"] / "pair.txt"
    assert main(["compile", files["chain"], "--target", files["zz"], "--t", "0.5",
                 "--pair", "1", "2", "--epsilon", "1e-2",
                 "--out", str(out_path), "--report", str(report)]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("command compile\n")
    assert report.read_bytes() == summary.encode("utf-8")


@pytest.mark.parametrize("coefficient", ["nan", "inf", "-inf"])
def test_non_finite_inputs_exit_2(files, capsys, coefficient):
    bad = files["tmp"] / "bad.ham"
    bad.write_text(f"qubits 2\n1 0:Z\n{coefficient} 0:X 1:Z\n")
    assert main(["compile", str(bad), "--gate", "cnot", "--steps", "2"]) == 2
    assert "line 3" in capsys.readouterr().err
    assert main(["compile", files["drift"], "--target", str(bad), "--t", "0.5",
                 "--epsilon", "1e-2"]) == 2
    assert "line 3" in capsys.readouterr().err

    sched = files["tmp"] / "bad.hrs"
    sched.write_text(f"qubits 2\npredicted 0.1\ndrift 0.25\ndrift {coefficient}\n")
    assert main(["verify", files["drift"], str(sched), "--gate", "cnot"]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "{big}"],
    ["compile", "{big}", "--gate", "cnot", "--epsilon", "1e-2"],
    ["bound", "{big}", "--gate", "cnot", "--epsilon", "1e-2"],
    ["verify", "{big}", "{sched}", "--gate", "cnot"],
], ids=["check", "compile", "bound", "verify"])
def test_an_overflowing_drift_is_refused_at_parse(files, capsys, argv):
    # each coefficient is finite, but their magnitudes sum to inf, so the
    # drift's norms and matrices would hold inf and nan
    big = files["tmp"] / "big.ham"
    big.write_text("qubits 2\n1e308 0:Z 1:Z\n1e308 0:Z\n")
    sched = files["tmp"] / "cnot.hrs"
    main(["compile", files["drift"], "--gate", "cnot", "--steps", "4", "--out", str(sched)])
    capsys.readouterr()
    assert main([a.format(big=big, sched=sched) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "sum past the float range" in err


def test_a_coupling_near_the_float_maximum_compiles(files, capsys):
    # a finite drift whose coupling is near the float maximum: each frame's
    # rate is |c| / |h| / 4, and the frames' check divides before it sums,
    # so neither overflows
    big = files["tmp"] / "big.ham"
    big.write_text("qubits 2\n1e308 0:Z 1:Z\n")
    out_path = str(files["tmp"] / "big.hrs")
    argv = ["--gate", "cnot", "--epsilon", "1e-2"]
    assert main(["compile", str(big), *argv, "--out", out_path]) == 0
    capsys.readouterr()
    assert main(["verify", str(big), out_path, "--gate", "cnot"]) == 0
    assert "pass yes" in capsys.readouterr().out
    assert main(["bound", str(big), *argv]) == 0
    assert "steps " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["compile", "{drift}", "--gate", "cnot", "--epsilon", "1e-2", "--out", "{out}"],
    ["check", "{drift}", "--report", "{out}"],
], ids=["compile-out", "check-report"])
def test_an_unwritable_output_exits_2(files, capsys, argv):
    out = files["tmp"] / "missing" / "x.sch"
    assert main([a.format(out=out, **files) for a in argv]) == 2
    assert f"cannot write {out}: No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["predicted -0.5", "periods -3"])
def test_negative_schedule_fields_exit_2(files, capsys, record):
    # a negative prediction used to become a negative verify tolerance
    sched = files["tmp"] / "negative.hrs"
    sched.write_text(f"qubits 2\ndrift 0.25\n{record}\ndrift 0.5\n")
    code = main(["verify", files["drift"], str(sched), "--gate", "cnot",
                 "--tolerance", "10"])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


_TARGET = ["--target", "{zz}", "--t", "0.5"]


@pytest.mark.parametrize("argv", [
    ["compile", "{drift}", *_TARGET, "--epsilon", "nan", "--bound", "empirical"],
    ["compile", "{drift}", *_TARGET, "--epsilon", "nan"],
    ["compile", "{drift}", "--target", "{zz}", "--t", "inf", "--epsilon", "1e-2"],
    ["verify", "{drift}", "{sched}", "--gate", "cnot", "--tolerance", "nan"],
], ids=["epsilon-empirical", "epsilon-chained", "t", "tolerance"])
def test_non_finite_numbers_on_the_command_line_exit_2(files, capsys, argv):
    sched = str(files["tmp"] / "cnot.hrs")
    main(["compile", files["drift"], "--gate", "cnot", "--steps", "4",
          "--out", sched])
    capsys.readouterr()
    argv = [a.format(sched=sched, **files) for a in argv]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compile", "{drift}", *_TARGET, "--epsilon", "1e-2", "--bound", "global"],
    ["bound", "{drift}", *_TARGET, "--epsilon", "1e-2", "--bound", "global"],
    ["bound", "{drift}", *_TARGET, "--epsilon", "1e-2", "--C", "1e4"],
], ids=["compile-global", "bound-global", "bound-C"])
def test_the_global_bound_and_its_constant_are_gone(files, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main([a.format(**files) for a in argv])
    assert exit_.value.code == 2


def test_negative_tolerance_exits_2(files, capsys):
    # every measured error would exceed it, so the verdict would say nothing
    sched = str(files["tmp"] / "cnot.hrs")
    main(["compile", files["drift"], "--gate", "cnot", "--steps", "4",
          "--out", sched])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["verify", files["drift"], sched, "--gate", "cnot", "--tolerance", "-1"])
    assert exit_.value.code == 2
    assert "tolerance must be >= 0" in capsys.readouterr().err
    assert main(["verify", files["drift"], sched, "--gate", "cnot", "--tolerance", "0"]) == 5


def test_an_order_one_chained_bound_reports_both_bounds(files, capsys):
    argv = [files["chain"], "--target", files["zz"], "--t", "0.5", "--pair", "0", "1",
            "--epsilon", "1e-2"]
    assert main(["bound", *argv]) == 0
    planned = _report(capsys.readouterr().out)
    assert list(planned)[-4:] == ["rate", "a", "b", "set_by"]
    rate, a, b = (float(planned[k]) for k in ("rate", "a", "b"))
    steps, delta = int(planned["steps"]), float(planned["delta"])
    # the count is the smaller of the two bounds' counts, and the plan
    # predicts the smaller bound at it
    by_rate = plan_steps("chained", 1e-2, 0.5, order=1, rate=rate)
    assert steps <= by_rate.steps
    assert planned["set_by"] == ("rate" if steps == by_rate.steps else "leading")
    predicted = min(steps * rate * delta**2, steps * (a * delta * delta + b * delta * delta * delta))
    assert float(planned["predicted_error"]) == pytest.approx(predicted, rel=1e-15)
    # order 2 has one bound
    assert main(["bound", *argv, "--order", "2"]) == 0
    assert list(_report(capsys.readouterr().out))[-1] == "rate"


@pytest.mark.parametrize("command", ["bound", "compile"])
def test_an_overflowing_bound_is_infeasible(files, capsys, command):
    # (t/N)^(order+1) overflows at --t 1e300: no step count can be planned
    target = files["tmp"] / "xx.ham"
    target.write_text("qubits 2\n0.7 0:X 1:X\n")
    argv = [command, files["drift"], "--target", str(target), "--t", "1e300", "--epsilon", "1e-2"]
    assert main(argv) == 4
    assert "needs more than" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["1", "1e300"])
def test_a_rate_zero_plan_is_one_exact_step_at_any_time(files, capsys, t):
    # a local target is made by local pulses alone, so its bound is 0
    target = files["tmp"] / "z.ham"
    target.write_text("qubits 2\n0.5 0:Z\n")
    argv = ["--target", str(target), "--t", t, "--epsilon", "1e-2"]
    assert main(["bound", files["drift"], *argv]) == 0
    report = capsys.readouterr().out
    assert "rate 0\n" in report and "steps 1\n" in report and "predicted_error 0\n" in report
    assert main(["compile", files["drift"], *argv, "--out", str(files["tmp"] / "z.hrs")]) == 0
    assert "predicted_error 0\n" in capsys.readouterr().out


def test_one_process_runs_commands_as_separate_processes_do(files, capsys):
    # main reuses one parser; a refused argv must leave it as it was
    sched = str(files["tmp"] / "cnot.hrs")
    report = files["tmp"] / "report.txt"
    commands = [
        ["check", files["drift"]],
        ["compile", files["drift"], "--gate", "cnot", "--epsilon", "1e-3", "--out", sched],
        ["verify", files["drift"], sched, "--gate", "cnot", "--tolerance", "-1"],
        ["verify", files["drift"], sched, "--gate", "cnot"],
        ["bound", files["drift"], "--gate", "cnot", "--epsilon", "1e-3"],
    ]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    def separate(argv):
        env = {**os.environ, "PYTHONPATH": str(Path(hamrc.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "hamrc.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout

    def runs(run):
        out = []
        for argv in commands:
            report.unlink(missing_ok=True)
            out.append((*run(argv + ["--report", str(report)]),
                        report.read_text() if report.exists() else None))
        return out

    together = runs(in_process)
    assert [code for code, *_ in together] == [0, 0, 2, 0, 0]
    assert runs(separate) == together


@pytest.mark.parametrize("cmd", ["compile", "bound"])
def test_gate_rejects_bound_flag(files, capsys, cmd):
    # the CNOT plans its body from its own bound kind, so --bound would be ignored
    argv = [cmd, files["drift"], "--gate", "cnot", "--epsilon", "1e-2",
            "--bound", "empirical"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "drop --bound" in captured.err
    assert captured.out == ""


XZ_PAIR = "qubits 2\n0.7 0:X 1:X\n0.2 0:Z 1:Z\n-0.3 1:Z\n"
ZZ_ZI = "qubits 2\n1 0:Z 1:Z\n0.3 0:Z\n"
HALF_XX = "qubits 2\n0.5 0:X 1:X\n"


@pytest.mark.parametrize(
    "drift,target,where,plan",
    [
        # an empirical plan records the error of the step power, and the
        # canonical schedule that verify evaluates rounds differently
        pytest.param(CHAIN, XZ_PAIR, ["--t", "0.5", "--pair", "0", "1"],
                     ["--bound", "empirical", "--epsilon", eps, "--order", order],
                     id=f"empirical-e{eps}-o{order}")
        for eps in ("1e-2", "7e-3", "5e-3", "3e-3", "2e-3", "1e-3")
        for order in ("1", "2")
    ] + [
        # an exact chained plan predicts 0 for a product that rounds to ~1e-15
        pytest.param(ZZ_ZI, HALF_XX, ["--t", "1.3"], ["--epsilon", "1e-3"],
                     id="exact-chained"),
    ],
)
def test_compiled_schedule_passes_verify_within_the_rounding_allowance(
    tmp_path, capsys, drift, target, where, plan
):
    drift_path, target_path = tmp_path / "drift.ham", tmp_path / "target.ham"
    drift_path.write_text(drift)
    target_path.write_text(target)
    sched = tmp_path / "s.hrs"
    where = ["--target", str(target_path)] + where
    assert main(["compile", str(drift_path), *where, *plan, "--out", str(sched)]) == 0
    predicted = parse_schedule(sched.read_text()).predicted_error
    capsys.readouterr()
    assert main(["verify", str(drift_path), str(sched), *where]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "pass yes" in lines
    assert f"tolerance {predicted + ROUNDING:.17g}" in lines
    # an explicit tolerance is compared as given
    main(["verify", str(drift_path), str(sched), *where, "--tolerance", repr(predicted)])
    assert f"tolerance {predicted:.17g}" in capsys.readouterr().out.splitlines()


def test_compile_rejects_bound_with_steps(files, capsys):
    # a --steps compile plans nothing, so the bound kind would be dropped
    argv = ["compile", files["drift"], "--target", files["zz"], "--t", "1.0",
            "--steps", "3", "--bound", "chained"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "drop --bound" in captured.err
    assert captured.out == ""

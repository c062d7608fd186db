"""Command-line behavior: reports, exit codes, determinism."""

import numpy as np
import pytest

from hamrc import (
    CNOT_MATRIX,
    compile_on_pair,
    distance,
    evaluate_schedule,
    parse_hamfile,
    parse_schedule,
    serialize_schedule,
)
from hamrc.cli import main

DRIFT = "qubits 2\n1 0:Z\n2 0:X 1:Z\n1 0:Z 1:Z\n"
ZZ = "qubits 2\n1 0:Z 1:Z\n"
CHAIN = (
    "qubits 4\n"
    "1 0:X 1:X\n0.8 1:X 2:X\n1.2 2:X 3:X\n"
    "0.3 0:Z\n-0.4 1:Z\n0.5 2:Z\n0.2 3:Z\n"
)
ISOLATED = "qubits 3\n1 0:X 1:X\n0.5 2:Z\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("drift", DRIFT), ("zz", ZZ), ("chain", CHAIN), ("iso", ISOLATED)
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
    assert "raw_drift_periods 112" in summary

    sched = parse_schedule(open(out_path).read())
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

    assert main(["bound", files["drift"], "--target", files["zz"],
                 "--t", "1.0", "--epsilon", "1e-2", "--bound", "global"]) == 0
    out = capsys.readouterr().out
    assert "bound global" in out
    assert "D 1" in out


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
    code = main(["bound", files["chain"], "--target", files["zz"], "--t", "0.5",
                 "--pair", "0", "3", "--epsilon", "1e-2"])
    assert code == 3
    assert "no coupling between qubits 0 and 3" in capsys.readouterr().err


def test_bound_global_rejects_order_two_as_compile_does(files, capsys):
    argv = [files["drift"], "--target", files["zz"], "--t", "1.0",
            "--epsilon", "1e-2", "--bound", "global", "--order", "2"]
    assert main(["compile"] + argv) == 2
    assert main(["bound"] + argv) == 2
    assert "order 1" in capsys.readouterr().err


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
                 f"delta {want.plan.delta!r}"):
        assert line in lines


def test_reports_can_go_to_files(files, tmp_path):
    report = tmp_path / "check.txt"
    assert main(["check", files["drift"], "--report", str(report)]) == 0
    assert "entangling yes" in report.read_text()

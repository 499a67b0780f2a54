"""CLI: command output, exit codes, golden CSV, pipeline composition."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pumpwise
from pumpwise import datasets
from pumpwise.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_SIM_REGRESSION,
    EXIT_USAGE,
    main,
)

CONV = str(datasets.path("conv2d.json"))

# sweep conv2d 160..250 step 30, checked by hand: S = floor(330/f),
# M = floor(500/f) capped by 225 ops, units = ceil(225/factor)
GOLDEN_SWEEP = """\
throughput,dsp_base,dsp_s-pump,dsp_m-pump,dsp_base_pct,dsp_s-pump_pct,dsp_m-pump_pct
160,225,113,75,62.50,31.39,20.83
190,225,225,113,62.50,62.50,31.39
220,225,225,113,62.50,62.50,31.39
250,225,225,113,62.50,62.50,31.39
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_conv2d_165(capsys):
    code, out, _ = run(capsys, "analyze", CONV, "--f-base", "165")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split() == ["task", "ii_min", "n_op_dsp", "f_max_mhz", "max_pump"]
    filter_row = next(l for l in lines if l.startswith("Filter2D"))
    assert filter_row.split() == ["Filter2D", "1", "225", "500", "3"]
    assert "uniform single-clock pump factor: 2" in out


def test_analyze_resolves_bundled_dataset_names(capsys):
    code, out, _ = run(capsys, "analyze", "conv2d.json", "--f-base", "165")
    assert code == EXIT_OK


def test_analyze_infeasible_base_clock(capsys):
    code, _, err = run(capsys, "analyze", CONV, "--f-base", "600")
    assert code == EXIT_INFEASIBLE
    assert "base clock infeasible" in err


def test_analyze_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "analyze", str(bad), "--f-base", "100")
    assert code == EXIT_INVALID
    assert "error:" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"), "--f-base", "100")
    assert code == EXIT_INVALID


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "analyze", CONV)[0] == EXIT_USAGE  # missing --f-base
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE


def test_optimize_mpump_250(capsys, tmp_path):
    out_plan = tmp_path / "conv.plan"
    code, out, _ = run(capsys, "optimize", CONV, "--f-base", "250",
                       "--strategy", "m-pump", "--out", str(out_plan))
    assert code == EXIT_OK
    assert "DSP 225 -> 113, throughput 250 msps preserved" in out
    data = json.loads(out_plan.read_text())
    assert data["strategy"] == "m-pump"
    assert data["tasks"]["Filter2D"] == {"m": 2, "f_mhz": 500, "ii": 2}


def test_optimize_base_identity(capsys, tmp_path):
    code, out, _ = run(capsys, "optimize", CONV, "--f-base", "250",
                       "--strategy", "base", "--out", str(tmp_path / "b.plan"))
    assert code == EXIT_OK
    assert "DSP 225 -> 225" in out


def test_optimize_spump_165(capsys, tmp_path):
    code, out, _ = run(capsys, "optimize", CONV, "--f-base", "165",
                       "--strategy", "s-pump", "--out", str(tmp_path / "s.plan"))
    assert code == EXIT_OK
    assert "kernel clock: 330 MHz" in out
    assert "DSP 225 -> 113" in out


def test_sweep_golden_csv(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", CONV, "--f-lo", "160", "--f-hi", "250",
                       "--step", "30", "--out", str(out_csv))
    assert code == EXIT_OK
    assert out_csv.read_text() == GOLDEN_SWEEP
    assert "4 rows written" in out


def test_sweep_stdout_and_sorted(capsys):
    code, out, _ = run(capsys, "sweep", CONV, "--f-lo", "160", "--f-hi", "250",
                       "--step", "30")
    assert code == EXIT_OK
    assert out == GOLDEN_SWEEP
    rows = [float(l.split(",")[0]) for l in out.splitlines()[1:]]
    assert rows == sorted(rows)


def test_sweep_infeasible_range_warns(capsys, tmp_path):
    out_csv = tmp_path / "empty.csv"
    code, _, err = run(capsys, "sweep", CONV, "--f-lo", "340", "--f-hi", "400",
                       "--step", "10", "--out", str(out_csv))
    assert code == EXIT_OK
    assert "no feasible base clocks" in err
    assert out_csv.read_text().splitlines() == [GOLDEN_SWEEP.splitlines()[0]]


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", CONV, "--f-lo", "300", "--f-hi", "100",
                       "--step", "10")
    assert code == EXIT_INVALID
    assert "empty range" in err


def test_optimize_then_simulate_pipeline(capsys, tmp_path):
    plan = tmp_path / "m.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "250", "--strategy", "m-pump",
               "--out", str(plan))[0] == EXIT_OK
    code, out, err = run(capsys, "simulate", CONV, str(plan),
                         "--iterations", "10000", "--warmup", "100")
    assert code == EXIT_OK
    assert "throughput: 250 msps" in out
    assert "relative error: 0.000 %" in out
    assert "Filter2D->WriteToMem: peak" in out


def test_simulate_mismatched_plan(capsys, tmp_path):
    plan = tmp_path / "vms.plan"
    assert run(capsys, "optimize", str(datasets.path("vms.json")), "--f-base", "110",
               "--out", str(plan))[0] == EXIT_OK
    code, _, err = run(capsys, "simulate", CONV, str(plan))
    assert code == EXIT_INVALID
    assert "error:" in err


def test_mismatched_plan_error_does_not_depend_on_warmup(capsys, tmp_path):
    plan = tmp_path / "conv2d.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "165", "--strategy", "base",
               "--out", str(plan))[0] == EXIT_OK
    vms = str(datasets.path("vms.json"))
    expected = (EXIT_INVALID, "", "error: plan does not cover task: PoseGen\n")
    assert run(capsys, "simulate", vms, str(plan)) == expected
    assert run(capsys, "simulate", vms, str(plan), "--warmup", "10") == expected


def test_simulate_rejects_a_plan_that_breaks_the_pumping_identities(capsys, tmp_path):
    # conv2d's m-pump plan at 250 MHz with Filter2D hand-edited to 450 MHz,
    # which is no multiple of the base clock
    plan = tmp_path / "m.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "250", "--out", str(plan))[0] == EXIT_OK
    data = json.loads(plan.read_text())
    data["tasks"]["Filter2D"] = {"m": 2, "f_mhz": 450, "ii": 1}
    plan.write_text(json.dumps(data))
    assert run(capsys, "simulate", CONV, str(plan)) == (
        EXIT_INVALID, "", "error: task Filter2D: f_mhz 450 MHz is not m * f_base = 500 MHz\n"
    )


def test_huge_base_clock_is_infeasible_without_traceback(capsys):
    assert run(capsys, "analyze", CONV, "--f-base", "1e400") == (
        EXIT_INFEASIBLE, "", "error: base clock infeasible: 1e+400 MHz exceeds f_max 330 MHz\n"
    )
    dfg = pumpwise.load_dfg(CONV)
    with pytest.raises(pumpwise.InfeasibleError) as e:
        pumpwise.max_single_pump_factor(dfg, Fraction(10**400, 3))
    assert str(e.value) == (
        "base clock infeasible: 3.33333e+399 MHz exceeds the slowest task's f_max 330 MHz"
    )


def test_simulate_small_window_warns(capsys, tmp_path):
    plan = tmp_path / "b.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "165", "--strategy", "base",
               "--out", str(plan))[0] == EXIT_OK
    code, out, err = run(capsys, "simulate", CONV, str(plan),
                         "--iterations", "10", "--warmup", "9")
    assert code == EXIT_OK
    assert "measurement window too small" in err


def test_short_runs_cap_the_default_warmup(capsys, tmp_path):
    # the default warmup of conv2d m-pump at 165 MHz is 120 tokens; a
    # 100-iteration run keeps half of it for the measurement window
    plan = tmp_path / "m.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "165", "--out", str(plan))[0] == EXIT_OK
    code, out, err = run(capsys, "simulate", CONV, str(plan), "--iterations", "100")
    assert code == EXIT_OK
    assert "(50 samples)" in err
    assert "  Filter2D: 100" in out
    code, _, err = run(capsys, "report", CONV, "--f-base", "165", "--out",
                       str(tmp_path / "bundle"), "--iterations", "100")
    assert code == EXIT_OK
    # an explicit warmup is still checked against the iteration count
    code, _, err = run(capsys, "simulate", CONV, str(plan), "--iterations", "100",
                       "--warmup", "120")
    assert code == EXIT_INVALID
    assert "warmup must satisfy" in err


def test_invalid_warmup_exits_without_window_warning(capsys, tmp_path):
    # the config is rejected when built, before any window arithmetic
    plan = tmp_path / "m.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "165", "--out", str(plan))[0] == EXIT_OK
    code, out, err = run(capsys, "simulate", CONV, str(plan), "--iterations", "100",
                         "--warmup", "120")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: warmup must satisfy 0 <= warmup < iterations\n"


def test_simulate_rejects_clock_above_f_max(capsys, tmp_path):
    plan = tmp_path / "m.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "250", "--out", str(plan))[0] == EXIT_OK
    data = json.loads(plan.read_text())
    data["tasks"]["Filter2D"] = {"m": 1, "f_mhz": 5000, "ii": 1}
    plan.write_text(json.dumps(data))
    code, out, err = run(capsys, "simulate", CONV, str(plan))
    assert code == EXIT_INVALID
    assert out == ""
    assert "task Filter2D: plan clock 5000 MHz exceeds f_max 500 MHz" in err


def test_simulate_regression_guard(capsys, tmp_path):
    # a 3-deep pipeline behind a single-slot FIFO runs at a third of the
    # analytic rate, far beyond the 5 % guard
    dfg = {
        "tasks": [
            {"name": "A", "f_max_mhz": 200, "ii_min_base": 1, "pipeline_depth": 3},
            {"name": "B", "f_max_mhz": 200, "ii_min_base": 1, "pipeline_depth": 1},
        ],
        "channels": [{"from": "A", "to": "B", "depth": 1}],
        "device_dsp_total": 4,
    }
    dfg_path = tmp_path / "slow.json"
    dfg_path.write_text(json.dumps(dfg))
    plan = tmp_path / "slow.plan"
    assert run(capsys, "optimize", str(dfg_path), "--f-base", "100", "--strategy", "base",
               "--out", str(plan))[0] == EXIT_OK
    code, out, err = run(capsys, "simulate", str(dfg_path), str(plan),
                         "--iterations", "2000", "--warmup", "100")
    assert code == EXIT_SIM_REGRESSION
    assert "deviates" in err


def test_optimize_non_decimal_base_clock_round_trips(capsys, tmp_path):
    plan = tmp_path / "m.plan"
    assert run(capsys, "optimize", CONV, "--f-base", "1000/7", "--strategy", "m-pump",
               "--out", str(plan))[0] == EXIT_OK
    data = json.loads(plan.read_text())
    assert data["kernel_base_clock_mhz"] == "1000/7"
    assert data["tasks"]["Filter2D"] == {"m": 3, "f_mhz": "3000/7", "ii": 3}
    code, out, _ = run(capsys, "simulate", CONV, str(plan), "--iterations", "2000")
    assert code == EXIT_OK
    assert "analytic:   142.857 msps" in out


def test_report_regression_exit_code(capsys, tmp_path):
    # the skip edge A->C and the path A->B->C reconverge through single-slot
    # FIFOs, so the graph runs at a third of min(f/II) under every strategy
    dfg = {
        "tasks": [
            {"name": "A", "f_max_mhz": 200, "ii_min_base": 1, "pipeline_depth": 1},
            {"name": "B", "f_max_mhz": 200, "ii_min_base": 1, "pipeline_depth": 2},
            {"name": "C", "f_max_mhz": 200, "ii_min_base": 1, "pipeline_depth": 1},
        ],
        "channels": [
            {"from": "A", "to": "B", "depth": 1},
            {"from": "B", "to": "C", "depth": 1},
            {"from": "A", "to": "C", "depth": 1},
        ],
        "device_dsp_total": 4,
    }
    dfg_path = tmp_path / "skip.json"
    dfg_path.write_text(json.dumps(dfg))
    out = tmp_path / "bundle"
    code, stdout, err = run(capsys, "report", str(dfg_path), "--f-base", "100",
                            "--out", str(out), "--iterations", "2000")
    assert code == EXIT_SIM_REGRESSION
    assert "base: simulated throughput deviates 66.667 %" in err
    # the gate runs after the bundle is complete
    for name in ("summary.txt", "sweep.csv", "simcheck.csv",
                 "plan-base.json", "plan-s-pump.json", "plan-m-pump.json"):
        assert (out / name).exists()
    assert stdout == (out / "summary.txt").read_text()


def test_report_warns_about_a_short_window(capsys, tmp_path):
    code, _, err = run(capsys, "report", CONV, "--f-base", "165", "--out",
                       str(tmp_path / "bundle"), "--iterations", "150", "--warmup", "149")
    assert code == EXIT_OK
    assert err.splitlines() == [
        f"warning: {s}: measurement window too small (1 samples)"
        for s in ("base", "s-pump", "m-pump")
    ]


def test_report_warns_about_an_empty_sweep(capsys, tmp_path):
    out = tmp_path / "bundle"
    code, stdout, err = run(capsys, "report", CONV, "--f-base", "165", "--out", str(out),
                            "--f-lo", "400", "--f-hi", "500")
    assert code == EXIT_OK
    assert err == "warning: no feasible base clocks in range\n"
    assert stdout.endswith("sweep rows: 0 (400..500 MHz step 5)\n")
    assert (out / "sweep.csv").read_text().splitlines() == [GOLDEN_SWEEP.splitlines()[0]]


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["--step", "0"], EXIT_INVALID, "step must be positive"),
        (["--f-lo", "0"], EXIT_INVALID, "empty range: need 0 < f_lo <= f_hi"),
        (["--iterations", "0"], EXIT_INVALID, "iterations must be a positive integer"),
        (["--iterations", "300", "--warmup", "300"], EXIT_INVALID,
         "warmup must satisfy 0 <= warmup < iterations"),
        (["--f-base", "600"], EXIT_INFEASIBLE,
         "base clock infeasible: task ReadFromMem meets timing only up to 330 MHz"),
    ],
)
def test_report_writes_nothing_on_invalid_input(capsys, tmp_path, argv, code, message):
    out = tmp_path / "bundle"
    got = run(capsys, "report", CONV, "--f-base", "165", "--out", str(out), *argv)
    assert got == (code, "", f"error: {message}\n")
    assert not out.exists()


def test_simulate_trace_written(capsys, tmp_path):
    plan = tmp_path / "b.plan"
    run(capsys, "optimize", CONV, "--f-base", "165", "--strategy", "base",
        "--out", str(plan))
    trace = tmp_path / "events.csv"
    code, _, _ = run(capsys, "simulate", CONV, str(plan), "--iterations", "200",
                     "--warmup", "100", "--trace", str(trace))
    assert code == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines[0] == "time_ps,task,kind,iteration"
    assert lines[1] == "0,ReadFromMem,start,0"


def test_report_bundle(capsys, tmp_path):
    out = tmp_path / "bundle"
    code, stdout, _ = run(capsys, "report", CONV, "--f-base", "165", "--out", str(out),
                          "--iterations", "2000")
    assert code == EXIT_OK
    for name in ("summary.txt", "sweep.csv", "simcheck.csv",
                 "plan-base.json", "plan-s-pump.json", "plan-m-pump.json"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert stdout == summary
    assert "total DSP: 75" in summary  # m-pump at 165
    assert "total DSP: 225" in summary


def test_cli_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=str(Path(pumpwise.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pumpwise.cli", "analyze", CONV, "--f-base", "165"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "Filter2D" in proc.stdout


def test_imports_are_stdlib_or_package():
    # the package declares no dependencies, so every import statement names
    # the standard library or the package itself
    outside = []
    for path in sorted(Path(pumpwise.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {n.split(".")[0] for n in names}
            outside += [(path.name, n) for n in top - sys.stdlib_module_names - {"pumpwise"}]
    assert outside == []


def test_no_module_imports_dataclasses():
    # records are plain __slots__ classes and datasets are read by path:
    # dataclasses, inspect and importlib.resources cost start-up.  -S keeps
    # out the .pth files of site-packages, which may import them on their own
    probe = ("import sys, pumpwise.cli; "
             "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(pumpwise.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    found = []
    for path in sorted(Path(pumpwise.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "dataclasses"]
    assert found == []


@pytest.mark.parametrize("dataset", ["conv2d.json", "optical.json"])
@pytest.mark.parametrize("command", ["analyze", "optimize"])
def test_non_positive_base_clock_is_named(capsys, command, dataset):
    for f in ("0", "-5/3"):
        assert run(capsys, command, dataset, f"--f-base={f}") == (
            EXIT_INVALID, "", "error: f_base_mhz must be positive\n"
        )


def test_commands_byte_identical_across_runs(capsys, tmp_path):
    invocations = [
        ("analyze", CONV, "--f-base", "165"),
        ("sweep", CONV, "--f-lo", "100", "--f-hi", "260", "--step", "5"),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_unknown_dataset_name_lists_the_bundled_ones():
    with pytest.raises(FileNotFoundError) as e:
        datasets.path("nope.json")
    assert str(e.value) == (
        "no bundled dataset named 'nope.json'; "
        "available: ['conv2d.json', 'optical.json', 'vms.json']"
    )


def test_number_too_long_to_read_exits_two(capsys, tmp_path):
    digits = sys.get_int_max_str_digits()
    text = Path(CONV).read_text()
    graph = json.loads(text)
    long_total = tmp_path / "long_total.json"
    long_total.write_text(text.replace(f'"device_dsp_total": {graph["device_dsp_total"]}',
                                       '"device_dsp_total": 1' + "0" * digits))
    graph["tasks"][0]["f_max_mhz"] = "1" + "0" * digits + "/3"
    long_ratio = tmp_path / "long_ratio.json"
    long_ratio.write_text(json.dumps(graph))
    for path, where in [(long_total, long_total), (long_ratio, "tasks[0].f_max_mhz")]:
        assert run(capsys, "analyze", str(path), "--f-base", "165") == (
            EXIT_INVALID, "", f"error: {where}: number has more than {digits} digits\n"
        )


@pytest.mark.parametrize(
    "step,shown", [("1e5000", "1e+5000"), ("1" + "0" * 400 + "/3", "3.33333e+399")],
    ids=["1e5000", "10^400/3"],
)
def test_report_prints_a_step_beyond_float_range(capsys, tmp_path, step, shown):
    code, stdout, _ = run(capsys, "report", CONV, "--f-base", "165", "--out",
                          str(tmp_path / "bundle"), "--iterations", "2000", "--step", step)
    assert code == EXIT_OK
    assert stdout.endswith(f"sweep rows: 1 (165..330 MHz step {shown})\n")


def test_non_finite_input_exits_two_without_traceback(tmp_path):
    graph = json.loads(Path(CONV).read_text())
    graph["tasks"][0]["f_max_mhz"] = "@"
    bad_graph = tmp_path / "nan.json"
    bad_graph.write_text(json.dumps(graph).replace('"@"', "NaN"))
    plan = tmp_path / "inf.plan"
    plan.write_text('{"strategy": "base", "kernel_base_clock_mhz": Infinity, '
                    '"tasks": {"ReadFromMem": {"m": 1, "f_mhz": 165, "ii": 1}}}')
    env = dict(os.environ, PYTHONPATH=str(Path(pumpwise.__file__).parents[1]))
    for argv, msg in [
        (["analyze", str(bad_graph), "--f-base", "165"], "tasks[0].f_max_mhz"),
        (["simulate", CONV, str(plan)], "plan.kernel_base_clock_mhz"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "pumpwise.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_INVALID
        assert proc.stderr == f"error: {msg}: expected a finite number\n"
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", CONV, "--f-base", "nan"], "argument --f-base: not a number: 'nan'"),
        (["analyze", CONV, "--f-base", "inf"], "argument --f-base: not a number: 'inf'"),
        (["sweep", CONV, "--f-lo", "100", "--f-hi", "200", "--step", "1/0"],
         "argument --step: not a number: '1/0'"),
    ],
)
def test_input_checks(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == f"pumpwise {argv[0]}: error: {message}"

import contextlib
import csv
import io
import json
import math
import os
import re
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ptc_lab import SimConfig
from ptc_lab.cli import main

EX2_HEADER = "t,x1,x2,u,norm_x,lambda_bound"


def _write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _ex2_scenario(tmp_path, **overrides):
    payload = {
        "plant": {"builtin": "example2"},
        "controller": {"c": [-1, -2], "taus": [10, 15, 20], "alpha": 0.0214},
        "sim": {"x0": [10, 10], "dt_base": 0.005},
        "output": {"directory": str(tmp_path / "out"), "stem": "example2"},
    }
    for section, values in overrides.items():
        if values is None:
            payload.pop(section, None)
        else:
            payload[section] = values
    return _write_scenario(tmp_path, payload)


def test_design_command(tmp_path, capsys):
    scenario = _ex2_scenario(tmp_path)
    assert main(["design", "--scenario", scenario]) == 0
    out = capsys.readouterr().out
    assert "0.0214466" in out
    assert "attractive" in out
    assert "tau = 10" in out and "tau = 20" in out


def test_design_rejects_unstable_coefficients(tmp_path, capsys):
    scenario = _ex2_scenario(
        tmp_path, controller={"c": [1, 1], "tau": 10}
    )
    assert main(["design", "--scenario", scenario]) == 2
    err = capsys.readouterr().err
    assert "Hurwitz" in err


def test_design_rejects_alpha_above_bound(tmp_path, capsys):
    scenario = _ex2_scenario(
        tmp_path, controller={"c": [-1, -2], "tau": 10, "alpha": 0.05}
    )
    assert main(["design", "--scenario", scenario]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_simulate_writes_traces(tmp_path, capsys):
    scenario = _ex2_scenario(tmp_path)
    assert main(["simulate", "--scenario", scenario]) == 0
    out_dir = tmp_path / "out"
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    assert csvs == [
        "example2_tau10.csv",
        "example2_tau15.csv",
        "example2_tau20.csv",
    ]
    sidecars = sorted(p.name for p in out_dir.glob("*.json"))
    assert sidecars == [
        "example2_tau10.json",
        "example2_tau15.json",
        "example2_tau20.json",
    ]
    stdout = capsys.readouterr().out
    assert stdout.count("triangularly_attractive") == 3

    with open(out_dir / "example2_tau10.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert ",".join(rows[0]) == EX2_HEADER
    first = rows[1]
    assert float(first[0]) == 0.0
    assert float(first[1]) == 10.0
    assert float(first[4]) == pytest.approx(math.hypot(10.0, 10.0), rel=1e-15)
    last = rows[-1]
    assert float(last[0]) >= 10.0 * (1.0 - 2e-3)
    assert float(last[4]) <= 0.5
    # 17 significant digits survive a float round trip bit for bit.
    for cell in first + last:
        assert repr(float(cell)) == repr(float(f"{float(cell):.17g}"))

    sidecar = json.loads((out_dir / "example2_tau10.json").read_text())
    assert sidecar["metadata"]["tau"] == 10.0
    assert sidecar["metadata"]["mode"] == "attractive"
    assert sidecar["certificate"]["verdict"] == "triangularly_attractive"
    assert sidecar["rows"] == len(rows) - 1


def test_simulate_inconclusive_exit_code(tmp_path):
    # A run cut off far from the deadline leaves too much residual norm
    # for either verdict.
    scenario = _write_scenario(
        tmp_path,
        {
            "plant": {
                "n": 1,
                "f": "0",
                "g": "1",
                "gamma": 1.0,
                "gamma_min": 1.0,
                "phi": 0.0,
                "phi0": 0.0,
            },
            "controller": {"c": [-1], "tau": 10},
            "sim": {"x0": [1], "epsilon_fraction": 0.9},
            "output": {"directory": str(tmp_path / "out"), "stem": "stub"},
        },
    )
    assert main(["simulate", "--scenario", scenario]) == 3


def test_simulate_divergence_exit_code(tmp_path, capsys):
    scenario = _ex2_scenario(
        tmp_path,
        sim={"x0": [0, 0], "dt_base": 0.005, "divergence_threshold": 2.0},
    )
    assert main(["simulate", "--scenario", scenario]) == 4
    partials = list((tmp_path / "out").glob("*_partial.csv"))
    assert len(partials) == 1
    with open(partials[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert ",".join(rows[0]) == EX2_HEADER
    assert len(rows) >= 2


def test_simulate_keeps_finished_deadlines_when_a_later_one_fails(tmp_path, capsys):
    # tau = 2 diverges at its first sample (|u| = 5.9e3 > 3e3); the tau = 20
    # run before it keeps the files it writes when it runs alone.
    sim = {"x0": [10, 10], "dt_base": 0.005, "divergence_threshold": 3e3}
    files = {}
    for taus in ([20, 2], [20]):
        controller = {"c": [-1, -2], "taus": taus, "alpha": 0.0214}
        out = tmp_path / f"out{len(taus)}"
        scenario = _ex2_scenario(
            tmp_path, controller=controller, sim=sim,
            output={"directory": str(out), "stem": "example2"},
        )
        assert main(["simulate", "--scenario", scenario]) == (4 if 2 in taus else 0)
        assert "[tau=20] verdict: triangularly_attractive" in capsys.readouterr().out
        files[len(taus)] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files[2]) == ["example2_tau20.csv", "example2_tau20.json"]
    assert files[2] == files[1]


def test_verify_round_trip(tmp_path, capsys):
    scenario = _ex2_scenario(tmp_path, controller={"c": [-1, -2], "tau": 10, "alpha": 0.0214})
    assert main(["simulate", "--scenario", scenario]) == 0
    sim_out = capsys.readouterr().out
    trace = str(tmp_path / "out" / "example2_tau10.csv")
    assert main(["verify", trace]) == 0
    verify_out = capsys.readouterr().out
    sim_line = next(l for l in sim_out.splitlines() if "verdict" in l)
    verify_line = next(l for l in verify_out.splitlines() if "verdict" in l)
    # Identical certificates modulo the leading source tag.
    assert sim_line.split("verdict", 1)[1] == verify_line.split("verdict", 1)[1]


def test_verify_infers_metadata_without_sidecar(tmp_path):
    # x1 = 5(1 - t/10) rides the envelope exactly, so inference from the
    # lambda_bound column alone must reach the stable verdict.
    path = tmp_path / "triangle.csv"
    lines = ["t,x1,u,norm_x,lambda_bound"]
    t = 0.0
    while t <= 9.95 + 1e-12:
        x1 = 5.0 * (1.0 - t / 10.0)
        lines.append(
            f"{t:.17g},{x1:.17g},0,{abs(x1):.17g},{5.0 * max(1.0 - t / 10.0, 0.0):.17g}"
        )
        t += 0.05
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 0


def test_verify_constant_norm_inconclusive(tmp_path):
    path = tmp_path / "flat.csv"
    lines = ["t,x1,u,norm_x,lambda_bound"]
    t = 0.0
    while t <= 9.0 + 1e-12:
        lines.append(f"{t:.17g},5,0,5,{5.0 * (1.0 - t / 10.0):.17g}")
        t += 0.1
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 3


def test_verify_detects_tampered_norms(tmp_path):
    scenario = _ex2_scenario(tmp_path, controller={"c": [-1, -2], "tau": 10, "alpha": 0.0214})
    assert main(["simulate", "--scenario", scenario]) == 0
    trace = tmp_path / "out" / "example2_tau10.csv"
    rows = trace.read_text().splitlines()
    cells = rows[5].split(",")
    cells[4] = f"{float(cells[4]) * 1.5:.17g}"
    rows[5] = ",".join(cells)
    trace.write_text("\n".join(rows) + "\n")
    assert main(["verify", str(trace)]) == 1


def test_verify_missing_file(tmp_path):
    assert main(["verify", str(tmp_path / "nope.csv")]) == 1


def test_verify_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,state,input\n0,1,2\n")
    assert main(["verify", str(path)]) == 1


def test_table_symbolic_output(capsys):
    assert main(["table", "4"]) == 0
    out = capsys.readouterr().out
    assert "p1 = c1/(alpha^4*(tau - t)^4)" in out
    assert "p2 = (c2/alpha^3 - c3/alpha^2 + c4/alpha + 1)/(tau - t)^3" in out
    assert "p3 = (c3/alpha^2 - 3*c4/alpha - 7)/(tau - t)^2" in out
    assert "p4 = (c4/alpha + 6)/(tau - t)" in out


def test_table_numeric_output(capsys):
    assert main(["table", "2", "--c=-1,-2", "--alpha", "0.0214"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if "=" in line and "/" in line:
            name, rest = line.split("=", 1)
            values[name.strip()] = float(rest.strip().split("/")[0])
    assert values["p1"] == pytest.approx(-1.0 / 0.0214**2, rel=1e-12)
    assert values["p2"] == pytest.approx(-2.0 / 0.0214 + 1.0, rel=1e-12)


@pytest.mark.parametrize("alpha", ["5e-324", "1e-160", "1e300"])
def test_table_rejects_rates_with_non_finite_gains(capsys, alpha):
    assert main(["table", "2", "--c=-1,-2", "--alpha", alpha]) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and "beyond the float range" in err


def test_table_rejects_bad_order(capsys):
    assert main(["table", "0"]) == 1
    assert main(["table", "21"]) == 1


def test_table_numeric_needs_both_flags(capsys):
    assert main(["table", "2", "--c=-1,-2"]) == 1


def test_scenario_unknown_keys_rejected(tmp_path):
    for section, values in [
        ("plant", {"builtin": "example2", "oops": 1}),
        ("controller", {"c": [-1, -2], "tau": 10, "oops": 1}),
        ("sim", {"x0": [10, 10], "oops": 1}),
        ("output", {"directory": "out", "stem": "s", "oops": 1}),
    ]:
        scenario = _ex2_scenario(tmp_path, **{section: values})
        assert main(["design", "--scenario", scenario]) == 1


def test_scenario_tau_and_taus_mutually_exclusive(tmp_path):
    scenario = _ex2_scenario(
        tmp_path,
        controller={"c": [-1, -2], "tau": 10, "taus": [10, 15], "alpha": 0.0214},
    )
    assert main(["design", "--scenario", scenario]) == 1


def test_scenario_dimension_mismatch(tmp_path):
    scenario = _ex2_scenario(
        tmp_path, controller={"c": [-1, -2, -3], "tau": 10}
    )
    assert main(["design", "--scenario", scenario]) == 1


def test_tau_override_limits_sweep(tmp_path):
    scenario = _ex2_scenario(tmp_path)
    assert main(["simulate", "--scenario", scenario, "--tau", "12"]) == 0
    csvs = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert csvs == ["example2_tau12.csv"]


def test_out_dir_override(tmp_path):
    scenario = _ex2_scenario(
        tmp_path, controller={"c": [-1, -2], "tau": 10, "alpha": 0.0214}
    )
    other = tmp_path / "elsewhere"
    assert main(["simulate", "--scenario", scenario, "--out-dir", str(other)]) == 0
    assert (other / "example2_tau10.csv").exists()


def test_seed_override(tmp_path, capsys):
    scenario = _write_scenario(
        tmp_path,
        {
            "plant": {"builtin": "example3", "seed": 6},
            "controller": {"c": [-1, -4, -6, -4], "tau": 10},
            "sim": {"x0": [10, 10, 10, 10]},
            "output": {"directory": str(tmp_path / "out"), "stem": "ex3"},
        },
    )
    assert main(["design", "--scenario", scenario, "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "seed=11" in out


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["design"]) == 1
    assert main(["simulate", "--scenario", str(tmp_path / "missing.json")]) == 1
    assert main(["frobnicate"]) == 1


def _custom_plant_scenario(tmp_path, f, g, x0):
    return _write_scenario(
        tmp_path,
        {
            "plant": {
                "n": 2, "f": f, "g": g, "gamma": 1.0, "gamma_min": 1.0,
                "phi": 1.0, "phi0": 1.0,
            },
            "controller": {"c": [-1, -2], "tau": 10, "alpha": 0.0214},
            "sim": {"x0": x0},
            "output": {"directory": str(tmp_path / "out"), "stem": "arith"},
        },
    )


@pytest.mark.parametrize(
    "f, g, x0",
    [
        ("0", "0*t", [1, 1]),  # u = acc / (gamma_min * g) divides by zero
        ("exp(x1*x1*1000)*0", "1", [10, 10]),  # exp overflows
    ],
    ids=["zero-gain", "overflow"],
)
def test_simulate_plant_arithmetic_error_is_divergence(tmp_path, capsys, f, g, x0):
    scenario = _custom_plant_scenario(tmp_path, f, g, x0)
    assert main(["simulate", "--scenario", scenario]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "t=0" in errors[0]


def _verify_text(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return main(["verify", str(path), "--tau", "10", "--x0-norm", "5"])


TRIANGLE_HEADER = "t,x1,u,norm_x,lambda_bound\n"
# x1 = 5(1 - t/10) riding its envelope up to t = 9.5.
TRIANGLE_ROWS = [f"{k / 2:g},{v:g},0,{v:g},{v:g}\n" for k, v in ((k, 5 - k / 4) for k in range(20))]


def test_verify_accepts_quoted_cells(tmp_path, capsys):
    plain = _verify_text(tmp_path, TRIANGLE_HEADER + "".join(TRIANGLE_ROWS), "plain.csv")
    plain_out = capsys.readouterr().out.split("verdict", 1)[1]
    quoted_rows = ['"0","5",0,5,"5"\n'] + TRIANGLE_ROWS[1:]
    quoted = _verify_text(tmp_path, TRIANGLE_HEADER + "".join(quoted_rows), "quoted.csv")
    assert quoted == plain == 0
    assert capsys.readouterr().out.split("verdict", 1)[1] == plain_out


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "contains no data rows"),
        ("0,5,0,5,5\n1,4.5,0,4.5\n", "non-numeric cell"),  # column count changes
        ("0,5,0,5\n1,4.5,0,4.5\n", "has ragged rows"),  # every row one short
        ("0,5,0,5,5\n1,four,0,4.5,4.5\n", "non-numeric cell"),
        ("1_0,5,0,5,5\n", "non-numeric cell"),  # float() would accept this
        ("0,5,0,5,5\n1,inf,0,inf,4.5\n", "non-finite cell"),
    ],
    ids=[
        "empty-body", "column-count-changes", "short-rows", "non-numeric",
        "underscore-literal", "non-finite",
    ],
)
def test_verify_rejects_malformed_body(tmp_path, capsys, body, message):
    assert _verify_text(tmp_path, TRIANGLE_HEADER + body) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_verify_header_error_wins_over_body_error(tmp_path, capsys):
    assert _verify_text(tmp_path, "t,y1,u,norm_x,lambda_bound\nnot,a,number\n") == 1
    assert "state columns must be x1..xn" in capsys.readouterr().err


def _error_lines(err):
    """The lines of ``err`` that report an error: ``error: ...`` from a
    command, ``ptc-lab <command>: error: ...`` from argument parsing."""
    assert "Traceback" not in err
    return [line for line in err.splitlines() if re.match(r"(ptc-lab[\w ]*: )?error:", line)]


@pytest.fixture(scope="module")
def ex2_run_files(tmp_path_factory):
    """CSV text and sidecar of one example2 run at tau = 10."""
    tmp = tmp_path_factory.mktemp("ex2")
    scenario = _ex2_scenario(tmp, controller={"c": [-1, -2], "tau": 10, "alpha": 0.0214})
    assert main(["simulate", "--scenario", scenario]) == 0
    out = tmp / "out"
    sidecar = json.loads((out / "example2_tau10.json").read_text())
    return (out / "example2_tau10.csv").read_text(), sidecar


def _edit_metadata(**changes):
    return lambda sidecar: {**sidecar, "metadata": {**sidecar["metadata"], **changes}}


def _expression_plant(f_text):
    return {"n": 2, "f": f_text, "g": "1", "gamma": 1.1, "gamma_min": 1, "phi": 3, "phi0": 50}


@pytest.mark.parametrize(
    "case, code, message",
    [
        (_edit_metadata(tau="10"), 1, "metadata.tau must be a finite number"),
        (_edit_metadata(x0_norm="abc"), 1, "metadata.x0_norm must be a finite number"),
        (lambda sidecar: [sidecar], 1, "must hold a JSON object"),
        (_edit_metadata(mode=3), 1, "metadata.mode must be attractive or stable"),
        (lambda sidecar: {**sidecar, "rows": 300}, 1, "has rows: 300, but"),
        (lambda sidecar: {**sidecar, "rows": str(sidecar["rows"])}, 1, "data rows"),
        (
            {
                "plant": {
                    "n": 2, "f": "0", "g": "1", "gamma": 1, "gamma_min": 1,
                    "phi": 0, "phi0": 0, "label": "a/b",
                },
                "output": None,
            },
            1,
            "No such file or directory",
        ),
        ({"sim": {"x0": [1e200, 1e200]}}, 4, "OverflowError"),
        ({"controller": {"c": [-1, -2], "tau": 10**400}}, 1, "tau must be a finite number"),
        ({"controller": {"c": [-2.7e154, -2], "tau": 10}}, 2, "too large for the rate bounds"),
        ({"plant": _expression_plant("1e999*x1")}, 1, "number '1e999' is out of float range"),
        ({"plant": _expression_plant("-" * 5000 + "x1")}, 1, "nested too deeply"),
        (
            {"controller": {"c": [-1, -2], "tau": 10, "alpha": 5e-324}},
            2,
            "alpha=5e-324 put gain coefficient q1 beyond the float range",
        ),
        ({"controller": {"c": [-1, -2], "tau": 1e300}}, 2, "beyond the float range"),
        (
            ("design", {"controller": {"c": [-1, -2], "tau": 10, "alpha": 5e-324}}),
            2,
            "alpha=5e-324 put gain coefficient q1 beyond the float range",
        ),
        (
            ("design", {"controller": {"c": [-1, -2], "tau": 1e300}}),
            2,
            "beyond the float range",
        ),
        (
            {"controller": {"c": [-1, -2], "tau": 1e100}},
            1,
            "integration steps, more than the limit of 100,000,000",
        ),
        (["table", "2", "--c=-1,-2", "--alpha", "inf"], 1, "--alpha: must be a finite number"),
        (["table", "2", "--c=nan,-2", "--alpha", "0.1"], 1, "--c: must be a finite number"),
        (["table", "2", "--c=-1,1e999", "--alpha", "0.1"], 1, "--c: must be a finite number"),
        (("design", {}, "--tau", "inf"), 1, "--tau: must be a finite number, got 'inf'"),
        (("simulate", {}, "--tau", "nan"), 1, "--tau: must be a finite number, got 'nan'"),
        (("simulate", {}, "--dt", "inf"), 1, "--dt: must be a finite number, got 'inf'"),
        (("simulate", {}, "--epsilon=-inf"), 1, "--epsilon: must be a finite number"),
        (["verify", "trace.csv", "--tau", "inf"], 1, "--tau: must be a finite number"),
        (["verify", "trace.csv", "--x0-norm", "nan"], 1, "--x0-norm: must be a finite number"),
    ],
    ids=[
        "sidecar-tau-string", "sidecar-x0-norm-string", "sidecar-list",
        "sidecar-mode-number", "sidecar-rows-edited", "sidecar-rows-string",
        "label-with-slash", "x0-norm-overflows",
        "integer-beyond-float-range", "rate-bound-overflows",
        "literal-beyond-float-range", "unary-minus-chain", "rate-underflows-gains",
        "deadline-underflows-gains", "design-rate-underflows-gains",
        "design-deadline-underflows-gains", "deadline-needs-too-many-steps",
        "table-alpha-inf", "table-c-nan", "table-c-beyond-float-range", "design-tau-inf",
        "simulate-tau-nan", "simulate-dt-inf", "simulate-epsilon-inf", "verify-tau-inf",
        "verify-x0-norm-nan",
    ],
)
def test_bad_inputs_exit_with_one_error_line(
    tmp_path, monkeypatch, capsys, ex2_run_files, case, code, message
):
    monkeypatch.chdir(tmp_path)
    if callable(case):
        csv_text, sidecar = ex2_run_files
        trace = tmp_path / "trace.csv"
        trace.write_text(csv_text)
        trace.with_suffix(".json").write_text(json.dumps(case(sidecar)))
        argv = ["verify", str(trace)]
    elif isinstance(case, list):  # a command line refused before it reads a file
        argv = case
    else:
        command, overrides, *flags = case if isinstance(case, tuple) else ("simulate", case)
        argv = [command, "--scenario", _ex2_scenario(tmp_path, **overrides), *flags]
    start = time.perf_counter()
    assert main(argv) == code
    # A refused run is refused up front, not after integrating for a while.
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1
    assert message in err


def test_sim_section_is_the_simconfig_schema(tmp_path, capsys):
    every_field = {f.name: f.default for f in fields(SimConfig) if f.name != "x0"}
    every_field["x0"] = [10, 10]
    scenario = _ex2_scenario(tmp_path, sim=every_field)
    assert main(["design", "--scenario", scenario]) == 0
    capsys.readouterr()
    for sim, message in [
        ({"dt_base": 0.01}, "missing key(s) ['x0'] in sim section"),
        ({"x0": [10, 10], "oops": 1}, "unknown key(s) ['oops'] in sim section"),
        ({"x0": [10, 10], "dt": 0.01}, "unknown key(s) ['dt'] in sim section"),
        ({"x0": [10, 10], "record_stride": 1.5}, "sim.record_stride must be an integer, got 1.5"),
        ({"x0": [10, 10], "dt_base": "0.01"}, "sim.dt_base must be a finite number, got '0.01'"),
        ({"x0": [10]}, "sim.x0 has length 1 but the plant order is 2"),
        ({"x0": [10, 10], "dt_base": -1}, "dt_base must be positive, got -1.0"),
    ]:
        scenario = _ex2_scenario(tmp_path, sim=sim)
        assert main(["design", "--scenario", scenario]) == 1
        assert message in capsys.readouterr().err


def test_sim_defaults_come_from_simconfig(tmp_path):
    controller = {"c": [-1, -2], "tau": 10, "alpha": 0.0214}
    scenario = _ex2_scenario(tmp_path, controller=controller, sim={"x0": [10, 10]})
    assert main(["simulate", "--scenario", scenario]) == 0
    meta = json.loads((tmp_path / "out" / "example2_tau10.json").read_text())["metadata"]
    defaults = SimConfig(x0=(10.0, 10.0))
    for f in fields(SimConfig):
        want = getattr(defaults, f.name)
        assert meta[f.name] == (list(want) if f.name == "x0" else want)
    assert main(["simulate", "--scenario", scenario, "--dt", "0.02", "--epsilon", "0.002"]) == 0
    meta = json.loads((tmp_path / "out" / "example2_tau10.json").read_text())["metadata"]
    assert (meta["dt_base"], meta["epsilon_fraction"]) == (0.02, 0.002)


EXAMPLE2 = json.loads(
    (Path(__file__).resolve().parents[1] / "scenarios" / "example2.json").read_text()
)
# The builtin example2 plant spelled out as expressions, so that the fuzz
# also reaches the custom-plant keys, label among them.
EXAMPLE2_EXPRESSIONS = {
    "n": 2, "f": "50*cos(u) + cos(t)*x1 + exp(sin(x1))*x2", "g": "1",
    "gamma": 1.1, "gamma_min": 1.0, "phi": math.e, "phi0": 50.0, "label": "example2",
}


def _key_paths(node, prefix=()):
    """Every (container path, key) pair inside a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.just([]), st.just({}),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
BAD_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=-0.0, allow_nan=False, allow_infinity=False),
    st.integers(max_value=-1),
)
# A slash after a plain first component, so a path can only point below
# the output directory.
SLASHED_NAMES = st.tuples(
    st.text("ab", min_size=1, max_size=3), st.text("ab./", max_size=4)
).map("/".join)


# Expression text: short strings over the grammar's alphabet, and
# literals and nestings that exceed what floats or Python's compiler hold.
EXPRESSIONS = st.one_of(
    st.text("x12ut+-*/(). e9sincoab", max_size=12),
    st.sampled_from([
        "1e999", "-" * 5000 + "x1", "(" * 300 + "x1" + ")" * 300,
        "+".join(["x1"] * 5000), "sin(" * 200 + "t" + ")" * 200, "x3", "u",
    ]),
)


@st.composite
def mutated_example2(draw):
    scenario = json.loads(json.dumps(EXAMPLE2))
    if draw(st.booleans()):
        scenario["plant"] = dict(EXAMPLE2_EXPRESSIONS)
        if draw(st.booleans()):
            # New expression text and nothing else, so that it reaches
            # the parser.
            scenario["plant"][draw(st.sampled_from(["f", "g"]))] = draw(EXPRESSIONS)
            return scenario
    for _ in range(draw(st.integers(1, 3))):
        path, key = draw(st.sampled_from(list(_key_paths(scenario))))
        parent = _at(scenario, path)
        action = draw(st.sampled_from(["retype", "bad-number", "delete", "unknown", "slash"]))
        if action == "retype":
            parent[key] = draw(WRONG_TYPES)
        elif action == "bad-number":
            parent[key] = draw(BAD_NUMBERS)
        elif action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif action == "unknown" and isinstance(parent, dict):
            parent["zz_" + draw(st.text("xyz", max_size=3))] = 1
        elif action == "slash":
            section = draw(st.sampled_from(["plant", "output"]))
            if isinstance(scenario.get(section), dict):
                scenario[section]["label" if section == "plant" else "stem"] = draw(SLASHED_NAMES)
            if section == "plant" and isinstance(scenario.get("output"), dict):
                scenario["output"].pop("stem", None)  # so the label names the files
    return scenario


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=mutated_example2())
def test_cli_contract_under_mutated_scenarios(tmp_path_factory, scenario):
    # Relative output paths (the bundled "out", or "." once the directory
    # key is gone) land in a fresh directory per example.
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in ("design", "simulate"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ) as err:
                code = main([command, "--scenario", str(path)])
            assert code in {0, 1, 2, 3, 4}
            assert len(_error_lines(err.getvalue())) <= 1
    finally:
        os.chdir(cwd)

import csv
import json
import math
from pathlib import Path

import pytest

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
    ],
    ids=["empty-body", "column-count-changes", "short-rows", "non-numeric", "underscore-literal"],
)
def test_verify_rejects_malformed_body(tmp_path, capsys, body, message):
    assert _verify_text(tmp_path, TRIANGLE_HEADER + body) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_verify_header_error_wins_over_body_error(tmp_path, capsys):
    assert _verify_text(tmp_path, "t,y1,u,norm_x,lambda_bound\nnot,a,number\n") == 1
    assert "state columns must be x1..xn" in capsys.readouterr().err

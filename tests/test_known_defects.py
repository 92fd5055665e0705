"""The three known defects of ROADMAP items 2, 7 and 18, pinned.

Each test asserts the correct behaviour and is marked ``xfail`` with
``strict=True``: it fails today, and a change that fixes its defect makes
it pass, which fails the suite until that change removes the marker. The
marker excuses only an ``AssertionError``; a broken precondition (a run
that did not go through the compiled loop, a command that did not write
its files) ends in ``pytest.fail`` and fails the test. The runs go
through the compiled loop, as every bundled run does.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

import ptc_lab as pl
from ptc_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")


def _require(condition, message):
    """A precondition of a pinned defect, which the xfail marker does not
    excuse."""
    if not condition:
        pytest.fail(message)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the certificate grades only the recorded samples",
)
def test_example3_verdict_does_not_depend_on_the_stride(compiled):
    # Stride 50 gives triangularly_stable with sigma 1.000000001; strides
    # 7 and 1 give triangularly_attractive with sigma 1.45e9 and 1.90e10.
    plant = pl.builtin_plant("example3", seed=6)
    design = pl.design_controller((-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi,
                                  phi0=plant.phi0)
    certs = [
        pl.certify(pl.run(plant, design, pl.SimConfig(x0=(10.0,) * 4, record_stride=stride)))
        for stride in (1, 7, 50)
    ]
    _require(compiled == [True] * 3, f"runs left the compiled loop: {compiled}")
    assert len({(cert.verdict, cert.sigma) for cert in certs}) == 1, certs


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 7: the stiffness cap ignores gamma/gamma_min",
)
def test_gain_mismatched_order_3_run_completes(tmp_path, compiled):
    # With gamma/gamma_min = 1.5, RK4 at the stiffness cap is unstable:
    # simulate exits 4 at t = 0.278, while stiffness_safety 0.25 certifies.
    scenario = tmp_path / "mismatch.json"
    scenario.write_text(json.dumps({
        "plant": {"n": 3, "f": "0", "g": "1", "gamma": 1.5, "gamma_min": 1,
                  "phi": 0, "phi0": 0},
        "controller": {"c": [-1, -3, -3], "tau": 10},
        "sim": {"x0": [1, 1, 1]},
    }))
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path)])
    _require(compiled, "the run did not reach the compiled loop")
    assert code in (0, 3) and compiled == [True], (code, compiled)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 18: verify does not tie a trace to its sidecar's run",
)
def test_verify_refuses_consistently_edited_states(tmp_path, compiled):
    # Halving x1 and x2 after the first row, with norm_x recomputed,
    # leaves a trace that verify certifies with sigma 1, against the
    # sidecar's 1.5476.
    scenario = str(ROOT / "scenarios" / "example2.json")
    code = main(["simulate", "--scenario", scenario, "--out-dir", str(tmp_path)])
    trace = tmp_path / "example2_tau10.csv"
    _require(code == 0 and compiled == [True] * 3 and trace.exists(),
             f"simulate exited {code} with compiled runs {compiled}")
    header, first, *rows = trace.read_text().splitlines()
    edited = [header, first]
    for row in rows:
        t, x1, x2, u, _, bound = map(float, row.split(","))
        x1, x2 = x1 / 2, x2 / 2
        edited.append(",".join(map(repr, (t, x1, x2, u, math.hypot(x1, x2), bound))))
    trace.write_text("\n".join(edited) + "\n")
    assert main(["verify", str(trace)]) == 1

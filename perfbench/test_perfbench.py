"""Self-tests of the benchmark: ``python -m pytest perfbench``.

They check the benchmark's own machinery (seeded inputs, the outcome
checks, the step-cap replay) on short example2 runs, including negative
controls that a damaged output really is counted as a failed request.
"""

import json

import pytest

import checks
import run
import workloads

run.import_program()


def _ex2_scenario(tmp_path, tau=5.0, form="builtin"):
    scenario = json.loads((run.ROOT / "scenarios" / "example2.json").read_text())
    del scenario["output"]
    scenario["controller"]["tau"] = tau
    del scenario["controller"]["taus"]
    if form == "expression":
        scenario["plant"] = dict(workloads.EX2_EXPRESSION_PLANT)
    path = tmp_path / f"{form}.json"
    path.write_text(json.dumps(scenario))
    return path


def _simulate(tmp_path, name="out", **kw):
    out = tmp_path / name
    code = workloads.simulate(_ex2_scenario(tmp_path, **kw), out)
    return out, code


def _check(out, code):
    verify_code, verify_out = workloads.verify(out)
    return checks.check_simulation(out, code, verify_code, verify_out, {})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(tmp_path, workload):
    def inputs(seed, name):
        requests = workloads.generate(workload, seed, run.ROOT, tmp_path / name)
        files = [r.scenario.read_bytes() if r.scenario else b"" for r in requests]
        return [(r.kind, r.params) for r in requests], files

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a") != inputs(6, "c")


def test_untouched_outputs_pass(tmp_path):
    problems, facts = _check(*_simulate(tmp_path))
    assert problems == []
    assert facts["verdict"] == "triangularly_attractive"


def test_corrupted_csv_counts_as_failure(tmp_path):
    out, code = _simulate(tmp_path)
    csv = next(out.glob("*.csv"))
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = checks.fmt(float(cells[1]) * 1.5)
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    problems, _ = _check(out, code)
    assert any("verify exited" in p for p in problems)


def test_edited_sidecar_counts_as_failure(tmp_path):
    out, code = _simulate(tmp_path)
    sidecar = next(out.glob("*.json"))
    payload = json.loads(sidecar.read_text())
    payload["certificate"]["sigma"] *= 1.5
    sidecar.write_text(json.dumps(payload))
    problems, _ = _check(out, code)
    assert any(p.startswith("sigma ") for p in problems)


def test_step_cap_replay_matches_steps_total(tmp_path):
    out, _ = _simulate(tmp_path)
    meta = json.loads(next(out.glob("*.json")).read_text())["metadata"]
    caps = checks.replay_step_caps(meta)
    assert sum(caps.values()) == meta["steps_total"]
    assert caps["stiff"] == 0 and caps["final"] == 1
    assert caps["dt"] > 0 and caps["shrink"] > 0


def test_builtin_and_expression_plants_write_identical_outputs(tmp_path):
    _, a = _check(*_simulate(tmp_path, "a", tau=7.5, form="builtin"))
    _, b = _check(*_simulate(tmp_path, "b", tau=7.5, form="expression"))
    assert a["fingerprint"] == b["fingerprint"]


def test_example3_plant_seed_keeps_the_bundled_seed():
    assert workloads.example3_plant_seed(6) == 6
    assert workloads.example3_plant_seed(0) == 5  # seeds 0..4 draw ||w|| > phi


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 39) is None
    assert run.tail([float(i) for i in range(40)])[0] == 75.0
    assert run.tail([float(i) for i in range(1000)])[0] == 99.0


def test_listed_metrics_are_reported_with_their_units():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert run.PER_LAYER_UNITS[metric["name"]] == metric["unit"]

"""Seeded inputs and request execution for the three workloads.

``ex3-stable`` and ``ex2-sweep`` send ``ptc-lab simulate`` then
``ptc-lab verify`` through ``ptc_lab.cli.main`` in-process; ``design-map``
calls the design functions of the library directly. Inputs depend on the
seed only, and the program sees nothing but the scenario files and
arguments generated here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("ex3-stable", "ex2-sweep", "design-map")

# example2 as expression strings; evaluation order matches the builtin.
EX2_EXPRESSION_PLANT = {
    "n": 2,
    "f": "50*cos(u) + cos(t)*x1 + exp(sin(x1))*x2",
    "g": "1",
    "gamma": 1.1,
    "gamma_min": 1.0,
    "phi": math.e,
    "phi0": 50.0,
    "label": "example2",
}
EX2_TAU_RANGE = (5.0, 45.0)  # the bundled alpha = 0.0214 is feasible up to ~46
STRATA = 8  # deadlines and orders are drawn stratified in blocks of 8
# About 1 in 4 example3 disturbance seeds leaves the state in subnormal
# floats instead of exact zero for the rest of the run, which costs ~25%
# more per request; cycling through several seeds keeps that in proportion.
EX3_DISTINCT = 8
EX2_DISTINCT = 256
DESIGN_DISTINCT = 1024


@dataclass(frozen=True)
class Request:
    index: int
    kind: str  # "simulate" or "design"
    scenario: Path | None = None
    params: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def example3_plant_seed(seed: int) -> int:
    """First disturbance seed >= ``seed`` whose plant keeps its envelope.

    example3 draws ``w ~ U(-1e-3, 1e-3)^4`` and declares
    ``|w . x| <= 1e-3 ||x||``. That holds for every state exactly when
    ``||w|| <= 1e-3`` (Cauchy-Schwarz); other draws may be rejected by
    the envelope audit, which is exit code 2 by contract, not a failure
    of the program. The bundled seed 6 qualifies.
    """
    from ptc_lab import builtin_plant

    s = seed
    while True:
        plant = builtin_plant("example3", seed=s)
        if math.hypot(*plant.disturbance_weights) <= plant.phi:
            return s
        s += 1


def _poles(rng: np.random.Generator, n: int) -> list[complex]:
    """Stable poles drawn as in acceptance suite 7."""
    poles: list[complex] = []
    while len(poles) < n:
        if n - len(poles) >= 2 and rng.random() < 0.5:
            re = float(rng.uniform(-3.0, -0.2))
            im = float(rng.uniform(0.1, 2.0))
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(float(rng.uniform(-3.0, -0.2)), 0.0))
    return poles


def _coefficients(poles: list[complex]) -> list[float]:
    a = np.poly(np.array(poles))
    return [float(v) for v in (-a[1:][::-1]).real]


def _design_requests(seed: int) -> list[Request]:
    rng = _rng(seed, 3)
    requests = []
    for _ in range(DESIGN_DISTINCT // STRATA):
        orders = rng.permutation(np.arange(1, STRATA + 1))
        stable = rng.permutation([True, False] * (STRATA // 2))
        for k in range(STRATA):
            n = int(orders[k])
            poles = _poles(rng, n)
            tau = float(rng.uniform(1.0, 20.0))
            phi = float(rng.uniform(0.0, 1e-2))
            phi0 = 0.0 if stable[k] else float(rng.uniform(0.1, 50.0))
            alpha = None
            case = rng.random()
            feasible = True
            if case < 0.125:
                # Mirror one pole (or pair) into the right half plane.
                re = poles[int(rng.integers(len(poles)))].real
                poles = [complex(-p.real, p.imag) if p.real == re else p for p in poles]
                feasible = False
            elif case < 0.25:
                # Every bound is below 1/tau, so this rate is infeasible.
                alpha = float(rng.uniform(1.1, 3.0)) / tau
                feasible = False
            requests.append(Request(
                index=len(requests),
                kind="design",
                params={
                    "c": _coefficients(poles), "tau": tau, "phi": phi,
                    "phi0": phi0, "alpha": alpha, "feasible": feasible,
                },
            ))
    return requests


def _write(path: Path, scenario: dict) -> Path:
    path.write_text(json.dumps(scenario))
    return path


def generate(workload: str, seed: int, root: Path, inputs_dir: Path) -> list[Request]:
    """The seeded request list of one workload; scenario files go to ``inputs_dir``."""
    if workload == "design-map":
        return _design_requests(seed)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload == "ex3-stable":
        scenario = json.loads((root / "scenarios" / "example3.json").read_text())
        del scenario["output"]
        requests = []
        plant_seed = seed - 1
        for i in range(EX3_DISTINCT):
            plant_seed = example3_plant_seed(plant_seed + 1)
            scenario["plant"]["seed"] = plant_seed
            requests.append(Request(i, "simulate", _write(inputs_dir / f"ex3_{i}.json", scenario)))
        return requests
    if workload != "ex2-sweep":
        raise ValueError(f"unknown workload {workload!r}")
    bundled = json.loads((root / "scenarios" / "example2.json").read_text())
    rng = _rng(seed, 2)
    lo, hi = EX2_TAU_RANGE
    requests = []
    for _ in range(EX2_DISTINCT // STRATA):
        strata = rng.permutation(STRATA)
        forms = rng.permutation(["builtin", "expression"] * (STRATA // 2))
        for k in range(STRATA):
            tau = lo + (hi - lo) * (int(strata[k]) + float(rng.random())) / STRATA
            plant = {"builtin": "example2"} if forms[k] == "builtin" else EX2_EXPRESSION_PLANT
            scenario = {
                "plant": plant,
                "controller": {"c": bundled["controller"]["c"], "tau": tau,
                               "alpha": bundled["controller"]["alpha"]},
                "sim": dict(bundled["sim"], record_stride=1),
            }
            i = len(requests)
            path = _write(inputs_dir / f"ex2_{i:03d}.json", scenario)
            requests.append(Request(i, "simulate", path))
    return requests


@dataclass
class Outcome:
    latency_s: float
    problems: list[str]
    facts: dict


def _cli(argv: list[str]) -> tuple[int, str]:
    from ptc_lab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def simulate(scenario: Path, out_dir: Path) -> int:
    return _cli(["simulate", "--scenario", str(scenario), "--out-dir", str(out_dir)])[0]


def verify(out_dir: Path) -> tuple[int | None, str]:
    csvs = list(out_dir.glob("*.csv"))
    if len(csvs) != 1:
        return None, ""
    return _cli(["verify", str(csvs[0])])


def _run_simulate(req: Request, out_dir: Path, tracer, replays: dict) -> Outcome:
    span = tracer.span if tracer else (lambda name: nullcontext())
    start = time.perf_counter()
    with span("cli.simulate"):
        sim_code = simulate(req.scenario, out_dir)
    verify_code, verify_out = None, ""
    if sim_code in (0, 3):
        with span("cli.verify"):
            verify_code, verify_out = verify(out_dir)
    latency = time.perf_counter() - start
    problems, facts = checks.check_simulation(out_dir, sim_code, verify_code, verify_out, replays)
    if tracer and facts:
        facts["evaluate_us"] = evaluate_cost_us(facts["csv_path"], facts["meta"])
    return Outcome(latency, problems, facts)


def evaluate_cost_us(csv_path: Path, meta: dict) -> float:
    """Microseconds per ``GainSchedule.evaluate`` over a trace's samples.

    ``sim.run`` inlines the gain law; this prices the shared evaluator on
    the same states and times, with the sidecar's c and alpha. It calls
    no traced function, so it adds nothing to the spans.
    """
    import ptc_lab as pl

    n = len(meta["c"])
    coefficients = tuple(q for q, _ in pl.numeric_rows(meta["c"], meta["alpha"]))
    evaluate = pl.GainSchedule(n, pl.structural_rows(n), coefficients).evaluate
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    samples = [(float(row[0]), [float(v) for v in row[1:1 + n]]) for row in data]
    tau = meta["tau"]
    start = time.perf_counter()
    for t, x in samples:
        evaluate(x, t, tau)
    return (time.perf_counter() - start) / len(samples) * 1e6


def _run_design(req: Request, tracer) -> Outcome:
    import ptc_lab as pl
    from ptc_lab.errors import InfeasibleDesignError

    span = tracer.span if tracer else (lambda name: nullcontext())
    p = req.params
    report = None
    start = time.perf_counter()
    try:
        with span("controller.design"):
            design = pl.design_controller(
                p["c"], p["tau"], alpha=p["alpha"], phi=p["phi"], phi0=p["phi0"]
            )
    except InfeasibleDesignError:
        design = None
    if design is not None:
        with span("controller.gain_schedule"):
            schedule = pl.build_gain_schedule(design)
        with span("controller.numeric_rows"):
            rows = pl.numeric_rows(p["c"], design.alpha)
        with span("controller.symbolic_rows"):
            pl.symbolic_rows(design.n)
        with span("analysis.verify_mapping"):
            report = pl.verify_mapping(design.n, design.alpha, p["tau"])
    latency = time.perf_counter() - start

    problems = []
    if (design is not None) != p["feasible"]:
        verb = "accepted" if design is not None else "rejected"
        problems.append(f"{'in' if design is not None else ''}feasible design {verb}")
    result = None
    if report is not None:
        if not report.ok:
            problems.append(
                f"mapping check failed at n={design.n}, alpha={design.alpha:.3g}: "
                f"round trip {report.max_round_trip_error:.2e}"
            )
        if tuple(q for q, _ in rows) != schedule.coefficients:
            problems.append("numeric_rows disagree with the gain schedule")
        result = [design.alpha, design.mode, list(schedule.coefficients),
                  report.max_round_trip_error, report.max_composition_error, report.ok]
    return Outcome(latency, problems, {"fingerprint": {"design": checks.sha256_json(result)}})


def execute(req: Request, work_dir: Path, tracer=None, replays: dict | None = None) -> Outcome:
    """Run one request; an exception escaping the program is a failure."""
    out_dir = work_dir / f"r{req.index}"
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        if req.kind == "design":
            return _run_design(req, tracer)
        return _run_simulate(req, out_dir, tracer, {} if replays is None else replays)
    except Exception as exc:  # the benchmark must keep running and count it
        return Outcome(time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"], {})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

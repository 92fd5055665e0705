"""Closed-loop benchmark for ptc-lab: one client, one thread, one process.

    python3 perfbench/run.py --workload ex3-stable --seed 6 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The client sends its next request only after the previous one finished,
for ``--seconds`` seconds (at least one request). ``--trace 0`` measures
the end-to-end metrics with no instrumentation. ``--trace 1`` runs every
request twice, untraced then traced, reports per-layer metrics from the
traced copy and the tracing overhead from the pair, and requires both
copies to write bitwise identical outputs. ``--workload all`` runs each
workload in its own fresh process and prints every end-to-end metric.

The program is imported from ``src/`` of the checkout this file lives in;
nothing installed elsewhere is used. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the metrics ``BENCHMARK.json`` lists for the chosen mode; the lines
before it report everything else, including the run record and the
per-request fingerprints.
"""

import time

SETUP_START = time.perf_counter()  # setup_s counts from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import sympy  # verify_mapping loads it lazily; setup_s includes it
from sympy.core.cache import clear_cache

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh processes timed before the loop, and again after it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Every metric the benchmark can report, with its unit. BENCHMARK.json
# picks the ones the last output line carries.
END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_s_p50": "s",
    "request_s_tail": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "frac",
}
PER_LAYER_UNITS = {
    "sim.run_s": "s",
    "sim.us_per_step": "us",
    "sim.steps": "count",
    "sim.trace_rows": "count",
    "sim.steps_cap.dt": "count",
    "sim.steps_cap.shrink": "count",
    "sim.steps_cap.stiff": "count",
    "sim.steps_cap.final": "count",
    "plant.f_calls": "count",
    "plant.f_s": "s",
    "plant.f_s.builtin": "s",
    "plant.f_s.expression": "s",
    "plant.g_s": "s",
    "plant.check_assumption_calls": "count",
    "plant.check_assumption_s": "s",
    "expressions.parse_s": "s",
    "controller.design_s": "s",
    "controller.gain_schedule_s": "s",
    "controller.numeric_rows_s": "s",
    "controller.symbolic_rows_s": "s",
    "controller.evaluate_us": "us",
    "linalg.solve_lyapunov_s": "s",
    "combinatorics.transform_matrices_s": "s",
    "analysis.verify_mapping_s": "s",
    "analysis.certify_s": "s",
    "analysis.certify_samples": "count",
    "cli.simulate_self_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.write_sidecar_s": "s",
    "cli.verify_s": "s",
    "cli.verdict.stable": "count",
    "cli.verdict.attractive": "count",
    "cli.verdict.inconclusive": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}
VERDICTS = {
    "triangularly_stable": "stable",
    "triangularly_attractive": "attractive",
    "inconclusive": "inconclusive",
}


def import_program() -> None:
    """Import ptc_lab from this checkout's ``src/``; exit if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import ptc_lab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(ptc_lab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: ptc_lab came from {ptc_lab.__file__}, not {SRC}")


def listed_metrics() -> tuple[list[str], list[str]]:
    """Names of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None


def measure_setup(workload: str, seed: int) -> list[float]:
    """Setup times of SETUP_PROBES fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


class Run:
    """The closed loop over one workload's requests, with its bookkeeping."""

    def __init__(self, requests, work_dir, trace):
        self.requests = requests
        self.work_dir = work_dir
        self.tracer = Tracer() if trace else None
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.failures: list[tuple[int, list[str]]] = []
        self.fingerprints: dict[int, dict] = {}
        self.facts: list[dict] = []
        self.replays: dict = {}

    def one(self, i: int) -> None:
        req = self.requests[i % len(self.requests)]
        if self.tracer is not None:
            # Both copies of a traced pair start from a cold sympy cache;
            # otherwise the second copy reuses the first one's derivatives.
            clear_cache()
        out = workloads.execute(req, self.work_dir, None, self.replays)
        problems = list(out.problems)
        self.latencies.append(out.latency_s)
        first = self.fingerprints.setdefault(req.index, out.facts.get("fingerprint"))
        if out.facts.get("fingerprint") != first:
            problems.append("output differs from an earlier run of the same input")
        if self.tracer is not None:
            clear_cache()
            with self.tracer.instrument(i):
                traced = workloads.execute(req, self.work_dir, self.tracer, self.replays)
            self.traced_latencies.append(traced.latency_s)
            problems += [f"traced: {p}" for p in traced.problems]
            if traced.facts.get("fingerprint") != first:
                problems.append("traced output differs from the untraced output")
            self.facts.append(traced.facts)
        if problems:
            self.failures.append((i, problems))

    def loop(self, seconds: float) -> float:
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            self.one(i)
            i += 1
        return time.perf_counter() - start

    def per_layer(self) -> dict[str, float]:
        totals = self.tracer.totals()
        n = self.tracer.requests

        def total(name, key="total_s"):
            return totals.get(name, {}).get(key, 0.0)

        def mean(key):
            return sum(f.get(key, 0) for f in self.facts) / n

        steps = sum(f.get("steps", 0) for f in self.facts)
        untraced = sum(self.latencies)
        traced = sum(self.traced_latencies)
        f_names = ("plant.f.builtin", "plant.f.expression")
        evaluate = [f["evaluate_us"] for f in self.facts if "evaluate_us" in f]
        verdicts = [VERDICTS[f["verdict"]] for f in self.facts if "verdict" in f]
        out = {
            "sim.run_s": total("sim.run") / n,
            "sim.us_per_step": total("sim.run") / steps * 1e6 if steps else 0.0,
            "sim.steps": steps / n,
            "sim.trace_rows": mean("rows"),
            "plant.f_calls": sum(total(k, "calls") for k in f_names) / n,
            "plant.f_s": sum(total(k) for k in f_names) / n,
            "plant.f_s.builtin": total("plant.f.builtin") / n,
            "plant.f_s.expression": total("plant.f.expression") / n,
            "plant.g_s": total("plant.g") / n,
            "plant.check_assumption_calls": total("plant.check_assumption", "calls") / n,
            "plant.check_assumption_s": total("plant.check_assumption") / n,
            "expressions.parse_s": total("expressions.parse") / n,
            "controller.design_s": total("controller.design") / n,
            "controller.gain_schedule_s": total("controller.gain_schedule") / n,
            "controller.numeric_rows_s": total("controller.numeric_rows") / n,
            "controller.symbolic_rows_s": total("controller.symbolic_rows") / n,
            "controller.evaluate_us": statistics.median(evaluate) if evaluate else 0.0,
            "linalg.solve_lyapunov_s": total("linalg.solve_lyapunov") / n,
            "combinatorics.transform_matrices_s": total("combinatorics.transform_matrices") / n,
            "analysis.verify_mapping_s": total("analysis.verify_mapping") / n,
            "analysis.certify_s": total("analysis.certify") / n,
            "analysis.certify_samples": mean("samples_used"),
            "cli.simulate_self_s": total("cli.simulate", "self_s") / n,
            "cli.write_csv_s": total("cli.write_csv") / n,
            "cli.csv_bytes": mean("csv_bytes"),
            "cli.write_sidecar_s": total("cli.write_sidecar") / n,
            "cli.verify_s": total("cli.verify") / n,
            "trace.overhead_s": (traced - untraced) / n,
            "trace.overhead_frac": traced / untraced - 1.0,
        }
        for cap in checks.CAP_NAMES:
            out[f"sim.steps_cap.{cap}"] = sum(f["caps"][cap] for f in self.facts if "caps" in f) / n
        for verdict in VERDICTS.values():
            out[f"cli.verdict.{verdict}"] = verdicts.count(verdict)
        return out


def run_record(seed: int) -> dict:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def run_workload(args) -> int:
    import_program()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        requests = workloads.generate(args.workload, args.seed, ROOT, work_dir / "inputs")
        own_setup = time.perf_counter() - SETUP_START
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        record = run_record(args.seed)
        # Probes before and after the loop spread the samples over the run.
        # A traced run reports no setup time, so it spawns no probes.
        setups = [own_setup]
        if not args.trace:
            setups += measure_setup(args.workload, args.seed)
        run = Run(requests, work_dir, args.trace)
        elapsed = run.loop(args.seconds)
        if not args.trace:
            setups += measure_setup(args.workload, args.seed)
        record["loadavg_end"] = os.getloadavg()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(run.latencies)
    failed = len(run.failures)
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": attempted / elapsed,
        "request_s_p50": statistics.median(run.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
    }
    tail_at = tail(run.latencies)
    if tail_at is not None:
        metrics["request_s_tail"] = tail_at[1]
        record["request_s_tail_percentile"] = tail_at[0]
    units = END_TO_END_UNITS
    if args.trace:
        metrics = run.per_layer()
        units = PER_LAYER_UNITS
    listed_e2e, listed_layers = listed_metrics()
    listed = listed_layers if args.trace else listed_e2e

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {attempted} requests in {elapsed:.3f} s, {failed} failed")
    if not args.trace:
        print(f"  setup_s samples: {[round(s, 4) for s in setups]}")
        if tail_at is not None:
            print(f"  request_s_tail is p{tail_at[0]:g} of {attempted} requests")
        else:
            print(f"  request_s_tail omitted: {attempted} requests leave no "
                  "percentile with 10 samples beyond it")
    for name in sorted(metrics):
        print(f"  {name:36s} {metrics[name]:.6g} {units[name]}")
    for i, problems in run.failures[:20]:
        print(f"  request {i} failed: {'; '.join(problems)}")
    record.update(
        workload=args.workload,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        fingerprints={str(k): v for k, v in sorted(run.fingerprints.items())},
    )
    if args.trace:
        record["spans"] = run.tracer.totals()
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in listed
        },
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table of end-to-end metrics."""
    rows = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.splitlines()[-2])["record"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"{'metric':36s} " + " ".join(f"{w:>14s}" for w in rows) + "  unit")
    for name in units:
        cells = [rows[w]["metrics"].get(name) for w in rows]
        print(f"{name:36s} " + " ".join(
            f"{'-':>14s}" if v is None else f"{v:14.6g}" for v in cells
        ) + f"  {units[name]}")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {
            f"{w}.{name}": {"value": v, "unit": units[name]}
            for w, r in rows.items() for name, v in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ex3-stable", "ex2-sweep", "design-map", "all"))
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

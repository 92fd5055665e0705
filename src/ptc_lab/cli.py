"""Command-line front end: design, simulate, table, and verify.

Exit codes are part of the contract:

    0  success (stable or attractive certificate where one is expected)
    1  usage error, malformed scenario, trace or sidecar file, or a file
       that cannot be read or written
    2  infeasible design or a plant that violates its declared envelope
    3  simulation ran but the certificate is inconclusive
    4  divergence, including arithmetic errors in the plant or the control
       law (a partial trace is still written when samples exist)

Scenario files are JSON with four sections: ``plant``, ``controller``,
``sim``, and optional ``output``. Unknown keys anywhere are rejected so a
typo fails before anything runs. The trace CSV schema is fixed:

    t,x1..xn,u,norm_x,lambda_bound

with 17 significant digits per cell; ``lambda_bound`` is
``||x0|| * max(1 - t/tau, 0)``. Each CSV gets a JSON sidecar with the same
stem carrying the design, config, and certificate, which ``verify`` reads
back so re-certification reproduces the original verdict exactly.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import MISSING, asdict, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import native
from .analysis import certify
from .controller import ControllerDesign, numeric_rows, symbolic_rows
from .errors import (
    AssumptionViolationError,
    DivergenceError,
    InfeasibleDesignError,
    PtcLabError,
    ScenarioError,
    TraceFormatError,
)
from .plant import PlantSpec, builtin_plant, plant_from_expressions
from .sim import SimConfig, SimTrace, _finite, plant_design, sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_DIVERGENCE = 4

# Exit code per error that main() catches; the first matching row wins and
# every other error, OSError included, is a usage error.
_ERROR_EXIT_CODES = (
    (DivergenceError, EXIT_DIVERGENCE),
    ((InfeasibleDesignError, AssumptionViolationError), EXIT_INFEASIBLE),
)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# Scenario loading.
# ---------------------------------------------------------------------------

def _check_keys(
    section: str, data: Mapping, allowed: set[str], required: set[str]
) -> None:
    if not isinstance(data, dict):
        raise ScenarioError(f"{section} section must be a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {section} section")
    missing = sorted(required - set(data))
    if missing:
        raise ScenarioError(f"missing key(s) {missing} in {section} section")


def _number(section: str, data: Mapping, key: str, default=None) -> float:
    if key not in data:
        return default
    v = data[key]
    x = _finite(v)
    if x is None:
        raise ScenarioError(f"{section}.{key} must be a finite number, got {v!r}")
    return x


def _integer(section: str, data: Mapping, key: str, default=None):
    if key not in data:
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{section}.{key} must be an integer, got {v!r}")
    return v


def _number_list(section: str, data: Mapping, key: str) -> tuple[float, ...]:
    v = data[key]
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{section}.{key} must be a nonempty list of numbers")
    out = []
    for item in v:
        x = _finite(item)
        if x is None:
            raise ScenarioError(
                f"{section}.{key} must contain finite numbers only, got {item!r}"
            )
        out.append(x)
    return tuple(out)


def _string(section: str, data: Mapping, key: str, default=None):
    if key not in data:
        return default
    v = data[key]
    if not isinstance(v, str):
        raise ScenarioError(f"{section}.{key} must be a string, got {v!r}")
    return v


def _build_plant(section: Mapping, seed_override: int | None) -> PlantSpec:
    if isinstance(section, dict) and "builtin" in section:
        _check_keys("plant", section, {"builtin", "seed"}, {"builtin"})
        name = _string("plant", section, "builtin")
        seed = _integer("plant", section, "seed", 0)
        if seed_override is not None:
            seed = seed_override
        return builtin_plant(name, seed=seed)
    _check_keys(
        "plant",
        section,
        {"n", "f", "g", "gamma", "gamma_min", "phi", "phi0", "seed", "label"},
        {"n", "f", "gamma", "gamma_min", "phi", "phi0"},
    )
    n = _integer("plant", section, "n")
    if n is None or n < 1:
        raise ScenarioError(f"plant.n must be a positive integer, got {n!r}")
    seed = _integer("plant", section, "seed")
    if seed_override is not None:
        seed = seed_override
    try:
        return plant_from_expressions(
            n,
            _string("plant", section, "f"),
            _string("plant", section, "g", "1"),
            gamma=_number("plant", section, "gamma"),
            gamma_min=_number("plant", section, "gamma_min"),
            phi=_number("plant", section, "phi"),
            phi0=_number("plant", section, "phi0"),
            seed=seed,
            label=_string("plant", section, "label", "custom"),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


_SIM_FIELDS = fields(SimConfig)
# A field without a default (x0) is a list of numbers.
_SIM_PARSERS = {int: _integer, float: _number, type(MISSING): _number_list}


def _build_sim_config(section: Mapping, plant: PlantSpec, args) -> SimConfig:
    """The ``sim`` section is the ``SimConfig`` schema: one key per field,
    required when the field has no default, parsed after the type of the
    default; omitted keys keep ``SimConfig``'s own defaults."""
    _check_keys(
        "sim",
        section,
        {f.name for f in _SIM_FIELDS},
        {f.name for f in _SIM_FIELDS if f.default is MISSING},
    )
    values = {
        f.name: _SIM_PARSERS[type(f.default)]("sim", section, f.name)
        for f in _SIM_FIELDS
        if f.name in section
    }
    if len(values["x0"]) != plant.n:
        raise ScenarioError(
            f"sim.x0 has length {len(values['x0'])} but the plant order is {plant.n}"
        )
    overrides = {
        "epsilon_fraction": getattr(args, "epsilon", None),
        "dt_base": getattr(args, "dt", None),
    }
    values.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _load_scenario(path: str, args) -> dict:
    """Parse a scenario file and fold in command-line overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    _check_keys(
        "top-level", raw, {"plant", "controller", "sim", "output"},
        {"plant", "controller"},
    )

    plant = _build_plant(raw["plant"], getattr(args, "seed", None))

    ctrl = raw["controller"]
    _check_keys("controller", ctrl, {"c", "tau", "taus", "alpha"}, {"c"})
    c = _number_list("controller", ctrl, "c")
    if len(c) != plant.n:
        raise ScenarioError(
            f"controller.c has length {len(c)} but the plant order is {plant.n}"
        )
    if "tau" in ctrl and "taus" in ctrl:
        raise ScenarioError("controller section takes either tau or taus, not both")
    if "taus" in ctrl:
        taus = _number_list("controller", ctrl, "taus")
    elif "tau" in ctrl:
        taus = (_number("controller", ctrl, "tau"),)
    else:
        taus = ()
    if getattr(args, "tau", None):
        taus = tuple(args.tau)
    if not taus:
        raise ScenarioError("no tau given: set controller.tau/taus or pass --tau")
    for tau in taus:
        if not tau > 0:
            raise ScenarioError(f"tau must be positive, got {tau}")
    alpha = _number("controller", ctrl, "alpha")

    sim_cfg = None
    if "sim" in raw:
        sim_cfg = _build_sim_config(raw["sim"], plant, args)

    out_dir = "."
    stem = None
    if "output" in raw:
        outsec = raw["output"]
        _check_keys("output", outsec, {"directory", "stem"}, set())
        out_dir = _string("output", outsec, "directory", ".")
        stem = _string("output", outsec, "stem")
    if getattr(args, "out_dir", None) is not None:
        out_dir = args.out_dir

    return {
        "plant": plant,
        "c": c,
        "taus": taus,
        "alpha": alpha,
        "sim": sim_cfg,
        "out_dir": Path(out_dir),
        "stem": stem or plant.label,
    }


# ---------------------------------------------------------------------------
# Trace serialization.
# ---------------------------------------------------------------------------

def _trace_csv_path(out_dir: Path, stem: str, tau: float, partial: bool) -> Path:
    suffix = "_partial" if partial else ""
    return out_dir / f"{stem}_tau{tau:g}{suffix}.csv"


def _trace_header(n: int) -> str:
    return "t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",u,norm_x,lambda_bound"


def write_trace_csv(path: Path, trace: SimTrace) -> None:
    """Write one trace in the fixed CSV schema.

    The compiled writer (``native.write_rows``) runs once a compiled run
    has built the library; the Python writer below is the reference and
    the fallback, and both write the same bytes.
    """
    n = trace.states.shape[1]
    x0_norm = float(trace.metadata["x0_norm"])
    header = _trace_header(n) + "\n"
    columns = [
        trace.times,
        *trace.states.T,
        trace.inputs,
        trace.norms,
        x0_norm * trace.lambda_values,
    ]
    if native.built() is not None:
        with open(path, "wb") as fh:
            fh.write(header.encode())
            native.write_rows(fh, columns)
        return
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.writelines(map(row.format, *(c.tolist() for c in columns)))


def write_sidecar(path: Path, trace: SimTrace, certificate=None) -> None:
    """Write the JSON sidecar carrying metadata and the certificate."""
    payload: dict = {
        "metadata": dict(trace.metadata),
        "rows": int(trace.times.shape[0]),
    }
    if certificate is not None:
        payload["certificate"] = asdict(certificate)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _print_design(design: ControllerDesign) -> None:
    lyap = design.lyapunov
    print(f"tau = {design.tau:g}")
    print(f"  c: ({', '.join(_fmt(v) for v in design.c)})")
    print("  companion matrix Hurwitz: yes")
    print("  P:")
    for row in lyap.P:
        print("    [" + ", ".join(_fmt(v) for v in row) + "]")
    print(f"  lambda_min(P): {_fmt(lyap.lambda_min)}")
    print(f"  lambda_max(P): {_fmt(lyap.lambda_max)}")
    print(f"  lyapunov residual: {_fmt(lyap.residual)}")
    print(f"  bound_attractive: {_fmt(design.bound_attractive)}")
    if design.bound_stable is None:
        print("  bound_stable: not applicable (phi0 > 0)")
    else:
        print(f"  bound_stable: {_fmt(design.bound_stable)}")
    print(f"  alpha: {_fmt(design.alpha)}")
    print(f"  mode: {design.mode}")


def cmd_design(args) -> int:
    scenario = _load_scenario(args.scenario, args)
    plant: PlantSpec = scenario["plant"]
    sim_cfg: SimConfig | None = scenario["sim"]
    eps_fraction = (sim_cfg or SimConfig).epsilon_fraction
    print(f"plant: {plant.describe()}")
    for tau in scenario["taus"]:
        _print_design(
            plant_design(plant, scenario["c"], tau, scenario["alpha"], eps_fraction)
        )
    return EXIT_OK


def _print_certificate(tag: str, cert) -> None:
    parts = [f"verdict: {cert.verdict}"]
    if cert.sigma is not None:
        parts.append(f"sigma={_fmt(cert.sigma)}")
    if cert.varsigma is not None:
        parts.append(f"varsigma={_fmt(cert.varsigma)}")
    if cert.t0 is not None:
        parts.append(f"t0={_fmt(cert.t0)}")
    if cert.margin is not None:
        parts.append(f"margin={_fmt(cert.margin)}")
    parts.append(f"final_norm={_fmt(cert.final_norm)}")
    print(f"{tag} " + " ".join(parts))


def _note_missed_peak(tag: str, x_max: float | None, states: np.ndarray) -> None:
    """Say on stderr when the run's peak ``|x_i|``, ``x_max`` from its
    metadata, exceeds every recorded one: the verdict then grades samples
    that miss the peak."""
    recorded = float(np.max(np.abs(states))) if states.size else 0.0
    if x_max is not None and x_max > recorded:
        print(
            f"{tag} note: the run's peak |x_i| = {x_max:.5g} falls between recorded "
            f"samples (largest recorded {recorded:.5g}); the verdict grades the "
            "recorded samples only",
            file=sys.stderr,
        )


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario, args)
    if scenario["sim"] is None:
        raise ScenarioError("simulate requires a sim section in the scenario")
    plant: PlantSpec = scenario["plant"]
    cfg: SimConfig = scenario["sim"]
    out_dir: Path = scenario["out_dir"]
    stem: str = scenario["stem"]
    # Files are named by {tau:g}: deadlines that format alike would
    # overwrite each other's files.
    named: dict[str, float] = {}
    for tau in scenario["taus"]:
        name = f"{tau:g}"
        if name in named:
            raise ScenarioError(
                f"deadlines {named[name]!r} and {tau!r} would both write "
                f"{_trace_csv_path(out_dir, stem, tau, partial=False)}"
            )
        named[name] = tau
    out_dir.mkdir(parents=True, exist_ok=True)

    # One deadline at a time: the files of the deadlines that finished stay
    # written when a later one fails, and the first failure ends the sweep.
    worst = EXIT_OK
    for tau in scenario["taus"]:
        try:
            (trace,) = sweep(plant, scenario["c"], (tau,), cfg, alpha=scenario["alpha"])
        except DivergenceError as exc:
            if exc.trace is not None:
                path = _trace_csv_path(out_dir, stem, tau, partial=True)
                write_trace_csv(path, exc.trace)
                write_sidecar(path.with_suffix(".json"), exc.trace)
                print(f"partial trace written to {path}", file=sys.stderr)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DIVERGENCE
        cert = certify(trace)
        path = _trace_csv_path(out_dir, stem, tau, partial=False)
        write_trace_csv(path, trace)
        write_sidecar(path.with_suffix(".json"), trace, cert)
        print(f"[tau={tau:g}] wrote {path} ({trace.times.shape[0]} rows)")
        _print_certificate(f"[tau={tau:g}]", cert)
        _note_missed_peak(f"[tau={tau:g}]", trace.metadata["x_max"], trace.states)
        if cert.verdict == "inconclusive":
            worst = max(worst, EXIT_INCONCLUSIVE)
    return worst


def cmd_table(args) -> int:
    n = args.n
    if not 1 <= n <= 20:
        raise ScenarioError(f"n must lie in 1..20, got {n}")
    if (args.c is None) != (args.alpha is None):
        raise ScenarioError("numeric tables need both --c and --alpha")
    if args.c is None:
        for line in symbolic_rows(n):
            print(line)
        return EXIT_OK
    c = args.c
    if len(c) != n:
        raise ScenarioError(f"--c has {len(c)} entries, expected {n}")
    if args.alpha <= 0:
        raise ScenarioError(f"--alpha must be positive, got {args.alpha}")
    for i, (q, power) in enumerate(numeric_rows(c, args.alpha), start=1):
        denom = "(tau - t)" if power == 1 else f"(tau - t)^{power}"
        print(f"p{i} = {_fmt(q)}/{denom}")
    return EXIT_OK


def _read_trace_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    try:
        try:
            data = _read_trace_rows_compiled(path)
            if data is None:
                data = _read_trace_rows(path)
        except UnicodeDecodeError:  # at a position in the text reader's chunk
            Path(path).read_bytes().decode()  # raises it at the position in the file
            raise
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace {path} is not UTF-8 text: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise TraceFormatError(f"{path} has a non-finite cell")
    n = data.shape[1] - 4
    times = data[:, 0]
    states = data[:, 1 : 1 + n]
    inputs = data[:, 1 + n]
    norms = data[:, 2 + n]
    lambda_bound = data[:, 3 + n]
    return times, states, inputs, norms, lambda_bound


def _read_trace_rows_compiled(path: str) -> np.ndarray | None:
    """The cells of a trace CSV as ``write_trace_csv`` writes it, parsed by
    ``native.parse_rows``; None for any other file, or when no compiled run
    has built the library, so that ``_read_trace_rows`` judges it from the
    start."""
    if native.built() is None:
        return None
    with open(path, "rb") as fh:
        header = fh.readline()
        n = header.count(b",") - 3
        if n < 1 or header != f"{_trace_header(n)}\n".encode():
            return None
        return native.parse_rows(fh.read(), n + 4)


def _read_trace_rows(path: str) -> np.ndarray:
    """The cells of a trace CSV as a (rows, columns) array: the reference
    reader and the fallback."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise TraceFormatError(f"{path} is empty") from None
        _check_trace_header(path, header)
        # The body streams from the handle into loadtxt; peeking at its
        # first line turns an empty body into an error (loadtxt would
        # only warn and return an empty array).
        first = fh.readline()
        if not first.strip():
            raise TraceFormatError(f"{path} contains no data rows")
        try:
            data = np.loadtxt(
                itertools.chain([first], fh),
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=2,
            )
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise TraceFormatError(f"{path} has a non-numeric cell: {exc}") from exc
    if data.shape[1] != len(header):
        raise TraceFormatError(f"{path} has ragged rows")
    return data


def _check_trace_header(path: str, header: list[str]) -> int:
    """Validate the CSV header and return the state dimension."""
    if len(header) < 4 or header[0] != "t" or header[-3:] != ["u", "norm_x", "lambda_bound"]:
        raise TraceFormatError(
            f"{path} header must be t,x1..xn,u,norm_x,lambda_bound, got {header}"
        )
    n = len(header) - 4
    if n < 1 or header[1 : 1 + n] != [f"x{i}" for i in range(1, n + 1)]:
        raise TraceFormatError(
            f"{path} state columns must be x1..xn in order, got {header[1:-3]}"
        )
    return n


def _infer_tau_x0(times: np.ndarray, lambda_bound: np.ndarray) -> tuple[float, float]:
    # SimTrace refuses such times too, but only after the slope below has
    # divided by their difference.
    if not np.all(np.diff(times) > 0):
        raise TraceFormatError("trace times must be strictly increasing")
    positive = np.nonzero(lambda_bound > 0)[0]
    if positive.size < 2:
        raise TraceFormatError(
            "cannot infer tau from lambda_bound; pass --tau and --x0-norm"
        )
    i, j = int(positive[0]), int(positive[-1])
    slope = (lambda_bound[j] - lambda_bound[i]) / (times[j] - times[i])
    if slope >= 0:
        raise TraceFormatError(
            "lambda_bound is not decreasing; cannot infer tau, pass --tau"
        )
    tau = float(times[i] - lambda_bound[i] / slope)
    x0_norm = float(-slope * tau)
    return tau, x0_norm


def _sidecar_metadata(path: Path, payload) -> Mapping:
    """The sidecar's ``metadata`` object, checked where ``verify`` reads it:
    ``tau``, ``x0_norm`` and ``x_max`` finite numbers, ``mode`` a design
    mode."""
    meta = payload.get("metadata", {}) if isinstance(payload, dict) else None
    if not isinstance(meta, dict):
        raise TraceFormatError(
            f"sidecar {path} must hold a JSON object with a metadata object"
        )
    for key in ("tau", "x0_norm", "x_max"):
        v = meta.get(key)
        if v is not None and _finite(v) is None:
            raise TraceFormatError(
                f"sidecar {path} metadata.{key} must be a finite number, got {v!r}"
            )
    mode = meta.get("mode")
    if mode not in (None, "attractive", "stable"):
        raise TraceFormatError(
            f"sidecar {path} metadata.mode must be attractive or stable, got {mode!r}"
        )
    return meta


def _column_agrees(column: np.ndarray, derived: np.ndarray, rel_tol: float) -> bool:
    scale = np.maximum(1.0, np.abs(column))
    return bool(np.max(np.abs(derived - column) / scale) <= rel_tol)


def cmd_verify(args) -> int:
    times, states, inputs, norms, lambda_bound = _read_trace_csv(args.trace)

    tau = args.tau
    x0_norm = args.x0_norm
    mode = args.mode
    x_max = None
    sidecar = Path(args.trace).with_suffix(".json")
    if sidecar.exists():
        try:
            with open(sidecar, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise TraceFormatError(f"cannot read sidecar {sidecar}: {exc}") from exc
        meta = _sidecar_metadata(sidecar, payload)
        rows = payload.get("rows", len(times))
        if type(rows) is not int or rows != len(times):
            raise TraceFormatError(
                f"sidecar {sidecar} has rows: {rows!r}, but {args.trace} has "
                f"{len(times)} data rows"
            )
        if tau is None:
            tau = meta.get("tau")
        if x0_norm is None:
            x0_norm = meta.get("x0_norm")
        if mode is None:
            mode = meta.get("mode")
        x_max = meta.get("x_max")
    if tau is None:
        tau, inferred_x0 = _infer_tau_x0(times, lambda_bound)
        if x0_norm is None:
            x0_norm = inferred_x0

    # norms and lambda_values do not depend on x0_norm, so a missing one is
    # read off the trace's first sample whose envelope is open.
    metadata = {"tau": tau, "x0_norm": 0.0 if x0_norm is None else x0_norm}
    if mode is not None:
        metadata["mode"] = mode
    trace = SimTrace(times, states, inputs, metadata)
    if x0_norm is None:
        usable = np.nonzero(trace.lambda_values > 0)[0]
        if usable.size == 0:
            raise TraceFormatError(
                "cannot infer x0_norm: every sample is past tau; pass --x0-norm"
            )
        k = int(usable[0])
        x0_norm = float(lambda_bound[k] / trace.lambda_values[k])
        trace = replace(trace, metadata={**metadata, "x0_norm": x0_norm})

    if not _column_agrees(norms, trace.norms, 1e-12):
        raise TraceFormatError(
            "norm_x column disagrees with the state columns beyond 1e-12"
        )
    if not _column_agrees(lambda_bound, x0_norm * trace.lambda_values, 1e-9):
        raise TraceFormatError(
            "lambda_bound column disagrees with x0_norm*max(1 - t/tau, 0); "
            "check --tau/--x0-norm or the sidecar"
        )
    cert = certify(trace)
    _print_certificate(f"[{args.trace}]", cert)
    _note_missed_peak(f"[{args.trace}]", x_max, states)
    return EXIT_INCONCLUSIVE if cert.verdict == "inconclusive" else EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract reserves 2
    # for infeasible designs, so usage errors are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_flag(text: str) -> float:
    """A numeric flag follows the finite-number rule of scenario files."""
    try:
        x = _finite(float(text))
    except ValueError:
        x = None
    if x is None:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return x


def _finite_flags(text: str) -> tuple[float, ...]:
    """A comma-separated list of numbers, each under ``_finite_flag``."""
    return tuple(map(_finite_flag, text.split(",")))


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    sub.add_argument(
        "--tau",
        action="append",
        type=_finite_flag,
        help="deadline override; repeat for a sweep",
    )
    sub.add_argument("--seed", type=int, help="plant seed override")
    sub.add_argument("--out-dir", help="output directory override")
    sub.add_argument(
        "--epsilon", type=_finite_flag, help="guard fraction epsilon/tau override"
    )
    sub.add_argument("--dt", type=_finite_flag, help="base step override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptc-lab",
        description="Design, simulate, and certify prescribed-time controllers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_design = subs.add_parser("design", help="print the design report")
    _add_scenario_flags(p_design)
    p_design.set_defaults(func=cmd_design)

    p_sim = subs.add_parser("simulate", help="run the closed loop and certify")
    _add_scenario_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_table = subs.add_parser("table", help="print the gain table for order n")
    p_table.add_argument("n", type=int)
    p_table.add_argument(
        "--c", type=_finite_flags, help="comma-separated coefficients for numeric mode"
    )
    p_table.add_argument("--alpha", type=_finite_flag, help="rate for numeric mode")
    p_table.set_defaults(func=cmd_table)

    p_verify = subs.add_parser("verify", help="re-certify a trace CSV")
    p_verify.add_argument("trace", help="path to a trace CSV")
    p_verify.add_argument("--tau", type=_finite_flag, help="deadline if no sidecar")
    p_verify.add_argument(
        "--x0-norm", dest="x0_norm", type=_finite_flag, help="initial norm if no sidecar"
    )
    p_verify.add_argument(
        "--mode",
        choices=["attractive", "stable"],
        help="design mode if no sidecar",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser that every ``main`` call of this process reuses: parsing
    leaves nothing on it, and argparse makes its help formatter, which
    reads COLUMNS, anew each time it prints."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (PtcLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (code for types, code in _ERROR_EXIT_CODES if isinstance(exc, types)),
            EXIT_USAGE,
        )


if __name__ == "__main__":
    sys.exit(main())

"""Outcome checks and fingerprints for one benchmark request.

These functions only read what a request left behind (the trace CSV, its
JSON sidecar and the text ``verify`` printed), so they run outside the
timed region and can be pointed at deliberately damaged outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CERT_FIELDS = ("sigma", "varsigma", "t0", "margin", "final_norm")
CAP_NAMES = ("dt", "shrink", "stiff", "final")


def fmt(value: float) -> str:
    """The CLI's 17-significant-digit rendering of a float."""
    return format(float(value), ".17g")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_json(value) -> str:
    return sha256_bytes(json.dumps(value, sort_keys=True).encode())


def parse_verify_line(stdout: str) -> dict[str, str]:
    """Fields of the ``[path] verdict: ... key=value`` line ``verify`` prints."""
    lines = [line for line in stdout.splitlines() if " verdict: " in line]
    if len(lines) != 1:
        raise ValueError(f"expected one verdict line, got {len(lines)}")
    tokens = lines[0].split(" verdict: ", 1)[1].split()
    fields = {"verdict": tokens[0]}
    for token in tokens[1:]:
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def certificate_mismatches(sidecar_cert: dict, printed: dict[str, str]) -> list[str]:
    """Fields where ``verify``'s output differs from the sidecar certificate."""
    problems = []
    if printed.get("verdict") != sidecar_cert["verdict"]:
        problems.append(f"verdict {printed.get('verdict')} != {sidecar_cert['verdict']}")
    for key in CERT_FIELDS:
        value = sidecar_cert.get(key)
        expected = None if value is None else fmt(value)
        if printed.get(key) != expected:
            problems.append(f"{key} {printed.get(key)} != {expected}")
    return problems


def replay_step_caps(meta: dict) -> dict[str, int]:
    """Count which cap set each RK4 step, replaying ``sim.run``'s step rule.

    Step sizes depend only on the design and the config, never on the
    state, so this loop visits exactly the times the integrator visited:
    ``h = min(dt_base, d/shrink_divisor, stiffness_safety*alpha*d)`` with
    ``d = tau - t``, clamped to land on ``t_end``. Ties go to the cap
    listed first.
    """
    tau = float(meta["tau"])
    t_end = tau * (1.0 - float(meta["epsilon_fraction"]))
    dt_base = float(meta["dt_base"])
    shrink = float(meta["shrink_divisor"])
    stiff_cap = float(meta["stiffness_safety"]) * float(meta["alpha"])
    counts = dict.fromkeys(CAP_NAMES, 0)
    t = 0.0
    while t < t_end - 1e-12 * tau:
        d = tau - t
        by_shrink = d / shrink
        by_stiff = stiff_cap * d
        h = min(dt_base, by_shrink, by_stiff)
        if h >= t_end - t:
            counts["final"] += 1
            t = t_end
            continue
        if h == dt_base:
            counts["dt"] += 1
        elif h == by_shrink:
            counts["shrink"] += 1
        else:
            counts["stiff"] += 1
        t = t + h
    return counts


def check_simulation(
    out_dir: Path,
    sim_code: int,
    verify_code: int | None,
    verify_stdout: str,
    replays: dict,
) -> tuple[list[str], dict]:
    """Check one simulate+verify request; return (problems, facts).

    ``facts`` carries the fingerprint and the counts the per-layer
    metrics use. ``replays`` caches step-cap replays by their inputs.
    """
    if sim_code not in (0, 3):
        return [f"simulate exited {sim_code}"], {}
    csvs = sorted(out_dir.glob("*.csv"))
    if len(csvs) != 1:
        return [f"expected one trace CSV, found {len(csvs)}"], {}
    csv_bytes = csvs[0].read_bytes()
    sidecar = json.loads(csvs[0].with_suffix(".json").read_text())
    cert = sidecar.get("certificate")
    meta = sidecar["metadata"]
    if cert is None:
        return ["sidecar carries no certificate"], {}
    problems = []
    expected_code = 3 if cert["verdict"] == "inconclusive" else 0
    if sim_code != expected_code:
        problems.append(f"simulate exited {sim_code} for verdict {cert['verdict']}")
    if verify_code != expected_code:
        problems.append(f"verify exited {verify_code}, expected {expected_code}")
    else:
        try:
            problems += certificate_mismatches(cert, parse_verify_line(verify_stdout))
        except ValueError as exc:
            problems.append(f"verify output: {exc}")
    rows = csv_bytes.count(b"\n") - 1
    if rows != sidecar["rows"]:
        problems.append(f"CSV has {rows} rows, sidecar says {sidecar['rows']}")
    key = tuple(meta[k] for k in (
        "tau", "alpha", "dt_base", "epsilon_fraction", "shrink_divisor", "stiffness_safety"
    ))
    if key not in replays:
        replays[key] = replay_step_caps(meta)
    caps = replays[key]
    if sum(caps.values()) != meta["steps_total"]:
        problems.append(
            f"step-cap replay counts {sum(caps.values())} steps, "
            f"run took {meta['steps_total']}"
        )
    facts = {
        "fingerprint": {"csv": sha256_bytes(csv_bytes), "certificate": sha256_json(cert)},
        "csv_path": csvs[0],
        "meta": meta,
        "steps": meta["steps_total"],
        "rows": rows,
        "csv_bytes": len(csv_bytes),
        "caps": caps,
        "verdict": cert["verdict"],
        "samples_used": cert["samples_used"],
    }
    return problems, facts

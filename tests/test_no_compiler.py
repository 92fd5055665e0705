"""Without a C compiler every run takes the Python loop of ``sim.run``.

The command line must then write exactly what it writes when the compiled
loop runs: the same CSVs, sidecars, stdout, stderr and exit codes, byte
for byte. These tests run with and without gcc; without it, both sides
of the comparison take the Python loop.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from ptc_lab import native
from ptc_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def integrated(monkeypatch):
    """What each ``native.integrate`` call returned."""
    outcomes = []
    integrate = native.integrate

    def spy(*args, **kwargs):
        outcomes.append(integrate(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(native, "integrate", spy)
    return outcomes


def _session(out, capsys):
    """``simulate`` on both bundled scenarios, then ``verify`` on every CSV:
    each command's exit code and captured output, and every file written.

    ``example3`` runs to half its deadline, 41,234 steps instead of
    410,926, which the Python loop takes seconds for; its state rests at
    +0.0 from step 7,715 on, so the compiled loop's rest steps still run."""
    record = []
    for name, flags in (("example2", []), ("example3", ["--epsilon", "0.5"])):
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        record.append(main(["simulate", "--scenario", scenario, "--out-dir", str(out), *flags]))
        record.append(capsys.readouterr())
    for csv in sorted(out.glob("*.csv")):
        record.append(main(["verify", str(csv)]))
        record.append(capsys.readouterr())
    return record, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_output_is_the_same_without_a_compiler(tmp_path, capsys, monkeypatch, integrated):
    out = tmp_path / "out"
    with_compiler = _session(out, capsys)
    assert [run is not None for run in integrated] == [native.library() is not None] * 4
    shutil.rmtree(out)
    integrated.clear()
    monkeypatch.setattr(native, "library", lambda: None)
    assert _session(out, capsys) == with_compiler
    assert integrated == [None] * 4
    files = with_compiler[1]
    assert len(files) == 8  # four CSVs and their sidecars
    rows = [line.split(b",") for line in files["example3_tau10.csv"].splitlines()[1:]]
    assert [b"0"] * 4 in (row[1:5] for row in rows)  # a row at rest


def test_a_failing_build_leaves_no_library(tmp_path, monkeypatch):
    def fail(command, **kwargs):
        raise subprocess.CalledProcessError(1, command)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # an empty cache
    monkeypatch.setattr(shutil, "which", lambda name: name)  # as if gcc were on PATH
    monkeypatch.setattr(subprocess, "run", fail)
    native.library.cache_clear()
    try:
        assert native.library() is None
    finally:
        native.library.cache_clear()
    assert list((tmp_path / "ptc-lab").iterdir()) == []  # no half-built file left

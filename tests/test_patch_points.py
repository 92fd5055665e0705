"""The benchmark's tracer wraps module attributes of ``ptc_lab`` by name.

``perfbench/tracing.py`` patches the attributes that callers look up, such
as ``ptc_lab.cli.sweep`` and ``ptc_lab.sim.check_assumption``. A refactor
that drops or renames one would pass every other test here and fail only
in a traced benchmark run, so this test resolves each name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it is being executed.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_a_callable_in_ptc_lab(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    points = [
        (module, attribute)
        for table in (tracing.SPAN_PATCHES, tracing.LEAF_PATCHES, tracing.PLANT_FACTORIES)
        for module, attribute, _ in table
    ]
    assert points
    missing = [
        f"{module}.{attribute}"
        for module, attribute in points
        if not (
            module.startswith("ptc_lab.")
            and callable(getattr(importlib.import_module(module), attribute, None))
        )
    ]
    assert missing == []

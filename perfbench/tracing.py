"""In-memory spans around the calls into each ptc-lab layer.

A traced request patches the module attributes that callers look up
(``ptc_lab.sim.run``, ``ptc_lab.cli.certify``, ...) with wrappers that
record a span ``(name, start, end, parent, request)``. The patches are
undone when the request ends, so untraced requests run the program's own
functions. Plant callbacks and the envelope audit run several times per
integration step; recording one span per call would dominate memory, so
they are counted as leaves instead: a call count and a summed duration
per name, charged to the enclosing span as child time.

Nothing here edits the program; only attributes on its modules change,
and only inside :meth:`Tracer.instrument`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): the call sites a traced request wraps.
SPAN_PATCHES = (
    ("ptc_lab.cli", "sweep", "cli.sweep"),
    ("ptc_lab.cli", "certify", "analysis.certify"),
    ("ptc_lab.cli", "write_trace_csv", "cli.write_csv"),
    ("ptc_lab.cli", "write_sidecar", "cli.write_sidecar"),
    ("ptc_lab.sim", "run", "sim.run"),
    ("ptc_lab.sim", "design_controller", "controller.design"),
    ("ptc_lab.sim", "build_gain_schedule", "controller.gain_schedule"),
    ("ptc_lab.controller", "solve_lyapunov", "linalg.solve_lyapunov"),
    ("ptc_lab.plant", "parse_expression", "expressions.parse"),
    ("ptc_lab.analysis", "build_transform_matrices", "combinatorics.transform_matrices"),
)
LEAF_PATCHES = (("ptc_lab.sim", "check_assumption", "plant.check_assumption"),)
# Plant constructors the CLI calls; their results get wrapped f and g.
PLANT_FACTORIES = (
    ("ptc_lab.cli", "builtin_plant", "builtin"),
    ("ptc_lab.cli", "plant_from_expressions", "expression"),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans and leaf counters for the requests of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.leaves: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.requests = 0
        self._stack: list[int] = []
        self._request = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, perf_counter(), 0.0, parent, self._request)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += record.end - record.start

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_leaf(self, name: str, fn):
        counter = self.leaves[name]
        spans = self.spans
        stack = self._stack

        # No try/finally: an exception here ends the request anyway, and
        # this wrapper runs millions of times per traced request.
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            counter[0] += 1
            counter[1] += elapsed
            if stack:
                spans[stack[-1]].child_s += elapsed
            return result

        return counted

    def _wrap_factory(self, form: str, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(
                spec,
                f=self.wrap_leaf(f"plant.f.{form}", spec.f),
                g=self.wrap_leaf("plant.g", spec.g),
            )

        return make

    @contextmanager
    def instrument(self, request: int):
        """Trace one request: patch the call sites, restore them after."""
        patches = [
            (module, attr, functools.partial(wrapper, label))
            for table, wrapper in (
                (SPAN_PATCHES, self.wrap),
                (LEAF_PATCHES, self.wrap_leaf),
                (PLANT_FACTORIES, self._wrap_factory),
            )
            for module, attr, label in table
        ]
        saved = []
        self._request = request
        self.requests += 1
        try:
            for module_name, attr, make in patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._request = -1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: call count, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.self_s
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
        return out

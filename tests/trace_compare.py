"""One comparison of two runs, bit for bit, for the tests that hold a loop
of ``sim.run`` against another: the compiled loop against the Python loop
(``test_native``), and either against ``reference_run``
(``test_sim_oracle``). A run is compared as its blobs, the bytes of its
times, states and inputs and the repr of its metadata; a run that raised
as its exception type, message and partial trace's blobs. Where two runs
differ, ``_difference`` names the first differing row and column."""

import struct

import numpy as np


def _blobs(trace):
    """A ``SimTrace``'s blobs."""
    return (
        trace.times.tobytes(),
        trace.states.tobytes(),
        trace.inputs.tobytes(),
        repr(dict(trace.metadata)),
    )


def _list_blobs(times, states, inputs, metadata=None):
    """The blobs of a run recorded as lists, as ``reference_run`` records
    it."""
    return (
        *(np.asarray(v, dtype=np.float64).tobytes() for v in (times, states, inputs)),
        repr(metadata),
    )


def _pattern(v):
    """The bits of the double v."""
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _rows(blobs, n):
    """A trace's rows as (t, x1, ..., xn, u)."""
    times, states, inputs = (struct.unpack(f"={len(b) // 8}d", b) for b in blobs[:3])
    return [(t, *states[r * n:(r + 1) * n], u) for r, (t, u) in enumerate(zip(times, inputs))]


def _difference(got, want, n, names=("C", "Python")):
    """Where the outcome ``got`` first departs from ``want``, two runs of
    order n named by ``names``: the first differing row and column, with
    the row's t and both values in hex; else the exceptions, row counts or
    metadata that differ."""
    raised = [isinstance(outcome[0], type) for outcome in (got, want)]
    if any(raised) and got[:2] != want[:2]:
        return (f"{names[0]}: {got[:2] if raised[0] else 'a run'}, "
                f"{names[1]}: {want[:2] if raised[1] else 'a run'}")
    traces = [outcome[2] if r else outcome for outcome, r in zip((got, want), raised)]
    if not all(traces):
        return f"partial traces: {names[0]} {bool(traces[0])}, {names[1]} {bool(traces[1])}"
    rows = [_rows(trace, n) for trace in traces]
    columns = ["t", *(f"x{i + 1}" for i in range(n)), "u"]
    for r, (mine, theirs) in enumerate(zip(*rows)):
        for name, a, b in zip(columns, mine, theirs):
            if _pattern(a) != _pattern(b):
                return (f"row {r}, column {name}, t = {theirs[0]!r} ({theirs[0].hex()}): "
                        f"{names[0]} {a.hex()}, {names[1]} {b.hex()}")
    if len(rows[0]) != len(rows[1]):
        return f"rows: {names[0]} {len(rows[0])}, {names[1]} {len(rows[1])}"
    return f"metadata: {names[0]} {traces[0][3]}, {names[1]} {traces[1][3]}"

"""The compiled loop against the Python loop of ``sim.run``, bit for bit.

A plant built by the package runs in C; the same plant with ``f`` wrapped
by ``functools.wraps`` has no program and runs in Python. Every test here
compares the two, or a program with the callable it stands for. Without
gcc there is no compiled loop, and these tests skip.
"""

import ctypes
import math
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import ptc_lab as pl
from ptc_lab import native, sim
from ptc_lab.cli import main
from test_expressions import _grammar_text
from test_sim_oracle import (
    COEFFICIENTS,
    GAINS,
    NO_SHRINK,
    _hurwitz_coefficients,
    _python_path,
    _stand_in_design,
    _step_times,
    _vanishing_plant,
)
from trace_compare import _blobs, _difference, _pattern

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")


def _outcome(plant, design, cfg):
    """A run's trace bytes, or its exception, message and partial trace."""
    try:
        return _blobs(pl.run(plant, design, cfg))
    except Exception as exc:  # every kind must match between the loops
        partial = getattr(exc, "trace", None)
        return type(exc), str(exc), partial and _blobs(partial)


def _assert_same(plant, design, cfg, compiled):
    """The compiled and the Python loop agree; a run that completes in
    Python completes in C without handing back. Where they differ, the
    message names the first difference."""
    compiled.clear()  # hypothesis reuses the fixture across examples
    expected = _outcome(_python_path(plant), design, cfg)
    assert compiled == []
    got = _outcome(plant, design, cfg)
    assert got == expected, _difference(got, expected, len(cfg.x0))
    assert compiled == [not isinstance(expected[0], type)]
    return expected


def test_bundled_scenarios_take_the_compiled_path(tmp_path, compiled):
    for name, runs in (("example2", 3), ("example3", 1)):
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        assert main(["simulate", "--scenario", scenario, "--out-dir", str(tmp_path)]) == 0
        assert compiled == [True] * runs
        compiled.clear()


def test_a_wrapped_plant_takes_the_python_path(compiled):
    plant = pl.builtin_plant("example2")
    design = pl.design_controller((-1.0, -2.0), 5.0, alpha=0.0214, phi=plant.phi,
                                  phi0=plant.phi0)
    pl.run(_python_path(plant), design, pl.SimConfig(x0=(1.0, 1.0)))
    assert compiled == []
    assert native.program_of(plant.f) is not None
    assert native.program_of(_python_path(plant).f) is None


def _plant(n, kind, rnd, g_text, envelope):
    """A builtin plant of order 2 or 4, or an expression plant: the
    nominal f = 0, a vanishing f that reads t, one that reads u, or a
    grammar text."""
    if kind == "builtin" and n in (2, 4):
        return pl.builtin_plant("example2" if n == 2 else "example3", seed=3)
    f_text = {"nominal": "0", "input": "0.001*u/(1 + x1*x1)"}.get(kind, "0.001*x1*cos(t)")
    if kind == "grammar":
        # A random text of the expression grammar, scaled down so that
        # many runs complete; the rest fault, in both loops alike. The
        # tight envelope makes the audit refuse some of them.
        text = _grammar_text(rnd, rnd.randint(0, 5))
        f_text = f"1e-3*({text.replace('x2', 'x1') if n == 1 else text})"
    phi, phi0 = envelope
    return pl.plant_from_expressions(
        n, f_text, g_text, gamma=1.2, gamma_min=1.0, phi=phi, phi0=phi0
    )


@settings(derandomize=True, max_examples=300, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(1, 8),
    poles=st.lists(st.floats(-2.0, -0.5), min_size=8, max_size=8),
    tau=st.floats(1.0, 4.0),
    alpha=st.floats(0.05, 0.3),
    x0=st.lists(
        st.one_of(st.floats(-10.0, 10.0), st.just(-0.0), st.just(0.0)),
        min_size=8, max_size=8,
    ),
    stride=st.sampled_from((1, 7, 50)),
    kind=st.sampled_from(("builtin", "vanishing", "grammar")),
    rnd=st.randoms(use_true_random=False),
    g_text=st.sampled_from(GAINS),
    envelope=st.sampled_from(((1.0, 1e3), (1e-3, 0.0))),
    eps=st.floats(0.02, 0.3),
    dt_base=st.floats(0.01, 0.2),
)
def test_compiled_loop_matches_python_loop(
    compiled, n, poles, tau, alpha, x0, stride, kind, rnd, g_text, envelope, eps, dt_base
):
    plant = _plant(n, kind, rnd, g_text, envelope)
    design = _stand_in_design(_hurwitz_coefficients(poles[:n]), tau, alpha, 1.0)
    cfg = pl.SimConfig(
        x0=tuple(x0[:n]), dt_base=dt_base, epsilon_fraction=eps,
        shrink_divisor=10.0, record_stride=stride,
    )
    _assert_same(plant, design, cfg, compiled)


_deep = st.one_of(
    st.floats(-(2.0**-600), 2.0**-600),
    st.floats(-1e-310, 1e-310),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
)


@settings(derandomize=True, max_examples=150, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(1, 4),
    poles=st.lists(st.floats(-2.0, -0.5), min_size=4, max_size=4),
    tau=st.floats(1.0, 4.0),
    alpha=st.floats(0.05, 0.3),
    x0=st.lists(_deep, min_size=4, max_size=4),
    stride=st.sampled_from((1, 7)),
    kind=st.sampled_from(("builtin", "nominal", "vanishing", "input", "grammar")),
    rnd=st.randoms(use_true_random=False),
    g_text=st.sampled_from(GAINS),
    dt_base=st.floats(0.01, 0.2),
)
def test_grid_passes_match_python_loop(
    compiled, n, poles, tau, alpha, x0, stride, kind, rnd, g_text, dt_base
):
    # States below 2^-600 from the start: the C loop runs grid passes,
    # whatever f is. example3's weighted sum runs on the grid; every
    # other f, the vanishing one that reads t and the one that reads u
    # included, runs its program on the stage state and u brought back.
    # A pass hands its step to the plain pass where a value cannot be
    # carried (an f value of 2^-50 or more, as example2's and many
    # grammar texts have) and at the last sample. The plant that reads u
    # divides by 1 + x1*x1, which is 1 at the state brought back but not
    # at the carried one.
    plant = _plant(n, kind, rnd, g_text, (1.0, 1e3))
    design = _stand_in_design(_hurwitz_coefficients(poles[:n]), tau, alpha, 1.0)
    cfg = pl.SimConfig(x0=tuple(x0[:n]), dt_base=dt_base, shrink_divisor=10.0,
                       record_stride=stride)
    _assert_same(plant, design, cfg, compiled)


def _grid_phases(states):
    """Whether each run of recorded rows starts steps that native.c runs on
    the grid (every component below its DEEP, 2^-600, and one nonzero), in
    run order."""
    phases = []
    for row in states:
        grid = all(abs(v) < 2.0**-600 for v in row) and any(row)
        if not phases or phases[-1] != grid:
            phases.append(grid)
    return phases


@pytest.mark.parametrize(
    "seed, phases",
    [(6, [False, True, False]), (42, [False, True]), (5, [False, True])],
    ids=["resting", "subnormal", "subnormal-seed5"],
)
def test_example3_matches_python_loop(seed, phases, compiled):
    # Half the deadline: 41,234 steps. All three seeds turn to grid
    # passes at steps 470-472, once every component is below 2^-600.
    # Seed 6 turns back to plain passes when it comes to rest at step
    # 7,715; seeds 42 and 5 never rest, and spend 40k steps on the grid.
    plant = pl.builtin_plant("example3", seed=seed)
    design = pl.design_controller(
        (-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi, phi0=plant.phi0,
        eps_guard_fraction=0.5,
    )
    cfg = pl.SimConfig(x0=(10.0,) * 4, epsilon_fraction=0.5, record_stride=7)
    _, states, _, _ = _assert_same(plant, design, cfg, compiled)
    assert _grid_phases(struct.iter_unpack("=4d", states)) == phases


@pytest.mark.parametrize("phase", ["general", "rest"])
@pytest.mark.parametrize("fault", ["g-zero-at-mid-stage", "exp-overflow-at-stage-4"])
def test_faults_hand_back_to_the_python_loop(phase, fault, compiled):
    # An expression plant that faults at one stage of step k: the C loop
    # hands the run back, and the Python loop raises as it always did.
    design = _stand_in_design(COEFFICIENTS[2], 2.0, 0.005, 1.0)
    cfg = pl.SimConfig(x0=(10.0, 10.0))
    steps = _step_times(design, cfg)
    t_k, t_mid, _, _ = steps[5 if phase == "general" else len(steps) - 10]
    # exp(-1e300 * d * d) is 0.0 unless d = 0 exactly, and exp(1e300 * d)
    # overflows from the first stage time past t_mid on.
    if fault == "g-zero-at-mid-stage":
        plant = _vanishing_plant(2, f"1 - exp(-1e300*(t - {t_mid!r})*(t - {t_mid!r}))")
        error = "ZeroDivisionError: float division by zero"
    else:
        plant = pl.plant_from_expressions(
            2, f"0.001*x1*cos(t) + 0*exp(1e300*(t - {t_mid!r}))", "1 + 0.5*sin(t)",
            gamma=1.2, gamma_min=1.0, phi=0.001, phi0=0.0,
        )
        error = "OverflowError: math range error"
    exc_type, message, _ = _assert_same(plant, design, cfg, compiled)
    assert compiled == [False]
    assert exc_type is pl.DivergenceError
    assert message == f"plant or control arithmetic failed at t={t_k:.6g}: {error}"
    with pytest.raises(pl.DivergenceError) as err:
        pl.run(plant, design, cfg)
    assert err.value.trace.states[-1].any() == (phase == "general")


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize(
    "f_text, g_text",
    [("abs(t - 5) + (t - 5)", "1"), ("0.001*x1", "cos(t)"), ("0.001*x1", "1")],
    ids=["f-reads-t", "g-reads-t", "time-free"],
)
def test_only_time_free_plants_repeat_rest_steps(f_text, g_text, stride, compiled):
    # From x0 = 0 all three plants rest. When neither f nor g reads t,
    # the C loop's rest steps after the first in a pass repeat it; the
    # other two must not. f is exactly 0 at rest until t = 5 and positive
    # after it, which ends the rest; g changes sign, and so does the input
    # 0.0 / g that rest steps record.
    plant = pl.plant_from_expressions(
        1, f_text, g_text, gamma=1.2, gamma_min=1.0, phi=0.0, phi0=20.0
    )
    design = _stand_in_design(COEFFICIENTS[1], 10.0, 0.05, 1.0)
    cfg = pl.SimConfig(x0=(0.0,), record_stride=stride)
    times, states, inputs, _ = _assert_same(plant, design, cfg, compiled)
    rows = list(zip(*(struct.iter_unpack("=d", b) for b in (times, states, inputs))))
    moved = [t for (t,), (x,), _ in rows if x != 0.0]
    assert all(t > 5.0 for t in moved)
    assert bool(moved) == (f_text != "0.001*x1")
    signs = {math.copysign(1.0, u) for (t,), _, (u,) in rows if t < 5.0}
    assert signs == ({1.0, -1.0} if g_text == "cos(t)" else {1.0})


# (shrink_divisor, alpha) with alpha * shrink_divisor just below 1, at 1,
# just above 1 (0.02 rounds up), and at ex2-sweep's 0.0214 * 50;
# stiffness_safety is 1.
_CLOCK_BOUND = {
    "just-below": (50.0, math.nextafter(0.02, 0.0)),
    "exactly-1": (64.0, 1 / 64),
    "just-above": (50.0, 0.02),
    "ex2-sweep": (50.0, 0.0214),
}


@pytest.mark.parametrize("x0", [(0.0, 0.0), (1.0, -1.0)], ids=["rest", "moving"])
@pytest.mark.parametrize("shrink, alpha", list(_CLOCK_BOUND.values()), ids=list(_CLOCK_BOUND))
def test_step_clock_matches_python_loop_at_the_division_bound(shrink, alpha, x0, compiled):
    # The C loop drops the shrink cap's division where stiff_cap *
    # shrink_divisor <= 1, the first two cases. In the first three the
    # rounded caps tie at some steps. From x0 = 0 the time-free plant
    # takes repeated rest steps, which only advance the clock.
    design = _stand_in_design(COEFFICIENTS[2], 2.0, alpha, 1.0)
    cfg = pl.SimConfig(x0=x0, dt_base=1.0, epsilon_fraction=1e-3, shrink_divisor=shrink)
    ties = [d * alpha == d / shrink for d in (2.0 - t for t, *_ in _step_times(design, cfg))]
    assert any(ties) == (alpha != 0.0214)
    plant = pl.plant_from_expressions(
        2, "0.001*x1", "1", gamma=1.2, gamma_min=1.0, phi=0.001, phi0=0.0
    )
    _assert_same(plant, design, cfg, compiled)


def test_envelope_violation_hands_back(compiled):
    # At one step start at rest, f picks up 1.5e-9, 1.5 times the audit's
    # slack of 1e-9 over the envelope 0.001*||x|| of a state near 0.
    design = _stand_in_design(COEFFICIENTS[2], 2.0, 0.005, 1.0)
    cfg = pl.SimConfig(x0=(10.0, 10.0))
    t_k = _step_times(design, cfg)[-10][0]
    plant = pl.plant_from_expressions(
        2, f"0.001*x1*cos(t) + 1.5e-9*exp(-1e300*(t - {t_k!r})*(t - {t_k!r}))",
        "1 + 0.5*sin(t)", gamma=1.2, gamma_min=1.0, phi=0.001, phi0=0.0,
    )
    exc_type, message, _ = _assert_same(plant, design, cfg, compiled)
    assert compiled == [False]
    assert exc_type is pl.AssumptionViolationError
    assert message.endswith(f"at t={t_k:.6g}")


def _bits(v):
    """The bytes of a result, equal for any two NaNs; None stays None."""
    if v is None:
        return None
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _python_value(fn, x, u, t):
    """``fn(x, u, t)``, or None where it raises."""
    try:
        return fn(x, u, t)
    except (ArithmeticError, ValueError):
        return None


_specials = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1.7e308,
    math.inf, -math.inf, math.nan, 1.0, -0.5, 709.0, 710.0,
])
_doubles = st.one_of(st.floats(allow_subnormal=True), _specials)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(items=st.lists(_doubles, max_size=20))
@example(items=[])
@example(items=[-0.0, -0.0])
@example(items=[1e308, 1e308])
@example(items=[math.inf, -math.inf])
@example(items=[1e-16, 1.0, 1e16])
# A program that holds 100,000 values at once: the machine's stack, and
# fsum's partials in it, grow with the program.
@example(items=[(-1.0) ** k * 10.0 ** (k % 40 - 20) * (k + 1) for k in range(100_000)])
def test_fsum_op_matches_math_fsum(items):
    prog = native.program([*((native.CONST, v) for v in items), (native.FSUM, len(items))])
    want = _python_value(lambda x, u, t: math.fsum(items), [], 0.0, 0.0)
    assert _bits(native.evaluate(prog, [], 0.0, 0.0)) == _bits(want)
    # On the grid the program runs as it is, and its value is carried
    # where it is below 2^-50.
    carried = want if want is not None and abs(want) < 2.0**-50 else None
    assert _bits(native.evaluate(prog, [], 0.0, 0.0, grid=True)) == _bits(carried)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    rnd=st.randoms(use_true_random=False),
    x=st.lists(_doubles, min_size=4, max_size=4),
    u=_doubles,
    t=_doubles,
    seed=st.integers(0, 200),
)
def test_programs_match_their_callables(rnd, x, u, t, seed):
    example2 = pl.builtin_plant("example2")
    expression = pl.plant_from_expressions(
        2, _grammar_text(rnd, rnd.randint(0, 6)), "2 - cos(3*t)",
        gamma=1.0, gamma_min=1.0, phi=1.0, phi0=0.0,
    )
    fs = (expression.f, example2.f, pl.builtin_plant("example3", seed=seed).f)
    cases = [(f, f) for f in fs]
    cases += [(g, lambda x, u, t, g=g: g(t)) for g in (expression.g, example2.g)]
    for registered, call in cases:
        want = _python_value(call, x, u, t)
        assert _bits(native.evaluate(native.program_of(registered), x, u, t)) == _bits(want)


def _deep_text(depth):
    """An order-2 disturbance, bounded by 1, whose program holds ``depth``
    values at once: each nesting level leaves two values pending."""
    pairs, single = divmod(depth - 1, 2)
    levels = [("x1 - x2 * sin(", "t + u * cos(")[i % 2] for i in range(pairs)]
    levels += ["u * sin("] * single
    return "cos(" + "".join(levels) + "x2" + ")" * (len(levels) + 1)


# 397 is as deep as the parser goes: 198 levels of parentheses.
@pytest.mark.parametrize("depth", [63, 64, 142, 397])
def test_deep_programs_run_compiled(depth, compiled):
    plant = pl.plant_from_expressions(
        2, _deep_text(depth), "1 + 0.5*sin(t)", gamma=1.2, gamma_min=1.0, phi=0.0, phi0=1.0
    )
    assert native.program_of(plant.f).depth == depth
    design = _stand_in_design(COEFFICIENTS[2], 2.0, 0.05, 1.0)
    cfg = pl.SimConfig(x0=(1.0, -1.0))
    trace = pl.run(plant, design, cfg)
    assert compiled == [True]
    assert _blobs(trace) == _blobs(pl.run(_python_path(plant), design, cfg))
    prog = native.program_of(plant.f)
    points = [(list(x), u, t) for t, x, u in zip(trace.times, trace.states, trace.inputs)]
    points += [([0.0, -0.0], 0.0, 0.0), ([1e308, -1e308], 1e308, 1.0), ([math.nan, 1.0], 1.0, 1.0)]
    for x, u, t in points:
        assert _bits(native.evaluate(prog, x, u, t)) == _bits(_python_value(plant.f, x, u, t))


def _float(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


_signs = st.sampled_from((0, 1 << 63))


def _grid_op(divide, a, b):
    """a * b or a / b by native.c's grid_op, with a carried and the result
    brought back, or None where a grid pass would not carry it."""
    out = ctypes.c_double()
    return None if native.library().ptc_grid(divide, a, b, ctypes.byref(out)) else out.value


def _assert_grid_op(divide, a, b):
    """a * b or a / b on the grid gives the bits of Python's * or /
    wherever a grid pass carries it: a below 2^-50 and the result below
    2^-74, 2^1000 carried."""
    want = _python_value(lambda x, u, t: x[0] / b if divide else x[0] * b, [a], 0.0, 0.0)
    got = _grid_op(divide, a, b)
    carried = want is not None and abs(a) < 2.0**-50 and abs(want) < 2.0**-74
    assert (got is not None) == carried, (divide, a, b)
    if carried:
        assert hex(_pattern(got)) == hex(_pattern(want)), (divide, a, b)


# Carried results in [2^47, 2^52) are rounded to 53 bits at a multiple of
# 2^-5 to 2^-1, so many land on a half-integer, between the two integers
# the unscaled result rounds to; at 2^52 the subnormal range ends; below 1
# results round to zero.
_targets = st.one_of(
    st.integers(2**48, 2**53 - 1).map(lambda k: k / 2),
    st.integers(2**53 - 16, 2**53 + 16).map(lambda k: k / 2),
    st.integers(1, 8).map(lambda k: k / 4),
)


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(
    target=_targets,
    carried=st.one_of(st.just(0), st.integers(1, 2**20), st.integers(1, 2**53)),
    ulps=st.integers(-2, 2),
    signs=st.tuples(_signs, _signs),
    divide=st.sampled_from((0, 1)),
)
def test_grid_ops_match_the_exact_ops(target, carried, ulps, signs, divide):
    # The time-only factor b that takes the carried value to the target,
    # moved by a few units in its last place, so that the result lies
    # within a few units of the target's last place, on either side. A
    # zero carried value makes a signed zero.
    if carried == 0:
        b = target
    else:
        b = carried / target if divide else target / carried
    for _ in range(abs(ulps)):
        b = math.nextafter(b, math.copysign(math.inf, ulps))
    a = _float(signs[0] | _pattern(math.ldexp(carried, -1074)))
    _assert_grid_op(divide, a, _float(signs[1] | _pattern(b)))


@pytest.mark.parametrize("divide", [0, 1])
def test_grid_ops_round_half_integers_by_their_residual(divide):
    # Searched cases where the carried result is a half-integer in
    # [2^47, 2^52) but the true value is not: the magic add alone would
    # round half of them the wrong way.
    rnd = random.Random(23)
    decided = 0
    while decided < 200:
        target = rnd.randrange(2**48, 2**53) / 2
        carried = rnd.randrange(1, 2**53)
        b = carried / target if divide else target / carried
        p = carried / b if divide else carried * b
        exact = Fraction(carried) / Fraction(b) if divide else Fraction(carried) * Fraction(b)
        if p % 1 != 0.5 or exact == p:
            continue
        decided += 1
        sign = rnd.choice((1.0, -1.0))
        _assert_grid_op(divide, math.ldexp(carried, -1074), sign * b)
        _assert_grid_op(divide, -math.ldexp(carried, -1074), sign * b)


# Weights of 2^600 and more can take a product past CEILING, 2^1000
# carried, where the grid pass does not carry it.
_weights = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from((0.0, -0.0, 5e-324, -1e-310, 1.0, -1.0, 2.0**600, -(2.0**700), 1e300)),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    terms=st.lists(st.tuples(_weights, st.integers(0, 2)), min_size=1, max_size=6),
    x=st.lists(_deep, min_size=3, max_size=3),
    by_fsum=st.booleans(),
    shape=st.sampled_from(("weighted", "state-first", "right-nested", "fsum-of-fewer", "with-u")),
)
# Carried terms 2^53 - 2, 3 and -1, whose plain sum, 2^53 - 1, is not the
# exact sum, 2^53, that math.fsum gives.
@example(terms=[(2.0, 0), (1.0, 1), (-1.0, 2)],
         x=[math.ldexp(2**52 - 1, -1074), 1.5e-323, 5e-324], by_fsum=True, shape="weighted")
# A product of 2^-60, 2^1014 carried: finite, but past CEILING. As a sum
# by ADDs it runs on the values brought back, where 2^-60 is carried.
@example(terms=[(1.0, 1), (2.0**600, 0)], x=[2.0**-660, 2.0**-700, 0.0],
         by_fsum=True, shape="weighted")
@example(terms=[(1.0, 1), (2.0**600, 0)], x=[2.0**-660, 2.0**-700, 0.0],
         by_fsum=False, shape="weighted")
def test_weighted_sums_run_on_the_grid(terms, x, by_fsum, shape):
    # example3's form of f, products CONST, X, MUL combined by one FSUM,
    # runs without the stack machine in a grid pass, with Python's bits
    # wherever every product is below 2^-74, CEILING carried. Programs
    # that differ from it, in the order of a product's factors, in ADDs,
    # in an FSUM of fewer terms or in a term in u, run their own program
    # on the values brought back, with Python's bits wherever the value
    # is below 2^-50.
    products = [
        [(native.X, i), (native.CONST, w), (native.MUL, 0)] if shape == "state-first"
        else [(native.CONST, w), (native.X, i), (native.MUL, 0)]
        for w, i in terms
    ]
    values = [w * x[i] for w, i in terms]
    if shape == "with-u":
        products.append([(native.U, 0), (native.CONST, 0.5), (native.MUL, 0)])
        values.append(x[0] * 0.5)
    k = len(products)
    if shape == "fsum-of-fewer" and k > 1:
        ops = [op for p in products for op in p] + [(native.FSUM, k - 1), (native.ADD, 0)]
        want = values[0] + math.fsum(values[1:])
    elif shape == "right-nested":
        ops = [op for p in products for op in p] + [(native.ADD, 0)] * (k - 1)
        want = values[-1]
        for v in reversed(values[:-1]):
            want = v + want
    elif by_fsum:
        ops = [op for p in products for op in p] + [(native.FSUM, k)]
        want = math.fsum(values)
    else:
        ops = products[0] + [op for p in products[1:] for op in (*p, (native.ADD, 0))]
        want = values[0]
        for v in values[1:]:
            want = want + v
    example3 = shape in ("weighted", "fsum-of-fewer") and ops[-1] == (native.FSUM, k)
    # u = x1, carried in as the state is.
    got = native.evaluate(native.program(ops), x, x[0], 1.0, grid=True)
    if example3:
        carried = all(abs(v) < 2.0**-74 for v in values)
    else:
        carried = abs(want) < 2.0**-50
    assert _bits(got) == _bits(want if carried else None)


@pytest.mark.parametrize(
    "text", ["x1*x2", "sin(x1)", "x1 + 1", "1/x1", "u*cos(t)*x2", "x1*cos(t)", "u"]
)
def test_other_programs_run_on_exact_values(text, compiled):
    # A grid pass runs every f but example3's weighted sum by its own
    # program, on the stage state and u brought back from the grid: the
    # plain pass's values, so f gives the plain pass's bits. Its value is
    # carried where it is below 2^-50, as x1*x2, sin(x1) and the three
    # texts in u and t are here; 1e-3*(x1 + 1) and 1e-3/x1 are not, and
    # their steps go to the plain pass.
    plant = pl.plant_from_expressions(
        2, f"1e-3*({text})", "1 + 0.5*sin(t)", gamma=1.2, gamma_min=1.0, phi=1.0, phi0=1.0
    )
    design = _stand_in_design(COEFFICIENTS[2], 2.0, 0.2, 1.0)
    _assert_same(plant, design, pl.SimConfig(x0=(2.0**-700, -1e-310)), compiled)
    prog = native.program_of(plant.f)
    for x, u in (
        ([1e-310, -(2.0**-700)], 1e-315),
        ([-(2.0**-601), 5e-324], -0.0),
        ([5e-324, -1e-320], 5e-324),
    ):
        want = _python_value(plant.f, x, u, 1.0)
        assert _bits(native.evaluate(prog, x, u, 1.0)) == _bits(want)
        carried = want is not None and abs(want) < 2.0**-50
        got = native.evaluate(prog, x, u, 1.0, grid=True)
        assert _bits(got) == _bits(want if carried else None)
    # u, like the state, is carried in only below 2^-50.
    assert native.evaluate(prog, [5e-324, 0.0], 2.0**-50, 1.0, grid=True) is None


def test_mixed_fsum_stays_off_the_grid():
    # math.fsum of a carried and a time-only value does not scale, so the
    # program runs on the state brought back, off the grid, and gives
    # Python's bits.
    prog = native.program([(native.X, 0), (native.CONST, 5e-324), (native.FSUM, 2)])
    assert native.evaluate(prog, [5e-324], 0.0, 0.0) == 1e-323
    assert native.evaluate(prog, [5e-324], 0.0, 0.0, grid=True) == 1e-323


@settings(derandomize=True, max_examples=200, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    tau=st.floats(1e-3, 1e3),
    alpha=st.floats(1e-4, 10.0),
    dt_base=st.floats(1e-4, 10.0),
    shrink_divisor=st.floats(1.0, 1e3),
    stiffness_safety=st.floats(0.01, 10.0),
    epsilon_fraction=st.floats(1e-6, 0.99),
    stride=st.integers(1, 100),
)
def test_row_buffer_holds_every_run(
    compiled, tau, alpha, dt_base, shrink_divisor, stiffness_safety, epsilon_fraction, stride
):
    cfg = pl.SimConfig(
        x0=(0.0,), dt_base=dt_base, epsilon_fraction=epsilon_fraction,
        shrink_divisor=shrink_divisor, stiffness_safety=stiffness_safety,
        record_stride=stride,
    )
    steps = sim._predicted_steps(tau, alpha, cfg)
    assume(steps <= 2e4)
    plant = pl.plant_from_expressions(1, "0", "1", gamma=1.0, gamma_min=1.0, phi=0.0, phi0=0.0)
    compiled.clear()
    trace = pl.run(plant, _stand_in_design((-1.0,), tau, alpha, 1.0), cfg)
    rows = trace.metadata["steps_total"] // stride + 2
    assert trace.times.shape[0] <= rows <= sim._row_capacity(steps, stride)
    assert compiled == [True]


# A run of about 3 s in C on a 2-core VM: seed 42 never rests, and a
# tenth of the stiffness cap makes 4.1M steps, nearly all of them grid
# passes, each of which checks the cancel flag before its step.
# Python leaves SIGINT ignored when it starts with it ignored, as in a
# background job of a shell; the child installs its handler either way.
_LONG_RUN = textwrap.dedent("""
    import signal
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import ptc_lab as pl
    from ptc_lab import native
    assert native.library() is not None
    plant = pl.builtin_plant("example3", seed=42)
    design = pl.design_controller(
        (-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi, phi0=plant.phi0
    )
    cfg = pl.SimConfig(x0=(10.0,) * 4, record_stride=50, stiffness_safety=0.1)
    print("ready", flush=True)
    pl.run(plant, design, cfg)
""")


def test_ctrl_c_stops_a_compiled_run():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, "-c", _LONG_RUN],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert child.stdout.readline() == "ready\n"
        time.sleep(0.2)
        child.send_signal(signal.SIGINT)
        sent = time.perf_counter()
        _, err = child.communicate(timeout=60)
        elapsed = time.perf_counter() - sent
    finally:
        child.kill()
        child.wait()
    # Raised while the caller waited for the C loop, and never caught.
    assert "in _run_interruptibly" in err
    assert err.rstrip().endswith("KeyboardInterrupt")
    assert child.returncode == -signal.SIGINT
    assert elapsed < 1.0


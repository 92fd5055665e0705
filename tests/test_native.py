"""The compiled loop against the Python loop of ``sim.run``, bit for bit.

A plant built by the package runs in C; the same plant with ``f`` wrapped
by ``functools.wraps`` has no program and runs in Python. Every test here
compares the two, or a program with the callable it stands for. Without
gcc there is no compiled loop, and these tests skip.
"""

import dataclasses
import functools
import math
import shutil
import struct
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
    _hurwitz_coefficients,
    _stand_in_design,
    _step_times,
    _vanishing_plant,
)

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")


@pytest.fixture
def compiled(monkeypatch):
    """Whether each ``native.integrate`` call returned a run (True) or
    handed it back to the Python loop (False)."""
    outcomes = []
    integrate = native.integrate

    def spy(*args, **kwargs):
        out = integrate(*args, **kwargs)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(native, "integrate", spy)
    return outcomes


def _python_path(plant):
    """The same plant, with an ``f`` the compiled loop does not know."""
    f = plant.f

    @functools.wraps(f)
    def wrapped(x, u, t):
        return f(x, u, t)

    return dataclasses.replace(plant, f=wrapped)


def _blobs(trace):
    return (
        trace.times.tobytes(),
        trace.states.tobytes(),
        trace.inputs.tobytes(),
        repr(dict(trace.metadata)),
    )


def _outcome(plant, design, cfg):
    """A run's trace bytes, or its exception, message and partial trace."""
    try:
        return _blobs(pl.run(plant, design, cfg))
    except Exception as exc:  # every kind must match between the loops
        partial = getattr(exc, "trace", None)
        return type(exc), str(exc), partial and _blobs(partial)


def _assert_same(plant, design, cfg, compiled):
    """The compiled and the Python loop agree; a run that completes in
    Python completes in C without handing back."""
    compiled.clear()  # hypothesis reuses the fixture across examples
    expected = _outcome(_python_path(plant), design, cfg)
    assert compiled == []
    assert _outcome(plant, design, cfg) == expected
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


@settings(derandomize=True, max_examples=300, deadline=None,
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
    if kind == "builtin" and n in (2, 4):
        plant = pl.builtin_plant("example2" if n == 2 else "example3", seed=3)
    else:
        f_text = "0.001*x1*cos(t)"
        if kind == "grammar":
            # A random text of the expression grammar, scaled down so that
            # many runs complete; the rest fault, in both loops alike. The
            # tight envelope makes the audit refuse some of them.
            text = _grammar_text(rnd, rnd.randint(0, 5))
            f_text = f"1e-3*({text.replace('x2', 'x1') if n == 1 else text})"
        phi, phi0 = envelope
        plant = pl.plant_from_expressions(
            n, f_text, g_text, gamma=1.2, gamma_min=1.0, phi=phi, phi0=phi0
        )
    design = _stand_in_design(_hurwitz_coefficients(poles[:n]), tau, alpha, 1.0)
    cfg = pl.SimConfig(
        x0=tuple(x0[:n]), dt_base=dt_base, epsilon_fraction=eps,
        shrink_divisor=10.0, record_stride=stride,
    )
    _assert_same(plant, design, cfg, compiled)


@pytest.mark.parametrize("seed", [6, 42], ids=["resting", "subnormal"])
def test_example3_matches_python_loop(seed, compiled):
    # Half the deadline: 41,234 steps. Seed 6 rests from step 7,715 on;
    # seed 42 never rests and spends 40k steps in subnormal states.
    plant = pl.builtin_plant("example3", seed=seed)
    design = pl.design_controller(
        (-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi, phi0=plant.phi0,
        eps_guard_fraction=0.5,
    )
    cfg = pl.SimConfig(x0=(10.0,) * 4, epsilon_fraction=0.5, record_stride=7)
    _assert_same(plant, design, cfg, compiled)


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
def test_fsum_op_matches_math_fsum(items):
    prog = native.program([*((native.CONST, v) for v in items), (native.FSUM, len(items))])
    want = _python_value(lambda x, u, t: math.fsum(items), [], 0.0, 0.0)
    assert _bits(native.evaluate(prog, [], 0.0, 0.0)) == _bits(want)


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
        prog = native.program_of(registered)
        state = x[: prog.states] if prog.exact else x
        want = _python_value(call, state, u, t)
        assert _bits(native.evaluate(prog, state, u, t)) == _bits(want)


@settings(derandomize=True, max_examples=200, deadline=None,
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

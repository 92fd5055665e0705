"""Bitwise oracles for the simulator's and the CSV writer's fast paths.

``reference_run`` is the stage-by-stage RK4 loop ``ptc_lab.sim.run`` used
before its step was fused (every stage recomputed the powers of
``tau - t`` and called ``g``), and ``reference_write_trace_csv`` the
cell-by-cell writer. Both are kept verbatim as references: the fast paths
must reproduce them bit for bit, not within a tolerance.
"""

import dataclasses
import hashlib
import math
import struct
from operator import mul
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ptc_lab as pl
from ptc_lab import sim
from ptc_lab.cli import write_trace_csv
from ptc_lab.controller import build_gain_schedule
from ptc_lab.plant import check_assumption


def reference_run(plant, design, cfg):
    """Returns (times, states, inputs, metadata) as ``run`` recorded them."""
    n = plant.n
    tau = design.tau
    t_end = tau * (1.0 - cfg.epsilon_fraction)
    schedule = build_gain_schedule(design)
    q = list(schedule.coefficients)
    gamma_min = design.gamma_min
    gamma = plant.gamma
    g = plant.g
    f = plant.f
    threshold = cfg.divergence_threshold
    stride = cfg.record_stride

    def stage(x, t):
        d = tau - t
        acc = 0.0
        pw = d
        for i in range(n - 1, -1, -1):
            acc += q[i] * x[i] / pw
            pw *= d
        gt = g(t)
        u = acc / (gamma_min * gt)
        fx = f(x, u, t)
        return x[1:] + [fx + gamma * gt * u], u, fx

    times, states, inputs = [], [], []
    metadata = {
        "plant": plant.describe(),
        "plant_seed": plant.seed,
        "phi": plant.phi,
        "phi0": plant.phi0,
        "gamma_min": gamma_min,
        "c": design.c,
        "alpha": design.alpha,
        "tau": tau,
        "mode": design.mode,
        "eps_guard": design.eps_guard,
        "x0": tuple(float(v) for v in cfg.x0),
        "x0_norm": math.sqrt(math.fsum(float(v) ** 2 for v in cfg.x0)),
        "dt_base": cfg.dt_base,
        "epsilon_fraction": cfg.epsilon_fraction,
        "shrink_divisor": cfg.shrink_divisor,
        "stiffness_safety": cfg.stiffness_safety,
        "record_stride": stride,
        "divergence_threshold": threshold,
    }

    x = [float(v) for v in cfg.x0]
    t = 0.0
    step_index = 0
    u_max = 0.0
    x_max = 0.0
    stiff_cap = cfg.stiffness_safety * design.alpha

    while t < t_end - 1e-12 * tau:
        k1, u1, f1 = stage(x, t)
        amp = max(abs(v) for v in x)
        if not (amp <= threshold) or not (abs(u1) <= threshold):
            raise pl.DivergenceError("diverged", trace=(times, states, inputs))
        check_assumption(plant, x, u1, t, f_value=f1)
        if amp > x_max:
            x_max = amp
        if abs(u1) > u_max:
            u_max = abs(u1)
        if step_index % stride == 0:
            times.append(t)
            states.append(tuple(x))
            inputs.append(u1)

        d = tau - t
        h = min(cfg.dt_base, d / cfg.shrink_divisor, stiff_cap * d)
        clamped = h >= t_end - t
        if clamped:
            h = t_end - t
        half = 0.5 * h
        k2, _, _ = stage([xi + half * ki for xi, ki in zip(x, k1)], t + half)
        k3, _, _ = stage([xi + half * ki for xi, ki in zip(x, k2)], t + half)
        k4, _, _ = stage([xi + h * ki for xi, ki in zip(x, k3)], t + h)
        sixth = h / 6.0
        x = [
            xi + sixth * (a + 2.0 * (b + c) + e)
            for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
        ]
        t = t_end if clamped else t + h
        step_index += 1

    _, u_final, f_final = stage(x, t_end)
    amp = max(abs(v) for v in x)
    if not (amp <= threshold) or not (abs(u_final) <= threshold):
        raise pl.DivergenceError("diverged", trace=(times, states, inputs))
    check_assumption(plant, x, u_final, t_end, f_value=f_final)
    if amp > x_max:
        x_max = amp
    if abs(u_final) > u_max:
        u_max = abs(u_final)
    times.append(t_end)
    states.append(tuple(x))
    inputs.append(u_final)

    metadata["steps_total"] = step_index
    metadata["u_max"] = u_max
    metadata["x_max"] = x_max
    return times, states, inputs, metadata


def reference_write_trace_csv(path, trace):
    n = trace.states.shape[1]
    x0_norm = float(trace.metadata["x0_norm"])
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",u,norm_x,lambda_bound"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for k in range(trace.times.shape[0]):
            cells = [format(float(trace.times[k]), ".17g")]
            cells.extend(format(float(v), ".17g") for v in trace.states[k])
            cells.append(format(float(trace.inputs[k]), ".17g"))
            cells.append(format(float(trace.norms[k]), ".17g"))
            cells.append(format(float(x0_norm * trace.lambda_values[k]), ".17g"))
            fh.write(",".join(cells) + "\n")


def _stand_in_design(c, tau, alpha, gamma_min):
    """A design with an arbitrary rate.

    ``design_controller`` only admits rates below the feasibility bound,
    which for orders 4 and 5 means millions of steps. The oracle compares
    arithmetic, not feasibility, so it uses the fields ``run`` reads.
    """
    return SimpleNamespace(
        n=len(c), c=tuple(c), tau=tau, alpha=alpha, mode="attractive",
        eps_guard=0.0, gamma_min=gamma_min,
    )


def _hurwitz_coefficients(poles):
    # The companion row holds c with x_n' = c . x, so c_k is minus the
    # coefficient of s^(k-1) in prod(s - p).
    return tuple(float(-v) for v in np.poly(poles)[1:][::-1])


def _assert_same_run(plant, design, cfg):
    try:
        expected = reference_run(plant, design, cfg)
    except (pl.DivergenceError, pl.AssumptionViolationError, ArithmeticError) as exc:
        with pytest.raises((pl.DivergenceError, pl.AssumptionViolationError)) as err:
            pl.run(plant, design, cfg)
        if isinstance(exc, pl.AssumptionViolationError):
            assert isinstance(err.value, pl.AssumptionViolationError)
            assert str(err.value) == str(exc)
        else:
            assert isinstance(err.value, pl.DivergenceError)
        if isinstance(exc, pl.DivergenceError) and exc.trace[0]:
            times, states, inputs = exc.trace
            partial = err.value.trace
            assert partial.times.tobytes() == np.asarray(times).tobytes()
            assert partial.states.tobytes() == np.asarray(states).tobytes()
            assert partial.inputs.tobytes() == np.asarray(inputs).tobytes()
        return None
    times, states, inputs, metadata = expected
    trace = pl.run(plant, design, cfg)
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.states, states)
    assert np.array_equal(trace.inputs, inputs)
    # array_equal treats -0.0 as 0.0; the CSV does not, so compare bits too.
    for got, want in ((trace.times, times), (trace.states, states), (trace.inputs, inputs)):
        assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
    assert dict(trace.metadata) == metadata
    assert trace.metadata["steps_total"] == metadata["steps_total"]
    return trace


def _step_times(design, cfg):
    """Replays the step-size rule: (t, t + h/2, t + h, clamped) per step."""
    tau = design.tau
    t_end = tau * (1.0 - cfg.epsilon_fraction)
    t = 0.0
    out = []
    while t < t_end - 1e-12 * tau:
        d = tau - t
        h = min(cfg.dt_base, d / cfg.shrink_divisor, cfg.stiffness_safety * design.alpha * d)
        clamped = h >= t_end - t
        if clamped:
            h = t_end - t
        out.append((t, t + 0.5 * h, t + h, clamped))
        t = t_end if clamped else t + h
    return out


def _last_step_clamped(design, cfg):
    """Did the final step land on t_end by clamp?"""
    return _step_times(design, cfg)[-1][3]


GAINS = ("1", "1 + 0.5*sin(t)", "2 - cos(3*t)")


# The orders design-map covers; each has its own generated kernel.
ORDERS = range(1, 9)


@pytest.mark.parametrize("n", ORDERS)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    poles=st.lists(st.floats(-2.0, -0.5), min_size=8, max_size=8),
    tau=st.floats(1.0, 4.0),
    alpha=st.floats(0.05, 0.3),
    x0=st.lists(
        st.one_of(st.floats(-10.0, 10.0), st.just(-0.0), st.just(0.0)),
        min_size=8,
        max_size=8,
    ),
    stride=st.sampled_from((1, 7, 50)),
    builtin=st.booleans(),
    g_text=st.sampled_from(GAINS),
    eps=st.floats(0.02, 0.3),
    dt_base=st.floats(0.01, 0.2),
)
def test_run_matches_reference_loop(
    n, poles, tau, alpha, x0, stride, builtin, g_text, eps, dt_base
):
    c = _hurwitz_coefficients(poles[:n])
    if builtin and n in (2, 4):
        plant = pl.builtin_plant("example2" if n == 2 else "example3", seed=3)
    else:
        plant = pl.plant_from_expressions(
            n,
            "0.01*x1*cos(t) + 0.5*sin(u)",
            g_text,
            gamma=1.2,
            gamma_min=1.0,
            phi=0.01,
            phi0=0.5,
        )
    design = _stand_in_design(c, tau, alpha, plant.gamma_min)
    cfg = pl.SimConfig(
        x0=tuple(x0[:n]),
        dt_base=dt_base,
        epsilon_fraction=eps,
        shrink_divisor=10.0,
        record_stride=stride,
    )
    _assert_same_run(plant, design, cfg)


@pytest.mark.parametrize("stride", [1, 7, 50])
@pytest.mark.parametrize(
    "plant",
    [
        pl.builtin_plant("example2"),
        pl.plant_from_expressions(
            2, "50*cos(u) + cos(t)*x1 + exp(sin(x1))*x2", "1 + 0.5*sin(t)",
            gamma=1.1, gamma_min=1.0, phi=math.e, phi0=50.0,
        ),
    ],
    ids=["builtin", "expression-time-varying-g"],
)
def test_example2_matches_reference_with_clamped_final_step(plant, stride):
    design = pl.design_controller(
        (-1.0, -2.0), 10.0, alpha=0.0214, phi=plant.phi, phi0=plant.phi0
    )
    cfg = pl.SimConfig(x0=(10.0, 10.0), dt_base=5e-3, record_stride=stride)
    assert _last_step_clamped(design, cfg)
    trace = _assert_same_run(plant, design, cfg)
    assert trace is not None and trace.times[-1] == 10.0 * (1.0 - 1e-3)


def test_example3_prefix_matches_reference():
    # A cut-down example3 (auto alpha, stiffness cap on every step).
    plant = pl.builtin_plant("example3", seed=6)
    design = pl.design_controller(
        (-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi, phi0=plant.phi0,
        eps_guard_fraction=0.9,
    )
    cfg = pl.SimConfig(
        x0=(10.0, 10.0, 10.0, 10.0), epsilon_fraction=0.9, record_stride=50
    )
    assert _last_step_clamped(design, cfg)
    _assert_same_run(plant, design, cfg)


def test_kernel_compiled_once_per_order(monkeypatch):
    compiled = []
    source = sim._kernel_source
    monkeypatch.setattr(sim, "_kernel_source", lambda n: compiled.append(n) or source(n))
    sim._kernel.cache_clear()
    for n in (*ORDERS, *ORDERS):
        plant = _vanishing_plant(n)
        design = _stand_in_design((-1.0,) * n, 1.0, 0.1, 1.0)
        pl.run(plant, design, pl.SimConfig(x0=(1.0,) * n, epsilon_fraction=0.5))
    assert compiled == list(ORDERS)


# SHA-256 of the times, states and inputs bytes and of repr(dict(metadata))
# of full runs, recorded with the list-based loop before the generated
# kernel replaced it. example3 at seed 30 spends about 118k steps in
# subnormal states; seed 6 rests for most of its 410,926 steps.
FULL_RUN_PINS = {
    "example2": (
        "3ddcca8c415440963527de5421c7d923536407b2c58d24ad485ed4447bd74b0d",
        "2bc9e7af915bfe39dca3d25d93ffb8950d6a2469bd6197c84e1197be22c6a05a",
        "14e91db776c3cf633be932ec5b413378d9ffead5c42ebab3424fcf2375eb68fc",
        "8983949928b0638482aaa67df7602c3ad9eeb81d9504f949f3a551b74a1d94d1",
    ),
    "example3-seed6": (
        "28dc54828aa40d331dad09c1e0d94a4b0ab0f182fe83b5572c248ff46ad048d7",
        "2391c5dc676618e6bdc6cddcdc14f483630d7f9c5350048652db7703c8956af8",
        "a095df9f6b6db96b06b51b11bc6eef7fd44d6bd7348538f97e2cf48d48dcd4c8",
        "9ed99d8838fbce1b87b164116fe8d4a6e4b0e2f75299ed87c621089b5b6f25ff",
    ),
    "example3-seed30": (
        "28dc54828aa40d331dad09c1e0d94a4b0ab0f182fe83b5572c248ff46ad048d7",
        "c688d0435edec02107d6537e70de08647d5f207ff15b7b274992ed18cd6294c4",
        "50faa9cae1214e6053cafd490b698dfc354aff34e15245b9f9c683bdb295d938",
        "7c2219fe2af8e0ac00c2b8030156bd8ff455b8b99e890309314af6ee07b3ae73",
    ),
}


def _digests(trace):
    blobs = (
        trace.times.tobytes(),
        trace.states.tobytes(),
        trace.inputs.tobytes(),
        repr(dict(trace.metadata)).encode(),
    )
    return tuple(hashlib.sha256(b).hexdigest() for b in blobs)


def test_full_runs_match_pins(example2_trace, example3_trace):
    assert _digests(example2_trace) == FULL_RUN_PINS["example2"]
    assert _digests(example3_trace) == FULL_RUN_PINS["example3-seed6"]
    meta = example3_trace.metadata
    plant = pl.builtin_plant("example3", seed=30)
    design = pl.design_controller(meta["c"], meta["tau"], phi=plant.phi, phi0=plant.phi0)
    cfg = pl.SimConfig(x0=meta["x0"], dt_base=meta["dt_base"], record_stride=50)
    assert _digests(pl.run(plant, design, cfg)) == FULL_RUN_PINS["example3-seed30"]


@pytest.mark.parametrize("phase", ["general", "rest"])
@pytest.mark.parametrize("fault", ["g-zero-at-mid-stage", "f-overflow-at-stage-4"])
def test_faults_raise_in_the_same_stage(phase, fault):
    # A fault at one stage time of step k: the run must fail in step k, with
    # the message, t and partial trace of the loop the kernel replaced,
    # whose trace is the unfaulted run's up to step k.
    plant = _vanishing_plant(2)
    design = _stand_in_design(COEFFICIENTS[2], 2.0, 0.005, 1.0)
    cfg = pl.SimConfig(x0=(10.0, 10.0))
    steps = _step_times(design, cfg)
    k = 5 if phase == "general" else len(steps) - 10
    t_k, t_mid, t_next, _ = steps[k]
    times, states, inputs, _ = reference_run(plant, design, cfg)
    assert any(states[k]) == (phase == "general")
    if fault == "g-zero-at-mid-stage":
        g = plant.g
        faulty = dataclasses.replace(plant, g=lambda t: 0.0 if t == t_mid else g(t))
        error = "ZeroDivisionError: float division by zero"
    else:
        f = plant.f
        faulty = dataclasses.replace(
            plant, f=lambda x, u, t: math.exp(1e3) if t == t_next else f(x, u, t)
        )
        error = "OverflowError: math range error"
    with pytest.raises(pl.DivergenceError) as err:
        pl.run(faulty, design, cfg)
    assert str(err.value) == f"plant or control arithmetic failed at t={t_k:.6g}: {error}"
    partial = err.value.trace
    assert partial.times.tobytes() == np.asarray(times[: k + 1]).tobytes()
    assert partial.states.tobytes() == np.asarray(states[: k + 1]).tobytes()
    assert partial.inputs.tobytes() == np.asarray(inputs[: k + 1]).tobytes()


def old_f2(x, u, t):
    return (
        50.0 * math.cos(u)
        + math.cos(t) * float(x[0])
        + math.exp(math.sin(float(x[0]))) * float(x[1])
    )


def old_f3(weights):
    def f3(x, u, t):
        return math.fsum(map(mul, weights, map(float, x)))

    return f3


_plant_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308, 0.1, -3.5]),
)


def _bits(v):
    return struct.pack("<d", float(v))


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(_plant_inputs, min_size=4, max_size=4),
    u=_plant_inputs,
    t=_plant_inputs,
    seed=st.integers(0, 200),
)
def test_builtin_disturbances_match_old_formulas(x, u, t, seed):
    example2 = pl.builtin_plant("example2")
    example3 = pl.builtin_plant("example3", seed=seed)
    old3 = old_f3(example3.disturbance_weights)
    assert _bits(example2.f(x[:2], u, t)) == _bits(old_f2(x[:2], u, t))
    assert _bits(example3.f(x, u, t)) == _bits(old3(x, u, t))
    # derivative hands f a numpy array, whose items are numpy scalars:
    # the values agree bit for bit, but numpy arithmetic warns on overflow
    # where Python floats do not.
    with np.errstate(over="ignore", invalid="ignore"):
        for plant, old in ((example2, old_f2), (example3, old3)):
            state = np.array(x[: plant.n])
            new = pl.derivative(plant, state, u, t)
            want = pl.derivative(dataclasses.replace(plant, f=old), state, u, t)
            assert new.tobytes() == want.tobytes()


def _trace(times, states, inputs, x0_norm, tau):
    states = np.asarray(states, dtype=np.float64).reshape(len(times), -1)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(states * states, axis=1))
    return pl.SimTrace(
        times=np.asarray(times, dtype=np.float64),
        states=states,
        inputs=np.asarray(inputs, dtype=np.float64),
        metadata=MappingProxyType({"x0_norm": x0_norm, "tau": tau}),
    )


_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -1e308, 1e-300, 0.1, 1.0 / 3.0]),
)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 40),
    n=st.integers(1, 5),
    x0_norm=st.floats(0.0, 1e6),
    tau=st.floats(0.5, 100.0),
)
def test_csv_writer_bytes_match_reference(tmp_path_factory, data, rows, n, x0_norm, tau):
    times = sorted(set(data.draw(st.lists(st.floats(0.0, 200.0), min_size=rows, max_size=rows))))
    m = len(times)
    states = data.draw(st.lists(_cells, min_size=m * n, max_size=m * n))
    inputs = data.draw(st.lists(_cells, min_size=m, max_size=m))
    trace = _trace(times, states, inputs, x0_norm, tau)
    out = tmp_path_factory.mktemp("csv")
    write_trace_csv(out / "new.csv", trace)
    reference_write_trace_csv(out / "old.csv", trace)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_csv_writer_bytes_match_reference_on_run(tmp_path, example2_trace):
    write_trace_csv(tmp_path / "new.csv", example2_trace)
    reference_write_trace_csv(tmp_path / "old.csv", example2_trace)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# A vanishing disturbance the controller drives to exactly +0.0 in every
# component within about 2,300 steps, after which ``run`` takes its rest
# path: two f calls per step instead of four.
VANISHING = "0.001*x1*cos(t)"
COEFFICIENTS = {1: (-1.0,), 2: (-1.0, -2.0)}


def _f_calls(plant, design, cfg):
    """The number of f calls one ``run`` makes, and its step count."""
    calls = 0

    def counted(x, u, t):
        nonlocal calls
        calls += 1
        return plant.f(x, u, t)

    trace = pl.run(dataclasses.replace(plant, f=counted), design, cfg)
    return calls, trace.metadata["steps_total"]


def _assert_same_run_at_rest(plant, design, cfg):
    """``_assert_same_run``, and the rest path saved f calls."""
    trace = _assert_same_run(plant, design, cfg)
    calls, steps = _f_calls(plant, design, cfg)
    assert calls < 4 * steps
    return trace


def _vanishing_plant(n, g_text="1 + 0.5*sin(t)"):
    return pl.plant_from_expressions(
        n, VANISHING, g_text, gamma=1.2, gamma_min=1.0, phi=0.001, phi0=0.0
    )


@pytest.mark.parametrize("stride", [1, 7, 50])
@pytest.mark.parametrize("alpha", [0.003, 0.005])
@pytest.mark.parametrize("n", [1, 2])
def test_rest_path_matches_reference(n, alpha, stride):
    design = _stand_in_design(COEFFICIENTS[n], 2.0, alpha, 1.0)
    cfg = pl.SimConfig(x0=(10.0,) * n, record_stride=stride)
    trace = _assert_same_run_at_rest(_vanishing_plant(n), design, cfg)
    assert not trace.states[-1].any()


@pytest.mark.parametrize(
    "x0", [(0.0,), (0.0, 0.0), (-0.0,), (0.0, -0.0)],
    ids=["zero-1", "zero-2", "negative-zero-1", "negative-zero-2"],
)
def test_rest_path_from_a_zero_start(x0):
    # A -0.0 component keeps the first step on the general path, which
    # turns it into +0.0.
    n = len(x0)
    design = _stand_in_design(COEFFICIENTS[n], 2.0, 0.005, 1.0)
    cfg = pl.SimConfig(x0=x0, record_stride=7)
    _assert_same_run_at_rest(_vanishing_plant(n), design, cfg)


def test_rest_path_records_negative_zero_input():
    # g = cos(t) turns negative past t = pi/2, so u = 0.0 / (gamma_min * g)
    # is -0.0 there; the CSV keeps that sign.
    design = _stand_in_design(COEFFICIENTS[1], 2.0, 0.005, 1.0)
    cfg = pl.SimConfig(x0=(10.0,))
    trace = _assert_same_run_at_rest(_vanishing_plant(1, "cos(t)"), design, cfg)
    assert (np.signbit(trace.inputs) & (trace.inputs == 0.0)).any()


@pytest.mark.parametrize("phi0", [0.1, 0.0])
def test_rest_path_leaves_rest(phi0):
    # f is exactly x1 up to t = 1 and then picks up a ramp: the state
    # leaves +0.0, which phi0 > 0 admits and phi0 = 0 rejects at the first
    # audited step start after t = 1.
    plant = pl.plant_from_expressions(
        2, "x1 + 1e-3*(t - 1 + abs(t - 1))", "1 + 0.5*sin(t)",
        gamma=1.2, gamma_min=1.0, phi=1.0, phi0=phi0,
    )
    design = _stand_in_design(COEFFICIENTS[2], 2.0, 0.005, 1.0)
    cfg = pl.SimConfig(x0=(0.0, 0.0), record_stride=7)
    if phi0 > 0.0:
        trace = _assert_same_run_at_rest(plant, design, cfg)
        assert trace.states[-1].any()
    else:
        with pytest.raises(pl.AssumptionViolationError, match=r"at t=1\.0"):
            reference_run(plant, design, cfg)
        _assert_same_run(plant, design, cfg)


def test_rest_path_powers_that_underflow():
    # (tau - t)**2 underflows to 0 before t_end, so a general stage divides
    # 0.0 by 0.0: the run must fail in that step, as it did before the rest
    # path existed, and not rest through it.
    tau = 1e-160
    design = _stand_in_design(COEFFICIENTS[2], tau, 0.005, 1.0)
    cfg = pl.SimConfig(x0=(0.0, 0.0), dt_base=1.0)
    plant = _vanishing_plant(2)
    with pytest.raises(ZeroDivisionError):
        reference_run(plant, design, cfg)
    _assert_same_run(plant, design, cfg)
    # The first step with a stage time whose power underflows.
    t = 0.0
    while True:
        h = 0.005 * (tau - t)
        if not all((tau - s) * (tau - s) for s in (t + 0.5 * h, t + h)):
            break
        t += h
    with pytest.raises(pl.DivergenceError) as err:
        pl.run(plant, design, cfg)
    assert err.value.trace.times[-1] == t

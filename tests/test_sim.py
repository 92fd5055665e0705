import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptc_lab as pl
from ptc_lab.sim import _predicted_steps

# First-order closed loop with f = 0 follows x0*(1 - t/tau)^(1/alpha)
# exactly, which exercises the step controller near the deadline.
N1_ALPHA = 0.05
N1_TAU = 10.0


def _first_order_plant():
    return pl.plant_from_expressions(
        1, "0", "1", gamma=1.0, gamma_min=1.0, phi=0.0, phi0=0.0
    )


def _first_order_design(alpha=N1_ALPHA):
    return pl.design_controller((-1.0,), N1_TAU, alpha=alpha)


def test_first_order_matches_closed_form():
    design = _first_order_design()
    cfg = pl.SimConfig(
        x0=(10.0,), dt_base=5e-3, epsilon_fraction=1e-3, shrink_divisor=2500.0
    )
    trace = pl.run(_first_order_plant(), design, cfg)
    exact = 10.0 * np.power(1.0 - trace.times / N1_TAU, 1.0 / N1_ALPHA)
    rel = np.abs(trace.states[:, 0] - exact) / np.abs(exact)
    assert float(rel.max()) < 1e-6


def test_rk4_step_halving_is_fourth_order():
    # Halving the base step must cut the endpoint error by roughly 2^4.
    plant = _first_order_plant()
    design = pl.design_controller((-1.0,), N1_TAU, alpha=0.09, eps_guard_fraction=0.2)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        cfg = pl.SimConfig(
            x0=(10.0,), dt_base=dt, epsilon_fraction=0.2, shrink_divisor=10.0
        )
        trace = pl.run(plant, design, cfg)
        t_end = trace.times[-1]
        exact = 10.0 * (1.0 - t_end / N1_TAU) ** (1.0 / 0.09)
        errors.append(abs(trace.states[-1, 0] - exact))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    assert all(12.0 <= r <= 26.0 for r in ratios), ratios


def test_second_order_trace_shape(example2_trace):
    trace = example2_trace
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(10.0 * (1.0 - 1e-3), abs=1e-12)
    assert np.all(np.diff(trace.times) > 0.0)
    assert np.all(np.isfinite(trace.inputs))
    assert trace.states.shape == (len(trace.times), 2)
    assert trace.norms[0] == pytest.approx(math.hypot(10.0, 10.0), rel=1e-15)
    assert trace.norms[-1] <= 0.5
    assert trace.lambda_values[0] == 1.0


def test_trace_metadata_contents(example2_trace):
    md = example2_trace.metadata
    assert md["mode"] == "attractive"
    assert md["tau"] == 10.0
    assert md["alpha"] == 0.0214
    assert md["x0_norm"] == pytest.approx(math.hypot(10.0, 10.0))
    assert md["plant"] == "example2"
    assert md["steps_total"] >= len(example2_trace.times) - 1
    assert md["u_max"] >= abs(example2_trace.inputs[0])
    # No wall-clock entries: traces must be reproducible byte for byte.
    assert not any("time" in k and "times" not in k for k in ("wall_time", "elapsed") if k in md)
    with pytest.raises(TypeError):
        md["tau"] = 11.0


def test_runs_are_deterministic():
    plant = pl.builtin_plant("example2")
    design = pl.design_controller(
        (-1.0, -2.0), 10.0, alpha=0.0214, phi=plant.phi, phi0=plant.phi0
    )
    cfg = pl.SimConfig(x0=(10.0, 10.0), dt_base=5e-3)
    a = pl.run(plant, design, cfg)
    b = pl.run(plant, design, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.times, b.times)


def test_sweep_preserves_order_and_determinism():
    plant = pl.builtin_plant("example2")
    cfg = pl.SimConfig(x0=(10.0, 10.0), dt_base=5e-3)
    traces = pl.sweep(plant, (-1.0, -2.0), (10.0, 10.0), cfg, alpha=0.0214)
    assert len(traces) == 2
    assert np.array_equal(traces[0].states, traces[1].states)
    assert traces[0].metadata["tau"] == traces[1].metadata["tau"] == 10.0


def test_sweep_empty():
    plant = pl.builtin_plant("example2")
    cfg = pl.SimConfig(x0=(10.0, 10.0))
    assert pl.sweep(plant, (-1.0, -2.0), (), cfg, alpha=0.0214) == []


def test_divergence_carries_partial_trace():
    # A tiny threshold trips on the very first input spike; the partial
    # trace attached to the error must still start at t = 0.
    plant = pl.builtin_plant("example2")
    design = pl.design_controller(
        (-1.0, -2.0), 10.0, alpha=0.0214, phi=plant.phi, phi0=plant.phi0
    )
    cfg = pl.SimConfig(x0=(0.0, 0.0), dt_base=5e-3, divergence_threshold=2.0)
    with pytest.raises(pl.DivergenceError) as err:
        pl.run(plant, design, cfg)
    partial = err.value.trace
    assert partial is not None
    assert partial.times[0] == 0.0
    assert len(partial.times) >= 1
    assert bool(np.all(np.isfinite(partial.inputs)))


def test_audit_violation_stops_run():
    lying = pl.plant_from_expressions(
        1, "50", "1", gamma=1.0, gamma_min=1.0, phi=0.0, phi0=10.0
    )
    design = pl.design_controller((-1.0,), 10.0, alpha=0.05, phi0=10.0)
    cfg = pl.SimConfig(x0=(1.0,))
    with pytest.raises(pl.AssumptionViolationError):
        pl.run(lying, design, cfg)


def test_record_stride_subsamples_steps():
    plant = _first_order_plant()
    design = _first_order_design()
    dense_cfg = pl.SimConfig(x0=(10.0,), dt_base=0.05)
    strided_cfg = pl.SimConfig(x0=(10.0,), dt_base=0.05, record_stride=7)
    dense = pl.run(plant, design, dense_cfg)
    strided = pl.run(plant, design, strided_cfg)
    # Every strided sample except the forced final one appears at the
    # same position in the dense trace.
    assert np.array_equal(strided.times[:-1], dense.times[:-1][::7])
    assert np.array_equal(strided.states[:-1], dense.states[:-1][::7])
    assert strided.times[-1] == dense.times[-1]


def test_dimension_mismatches_rejected():
    plant = pl.builtin_plant("example2")
    design_wrong_n = pl.design_controller((-1.0,), 10.0, alpha=0.05)
    cfg = pl.SimConfig(x0=(1.0, 1.0))
    with pytest.raises(ValueError):
        pl.run(plant, design_wrong_n, cfg)
    design = pl.design_controller(
        (-1.0, -2.0), 10.0, alpha=0.0214, phi=plant.phi, phi0=plant.phi0
    )
    with pytest.raises(ValueError):
        pl.run(plant, design, pl.SimConfig(x0=(1.0,)))


def test_guard_wider_than_halt_gap_rejected():
    # The controller guard band must fit inside the simulated horizon,
    # otherwise the final sample would sit inside the forbidden band.
    plant = _first_order_plant()
    design = pl.design_controller((-1.0,), 10.0, alpha=0.05, eps_guard_fraction=0.01)
    cfg = pl.SimConfig(x0=(1.0,), epsilon_fraction=1e-3)
    with pytest.raises(ValueError):
        pl.run(plant, design, cfg)


@pytest.mark.parametrize("tau", [5.0, 10.0, 17.5, 30.0, 45.0])
def test_predicted_steps_match_example2(tau):
    # The dt_base cap binds early on, the shrink cap near the deadline.
    plant = pl.builtin_plant("example2")
    design = pl.design_controller(
        (-1.0, -2.0), tau, alpha=0.0214, phi=plant.phi, phi0=plant.phi0
    )
    cfg = pl.SimConfig(x0=(10.0, 10.0), dt_base=5e-3)
    steps = pl.run(plant, design, cfg).metadata["steps_total"]
    assert abs(_predicted_steps(tau, design.alpha, cfg) - steps) <= 2


def test_predicted_steps_match_example3(example3_trace):
    # The stiffness cap binds on every step but the clamped last one.
    meta = example3_trace.metadata
    keys = ("x0", "dt_base", "epsilon_fraction", "shrink_divisor", "stiffness_safety")
    cfg = pl.SimConfig(**{key: meta[key] for key in keys})
    predicted = _predicted_steps(meta["tau"], meta["alpha"], cfg)
    assert abs(predicted - meta["steps_total"]) <= 2


def test_sim_config_validation():
    with pytest.raises(ValueError):
        pl.SimConfig(x0=(), dt_base=0.01)
    with pytest.raises(ValueError):
        pl.SimConfig(x0=(1.0,), dt_base=0.0)
    with pytest.raises(ValueError):
        pl.SimConfig(x0=(1.0,), epsilon_fraction=0.0)
    with pytest.raises(ValueError):
        pl.SimConfig(x0=(1.0,), epsilon_fraction=1.0)
    with pytest.raises(ValueError):
        pl.SimConfig(x0=(1.0,), shrink_divisor=0.0)
    with pytest.raises(ValueError):
        pl.SimConfig(x0=(1.0,), record_stride=0)
    for stride in (True, 2.5, 2.0, "2", np.float64(3.0)):
        with pytest.raises(ValueError, match="record_stride must be an integer"):
            pl.SimConfig(x0=(1.0,), record_stride=stride)
    assert pl.SimConfig(x0=(1.0,), record_stride=np.int64(3)).record_stride == 3
    with pytest.raises(ValueError):
        pl.SimConfig(x0=(1.0,), divergence_threshold=0.0)
    for name in ("dt_base", "epsilon_fraction", "shrink_divisor", "stiffness_safety",
                 "divergence_threshold"):
        with pytest.raises(ValueError):
            pl.SimConfig(x0=(1.0,), **{name: math.nan})
    with pytest.raises(ValueError, match="divergence_threshold"):
        pl.SimConfig(x0=(1.0,), divergence_threshold=math.inf)
    for x0 in [(math.inf,), (math.nan,), (1.0, -math.inf), (True,), ("1",)]:
        with pytest.raises(ValueError, match="x0"):
            pl.SimConfig(x0=x0)
    pl.SimConfig(x0=(np.int64(1), np.float32(2.0), 3))


def test_trace_arrays_read_only(example2_trace):
    with pytest.raises(ValueError):
        example2_trace.states[0, 0] = 99.0
    with pytest.raises(ValueError):
        example2_trace.times[0] = -1.0


def _assert_inputs_follow_control_input(plant, trace):
    # run() keeps its own inlined copy of the gain law for speed; every
    # recorded input must equal control_input bit for bit.
    meta = trace.metadata
    design = pl.design_controller(
        meta["c"],
        meta["tau"],
        alpha=meta["alpha"],
        phi=plant.phi,
        phi0=plant.phi0,
        gamma_min=plant.gamma_min,
        eps_guard_fraction=meta["epsilon_fraction"],
    )
    schedule = pl.build_gain_schedule(design)
    expected = [
        pl.control_input(design, schedule, x, t, plant.g(t))
        for t, x in zip(trace.times.tolist(), trace.states.tolist())
    ]
    assert np.array_equal(trace.inputs, expected)


def test_inline_gain_law_matches_control_input(example2_trace, example3_trace):
    _assert_inputs_follow_control_input(pl.builtin_plant("example2"), example2_trace)
    _assert_inputs_follow_control_input(
        pl.builtin_plant("example3", seed=6), example3_trace
    )
    plant = pl.plant_from_expressions(
        2, "50*cos(u) + cos(t)*x1 + exp(sin(x1))*x2", "1 + 0.5*sin(t)",
        gamma=1.1, gamma_min=1.0, phi=math.e, phi0=50.0,
    )
    design = pl.design_controller(
        (-1.0, -2.0), 10.0, alpha=0.0214, phi=plant.phi, phi0=plant.phi0
    )
    cfg = pl.SimConfig(x0=(10.0, 10.0), dt_base=5e-3)
    _assert_inputs_follow_control_input(plant, pl.run(plant, design, cfg))


def _reference_norms_and_envelope(times, states, tau):
    """How ``run`` built the certification inputs before ``SimTrace``
    derived them itself."""
    t_arr = np.asarray(times, dtype=np.float64)
    x_arr = np.asarray(states, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(x_arr * x_arr, axis=1))
        lam = np.maximum(1.0 - t_arr / tau, 0.0)
    return norms, lam


_components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e154, -1e308]),
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5),
    tau=st.one_of(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.sampled_from([10.0, 5e-324]),
    ),
)
def test_trace_derives_norms_and_envelope_like_the_old_builder(data, n, tau):
    times = sorted(set(data.draw(st.lists(
        st.one_of(st.floats(0.0, 2.0 * min(tau, 1e300)), st.floats(0.0, 1e300)),
        min_size=1, max_size=30,
    ))))
    rows = data.draw(st.lists(
        st.tuples(*[_components] * n), min_size=len(times), max_size=len(times)
    ))
    trace = pl.SimTrace(times, rows, [0.0] * len(times), {"tau": tau, "x0_norm": 1.0})
    norms, lam = _reference_norms_and_envelope(times, rows, tau)
    assert trace.norms.tobytes() == norms.tobytes()
    assert trace.lambda_values.tobytes() == lam.tobytes()

import math

import numpy as np
import pytest

import ptc_lab as pl
from ptc_lab.sim import triangular_fn


def _synthetic_trace(times, norms, tau, x0_norm, mode="stable", inputs=None):
    """A first-order trace whose state is ``norms``, so ``||x|| = norms``."""
    times = np.asarray(times, dtype=float)
    return pl.SimTrace(
        times=times,
        states=np.asarray(norms, dtype=float).reshape(-1, 1),
        inputs=np.zeros_like(times) if inputs is None else inputs,
        metadata={"tau": tau, "x0_norm": x0_norm, "mode": mode},
    )


def test_triangular_fn_values():
    assert triangular_fn(0.0) == 1.0
    assert triangular_fn(0.5) == 0.5
    assert triangular_fn(1.0) == 0.0
    assert triangular_fn(2.0) == 0.0
    assert triangular_fn(-1.0) == 2.0


def test_certify_stable_on_quadratic_decay():
    # ||x(t)|| = x0 * (1 - t/tau)^2 <= sigma * x0 * (1 - t/tau) for
    # sigma = 1, so the floor value is reported with a clean margin.
    tau = 10.0
    times = np.linspace(0.0, 9.99, 400)
    norms = 5.0 * (1.0 - times / tau) ** 2
    trace = _synthetic_trace(times, norms, tau, 5.0)
    cert = pl.certify(trace)
    assert cert.verdict == "triangularly_stable"
    assert cert.sigma == 1.0 + 1e-9
    assert cert.margin >= 0.0
    assert cert.t0 is None
    assert cert.varsigma is None
    assert cert.tau == tau
    assert cert.samples_used == len(times)


def test_certify_inconclusive_on_constant_norm():
    tau = 10.0
    times = np.linspace(0.0, 9.99, 200)
    norms = np.full_like(times, 5.0)
    trace = _synthetic_trace(times, norms, tau, 5.0)
    cert = pl.certify(trace)
    assert cert.verdict == "inconclusive"
    assert cert.sigma is None or cert.sigma > 0


def test_certify_attractive_second_order(example2_trace):
    cert = pl.certify(example2_trace)
    assert cert.verdict == "triangularly_attractive"
    assert cert.varsigma is not None and cert.varsigma > 0
    assert 0.0 < cert.t0 < 1.0
    assert cert.margin >= 0.0
    assert cert.final_norm <= 0.5
    # The raw envelope fit is reported even when the stable gate is
    # bypassed by the design mode.
    assert cert.sigma == pytest.approx(1.5475780432696713, rel=1e-6)


def test_certify_stable_fourth_order(example3_trace):
    cert = pl.certify(example3_trace)
    assert cert.verdict == "triangularly_stable"
    assert cert.sigma is not None and cert.sigma < 1e6
    assert cert.final_norm <= 1e-2 * cert.x0_norm
    assert cert.margin >= 0.0


def test_certify_scale_invariance():
    tau = 10.0
    times = np.linspace(0.0, 9.99, 300)
    norms = 2.0 * (1.0 - times / tau) ** 1.5
    base = pl.certify(_synthetic_trace(times, norms, tau, 2.0))
    scaled = pl.certify(_synthetic_trace(times, 3.7 * norms, tau, 3.7 * 2.0))
    assert base.verdict == scaled.verdict == "triangularly_stable"
    assert scaled.sigma == pytest.approx(base.sigma, rel=1e-12)


def test_certify_respects_design_mode():
    # The same arrays certify as stable when the metadata carries no
    # attractive-mode marker, and as attractive when it does: the gate
    # for the stronger verdict is tied to what the design guarantees.
    tau = 10.0
    times = np.linspace(0.0, 9.99, 400)
    norms = 5.0 * (1.0 - times / tau) ** 2
    stable = pl.certify(_synthetic_trace(times, norms, tau, 5.0, mode="stable"))
    attractive = pl.certify(
        _synthetic_trace(times, norms, tau, 5.0, mode="attractive")
    )
    assert stable.verdict == "triangularly_stable"
    assert attractive.verdict == "triangularly_attractive"
    assert attractive.varsigma is not None


def test_certify_unperturbed_closed_loop_is_stable():
    # With no disturbance and exact gain knowledge the closed loop must
    # earn the stronger verdict under the auto-selected rate.
    plant = pl.plant_from_expressions(
        2, "0", "1", gamma=1.0, gamma_min=1.0, phi=0.0, phi0=0.0
    )
    design = pl.design_controller((-1.0, -2.0), 10.0)
    assert design.mode == "stable"
    cfg = pl.SimConfig(x0=(3.0, -1.0), dt_base=5e-3)
    trace = pl.run(plant, design, cfg)
    cert = pl.certify(trace)
    assert cert.verdict == "triangularly_stable"
    assert cert.final_norm <= 1e-2 * cert.x0_norm


@pytest.mark.parametrize(
    "metadata",
    [
        {"x0_norm": 1.0},
        {"tau": None, "x0_norm": 1.0},
        {"tau": 0.0, "x0_norm": 1.0},
        {"tau": -10.0, "x0_norm": 1.0},
        {"tau": math.inf, "x0_norm": 1.0},
        {"tau": math.nan, "x0_norm": 1.0},
        {"tau": "10", "x0_norm": 1.0},
        {"tau": True, "x0_norm": 1.0},
        {"tau": 10.0},
        {"tau": 10.0, "x0_norm": -1.0},
        {"tau": 10.0, "x0_norm": -5e-324},
        {"tau": 10.0, "x0_norm": math.inf},
        {"tau": 10.0, "x0_norm": math.nan},
        {"tau": 10.0, "x0_norm": 10**400},
    ],
    ids=[
        "no-tau", "tau-none", "tau-zero", "tau-negative", "tau-inf", "tau-nan",
        "tau-string", "tau-bool", "no-x0-norm", "x0-norm-negative",
        "x0-norm-negative-subnormal", "x0-norm-inf", "x0-norm-nan",
        "x0-norm-beyond-float-range",
    ],
)
def test_trace_refuses_metadata_without_deadline_or_initial_norm(metadata):
    # Every certificate is graded against tau and ||x0||, so the run record
    # refuses to exist without usable values for both.
    times = np.linspace(0.0, 9.99, 50)
    with pytest.raises(ValueError, match="trace metadata (tau|x0_norm) must be finite"):
        pl.SimTrace(times, np.ones((50, 1)), np.zeros(50), metadata)
    # The same arrays with both values make a trace; x0_norm may be 0.
    pl.SimTrace(times, np.ones((50, 1)), np.zeros(50), {"tau": 10, "x0_norm": 0})


def test_verify_mapping_default_samples():
    report = pl.verify_mapping(3, 0.2, 10.0)
    assert report.ok
    assert report.max_round_trip_error <= 1e-10
    assert report.max_rate_product_error <= 1e-10
    assert report.max_composition_error <= 1e-10
    assert report.max_mu_derivative_error <= 1e-9
    assert report.max_kappa_derivative_error <= 1e-9
    assert report.max_fd_crosscheck_error <= 1e-6
    assert report.n == 3
    assert len(report.sample_times) == 6


def test_verify_mapping_rejects_deadline_samples():
    with pytest.raises(ValueError):
        pl.verify_mapping(2, 0.2, 10.0, sample_times=(0.0, 10.0))
    with pytest.raises(ValueError):
        pl.verify_mapping(2, 0.2, 10.0, sample_times=(-1.0,))


def test_verify_mapping_rejects_nan_rate_or_deadline():
    for alpha, tau in ((math.nan, 10.0), (0.2, math.nan)):
        with pytest.raises(ValueError, match="alpha and tau must be positive"):
            pl.verify_mapping(2, alpha, tau)


def test_verify_mapping_other_orders():
    for n, alpha in ((1, 0.4), (4, 1.681e-5)):
        report = pl.verify_mapping(n, alpha, 10.0)
        assert report.ok


def test_input_boundedness(example2_trace, example3_trace):
    for trace in (example2_trace, example3_trace):
        report = pl.check_input_boundedness(trace)
        assert report.ok
        assert report.tail_max <= 10.0 * report.head_max + 1e-12


def test_input_boundedness_flags_growth():
    times = np.linspace(0.0, 9.99, 100)
    norms = np.ones_like(times)
    inputs = np.where(times <= 9.0, 1.0, 100.0)
    trace = _synthetic_trace(times, norms, 10.0, 1.0, inputs=inputs)
    report = pl.check_input_boundedness(trace)
    assert not report.ok

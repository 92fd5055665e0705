import pytest

import ptc_lab as pl
from ptc_lab import native


@pytest.fixture(scope="session")
def example2_trace():
    """One closed-loop run of the second-order example at tau = 10."""
    plant = pl.builtin_plant("example2")
    design = pl.design_controller(
        (-1.0, -2.0),
        10.0,
        alpha=0.0214,
        phi=plant.phi,
        phi0=plant.phi0,
        gamma_min=plant.gamma_min,
    )
    cfg = pl.SimConfig(x0=(10.0, 10.0), dt_base=5e-3)
    return pl.run(plant, design, cfg)


@pytest.fixture(scope="session")
def example3_trace():
    """One closed-loop run of the fourth-order example (seed 6, tau = 10).

    This is the expensive fixture (about 400k steps); session scope keeps
    it to a single run across the whole suite.
    """
    plant = pl.builtin_plant("example3", seed=6)
    design = pl.design_controller(
        (-1.0, -4.0, -6.0, -4.0),
        10.0,
        phi=plant.phi,
        phi0=plant.phi0,
        gamma_min=plant.gamma_min,
    )
    cfg = pl.SimConfig(x0=(10.0, 10.0, 10.0, 10.0), dt_base=0.01, record_stride=50)
    return pl.run(plant, design, cfg)


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

"""The exact nominal closed loop, ROADMAP item 10's reference, and the
checks that tie the integrator to it.

With f = 0, gamma = gamma_min and g = 1, the controller makes the closed
loop linear in the stretched clock s, t = tau*(1 - exp(-alpha*s)): with
x = T(t) y, y' = E y, E = companion_matrix(c)
(``test_controller.py::test_gains_pull_back_to_the_companion_matrix``).
So x(t) = T(t) expm(E s(t)) T(0)^-1 x0, with T(t) = diag(w^0, ...,
w^(n-1)) C, w = 1/(alpha*(tau - t)) and C[k][j] = [k, j] alpha^(k - j),
unsigned Stirling numbers of the first kind. ``nominal_state`` evaluates
it for any design, in doubles or, where T(0) is too badly conditioned for
them, in mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

import ptc_lab as pl


def stirling_first(n):
    """Unsigned Stirling numbers of the first kind, [k, j] for 0 <= j, k < n."""
    s = [[0] * n for _ in range(n)]
    s[0][0] = 1
    for k in range(1, n):
        for j in range(1, k + 1):
            s[k][j] = (k - 1) * s[k - 1][j] + s[k - 1][j - 1]
    return s


def _transform(n, alpha, tau, t):
    """T(t) as rows of the type of ``alpha``, ``tau`` and ``t``."""
    s = stirling_first(n)
    w = 1 / (alpha * (tau - t))
    return [[w**k * s[k][j] * alpha ** (k - j) for j in range(n)] for k in range(n)]


def nominal_state(design, x0, t, digits=None):
    """x(t) of the nominal closed loop of ``design`` from ``x0``, for
    0 <= t < tau, as a float64 array: in doubles with scipy's ``expm``,
    or, with ``digits``, in mpmath at that many digits. Doubles lose
    digits where T(0) is badly conditioned (cond 2.1e11 for example3's
    design) and where s is large: for c = (-1, -3, -3) at its automatic
    rate they are off by 4.5e-10, relative, at t = 1 (s = 146)."""
    n, c = len(x0), design.c
    if digits is None:
        alpha, tau = design.alpha, design.tau
        s = -math.log1p(-t / tau) / alpha
        y0 = scipy.linalg.solve_triangular(
            np.array(_transform(n, alpha, tau, 0.0)), np.array(x0, dtype=float), lower=True
        )
        return np.array(_transform(n, alpha, tau, t)) @ scipy.linalg.expm(
            pl.companion_matrix(c) * s
        ) @ y0
    with mpmath.workdps(digits):
        alpha, tau, t = mpmath.mpf(design.alpha), mpmath.mpf(design.tau), mpmath.mpf(t)
        s = -mpmath.log(1 - t / tau) / alpha
        y0 = mpmath.lu_solve(mpmath.matrix(_transform(n, alpha, tau, 0)), mpmath.matrix(x0))
        x = mpmath.matrix(_transform(n, alpha, tau, t)) * mpmath.expm(
            mpmath.matrix(pl.companion_matrix(c).tolist()) * s
        ) * y0
        return np.array([float(v) for v in x])


@pytest.mark.parametrize("digits", [None, 50], ids=["doubles", "mpmath"])
@pytest.mark.parametrize("alpha", [0.05, 0.09])
def test_reference_matches_the_first_order_closed_form(alpha, digits):
    # Acceptance 6's designs: x(t) = x0 (1 - t/tau)^(1/alpha). At t = 9.99
    # s is 138 for alpha 0.05, so exp(-s) in doubles carries about s
    # units of roundoff from s.
    design = pl.design_controller((-1.0,), 10.0, alpha=alpha)
    for t in (0.0, 0.5, 2.0, 5.0, 9.0, 9.99):
        exact = 10.0 * (1.0 - t / 10.0) ** (1.0 / alpha)
        got = nominal_state(design, (10.0,), t, digits)
        assert got.shape == (1,)
        assert abs(got[0] - exact) <= 1e-12 * exact, (t, got[0], exact)


def test_reference_in_doubles_matches_mpmath_for_order_3():
    # c = (-1, -3, -3) at its automatic rate, 7.2e-4, up to t = 0.1
    # (s = 14), the span of the step-halving test below.
    design = pl.design_controller((-1.0, -3.0, -3.0), 10.0, eps_guard_fraction=0.99)
    for t in (0.0, 7e-5, 0.01, 0.1):
        want = nominal_state(design, (1.0, 1.0, 1.0), t, digits=50)
        got = nominal_state(design, (1.0, 1.0, 1.0), t)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), t


def test_order_3_step_halving_against_the_reference():
    # The stiffness cap binds on every step of this run (t_end = 0.1), so
    # halving stiffness_safety halves every step but the clamped last one.
    # Fourth-order stepping cuts the error by about 16x per halving:
    # acceptance 6's band of 12-26, here on order 3.
    plant = pl.plant_from_expressions(3, "0", "1", gamma=1.0, gamma_min=1.0, phi=0.0, phi0=0.0)
    design = pl.design_controller((-1.0, -3.0, -3.0), 10.0, eps_guard_fraction=0.99)
    x0 = (1.0, 1.0, 1.0)
    errors = []
    for safety in (0.5, 0.25, 0.125):
        cfg = pl.SimConfig(x0=x0, epsilon_fraction=0.99, stiffness_safety=safety)
        trace = pl.run(plant, design, cfg)
        want = nominal_state(design, x0, trace.times[-1], digits=50)
        errors.append(np.linalg.norm(trace.states[-1] - want) / np.linalg.norm(want))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    assert all(12.0 <= r <= 26.0 for r in ratios), (errors, ratios)

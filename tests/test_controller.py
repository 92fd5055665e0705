import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

import ptc_lab as pl
from ptc_lab.controller import GainRow, GainTerm
from test_nominal_reference import stirling_first

# Frozen gain scalars for the fourth-order example design (auto-selected
# alpha at tau = 10); derived once from the exact rational structure.
Q_EX3 = (
    -1.2523331898053923e19,
    -842052090620114.8,
    -21232278127.82094,
    -237946.33123640344,
)
ALPHA_EX3 = 1.681008956380443e-05
U0_EX2 = -310.8176259935366
BOUND_EX2 = 0.021446609406726245


def pi_double_sum(
    c: Sequence[float],
    alpha: float,
    tau: float,
    x: Sequence[float],
    t: float,
) -> float:
    """Reference evaluation of ``pi`` as the literal double sum.

    This walks every ``(j, i)`` term separately instead of collapsing per
    state, so it shares no code path with :meth:`GainSchedule.evaluate`;
    the two must agree to near machine precision on any input.
    """
    n = len(c)
    if len(x) != n:
        raise ValueError(f"state has length {len(x)}, expected {n}")
    d = tau - t
    acc = 0.0
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            acc += (
                pl.stirling_second(j - 1, i - 1)
                * (c[j - 1] / alpha ** (n - j + 1))
                * ((-1) ** (j - i) / d ** (n - i + 1))
                * float(x[i - 1])
            )
    for j in range(2, n + 1):
        acc -= (
            pl.stirling_second(n, j - 1)
            * ((-1) ** (n - j + 1) / d ** (n - j + 1))
            * float(x[j - 1])
        )
    return acc


def test_fourth_order_gain_structure_exact():
    # The per-state integer structure behind the standard 4th-order gain
    # table, compared with zero tolerance.
    rows = pl.structural_rows(4)
    assert rows[0] == GainRow(
        state=1, power=4, c_terms=(GainTerm(1, 1, 4),), constant=0
    )
    assert rows[1] == GainRow(
        state=2,
        power=3,
        c_terms=(GainTerm(2, 1, 3), GainTerm(3, -1, 2), GainTerm(4, 1, 1)),
        constant=1,
    )
    assert rows[2] == GainRow(
        state=3,
        power=2,
        c_terms=(GainTerm(3, 1, 2), GainTerm(4, -3, 1)),
        constant=-7,
    )
    assert rows[3] == GainRow(
        state=4, power=1, c_terms=(GainTerm(4, 1, 1),), constant=6
    )


def test_symbolic_rows_exact_strings():
    assert pl.symbolic_rows(4) == (
        "p1 = c1/(alpha^4*(tau - t)^4)",
        "p2 = (c2/alpha^3 - c3/alpha^2 + c4/alpha + 1)/(tau - t)^3",
        "p3 = (c3/alpha^2 - 3*c4/alpha - 7)/(tau - t)^2",
        "p4 = (c4/alpha + 6)/(tau - t)",
    )
    assert pl.symbolic_rows(1) == ("p1 = c1/(alpha*(tau - t))",)
    assert pl.symbolic_rows(2) == (
        "p1 = c1/(alpha^2*(tau - t)^2)",
        "p2 = (c2/alpha + 1)/(tau - t)",
    )


def test_numeric_gains_example3_frozen():
    rows = pl.numeric_rows((-1.0, -4.0, -6.0, -4.0), ALPHA_EX3)
    assert tuple(p for _, p in rows) == (4, 3, 2, 1)
    for (q, _), expected in zip(rows, Q_EX3):
        assert q == pytest.approx(expected, rel=1e-12)


def _reference_coefficients(rows, c, alpha):
    # The gain-scalar loop as it was before non-finite results were rejected.
    out = []
    for row in rows:
        q = float(row.constant)
        for term in row.c_terms:
            q += term.coefficient * c[term.j - 1] / alpha ** term.alpha_power
        out.append(q)
    return tuple(out)


def test_gain_scalars_are_unchanged_or_rejected():
    # Rates from 1e-90 to 1e90: where every scalar is a finite float it is
    # the same float as before; otherwise the design is infeasible, not a
    # ZeroDivisionError, OverflowError or an infinite gain.
    rng = np.random.Generator(np.random.PCG64(17))
    rejected = 0
    for n in range(1, 9):
        rows = pl.structural_rows(n)
        for _ in range(40):
            c = tuple(map(float, rng.uniform(-3.0, 3.0, n)))
            alpha = float(10.0 ** rng.uniform(-90.0, 90.0))
            try:
                want = _reference_coefficients(rows, c, alpha)
            except ArithmeticError:
                want = (math.inf,)
            if all(map(math.isfinite, want)):
                got = tuple(q for q, _ in pl.numeric_rows(c, alpha))
                assert np.array(got).tobytes() == np.array(want).tobytes()
            else:
                rejected += 1
                with pytest.raises(pl.InfeasibleDesignError, match="beyond the float range"):
                    pl.numeric_rows(c, alpha)
    assert 0 < rejected < 320


def test_schedule_matches_double_sum():
    # 50 random draws per order; the collapsed per-state form and the
    # literal double sum must agree to near machine precision.
    rng = np.random.Generator(np.random.PCG64(11))
    for n in range(1, 7):
        rows = pl.structural_rows(n)
        for _ in range(50):
            c = tuple(rng.uniform(-3.0, 3.0, n))
            alpha = float(rng.uniform(0.01, 0.5))
            tau = float(rng.uniform(1.0, 20.0))
            t = float(rng.uniform(0.0, 0.9 * tau))
            x = rng.normal(size=n)
            coeffs = tuple(q for q, _ in pl.numeric_rows(c, alpha))
            schedule = pl.GainSchedule(n=n, rows=rows, coefficients=coeffs)
            via_schedule = schedule.evaluate(x, t, tau)
            direct = pi_double_sum(c, alpha, tau, x, t)
            assert abs(via_schedule - direct) <= 1e-12 * (1.0 + abs(direct))


def test_control_input_example2_frozen():
    design = pl.design_controller(
        (-1.0, -2.0), 10.0, alpha=0.0214, phi=math.e, phi0=50.0
    )
    schedule = pl.build_gain_schedule(design)
    u0 = pl.control_input(design, schedule, (10.0, 10.0), 0.0, 1.0)
    assert u0 == pytest.approx(U0_EX2, rel=1e-13)
    direct = pi_double_sum(design.c, design.alpha, 10.0, (10.0, 10.0), 0.0)
    assert u0 == pytest.approx(direct / (design.gamma_min * 1.0), rel=1e-12)


def test_control_input_linearity_and_zero():
    design = pl.design_controller((-1.0, -2.0), 10.0, alpha=0.02, phi0=1.0)
    schedule = pl.build_gain_schedule(design)
    assert pl.control_input(design, schedule, (0.0, 0.0), 3.0, 1.0) == 0.0
    u1 = pl.control_input(design, schedule, (2.0, -1.0), 3.0, 1.0)
    u2 = pl.control_input(design, schedule, (4.0, -2.0), 3.0, 1.0)
    assert u2 == pytest.approx(2.0 * u1, rel=1e-12)


def test_control_input_guard_band():
    design = pl.design_controller((-1.0, -2.0), 10.0, alpha=0.02, phi0=1.0)
    schedule = pl.build_gain_schedule(design)
    # eps_guard = 1e-3*tau = 0.01; the band edge itself is evaluable.
    edge = 10.0 - design.eps_guard
    assert math.isfinite(pl.control_input(design, schedule, (1.0, 1.0), edge, 1.0))
    with pytest.raises(pl.SingularityError):
        pl.control_input(design, schedule, (1.0, 1.0), 10.0 - 0.5 * design.eps_guard, 1.0)
    with pytest.raises(pl.SingularityError):
        pl.control_input(design, schedule, (1.0, 1.0), 11.0, 1.0)


def test_control_input_zero_gain_rejected():
    design = pl.design_controller((-1.0, -2.0), 10.0, alpha=0.02, phi0=1.0)
    schedule = pl.build_gain_schedule(design)
    with pytest.raises(pl.AssumptionViolationError):
        pl.control_input(design, schedule, (1.0, 1.0), 0.0, 0.0)


def test_gain_times_power_is_constant_in_time():
    # p_i(t) * (tau - t)^(n-i+1) must not depend on t: evaluate the full
    # controller on unit vectors at several times.
    design = pl.design_controller((-1.0, -4.0, -6.0, -4.0), 10.0, phi=1e-3)
    schedule = pl.build_gain_schedule(design)
    n, tau = design.n, design.tau
    for i in range(n):
        unit = [0.0] * n
        unit[i] = 1.0
        values = []
        for t in (0.0, 2.5, 5.0, 9.0):
            pi_val = schedule.evaluate(unit, t, tau)
            values.append(pi_val * (tau - t) ** (n - i))
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-12)
        assert values[0] == pytest.approx(schedule.coefficients[i], rel=1e-12)


def test_initial_input_magnitude_decreases_with_deadline():
    # For x0 = (1, 0, ..., 0) the initial input scales like 1/tau^n, so a
    # longer deadline always starts gentler at fixed alpha.
    for n, c in [(2, (-1.0, -2.0)), (3, (-1.0, -3.0, -3.0)), (4, (-1.0, -4.0, -6.0, -4.0))]:
        coeffs = tuple(q for q, _ in pl.numeric_rows(c, 0.01))
        rows = pl.structural_rows(n)
        schedule = pl.GainSchedule(n=n, rows=rows, coefficients=coeffs)
        x0 = [1.0] + [0.0] * (n - 1)
        magnitudes = [abs(schedule.evaluate(x0, 0.0, tau)) for tau in (5.0, 10.0, 15.0, 20.0)]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


def test_select_alpha_example2():
    lyap = pl.solve_lyapunov((-1.0, -2.0))
    sel = pl.select_alpha(lyap, 2, 10.0, phi=math.e, phi0=50.0)
    assert sel.mode == "attractive"
    assert sel.bound_stable is None
    assert sel.bound_attractive == pytest.approx(BOUND_EX2, rel=1e-15)
    # The closed form of the bound for this P is (3 - 2*sqrt(2))/8.
    assert sel.bound_attractive == pytest.approx((3.0 - 2.0 * math.sqrt(2.0)) / 8.0, rel=1e-14)
    assert sel.alpha < sel.bound_attractive
    assert sel.alpha == pytest.approx(sel.bound_attractive, rel=1e-8)


def test_select_alpha_example3():
    lyap = pl.solve_lyapunov((-1.0, -4.0, -6.0, -4.0))
    sel = pl.select_alpha(lyap, 4, 10.0, phi=1e-3, phi0=0.0)
    assert sel.mode == "stable"
    assert sel.alpha == pytest.approx(ALPHA_EX3, rel=1e-12)
    assert sel.bound_stable is not None
    assert sel.alpha <= sel.bound_stable
    assert sel.alpha < sel.bound_attractive


def test_select_alpha_always_below_one_over_tau():
    lyap = pl.solve_lyapunov((-0.5,))
    # For c = (-0.5): P = 2, formula bound = 2/(4 + 4) = 0.25.
    sel_short = pl.select_alpha(lyap, 1, 2.0, phi0=1.0)
    assert sel_short.bound_attractive == pytest.approx(0.25)
    sel_long = pl.select_alpha(lyap, 1, 40.0, phi0=1.0)
    assert sel_long.bound_attractive == pytest.approx(1.0 / 40.0)
    for sel, tau in ((sel_short, 2.0), (sel_long, 40.0)):
        assert sel.alpha < sel.bound_attractive
        assert sel.alpha < 1.0 / tau


def test_select_alpha_validation():
    lyap = pl.solve_lyapunov((-1.0,))
    with pytest.raises(ValueError, match="tau must be positive"):
        pl.select_alpha(lyap, 1, math.nan)
    for field in ("phi", "phi0"):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                pl.select_alpha(lyap, 1, 10.0, **{field: bad})


def test_numeric_rows_validation():
    with pytest.raises(ValueError, match="alpha must be positive"):
        pl.numeric_rows((-1.0, -2.0), math.nan)


def test_first_order_bound_is_one_half():
    lyap = pl.solve_lyapunov((-1.0,))
    sel = pl.select_alpha(lyap, 1, 1.0, phi0=1.0)
    assert sel.bound_attractive == pytest.approx(0.5, rel=1e-15)


def test_explicit_alpha_validation():
    with pytest.raises(pl.InfeasibleDesignError):
        pl.design_controller((-1.0, -2.0), 10.0, alpha=0.05, phi0=50.0)
    with pytest.raises(pl.InfeasibleDesignError):
        pl.design_controller((-1.0, -2.0), 10.0, alpha=-0.01, phi0=50.0)
    design = pl.design_controller((-1.0, -2.0), 10.0, alpha=0.0214, phi0=50.0)
    assert design.mode == "attractive"


def test_explicit_alpha_stable_mode_classification():
    # With phi0 = 0 an explicit alpha at or below the stability bound
    # lands in stable mode; one above it only certifies attractivity.
    # A nonzero state-dependent disturbance gain pushes the stability
    # bound well below the attractivity bound, so both branches exist.
    lyap = pl.solve_lyapunov((-1.0, -2.0))
    sel = pl.select_alpha(lyap, 2, 10.0, phi=math.e, phi0=0.0)
    assert sel.bound_stable < sel.bound_attractive
    below = pl.design_controller(
        (-1.0, -2.0), 10.0, alpha=sel.bound_stable * 0.9, phi=math.e
    )
    assert below.mode == "stable"
    above = pl.design_controller(
        (-1.0, -2.0),
        10.0,
        alpha=(sel.bound_stable + sel.bound_attractive) / 2.0,
        phi=math.e,
    )
    assert above.mode == "attractive"


def test_design_controller_validation():
    with pytest.raises(ValueError):
        pl.design_controller((-1.0,), -1.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        pl.design_controller((-1.0,), math.nan)
    with pytest.raises(ValueError):
        pl.design_controller((-1.0,), 10.0, eps_guard_fraction=2.0)
    with pytest.raises(pl.InfeasibleDesignError):
        pl.design_controller((1.0, 1.0), 10.0)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="gamma_min must be positive and finite"):
            pl.design_controller((-1.0,), 10.0, gamma_min=bad, phi0=1.0)


def _pull_back(q, alpha, tau, t):
    """T^-1 (A T - dT/dt) / w in exact rationals, for the closed loop of
    f = 0, gamma = gamma_min and g = 1: x_k' = x_(k+1), and x_n' the gain
    law with the gains ``q``. T(t) = diag(w^k) C, C[k][j] = [k, j]
    alpha^(k - j) and w = 1/(alpha (tau - t)), so that dT/dt =
    diag(k alpha w^(k + 1)) C."""
    n = len(q)
    s = stirling_first(n)
    w = 1 / (alpha * (tau - t))
    c = [[s[k][j] * alpha ** (k - j) for j in range(n)] for k in range(n)]
    a = [[Fraction(j == k + 1) for j in range(n)] for k in range(n - 1)]
    a.append([q[i] / (tau - t) ** (n - i) for i in range(n)])
    r = [
        [(sum(a[k][m] * w**m * c[m][j] for m in range(n)) - k * alpha * w ** (k + 1) * c[k][j]) / w
         for j in range(n)]
        for k in range(n)
    ]
    # T is lower triangular with diagonal w^k: forward substitution.
    out = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for j in range(n):
            out[k][j] = (r[k][j] - sum(w**k * c[k][m] * out[m][j] for m in range(k))) / w**k
    return out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("spread", [0.0, 0.5], ids=["poles-at-1", "poles-apart"])
def test_gains_pull_back_to_the_companion_matrix(n, spread):
    # With x = T(t) y, the closed loop in the stretched clock is y' = E y,
    # E = companion(c): T^-1 (A T - dT/dt) / w = E at every t < tau.
    c = tuple(float(-v) for v in np.poly([-(1.0 + spread * k) for k in range(n)])[1:][::-1])
    design = pl.design_controller(c, 10.0, phi=1e-3)
    q = pl.build_gain_schedule(design).coefficients
    alpha, tau = Fraction(design.alpha), Fraction(design.tau)
    companion = [[Fraction(v) for v in row] for row in pl.companion_matrix(c)]
    # q as the gain structure gives it from the float c and alpha, with
    # no rounding, and a bound on the rounding of the float q: each term
    # coefficient * c_j / alpha**p passes through at most 4 units of
    # roundoff (pow within 1 ulp, one product, one quotient), and the sum
    # of m <= n terms adds m more, so |q_i - exact_i| <= gamma_(n + 4)
    # times the sum of the terms' magnitudes (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., 2002, 3.1 and 4.2).
    exact, size = [], []
    for row in pl.structural_rows(n):
        terms = [Fraction(term.coefficient) * Fraction(c[term.j - 1]) / alpha**term.alpha_power
                 for term in row.c_terms]
        exact.append(row.constant + sum(terms))
        size.append(abs(row.constant) + sum(map(abs, terms)))
    unit = Fraction(1, 2**53)
    gamma = (n + 4) * unit / (1 - (n + 4) * unit)
    # An error dq_i in q moves only the last row, by
    # sum_i dq_i alpha^(n - i) [i, j] alpha^(i - j), whatever t is.
    s = stirling_first(n)
    bound = [sum(gamma * size[i] * alpha ** (n - j) * s[i][j] for i in range(n))
             for j in range(n)]
    for t in (Fraction(0), tau / 4, tau / 2, tau * 9 / 10):
        assert _pull_back(exact, alpha, tau, t) == companion
        got = _pull_back([Fraction(v) for v in q], alpha, tau, t)
        assert got[:-1] == companion[:-1]
        for j in range(n):
            assert abs(got[-1][j] - companion[-1][j]) <= bound[j], (t, j)

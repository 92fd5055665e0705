"""Prescribed-time controller design: time-scale rate selection and gains.

The controller steers a chain of ``n`` integrators with a matched
uncertainty to zero by a user-chosen deadline ``tau``. It has the form

    u(x, t) = pi(x, t, tau) / (gamma_min * g(t))

where ``pi`` is linear in the state with time-varying gains

    pi(x, t, tau) = sum_i p_i(t, tau) * x_i,
    p_i(t, tau) = q_i / (tau - t)**(n - i + 1).

The scalar ``q_i`` combines the user coefficients ``c_j``, inverse powers
of the time-scale rate ``alpha``, and Stirling numbers of the second kind;
it is independent of ``t``, so each gain is a fixed scalar over a blowing
up power of the remaining time. This module computes those scalars
exactly, selects ``alpha`` from the Lyapunov certificate of the companion
matrix of ``c``, and evaluates the control input with a singularity guard
near ``t = tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .combinatorics import CombinatoricsTable, _default_table
from .errors import AssumptionViolationError, InfeasibleDesignError, SingularityError
from .linalg import LyapunovSolution, solve_lyapunov

__all__ = [
    "GainTerm",
    "GainRow",
    "GainSchedule",
    "AlphaSelection",
    "ControllerDesign",
    "structural_rows",
    "build_gain_schedule",
    "symbolic_rows",
    "numeric_rows",
    "select_alpha",
    "design_controller",
    "control_input",
]

# Relative shave applied to strict upper bounds so the selected alpha, and
# the guard-band comparison in control_input, sit strictly inside them.
STRICTNESS_DELTA = 1e-9


@dataclass(frozen=True)
class GainTerm:
    """One ``c_j`` contribution to a state's gain scalar.

    The contribution is ``coefficient * c_j / alpha**alpha_power`` with an
    exact integer ``coefficient`` (a signed Stirling number of the second
    kind).
    """

    j: int
    coefficient: int
    alpha_power: int


@dataclass(frozen=True)
class GainRow:
    """Exact structure of the gain on one state.

    The gain is ``p_state = q / (tau - t)**power`` with

        q = sum over c_terms of coefficient * c_j / alpha**alpha_power
            + constant

    where ``constant`` is the signed second-kind Stirling number
    ``(-1)**(n - state) * {n, state - 1}`` for ``state >= 2`` and zero for
    the first state.
    """

    state: int
    power: int
    c_terms: tuple[GainTerm, ...]
    constant: int


@lru_cache(maxsize=None)
def structural_rows(n: int) -> tuple[GainRow, ...]:
    """Exact, coefficient-independent gain structure for order ``n``.

    Row ``i`` collects every term of the double-sum form of ``pi`` that
    multiplies ``x_i``; they all share the power ``n - i + 1`` of
    ``(tau - t)``, so the collapse to a single scalar per state is exact.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    tab = _default_table() if n <= 20 else CombinatoricsTable.build(n)
    rows = []
    for i in range(1, n + 1):
        terms = tuple(
            GainTerm(
                j=j,
                coefficient=(-1) ** (j - i) * tab.stirling_second(j - 1, i - 1),
                alpha_power=n - j + 1,
            )
            for j in range(i, n + 1)
            if tab.stirling_second(j - 1, i - 1) != 0
        )
        constant = (-1) ** (n - i) * tab.stirling_second(n, i - 1) if i >= 2 else 0
        rows.append(GainRow(state=i, power=n - i + 1, c_terms=terms, constant=constant))
    return tuple(rows)


@dataclass(frozen=True)
class GainSchedule:
    """Per-state gain scalars for one concrete design.

    Attributes
    ----------
    n : int
        State dimension.
    rows : tuple of GainRow
        Exact integer structure, independent of ``c`` and ``alpha``.
    coefficients : tuple of float
        Numeric scalars ``q_1 .. q_n`` for the design's ``c`` and
        ``alpha``; gain on state ``i`` is
        ``coefficients[i-1] / (tau - t)**(n - i + 1)``.
    """

    n: int
    rows: tuple[GainRow, ...]
    coefficients: tuple[float, ...]

    def evaluate(self, x: Sequence[float], t: float, tau: float) -> float:
        """Evaluate ``pi(x, t, tau)`` by the collapsed per-state form."""
        if len(x) != self.n:
            raise ValueError(f"state has length {len(x)}, expected {self.n}")
        d = tau - t
        if d <= 0.0:
            raise SingularityError(
                f"gain evaluation requires t < tau, got t={t}, tau={tau}"
            )
        acc = 0.0
        pw = d
        for i in range(self.n - 1, -1, -1):
            acc += self.coefficients[i] * float(x[i]) / pw
            pw *= d
        return acc


def _numeric_coefficients(
    rows: tuple[GainRow, ...], c: tuple[float, ...], alpha: float
) -> tuple[float, ...]:
    """The scalars ``q_i`` for ``c`` and ``alpha``.

    Raises InfeasibleDesignError when one is not a finite float: a rate
    so small (or large) that a power of it leaves the float range.
    """
    out = []
    for row in rows:
        q = float(row.constant)
        try:
            for term in row.c_terms:
                q += term.coefficient * c[term.j - 1] / alpha ** term.alpha_power
        except ArithmeticError:  # alpha ** power underflowed to 0 or overflowed
            q = math.nan
        if not math.isfinite(q):
            raise InfeasibleDesignError(
                f"c={c} and alpha={alpha} put gain coefficient q{row.state} "
                "beyond the float range"
            )
        out.append(q)
    return tuple(out)


def _render_row(row: GainRow) -> str:
    pieces: list[tuple[int, str]] = []
    for term in row.c_terms:
        body = f"c{term.j}/alpha"
        if term.alpha_power != 1:
            body += f"^{term.alpha_power}"
        if abs(term.coefficient) != 1:
            body = f"{abs(term.coefficient)}*{body}"
        pieces.append((term.coefficient, body))
    if row.constant != 0:
        pieces.append((row.constant, str(abs(row.constant))))
    denom = "(tau - t)"
    if row.power != 1:
        denom += f"^{row.power}"
    if len(pieces) == 1 and row.constant == 0 and abs(row.c_terms[0].coefficient) == 1:
        term = row.c_terms[0]
        alpha_part = "alpha" if term.alpha_power == 1 else f"alpha^{term.alpha_power}"
        sign = "-" if term.coefficient < 0 else ""
        return f"p{row.state} = {sign}c{term.j}/({alpha_part}*{denom})"
    joined = ""
    for k, (sign_val, body) in enumerate(pieces):
        if k == 0:
            joined = ("-" if sign_val < 0 else "") + body
        else:
            joined += (" - " if sign_val < 0 else " + ") + body
    return f"p{row.state} = ({joined})/{denom}"


def symbolic_rows(n: int) -> tuple[str, ...]:
    """Human-readable gain rows in ``c_j``, ``alpha``, and ``tau - t``.

    For a fourth-order design this reproduces the standard four-row gain
    table, e.g. ``p3 = (c3/alpha^2 - 3*c4/alpha - 7)/(tau - t)^2``.
    """
    return tuple(_render_row(row) for row in structural_rows(n))


def numeric_rows(
    c: Sequence[float], alpha: float
) -> tuple[tuple[float, int], ...]:
    """Numeric gain scalars ``(q_i, power)`` for given ``c`` and ``alpha``.

    Intended for table display; unlike :func:`design_controller` this does
    not require ``c`` to be Hurwitz or ``alpha`` to satisfy its bounds.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    coeffs = tuple(float(v) for v in c)
    rows = structural_rows(len(coeffs))
    values = _numeric_coefficients(rows, coeffs, float(alpha))
    return tuple((q, row.power) for q, row in zip(values, rows))


@dataclass(frozen=True)
class AlphaSelection:
    """Outcome of the time-scale rate selection.

    ``bound_attractive`` is the strict upper bound every design must
    satisfy; ``bound_stable`` is the additional non-strict bound available
    only when the disturbance has no constant offset (``phi0 == 0``) and is
    ``None`` otherwise.
    """

    alpha: float
    mode: str
    bound_attractive: float
    bound_stable: float | None


def select_alpha(
    lyap: LyapunovSolution,
    n: int,
    tau: float,
    phi: float = 0.0,
    phi0: float = 0.0,
) -> AlphaSelection:
    """Select the largest feasible time-scale rate ``alpha``.

    The attractivity bound is

        bound_attractive = min( lam_min / (n * lam_max * lam_min
                                           + n! * lam_max**2),  1 / tau )

    and is strict, so the selected value is shaved by a relative 1e-9.
    With ``phi0 == 0`` the stronger stability bound

        bound_stable = lam_min / (lam_min + n! * lam_max**2 * (tau*phi + 1))

    also applies (non-strict) and the selection is the smaller of the two;
    the design is then in ``stable`` mode. With ``phi0 > 0`` only
    attractivity can be certified and ``phi`` does not enter the selection.
    A ``lam_max**2`` beyond the float range raises InfeasibleDesignError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    for name, value in (("phi", phi), ("phi0", phi0)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    lam_min = lyap.lambda_min
    lam_max = lyap.lambda_max
    nfac = math.factorial(n)
    try:
        lam_max_sq = lam_max ** 2
    except OverflowError as exc:
        raise InfeasibleDesignError(
            f"lambda_max(P)={lam_max:.3e} is too large for the rate bounds; "
            "rescale c"
        ) from exc
    bound_attractive = min(
        lam_min / (n * lam_max * lam_min + nfac * lam_max_sq), 1.0 / tau
    )
    if phi0 == 0.0:
        bound_stable = lam_min / (lam_min + nfac * lam_max_sq * (tau * phi + 1.0))
        alpha = min(bound_attractive * (1.0 - STRICTNESS_DELTA), bound_stable)
        return AlphaSelection(
            alpha=alpha,
            mode="stable",
            bound_attractive=bound_attractive,
            bound_stable=bound_stable,
        )
    alpha = bound_attractive * (1.0 - STRICTNESS_DELTA)
    return AlphaSelection(
        alpha=alpha,
        mode="attractive",
        bound_attractive=bound_attractive,
        bound_stable=None,
    )


@dataclass(frozen=True)
class ControllerDesign:
    """A fully determined controller: coefficients, rate, and certificate.

    ``mode`` records what the design can promise: ``"stable"`` when the
    trajectory bound holds from ``t = 0`` (requires ``phi0 == 0`` and
    ``alpha <= bound_stable``), ``"attractive"`` when the bound is only
    guaranteed from some onset time. ``eps_guard`` is the width of the
    terminal band ``[tau - eps_guard, tau]`` inside which the gains are
    never evaluated.
    """

    n: int
    c: tuple[float, ...]
    tau: float
    alpha: float
    mode: str
    bound_attractive: float
    bound_stable: float | None
    lyapunov: LyapunovSolution
    gamma_min: float
    eps_guard: float

    def __post_init__(self) -> None:
        if self.mode not in ("attractive", "stable"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.alpha < self.bound_attractive:
            raise InfeasibleDesignError(
                f"alpha={self.alpha} outside (0, {self.bound_attractive}); "
                "the attractivity bound is strict"
            )
        if self.mode == "stable":
            if self.bound_stable is None or self.alpha > self.bound_stable:
                raise InfeasibleDesignError(
                    f"stable mode requires alpha <= {self.bound_stable}, "
                    f"got {self.alpha}"
                )
        if self.gamma_min <= 0:
            raise ValueError(f"gamma_min must be positive, got {self.gamma_min}")
        if not 0.0 < self.eps_guard < self.tau:
            raise ValueError(
                f"eps_guard must lie in (0, tau), got {self.eps_guard}"
            )


def design_controller(
    c: Sequence[float],
    tau: float,
    *,
    alpha: float | None = None,
    phi: float = 0.0,
    phi0: float = 0.0,
    gamma_min: float = 1.0,
    eps_guard_fraction: float = 1e-3,
) -> ControllerDesign:
    """Build a controller design from coefficients and a deadline.

    Parameters
    ----------
    c : sequence of float
        Companion coefficients; must place all roots of the associated
        polynomial strictly in the left half plane.
    tau : float
        Deadline, positive.
    alpha : float, optional
        Explicit time-scale rate. When omitted the largest feasible rate
        is selected automatically. An explicit rate must still satisfy the
        strict attractivity bound.
    phi, phi0 : float
        Declared disturbance envelope ``|f| <= phi*||x|| + phi0``. Only
        their role in rate selection matters here; the plant is audited
        against them during simulation.
    gamma_min : float
        Known lower bound on the input-gain uncertainty, positive.
    eps_guard_fraction : float
        Terminal guard band width as a fraction of ``tau``.

    Raises
    ------
    InfeasibleDesignError
        If ``c`` is not Hurwitz, the requested ``alpha`` violates its
        bound, or the chosen rate puts a gain coefficient ``q_i`` beyond
        the float range.
    """
    coeffs = tuple(float(v) for v in c)
    n = len(coeffs)
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0.0 < eps_guard_fraction < 1.0:
        raise ValueError(
            f"eps_guard_fraction must lie in (0, 1), got {eps_guard_fraction}"
        )
    lyap = solve_lyapunov(coeffs)
    selection = select_alpha(lyap, n, tau, phi=phi, phi0=phi0)
    if alpha is None:
        chosen = selection.alpha
        mode = selection.mode
    else:
        chosen = float(alpha)
        if not 0.0 < chosen < selection.bound_attractive:
            raise InfeasibleDesignError(
                f"explicit alpha={chosen} violates the strict attractivity "
                f"bound {selection.bound_attractive}"
            )
        if selection.bound_stable is not None and chosen <= selection.bound_stable:
            mode = "stable"
        else:
            mode = "attractive"
    # The same check build_gain_schedule makes, so a design whose gains
    # cannot be evaluated is refused here and not only at simulation.
    _numeric_coefficients(structural_rows(n), coeffs, chosen)
    return ControllerDesign(
        n=n,
        c=coeffs,
        tau=tau,
        alpha=chosen,
        mode=mode,
        bound_attractive=selection.bound_attractive,
        bound_stable=selection.bound_stable,
        lyapunov=lyap,
        gamma_min=gamma_min,
        eps_guard=eps_guard_fraction * tau,
    )


def build_gain_schedule(design: ControllerDesign) -> GainSchedule:
    """Collapse the controller's double-sum form into per-state scalars."""
    rows = structural_rows(design.n)
    return GainSchedule(
        n=design.n,
        rows=rows,
        coefficients=_numeric_coefficients(rows, design.c, design.alpha),
    )


def control_input(
    design: ControllerDesign,
    schedule: GainSchedule,
    x: Sequence[float],
    t: float,
    g_t: float,
) -> float:
    """Control input ``u = pi(x, t, tau) / (gamma_min * g(t))``.

    Raises
    ------
    SingularityError
        If ``t`` lies inside the terminal guard band. The comparison
        allows ``tau - t`` equal to the guard width to within a relative
        1e-9 so the final step of a simulation that halts exactly at the
        band edge is evaluable.
    AssumptionViolationError
        If ``g_t`` is zero; the plant contract requires a nonzero input
        gain at all times.
    """
    if design.tau - t < design.eps_guard * (1.0 - STRICTNESS_DELTA):
        raise SingularityError(
            f"t={t} is inside the terminal guard band "
            f"[{design.tau - design.eps_guard}, {design.tau}]"
        )
    if g_t == 0.0:
        raise AssumptionViolationError("input gain g(t) must be nonzero")
    return schedule.evaluate(x, t, design.tau) / (design.gamma_min * g_t)

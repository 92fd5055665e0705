"""Closed-loop integration of a plant under the prescribed-time controller.

The loop runs classical fixed-stage RK4 from t = 0 to t = tau*(1 - eps)
with a step that shrinks geometrically near the deadline. Three caps act
on every step:

    h = min(dt_base, (tau - t)/shrink_divisor,
            stiffness_safety * alpha * (tau - t), t_end - t)

The first two follow the gain growth of the controller; the third keeps
RK4 inside its stability region, because the closed-loop poles scale like
-1/(alpha*(tau - t)) and for small alpha the plain (tau - t)/shrink cap
leaves h*|pole| far above the RK4 stability limit. The disturbance
envelope declared by the plant is audited at every step start.

A step has three distinct stage times, t, t + h/2 (stages 2 and 3) and
t + h, and the powers of (tau - t) and the input gain g(t) are computed
once for each; the values at t + h serve the next step's first stage.

Once the controller has driven the state to exactly +0.0 in every
component, a step whose first-stage derivative is 0.0 is a rest step: all
four stage states are +0.0, stages 2 and 3 coincide, and the step leaves
the state unchanged. The loop then calls f once at t + h/2 and once at
t + h instead of running four stages, and leaves rest, by taking the
general step, as soon as a derivative is nonzero. Both paths produce the
same bits. The plant's g must therefore be a pure function of t, and f a
pure function of (x, u, t) that does not mutate x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .controller import ControllerDesign, build_gain_schedule, design_controller
from .errors import DivergenceError
from .linalg import _readonly
from .plant import PlantSpec, check_assumption

__all__ = ["SimConfig", "SimTrace", "run", "sweep"]

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one run.

    ``divergence_threshold`` bounds any recorded |x_i| or |u|; crossing it
    aborts with the partial trace. Near-singularity gains are enormous by
    design (the input scales like (tau - t)**-n), so the default admits
    the large but finite transients of healthy runs and still catches
    genuine blow-up.
    """

    x0: tuple[float, ...]
    dt_base: float = 0.01
    epsilon_fraction: float = 1e-3
    shrink_divisor: float = 50.0
    stiffness_safety: float = 1.0
    record_stride: int = 1
    divergence_threshold: float = 1e18

    def __post_init__(self) -> None:
        if len(self.x0) < 1:
            raise ValueError("x0 must be non-empty")
        # "not > 0" also rejects NaN, which fails every comparison.
        if not self.dt_base > 0:
            raise ValueError(f"dt_base must be positive, got {self.dt_base}")
        if not 0.0 < self.epsilon_fraction < 1.0:
            raise ValueError(
                f"epsilon_fraction must lie in (0, 1), got {self.epsilon_fraction}"
            )
        if not self.shrink_divisor > 0:
            raise ValueError(
                f"shrink_divisor must be positive, got {self.shrink_divisor}"
            )
        if not self.stiffness_safety > 0:
            raise ValueError(
                f"stiffness_safety must be positive, got {self.stiffness_safety}"
            )
        if self.record_stride < 1:
            raise ValueError(
                f"record_stride must be >= 1, got {self.record_stride}"
            )
        if not self.divergence_threshold > 0:
            raise ValueError(
                f"divergence_threshold must be positive, got "
                f"{self.divergence_threshold}"
            )


@dataclass(frozen=True)
class SimTrace:
    """Recorded samples of one closed-loop run.

    ``norms`` and ``lambda_values`` are the certification inputs
    ``||x(t_k)||`` and ``max(1 - t_k/tau, 0)`` per recorded sample.
    ``metadata`` freezes the design, plant, and config fingerprints the
    analysis and CLI layers need; it never contains wall-clock times.
    """

    times: FloatArray
    states: FloatArray
    inputs: FloatArray
    norms: FloatArray
    lambda_values: FloatArray
    metadata: Mapping[str, object]

    def __post_init__(self) -> None:
        m = self.times.shape[0]
        if self.states.shape[0] != m or self.inputs.shape[0] != m:
            raise ValueError("trace arrays must have equal length")
        if self.norms.shape[0] != m or self.lambda_values.shape[0] != m:
            raise ValueError("trace arrays must have equal length")
        if m == 0:
            raise ValueError("trace must contain at least one sample")
        if m > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trace times must be strictly increasing")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("recorded inputs must be finite")


def _build_trace(
    times: list[float],
    states: list[tuple[float, ...]],
    inputs: list[float],
    tau: float,
    metadata: dict[str, object],
) -> SimTrace:
    t_arr = np.asarray(times, dtype=np.float64)
    x_arr = np.asarray(states, dtype=np.float64)
    u_arr = np.asarray(inputs, dtype=np.float64)
    norms = np.sqrt(np.sum(x_arr * x_arr, axis=1))
    lam = np.maximum(1.0 - t_arr / tau, 0.0)
    return SimTrace(
        times=_readonly(t_arr),
        states=_readonly(x_arr),
        inputs=_readonly(u_arr),
        norms=_readonly(norms),
        lambda_values=_readonly(lam),
        metadata=MappingProxyType(metadata),
    )


def _positive_zero(x: list[float]) -> bool:
    """Every component is +0.0; a -0.0 keeps the step on the general path."""
    return all(v == 0.0 and math.copysign(1.0, v) > 0.0 for v in x)


def run(plant: PlantSpec, design: ControllerDesign, cfg: SimConfig) -> SimTrace:
    """Integrate the closed loop and return the recorded trace.

    Raises
    ------
    DivergenceError
        If any state component or the input leaves the finite box
        ``|v| <= divergence_threshold``, or if plant or gain arithmetic
        fails (an ``ArithmeticError`` such as a ``g(t)`` of exactly 0 or
        an overflow in ``f``); the partial trace recorded so far is
        attached to the exception.
    AssumptionViolationError
        If the plant's declared disturbance envelope fails along the
        trajectory.
    ValueError
        On dimension mismatches or a design whose guard band extends past
        the halt time ``tau * (1 - epsilon_fraction)``.
    """
    n = plant.n
    if design.n != n:
        raise ValueError(f"plant order {n} != design order {design.n}")
    if len(cfg.x0) != n:
        raise ValueError(f"x0 has length {len(cfg.x0)}, expected {n}")
    tau = design.tau
    t_end = tau * (1.0 - cfg.epsilon_fraction)
    if design.eps_guard > cfg.epsilon_fraction * tau * (1.0 + 1e-9):
        raise ValueError(
            "design guard band is wider than the simulation's terminal gap; "
            f"eps_guard={design.eps_guard}, halt gap={cfg.epsilon_fraction * tau}"
        )

    schedule = build_gain_schedule(design)
    q = list(schedule.coefficients)
    # Term i of the gain sum divides by (tau - t)**(n - i); the sum runs
    # from i = n - 1 down to 0, the order every trace was produced with.
    order = range(n - 1, -1, -1)
    higher = order[1:]
    gamma_min = design.gamma_min
    gamma = plant.gamma
    g = plant.g
    f = plant.f
    threshold = cfg.divergence_threshold
    stride = cfg.record_stride

    def at(s: float, gs: float) -> tuple[list[float], float, float]:
        """Factors shared by the stages at time s, given ``gs = g(s)``: the
        powers of tau - s indexed like q, ``gamma_min * gs`` and
        ``gamma * gs``."""
        d = tau - s
        pows = [d] * n
        pw = d
        for i in higher:
            pw *= d
            pows[i] = pw
        return pows, gamma_min * gs, gamma * gs

    def stage(
        x: list[float], s: float, factors: tuple[list[float], float, float]
    ) -> tuple[list[float], float, float]:
        pows, den, gain = factors
        # Starting from 0.0 keeps u = +0.0 when every term is -0.0.
        acc = 0.0
        for i in order:
            acc += q[i] * x[i] / pows[i]
        u = acc / den
        fx = f(x, u, s)
        k = x[1:]
        k.append(fx + gain * u)
        return k, u, fx

    # From the state +0.0 a stage sums only zeros, so acc = +0.0 and
    # u = 0.0 / den, when every q is finite (build_gain_schedule ensures
    # it) and no power of tau - s is 0. The stage times of a step that is
    # not clamped lie at or before t_end, and the powers shrink with
    # tau - s, so the powers at t_end settle that for the whole run
    # (pows[0] is the n-th power, the smallest when tau - t_end < 1).
    can_rest = at(t_end, 1.0)[0][0] != 0.0

    def rest_stage(s: float, gs: float) -> tuple[float, float] | None:
        """``(u, k_n)`` of a stage at s, given ``gs = g(s)``, whose state
        is +0.0 when its derivative k_n is 0.0, else None. A zero divisor
        raises the same ZeroDivisionError in the same step as the general
        stage's ``acc / den``."""
        u = 0.0 / (gamma_min * gs)
        k = f([0.0] * n, u, s) + gamma * gs * u
        return (u, k) if k == 0.0 else None

    times: list[float] = []
    states: list[tuple[float, ...]] = []
    inputs: list[float] = []
    t = 0.0

    def partial() -> SimTrace | None:
        if not times:
            return None
        return _build_trace(times, states, inputs, tau, metadata)

    x = [float(v) for v in cfg.x0]
    step_index = 0
    u_max = 0.0
    x_max = 0.0
    stiff_cap = cfg.stiffness_safety * design.alpha
    dt_base = cfg.dt_base
    shrink_divisor = cfg.shrink_divisor
    stop = t_end - 1e-12 * tau

    try:
        # Inside the guard: the norm of a huge x0 overflows.
        metadata: dict[str, object] = {
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
        now = at(t, g(t))
        # While the state rests at +0.0, k_rest holds the last component of
        # the step's first-stage derivative (the others are x[1:], all
        # +0.0); it is None whenever the step takes the general path.
        k_rest: float | None = None
        while True:
            # The loop ends with one last sample at t_end, after the final
            # step or once the next step start falls within roundoff of it.
            last = not t < stop
            if last:
                t = t_end
                now = at(t, g(t))
                k_rest = None
            # A resting step skips the divergence check and the envelope
            # audit, which both pass: x = +0.0 and u = +-0.0, so |v| = 0 <=
            # threshold; k_n = f + gain*u == 0.0 with gain*u either +-0.0
            # or NaN forces f = 0.0, so |f| = 0 <= phi*0 + phi0 +
            # AUDIT_SLACK; and neither peak can grow from 0.
            if k_rest is None:
                k1, u1, f1 = stage(x, t, now)
                amp = max(map(abs, x))
                # "not <=" also catches NaN, which fails every comparison.
                if not (amp <= threshold) or not (abs(u1) <= threshold):
                    raise DivergenceError(
                        f"state or input left |v| <= {threshold:.3g} at "
                        f"t={t:.6g} (|x|max={amp:.3g}, |u|={abs(u1):.3g})",
                        trace=partial(),
                    )
                check_assumption(plant, x, u1, t, f_value=f1)
                if amp > x_max:
                    x_max = amp
                if abs(u1) > u_max:
                    u_max = abs(u1)
                if k1[-1] == 0.0 and can_rest and _positive_zero(x):
                    k_rest = k1[-1]
            if last or step_index % stride == 0:
                times.append(t)
                states.append(tuple(x))
                inputs.append(u1)
            if last:
                break

            d = tau - t
            h = min(dt_base, d / shrink_divisor, stiff_cap * d)
            clamped = h >= t_end - t
            if clamped:
                h = t_end - t
            half = 0.5 * h
            t_mid = t + half
            t_next = t + h
            g_mid = g(t_mid)
            g_next = g(t_next)
            if k_rest is not None:
                # From rest, stages 2 and 3 are the same call and stage 4's
                # values at t_next are the next step's first stage. A
                # clamped step ends the loop, which evaluates t_end afresh.
                rest = None if clamped else (
                    rest_stage(t_mid, g_mid) and rest_stage(t_next, g_next)
                )
                if rest is not None:
                    u1, k_rest = rest
                    t = t_next
                    step_index += 1
                    continue
                k1 = x[1:]
                k1.append(k_rest)
                k_rest = None
            mid = at(t_mid, g_mid)
            now = at(t_next, g_next)
            k2 = stage([xi + half * ki for xi, ki in zip(x, k1)], t_mid, mid)[0]
            k3 = stage([xi + half * ki for xi, ki in zip(x, k2)], t_mid, mid)[0]
            k4 = stage([xi + h * ki for xi, ki in zip(x, k3)], t_next, now)[0]
            sixth = h / 6.0
            x = [
                xi + sixth * (a + 2.0 * (b + c) + e)
                for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
            ]
            # A clamped step lands on t_end and ends the loop, which then
            # evaluates t_end afresh; otherwise now already holds t_next.
            t = t_end if clamped else t_next
            step_index += 1
    except ArithmeticError as exc:
        raise DivergenceError(
            f"plant or control arithmetic failed at t={t:.6g}: "
            f"{type(exc).__name__}: {exc}",
            trace=partial(),
        ) from exc

    metadata["steps_total"] = step_index
    metadata["u_max"] = u_max
    metadata["x_max"] = x_max
    return _build_trace(times, states, inputs, tau, metadata)


def sweep(
    plant: PlantSpec,
    c: Sequence[float],
    taus: Sequence[float],
    cfg: SimConfig,
    *,
    alpha: float | None = None,
) -> list[SimTrace]:
    """Run one simulation per deadline with a shared design template.

    Every run uses the same coefficients, initial state, and plant
    (including its frozen random draws); only ``tau`` varies. Runs execute
    one after another and results keep the input order.
    """
    designs = [
        plant_design(plant, c, float(tau), alpha, cfg.epsilon_fraction)
        for tau in taus
    ]
    return [run(plant, d, cfg) for d in designs]


def plant_design(
    plant: PlantSpec,
    c: Sequence[float],
    tau: float,
    alpha: float | None,
    epsilon_fraction: float,
) -> ControllerDesign:
    """The design for ``plant`` at one deadline: its envelope and input-gain
    bound enter the rate selection, and the guard band is the halt gap."""
    return design_controller(
        c,
        tau,
        alpha=alpha,
        phi=plant.phi,
        phi0=plant.phi0,
        gamma_min=plant.gamma_min,
        eps_guard_fraction=epsilon_fraction,
    )

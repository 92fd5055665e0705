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
The plant's g must therefore be a pure function of t.
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

    def at(s: float) -> tuple[list[float], float, float]:
        """Factors shared by the stages at time s: the powers of tau - s
        indexed like q, ``gamma_min * g(s)`` and ``gamma * g(s)``."""
        d = tau - s
        pows = [d] * n
        pw = d
        for i in higher:
            pw *= d
            pows[i] = pw
        gs = g(s)
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
        now = at(t)
        while True:
            # The loop ends with one last sample at t_end, after the final
            # step or once the next step start falls within roundoff of it.
            last = not t < stop
            if last:
                t = t_end
                now = at(t)
            k1, u1, f1 = stage(x, t, now)
            amp = max(map(abs, x))
            # "not <=" also catches NaN, which fails every comparison.
            if not (amp <= threshold) or not (abs(u1) <= threshold):
                raise DivergenceError(
                    f"state or input left |v| <= {threshold:.3g} at t={t:.6g} "
                    f"(|x|max={amp:.3g}, |u|={abs(u1):.3g})",
                    trace=partial(),
                )
            check_assumption(plant, x, u1, t, f_value=f1)
            if amp > x_max:
                x_max = amp
            if abs(u1) > u_max:
                u_max = abs(u1)
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
            mid = at(t_mid)
            now = at(t_next)
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

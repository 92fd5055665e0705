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
t + h. The input gain g is called once for each, and g(t + h) serves the
next step's first stage. The plant's g must be a pure function of t, and
f a pure function of (x, u, t) that does not mutate x.

When the plant's f and g are callables this package built (the builtin
plants and expression plants), the whole loop runs in C, in one call of
``native.integrate``, which interprets their programs. It repeats the
Python loop's IEEE operations in the same order, envelope audit
included, so its trace and metadata are bitwise the same. It also has a
rest rule the Python loop lacks: once the state is exactly +0.0 in every
component, a step evaluates its coinciding stages once and produces the
bits of the general step with two f calls instead of four (``native.c``
gives the proof); when neither f nor g reads t, the rest steps that
follow it repeat it and only advance the clock. A step whose state has
every component below 2^-600, and one nonzero, runs in hardware doubles
on the state times 2^1074, where subnormals are integers, and rounds
each product and quotient once more to the integers, as the subnormal
range rounds: the same bits, without the hardware's slow path for
subnormal operands and results, in which never-resting runs of
``example3`` spend most of their steps. Such a step is the RK4 step of
every other step, written once in ``native.c`` for both kinds, whatever
f is: ``example3``'s weighted sum runs on the grid without the
interpreter, and any other f runs its program on the stage state and u
brought back, so only its own operations take the slow path. A g that
reads neither t nor the state is evaluated once per run, and where
``stiffness_safety * alpha * shrink_divisor <= 1`` the step size skips
the shrink cap's division, whose result could never be the smaller
(``native.c`` gives the proof). Wherever the Python loop would
raise, and when its row buffer (sized by ``_row_capacity``) is full, it
hands the run back and the Python loop runs it from t = 0, so
exceptions, messages and partial traces are the Python loop's own.

The Python loop is plain RK4, which the C loop repeats, and the
fallback: it runs plants with other callables (such as a
``functools.wraps`` wrapper), runs on machines without gcc, and reruns
whatever the C loop hands back.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from . import native
from .controller import ControllerDesign, build_gain_schedule, design_controller
from .errors import DivergenceError
from .linalg import _readonly
from .plant import AUDIT_SLACK, PlantSpec, check_assumption

__all__ = ["SimConfig", "SimTrace", "triangular_fn", "run", "sweep"]

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
        if any(_finite(v) is None for v in self.x0):
            raise ValueError(f"x0 must contain finite numbers only, got {self.x0}")
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
        # An integer, such as a numpy integer, but not a bool or 2.0.
        if isinstance(self.record_stride, bool) or not isinstance(
            self.record_stride, numbers.Integral
        ):
            raise ValueError(
                f"record_stride must be an integer, got {self.record_stride!r}"
            )
        if self.record_stride < 1:
            raise ValueError(
                f"record_stride must be >= 1, got {self.record_stride}"
            )
        if _finite(self.divergence_threshold) is None or self.divergence_threshold <= 0:
            raise ValueError(
                f"divergence_threshold must be finite and positive, got "
                f"{self.divergence_threshold}"
            )


def _finite(v) -> float | None:
    """``v`` as a float when it is a finite real number (such as an int, a
    float or a numpy scalar, not a bool), else None: the rule for scenario,
    sidecar, flag and run values."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return x if math.isfinite(x) else None


def triangular_fn(s: FloatArray | float) -> FloatArray | float:
    """Triangular envelope ``Lambda(s) = max(1 - s, 0)``, elementwise."""
    return np.maximum(1.0 - s, 0.0)


@dataclass(frozen=True)
class SimTrace:
    """The record of one closed-loop run: its samples and metadata.

    ``times``, ``states`` (one row per sample) and ``inputs`` are stored as
    read-only float64 arrays. ``metadata`` must hold a finite ``tau > 0``
    and a finite ``x0_norm >= 0``; it freezes the design, plant, and config
    fingerprints the analysis and CLI layers need, and never contains
    wall-clock times. The certification inputs are derived, never passed:
    ``norms`` is ``||x(t_k)||`` and ``lambda_values`` is ``Lambda(t_k/tau)``
    per sample.
    """

    times: FloatArray
    states: FloatArray
    inputs: FloatArray
    metadata: Mapping[str, object]
    norms: FloatArray = field(init=False)
    lambda_values: FloatArray = field(init=False)

    def __post_init__(self) -> None:
        times = _readonly(self.times)
        states = _readonly(self.states)
        inputs = _readonly(self.inputs)
        metadata = MappingProxyType(dict(self.metadata))
        m = times.shape[0]
        if m == 0:
            raise ValueError("trace must contain at least one sample")
        if states.ndim != 2 or states.shape[0] != m or inputs.shape != (m,):
            raise ValueError("trace arrays must have equal length")
        if m > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("trace times must be strictly increasing")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("recorded inputs must be finite")
        tau = _finite(metadata.get("tau"))
        if tau is None or not tau > 0:
            raise ValueError(
                f"trace metadata tau must be finite and > 0, got {metadata.get('tau')!r}"
            )
        x0_norm = _finite(metadata.get("x0_norm"))
        if x0_norm is None or x0_norm < 0:
            raise ValueError(
                f"trace metadata x0_norm must be finite and >= 0, "
                f"got {metadata.get('x0_norm')!r}"
            )
        # Beyond the float range a norm is inf and t/tau gives Lambda = 0.
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.sum(states * states, axis=1))
            lam = triangular_fn(times / tau)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "metadata", metadata)
        object.__setattr__(self, "norms", _readonly(norms))
        object.__setattr__(self, "lambda_values", _readonly(lam))


# Runs the step rule predicts to need more steps than this are refused: at
# a few microseconds a step, 10**8 steps already take minutes.
MAX_STEPS = 10**8


def _predicted_steps(tau: float, alpha: float, cfg: SimConfig) -> float:
    """The number of steps ``run`` takes, from the closed form of its caps.

    With ``r = min(1/shrink_divisor, stiffness_safety*alpha)`` a step is
    ``min(dt_base, r*(tau - t))``. While ``dt_base`` binds the count grows
    linearly in t; below the gap ``d1 = dt_base/r`` each step shrinks the
    gap by the factor ``1 - r`` until it reaches ``epsilon_fraction*tau``.
    """
    r = min(1.0 / cfg.shrink_divisor, cfg.stiffness_safety * alpha)
    if r == 0.0:  # the product underflowed: every step has h = 0
        return math.inf
    # The smallest positive float stands in for a gap that underflows.
    gap = max(cfg.epsilon_fraction * tau, math.ulp(0.0))
    d1 = min(cfg.dt_base / r, tau)
    if d1 <= gap:
        return (tau - gap) / cfg.dt_base
    # r >= 1: the first relative step overshoots and is clamped to t_end.
    shrink = math.log(d1 / gap) / -math.log1p(-r) if r < 1.0 else 1.0
    return (tau - d1) / cfg.dt_base + shrink


def _row_capacity(steps: float, stride: int) -> int:
    """Rows to allocate for a run of about ``steps`` steps (``_predicted_steps``).

    A run records ``ceil(steps_total / stride) + 1`` rows, at most
    ``steps_total // stride + 2``; the margin covers the rounding of the
    closed form.
    """
    return int(steps * 1.001 + 64) // stride + 2


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
        On dimension mismatches, a design whose guard band extends past
        the halt time ``tau * (1 - epsilon_fraction)``, or a run the step
        rule predicts to need more than ``MAX_STEPS`` steps.
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
    steps = _predicted_steps(tau, design.alpha, cfg)
    if not steps <= MAX_STEPS:
        raise ValueError(
            f"tau={tau:g} and alpha={design.alpha:g} need about {steps:.3g} "
            f"integration steps, more than the limit of {MAX_STEPS:,}"
        )
    gamma_min = design.gamma_min
    gamma = plant.gamma
    g = plant.g
    f = plant.f
    q = schedule.coefficients

    def stage(y, s, g_s):
        """The RK4 stage at state y and time s, given g_s = g(s): the input
        u, the drift f and the derivative's last component k."""
        # u = (0.0 + q[n-1]*y[n-1]/d + q[n-2]*y[n-2]/d**2 + ...) / (gamma_min*g_s)
        # with d = tau - s, each power the one above it times d. Starting
        # from 0.0 keeps u = +0.0 when every term is -0.0.
        d = tau - s
        pw = d
        acc = 0.0
        for i in range(n - 1, -1, -1):
            acc += q[i] * y[i] / pw
            pw *= d
        u = acc / (gamma_min * g_s)
        fy = f(y, u, s)
        return u, fy, fy + gamma * g_s * u

    threshold = cfg.divergence_threshold
    stride = cfg.record_stride

    times: list[float] = []
    states: list[tuple[float, ...]] = []
    inputs: list[float] = []
    t = 0.0

    def partial() -> SimTrace | None:
        if not times:
            return None
        return SimTrace(times, states, inputs, metadata)

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
        compiled = _run_compiled(
            plant,
            q,
            cfg,
            _row_capacity(steps, stride),
            tau=tau,
            t_end=t_end,
            stop=stop,
            gamma_min=gamma_min,
            gamma=gamma,
            threshold=threshold,
            dt_base=dt_base,
            shrink_divisor=shrink_divisor,
            stiff_cap=stiff_cap,
            phi=plant.phi,
            phi0=plant.phi0,
            slack=AUDIT_SLACK,
        )
        if compiled is not None:
            *samples, steps_total, u_max, x_max = compiled
            metadata.update(steps_total=steps_total, u_max=u_max, x_max=x_max)
            return SimTrace(*samples, metadata)
        g_now = g(t)
        while True:
            # The loop ends with one last sample at t_end, after the final
            # step or once the next step start falls within roundoff of it.
            last = not t < stop
            if last:
                t = t_end
                g_now = g(t)
            u1, f1, k1 = stage(x, t, g_now)
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
            # Stages 2-4 and the update. A stage's derivative is its state
            # shifted by one component, ending in the stage's k.
            kx = [*x[1:], k1]
            ya = [xi + half * v for xi, v in zip(x, kx)]
            ka = [*ya[1:], stage(ya, t_mid, g_mid)[2]]
            yb = [xi + half * v for xi, v in zip(x, ka)]
            kb = [*yb[1:], stage(yb, t_mid, g_mid)[2]]
            yc = [xi + h * v for xi, v in zip(x, kb)]
            kc = [*yc[1:], stage(yc, t_next, g_next)[2]]
            sixth = h / 6.0
            x = [
                xi + sixth * (a + 2.0 * (b + c) + e)
                for xi, a, b, c, e in zip(x, kx, ka, kb, kc)
            ]
            g_now = g_next
            # A clamped step lands on t_end and ends the loop, which then
            # evaluates t_end afresh.
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
    return SimTrace(times, states, inputs, metadata)


def _run_compiled(
    plant: PlantSpec,
    q: Sequence[float],
    cfg: SimConfig,
    capacity: int,
    **scalars: float,
):
    """The run from ``native.integrate``, or None to take the Python loop.

    Only a plant whose ``f`` and ``g`` this package built as programs that
    read no state past its order qualifies, and only when every number the
    loop reads is a float, or an int that a double holds exactly: then C
    doubles compute and compare what Python does.
    """
    f = native.program_of(plant.f)
    g = native.program_of(plant.g)
    if f is None or g is None or not (f.states <= plant.n and g.states <= plant.n):
        return None
    if not all(map(_exact_double, (*q, *scalars.values()))):
        return None
    x0 = [float(v) for v in cfg.x0]
    # Past 2**62 steps no stride can matter; a C long holds this one.
    stride = min(int(cfg.record_stride), 2**62)
    return native.integrate(f, g, q, x0, scalars, stride, capacity)


def _exact_double(v: object) -> bool:
    if type(v) is float:
        return True
    try:
        return type(v) is int and float(v) == v
    except OverflowError:
        return False


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

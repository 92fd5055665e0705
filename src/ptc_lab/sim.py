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
next step's first stage.

The arithmetic of a step is straight-line code generated from the chain
order n alone (``_kernel_source``) and compiled once per order, on first
use. State components are scalar locals; each power of (tau - s) is the
one above it times d = tau - s; each gain sum is the left-to-right
expression ``0.0 + q[n-1]*y[n-1]/p[n-1] + ... + q[0]*y[0]/p[0]``; and each
stage state and the update are the same per-component expressions the
loop always evaluated. The generated code performs the same IEEE
operations on the same operands in the same order as the list-based loop
it replaced, so traces are bitwise identical, and the divisions and plant
calls that can raise do so in the same stage of the same step.

Once the controller has driven the state to exactly +0.0 in every
component, a step whose first-stage derivative is 0.0 is a rest step: all
four stage states are +0.0, stages 2 and 3 coincide, and the step leaves
the state unchanged. The loop then calls f once at t + h/2 and once at
t + h, on the resting state itself, instead of running four stages, and
leaves rest, by taking the general step, as soon as a derivative is
nonzero. Both paths produce the same bits. The plant's g must therefore
be a pure function of t, and f a pure function of (x, u, t) that does not
mutate x.

When the plant's f and g are callables this package built (the builtin
plants and expression plants), the whole loop above runs in C, in one
call of ``native.integrate``, which interprets their programs. It repeats
the Python loop's IEEE operations in the same order, rest rule and
envelope audit included, so its trace and metadata are bitwise the same.
Wherever the Python loop would raise, and when its row buffer (sized by
``_row_capacity``) is full, it hands the run back and the Python loop
runs it from t = 0, so exceptions, messages and partial traces are the
Python loop's own. Plants with other callables, and machines without
gcc, take the Python loop, which stays the reference.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
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


def _positive_zero(x: list[float]) -> bool:
    """Every component is +0.0; a -0.0 keeps the step on the general path."""
    return all(v == 0.0 and math.copysign(1.0, v) > 0.0 for v in x)


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


def _kernel_source(n: int) -> str:
    """Source of the factory of the order-``n`` RK4 kernel.

    The factory ``make(q, tau, gamma_min, gamma, f)`` returns ``first(x,
    s, gs)``, the first stage at the step start s given ``gs = g(s)``, as
    ``(u, f, k1)`` with k1 the last derivative component, and ``step(x,
    k1, half, h, t_mid, t_next, g_mid, g_next)``, stages 2-4 and the
    update, which returns the new state. Only ``n`` and fixed names enter
    the text; the values of a run are the factory's arguments.
    """
    idx = range(n)
    top = n - 1
    states = "xabc"  # the state of stage j is states[j - 1]; x is stage 1's

    def k(j: int, i: int) -> str:
        # Component i of stage j's derivative: the next state component,
        # or the plant's last-component value k{j}.
        return f"{states[j - 1]}{i + 1}" if i < top else f"k{j}"

    def powers(p: str, s: str) -> list[str]:
        # Term i divides by (tau - s)**(n - i); each power is the one
        # above it times d, the order the loop has always used.
        lines = [f"d = tau - {s}", f"{p}{top} = d"]
        lines += [f"{p}{i} = {p}{i + 1} * d" for i in range(top - 1, -1, -1)]
        return lines

    def control(y: str, p: str) -> str:
        # Starting from 0.0 keeps u = +0.0 when every term is -0.0.
        terms = "".join(f" + q{i} * {y}{i} / {p}{i}" for i in range(top, -1, -1))
        return f"u = (0.0{terms}) / den"

    def stage(j: int, scale: str, p: str, s: str) -> list[str]:
        y = states[j - 1]
        row = ", ".join(f"{y}{i}" for i in idx)
        return [
            *(f"{y}{i} = x{i} + {scale} * {k(j - 1, i)}" for i in idx),
            control(y, p),
            f"k{j} = f([{row}], u, {s}) + gain * u",
        ]

    unpack = f"{', '.join(f'x{i}' for i in idx)}, = x"
    first = [
        unpack,
        *powers("p", "s"),
        "den = gamma_min * gs",
        control("x", "p"),
        "fx = f(x, u, s)",
        "return u, fx, fx + gamma * gs * u",
    ]
    update = ", ".join(
        f"x{i} + sixth * ({k(1, i)} + 2.0 * ({k(2, i)} + {k(3, i)}) + {k(4, i)})"
        for i in idx
    )
    step = [
        unpack,
        *powers("m", "t_mid"),
        "den = gamma_min * g_mid",
        "gain = gamma * g_mid",
        *stage(2, "half", "m", "t_mid"),
        *stage(3, "half", "m", "t_mid"),
        *powers("p", "t_next"),
        "den = gamma_min * g_next",
        "gain = gamma * g_next",
        *stage(4, "h", "p", "t_next"),
        "sixth = h / 6.0",
        f"return [{update}]",
    ]
    return "\n".join(
        [
            "def make(q, tau, gamma_min, gamma, f):",
            f"    {', '.join(f'q{i}' for i in idx)}, = q",
            "    def first(x, s, gs):",
            *(f"        {line}" for line in first),
            "    def step(x, k1, half, h, t_mid, t_next, g_mid, g_next):",
            *(f"        {line}" for line in step),
            "    return first, step",
            "",
        ]
    )


@lru_cache(maxsize=None)
def _kernel(n: int):
    """The order-``n`` kernel factory, compiled on first use."""
    namespace: dict[str, object] = {}
    exec(compile(_kernel_source(n), f"<ptc_lab.sim kernel n={n}>", "exec"), namespace)
    return namespace["make"]


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
    first, step = _kernel(n)(schedule.coefficients, tau, gamma_min, gamma, f)
    threshold = cfg.divergence_threshold
    stride = cfg.record_stride

    # From the state +0.0 a stage sums only zeros, so the gain sum is +0.0
    # and u = 0.0 / (gamma_min * g), when every q is finite
    # (build_gain_schedule ensures it) and no power of tau - s is 0. The
    # stage times of a step that is not clamped lie at or before t_end,
    # and the powers shrink with tau - s, so the n-th power at t_end, the
    # smallest when tau - t_end < 1, settles that for the whole run.
    d_end = tau - t_end
    pw = d_end
    for _ in range(n - 1):
        pw *= d_end
    can_rest = pw != 0.0

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
            schedule.coefficients,
            cfg,
            _row_capacity(steps, stride),
            can_rest,
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
            u1, f1, k1 = first(x, t, g_now)
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
            resting = k1 == 0.0 and can_rest and _positive_zero(x)
            # Rest steps, if any, then one general step; a rest step that
            # reaches the stop time leaves for the last sample instead.
            while True:
                d = tau - t
                h = dt_base
                cap = d / shrink_divisor
                if cap < h:
                    h = cap
                cap = stiff_cap * d
                if cap < h:
                    h = cap
                clamped = h >= t_end - t
                if clamped:
                    h = t_end - t
                half = 0.5 * h
                t_mid = t + half
                t_next = t + h
                g_mid = g(t_mid)
                g_next = g(t_next)
                # From rest, stages 2 and 3 are the same call on the state
                # +0.0 (x itself), and stage 4's values at t_next are the
                # next step's first stage. A resting step skips the
                # divergence check and the envelope audit, which both pass:
                # x = +0.0 and u = +-0.0, so |v| = 0 <= threshold; k = f +
                # gain*u == 0.0 with gain*u either +-0.0 or NaN forces
                # f = 0.0, so |f| = 0 <= phi*0 + phi0 + AUDIT_SLACK; and
                # neither peak can grow from 0. A clamped step ends the
                # loop, which evaluates t_end afresh.
                if resting and not clamped:
                    u = 0.0 / (gamma_min * g_mid)
                    if f(x, u, t_mid) + gamma * g_mid * u == 0.0:
                        u = 0.0 / (gamma_min * g_next)
                        k = f(x, u, t_next) + gamma * g_next * u
                        if k == 0.0:
                            k1 = k
                            t = t_next
                            step_index += 1
                            if not t < stop:
                                break
                            if step_index % stride == 0:
                                times.append(t)
                                states.append(tuple(x))
                                inputs.append(u)
                            continue
                x = step(x, k1, half, h, t_mid, t_next, g_mid, g_next)
                g_now = g_next
                # A clamped step lands on t_end and ends the loop, which
                # then evaluates t_end afresh.
                t = t_end if clamped else t_next
                step_index += 1
                break
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
    can_rest: bool,
    **scalars: float,
):
    """The run from ``native.integrate``, or None to take the Python loop.

    Only a plant whose ``f`` and ``g`` this package built as programs
    qualifies, and only when every number the loop reads is a float, or an
    int that a double holds exactly: then C doubles compute and compare
    what Python does.
    """
    f = native.program_of(plant.f)
    g = native.program_of(plant.g)
    if f is None or g is None or not (f.fits(plant.n) and g.fits(plant.n)):
        return None
    if not all(map(_exact_double, (*q, *scalars.values()))):
        return None
    x0 = [float(v) for v in cfg.x0]
    # Past 2**62 steps no stride can matter; a C long holds this one.
    stride = min(int(cfg.record_stride), 2**62)
    return native.integrate(f, g, q, x0, scalars, stride, can_rest, capacity)


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

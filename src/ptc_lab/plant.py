"""Disturbed integrator-chain plants and the built-in example systems.

A plant is a chain of ``n`` integrators whose last state collects a
disturbance and the scaled input:

    x_i' = x_{i+1}              for i < n
    x_n' = f(x, u, t) + gamma * g(t) * u

The controller never sees ``f`` or the true ``gamma``; it only knows the
declared envelope ``|f| <= phi * ||x|| + phi0`` and the lower bound
``gamma_min <= gamma``. Simulations audit the envelope along the actual
trajectory so a mis-declared plant fails loudly instead of producing a
certificate for assumptions that never held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from math import fsum
from operator import mul
from typing import Callable, Sequence

import numpy as np

from . import native
from .errors import AssumptionViolationError, ScenarioError
from .expressions import parse_expression
from .native import CONST, FSUM, MUL, X

__all__ = [
    "PlantSpec",
    "check_assumption",
    "builtin_plant",
    "plant_from_expressions",
]

# Absolute slack added to the declared envelope when auditing, so that
# trajectories that ride the envelope exactly are not rejected for roundoff.
AUDIT_SLACK = 1e-9


@dataclass(frozen=True)
class PlantSpec:
    """Immutable description of one plant.

    Attributes
    ----------
    n : int
        Chain length.
    f : callable
        Disturbance ``f(x, u, t) -> float``. It must be a pure function
        of ``(x, u, t)`` that does not mutate ``x``. The package's own
        callables, those of the builtins and of expressions of any depth,
        always run in the compiled loop when gcc is available. Only that
        loop evaluates coinciding stages once, when the state rests at
        exactly +0.0; the Python loop calls ``f`` at every stage.
    g : callable
        Input gain ``g(t) -> float``, nonzero for all t. It must be a
        pure function of ``t``: the simulator evaluates it once per
        distinct stage time and reuses the value across stages.
    gamma : float
        True input-gain scale; hidden from the controller.
    gamma_min : float
        Known lower bound, ``0 < gamma_min <= gamma``.
    phi, phi0 : float
        Declared disturbance envelope ``|f| <= phi * ||x|| + phi0``, both
        nonnegative. All four numbers must be finite.
    seed : int or None
        Seed used to draw any randomized parameters, for reproducibility.
    label : str
        Short name used in reports and trace metadata.
    disturbance_weights : tuple of float or None
        Frozen random weights for plants that use them.
    """

    n: int
    f: Callable[[Sequence[float], float, float], float]
    g: Callable[[float], float]
    gamma: float
    gamma_min: float
    phi: float
    phi0: float
    seed: int | None = None
    label: str = "custom"
    disturbance_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("gamma", "gamma_min", "phi", "phi0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.gamma_min <= self.gamma:
            raise ValueError(
                f"need 0 < gamma_min <= gamma, got gamma_min={self.gamma_min}, "
                f"gamma={self.gamma}"
            )
        if self.phi < 0 or self.phi0 < 0:
            raise ValueError(
                f"phi and phi0 must be nonnegative, got {self.phi}, {self.phi0}"
            )

    def describe(self) -> str:
        """Short identity string for trace metadata."""
        if self.seed is not None:
            return f"{self.label}[seed={self.seed}]"
        return self.label


def check_assumption(
    spec: PlantSpec,
    x: Sequence[float],
    u: float,
    t: float,
    f_value: float | None = None,
) -> float:
    """Audit the declared envelope at one point of a trajectory.

    Returns the disturbance value (computing it if not supplied) and
    raises if ``|f|`` exceeds ``phi * ||x|| + phi0`` beyond roundoff
    slack. A violation means the scenario declared bounds the plant does
    not satisfy, so any certificate built on them would be vacuous.
    """
    fv = spec.f(x, u, t) if f_value is None else f_value
    norm = math.sqrt(fsum(map(mul, x, x)))
    limit = spec.phi * norm + spec.phi0 + AUDIT_SLACK
    if abs(fv) > limit:
        raise AssumptionViolationError(
            f"disturbance |f|={abs(fv):.6e} exceeds declared envelope "
            f"phi*||x||+phi0={limit:.6e} at t={t:.6g}"
        )
    return fv


@lru_cache(maxsize=None)
def _example2() -> PlantSpec:
    # Cached: parsing the texts costs more than the rest of a plant build.
    return plant_from_expressions(
        2, "50*cos(u) + cos(t)*x1 + exp(sin(x1))*x2", "1",
        gamma=1.1, gamma_min=1.0, phi=math.e, phi0=50.0, label="example2",
    )


def builtin_plant(name: str, seed: int = 0) -> PlantSpec:
    """One of the two bundled example plants.

    ``example2`` is a second-order system with a bounded but highly
    nonlinear disturbance ``50*cos(u) + cos(t)*x1 + exp(sin(x1))*x2`` and
    uncertain input gain (``gamma=1.1`` against ``gamma_min=1``); its
    envelope has a constant offset, so only attractivity can be certified.

    ``example3`` is a fourth-order system with a vanishing random
    disturbance ``sum(w_i * x_i)``, ``w_i`` drawn once from
    ``U(-1e-3, 1e-3)`` at the given seed; its envelope has no offset, so
    full stability is on the table.
    """
    if name == "example2":
        return _example2()
    if name == "example3":
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = tuple(float(w) for w in rng.uniform(-1e-3, 1e-3, 4))

        w1, w2, w3, w4 = weights

        def f3(x: Sequence[float], u: float, t: float) -> float:
            return fsum((w1 * x[0], w2 * x[1], w3 * x[2], w4 * x[3]))

        products = [op for i, w in enumerate(weights) for op in ((CONST, w), (X, i), (MUL, 0))]
        native.register(f3, native.program([*products, (FSUM, 4)]))
        return PlantSpec(
            n=4,
            f=f3,
            g=_example2().g,  # the same unit gain
            gamma=1.0,
            gamma_min=1.0,
            phi=1e-3,
            phi0=0.0,
            seed=seed,
            label="example3",
            disturbance_weights=weights,
        )
    raise ScenarioError(f"unknown builtin plant {name!r}; use example2 or example3")


def plant_from_expressions(
    n: int,
    f_text: str,
    g_text: str,
    *,
    gamma: float,
    gamma_min: float,
    phi: float,
    phi0: float,
    seed: int | None = None,
    label: str = "custom",
) -> PlantSpec:
    """Build a plant from scenario expression strings.

    ``f_text`` may use ``x1..xn``, ``u``, and ``t``; ``g_text`` may use
    ``t`` only. Both are parsed strictly before any simulation runs.
    """
    f = parse_expression(f_text, n, allow_u=True, allow_state=True)
    g = parse_expression(g_text, n, allow_u=False, allow_state=False)
    g_of_t = partial(g, (), 0.0)
    native.register(g_of_t, native.program_of(g))
    return PlantSpec(
        n=n,
        f=f,
        g=g_of_t,
        gamma=gamma,
        gamma_min=gamma_min,
        phi=phi,
        phi0=phi0,
        seed=seed,
        label=label,
    )

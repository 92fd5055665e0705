"""Stirling numbers and the state-transform matrices built from them.

The controller in this toolkit is derived by mapping trajectories between
two clocks: the infinite-horizon clock ``t`` running on ``[0, inf)``, in
which the closed loop is the time-invariant ``y' = E y``, and real time
``mu`` running on ``[0, tau)``, the clock that ``sim`` integrates in and
that the rest of the package calls ``t``. Repeated differentiation through
that change of clock produces Stirling numbers, so the transform matrices
between the two state representations are assembled from three
ingredients:

* Stirling numbers of the first kind ``[n, k]`` and of the second kind
  ``{n, k}``, plus Bell numbers,
* a lower-triangular Toeplitz matrix of powers of the time-scale rate
  ``alpha``,
* diagonal matrices of powers of the clock rates ``mu_dot(t)`` and
  ``kappa_prime(mu)``.

Stirling and Bell numbers are exact Python integers of any order,
computed on first use and cached. Matrix values are ``float64``;
exactness guarantees apply to the integers only.

Clock conventions
-----------------

``mu(t) = tau * (1 - exp(-alpha * t))`` maps the infinite-horizon clock
``[0, inf)`` onto real time ``[0, tau)`` with derivative
``mu_dot(t) = alpha * tau * exp(-alpha * t)`` and higher derivatives
``mu^(i) = (-alpha)^(i-1) * mu_dot``. Its inverse
``kappa(mu) = -(1/alpha) * ln(1 - mu/tau)`` has derivative
``kappa_prime(mu) = (1/alpha) / (tau - mu)`` and higher derivatives
``kappa^(i) = alpha^(i-1) * (i-1)! * kappa_prime^i``. The two rates are
reciprocal along the matched pair: ``mu_dot(t) * kappa_prime(mu(t)) = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .linalg import _readonly

__all__ = [
    "TransformMatrices",
    "stirling_first",
    "stirling_second",
    "stirling_second_explicit",
    "bell_number",
    "first_kind_matrix",
    "second_kind_matrix",
    "alternating_toeplitz",
    "mu_of_t",
    "mu_dot_of_t",
    "mu_derivative",
    "kappa_of_mu",
    "kappa_prime_of_mu",
    "kappa_derivative",
    "build_transform_matrices",
]

FloatArray = NDArray[np.float64]


@lru_cache(maxsize=None)
def _row(n: int, second: bool) -> tuple[int, ...]:
    """Row ``n`` of the first- or second-kind triangle, ``k = 0 .. n``.

    Starts from ``[0, 0] = {0, 0} = 1`` and applies the defining
    recurrences

    ``[m, k] = (m-1) * [m-1, k] + [m-1, k-1]``
    ``{m, k} = k * {m-1, k} + {m-1, k-1}``

    row by row in exact integer arithmetic, so ``[m, 0] = {m, 0} = 0`` for
    ``m >= 1``.
    """
    row = (1,)
    for m in range(1, n + 1):
        prev = row + (0,)
        row = (0,) + tuple(
            (k if second else m - 1) * prev[k] + prev[k - 1] for k in range(1, m + 1)
        )
    return row


def _entry(n: int, k: int, second: bool) -> int:
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")
    return _row(n, second)[k] if k <= n else 0


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind ``[n, k]``.

    The number of permutations of ``n`` elements with ``k`` cycles; row
    ``n`` sums to ``n!``.
    """
    return _entry(n, k, second=False)


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind ``{n, k}``.

    The number of partitions of ``n`` elements into ``k`` nonempty blocks.
    """
    return _entry(n, k, second=True)


def bell_number(n: int) -> int:
    """Bell number, the number of partitions of an ``n``-element set."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return sum(_row(n, True))


def stirling_second_explicit(n: int, k: int) -> int:
    """Stirling number of the second kind by the alternating binomial sum.

    Evaluates ``{n, k} = (1/k!) * sum_{i=0}^{k} (-1)^i * C(k, i) * (k-i)^n``
    in exact integer arithmetic. This is an independent route from the
    recurrence behind :func:`stirling_second`; the two must agree and
    that agreement is part of the verification suite.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    q, r = divmod(total, math.factorial(k))
    if r != 0:
        raise ArithmeticError(f"explicit sum not divisible by k! for n={n}, k={k}")
    return q


def _lower_triangular(n: int, entry: Callable[[int, int], float]) -> FloatArray:
    """Read-only ``n x n`` matrix with ``entry(i, j)`` on and below the diagonal."""
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            m[i, j] = entry(i, j)
    return _readonly(m)


def first_kind_matrix(n: int) -> FloatArray:
    """Lower-triangular matrix with entries ``[i-1, j-1]`` (1-indexed)."""
    return _lower_triangular(n, stirling_first)


def second_kind_matrix(n: int) -> FloatArray:
    """Lower-triangular matrix with entries ``{i-1, j-1}`` (1-indexed)."""
    return _lower_triangular(n, stirling_second)


def alternating_toeplitz(n: int, alpha: float) -> FloatArray:
    """Lower-triangular Toeplitz matrix with entries ``(-alpha)**(i-j)``.

    The diagonal is 1 and strictly lower entries alternate in sign down
    each column with increasing powers of ``alpha``.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _lower_triangular(n, lambda i, j: (-alpha) ** (i - j))


def _unsigned_toeplitz(n: int, alpha: float) -> FloatArray:
    return _lower_triangular(n, lambda i, j: alpha ** (i - j))


# ---------------------------------------------------------------------------
# Clock functions.
# ---------------------------------------------------------------------------

def _check_clock_args(alpha: float, tau: float) -> None:
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")


def mu_of_t(t: float, alpha: float, tau: float) -> float:
    """Real time ``mu(t)`` at infinite-horizon instant ``t``.

    ``mu(t) = tau * (1 - exp(-alpha t))``, evaluated as
    ``-tau * expm1(-alpha t)``: for small ``alpha t`` the difference
    ``1 - exp(-alpha t)`` cancels to few significant digits, which
    ``kappa_of_mu`` (built on ``log1p``) would not round-trip.
    """
    _check_clock_args(alpha, tau)
    # "not >= 0" also refuses NaN, which fails every comparison.
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return -tau * math.expm1(-alpha * t)


def mu_dot_of_t(t: float, alpha: float, tau: float) -> float:
    """Clock rate ``mu_dot(t) = alpha * tau * exp(-alpha t)``.

    Defined for negative ``t`` as well, where a central difference around
    ``t = 0`` samples it; only NaN is refused.
    """
    _check_clock_args(alpha, tau)
    if math.isnan(t):
        raise ValueError(f"t must be a number, got {t}")
    return alpha * tau * math.exp(-alpha * t)


def mu_derivative(i: int, t: float, alpha: float, tau: float) -> float:
    """i-th time derivative of ``mu``: ``(-alpha)**(i-1) * mu_dot(t)``."""
    if i < 1:
        raise ValueError(f"derivative order must be >= 1, got {i}")
    return (-alpha) ** (i - 1) * mu_dot_of_t(t, alpha, tau)


def kappa_of_mu(mu: float, alpha: float, tau: float) -> float:
    """Inverse clock ``kappa(mu) = -(1/alpha) * ln(1 - mu/tau)``."""
    _check_clock_args(alpha, tau)
    if not 0.0 <= mu < tau:
        raise ValueError(f"mu must lie in [0, tau), got mu={mu}, tau={tau}")
    return -math.log1p(-mu / tau) / alpha


def kappa_prime_of_mu(mu: float, alpha: float, tau: float) -> float:
    """Inverse clock rate ``kappa_prime(mu) = (1/alpha) / (tau - mu)``."""
    _check_clock_args(alpha, tau)
    if not 0.0 <= mu < tau:
        raise ValueError(f"mu must lie in [0, tau), got mu={mu}, tau={tau}")
    return 1.0 / (alpha * (tau - mu))


def kappa_derivative(i: int, mu: float, alpha: float, tau: float) -> float:
    """i-th derivative of ``kappa``: ``alpha**(i-1) * (i-1)! * kappa_prime**i``.

    All derivatives of ``kappa`` are positive; differentiating
    ``kappa_prime = (1/alpha) * (tau - mu)**-1`` raises the power of the
    positive factor ``(tau - mu)**-1`` without introducing sign changes.
    """
    if i < 1:
        raise ValueError(f"derivative order must be >= 1, got {i}")
    kp = kappa_prime_of_mu(mu, alpha, tau)
    return alpha ** (i - 1) * math.factorial(i - 1) * kp ** i


# ---------------------------------------------------------------------------
# Transform matrices.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformMatrices:
    """All matrices of the state transform, evaluated at one instant ``t``
    of the infinite-horizon clock (real time ``mu(t)``).

    ``y`` holds the derivatives of ``x1`` in the infinite-horizon clock,
    ``y_k = d^(k-1) x1 / dt^(k-1)``; ``x`` is the real-time state that
    ``sim`` integrates, ``x_k = d^(k-1) x1 / dmu^(k-1)``. The inverse map
    sends ``y`` to ``x`` and the forward map sends ``x`` back to ``y``;
    both are lower triangular with unit (1,1) entry. ``o`` denotes the
    entrywise (Hadamard) product:

    * inverse:  ``x = (|A| o (inv(M) @ s)) y``
    * forward:  ``y = (A o (S @ inv(K))) x``

    where ``|A|`` carries unsigned powers of ``alpha``. The signed and
    unsigned Toeplitz factors are not interchangeable: using the signed
    factor on both sides breaks the mutual-inverse property at first
    order in ``alpha``.

    Attributes
    ----------
    n : int
        State dimension.
    alpha, tau, t : float
        Time-scale rate, deadline, and evaluation instant on the
        infinite-horizon clock.
    s, S : FloatArray
        Lower-triangular first-kind and second-kind Stirling matrices.
    A : FloatArray
        Alternating Toeplitz matrix with entries ``(-alpha)**(i-j)``.
    K, M : FloatArray
        Diagonal matrices ``diag(kappa_prime(mu(t))**i)`` and
        ``diag(mu_dot(t)**i)`` for ``i = 0 .. n-1``; inverses are taken
        entrywise on the diagonal.
    """

    n: int
    alpha: float
    tau: float
    t: float
    s: FloatArray
    S: FloatArray
    A: FloatArray
    K: FloatArray
    M: FloatArray

    def forward_map(self) -> FloatArray:
        """Matrix sending the real-time state ``x`` to ``y``."""
        k_inv = np.diag(1.0 / np.diag(self.K))
        return _readonly(self.A * (self.S @ k_inv))

    def inverse_map(self) -> FloatArray:
        """Matrix sending ``y`` to the real-time state ``x`` of ``sim``."""
        m_inv = np.diag(1.0 / np.diag(self.M))
        a_unsigned = _unsigned_toeplitz(self.n, self.alpha)
        return _readonly(a_unsigned * (m_inv @ self.s))


def build_transform_matrices(
    n: int,
    alpha: float,
    tau: float,
    t: float,
) -> TransformMatrices:
    """Evaluate all transform matrices consistently at the pair ``(t, mu(t))``.

    Parameters
    ----------
    n : int
        State dimension, ``n >= 1``.
    alpha : float
        Time-scale rate, positive.
    tau : float
        Deadline, positive.
    t : float
        Evaluation instant on the infinite-horizon clock; this function
        accepts ``0 <= t < tau`` only.

    Raises
    ------
    ValueError
        If any argument is out of range.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_clock_args(alpha, tau)
    if not 0.0 <= t < tau:
        raise ValueError(f"t must lie in [0, tau), got t={t}, tau={tau}")

    mu = mu_of_t(t, alpha, tau)
    mudot = mu_dot_of_t(t, alpha, tau)
    kprime = kappa_prime_of_mu(mu, alpha, tau)
    K = np.diag([kprime ** i for i in range(n)])
    M = np.diag([mudot ** i for i in range(n)])
    return TransformMatrices(
        n=n,
        alpha=alpha,
        tau=tau,
        t=t,
        s=first_kind_matrix(n),
        S=second_kind_matrix(n),
        A=alternating_toeplitz(n, alpha),
        K=_readonly(K),
        M=_readonly(M),
    )

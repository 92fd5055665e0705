"""Stirling-number tables and the state-transform matrices built from them.

The controller in this toolkit is derived by mapping trajectories between
two clocks: the infinite-horizon clock ``t`` running on ``[0, inf)``, in
which the closed loop is the time-invariant ``y' = E y``, and real time
``mu`` running on ``[0, tau)``, the clock that ``sim`` integrates in and
that the rest of the package calls ``t``. Repeated differentiation through
that change of clock produces Stirling numbers, so the transform matrices
between the two state representations are assembled from three
ingredients:

* integer tables of Stirling numbers of the first kind ``[n, k]`` and of
  the second kind ``{n, k}``, plus Bell numbers,
* a lower-triangular Toeplitz matrix of powers of the time-scale rate
  ``alpha``,
* diagonal matrices of powers of the clock rates ``mu_dot(t)`` and
  ``kappa_prime(mu)``.

Tables are built once with exact Python integers (arbitrary precision, no
overflow up to the capacity limit) and are immutable afterwards. Matrix
values are ``float64``; exactness guarantees apply to the integer tables
only.

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

from .errors import CapacityError
from .linalg import _readonly

__all__ = [
    "CombinatoricsTable",
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

DEFAULT_MAX_ORDER = 20


@dataclass(frozen=True)
class CombinatoricsTable:
    """Precomputed integer tables of Stirling and Bell numbers.

    Attributes
    ----------
    max_order : int
        Largest ``n`` (and ``k``) the tables cover.
    first_kind : tuple of tuple of int
        ``first_kind[n][k]`` is the unsigned Stirling number of the first
        kind ``[n, k]``, the number of permutations of ``n`` elements with
        ``k`` cycles. Base cases ``[0, 0] = 1`` and ``[n, 0] = 0`` for
        ``n >= 1``, so each row sums to ``n!``.
    second_kind : tuple of tuple of int
        ``second_kind[n][k]`` is the Stirling number of the second kind
        ``{n, k}``, the number of partitions of ``n`` elements into ``k``
        nonempty blocks.
    bell : tuple of int
        ``bell[n]`` is the Bell number, the row sum of ``second_kind[n]``.
    """

    max_order: int
    first_kind: tuple[tuple[int, ...], ...]
    second_kind: tuple[tuple[int, ...], ...]
    bell: tuple[int, ...]

    @classmethod
    def build(cls, max_order: int = DEFAULT_MAX_ORDER) -> "CombinatoricsTable":
        """Build tables for all ``0 <= k <= n <= max_order``.

        Both kinds are filled by their defining recurrences,

        ``[n+1, k] = n * [n, k] + [n, k-1]``
        ``{n+1, k} = k * {n, k} + {n, k-1}``

        using exact integer arithmetic.
        """
        if max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {max_order}")
        first: list[list[int]] = [[1] + [0] * max_order]
        second: list[list[int]] = [[1] + [0] * max_order]
        for n in range(1, max_order + 1):
            frow = [0] * (max_order + 1)
            srow = [0] * (max_order + 1)
            for k in range(1, n + 1):
                frow[k] = (n - 1) * first[n - 1][k] + first[n - 1][k - 1]
                srow[k] = k * second[n - 1][k] + second[n - 1][k - 1]
            first.append(frow)
            second.append(srow)
        bell = tuple(sum(row) for row in second)
        return cls(
            max_order=max_order,
            first_kind=tuple(tuple(r) for r in first),
            second_kind=tuple(tuple(r) for r in second),
            bell=bell,
        )

    def _check(self, n: int, k: int) -> None:
        if n < 0 or k < 0:
            raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")
        if n > self.max_order or k > self.max_order:
            raise CapacityError(
                f"order {max(n, k)} exceeds table capacity {self.max_order}; "
                "build a larger CombinatoricsTable"
            )

    def stirling_first(self, n: int, k: int) -> int:
        """Unsigned Stirling number of the first kind ``[n, k]``."""
        self._check(n, k)
        return self.first_kind[n][k]

    def stirling_second(self, n: int, k: int) -> int:
        """Stirling number of the second kind ``{n, k}``."""
        self._check(n, k)
        return self.second_kind[n][k]

    def bell_number(self, n: int) -> int:
        """Bell number, the number of partitions of an ``n``-element set."""
        self._check(n, 0)
        return self.bell[n]


@lru_cache(maxsize=None)
def _default_table(max_order: int = DEFAULT_MAX_ORDER) -> CombinatoricsTable:
    return CombinatoricsTable.build(max_order)


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind from the default table."""
    return _default_table().stirling_first(n, k)


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind from the default table."""
    return _default_table().stirling_second(n, k)


def bell_number(n: int) -> int:
    """Bell number from the default table."""
    return _default_table().bell_number(n)


def stirling_second_explicit(n: int, k: int) -> int:
    """Stirling number of the second kind by the alternating binomial sum.

    Evaluates ``{n, k} = (1/k!) * sum_{i=0}^{k} (-1)^i * C(k, i) * (k-i)^n``
    in exact integer arithmetic. This is an independent route from the
    recurrence used by :class:`CombinatoricsTable`; the two must agree and
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


def first_kind_matrix(n: int, table: CombinatoricsTable | None = None) -> FloatArray:
    """Lower-triangular matrix with entries ``[i-1, j-1]`` (1-indexed)."""
    return _lower_triangular(n, (table or _default_table()).stirling_first)


def second_kind_matrix(n: int, table: CombinatoricsTable | None = None) -> FloatArray:
    """Lower-triangular matrix with entries ``{i-1, j-1}`` (1-indexed)."""
    return _lower_triangular(n, (table or _default_table()).stirling_second)


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
    """Stretched clock ``mu(t) = tau * (1 - exp(-alpha t))``.

    Evaluated as ``-tau * expm1(-alpha t)``: for small ``alpha t`` the
    difference ``1 - exp(-alpha t)`` cancels to few significant digits,
    which ``kappa_of_mu`` (built on ``log1p``) would not round-trip.
    """
    _check_clock_args(alpha, tau)
    return -tau * math.expm1(-alpha * t)


def mu_dot_of_t(t: float, alpha: float, tau: float) -> float:
    """Clock rate ``mu_dot(t) = alpha * tau * exp(-alpha t)``."""
    _check_clock_args(alpha, tau)
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
    table: CombinatoricsTable | None = None,
) -> TransformMatrices:
    """Evaluate all transform matrices consistently at the pair ``(t, mu(t))``.

    Parameters
    ----------
    n : int
        State dimension, ``1 <= n <=`` table capacity.
    alpha : float
        Time-scale rate, positive.
    tau : float
        Deadline, positive.
    t : float
        Evaluation instant on the infinite-horizon clock; this function
        accepts ``0 <= t < tau`` only.
    table : CombinatoricsTable, optional
        Integer tables to draw Stirling numbers from; the shared default
        table (capacity 20) is used when omitted.

    Raises
    ------
    CapacityError
        If ``n`` exceeds the table capacity.
    ValueError
        If any argument is out of range.
    """
    tab = table or _default_table()
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > tab.max_order:
        raise CapacityError(
            f"n={n} exceeds table capacity {tab.max_order}; "
            "build a larger CombinatoricsTable"
        )
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
        s=first_kind_matrix(n, tab),
        S=second_kind_matrix(n, tab),
        A=alternating_toeplitz(n, alpha),
        K=_readonly(K),
        M=_readonly(M),
    )

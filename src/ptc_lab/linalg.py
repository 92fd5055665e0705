"""Companion-form matrices and the Lyapunov certificate behind gain design.

The coefficient vector ``c = (c_1, ..., c_n)`` chosen by the user fixes a
companion matrix ``E`` whose characteristic polynomial is

    lambda**n - c_n * lambda**(n-1) - ... - c_2 * lambda - c_1

so Hurwitz stability of ``E`` is a property of ``c`` alone. The design
pipeline needs the symmetric positive definite solution ``P`` of

    E.T @ P + P @ E + 2 * I = 0

together with its extreme eigenvalues; those three numbers are the only
inputs the time-scale bound computation takes from this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InfeasibleDesignError

__all__ = [
    "LyapunovSolution",
    "companion_matrix",
    "is_hurwitz",
    "solve_lyapunov",
    "spectral_norm",
]

FloatArray = NDArray[np.float64]


def _readonly(a: np.ndarray) -> FloatArray:
    """Contiguous float64 copy (or view) of ``a`` that rejects writes.

    Shared by every module that hands arrays to callers.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _validate_coefficients(c: tuple[float, ...]) -> tuple[float, ...]:
    if len(c) < 1:
        raise ValueError("coefficient vector must have at least one entry")
    out = tuple(float(v) for v in c)
    for v in out:
        if not np.isfinite(v):
            raise ValueError(f"coefficients must be finite, got {c}")
    return out


def companion_matrix(c: tuple[float, ...]) -> FloatArray:
    """Companion matrix of ``c`` in controllable canonical (bottom-row) form.

    The read-only array has ones on the superdiagonal and ``c_1, ..., c_n``
    along the last row, so the state equation ``z' = E z`` chains each
    state into the next and closes the loop through the coefficient row.
    """
    coeffs = _validate_coefficients(c)
    n = len(coeffs)
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = 1.0
    m[n - 1, :] = coeffs
    return _readonly(m)


def is_hurwitz(c: tuple[float, ...], tol: float = 1e-9) -> bool:
    """Whether every eigenvalue of the companion matrix of ``c`` satisfies
    ``Re(lambda) < -tol``.

    The margin ``tol`` rejects coefficient vectors whose spectrum touches
    the imaginary axis to within roundoff; such designs have no Lyapunov
    certificate worth computing.
    """
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    e = companion_matrix(c)
    return bool(np.max(np.linalg.eigvals(e).real) < -tol)


@dataclass(frozen=True)
class LyapunovSolution:
    """Solution ``P`` of ``E.T P + P E + 2 I = 0`` with its spectrum edges.

    Attributes
    ----------
    P : FloatArray
        Symmetric positive definite solution.
    lambda_min, lambda_max : float
        Extreme eigenvalues of ``P``.
    residual : float
        Spectral norm of ``E.T P + P E + 2 I`` as actually computed, for
        auditing the linear solve.
    """

    P: FloatArray
    lambda_min: float
    lambda_max: float
    residual: float


def solve_lyapunov(c: tuple[float, ...]) -> LyapunovSolution:
    """Solve the Lyapunov equation for the companion matrix of ``c``.

    The equation is vectorized through the Kronecker identity
    ``vec(E.T P + P E) = (I (x) E.T + E.T (x) I) vec(P)`` and solved as a
    dense linear system, then symmetrized. For a Hurwitz ``E`` the solution
    is unique and symmetric positive definite.

    Raises
    ------
    InfeasibleDesignError
        If ``c`` is not Hurwitz (the equation then has no positive definite
        solution) or the computed solution fails to be positive definite.
    """
    coeffs = _validate_coefficients(c)
    if not is_hurwitz(coeffs):
        raise InfeasibleDesignError(
            f"companion matrix is not Hurwitz for c={coeffs}; choose c so "
            "that the polynomial roots all have negative real part"
        )
    e = companion_matrix(coeffs)
    n = e.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, e.T) + np.kron(e.T, eye)
    rhs = -2.0 * eye.reshape(-1)
    p = np.linalg.solve(lhs, rhs).reshape(n, n)
    p = 0.5 * (p + p.T)
    eigs = np.linalg.eigvalsh(p)
    lam_min = float(eigs[0])
    lam_max = float(eigs[-1])
    if lam_min <= 0.0:
        raise InfeasibleDesignError(
            f"Lyapunov solution for c={coeffs} is not positive definite "
            f"(lambda_min={lam_min:.3e})"
        )
    residual = float(np.linalg.norm(e.T @ p + p @ e + 2.0 * eye, 2))
    return LyapunovSolution(
        P=_readonly(p), lambda_min=lam_min, lambda_max=lam_max, residual=residual
    )


def spectral_norm(a: FloatArray) -> float:
    """Largest singular value of ``a``."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64), 2))

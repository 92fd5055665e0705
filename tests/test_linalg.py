import math

import numpy as np
import pytest
import scipy.linalg

import ptc_lab as pl

# Frozen Lyapunov data for the two example coefficient sets. The 2x2 case
# is exact by hand (solve the three scalar equations); the 4x4 values were
# frozen from an independent solve and validated against scipy below.
P_EX2 = np.array([[3.0, 1.0], [1.0, 1.0]])
P_EX3 = np.array(
    [
        [6.25, 8.0, 4.75, 1.0],
        [8.0, 16.75, 11.0, 2.25],
        [4.75, 11.0, 10.25, 2.0],
        [1.0, 2.25, 2.0, 0.75],
    ]
)
LAMBDA_MIN_EX3 = 0.34567474478131216
LAMBDA_MAX_EX3 = 29.125866442600604


def test_companion_structure():
    e = pl.companion_matrix((-1.0, -4.0, -6.0, -4.0))
    for i in range(3):
        for j in range(4):
            assert e[i, j] == (1.0 if j == i + 1 else 0.0)
    assert list(e[3]) == [-1.0, -4.0, -6.0, -4.0]


def test_companion_characteristic_polynomial_convention():
    # Char poly is lambda^n - c_n lambda^(n-1) - ... - c_1, so
    # c = (-1, -4, -6, -4) gives (lambda + 1)^4.
    e = pl.companion_matrix((-1.0, -4.0, -6.0, -4.0))
    # A defective quadruple root perturbs like eps^(1/4) under eigvals,
    # so the sharp check is on the characteristic coefficients.
    eigs = np.linalg.eigvals(e)
    assert np.allclose(sorted(eigs.real), [-1.0] * 4, atol=1e-3)
    assert np.allclose(eigs.imag, 0.0, atol=1e-3)
    coeffs = np.poly(e)
    assert np.allclose(coeffs, [1.0, 4.0, 6.0, 4.0, 1.0], atol=1e-9)


def test_is_hurwitz():
    assert pl.is_hurwitz((-1.0, -2.0))
    assert pl.is_hurwitz((-1.0, -4.0, -6.0, -4.0))
    assert not pl.is_hurwitz((1.0, 1.0))
    # A root exactly at the origin fails the strict margin.
    assert not pl.is_hurwitz((0.0, -1.0))


def test_lyapunov_example2_exact():
    sol = pl.solve_lyapunov((-1.0, -2.0))
    assert np.allclose(sol.P, P_EX2, atol=1e-12)
    assert sol.residual <= 1e-10
    assert sol.lambda_min == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-13)
    assert sol.lambda_max == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-13)


def test_lyapunov_example3_frozen():
    sol = pl.solve_lyapunov((-1.0, -4.0, -6.0, -4.0))
    assert np.allclose(sol.P, P_EX3, atol=1e-9)
    assert sol.residual <= 1e-10
    assert sol.lambda_min == pytest.approx(LAMBDA_MIN_EX3, rel=1e-12)
    assert sol.lambda_max == pytest.approx(LAMBDA_MAX_EX3, rel=1e-12)


def test_lyapunov_identity_direct():
    # The defining identity checked by plain matrix arithmetic, not the
    # Kronecker machinery that produced P.
    for c in [(-1.0, -2.0), (-2.0, -3.0, -4.0), (-1.0, -4.0, -6.0, -4.0)]:
        sol = pl.solve_lyapunov(c)
        e = pl.companion_matrix(c)
        residual = e.T @ sol.P + sol.P @ e + 2.0 * np.eye(len(c))
        assert np.max(np.abs(residual)) < 1e-10
        assert np.allclose(sol.P, sol.P.T)
        assert np.all(np.linalg.eigvalsh(sol.P) > 0)


def test_lyapunov_scipy_crosscheck():
    for c in [(-1.0, -2.0), (-1.0, -4.0, -6.0, -4.0), (-0.5, -1.5, -3.0)]:
        sol = pl.solve_lyapunov(c)
        e = pl.companion_matrix(c)
        expected = scipy.linalg.solve_lyapunov(e.T, -2.0 * np.eye(len(c)))
        assert np.allclose(sol.P, expected, atol=1e-10)


def test_non_hurwitz_raises():
    with pytest.raises(pl.InfeasibleDesignError):
        pl.solve_lyapunov((1.0, 1.0))
    with pytest.raises(pl.InfeasibleDesignError):
        pl.solve_lyapunov((0.0, -1.0))


def test_coefficient_validation():
    with pytest.raises(ValueError):
        pl.solve_lyapunov(())
    with pytest.raises(ValueError):
        pl.solve_lyapunov((float("nan"), -1.0))


def test_spectral_norm_matches_svd():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        assert pl.spectral_norm(a) == pytest.approx(
            float(np.linalg.svd(a, compute_uv=False)[0]), rel=1e-12
        )


def test_companion_matrix_read_only():
    e = pl.companion_matrix((-1.0, -2.0))
    with pytest.raises(ValueError):
        e[0, 0] = 9.0

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptc_lab as pl
from ptc_lab.combinatorics import _unsigned_toeplitz

# Hand-checked rows of the Stirling triangles (partitions of small sets and
# permutations by cycle count can be enumerated on paper).
SECOND_KIND_ROW_5 = [0, 1, 15, 25, 10, 1]
FIRST_KIND_ROW_5 = [0, 24, 50, 35, 10, 1]
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def test_second_kind_known_values():
    assert pl.stirling_second(4, 2) == 7
    assert pl.stirling_second(6, 3) == 90
    for k in range(6):
        assert pl.stirling_second(5, k) == SECOND_KIND_ROW_5[k]
    for n in range(1, 10):
        assert pl.stirling_second(n, 1) == 1
        assert pl.stirling_second(n, n) == 1


def test_first_kind_known_values():
    assert pl.stirling_first(4, 2) == 11
    for k in range(6):
        assert pl.stirling_first(5, k) == FIRST_KIND_ROW_5[k]


def test_first_kind_base_cases():
    # [0,0] = 1 and [n,0] = 0 for n >= 1; with these, row n sums to n!.
    assert pl.stirling_first(0, 0) == 1
    for n in range(1, 12):
        assert pl.stirling_first(n, 0) == 0
        assert sum(pl.stirling_first(n, k) for k in range(n + 1)) == math.factorial(n)


def test_bell_numbers():
    for n, expected in enumerate(BELL):
        assert pl.bell_number(n) == expected
    for n in range(41):
        assert pl.bell_number(n) == sum(pl.stirling_second(n, k) for k in range(n + 1))


@given(n=st.integers(0, 40), k=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_second_kind_recurrence_vs_explicit(n, k):
    assert pl.stirling_second_explicit(n, k) == pl.stirling_second(n, k)


@given(n=st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_first_kind_row_sum_is_factorial(n):
    assert sum(pl.stirling_first(n, k) for k in range(n + 1)) == math.factorial(n)


def test_orders_past_twenty():
    # Stirling numbers have no capacity: k > n is an empty count, and an
    # order-21 transform carries the exact integers of rows 0..20.
    assert pl.stirling_second(3, 25) == 0
    assert pl.stirling_first(3, 25) == 0
    mats = pl.build_transform_matrices(21, 0.1, 10.0, 0.0)
    for i in range(21):
        for j in range(i + 1):
            assert mats.S[i, j] == pl.stirling_second_explicit(i, j)
            assert mats.s[i, j] == float(pl.stirling_first(i, j))
    # Independent closed forms: [n, 1] = (n-1)!, {n, 2} = 2^(n-1) - 1 and
    # [n, n-1] = {n, n-1} = C(n, 2).
    assert mats.s[20, 1] == float(math.factorial(19))
    assert mats.S[20, 2] == 2 ** 19 - 1
    assert mats.s[20, 19] == mats.S[20, 19] == math.comb(20, 2)


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        pl.stirling_first(-1, 0)
    with pytest.raises(ValueError):
        pl.stirling_second(3, -1)
    with pytest.raises(ValueError):
        pl.bell_number(-1)
    with pytest.raises(ValueError):
        pl.stirling_second_explicit(3, -2)


def test_clock_round_trip():
    alpha, tau = 0.1, 10.0
    mu = pl.mu_of_t(5.0, alpha, tau)
    assert mu == pytest.approx(3.9346934028736658, rel=1e-15)
    assert pl.kappa_of_mu(mu, alpha, tau) == pytest.approx(5.0, abs=1e-12)
    assert pl.mu_of_t(0.0, alpha, tau) == 0.0
    assert pl.kappa_of_mu(0.0, alpha, tau) == 0.0


def test_clock_round_trip_tiny_rate():
    # With alpha*t far below machine epsilon, 1 - exp(-alpha*t) keeps only
    # a few significant digits; the clock must still invert exactly.
    alpha, tau = 1e-12, 10.0
    for t in (1e-3, 0.5, 7.0, 123.0):
        mu = pl.mu_of_t(t, alpha, tau)
        assert mu == pytest.approx(tau * alpha * t, rel=1e-9)
        assert pl.kappa_of_mu(mu, alpha, tau) == pytest.approx(t, rel=1e-14)


def test_rate_product_is_one():
    alpha, tau = 0.3, 5.0
    for t in (0.0, 0.7, 2.0, 4.0, 4.9):
        mu = pl.mu_of_t(t, alpha, tau)
        product = pl.mu_dot_of_t(t, alpha, tau) * pl.kappa_prime_of_mu(mu, alpha, tau)
        assert product == pytest.approx(1.0, abs=1e-12)


def test_mu_derivative_law_vs_finite_difference():
    alpha, tau, t, h = 0.2, 8.0, 1.5, 1e-5
    fd = (pl.mu_dot_of_t(t + h, alpha, tau) - pl.mu_dot_of_t(t - h, alpha, tau)) / (
        2 * h
    )
    assert pl.mu_derivative(2, t, alpha, tau) == pytest.approx(fd, rel=1e-8)
    fd3 = (
        pl.mu_derivative(2, t + h, alpha, tau) - pl.mu_derivative(2, t - h, alpha, tau)
    ) / (2 * h)
    assert pl.mu_derivative(3, t, alpha, tau) == pytest.approx(fd3, rel=1e-8)


def test_kappa_second_derivative_is_positive():
    # kappa_prime = (1/alpha)/(tau - mu) is increasing in mu, so every
    # higher derivative of kappa is positive; a finite difference of
    # kappa_prime is the independent check.
    alpha, tau, mu, h = 0.3, 5.0, 2.0, 1e-6
    fd = (
        pl.kappa_prime_of_mu(mu + h, alpha, tau)
        - pl.kappa_prime_of_mu(mu - h, alpha, tau)
    ) / (2 * h)
    law = pl.kappa_derivative(2, mu, alpha, tau)
    assert fd > 0
    assert law == pytest.approx(fd, rel=1e-8)
    for i in range(1, 6):
        assert pl.kappa_derivative(i, mu, alpha, tau) > 0


def test_kappa_derivative_factorial_law():
    alpha, tau, mu = 0.11, 7.0, 3.0
    kp = pl.kappa_prime_of_mu(mu, alpha, tau)
    for i in range(1, 7):
        expected = alpha ** (i - 1) * math.factorial(i - 1) * kp ** i
        assert pl.kappa_derivative(i, mu, alpha, tau) == pytest.approx(
            expected, rel=1e-15
        )


def test_clock_domain_errors():
    with pytest.raises(ValueError):
        pl.mu_of_t(1.0, -0.1, 10.0)
    with pytest.raises(ValueError):
        pl.kappa_of_mu(10.0, 0.1, 10.0)
    with pytest.raises(ValueError):
        pl.kappa_prime_of_mu(-0.5, 0.1, 10.0)
    with pytest.raises(ValueError):
        pl.mu_derivative(0, 1.0, 0.1, 10.0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        pl.kappa_prime_of_mu(1.0, math.nan, 10.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        pl.mu_of_t(1.0, 0.1, math.nan)
    with pytest.raises(ValueError, match="alpha must be positive"):
        pl.alternating_toeplitz(3, math.nan)
    for t in (-1.0, -5e-324, math.nan, -math.inf):
        with pytest.raises(ValueError, match="t must be"):
            pl.mu_of_t(t, 0.1, 10.0)
    with pytest.raises(ValueError, match="t must be a number"):
        pl.mu_dot_of_t(math.nan, 0.1, 10.0)
    # A central difference at t = 0 samples the rate at t < 0.
    assert pl.mu_dot_of_t(-1e-4, 0.1, 10.0) > pl.mu_dot_of_t(0.0, 0.1, 10.0)


def test_alternating_toeplitz_entries():
    a = pl.alternating_toeplitz(4, 0.5)
    for i in range(4):
        for j in range(4):
            expected = (-0.5) ** (i - j) if i >= j else 0.0
            assert a[i, j] == expected


def test_stirling_matrices_are_lower_triangular():
    s = pl.first_kind_matrix(5)
    S = pl.second_kind_matrix(5)
    assert np.allclose(np.triu(s, 1), 0)
    assert np.allclose(np.triu(S, 1), 0)
    assert s[4, 2] == pl.stirling_first(4, 2)
    assert S[4, 2] == pl.stirling_second(4, 2)
    assert s[0, 0] == S[0, 0] == 1


def test_transform_mutual_inverse():
    for t in (0.0, 2.0, 5.0, 8.0):
        mats = pl.build_transform_matrices(4, 0.1, 10.0, t)
        fwd = mats.forward_map()
        inv = mats.inverse_map()
        assert np.max(np.abs(fwd @ inv - np.eye(4))) < 1e-12
        assert np.max(np.abs(inv @ fwd - np.eye(4))) < 1e-12


def test_transform_signed_inverse_would_fail():
    # Regression guard: using the signed Toeplitz factor on the inverse
    # side breaks the round trip at first order in alpha.
    mats = pl.build_transform_matrices(4, 0.1, 10.0, 2.0)
    m_inv = np.diag(1.0 / np.diag(mats.M))
    wrong = mats.A * (m_inv @ mats.s)
    assert np.max(np.abs(mats.forward_map() @ wrong - np.eye(4))) > 1e-3


def test_transform_norm_bounds():
    # Spectral-norm bounds on the three transform factors:
    # ||s_n|| <= sqrt(n)*(n-1)!, ||S_n|| <= sqrt(n)*B(n-1),
    # ||A_n|| <= sqrt(n)*sum(alpha**i, i=0..n-1).
    for n in range(1, 9):
        for alpha in (0.05, 0.5, 1.0, 2.0):
            mats = pl.build_transform_matrices(n, alpha, 10.0, 1.0)
            root_n = math.sqrt(n)
            assert np.linalg.norm(mats.s, 2) <= root_n * math.factorial(n - 1) + 1e-9
            assert np.linalg.norm(mats.S, 2) <= root_n * pl.bell_number(n - 1) + 1e-9
            geo = sum(alpha ** i for i in range(n))
            assert np.linalg.norm(mats.A, 2) <= root_n * geo + 1e-9


def test_hadamard_norm_inequality():
    # ||A o B||_2 <= ||A||_2 * ||B||_2 for the entrywise product.
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        lhs = np.linalg.norm(a * b, 2)
        rhs = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        assert lhs <= rhs * (1 + 1e-12)


def test_unsigned_toeplitz_is_absolute_value_of_signed():
    a = pl.alternating_toeplitz(5, 0.3)
    assert np.allclose(_unsigned_toeplitz(5, 0.3), np.abs(a))


def test_build_transform_matrices_validation():
    with pytest.raises(ValueError):
        pl.build_transform_matrices(3, 0.1, 10.0, 10.0)
    with pytest.raises(ValueError):
        pl.build_transform_matrices(0, 0.1, 10.0, 0.0)


def test_matrices_are_read_only():
    mats = pl.build_transform_matrices(3, 0.1, 10.0, 1.0)
    with pytest.raises(ValueError):
        mats.S[0, 0] = 5.0
    with pytest.raises(ValueError):
        pl.first_kind_matrix(3)[0, 0] = 5.0

"""Certification of simulated traces and verification of the time-scale map.

Two decreasing-envelope properties can be certified from samples of
``||x(t)||`` against the triangular function ``Lambda(s) = max(1 - s, 0)``:

* stability: ``||x(t)|| <= sigma * ||x0|| * Lambda(t/tau)`` for all
  samples, for some ``sigma > 1``;
* attractivity: ``||x(t)|| <= varsigma * Lambda(t/tau)`` for all samples
  past some onset time ``t0 < tau``.

On a finite sample grid the attractivity inequality alone is vacuous: any
bounded trace satisfies it with ``varsigma`` equal to the largest observed
ratio. The certifier therefore pins ``varsigma`` at the onset: ``t0`` is
the first sample whose ratio ``||x||/Lambda`` is never exceeded later, so
the certified envelope is the one already attained when the bound starts,
not one reverse-engineered from the worst sample. A convergence gate on
the final norm rejects traces that never actually shrink.

Traces produced by this package carry their design mode in metadata. A
design built with a nonzero disturbance offset can only promise
attractivity, so such traces are never upgraded to a stable verdict even
when the numbers would pass; traces without a mode, such as a bare CSV,
are graded on the numbers alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    build_transform_matrices,
    kappa_derivative,
    kappa_of_mu,
    kappa_prime_of_mu,
    mu_derivative,
    mu_dot_of_t,
    mu_of_t,
)
from .errors import TraceFormatError
from .sim import SimTrace

__all__ = [
    "StabilityCertificate",
    "MappingReport",
    "InputBoundednessReport",
    "certify",
    "verify_mapping",
    "check_input_boundedness",
]

# Samples with Lambda at or below this are the clamped branch; a ratio
# against them certifies nothing and division by them only amplifies noise.
LAMBDA_CLAMP = 1e-9

# Reporting gates for a stable verdict and the shared convergence gate for
# an attractive one. These are artifact thresholds, not theory.
STABLE_FINAL_FRACTION = 1e-2
STABLE_SIGMA_LIMIT = 1e6
ATTRACTIVE_FINAL_FRACTION = 1e-1

# Certified constants are strict inequalities in the definitions, so fitted
# values are nudged up by a relative hair before being reported.
FIT_NUDGE = 1e-12
SIGMA_FLOOR = 1.0 + 1e-9


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of grading one trace.

    ``sigma`` is always the fitted ratio ``max ||x||/(||x0||*Lambda)`` over
    usable samples (floored at just above 1 when the verdict is stable);
    ``varsigma`` and ``t0`` are set only for an attractive verdict;
    ``margin`` is the smallest gap between the certified envelope and the
    samples it covers, nonnegative whenever a verdict was issued.
    """

    verdict: str
    sigma: float | None
    varsigma: float | None
    t0: float | None
    margin: float | None
    final_norm: float
    x0_norm: float
    tau: float
    samples_used: int


def certify(trace: SimTrace) -> StabilityCertificate:
    """Grade a trace as triangularly stable, attractive, or inconclusive.

    The grade uses the trace's own ``tau``, ``x0_norm`` and ``mode``
    metadata and its derived ``norms`` and ``lambda_values``. The verdict
    ladder is:

    1. stable, when the design mode permits it, the final norm is below
       ``1e-2 * x0_norm``, and the fitted sigma is finite and moderate;
    2. attractive, when the trace converges (final norm below
       ``0.1 * x0_norm``) and some sample's ratio to the envelope is never
       exceeded afterwards, no later than 90% of the recorded horizon;
    3. inconclusive otherwise. Verdicts never extrapolate beyond samples.
    """
    meta = trace.metadata
    x0n = float(meta["x0_norm"])
    tau_v = float(meta["tau"])
    norms = trace.norms
    lam = trace.lambda_values
    final_norm = float(norms[-1])
    mode = meta.get("mode")

    included = lam > LAMBDA_CLAMP
    samples_used = int(np.count_nonzero(included))
    if samples_used == 0:
        raise TraceFormatError("no usable samples: every Lambda value is clamped")
    # Clamped-branch samples certify nothing unless the state there is
    # exactly zero; a nonzero norm against Lambda = 0 defeats any envelope.
    clamped_ok = not bool(np.any(norms[~included] > 0.0))

    lam_in = lam[included]
    norms_in = norms[included]
    times_in = trace.times[included]

    if x0n > 0.0:
        sigma_fit = float(np.max(norms_in / (x0n * lam_in)))
    else:
        sigma_fit = math.inf if bool(np.any(norms_in > 0.0)) else 0.0

    if (
        mode != "attractive"
        and clamped_ok
        and final_norm <= STABLE_FINAL_FRACTION * x0n
        and sigma_fit < STABLE_SIGMA_LIMIT
    ):
        sigma = max(sigma_fit * (1.0 + FIT_NUDGE), SIGMA_FLOOR)
        margin = float(np.min(sigma * x0n * lam_in - norms_in))
        return StabilityCertificate(
            verdict="triangularly_stable",
            sigma=sigma,
            varsigma=None,
            t0=None,
            margin=margin,
            final_norm=final_norm,
            x0_norm=x0n,
            tau=tau_v,
            samples_used=samples_used,
        )

    if clamped_ok and final_norm <= ATTRACTIVE_FINAL_FRACTION * x0n:
        ratio = norms_in / lam_in
        tail_max = np.maximum.accumulate(ratio[::-1])[::-1]
        never_exceeded = ratio * (1.0 + FIT_NUDGE) >= tail_max
        eligible = never_exceeded & (times_in <= 0.9 * times_in[-1])
        idx = np.nonzero(eligible)[0]
        if idx.size > 0:
            k = int(idx[0])
            varsigma = float(ratio[k]) * (1.0 + FIT_NUDGE)
            if varsigma <= 0.0:
                varsigma = FIT_NUDGE
            t0 = float(times_in[k])
            covered = slice(k, None)
            margin = float(np.min(varsigma * lam_in[covered] - norms_in[covered]))
            return StabilityCertificate(
                verdict="triangularly_attractive",
                sigma=sigma_fit,
                varsigma=varsigma,
                t0=t0,
                margin=margin,
                final_norm=final_norm,
                x0_norm=x0n,
                tau=tau_v,
                samples_used=samples_used,
            )

    return StabilityCertificate(
        verdict="inconclusive",
        sigma=sigma_fit if math.isfinite(sigma_fit) else None,
        varsigma=None,
        t0=None,
        margin=None,
        final_norm=final_norm,
        x0_norm=x0n,
        tau=tau_v,
        samples_used=samples_used,
    )


@dataclass(frozen=True)
class MappingReport:
    """Worst-case errors of the time-scale map identities over the samples.

    All fields named ``max_*`` are absolute errors normalized by the scale
    of the quantity they check; ``ok`` is True when every one of them is
    inside its tolerance.
    """

    n: int
    alpha: float
    tau: float
    sample_times: tuple[float, ...]
    max_round_trip_error: float
    max_rate_product_error: float
    max_mu_derivative_error: float
    max_kappa_derivative_error: float
    max_composition_error: float
    max_fd_crosscheck_error: float
    ok: bool


def verify_mapping(
    n: int,
    alpha: float,
    tau: float,
    sample_times: tuple[float, ...] | None = None,
) -> MappingReport:
    """Check the clock identities and transform composition numerically.

    At each sample ``t`` this verifies, against symbolic differentiation
    of the closed forms (and a central finite difference as an independent
    crosscheck of the second derivative):

    * round trip ``kappa(mu(t)) = t``,
    * reciprocal rates ``mu_dot(t) * kappa_prime(mu(t)) = 1``,
    * the derivative laws for ``mu`` and ``kappa`` up to order ``n``,
    * ``forward_map @ inverse_map = identity`` and its reverse.

    Symbolic machinery loads lazily, so importing this module stays cheap.
    """
    import sympy as sp

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (alpha > 0 and tau > 0):
        raise ValueError(f"alpha and tau must be positive, got {alpha}, {tau}")
    if sample_times is None:
        sample_times = tuple(f * tau for f in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9))
    for t in sample_times:
        if not 0.0 <= t < tau:
            raise ValueError(f"sample t={t} outside [0, tau)")

    t_sym, mu_sym = sp.symbols("t mu")
    mu_expr = tau * (1 - sp.exp(-alpha * t_sym))
    kappa_expr = -sp.log(1 - mu_sym / tau) / alpha
    mu_diffs = [
        sp.lambdify(t_sym, sp.diff(mu_expr, t_sym, i), "math")
        for i in range(1, n + 1)
    ]
    kappa_diffs = [
        sp.lambdify(mu_sym, sp.diff(kappa_expr, mu_sym, i), "math")
        for i in range(1, n + 1)
    ]

    e_round = 0.0
    e_rate = 0.0
    e_mu = 0.0
    e_kappa = 0.0
    e_comp = 0.0
    e_fd = 0.0
    eye = np.eye(n)
    for t in sample_times:
        mu = mu_of_t(t, alpha, tau)
        e_round = max(e_round, abs(kappa_of_mu(mu, alpha, tau) - t) / max(1.0, abs(t)))
        e_rate = max(
            e_rate,
            abs(mu_dot_of_t(t, alpha, tau) * kappa_prime_of_mu(mu, alpha, tau) - 1.0),
        )
        for i in range(1, n + 1):
            law = mu_derivative(i, t, alpha, tau)
            sym = float(mu_diffs[i - 1](t))
            e_mu = max(e_mu, abs(law - sym) / max(1.0, abs(sym)))
            law_k = kappa_derivative(i, mu, alpha, tau)
            sym_k = float(kappa_diffs[i - 1](mu))
            e_kappa = max(e_kappa, abs(law_k - sym_k) / max(1.0, abs(sym_k)))

        # Central finite difference of mu_dot and kappa_prime as an oracle
        # for the i = 2 laws, independent of the symbolic route.
        h = 1e-5 * tau
        if n >= 2:
            fd_mu = (
                mu_dot_of_t(t + h, alpha, tau) - mu_dot_of_t(t - h, alpha, tau)
            ) / (2.0 * h)
            law2 = mu_derivative(2, t, alpha, tau)
            e_fd = max(e_fd, abs(fd_mu - law2) / max(1.0, abs(law2)))
            hk = min(1e-5 * tau, 0.25 * (tau - mu))
            if mu - hk >= 0.0:
                fd_k = (
                    kappa_prime_of_mu(mu + hk, alpha, tau)
                    - kappa_prime_of_mu(mu - hk, alpha, tau)
                ) / (2.0 * hk)
                law2k = kappa_derivative(2, mu, alpha, tau)
                e_fd = max(e_fd, abs(fd_k - law2k) / max(1.0, abs(law2k)))

        mats = build_transform_matrices(n, alpha, tau, t)
        fwd = mats.forward_map()
        inv = mats.inverse_map()
        e_comp = max(
            e_comp,
            float(np.max(np.abs(fwd @ inv - eye))),
            float(np.max(np.abs(inv @ fwd - eye))),
        )

    ok = (
        e_round <= 1e-10
        and e_rate <= 1e-10
        and e_mu <= 1e-9
        and e_kappa <= 1e-9
        and e_comp <= 1e-10
        and e_fd <= 1e-6
    )
    return MappingReport(
        n=n,
        alpha=alpha,
        tau=tau,
        sample_times=tuple(float(t) for t in sample_times),
        max_round_trip_error=e_round,
        max_rate_product_error=e_rate,
        max_mu_derivative_error=e_mu,
        max_kappa_derivative_error=e_kappa,
        max_composition_error=e_comp,
        max_fd_crosscheck_error=e_fd,
        ok=ok,
    )


@dataclass(frozen=True)
class InputBoundednessReport:
    """Head/tail comparison of |u| showing the input stays finite near tau."""

    head_max: float
    tail_max: float
    ok: bool


def check_input_boundedness(trace: SimTrace) -> InputBoundednessReport:
    """Check that |u| near the deadline stays within 10x its earlier peak.

    The head window is ``[0, 0.9*tau]`` and the tail is everything after;
    a controller that works keeps pumping bounded effort as the gains blow
    up because the state shrinks faster than the gains grow.
    """
    head_end = 0.9 * float(trace.metadata["tau"])
    u_abs = np.abs(trace.inputs)
    head = u_abs[trace.times <= head_end]
    tail = u_abs[trace.times > head_end]
    head_max = float(np.max(head)) if head.size else 0.0
    tail_max = float(np.max(tail)) if tail.size else 0.0
    ok = tail_max <= 10.0 * head_max + 1e-12
    return InputBoundednessReport(head_max=head_max, tail_max=tail_max, ok=ok)

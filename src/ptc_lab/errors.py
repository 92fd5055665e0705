"""Exception hierarchy shared across the toolkit.

Every error raised on a user-reachable path derives from :class:`PtcLabError`
so callers can catch one base class. The command-line layer maps these onto
process exit codes; the mapping is documented in :mod:`ptc_lab.cli`.
"""

from __future__ import annotations

__all__ = [
    "PtcLabError",
    "InfeasibleDesignError",
    "SingularityError",
    "AssumptionViolationError",
    "DivergenceError",
    "ScenarioError",
    "TraceFormatError",
]


class PtcLabError(Exception):
    """Base class for all toolkit errors."""


class InfeasibleDesignError(PtcLabError):
    """The requested controller design violates a feasibility condition.

    Raised when the feedback coefficients are not Hurwitz or when an
    explicitly supplied time-scale rate exceeds its admissible bound.
    """


class SingularityError(PtcLabError):
    """The control law was queried inside the terminal guard band."""


class AssumptionViolationError(PtcLabError):
    """The disturbance left its declared envelope during simulation."""


class DivergenceError(PtcLabError):
    """A simulated state or input crossed the divergence threshold.

    The partially recorded trace, when available, is attached as ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class ScenarioError(PtcLabError):
    """A scenario file is malformed or contains unknown or invalid keys."""


class TraceFormatError(PtcLabError):
    """A stored trace file does not conform to the CSV schema."""

"""Recursive sparse recovery from few noisy linear measurements.

The estimator tracked here reconstructs a time sequence of sparse vectors by
running a Dantzig-selector solve on the least-squares residual formed from the
previous support estimate, then refining the support with detection and
deletion thresholds.  The package also ships the closed-form error bounds and
stability condition checkers that go with the estimator, plus a seeded Monte
Carlo harness.
"""

__version__ = "0.1.0"

from .core import SupportSet, support_of
from .measurement import (
    MeasurementMatrix,
    RipTable,
    delta_exhaustive,
    delta_sampled,
    gen_gaussian_matrix,
    theta_exhaustive,
    theta_sampled,
)
from .solver import DsSolution, LsSolveError, SelectorLP, ls_on_support, solve_dantzig

__all__ = [
    "SupportSet",
    "support_of",
    "MeasurementMatrix",
    "RipTable",
    "gen_gaussian_matrix",
    "delta_exhaustive",
    "theta_exhaustive",
    "delta_sampled",
    "theta_sampled",
    "DsSolution",
    "LsSolveError",
    "SelectorLP",
    "solve_dantzig",
    "ls_on_support",
    "__version__",
]

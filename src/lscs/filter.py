"""Recursive support-tracking estimator and its baselines.

One time step, given the previous support estimate T:

1. least squares on T and the measurement residual it leaves,
2. Dantzig-selector solve on that residual, added back to the LS estimate,
3. detection: threshold the combined estimate to grow the support,
4. least squares on the grown support,
5. deletion: threshold that estimate to shrink the support,
6. final least squares on the surviving support.

Least squares in steps 4 and 6 on the support of the stage before reuses
that stage's estimate: the inputs, and so the bits, are the same.

Detection uses a strict ``>`` and deletion uses ``<=``, so a value exactly at
the detection threshold is not added while one exactly at the deletion
threshold is removed.

Also here: the oracle baseline (least squares on the true support) and the
one-shot solve-threshold-refit estimator of the t=0 initialization.  The
per-step ``simple_cs`` baseline is a plain selector solve that the harness runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SupportSet, magnitude_order
from .measurement import MeasurementMatrix
from .solver import DantzigNumericsError, LsSolveError, ls_on_support, solve_dantzig

@dataclass(frozen=True)
class FilterConfig:
    lam: float
    alpha: float
    alpha_del: float
    max_additions_per_step: int | None = None

    def __post_init__(self):
        if not all(0 <= x < np.inf for x in (self.lam, self.alpha, self.alpha_del)):
            raise ValueError("lam, alpha, alpha_del must be finite and nonnegative")
        if self.max_additions_per_step is not None and self.max_additions_per_step < 0:
            raise ValueError("max_additions_per_step must be nonnegative")


@dataclass(frozen=True)
class FilterState:
    support_estimate: SupportSet
    x_hat: np.ndarray


@dataclass
class StepDiagnostics:
    """What one step computed, stage by stage; a stage that did not run
    leaves its field ``None``.  It carries no ground truth:
    :func:`lscs.bounds.runtime_step_checks` compares it with the signal."""

    T_prev: SupportSet
    x_init: np.ndarray | None = None
    x_csres: np.ndarray | None = None
    T_det: SupportSet | None = None
    x_det: np.ndarray | None = None
    final_support: SupportSet | None = None
    x_final: np.ndarray | None = None
    failed_stage: str | None = None
    failure: str | None = None


def initial_ls_residual(
    A: MeasurementMatrix, T: SupportSet, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """LS estimate on T (zero off T) and the residual it leaves in y."""
    x_init = ls_on_support(A, T, y)
    y_res = np.asarray(y, dtype=float) - A.entries @ x_init
    return x_init, y_res


def cs_residual_estimate(
    A: MeasurementMatrix, x_init: np.ndarray, y_res: np.ndarray, lam: float
) -> np.ndarray:
    """Dantzig-selector solve on the residual, added back to the LS estimate."""
    return solve_dantzig(A, y_res, lam).zeta_hat + x_init


def detect(x_csres: np.ndarray, T: SupportSet, cfg: FilterConfig) -> SupportSet:
    """Grow T with the off-support entries of the combined estimate above
    ``alpha``, keeping the largest ``max_additions_per_step`` of them."""
    x_csres = np.asarray(x_csres, dtype=float)
    crossing = [i for i in T.complement() if abs(x_csres[i]) > cfg.alpha]
    if cfg.max_additions_per_step is not None and len(crossing) > cfg.max_additions_per_step:
        ranked = magnitude_order(x_csres, SupportSet(crossing, T.m))
        crossing = list(ranked[: cfg.max_additions_per_step])
    return T | SupportSet(crossing, T.m)


def delete(x_det: np.ndarray, T_det: SupportSet, alpha_del: float) -> SupportSet:
    """Drop entries of the detected support at or below the deletion threshold."""
    x_det = np.asarray(x_det, dtype=float)
    keep = [i for i in T_det if abs(x_det[i]) > alpha_del]
    return SupportSet(keep, T_det.m)


def genie_ls(A: MeasurementMatrix, N: SupportSet, y: np.ndarray) -> np.ndarray:
    """Least squares on the true support; the oracle baseline."""
    return ls_on_support(A, N, y)


def simple_cs(
    A: MeasurementMatrix, y: np.ndarray, lam: float, alpha: float
) -> tuple[np.ndarray, SupportSet]:
    """One-shot estimate: selector solve, support threshold, LS refit.

    Returns the refit estimate and its support.  Used only as the t=0
    initialization, with a taller matrix.
    """
    zeta = solve_dantzig(A, y, lam).zeta_hat
    support = SupportSet([i for i in range(A.m) if abs(zeta[i]) > alpha], A.m)
    x_hat = ls_on_support(A, support, y)
    return x_hat, support


def lscs_step(
    state: FilterState,
    A: MeasurementMatrix,
    y: np.ndarray,
    cfg: FilterConfig,
) -> tuple[FilterState, StepDiagnostics]:
    """Advance the estimator one time step.

    On a stage failure (ill-conditioned least squares, selector breakdown) the
    step keeps the previous support estimate, reports the stage in the
    diagnostics, and carries the best estimate computed so far.
    """
    T = state.support_estimate
    diag = StepDiagnostics(T_prev=T)

    def fallback(stage: str, exc: Exception) -> tuple[FilterState, StepDiagnostics]:
        diag.failed_stage = stage
        diag.failure = str(exc)
        x_hat = diag.x_init if diag.x_init is not None else state.x_hat
        diag.final_support = T
        diag.x_final = x_hat
        return FilterState(T, x_hat), diag

    try:
        diag.x_init, y_res = initial_ls_residual(A, T, y)
    except LsSolveError as exc:
        return fallback("initial_ls", exc)
    try:
        diag.x_csres = cs_residual_estimate(A, diag.x_init, y_res, cfg.lam)
    except DantzigNumericsError as exc:
        return fallback("cs_residual", exc)
    diag.T_det = detect(diag.x_csres, T, cfg)
    try:
        diag.x_det = diag.x_init if diag.T_det == T else ls_on_support(A, diag.T_det, y)
    except LsSolveError as exc:
        return fallback("detect_ls", exc)
    diag.final_support = delete(diag.x_det, diag.T_det, cfg.alpha_del)
    try:
        diag.x_final = (diag.x_det if diag.final_support == diag.T_det
                        else ls_on_support(A, diag.final_support, y))
    except LsSolveError as exc:
        return fallback("final_ls", exc)
    return FilterState(diag.final_support, diag.x_final), diag

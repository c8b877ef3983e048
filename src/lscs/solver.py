"""Dantzig selector as a linear program, and least squares on a column subset.

The selector minimises ``||zeta||_1`` subject to ``||A'(y - A zeta)||_inf <=
lambda``.  Splitting ``zeta = p - q`` with ``p, q >= 0`` and naming the
correlation residual ``r = g - G(p - q)`` turns this into an LP with 3m
variables and m equality rows:

    min 1'(p + q)   s.t.   G(p - q) + r = g,   p, q >= 0,   -lambda <= r <= lambda

where ``G = A'A`` and ``g = A'y``.  The box on ``r`` is exactly the constraint
``||g - G zeta||_inf <= lambda``, so the program has the selector's feasible
set, and HiGHS keeps the two-sided bound as a variable box instead of two
inequality rows per coordinate.  At any optimum ``min(p_i, q_i) = 0``: ``r`` depends on
``p - q`` only, so shrinking both coordinates by their minimum keeps every
constraint and lowers the objective.  The objective therefore equals the l1
norm.  The program is solved with HiGHS via scipy, which is deterministic for
fixed input.

The constraint is stated with ``<=`` although the original program uses a
strict inequality: the closed program is well posed and has the same optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .core import SupportSet
from .measurement import MeasurementMatrix

#: cap on cond(A_T' A_T); past this the normal equations are too ill-conditioned
#: for the estimate to mean anything and the caller must treat the step as failed
DEFAULT_GRAM_CONDITION_CAP = 1e8

_FEASIBILITY_TOL = 1e-9


class LsSolveError(RuntimeError):
    """Least squares on a support failed (too many columns or ill-conditioned)."""

    def __init__(self, message: str, condition_number: float = float("inf")):
        super().__init__(message)
        self.condition_number = condition_number


class DantzigNumericsError(RuntimeError):
    """The LP backend returned a solution violating the feasibility contract."""


class DantzigStatusError(RuntimeError):
    """A selector solve ended with a status other than ``"optimal"``."""


@dataclass(frozen=True)
class DsSolution:
    """Dantzig selector output.

    ``objective`` is recomputed from ``zeta_hat`` and ``max_correlation`` is
    the achieved ``||A'(y - A zeta_hat)||_inf``.  ``status`` is one of
    ``"optimal"``, ``"infeasible"``, ``"budget_exceeded"``.
    """

    zeta_hat: np.ndarray
    objective: float
    max_correlation: float
    status: str


def solve_dantzig(
    A: MeasurementMatrix,
    y: np.ndarray,
    lam: float,
    max_iterations: int | None = None,
) -> DsSolution:
    """Solve ``min ||zeta||_1  s.t.  ||A'(y - A zeta)||_inf <= lam``.

    ``max_iterations`` caps the HiGHS simplex iterations of the equality-form
    LP described in the module docstring; past the cap the status is
    ``"budget_exceeded"``.  The equality form takes more, cheaper iterations
    than a 2m-row inequality form of the same program (about 2.5 times as
    many on static-table problems), so a budget chosen for one does not carry
    over to the other.
    """
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if y.shape != (A.n,):
        raise ValueError(f"y must have shape ({A.n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")

    g = A.entries.T @ y
    m = A.m
    if lam >= np.max(np.abs(g), initial=0.0):
        # zero is feasible and l1-minimal
        return DsSolution(np.zeros(m), 0.0, float(np.max(np.abs(g), initial=0.0)), "optimal")

    G = A.gram()
    cost = np.concatenate([np.ones(2 * m), np.zeros(m)])
    a_eq = np.hstack([G, -G, np.eye(m)])
    bounds = [(0, None)] * (2 * m) + [(-lam, lam)] * m
    options = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    if max_iterations is not None:
        options["maxiter"] = int(max_iterations)
    res = linprog(cost, A_eq=a_eq, b_eq=g, bounds=bounds, method="highs", options=options)

    if res.status == 1:
        return DsSolution(np.zeros(m), float("nan"), float("nan"), "budget_exceeded")
    if res.status != 0:
        return DsSolution(np.zeros(m), float("nan"), float("nan"), "infeasible")

    zeta = res.x[:m] - res.x[m:2 * m]
    max_corr = float(np.max(np.abs(g - G @ zeta)))
    if max_corr > lam + _FEASIBILITY_TOL:
        raise DantzigNumericsError(
            f"constraint violation {max_corr - lam:.3e} exceeds tolerance"
        )
    return DsSolution(zeta, float(np.sum(np.abs(zeta))), max_corr, "optimal")


def optimal_zeta(sol: DsSolution) -> np.ndarray:
    """The estimate of an optimal solve.

    A non-optimal :class:`DsSolution` carries an all-zero placeholder that
    must never be scored as an estimate, so any other status raises
    :class:`DantzigStatusError`.
    """
    if sol.status != "optimal":
        raise DantzigStatusError(f"selector solve ended with status {sol.status}")
    return sol.zeta_hat


def ls_on_support(
    A: MeasurementMatrix,
    T: SupportSet,
    y: np.ndarray,
    cond_cap: float = DEFAULT_GRAM_CONDITION_CAP,
) -> np.ndarray:
    """Least squares restricted to the columns in ``T``, zero elsewhere.

    Raises :class:`LsSolveError` when ``|T| > n`` or when ``cond(A_T' A_T)``
    exceeds ``cond_cap``; the error carries the condition number.
    """
    y = np.asarray(y, dtype=float)
    if T.m != A.m:
        raise ValueError("support ambient dimension does not match the matrix")
    x = np.zeros(A.m)
    if len(T) == 0:
        return x
    if len(T) > A.n:
        raise LsSolveError(f"|T| = {len(T)} exceeds n = {A.n}")
    cols = A.columns(T)
    coef, _, rank, sv = np.linalg.lstsq(cols, y, rcond=None)
    if rank < len(T):
        raise LsSolveError(f"A_T is rank deficient (rank {rank} < {len(T)})")
    gram_cond = float((sv[0] / sv[-1]) ** 2)
    if gram_cond > cond_cap:
        raise LsSolveError(
            f"cond(A_T'A_T) = {gram_cond:.3e} exceeds cap {cond_cap:.3e}",
            condition_number=gram_cond,
        )
    x[T.to_array()] = coef
    return x

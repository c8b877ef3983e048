"""Dantzig selector as a linear program, and least squares on a column subset.

The selector minimises ``||zeta||_1`` subject to ``||A'(y - A zeta)||_inf <=
lambda``.  Splitting ``zeta = p - q`` with ``p, q >= 0`` turns this into an
LP with 2m columns and m ranged rows:

    min 1'(p + q)   s.t.   g - lambda <= G(p - q) <= g + lambda,   p, q >= 0

where ``G = A'A`` and ``g = A'y``.  The two-sided row bound is exactly the
constraint ``||g - G zeta||_inf <= lambda``, so HiGHS keeps it as one ranged
row per coordinate instead of two inequality rows, with no slack columns.
At any optimum ``min(p_i, q_i) = 0``: the rows depend on ``p - q`` only, so
shrinking both coordinates by their minimum keeps every constraint and lowers
the objective.  The objective therefore equals the l1 norm.

The program goes to HiGHS through ``scipy.optimize.milp`` with no integer
variables, which makes it a pure LP; ``linprog`` has no way to pass ranged
rows.  Presolve is off: the rows of a dense ``G`` leave it nothing to remove,
and it only adds time.  Scaling is off too.  The columns of ``A`` have unit
norm, so ``G`` has a unit diagonal and entries in ``[-1, 1]`` and there is
nothing to equilibrate.  Unscaled, the primal feasibility tolerance of 1e-10
applies to the rows exactly as stated, which is what the post-solve check
``||g - G zeta||_inf <= lambda + 1e-9`` measures; with HiGHS's default
scaling a row of one tracking LP ended 2.8e-9 past ``lambda``.

``milp`` accepts just a few options of its own but hands every other key to
HiGHS verbatim, which is how the scaling switch, the feasibility tolerances
and the simplex iteration limit reach the solver; the ``RuntimeWarning`` it
raises about those keys is silenced for that call alone.  HiGHS is
deterministic for fixed input.

The constraint is stated with ``<=`` although the original program uses a
strict inequality: the closed program is well posed and has the same optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

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

    ``max_iterations`` is the HiGHS ``simplex_iteration_limit`` on the
    ranged-row LP described in the module docstring; past the cap the status
    is ``"budget_exceeded"``.  Iteration counts depend on the form of the
    program, so a budget chosen for another form does not carry over.
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
    options = {
        "presolve": False,
        "simplex_scale_strategy": 0,
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    if max_iterations is not None:
        options["simplex_iteration_limit"] = int(max_iterations)
    with warnings.catch_warnings():
        # every key but presolve passes to HiGHS verbatim; milp only warns about them
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(
            np.ones(2 * m),
            constraints=LinearConstraint(np.hstack([G, -G]), g - lam, g + lam),
            bounds=Bounds(0.0, np.inf),
            options=options,
        )

    if res.status == 1:
        return DsSolution(np.zeros(m), float("nan"), float("nan"), "budget_exceeded")
    if res.status != 0:
        return DsSolution(np.zeros(m), float("nan"), float("nan"), "infeasible")

    zeta = res.x[:m] - res.x[m:]
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

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

The program is loaded into a HiGHS instance of scipy's bundled bindings
(``scipy.optimize._highspy``) as numpy arrays: the column-wise ``[G, -G]``
with its zeros dropped, unit costs, and the row bounds ``g -+ lambda``.
``scipy.optimize.milp`` solves the same program, but copies the matrix into
HiGHS element by element, which took about half of each solve at m = 200.

Presolve is off: the rows of a dense ``G`` leave it nothing to remove, and it
only adds time.  Scaling is off too.  The columns of ``A`` have unit norm, so
``G`` has a unit diagonal and entries in ``[-1, 1]`` and there is nothing to
equilibrate.  Unscaled, the primal feasibility tolerance of 1e-10 applies to
the rows exactly as stated, which is what the post-solve check
``||g - G zeta||_inf <= lambda + 1e-9`` measures; with HiGHS's default
scaling a row of one tracking LP ended 2.8e-9 past ``lambda``.  HiGHS is
deterministic for fixed input.

A solve takes one of two paths.  The cold path loads the program into a
fresh instance, so a call depends on its arguments alone.  The warm path
keeps one instance per :class:`SelectorLP` handle: the constraint matrix and
costs depend on ``A`` only, so a solve for a new ``y`` or ``lambda`` resets
the row bounds and the simplex starts from the basis of the handle's
previous solve.  A warm run that is not optimal, or whose answer fails the
feasibility check, is solved again on a fresh instance, and that answer
stands.  ``max_iterations`` caps the simplex iterations of each run: of the
cold run, or of the warm run from the previous basis and then again of the
fresh run that replaces it.

The constraint is stated with ``<=`` although the original program uses a
strict inequality: the closed program is well posed and has the same optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
    kHighsIInf,
)

from .core import SupportSet
from .measurement import MeasurementMatrix

#: cap on cond(A_T' A_T); past this the normal equations are too ill-conditioned
#: for the estimate to mean anything and the caller must treat the step as failed
DEFAULT_GRAM_CONDITION_CAP = 1e8

_FEASIBILITY_TOL = 1e-9

_OPTIONS = (
    ("log_to_console", False),
    ("presolve", "off"),
    ("simplex_scale_strategy", 0),
    ("primal_feasibility_tolerance", 1e-10),
    ("dual_feasibility_tolerance", 1e-10),
)

_BUDGET_STATUSES = (HighsModelStatus.kIterationLimit, HighsModelStatus.kTimeLimit)


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
    ``"optimal"``, ``"infeasible"``, ``"budget_exceeded"``.  ``path`` names
    what answered: ``"zero_exit"`` (no LP), ``"cold"`` (a fresh instance),
    ``"warm"`` (the handle's previous basis) or ``"fallback"`` (a fresh
    instance after a rejected warm run).  ``iterations`` counts the simplex
    iterations of the call, a rejected warm run included.
    """

    zeta_hat: np.ndarray
    objective: float
    max_correlation: float
    status: str
    path: str
    iterations: int


class SelectorLP:
    """Warm-start handle for a sequence of selector solves on one matrix.

    It holds the HiGHS instance of its last LP solve, so that the next solve
    through it starts from that basis; see :func:`solve_dantzig`.
    """

    def __init__(self, A: MeasurementMatrix):
        self.A = A
        self._highs: _Highs | None = None


def _run(highs: _Highs) -> HighsModelStatus:
    """Run the simplex on a loaded instance and return its model status."""
    highs.run()
    return highs.getModelStatus()


def _solve_loaded(
    highs: _Highs, G: np.ndarray, g: np.ndarray, limit: int
) -> tuple[HighsModelStatus, np.ndarray | None, float, int]:
    """Run a loaded instance under an iteration ``limit``.  Returns the model
    status, zeta and ``||g - G zeta||_inf`` (``None`` and nan unless
    optimal) and the iteration count."""
    highs.setOptionValue("simplex_iteration_limit", limit)
    status = _run(highs)
    iterations = int(highs.getInfo().simplex_iteration_count)
    if status != HighsModelStatus.kOptimal:
        return status, None, float("nan"), iterations
    m = G.shape[0]
    x = np.asarray(highs.getSolution().col_value)
    zeta = x[:m] - x[m:]
    return status, zeta, float(np.max(np.abs(g - G @ zeta))), iterations


def _solve_fresh(
    G: np.ndarray, g: np.ndarray, lam: float, limit: int
) -> tuple[_Highs, HighsModelStatus, np.ndarray | None, float, int]:
    """Load the ranged-row LP into a fresh HiGHS instance and solve it; the
    instance comes first, then what :func:`_solve_loaded` returns."""
    m = G.shape[0]
    highs = _Highs()
    for name, value in _OPTIONS:
        if highs.setOptionValue(name, value) != HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
    # column j of [G, -G] is row j of [G; -G], because G is symmetric
    cols = np.vstack([G, -G])
    nonzero = cols != 0.0
    start = np.zeros(2 * m + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=start[1:])
    loaded = highs.passModel(
        2 * m, m, int(start[-1]), int(MatrixFormat.kColwise), int(ObjSense.kMinimize), 0.0,
        np.ones(2 * m), np.zeros(2 * m), np.full(2 * m, np.inf), g - lam, g + lam,
        # an empty integrality array is an error, so every column is marked continuous
        start, (np.flatnonzero(nonzero) % m).astype(np.int32), cols[nonzero], np.zeros(2 * m, dtype=np.int32),
    )
    if loaded == HighsStatus.kError:
        # a model HiGHS cannot load is a model error, reported as "infeasible"
        return highs, HighsModelStatus.kModelError, None, float("nan"), 0
    return (highs, *_solve_loaded(highs, G, g, limit))


def solve_dantzig(
    A: MeasurementMatrix,
    y: np.ndarray,
    lam: float,
    max_iterations: int | None = None,
    *,
    warm: SelectorLP | None = None,
) -> DsSolution:
    """Solve ``min ||zeta||_1  s.t.  ||A'(y - A zeta)||_inf <= lam``.

    With ``warm=None`` the LP is solved on a fresh HiGHS instance.  With a
    :class:`SelectorLP` handle for ``A``, the solve starts from the basis of
    the handle's previous LP solve; a warm run that is not optimal or ends
    past ``lam + 1e-9`` is solved again cold, and that answer stands.

    ``max_iterations`` is the HiGHS ``simplex_iteration_limit`` of each run
    on the ranged-row LP described in the module docstring; past the cap the
    status is ``"budget_exceeded"``.  Iteration counts depend on the form of
    the program, so a budget chosen for another form does not carry over.
    """
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if y.shape != (A.n,):
        raise ValueError(f"y must have shape ({A.n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if warm is not None and warm.A is not A:
        raise ValueError("the warm-start handle belongs to another matrix")

    g = A.entries.T @ y
    m = A.m
    peak = float(np.max(np.abs(g), initial=0.0))
    if lam >= peak:
        # zero is feasible and l1-minimal
        return DsSolution(np.zeros(m), 0.0, peak, "optimal", "zero_exit", 0)

    G = A.gram()
    limit = kHighsIInf if max_iterations is None else int(max_iterations)
    path, iterations = "cold", 0
    if warm is not None and warm._highs is not None:
        highs = warm._highs
        for i, gi in enumerate(g.tolist()):
            highs.changeRowBounds(i, gi - lam, gi + lam)
        # passing the basis back makes HiGHS factorize it afresh; run on the
        # previous run's updated factors, warm answers ended up to 6e-10 past
        # lam and 1.7e-9 from the cold answer
        highs.setBasis(highs.getBasis())
        status, zeta, max_corr, iterations = _solve_loaded(highs, G, g, limit)
        path = "warm" if zeta is not None and max_corr <= lam + _FEASIBILITY_TOL else "fallback"
    if path != "warm":
        highs, status, zeta, max_corr, fresh_iterations = _solve_fresh(G, g, lam, limit)
        iterations += fresh_iterations
    if warm is not None:
        warm._highs = highs

    if status in _BUDGET_STATUSES:
        return DsSolution(np.zeros(m), float("nan"), float("nan"), "budget_exceeded", path, iterations)
    if zeta is None:
        return DsSolution(np.zeros(m), float("nan"), float("nan"), "infeasible", path, iterations)
    if max_corr > lam + _FEASIBILITY_TOL:
        raise DantzigNumericsError(
            f"constraint violation {max_corr - lam:.3e} exceeds tolerance"
        )
    return DsSolution(zeta, float(np.sum(np.abs(zeta))), max_corr, "optimal", path, iterations)


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

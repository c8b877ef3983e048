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

A :class:`SelectorLP` handle owns the program of one matrix.  The
constraint matrix and costs depend on ``A`` only, so the handle's first LP
solve loads the program into a fresh instance and every later one only
resets the row bounds for its ``y`` and ``lambda``.  Whether a handle is
cold or warm is fixed when it is made, and a call without a handle makes a
cold one for itself.  A cold solve clears the handle's solver, so its answer
depends on its arguments alone.  A warm solve starts the simplex from the
basis of the handle's previous solve; a warm run that is not optimal, or
whose answer fails the feasibility check, is solved again on a fresh
instance, and that answer stands.

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
    what answered: ``"zero_exit"`` (no LP), ``"cold"`` (a fresh or cleared
    instance), ``"warm"`` (the handle's previous basis) or ``"fallback"`` (a
    fresh instance after a rejected warm run).  ``iterations`` counts the
    simplex iterations of the call, a rejected warm run included.
    """

    zeta_hat: np.ndarray
    objective: float
    max_correlation: float
    status: str
    path: str
    iterations: int


class SelectorLP:
    """The selector program of one matrix, loaded into HiGHS once.

    The first LP solve through a handle loads the program; every later one
    only resets the row bounds.  A warm handle starts each solve from the
    basis of its previous one, a cold handle (``warm=False``) clears the
    solver first; see :func:`solve_dantzig`.
    """

    def __init__(self, A: MeasurementMatrix, warm: bool = True):
        self.A = A
        self.warm = warm
        self._highs: _Highs | None = None


def _run(highs: _Highs) -> HighsModelStatus:
    """Run the simplex on a loaded instance and return its model status."""
    highs.run()
    return highs.getModelStatus()


def _solve_loaded(
    highs: _Highs, G: np.ndarray, g: np.ndarray
) -> tuple[HighsModelStatus, np.ndarray | None, float, int]:
    """Run a loaded instance.  Returns the model status, zeta and
    ``||g - G zeta||_inf`` (``None`` and nan unless optimal) and the
    iteration count."""
    status = _run(highs)
    iterations = int(highs.getInfo().simplex_iteration_count)
    if status != HighsModelStatus.kOptimal:
        return status, None, float("nan"), iterations
    m = G.shape[0]
    x = np.asarray(highs.getSolution().col_value)
    zeta = x[:m] - x[m:]
    return status, zeta, float(np.max(np.abs(g - G @ zeta))), iterations


def _load(G: np.ndarray, g: np.ndarray, lam: float) -> _Highs | None:
    """A fresh HiGHS instance holding the ranged-row LP, or ``None`` when
    HiGHS cannot load it."""
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
    return None if loaded == HighsStatus.kError else highs


def solve_dantzig(
    A: MeasurementMatrix,
    y: np.ndarray,
    lam: float,
    *,
    lp: SelectorLP | None = None,
) -> DsSolution:
    """Solve ``min ||zeta||_1  s.t.  ||A'(y - A zeta)||_inf <= lam``.

    ``lp`` is a :class:`SelectorLP` handle for ``A``; without one the LP
    is solved through a cold handle made for this call.  The handle's first
    LP solve loads the program, later ones reuse it.  Through a warm handle
    a solve starts from the basis of the handle's previous LP solve; a warm
    run that is not optimal or ends past ``lam + 1e-9`` is solved again on
    a fresh instance, and that answer stands.  A program HiGHS cannot load
    has the status ``"infeasible"`` and leaves the handle without an
    instance.  A run that HiGHS stops at an iteration or time limit has the
    status ``"budget_exceeded"``.
    """
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if y.shape != (A.n,):
        raise ValueError(f"y must have shape ({A.n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if lp is None:
        lp = SelectorLP(A, warm=False)
    if lp.A is not A:
        raise ValueError("the selector handle belongs to another matrix")

    g = A.entries.T @ y
    m = A.m
    peak = float(np.max(np.abs(g), initial=0.0))
    if lam >= peak:
        # zero is feasible and l1-minimal
        return DsSolution(np.zeros(m), 0.0, peak, "optimal", "zero_exit", 0)

    G = A.gram()
    path, iterations = "cold", 0
    if lp._highs is not None:
        highs = lp._highs
        for i, gi in enumerate(g.tolist()):
            highs.changeRowBounds(i, gi - lam, gi + lam)
        if lp.warm:
            # passing the basis back makes HiGHS factorize it afresh; run on
            # the previous run's updated factors, warm answers ended up to
            # 6e-10 past lam and 1.7e-9 from the cold answer
            highs.setBasis(highs.getBasis())
        else:
            highs.clearSolver()
        status, zeta, max_corr, iterations = _solve_loaded(highs, G, g)
        if lp.warm:
            path = "warm" if zeta is not None and max_corr <= lam + _FEASIBILITY_TOL else "fallback"
    if lp._highs is None or path == "fallback":
        lp._highs = _load(G, g, lam)
        if lp._highs is None:
            # a model HiGHS cannot load is a model error, reported as "infeasible"
            status, zeta = HighsModelStatus.kModelError, None
        else:
            status, zeta, max_corr, fresh_iterations = _solve_loaded(lp._highs, G, g)
            iterations += fresh_iterations

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
) -> np.ndarray:
    """Least squares restricted to the columns in ``T``, zero elsewhere.

    Raises :class:`LsSolveError` when ``|T| > n`` or when ``cond(A_T' A_T)``
    exceeds ``DEFAULT_GRAM_CONDITION_CAP``; the error carries the condition
    number.
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
    if gram_cond > DEFAULT_GRAM_CONDITION_CAP:
        raise LsSolveError(
            f"cond(A_T'A_T) = {gram_cond:.3e} exceeds cap {DEFAULT_GRAM_CONDITION_CAP:.3e}",
            condition_number=gram_cond,
        )
    x[T.to_array()] = coef
    return x

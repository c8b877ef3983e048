"""Dantzig selector by a certified dual simplex, and least squares on a
column subset.

The selector minimises ``||zeta||_1`` subject to ``||A'(y - A zeta)||_inf <=
lambda``.  With ``G = A'A`` and ``g = A'y`` this is the linear program

    min ||zeta||_1   s.t.   |g - G zeta| <= lambda   (every row),

whose dual is

    max g'u - lambda ||u||_1   s.t.   |G u| <= 1     (every column).

Basis.  A basis is a set R of k active rows, where ``c = g - G zeta`` sits
at ``lambda s`` (signs s), and a support S of k columns with signs z, such
that ``M = G[R, S]`` is nonsingular.  Its primal point is ``zeta_S = M^-1
(g_R - lambda s)`` and its dual ``u_R = M^-T z``.  The basis is dual
feasible while ``sign(u_R) = s`` and ``|Gu| <= 1``, and primal feasible
while ``sign(zeta_S) = z`` and ``|c| <= lambda``; it is optimal when it is
both.  Dual feasibility involves neither g nor lambda, so an optimal basis
for one ``(g, lambda)`` is a dual feasible start for any other.

Dual simplex.  Each pass computes ``zeta_S`` and c at the call's ``(g,
lambda)`` and stops when no row outside R has ``|c_i| - lambda > 1e-12`` and
no support coefficient has ``-z_p zeta_p > 1e-12``.  Otherwise it prices
the violations by dual steepest edge (Forrest & Goldfarb, Math. Programming
57, 1992): the largest violation^2 / (1 + ||edge||^2), where the edge of row
i is ``G[i, S] M^-1`` and that of coefficient p is row p of ``M^-1``.  A
violating row joins R with the sign of ``c_i``; a coefficient of the wrong
sign has its column leave S.  Either moves u along the one direction that
keeps ``(Gu)`` fixed on the rest of the basis and raises the dual objective
at the rate of the violation.  The ratio test stops the step at the first
column outside S reaching ``|Gu| = 1`` (it joins S) or the first dual on R
reaching zero (its row leaves R).  Columns whose ``|Gu|`` moves slower than
1e-9 do not bound the step, and of the columns tied within 1e-12 of the
smallest step the one with the largest rate, the largest pivot, enters.  A
row's exit pivot is its dual's rate, so a dual on R falling slower than
1e-10, the smallest pivot, does not bound the step either: the step passes
its kink of ``-lambda |u_q|`` and the row changes sign.  The four outcomes
(border, row swap, column swap, shrink) keep ``|R| = |S|`` and update
``M^-1`` in O(k^2); a pivot costs O(mk) plus the pricing.

A :class:`SelectorLP` handle is the basis: it starts empty, holds the
optimal basis of its last answer, and its next call pivots from there,
whatever changed of ``y`` and ``lambda``.  A call that the zero exit answers
neither reads nor changes the handle.  At the end of a call R and S are
sorted and ``G[R, S]`` is inverted afresh; the answer and the next call start
from that factor, so an answer depends on the optimal basis alone, not on the
pivots that reached it.

Certificate.  Every answer that is not the zero exit is checked before it is
returned: primal feasibility ``||g - G zeta||_inf <= lambda + 1e-9``, dual
feasibility ``||G u||_inf <= 1 + 1e-9`` and the duality gap ``|||zeta||_1 -
(g'u - lambda ||u||_1)| <= 1e-9 max(1, ||zeta||_1)``.  Weak duality makes
the gap an optimality bound, so a certified answer is optimal to within it.

Breakdown.  A call that meets a pivot below 1e-10 or a dual step with no
bound, that takes more than ``10 m`` pivots, or whose answer fails the
certificate raises :class:`DantzigNumericsError`.  Any exception raised while
a call pivots or certifies returns the handle to the empty basis.

The constraint is stated with ``<=`` although the original program uses a
strict inequality: the closed program is well posed and has the same optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SupportSet
from .measurement import MeasurementMatrix

#: cap on cond(A_T' A_T); past this the normal equations are too ill-conditioned
#: for the estimate to mean anything and the caller must treat the step as failed
DEFAULT_GRAM_CONDITION_CAP = 1e8

#: slack of every certificate check (primal, dual, relative gap)
_CERTIFICATE_TOL = 1e-9

#: smallest pivot a basis update accepts
_PIVOT_TOL = 1e-10

#: primal violation the dual simplex leaves in place
_PRIMAL_TOL = 1e-12

#: columns whose |Gu| moves slower than this do not bound a dual step
_RATE_TOL = 1e-9

#: dual steps within this of the smallest are tied
_TIE_TOL = 1e-12


class LsSolveError(RuntimeError):
    """Least squares on a support failed (too many columns or ill-conditioned)."""

    def __init__(self, message: str, condition_number: float = float("inf")):
        super().__init__(message)
        self.condition_number = condition_number


class DantzigNumericsError(RuntimeError):
    """The dual simplex broke down, or its answer fails the certificate."""


@dataclass(frozen=True)
class DsSolution:
    """Dantzig selector output.

    ``status`` is always ``"optimal"``: a solve that cannot certify an
    optimum raises instead.  ``path`` names what answered: ``"zero_exit"``
    (no LP), ``"cold"`` (the handle was at the empty basis: a new handle, a
    call without one, or the first call after a failure) or ``"warm"`` (the
    handle held the optimal basis of its last answer).  ``iterations``
    counts the dual simplex pivots.
    """

    zeta_hat: np.ndarray
    status: str
    path: str
    iterations: int


class SelectorLP:
    """A matrix's selector handle: a dual feasible basis, optimal at ``(g,
    lam)`` after a drive, and the rows of G that its pivots read.

    Positions ``0..k-1`` of ``R``/``s``/``u``/``GR`` hold the active rows,
    their signs, their duals and their rows of G; those of ``S``/``z``/``GS``
    the support columns, their signs and their rows of G (equal to the
    columns, because G is symmetric).  ``Minv[:k, :k]`` is the inverse of
    ``G[R, S]``, indexed (support position, row position).  ``Gu`` is G times
    the dual.  From ``k = 0`` every array but ``Gu`` is written before it is
    read, so a handle at the empty basis pivots as a new one does.
    """

    def __init__(self, A: MeasurementMatrix):
        self.A, self.G = A, A.gram()
        m, cap = A.m, min(A.n, A.m)
        self.g, self.lam = np.zeros(m), 0.0
        self.R = np.zeros(cap, dtype=np.intp)
        self.S = np.zeros(cap, dtype=np.intp)
        self.s, self.z, self.u = np.zeros(cap), np.zeros(cap), np.zeros(cap)
        self.GR, self.GS = np.empty((cap, m)), np.empty((cap, m))
        self.Minv = np.empty((cap, cap))
        self.reset()

    def reset(self) -> None:
        """Return to the empty basis, from which the next call starts cold."""
        self.k, self.Gu = 0, np.zeros(self.A.m)

    def drive(self, g: np.ndarray, lam: float) -> int | None:
        """Pivot the basis to the optimum at ``(g, lam)`` by the dual simplex;
        the number of pivots, or ``None`` when a pivot breaks down."""
        self.g, self.lam = g, lam
        limit = 10 * self.G.shape[0]
        pivots = 0
        while True:
            k = self.k
            R, Mi, GS = self.R[:k], self.Minv[:k, :k], self.GS[:k]
            zeta = Mi @ (g[R] - lam * self.s[:k])
            c = g - zeta @ GS
            # primal violations: rows outside R past +-lam, support
            # coefficients of the wrong sign
            row_gap = np.abs(c) - lam
            row_gap[R] = 0.0
            rows = (row_gap > _PRIMAL_TOL).nonzero()[0]
            col_gap = -self.z[:k] * zeta
            cols = (col_gap > _PRIMAL_TOL).nonzero()[0]
            if not (rows.size or cols.size):
                return pivots
            pivots += 1
            if pivots > limit:
                return None
            # dual steepest edge: the largest violation^2 / (1 + |edge|^2)
            best, i, p = 0.0, -1, -1
            if rows.size:
                edges = Mi.T @ GS[:, rows]
                score = row_gap[rows] ** 2 / (1.0 + (edges * edges).sum(axis=0))
                r = score.argmax()
                best, i = score[r], int(rows[r])
            if cols.size:
                edges = Mi[cols]
                score = col_gap[cols] ** 2 / (1.0 + (edges * edges).sum(axis=1))
                r = score.argmax()
                if score[r] > best:
                    p = int(cols[r])
            ok = self._leave(p) if p >= 0 else self._join(i, 1.0 if c[i] > 0.0 else -1.0)
            if not ok:
                return None

    def _join(self, i: int, sign: float) -> bool:
        """Dual step for row ``i`` joining R with sign ``sign``."""
        k = self.k
        Mi = self.Minv[:k, :k]
        v = self.GS[:k, i]                        # G[i, S]
        b = v @ Mi                                # G[i, S] M^-1
        w = -sign * b
        Gw = w @ self.GR[:k] + sign * self.G[i]
        step = self._dual_step(w, Gw)
        if step is None:
            return False
        t, q, j = step
        if j >= 0:
            # border: i joins R and j joins S
            if k == len(self.R):
                return False
            a = Mi @ self.GR[:k, j]               # M^-1 G[R, j]
            pivot = self.G[i, j] - v @ a
            if abs(pivot) < _PIVOT_TOL:
                return False
            Mi += (a / pivot)[:, None] * b
            self.Minv[:k, k] = -a / pivot
            self.Minv[k, :k] = -b / pivot
            self.Minv[k, k] = 1.0 / pivot
            self.S[k], self.z[k], self.GS[k] = j, np.sign(self.Gu[j]), self.G[j]
            q = k
            self.k = k + 1
        else:
            # row swap: i takes the place of the row at position q
            pivot = b[q]
            if abs(pivot) < _PIVOT_TOL:
                return False
            b[q] -= 1.0
            Mi -= (Mi[:, q] / pivot)[:, None] * b
        self.R[q], self.s[q], self.u[q], self.GR[q] = i, sign, t * sign, self.G[i]
        return True

    def _leave(self, p: int) -> bool:
        """Dual step for the support column at position ``p`` leaving S."""
        k = self.k
        Mi = self.Minv[:k, :k]
        j_out = self.S[p]
        w = -self.z[p] * Mi[p]
        Gw = w @ self.GR[:k]
        step = self._dual_step(w, Gw, j_out)
        if step is None:
            return False
        _, q, j = step
        if j >= 0:
            # column swap: j takes the place of the column at position p
            a = Mi @ self.GR[:k, j]
            pivot = a[p]
            if abs(pivot) < _PIVOT_TOL:
                return False
            a[p] -= 1.0
            Mi -= (a / pivot)[:, None] * Mi[p]
            self.S[p], self.z[p], self.GS[p] = j, np.sign(self.Gu[j]), self.G[j]
            return True
        # shrink: the row at position q and the column at position p leave
        pivot = Mi[p, q]
        if abs(pivot) < _PIVOT_TOL:
            return False
        Mi -= (Mi[:, q] / pivot)[:, None] * Mi[p]
        last = k - 1
        Mi[p], self.S[p], self.z[p], self.GS[p] = Mi[last], self.S[last], self.z[last], self.GS[last]
        Mi[:, q] = Mi[:, last]
        self.R[q], self.s[q], self.u[q], self.GR[q] = self.R[last], self.s[last], self.u[last], self.GR[last]
        self.k = last
        return True

    def _dual_step(self, w: np.ndarray, Gw: np.ndarray, j_out: int = -1) -> tuple[float, int, int] | None:
        """Move the dual by ``t w`` up to the first column outside S reaching
        ``|Gu| = 1`` or the first dual on R reaching zero, flipping the sign
        of each slower dual it passes.  Returns ``t``, the position of the
        row that leaves (or -1) and the column that joins (or -1); ``None``
        when nothing bounds the step.  Column ``j_out`` is leaving S and may
        join it again."""
        k = self.k
        rate = np.abs(Gw)
        t_col = np.maximum(1.0 - np.sign(Gw) * self.Gu, 0.0) / rate
        t_col[rate < _RATE_TOL] = np.inf
        S = self.S[:k]
        t_col[S[S != j_out]] = np.inf
        t = t_col.min()
        # of the columns tied at the smallest step, the largest pivot enters
        j = int(np.where(t_col <= t + _TIE_TOL, rate, -1.0).argmax())
        q, kinks = -1, None
        if k:
            s = self.s[:k]
            t_row = _exit_times(s * self.u[:k], -s * w)
            r = int(t_row.argmin())
            if abs(w[r]) < _PIVOT_TOL:
                # a row's exit pivot is its dual's rate: slow duals stay on R and
                # the step passes their kinks (one not first to fall is not reached)
                slow = np.abs(w) < _PIVOT_TOL
                kinks = np.where(slow, t_row, np.inf)
                t_row[slow] = np.inf
                r = int(t_row.argmin())
            if t_row[r] < t:
                q, t = r, t_row[r]
        if not np.isfinite(t):
            return None
        self.u[:k] += t * w
        self.Gu += t * Gw
        if kinks is not None:
            self.s[:k][kinks < t] *= -1.0
        if q >= 0:
            self.u[q] = 0.0
            return t, q, -1
        return t, -1, j

    def answer(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Sort R and S, refactor ``G[R, S]`` and return the primal and dual
        answers at the basis's ``(g, lam)``; ``None`` when the factor is
        singular.  The answer depends on the basis alone, not on the pivots
        that reached it."""
        k = self.k
        rows, cols = np.argsort(self.R[:k]), np.argsort(self.S[:k])
        self.R[:k], self.s[:k], self.GR[:k] = self.R[rows], self.s[rows], self.GR[rows]
        self.S[:k], self.z[:k], self.GS[:k] = self.S[cols], self.z[cols], self.GS[cols]
        R, S = self.R[:k], self.S[:k]
        try:
            Mi = np.linalg.inv(self.GR[:k][:, S]) if k else np.zeros((0, 0))
        except np.linalg.LinAlgError:
            return None
        self.Minv[:k, :k] = Mi
        self.u[:k] = self.z[:k] @ Mi
        self.Gu = self.u[:k] @ self.GR[:k]
        zeta, u = np.zeros_like(self.g), np.zeros_like(self.g)
        zeta[S] = Mi @ (self.g[R] - self.lam * self.s[:k])
        u[R] = self.u[:k]
        return zeta, u


def _exit_times(value: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Time for each nonnegative ``value`` to fall to zero at ``rate`` of
    decrease; infinite where it does not fall.  A value already below zero
    counts as zero, so it fires at once when its rate is positive."""
    t = np.maximum(value, 0.0) / rate
    t[rate <= 0.0] = np.inf
    return t


def _certify(G: np.ndarray, g: np.ndarray, lam: float, zeta: np.ndarray, u: np.ndarray) -> str | None:
    """The first certificate check that fails, or ``None`` when ``(zeta, u)``
    is a certified optimal pair."""
    max_corr = float(np.max(np.abs(g - G @ zeta)))
    if max_corr > lam + _CERTIFICATE_TOL:
        return f"constraint violation {max_corr - lam:.3e} exceeds tolerance"
    dual = float(np.max(np.abs(G @ u)))
    if dual > 1.0 + _CERTIFICATE_TOL:
        return f"dual infeasibility {dual - 1.0:.3e} exceeds tolerance"
    l1 = float(np.sum(np.abs(zeta)))
    gap = abs(l1 - (float(g @ u) - lam * float(np.sum(np.abs(u)))))
    if gap > _CERTIFICATE_TOL * max(1.0, l1):
        return f"duality gap {gap:.3e} exceeds tolerance"
    return None


def solve_dantzig(
    A: MeasurementMatrix,
    y: np.ndarray,
    lam: float,
    *,
    lp: SelectorLP | None = None,
) -> DsSolution:
    """Solve ``min ||zeta||_1  s.t.  ||A'(y - A zeta)||_inf <= lam``.

    ``lp`` is a :class:`SelectorLP` handle for ``A``; without one the call
    drives a new handle.  The dual simplex pivots from the handle's basis,
    cold from the empty one or warm from its last answer, and a certified
    answer becomes its new start.  A call that breaks down or fails the
    certificate raises :class:`DantzigNumericsError`; any exception raised
    while it pivots or certifies returns the handle to the empty basis.
    """
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if y.shape != (A.n,):
        raise ValueError(f"y must have shape ({A.n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if lp is not None and lp.A is not A:
        raise ValueError("the selector handle belongs to another matrix")

    g = A.entries.T @ y
    peak = float(np.max(np.abs(g), initial=0.0))
    if lam >= peak:
        # zero is feasible and l1-minimal
        return DsSolution(np.zeros(A.m), "optimal", "zero_exit", 0)

    if lp is None:
        lp = SelectorLP(A)
    path = "warm" if lp.k else "cold"
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            iterations = lp.drive(g, float(lam))
            pair = None if iterations is None else lp.answer()
        if pair is None:
            raise DantzigNumericsError("the dual simplex broke down")
        failed = _certify(lp.G, g, lam, *pair)
        if failed is not None:
            raise DantzigNumericsError(f"the dual simplex answer fails the certificate: {failed}")
    except BaseException:
        # a half-pivoted or uncertified basis is no start for the next call
        lp.reset()
        raise
    return DsSolution(pair[0], "optimal", path, iterations)


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

"""Closed-form error bounds, stability conditions, and runtime predicates.

Everything here is a pure function of isometry/orthogonality constants, sizes,
and norms.  Each bound returns a :class:`BoundResult` carrying an explicit
applicability verdict instead of NaN: a bound whose hypotheses cannot be
verified is reported as not applicable, never silently evaluated.

Provenance matters: constants obtained by subset sampling are lower bounds on
the true ones, so any bound computed from them may be too small.  Such results
are flagged ``optimistic`` and soundness is only ever asserted for exact
inputs.

Every bound and stability condition rests on two support-size thresholds: S*,
the largest S with ``delta_S < 1/2``, and S**, the largest S with ``delta_2S +
theta_{S,2S} < 1``.  Each is defined once, by the entry that decides whether a
size lies within it (:func:`_s_star_entry` and :func:`_s_starstar_entry`), and
every check reads that entry.

The recovery-bound scan (:func:`_min_over_s`) reads ``delta_2S`` and
``theta_{S,2S}`` for S = 1, 2, ... up to the first S outside S**, and stops
sooner once ``C2(S) S lam^2`` alone cannot beat the best value so far.  With
the shipped bound-validation sweep (m = 16, |T| = 3, |Delta| = 1) it stops
before S = 3, so no bound there reads ``delta_6``, ``delta_8``,
``theta_{3,6}`` or ``theta_{4,8}``.

The deletion side rests on one lemma: least squares on a support that misses
``count`` coefficients of squared magnitude at most ``mag_sq`` errs by at
most ``4 n lam^2/||A||_1^2 + 8 theta^2 count mag_sq``.  :func:`_ls_error`
defines it, and :func:`_keep_threshold` the survival threshold built on it,
``2 alpha_del^2 + 8 n lam^2/||A||_1^2 + 16 theta^2 count mag_sq``.  The
detected-support bound, the keep rows of the stability check, the stability
error caps and the runtime deletion predicates all read these two.

Max-over-sizes expressions (the detection threshold and the stability gate)
cover every integer ``(|T|, |Delta|)`` pair up to the stated caps.  The
detection ratio is not monotone in ``|Delta|``, so every ``|Delta|`` is
enumerated; it is nondecreasing in ``|T|``, so each ``|Delta|`` reads the
largest ``|T|`` only.  Covering the full rectangle also covers both the
fixed-``S_T`` and the max-over-``|T|`` readings of the stability conditions,
whichever is worse.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .core import support_of
from .filter import FilterConfig, StepDiagnostics
from .measurement import RipEntry, RipTable
from .sigmodel import SignalModelParams

_NOISE_TOL = 1e-12
# Slack on the S** gap in the scan's stop rule (see _min_over_s); far above
# RipTable.validate_monotone's 1e-12 and the rounding of computed constants.
_GAP_SLACK = 1e-9


@dataclass(frozen=True)
class BoundContext:
    """Shared inputs every bound needs.

    ``noise_linf_bound`` is the modeled bound on ``||w||_inf``; no bound is
    applicable unless it is at most ``lam / norm_A_1``.
    """

    rip: RipTable
    n: int
    m: int
    lam: float
    norm_A_1: float
    noise_linf_bound: float

    def noise_budget_ok(self) -> bool:
        return self.noise_linf_bound <= self.lam / self.norm_A_1 + _NOISE_TOL

    def w_max_sq(self) -> float:
        """Largest possible ||w||^2 under the l-inf budget: n lam^2 / ||A||_1^2."""
        return self.n * self.lam ** 2 / self.norm_A_1 ** 2


@dataclass
class BoundResult:
    value: float | None
    applicable: bool
    optimistic: bool = False
    argmin_s: int | None = None
    reasons: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


class RecoveryConstants(NamedTuple):
    c2: float
    c3: float
    exact: bool


def recovery_constants(S: int, rip: RipTable) -> RecoveryConstants:
    """Constants of the sparse-compressible recovery bound at sparsity S.

    ``c2 = 48 / (1 - delta_2S - theta_{S,2S})^2`` and
    ``c3 = 8 + 24 theta_{S,2S}^2 / (1 - delta_2S - theta_{S,2S})^2``.
    Raises ``ValueError`` when the denominator is not positive.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    d = rip.delta(2 * S)
    th = rip.theta(S, 2 * S)
    gap = 1.0 - d.value - th.value
    if gap <= 0:
        raise ValueError(f"delta_{2*S} + theta_{{{S},{2*S}}} >= 1: constants undefined")
    c2 = 48.0 / gap ** 2
    c3 = 8.0 + 24.0 * th.value ** 2 / gap ** 2
    return RecoveryConstants(c2, c3, d.exact and th.exact)


def _smallest_sqnorm(values: np.ndarray, k: int) -> float:
    """Sum of squares of the k smallest-magnitude entries."""
    if k <= 0:
        return 0.0
    mags = np.sort(np.abs(np.asarray(values, dtype=float)))
    return float(np.sum(mags[:k] ** 2))


def _s_star_entry(ctx: BoundContext, k: int) -> RipEntry | None:
    """The entry that decides ``k <= S*``: ``delta_k``, which must be below
    1/2.  ``None`` past m, where ``delta_k`` is undefined and the check fails
    without a lookup."""
    if k > ctx.m:
        return None
    return ctx.rip.delta(k)


def _s_starstar_entry(ctx: BoundContext, k: int) -> RipEntry | None:
    """The entry that decides ``k <= S**``: ``delta_2k + theta_{k,2k}``, which
    must be below 1, exact when both constants are.  ``None`` when ``3k > m``,
    where ``theta_{k,2k}`` is undefined and the check fails without a lookup."""
    if 3 * k > ctx.m:
        return None
    d = ctx.rip.delta(2 * k)
    th = ctx.rip.theta(k, 2 * k)
    return RipEntry(d.value + th.value, d.exact and th.exact)


class _Hypotheses(NamedTuple):
    reason: str | None          # why the bound does not apply; None when it does
    theta: RipEntry | None      # theta_{|T|, theta_with} when it does
    exact: bool


def _hypotheses(
    ctx: BoundContext,
    size_T: int,
    theta_with: int = 0,
    s_starstar: int = 0,
    names: tuple[str, str] = ("|T|", "|Delta|"),
) -> _Hypotheses:
    """The hypotheses the bounds share, checked in one order.

    The noise budget must hold, ``|T| = size_T`` must be within S* and
    ``s_starstar`` within S**, checked in that order up to the first that
    fails, so no constant is read for a bound that does not apply.  Then
    ``theta_{|T|, theta_with}`` is looked up and returned.  A zero size makes
    its check hold trivially.  ``names`` label ``size_T`` and ``s_starstar``
    in the reason.
    """
    if not ctx.noise_budget_ok():
        return _Hypotheses("noise bound exceeds lam/||A||_1", None, False)
    t = _s_star_entry(ctx, size_T)
    if t is None or t.value >= 0.5:
        return _Hypotheses(f"{names[0]}={size_T} exceeds S*", None, False)
    d = _s_starstar_entry(ctx, s_starstar)
    if d is None or d.value >= 1.0:
        return _Hypotheses(f"{names[1]}={s_starstar} exceeds S**", None, False)
    theta = ctx.rip.theta(size_T, theta_with)
    return _Hypotheses(None, theta, t.exact and d.exact and theta.exact)


def _min_over_s(ctx: BoundContext, cap: int, tail, exact: bool) -> BoundResult:
    """``min_S [C2(S) S lam^2 + C3(S) ((cap - S)/S) tail(S)]`` over S = 1..cap.

    The scan stops at the first S outside S** (``3S > m`` included).  It
    also stops, before reading anything at S >= 2, once ``48 S lam^2 /
    (gap_{S-1} + _GAP_SLACK)^2`` reaches the best value so far, where
    ``gap_{S-1} = 1 - delta_{2S-2} - theta_{S-1,2S-2}`` was just read.  That
    stop changes nothing: every later term is at least ``C2(S') S' lam^2``
    (C3, ``cap - S'`` and the tail are nonnegative), and ``C2(S') = 48 /
    gap_{S'}^2 >= 48 / gap_{S-1}^2`` because delta and theta are
    nondecreasing in their sizes, as :func:`_gate_terms` also relies on.  The
    slack absorbs a loaded table's 1e-12 monotonicity tolerance and rounding.
    Constants past the stop are never read, so a table may lack them and
    their provenance does not enter ``optimistic``.  A table lacking an entry
    the scan does read raises :class:`InsufficientRipTable`, like every other
    read.  Restricting the scan below the true threshold only discards
    candidate values of the minimum, which keeps every bound valid (possibly
    looser).
    """
    best, best_s, gap = math.inf, None, 0.0
    for s in range(1, cap + 1):
        if best_s is not None and 48.0 * s * ctx.lam ** 2 / (gap + _GAP_SLACK) ** 2 >= best:
            break
        e = _s_starstar_entry(ctx, s)
        if e is None or e.value >= 1.0:
            break
        gap = 1.0 - e.value
        cc = recovery_constants(s, ctx.rip)
        exact = exact and cc.exact
        f = cc.c2 * s * ctx.lam ** 2 + cc.c3 * (cap - s) / s * tail(s)
        if f < best:
            best, best_s = f, s
    if best_s is None:
        return BoundResult(None, False, reasons=["no admissible S"])
    return BoundResult(best, True, optimistic=not exact, argmin_s=best_s)


def residual_recovery_bound(
    ctx: BoundContext,
    size_T: int,
    x_delta: np.ndarray,
    w_sqnorm: float,
) -> BoundResult:
    """Recovery error bound for the residual-based estimate.

    Minimises ``C2(S) S lam^2 + C3(S) ((|T|+|Delta|-S)/S) B(S)`` over
    admissible S, where ``B(S) = 8 theta^2 ||x_Delta||^2 + 4 ||w||^2`` plus
    the energy of the ``|Delta|-S`` smallest entries of ``x_Delta`` when
    ``S < |Delta|``.  ``theta`` is taken at ``(|T|, |Delta|)``.
    """
    x_delta = np.asarray(x_delta, dtype=float)
    size_delta = int(x_delta.size)
    h = _hypotheses(ctx, size_T, theta_with=size_delta)
    if h.reason:
        return BoundResult(None, False, reasons=[h.reason])
    xd_sq = float(np.sum(x_delta ** 2))

    def tail(s: int) -> float:
        b = 8.0 * h.theta.value ** 2 * xd_sq + 4.0 * w_sqnorm
        if s < size_delta:
            b += _smallest_sqnorm(x_delta, size_delta - s)
        return b

    res = _min_over_s(ctx, size_T + size_delta, tail, h.exact)
    if res.applicable:
        res.details["theta"] = h.theta.value
    return res


def simplified_residual_bound(
    ctx: BoundContext, size_T: int, size_delta: int, x_delta_sqnorm: float
) -> BoundResult:
    """Single-S form of the recovery bound: ``C' + C'' theta^2 ||x_Delta||^2``.

    ``C'`` and ``C''`` are returned in ``details``; requires ``|Delta| >= 1``.
    """
    if size_delta < 1:
        return BoundResult(None, False, reasons=["this branch needs |Delta| >= 1; use the B0 bound instead"])
    h = _hypotheses(ctx, size_T, theta_with=size_delta, s_starstar=size_delta)
    if h.reason:
        return BoundResult(None, False, reasons=[h.reason])
    cc = recovery_constants(size_delta, ctx.rip)
    c_prime, c_dprime = _c_prime_dprime(ctx, size_T, size_delta, cc)
    return BoundResult(
        c_prime + c_dprime * h.theta.value ** 2 * x_delta_sqnorm, True,
        optimistic=not (h.exact and cc.exact),
        details={"c_prime": c_prime, "c_double_prime": c_dprime, "theta": h.theta.value},
    )


def no_miss_residual_bound(ctx: BoundContext, size_T: int) -> BoundResult:
    """Recovery bound when nothing is missing from the known support.

    ``min_S [C2(S) S lam^2 + C3(S) ((|T|-S)/S) 4 n lam^2/||A||_1^2]`` over
    admissible ``S <= |T|``.  (The minimum is restricted to ``S <= |T|``:
    those are the values the underlying sparse-compressible bound admits for a
    ``|T|``-sparse error, and larger S would make the second term negative.)
    """
    h = _hypotheses(ctx, size_T)
    if h.reason:
        return BoundResult(None, False, reasons=[h.reason])
    return _min_over_s(ctx, size_T, lambda s: 4.0 * ctx.w_max_sq(), h.exact)


def compressibility_residual_bound(
    ctx: BoundContext, size_T: int, size_delta: int, x_delta_sqnorm: float, b: float
) -> BoundResult:
    """Tighter recovery bound whose leading term does not grow with ``|T|``.

    The caller must have verified the residual-compressibility condition:
    ``||A_T^+ A_Delta||_1 < c`` and ``||x_Delta||_1`` large enough, for the
    supplied ``b > c``.  With ``|Delta| = 0`` that condition cannot hold and
    the B0 bound is returned instead.
    """
    if size_delta == 0:
        res = no_miss_residual_bound(ctx, size_T)
        res.reasons.append("|Delta|=0: fell back to the B0 bound")
        return res
    h = _hypotheses(ctx, size_T, theta_with=size_delta, s_starstar=size_delta)
    if h.reason:
        return BoundResult(None, False, reasons=[h.reason])
    cc = recovery_constants(size_delta, ctx.rip)
    second = cc.c3 * min(
        b ** 2 * x_delta_sqnorm,
        8.0 * size_T * h.theta.value ** 2 * x_delta_sqnorm + 4.0 * size_T * ctx.w_max_sq(),
    )
    return BoundResult(
        cc.c2 * size_delta * ctx.lam ** 2 + second, True, optimistic=not (h.exact and cc.exact),
    )


# ---------------------------------------------------------------------------
# detection / deletion condition machinery
# ---------------------------------------------------------------------------


def _c_prime_dprime(ctx: BoundContext, size_T: int, size_delta: int, cc: RecoveryConstants) -> tuple[float, float]:
    c_prime = cc.c2 * size_delta * ctx.lam ** 2 + 4.0 * cc.c3 * (size_T / size_delta) * ctx.w_max_sq()
    c_dprime = 8.0 * cc.c3 * size_T
    return c_prime, c_dprime


def _ls_error(ctx: BoundContext, theta: float, count: int, mag_sq: float) -> float:
    """The LS-error lemma of the module docstring.  An ``alpha_del`` whose
    square reaches it deletes every extra."""
    return 4.0 * ctx.w_max_sq() + 8.0 * theta ** 2 * count * mag_sq


def _keep_threshold(ctx: BoundContext, alpha_del: float, theta: float, count: int, mag_sq: float) -> float:
    """A true coefficient whose square exceeds ``2 alpha_del^2`` plus twice
    :func:`_ls_error` survives deletion.  The sum is written out: ``2
    alpha_del^2 + 2 _ls_error(...)`` groups it differently and moves the last
    digit."""
    return 2.0 * alpha_del ** 2 + 8.0 * ctx.w_max_sq() + 16.0 * theta ** 2 * count * mag_sq


def detected_support_ls_error_bound(
    ctx: BoundContext, size_T_det: int, det_misses_sqnorm: float, size_det_misses: int
) -> BoundResult:
    """Bound on the detected-support LS error:
    ``4 n lam^2/||A||_1^2 + 8 theta^2 ||x_misses||^2`` with theta at
    ``(|T_det|, |misses|)``."""
    h = _hypotheses(ctx, size_T_det, theta_with=size_det_misses, names=("|T_det|", "|misses|"))
    if h.reason:
        return BoundResult(None, False, reasons=[h.reason])
    return BoundResult(_ls_error(ctx, h.theta.value, 1, det_misses_sqnorm), True, optimistic=not h.exact)


def _gate_terms(
    ctx: BoundContext, S_T: int, S_Delta: int
) -> tuple[list[tuple[tuple[int, int], float, float]], bool]:
    """Detection-gate terms over ``1 <= |Delta| <= S_Delta``, each at
    ``|T| = min(S_T, m - |Delta|)``.

    The gate ``2 theta^2 |Delta| C''`` and the threshold ``(2 alpha^2 + 2 C')
    / (1 - gate)`` are nondecreasing in ``|T|``, because ``C'`` and ``C''``
    are and so is ``theta_{|T|,|Delta|}``: by definition for exact entries,
    and through the nested subsets for sampled ones.  So the largest ``|T|``
    that fits in m carries the maximum over every ``|T| <= S_T``.  A table
    loaded from a file is checked monotone only up to 1e-12
    (:meth:`RipTable.validate_monotone`), and for one the terms read here may
    fall short of that maximum by as much.  :func:`_min_over_s` stops its scan
    on the same monotonicity.

    Returns ``[(pair, 2 theta^2 |Delta| C'', C')]`` in order of ``|Delta|``
    and whether every constant used was exact.  At the first ``|Delta|``
    beyond S** the recovery constants are undefined: one term with an
    infinite gate stands for it and the enumeration stops.
    """
    terms = []
    exact = True
    for d_sz in range(1, S_Delta + 1):
        e = _s_starstar_entry(ctx, d_sz)
        if e is None or e.value >= 1.0:
            terms.append(((0, d_sz), math.inf, math.inf))
            break
        cc = recovery_constants(d_sz, ctx.rip)
        exact = exact and cc.exact
        t_sz = min(S_T, ctx.m - d_sz)  # >= 2 d_sz, since 3 d_sz <= m here
        theta = ctx.rip.theta(t_sz, d_sz)
        exact = exact and theta.exact
        c_prime, c_dprime = _c_prime_dprime(ctx, t_sz, d_sz, cc)
        terms.append(((t_sz, d_sz), 2.0 * theta.value ** 2 * d_sz * c_dprime, c_prime))
    return terms, exact


def detection_condition(
    ctx: BoundContext, S_T: int, S_Delta: int, alpha: float
) -> BoundResult:
    """Detection guarantee threshold, squared.

    Covers every ``(|T|, |Delta|)`` with ``|T| <= S_T`` and ``1 <= |Delta| <=
    S_Delta``, through the largest ``|T|`` per ``|Delta|`` (see
    :func:`_gate_terms`).  When the gate ``2 theta^2 |Delta| C'' < 1`` holds
    at all of them, the value is the max of ``(2 alpha^2 + 2 C') / (1 -
    2 theta^2 |Delta| C'')``: any undetected true coefficient whose square
    exceeds it is detected this step.  A failing gate is not applicable, with
    the reason ``"detection gate fails"``, and keeps the ``optimistic`` flag
    of the constants it read.
    """
    if S_Delta < 1:
        return BoundResult(None, False, reasons=["no undetected coefficients to consider (S_Delta = 0)"])
    h = _hypotheses(ctx, S_T, s_starstar=S_Delta, names=("S_T", "S_Delta"))
    if h.reason:
        return BoundResult(None, False, reasons=[h.reason])
    terms, terms_exact = _gate_terms(ctx, S_T, S_Delta)
    optimistic = not (h.exact and terms_exact)
    if any(gate >= 1.0 for _, gate, _ in terms):
        return BoundResult(None, False, optimistic=optimistic, reasons=["detection gate fails"])
    worst = max((2.0 * alpha ** 2 + 2.0 * c_prime) / (1.0 - gate) for _, gate, c_prime in terms)
    return BoundResult(worst, True, optimistic=optimistic)


# ---------------------------------------------------------------------------
# stability condition checker
# ---------------------------------------------------------------------------


@dataclass
class ConditionRow:
    identifier: str
    holds: bool
    lhs: float | None
    rhs: float | None
    inputs: dict = field(default_factory=dict)
    exact: bool = True
    assumed: bool = False
    note: str = ""


@dataclass
class ConditionReport:
    rows: list[ConditionRow]
    holds: bool
    optimistic: bool
    f: int
    d0: int

    def row(self, identifier: str) -> ConditionRow:
        for r in self.rows:
            if r.identifier == identifier:
                return r
        raise KeyError(identifier)

    def to_json_dict(self) -> dict:
        return asdict(self)


def prescribed_alpha_del(ctx: BoundContext) -> float:
    """Deletion threshold the stability analysis fixes: ``2 sqrt(n) lam / ||A||_1``."""
    return 2.0 * math.sqrt(ctx.n) * ctx.lam / ctx.norm_A_1


def _oversized_row(identifier: str, note: str, **inputs: int) -> ConditionRow:
    """A row whose constant is undefined because its sizes do not fit in m
    columns; the condition is not established."""
    return ConditionRow(identifier, False, None, None, inputs=inputs, note=note)


def check_stability_conditions(
    model: SignalModelParams,
    ctx: BoundContext,
    f: int,
    d0: int,
    alpha: float,
    alpha_del: float | None = None,
) -> ConditionReport:
    """Evaluate the stability conditions for given ``f`` and ``d0``.

    ``f`` (false detections per step) is an input assumption tied to the
    choice of the detection threshold, not something derived here.  When
    ``alpha_del`` is omitted the prescribed ``2 sqrt(n) lam/||A||_1`` is used,
    which makes the threshold condition hold by construction.  A constant the
    table neither holds nor can compute raises :class:`InsufficientRipTable`.

    The detect and keep rows must hold for every possible addition set.  Each
    is monotone in the magnitudes, so its worst case is read off the rates
    sorted in descending order, ``v``: ``detect-addition-i`` at the i-th
    largest of the ``S_a`` smallest rates, ``keep-addition-i`` at the adjacent
    pair ``(v[p], v[p+1])`` of smallest margin (the next magnitude is 0 at
    ``i = S_a``), and ``keep-constant-coefficients`` at ``v[-1]`` and ``v[0]``.
    """
    if d0 < 1 or d0 >= model.d:
        raise ValueError("need 1 <= d0 < d")
    if f < 0:
        raise ValueError("f must be nonnegative")
    prescribed = prescribed_alpha_del(ctx)
    if alpha_del is None:
        alpha_del = prescribed
    rows: list[ConditionRow] = []
    sa, s0 = model.sa, model.s0
    st_max = s0 + f * (d0 + sa)

    rows.append(ConditionRow(
        "initialization", True, None, None, assumed=True,
        note="support estimate assumed exact at t=0",
    ))
    rows.append(ConditionRow(
        "deletion-threshold",
        bool(math.isclose(alpha_del, prescribed, rel_tol=1e-9, abs_tol=1e-12)),
        alpha_del, prescribed,
        note="stability analysis fixes alpha_del = 2 sqrt(n) lam / ||A||_1",
    ))
    rows.append(ConditionRow(
        "false-detect-budget", True, None, float(f), assumed=True,
        note="at most f false detections per step is an assumption on alpha",
    ))

    rows.append(ConditionRow(
        "noise-budget", bool(ctx.noise_budget_ok()), ctx.noise_linf_bound, ctx.lam / ctx.norm_A_1,
    ))
    sa_entry = _s_starstar_entry(ctx, sa)
    if sa_entry is None:
        rows.append(_oversized_row("addition-count-within-recovery-range", "3 S_a > m", S_a=sa))
    else:
        rows.append(ConditionRow(
            "addition-count-within-recovery-range", sa_entry.value < 1.0,
            sa_entry.value if sa > 0 else None, 1.0, exact=sa_entry.exact, note="S_a <= S**",
        ))
    st_entry = _s_star_entry(ctx, st_max)
    if st_entry is None:
        rows.append(_oversized_row("support-size-within-ls-range", "S_T > m", S_T=st_max))
    else:
        rows.append(ConditionRow(
            "support-size-within-ls-range", st_entry.value < 0.5, st_entry.value, 0.5,
            exact=st_entry.exact, inputs={"S_T": st_max}, note="S_0 + f (d_0 + S_a) <= S*",
        ))

    # detection gate over the rectangle at (S_T, S_Delta) = (st_max, sa)
    terms, gate_exact = _gate_terms(ctx, st_max, sa)
    gate_lhs = max((gate for _, gate, _ in terms), default=0.0)
    defined = math.isfinite(gate_lhs)  # infinite past S**, see _gate_terms
    rows.append(ConditionRow(
        "detection-gate", bool(gate_lhs < 1.0), gate_lhs if defined else None, 1.0,
        exact=gate_exact, inputs={"S_T": st_max, "S_Delta": sa},
        note="" if defined else f"S_Delta={sa} exceeds S**",
    ))

    v = np.sort(model.rates)[::-1]
    for i in range(1, sa + 1):
        st_i = s0 + f * (d0 + i - 1)
        sd_i = sa - i + 1
        det = detection_condition(ctx, st_i, sd_i, alpha)
        lhs_i = model.magnitude(d0 + i, v[model.m - sa + i - 1]) ** 2
        rows.append(ConditionRow(
            f"detect-addition-{i}", bool(det.applicable and lhs_i > det.value), lhs_i, det.value,
            inputs={"S_T": st_i, "S_Delta": sd_i},
            exact=not det.optimistic, note="; ".join(det.reasons),
        ))

        st_b = s0 + f * (d0 + i)
        sd_b = sa - i
        if st_b + sd_b > model.m:
            rows.append(_oversized_row(f"keep-addition-{i}", "S_T + S_Delta > m", S_T=st_b, S_Delta=sd_b))
            continue
        theta_b = ctx.rip.theta(st_b, sd_b)
        # pairs from the smallest up; ties keep the first, as an enumeration
        # of the addition sets in ascending order would
        worst_margin, worst_lhs, worst_rhs = math.inf, None, None
        for p in range(model.m - sa + i - 1, i - 2, -1):
            lhs = model.magnitude(d0 + i, v[p]) ** 2
            nxt = v[p + 1] if i < sa else 0.0
            rhs = _keep_threshold(ctx, alpha_del, theta_b.value, sa - i, model.magnitude(d0 + i, nxt) ** 2)
            if lhs - rhs < worst_margin:
                worst_margin, worst_lhs, worst_rhs = lhs - rhs, lhs, rhs
        rows.append(ConditionRow(
            f"keep-addition-{i}", bool(worst_margin > 0), worst_lhs, worst_rhs,
            inputs={"S_T": st_b, "S_Delta": sd_b},
            exact=theta_b.exact,
        ))

    const_lhs = model.magnitude(model.d, v[-1]) ** 2
    peak = model.magnitude(d0 + sa, v[0]) ** 2
    if st_max + sa > model.m:
        rows.append(_oversized_row("keep-constant-coefficients", "S_T + S_Delta > m", S_T=st_max, S_Delta=sa))
    else:
        theta_c = ctx.rip.theta(st_max, sa)
        rhs5 = _keep_threshold(ctx, alpha_del, theta_c.value, sa, peak)
        rows.append(ConditionRow(
            "keep-constant-coefficients", bool(const_lhs > rhs5), const_lhs, rhs5,
            inputs={"S_T": st_max, "S_Delta": sa}, exact=theta_c.exact,
        ))
    rhs6 = model.r ** 2 * (2.0 * alpha_del ** 2 + 4.0 * ctx.w_max_sq())
    rows.append(ConditionRow(
        "keep-decreasing-coefficients", bool(const_lhs > rhs6), const_lhs, rhs6,
    ))
    rows.append(ConditionRow(
        "addition-spacing", bool(model.d >= d0 + sa + model.r), float(model.d), float(d0 + sa + model.r),
    ))

    holds = all(r.holds for r in rows if not r.assumed)
    optimistic = any(not r.exact for r in rows)
    return ConditionReport(rows=rows, holds=holds, optimistic=optimistic, f=f, d0=d0)


def find_min_d0(
    model: SignalModelParams,
    ctx: BoundContext,
    f: int,
    alpha: float,
    alpha_del: float | None = None,
) -> tuple[int | None, ConditionReport | None]:
    """Smallest d0 in [1, d-1] passing every condition, or (None, last report)."""
    report = None
    for d0 in range(1, model.d):
        report = check_stability_conditions(model, ctx, f, d0, alpha, alpha_del)
        if report.holds:
            return d0, report
    return None, report


@dataclass
class StabilityErrorCaps:
    applicable: bool
    miss_err_sq: float | None = None
    support_err_sq: float | None = None
    csres_err_cap: float | None = None
    optimistic: bool = False
    reasons: list[str] = field(default_factory=list)


def stability_error_caps(
    model: SignalModelParams, ctx: BoundContext, f: int, d0: int
) -> StabilityErrorCaps:
    """Time-invariant error caps implied by the stability conditions.

    Caller is responsible for having verified those conditions.
    """
    sa, s0 = model.sa, model.s0
    st = s0 + f * (d0 + sa)
    peak = model.magnitude(d0 + sa, np.max(model.rates)) ** 2
    b0 = no_miss_residual_bound(ctx, st)
    if not b0.applicable:
        return StabilityErrorCaps(False, reasons=b0.reasons)
    if sa == 0:
        return StabilityErrorCaps(True, 0.0, _ls_error(ctx, 0.0, 0, 0.0), b0.value, b0.optimistic)
    cor1 = simplified_residual_bound(ctx, st, sa, sa * peak)
    if not cor1.applicable:
        return StabilityErrorCaps(False, reasons=cor1.reasons)
    return StabilityErrorCaps(
        True, sa * peak, _ls_error(ctx, cor1.details["theta"], sa, peak),
        max(b0.value, cor1.value), b0.optimistic or cor1.optimistic,
    )


# ---------------------------------------------------------------------------
# per-step predicates used by the simulation harness
# ---------------------------------------------------------------------------


@dataclass
class PredicateTally:
    """Counts of hypothesis-holding steps and violations per predicate."""

    hypotheses: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)

    def add(self, name: str, hyp_count: int, violation_count: int) -> None:
        self.hypotheses[name] = self.hypotheses.get(name, 0) + hyp_count
        self.violations[name] = self.violations.get(name, 0) + violation_count

    def merge(self, other: "PredicateTally") -> None:
        # add is the only writer, so both dicts hold the same names
        for name in other.hypotheses:
            self.add(name, other.hypotheses[name], other.violations[name])


def runtime_step_checks(
    diag: StepDiagnostics,
    x_true: np.ndarray,
    cfg: FilterConfig,
    ctx: BoundContext,
) -> PredicateTally:
    """Count, on one step, the coefficients each guarantee covers and those
    that break it.

    Three facts are checked: a missed coefficient above a threshold is
    detected, a detected true one above a threshold survives deletion, and
    the extras are deleted once ``alpha_del^2`` covers the detected-support
    LS error.  Each is counted twice: at the step's realized errors (the
    ``*_guarantee`` keys) and at the thresholds of the constants in ``ctx``
    (the ``*_condition`` keys), with misses, extras and errors taken against
    ``x_true``.  A failed step counts nothing; the detection condition is
    counted only on steps whose previous support misses a coefficient.  A
    condition whose hypotheses do not verify counts zero, which at scales
    where constants are sampled shows as a zero hypothesis count rather than
    as a silent pass.
    """
    tally = PredicateTally()
    if diag.failed_stage is not None:
        return tally
    truth = support_of(x_true)
    delta_pre = truth - diag.T_prev
    det_misses = truth - diag.T_det
    det_extras = diag.T_det - truth
    err_csres = float(np.sum((x_true - diag.x_csres) ** 2))

    def landed(name: str, candidates, thresh_sq: float | None, target) -> None:
        hyp = [] if thresh_sq is None else [i for i in candidates if x_true[i] ** 2 > thresh_sq]
        tally.add(name, len(hyp), sum(i not in target for i in hyp))

    def deleted(name: str, err_sq: float | None) -> None:
        extras = det_extras if err_sq is not None and cfg.alpha_del ** 2 >= err_sq else ()
        tally.add(name, len(extras), sum(i in diag.final_support for i in extras))

    idx = diag.T_det.to_array()
    d = np.asarray(x_true, dtype=float)[idx] - np.asarray(diag.x_det, dtype=float)[idx]
    det_err_sq = float(d @ d)
    kept = [i for i in diag.T_det if i in truth]
    landed("detection_guarantee", delta_pre, 2.0 * cfg.alpha ** 2 + 2.0 * err_csres, diag.T_det)
    landed("no_false_deletion_guarantee", kept, 2.0 * cfg.alpha_del ** 2 + 2.0 * det_err_sq, diag.final_support)
    deleted("extras_deletion_guarantee", det_err_sq)

    if len(delta_pre) > 0:
        det = detection_condition(ctx, len(diag.T_prev), len(delta_pre), cfg.alpha)
        landed("detection_condition", delta_pre, det.value, diag.T_det)
    count = len(det_misses)
    mag_sq = max((abs(x_true[i]) for i in det_misses), default=0.0) ** 2
    h = _hypotheses(ctx, len(diag.T_det), theta_with=count)
    keep_sq = err_sq = None
    if h.reason is None:
        keep_sq = _keep_threshold(ctx, cfg.alpha_del, h.theta.value, count, mag_sq)
        err_sq = _ls_error(ctx, h.theta.value, count, mag_sq)
    landed("no_false_deletion_condition", kept, keep_sq, diag.final_support)
    deleted("deletion_condition", err_sq)
    return tally

"""Ground-truth sequence generator: the signal model written as a schedule.

At t=0 the signal has ``s0 - sa`` nonzero entries of magnitude ``big_m``.
Epoch j starts at the addition time ``t_j = 1 + (j-1) d`` and ends at
``t_{j+1} - 1``.  At ``t_j`` a set A(j) of ``sa`` indices is drawn from those
that are zero at ``t_j``; index i of A(j) holds ``magnitude(min(t - t_j + 1,
d), a_i)`` from ``t_j`` on: it grows by ``a_i`` per step, capped at ``big_m``,
up to its plateau ``min(big_m, d a_i)``.  At ``t_{j+1} - r`` a set R(j) of
``sa`` indices is drawn from those nonzero at that step, minus A(j); index i
of R(j) holds ``plateau(i) (t_{j+1} - 1 - t) / r`` on ``[t_{j+1} - r,
t_{j+1} - 1]``, reaching zero at ``t_{j+1} - 1``, and stays zero until a later
addition draws it again.  That ramp is the unique linear schedule with that
per-step decrease rate and a zero endpoint, whatever value the coefficient
held before it started.  Coefficients added in earlier epochs are removal
candidates too; they have finished growing by the time a ramp can start,
since ``r < d``.

So every coefficient's trajectory is a closed form of its draw times, and
``generate`` writes each drawn index's whole range at once.  Every active
coefficient is nonzero until its removal step, so the support at t is the
support of the signal at t.  Each addition draw sees ``s0 - sa`` nonzero
indices, so ``s0 <= m`` leaves enough zero ones and ``s0 >= 2 sa`` enough
removal candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SupportSet, support_of


@dataclass(frozen=True)
class SignalModelParams:
    m: int
    s0: int
    sa: int
    d: int                 # steps between addition times
    r: int                 # ramp-down duration, 1 <= r < d
    big_m: float           # plateau magnitude
    rates: np.ndarray      # positive per-index growth rate, length m
    t_end: int
    seed: int

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", rates)
        if self.m < 1:
            raise ValueError("m must be positive")
        if rates.shape != (self.m,):
            raise ValueError("rates must have length m")
        if not np.all((0 < rates) & (rates < np.inf)):
            raise ValueError("all rates must be finite and positive")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 1 <= self.r < self.d:
            raise ValueError("need 1 <= r < d")
        if not 0 <= self.sa <= self.s0:
            raise ValueError("need 0 <= sa <= s0")
        if self.sa > 0 and self.s0 < 2 * self.sa:
            raise ValueError("need s0 >= 2 sa so removals avoid the newest additions")
        if self.s0 > self.m:
            raise ValueError("s0 cannot exceed m")
        if not 0 < self.big_m < np.inf:
            raise ValueError("plateau magnitude must be finite and positive")
        if self.t_end < self.d:
            raise ValueError("horizon must cover at least one full period")

    def addition_time(self, j: int) -> int:
        """t_j = 1 + (j-1) d for j >= 1."""
        return 1 + (j - 1) * self.d

    def magnitude(self, steps, rate):
        """Magnitude of a coefficient after ``steps`` steps of growth at
        ``rate``: the smaller of ``big_m`` and ``steps * rate``, elementwise
        on arrays.  Every ramp magnitude, in the generator and in the
        stability conditions, is read here."""
        return np.minimum(self.big_m, steps * np.asarray(rate, dtype=float))

    def plateau(self, i):
        return self.magnitude(self.d, self.rates[i])


@dataclass
class SignalSequence:
    """Generated trajectory and its change schedule."""

    params: SignalModelParams
    signals: np.ndarray                # (t_end + 1, m)
    addition_sets: list[SupportSet]    # A(j), j=1..
    removal_sets: list[SupportSet]     # R(j), j=1..
    addition_times: list[int]          # t_j, j=1..

    def signal_at(self, t: int) -> np.ndarray:
        return self.signals[t]

    def support_at(self, t: int) -> SupportSet:
        return support_of(self.signals[t])


def generate(params: SignalModelParams) -> SignalSequence:
    """Draw one trajectory; deterministic per ``params.seed``."""
    p = params
    rng = np.random.default_rng(p.seed)
    initial = rng.choice(p.m, size=p.s0 - p.sa, replace=False)
    signs = np.where(rng.random(p.m) < 0.5, -1.0, 1.0)
    # rows past t_end hold the tail of a ramp that the horizon cuts off
    mags = np.zeros((p.t_end + p.d, p.m))
    mags[:, initial] = p.big_m
    additions, removals, times = [], [], []
    for j in range(1, (p.t_end - 1) // p.d + 2 if p.sa else 1):
        t_j, t_next = p.addition_time(j), p.addition_time(j + 1)
        new = rng.choice(np.flatnonzero(mags[t_j] == 0), size=p.sa, replace=False)
        steps = np.minimum(np.arange(1, len(mags) - t_j + 1), p.d)
        mags[t_j:, new] = p.magnitude(steps[:, None], p.rates[new])
        additions.append(SupportSet(new, p.m))
        times.append(t_j)
        t_ramp = t_next - p.r
        if t_ramp > p.t_end:
            break
        eligible = mags[t_ramp] != 0
        eligible[new] = False
        removed = rng.choice(np.flatnonzero(eligible), size=p.sa, replace=False)
        mags[t_ramp:t_next, removed] = p.plateau(removed) * np.arange(p.r - 1, -1, -1)[:, None] / p.r
        mags[t_next:, removed] = 0.0
        removals.append(SupportSet(removed, p.m))
    # + 0.0 turns the -0.0 of a zero magnitude with a negative sign into 0.0
    signals = mags[: p.t_end + 1] * signs + 0.0
    return SignalSequence(p, signals, additions, removals, times)

"""Ground-truth sequence generator: periodic support additions with ramping
magnitudes, plateaus, and ramp-down removals.

The model: at t=0 the signal has ``s0 - sa`` nonzero entries of magnitude
``big_m``.  At each addition time ``t_j = 1 + (j-1) d`` a fresh set of ``sa``
indices enters at per-index initial magnitude ``a_i`` and grows by ``a_i`` per
step, capping at ``big_m``; growth lasts at most ``d`` steps so the plateau
value is the smaller of ``big_m`` and ``d a_i``.  At ``t_{j+1} - 1`` a set of
``sa`` currently-active indices (disjoint from the newest additions) leaves
the support after ramping down linearly over the final ``r`` steps: during
``[t_{j+1} - r, t_{j+1} - 1]`` the magnitude is ``plateau * (t_{j+1} - 1 -
t) / r``, reaching exactly zero at removal.  That ramp is the unique linear
schedule with that per-step decrease rate and a zero endpoint, regardless of
the value the coefficient held before the ramp started.

Removal candidates are drawn from the support at ``t_j`` minus the newest
additions only; coefficients added in earlier periods are eligible (they have
finished growing by the time a ramp can start, since ``r < d``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SupportSet

ROLE_INCREASING = "increasing"
ROLE_CONSTANT = "constant"
ROLE_DECREASING = "decreasing"


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

    def magnitude(self, steps: int, rate: float) -> float:
        """Magnitude of a coefficient after ``steps`` steps of growth at
        ``rate``: the smaller of ``big_m`` and ``steps * rate``.  Every ramp
        magnitude, in the generator and in the stability conditions, is read
        here."""
        return min(self.big_m, steps * float(rate))

    def plateau(self, i: int) -> float:
        return self.magnitude(self.d, self.rates[i])


@dataclass
class SignalSequence:
    """Generated trajectory with per-step support and change-set bookkeeping."""

    params: SignalModelParams
    signals: np.ndarray                      # (t_end + 1, m)
    supports: list[SupportSet]
    roles: list[dict[int, str]]              # per t: active index -> role
    addition_sets: list[SupportSet] = field(default_factory=list)   # A(j), j=1..
    removal_sets: list[SupportSet] = field(default_factory=list)    # R(j), j=1..
    addition_times: list[int] = field(default_factory=list)         # t_j, j=1..

    def signal_at(self, t: int) -> np.ndarray:
        return self.signals[t]

    def support_at(self, t: int) -> SupportSet:
        return self.supports[t]


def generate(params: SignalModelParams) -> SignalSequence:
    """Draw one trajectory; deterministic per ``params.seed``."""
    p = params
    rng = np.random.default_rng(p.seed)
    signals = np.zeros((p.t_end + 1, p.m))
    supports: list[SupportSet] = []
    roles: list[dict[int, str]] = []

    init_count = p.s0 - p.sa
    initial = rng.choice(p.m, size=init_count, replace=False) if init_count else np.empty(0, dtype=int)
    signs = np.where(rng.random(p.m) < 0.5, -1.0, 1.0)

    # per-index state: epoch the index was added in (-1 for t=0 members)
    added_at: dict[int, int] = {int(i): -1 for i in initial}
    active = set(int(i) for i in initial)
    addition_sets: list[SupportSet] = []
    removal_sets: list[SupportSet] = []
    addition_times: list[int] = []
    ramp: dict[int, float] = {}  # index -> plateau value feeding the ramp-down

    x = np.zeros(p.m)
    x[list(active)] = p.big_m * signs[list(active)]
    signals[0] = x
    supports.append(SupportSet(active, p.m))
    roles.append({i: ROLE_CONSTANT for i in active})

    j = 1
    for t in range(1, p.t_end + 1):
        t_j = p.addition_time(j)
        t_next = p.addition_time(j + 1)

        if t == t_j and p.sa > 0:
            free = np.setdiff1d(np.arange(p.m), np.asarray(sorted(active), dtype=int))
            if free.size < p.sa:
                raise ValueError("not enough zero indices left to draw additions")
            new = rng.choice(free, size=p.sa, replace=False)
            addition_sets.append(SupportSet(new, p.m))
            addition_times.append(t_j)
            for i in new:
                added_at[int(i)] = j
                active.add(int(i))
        if t == t_next - p.r and p.sa > 0:
            current = addition_sets[j - 1]
            eligible = np.asarray(sorted(active - set(current.indices)), dtype=int)
            if eligible.size < p.sa:
                raise ValueError("not enough removal candidates")
            removed = rng.choice(eligible, size=p.sa, replace=False)
            removal_sets.append(SupportSet(removed, p.m))
            ramp = {int(i): p.plateau(int(i)) for i in removed}

        last_step_of_period = t == t_next - 1
        x = np.zeros(p.m)
        role_t: dict[int, str] = {}
        for i in sorted(active):
            epoch = added_at[i]
            if i in ramp:
                mag = ramp[i] * (t_next - 1 - t) / p.r
                role_t[i] = ROLE_DECREASING
            elif epoch == j:
                k = min(t - t_j, p.d - 1)
                mag = p.magnitude(k + 1, p.rates[i])
                # the period's additions count as increasing until its last step
                role_t[i] = ROLE_CONSTANT if last_step_of_period else ROLE_INCREASING
            else:
                mag = p.big_m if epoch == -1 else p.plateau(i)
                role_t[i] = ROLE_CONSTANT
            x[i] = mag * signs[i]

        if last_step_of_period:
            if p.sa > 0:
                for i in removal_sets[j - 1]:
                    active.discard(i)
                    role_t.pop(i, None)
                x[removal_sets[j - 1].to_array()] = 0.0
            ramp = {}
            j += 1

        signals[t] = x
        supports.append(SupportSet(active, p.m))
        roles.append(role_t)

    return SignalSequence(
        params=p,
        signals=signals,
        supports=supports,
        roles=roles,
        addition_sets=addition_sets,
        removal_sets=removal_sets,
        addition_times=addition_times,
    )

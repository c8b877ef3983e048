import numpy as np
import pytest

from lscs.core import SupportSet
from lscs.sigmodel import SignalModelParams, generate


def stability_params(seed=0, t_end=24) -> SignalModelParams:
    rates = np.concatenate([np.full(100, 0.5), np.full(100, 0.25)])
    return SignalModelParams(
        m=200, s0=20, sa=2, d=8, r=2, big_m=3.0, rates=rates, t_end=t_end, seed=seed
    )


class TestGenerate:
    def test_support_size_schedule(self):
        seq = generate(stability_params(3))
        p = seq.params
        assert len(seq.support_at(0)) == p.s0 - p.sa
        for j, t_j in enumerate(seq.addition_times, start=1):
            t_next = p.addition_time(j + 1)
            for t in range(t_j, min(t_next - 1, p.t_end)):
                assert len(seq.support_at(t)) == p.s0
            if t_next - 1 <= p.t_end:
                assert len(seq.support_at(t_next - 1)) == p.s0 - p.sa

    def test_addition_removal_disjoint(self):
        seq = generate(stability_params(4))
        for add, rem in zip(seq.addition_sets, seq.removal_sets):
            assert not set(add) & set(rem)

    def test_addition_times(self):
        seq = generate(stability_params(5))
        assert seq.addition_times[:3] == [1, 9, 17]

    def test_increasing_magnitudes(self):
        seq = generate(stability_params(6))
        p = seq.params
        for j, t_j in enumerate(seq.addition_times, start=1):
            for i in seq.addition_sets[j - 1]:
                for k in range(0, min(p.d - 1, p.t_end - t_j) + 1):
                    expect = min(p.big_m, (k + 1) * p.rates[i])
                    assert abs(seq.signal_at(t_j + k)[i]) == pytest.approx(expect)

    def test_sign_fixed_at_addition(self):
        seq = generate(stability_params(7))
        p = seq.params
        t_j = seq.addition_times[0]
        for i in seq.addition_sets[0]:
            signs = {np.sign(seq.signal_at(t)[i]) for t in range(t_j, t_j + p.d - 1)}
            assert len(signs) == 1

    def test_decreasing_ramp(self):
        seq = generate(stability_params(8))
        p = seq.params
        t_next = p.addition_time(2)
        for i in seq.removal_sets[0]:
            plateau = min(p.big_m, p.d * p.rates[i])
            for t in range(t_next - p.r, t_next):
                expect = plateau * (t_next - 1 - t) / p.r
                assert abs(seq.signal_at(t)[i]) == pytest.approx(expect)
            assert seq.signal_at(t_next - 1)[i] == 0.0

    def test_max_power(self):
        seq = generate(stability_params(9))
        p = seq.params
        for t in range(p.t_end + 1):
            assert np.sum(seq.signal_at(t) ** 2) <= p.s0 * p.big_m ** 2 + 1e-9

    def test_seed_determinism(self):
        a = generate(stability_params(11))
        b = generate(stability_params(11))
        assert np.array_equal(a.signals, b.signals)
        assert a.addition_sets == b.addition_sets

    def test_static_when_no_changes(self):
        p = SignalModelParams(
            m=30, s0=5, sa=0, d=4, r=1, big_m=2.0, rates=np.full(30, 1.0), t_end=12, seed=2
        )
        seq = generate(p)
        for t in range(13):
            assert seq.support_at(t) == seq.support_at(0)
            assert np.array_equal(np.abs(seq.signal_at(t)[seq.support_at(t).to_array()]),
                                  np.full(5, 2.0))

    def test_single_rate_plateau(self):
        # a coefficient with rate big_m/2 plateaus at the second step
        p = SignalModelParams(
            m=10, s0=2, sa=1, d=4, r=1, big_m=2.0, rates=np.full(10, 1.0), t_end=8, seed=3
        )
        seq = generate(p)
        t_j = seq.addition_times[0]
        i = list(seq.addition_sets[0])[0]
        mags = [abs(seq.signal_at(t_j + k)[i]) for k in range(3)]
        assert mags == pytest.approx([1.0, 2.0, 2.0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SignalModelParams(m=10, s0=3, sa=1, d=3, r=3, big_m=1.0,
                              rates=np.ones(10), t_end=9, seed=0)
        with pytest.raises(ValueError):
            SignalModelParams(m=10, s0=3, sa=1, d=3, r=1, big_m=1.0,
                              rates=-np.ones(10), t_end=9, seed=0)
        with pytest.raises(ValueError):
            SignalModelParams(m=10, s0=3, sa=4, d=3, r=1, big_m=1.0,
                              rates=np.ones(10), t_end=9, seed=0)

    @pytest.mark.parametrize("big_m, rate", [
        (float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan")), (1.0, float("inf")),
    ])
    def test_non_finite_parameters(self, big_m, rate):
        rates = np.ones(10)
        rates[3] = rate
        with pytest.raises(ValueError):
            SignalModelParams(m=10, s0=3, sa=1, d=3, r=1, big_m=big_m, rates=rates, t_end=9, seed=0)


class TestChangeStats:
    def test_changes_only_at_schedule(self):
        seq = generate(stability_params(12))
        p = seq.params
        for t in range(1, p.t_end + 1):
            prev, cur = seq.support_at(t - 1), seq.support_at(t)
            assert len(cur - prev) == (p.sa if (t - 1) % p.d == 0 else 0)
            assert len(prev - cur) == (p.sa if t % p.d == 0 else 0)


def reference_generate(p: SignalModelParams):
    """The step-by-step simulation that ``generate`` replaced, kept as its
    oracle: per-step state, the ramp magnitude written out as
    ``min(big_m, steps * rate)``, and the support tracked by hand.  Returns
    (signals, supports, addition_sets, removal_sets, addition_times)."""
    def magnitude(steps, rate):
        return min(p.big_m, steps * float(rate))

    rng = np.random.default_rng(p.seed)
    signals = np.zeros((p.t_end + 1, p.m))
    supports = []

    init_count = p.s0 - p.sa
    initial = rng.choice(p.m, size=init_count, replace=False) if init_count else np.empty(0, dtype=int)
    signs = np.where(rng.random(p.m) < 0.5, -1.0, 1.0)

    # per-index state: epoch the index was added in (-1 for t=0 members)
    added_at = {int(i): -1 for i in initial}
    active = set(int(i) for i in initial)
    addition_sets, removal_sets, addition_times = [], [], []
    ramp = {}  # index -> plateau value feeding the ramp-down

    x = np.zeros(p.m)
    x[list(active)] = p.big_m * signs[list(active)]
    signals[0] = x
    supports.append(SupportSet(active, p.m))

    j = 1
    for t in range(1, p.t_end + 1):
        t_j = p.addition_time(j)
        t_next = p.addition_time(j + 1)

        if t == t_j and p.sa > 0:
            free = np.setdiff1d(np.arange(p.m), np.asarray(sorted(active), dtype=int))
            new = rng.choice(free, size=p.sa, replace=False)
            addition_sets.append(SupportSet(new, p.m))
            addition_times.append(t_j)
            for i in new:
                added_at[int(i)] = j
                active.add(int(i))
        if t == t_next - p.r and p.sa > 0:
            current = addition_sets[j - 1]
            eligible = np.asarray(sorted(active - set(current.indices)), dtype=int)
            removed = rng.choice(eligible, size=p.sa, replace=False)
            removal_sets.append(SupportSet(removed, p.m))
            ramp = {int(i): magnitude(p.d, p.rates[int(i)]) for i in removed}

        x = np.zeros(p.m)
        for i in sorted(active):
            epoch = added_at[i]
            if i in ramp:
                mag = ramp[i] * (t_next - 1 - t) / p.r
            elif epoch == j:
                mag = magnitude(min(t - t_j, p.d - 1) + 1, p.rates[i])
            else:
                mag = p.big_m if epoch == -1 else magnitude(p.d, p.rates[i])
            x[i] = mag * signs[i]

        if t == t_next - 1:
            if p.sa > 0:
                for i in removal_sets[j - 1]:
                    active.discard(i)
                x[removal_sets[j - 1].to_array()] = 0.0
            ramp = {}
            j += 1

        signals[t] = x
        supports.append(SupportSet(active, p.m))

    return signals, supports, addition_sets, removal_sets, addition_times


def sweep_params(count: int, seed: int = 0):
    """Seeded models over m 10-200, sa 0-3, every r below d, plateaus capped
    by big_m or not, and horizons that end anywhere in an epoch (mid-ramp
    included)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = int(rng.integers(10, 201))
        sa = int(rng.integers(0, 4))
        # s0 = m leaves exactly sa zero indices at each addition draw
        s0 = m if k % 10 == 0 else int(rng.integers(max(2 * sa, 1), min(m, 2 * sa + 20) + 1))
        d = int(rng.integers(2, 11))
        r = int(rng.integers(1, d))
        rates = rng.uniform(0.05, 1.0, m)
        big_m = float(rng.uniform(0.2, 1.5)) if k % 2 else 100.0
        t_end = int(rng.integers(d, 5 * d + 1))
        yield SignalModelParams(m=m, s0=s0, sa=sa, d=d, r=r, big_m=big_m, rates=rates,
                                t_end=t_end, seed=k)


class TestAgainstReference:
    def test_seeded_sweep_is_bit_identical(self):
        for p in sweep_params(400):
            seq = generate(p)
            signals, supports, additions, removals, times = reference_generate(p)
            assert np.array_equal(seq.signals, signals), p
            assert np.array_equal(np.signbit(seq.signals), np.signbit(signals)), p
            assert seq.addition_sets == additions and seq.removal_sets == removals, p
            assert seq.addition_times == times, p
            assert [seq.support_at(t) for t in range(p.t_end + 1)] == supports, p

    def test_sweep_covers_the_schedule_edges(self):
        params = list(sweep_params(400))
        assert {p.sa for p in params} == {0, 1, 2, 3}
        assert any(p.s0 == p.m and p.sa for p in params)
        assert any(p.r == p.d - 1 for p in params)
        assert any(np.max(p.rates) * p.d > p.big_m for p in params)
        assert any(np.max(p.rates) * p.d < p.big_m for p in params)
        # a horizon ending inside a ramp-down
        assert any(p.sa and (p.t_end + p.r) % p.d >= 1 and (p.t_end + p.r) % p.d < p.r for p in params)

import numpy as np
import pytest

from lscs.sigmodel import (
    ROLE_CONSTANT,
    ROLE_DECREASING,
    ROLE_INCREASING,
    SignalModelParams,
    generate,
)


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
            assert len(add & rem) == 0

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

    def test_roles_partition(self):
        seq = generate(stability_params(10))
        p = seq.params
        for t in range(p.t_end + 1):
            roles = seq.roles[t]
            assert set(roles) == set(seq.support_at(t).indices)
        # inside a period: additions increasing, ramp members decreasing
        t_j = seq.addition_times[1]
        mid = t_j + 2
        for i in seq.addition_sets[1]:
            assert seq.roles[mid][i] == ROLE_INCREASING
        ramp_t = p.addition_time(3) - p.r
        if ramp_t <= p.t_end:
            for i in seq.removal_sets[1]:
                assert seq.roles[ramp_t][i] == ROLE_DECREASING
        # last step of a period is all constant
        last = p.addition_time(2) - 1
        assert all(r == ROLE_CONSTANT for r in seq.roles[last].values())

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
        for t in range(1, len(seq.supports)):
            prev, cur = seq.supports[t - 1], seq.supports[t]
            assert len(cur - prev) == (p.sa if (t - 1) % p.d == 0 else 0)
            assert len(prev - cur) == (p.sa if t % p.d == 0 else 0)

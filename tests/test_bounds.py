import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from lscs.bounds import (
    BoundContext,
    PredicateTally,
    recovery_constants,
    no_miss_residual_bound,
    simplified_residual_bound,
    compressibility_residual_bound,
    detected_support_ls_error_bound,
    find_min_d0,
    detection_condition,
    prescribed_alpha_del,
    stability_error_caps,
    residual_recovery_bound,
    runtime_step_checks,
    check_stability_conditions,
    _keep_threshold,
    _ls_error,
)
from lscs.core import SupportSet, support_of
from lscs.filter import FilterConfig, FilterState, StepDiagnostics, lscs_step
from lscs.measurement import (
    InsufficientRipTable,
    RipTable,
    build_rip_table,
    gen_gaussian_matrix,
    gen_perturbed_orthonormal_matrix,
)
from lscs.sigmodel import SignalModelParams, generate
from lscs.solver import ls_on_support


def flat_table(delta=0.0, theta=0.0, max_s=16, max_pair=8) -> RipTable:
    table = RipTable("synthetic")
    for s in range(1, max_s + 1):
        table.set_delta(s, delta, True)
    for s in range(1, max_pair + 1):
        for sp in range(1, 2 * max_pair + 1):
            table.set_theta(s, sp, theta, True)
    return table


def make_ctx(table, n=10, m=50, lam=1.0, norm1=2.0, noise=None) -> BoundContext:
    if noise is None:
        noise = lam / norm1
    return BoundContext(rip=table, n=n, m=m, lam=lam, norm_A_1=norm1, noise_linf_bound=noise)


class TestConstants:
    def test_zero_table(self):
        cc = recovery_constants(1, flat_table())
        assert (cc.c2, cc.c3) == (48.0, 8.0)

    def test_quarter_values(self):
        cc = recovery_constants(1, flat_table(delta=0.25, theta=0.25))
        assert cc.c2 == pytest.approx(192.0)
        assert cc.c3 == pytest.approx(14.0)

    def test_divergence_near_one(self):
        prev = 0.0
        for gap in [0.5, 0.25, 0.1, 0.01]:
            cc = recovery_constants(1, flat_table(delta=1 - gap - 0.01, theta=0.01))
            assert cc.c2 > prev
            prev = cc.c2

    def test_denominator_error(self):
        with pytest.raises(ValueError):
            recovery_constants(1, flat_table(delta=0.7, theta=0.4))


class TestScanBound:
    def test_trivial_no_misses_no_noise(self):
        ctx = make_ctx(flat_table())
        res = residual_recovery_bound(ctx, 5, np.array([]), 0.0)
        assert res.applicable
        assert res.value == pytest.approx(48.0)  # C2(1) * 1 * lam^2
        assert res.argmin_s == 1

    def test_min_correctness(self):
        table = flat_table(delta=0.1, theta=0.2)
        ctx = make_ctx(table)
        x_delta = np.array([0.5, 1.5, -1.0])
        res = residual_recovery_bound(ctx, 5, x_delta, 0.3)
        theta = table.theta(5, 3).value
        xd_sq = float(x_delta @ x_delta)
        for s in range(1, 8 + 1):
            cc = recovery_constants(s, table)
            b = 8 * theta ** 2 * xd_sq + 4 * 0.3
            if s < 3:
                mags = np.sort(np.abs(x_delta))
                b += float(np.sum(mags[: 3 - s] ** 2))
            f_s = cc.c2 * s + cc.c3 * (8 - s) / s * b
            assert res.value <= f_s + 1e-12

    def test_monotone_in_delta_energy(self):
        ctx = make_ctx(flat_table(theta=0.2))
        small = residual_recovery_bound(ctx, 5, np.array([0.5, 0.5]), 0.1)
        large = residual_recovery_bound(ctx, 5, np.array([5.0, 5.0]), 0.1)
        assert large.value >= small.value

    def test_not_applicable_when_t_too_big(self):
        table = flat_table(delta=0.6)
        res = residual_recovery_bound(make_ctx(table), 4, np.array([1.0]), 0.0)
        assert not res.applicable
        assert any("S*" in r for r in res.reasons)

    def test_failed_hypothesis_reads_no_further_constant(self):
        # |T| = 12 exceeds S* on this matrix, so the table computes delta_12
        # and neither the S** constants nor theta_{12,2}
        A = gen_gaussian_matrix(16, 16, 5)
        table = build_rip_table(A, mode="sampled", trials=50)
        ctx = BoundContext(rip=table, n=16, m=16, lam=0.1,
                           norm_A_1=A.induced_one_norm, noise_linf_bound=0.0)
        res = simplified_residual_bound(ctx, 12, 2, 1.0)
        assert res.reasons == ["|T|=12 exceeds S*"]
        assert table.to_json_dict()["delta"].keys() == {"12"}
        assert table.to_json_dict()["theta"] == {}

    def test_not_applicable_on_noise_budget(self):
        ctx = make_ctx(flat_table(), noise=10.0)
        res = residual_recovery_bound(ctx, 4, np.array([1.0]), 0.0)
        assert not res.applicable


class TestSingleScaleBound:
    def test_hand_values(self):
        ctx = make_ctx(flat_table(), n=10, lam=1.0, norm1=2.0)
        res = simplified_residual_bound(ctx, 5, 1, 0.0)
        assert res.applicable
        assert res.details["c_prime"] == pytest.approx(448.0)
        assert res.details["c_double_prime"] == pytest.approx(320.0)
        assert res.value == pytest.approx(448.0)  # theta = 0

    def test_single_miss_matches_scan_term_at_worst_noise(self):
        # with |Delta| = 1 the single-S bound is the S=1 term of the scan
        table = flat_table(delta=0.1, theta=0.2)
        ctx = make_ctx(table)
        xd = np.array([1.3])
        cor = simplified_residual_bound(ctx, 6, 1, float(xd @ xd))
        cc = recovery_constants(1, table)
        theta = table.theta(6, 1).value
        b = 8 * theta ** 2 * float(xd @ xd) + 4 * ctx.w_max_sq()
        f1 = cc.c2 * ctx.lam ** 2 + cc.c3 * 6.0 * b
        assert cor.value == pytest.approx(f1, rel=1e-12)

    def test_looser_than_scan_term(self):
        # for |Delta| >= 1 the single-S form never beats the scan evaluated
        # with worst-case noise energy
        # the scan reads up to S = 6 + 3, so delta_18 and theta_{9,18}
        table = flat_table(delta=0.1, theta=0.15, max_s=18, max_pair=9)
        ctx = make_ctx(table)
        for size_delta in [1, 2, 3]:
            xd = np.linspace(1.0, 2.0, size_delta)
            cor = simplified_residual_bound(ctx, 6, size_delta, float(xd @ xd))
            thm = residual_recovery_bound(ctx, 6, xd, ctx.w_max_sq())
            assert cor.value >= thm.value - 1e-9

    def test_delta_zero_branch_rejected(self):
        res = simplified_residual_bound(make_ctx(flat_table()), 5, 0, 0.0)
        assert not res.applicable

    def test_b0(self):
        ctx = make_ctx(flat_table(), n=10, lam=1.0, norm1=2.0)
        res = no_miss_residual_bound(ctx, 5)
        # min over S <= 5 of 48 S + 8 (5-S)/S * 10; best at S=1: 48+320=368? S=2: 96+120=216
        values = [48 * s + 8 * (5 - s) / s * 10 for s in range(1, 6)]
        assert res.applicable
        assert res.value == pytest.approx(min(values))

    def test_b0_scan_never_exceeds_t(self):
        # S > |T| terms would be negative; they must not enter the minimum
        ctx = make_ctx(flat_table(), n=10, lam=1.0, norm1=2.0)
        res = no_miss_residual_bound(ctx, 1)
        assert res.value == pytest.approx(48.0)
        assert res.argmin_s == 1


class TestCsBound:
    def test_residual_route_beats_one_shot_under_comparison_regime(self):
        # |Delta| = |Delta_e| = 0.1 |N|, scan capped at 0.2 |N| via coverage,
        # theta^2 < 1/8, small noise, recent additions no larger than the rest
        size_n = 10
        table = RipTable("cmp")
        for s in [1, 2]:
            table.set_delta(2 * s, 0.1, True)
            table.set_theta(s, 2 * s, 0.3, True)
        for s in range(1, 16):
            table.set_delta(s, 0.1, True)
        table.set_theta(10, 1, 0.3, True)
        ctx = make_ctx(table, n=30, lam=0.1, norm1=2.0, noise=0.05)
        x_rest = np.full(size_n - 1, 1.0)
        x_delta = np.array([1.0])
        w_sq = 0.05   # <= ||x_rest(1)||^2 (1 - 8 theta^2)/4 = 0.07
        size_t = size_n + 1 - 1  # |N| + |Delta_e| - |Delta|

        theta = table.theta(size_t, 1).value
        for s in [1, 2]:
            cc = recovery_constants(s, table)
            b = 8 * theta ** 2 * float(x_delta @ x_delta) + 4 * w_sq
            if s < 1:
                b += 0.0
            f_res = cc.c2 * s * ctx.lam ** 2 + cc.c3 * (size_t + 1 - s) / s * b
            x_full = np.concatenate([x_rest, x_delta])
            mags = np.sort(np.abs(x_full))
            tail = float(np.sum(mags[: size_n - s] ** 2))
            f_cs = cc.c2 * s * ctx.lam ** 2 + cc.c3 * (size_n - s) / s * tail
            assert f_res <= f_cs


class TestCompressibilityBound:
    def test_small_b_drops_t_dependence(self):
        table = flat_table(delta=0.05, theta=0.1, max_pair=10)
        ctx = make_ctx(table)
        b = 1e-3
        small_t = compressibility_residual_bound(ctx, 2, 1, 4.0, b)
        large_t = compressibility_residual_bound(ctx, 9, 1, 4.0, b)
        assert small_t.value == pytest.approx(large_t.value)

    def test_large_b_reduces_to_single_scale_bound(self):
        table = flat_table(delta=0.05, theta=0.1)
        ctx = make_ctx(table)
        res = compressibility_residual_bound(ctx, 5, 1, 4.0, b=1e9)
        cor1 = simplified_residual_bound(ctx, 5, 1, 4.0)
        assert res.value == pytest.approx(cor1.value)

    def test_delta_zero_falls_back_to_b0(self):
        ctx = make_ctx(flat_table())
        res = compressibility_residual_bound(ctx, 5, 0, 0.0, b=0.1)
        b0 = no_miss_residual_bound(ctx, 5)
        assert res.value == pytest.approx(b0.value)


class TestConditionLemmas:
    def simple_ctx(self, theta=0.0):
        table = flat_table(theta=theta, max_s=8, max_pair=4)
        return make_ctx(table, n=10, lam=1.0, norm1=2.0)

    def test_detection_threshold_theta_zero(self):
        # denominator is 1; worst C' over |T| <= 2, |Delta| = 1 is at |T| = 2
        ctx = self.simple_ctx()
        det = detection_condition(ctx, 2, 1, alpha=0.1)
        c_prime_max = 48.0 + 4 * 8 * 2 * ctx.w_max_sq()
        assert det.applicable and not det.optimistic
        assert det.value == pytest.approx(2 * 0.01 + 2 * c_prime_max)

    def test_detection_gate_failure(self):
        # a failing gate has no threshold, but keeps its exactness flag
        ctx = self.simple_ctx(theta=0.5)
        det = detection_condition(ctx, 4, 2, alpha=0.1)
        assert not det.applicable and not det.optimistic
        assert det.value is None and det.reasons == ["detection gate fails"]

    def test_deletion_threshold_theta_zero(self):
        ctx = self.simple_ctx()
        ls_error = _ls_error(ctx, ctx.rip.theta(2, 1).value, 1, 4.0)
        assert ls_error == pytest.approx(4 * ctx.w_max_sq())
        # matches the squared prescribed deletion threshold
        assert prescribed_alpha_del(ctx) ** 2 == pytest.approx(ls_error)

    def test_no_false_deletion_threshold(self):
        ctx = self.simple_ctx()
        threshold = _keep_threshold(ctx, 0.0, ctx.rip.theta(2, 1).value, 1, 4.0)
        assert threshold == pytest.approx(8 * ctx.w_max_sq())

    def test_misses_term_dropped_when_empty(self):
        ctx = self.simple_ctx(theta=0.3)
        theta = ctx.rip.theta(2, 1).value
        without = _ls_error(ctx, theta, 0, 4.0)
        assert without == pytest.approx(4 * ctx.w_max_sq())
        assert _ls_error(ctx, theta, 1, 4.0) > without
        # survival threshold: 2 alpha_del^2 plus twice the LS error
        assert _keep_threshold(ctx, 0.3, theta, 1, 4.0) == pytest.approx(
            2 * 0.3 ** 2 + 2 * _ls_error(ctx, theta, 1, 4.0)
        )


def generous_model(m=100, s0=6, sa=2, d=20, r=2, big_m=10.0, rate=5.0, t_end=40):
    return SignalModelParams(
        m=m, s0=s0, sa=sa, d=d, r=r, big_m=big_m,
        rates=np.full(m, rate), t_end=t_end, seed=0,
    )


def zero_rip_ctx(model, n=50, lam=0.1, norm1=5.0):
    """Every defined constant of an m-column matrix set to zero."""
    table = RipTable("zero")
    for s in range(1, model.m + 1):
        table.set_delta(s, 0.0, True)
        for sp in range(1, model.m - s + 1):
            table.set_theta(s, sp, 0.0, True)
    return BoundContext(rip=table, n=n, m=model.m, lam=lam, norm_A_1=norm1,
                        noise_linf_bound=lam / norm1)


class TestStabilityConditions:
    def test_generous_config_passes(self):
        model = generous_model()
        ctx = zero_rip_ctx(model)
        report = check_stability_conditions(model, ctx, f=1, d0=3, alpha=0.05)
        assert report.holds
        assert not report.optimistic

    def test_condition7_arithmetic(self):
        model = generous_model(d=8, sa=2, r=2)
        ctx = zero_rip_ctx(model)
        for d0, expect in [(4, True), (5, False)]:
            report = check_stability_conditions(model, ctx, f=1, d0=d0, alpha=0.05)
            assert report.row("addition-spacing").holds is expect

    def test_condition6_isolated(self):
        # no additions; ramp almost as long as the period blows only the
        # decreasing-coefficient condition
        model = generous_model(s0=5, sa=0, d=10, r=9, big_m=1.0, rate=1.0, t_end=20)
        ctx = zero_rip_ctx(model)
        report = check_stability_conditions(model, ctx, f=0, d0=1, alpha=0.05)
        failing = [r.identifier for r in report.rows if not r.holds and not r.assumed]
        assert failing == ["keep-decreasing-coefficients"]

    def test_wrong_alpha_del_flagged(self):
        model = generous_model()
        ctx = zero_rip_ctx(model)
        report = check_stability_conditions(model, ctx, f=1, d0=3, alpha=0.05, alpha_del=99.0)
        assert not report.row("deletion-threshold").holds

    def test_missing_entries_listed(self):
        model = generous_model()
        ctx = BoundContext(rip=RipTable("empty"), n=50, m=model.m, lam=0.1,
                           norm_A_1=5.0, noise_linf_bound=0.01)
        with pytest.raises(InsufficientRipTable) as err:
            check_stability_conditions(model, ctx, f=1, d0=3, alpha=0.05)
        assert "delta_" in str(err.value)

    def test_oversized_theta_rows_fail_without_lookup(self):
        # S_T + S_Delta > m for every keep row: the table lacks those thetas,
        # and each row reports a failure instead of looking one up
        model = generous_model(m=16, s0=8, sa=4, d=10)
        ctx = zero_rip_ctx(model)
        with pytest.raises(InsufficientRipTable):
            ctx.rip.theta(13, 4)
        report = check_stability_conditions(model, ctx, f=1, d0=5, alpha=0.05)
        oversized = [f"keep-addition-{i}" for i in range(1, 5)] + ["keep-constant-coefficients"]
        for name in oversized:
            row = report.row(name)
            assert not row.holds and row.note == "S_T + S_Delta > m"
            assert row.lhs is None and row.rhs is None
            assert row.inputs["S_T"] + row.inputs["S_Delta"] > model.m
        assert not report.holds
        # at d0 = 2 only the keep-constant row is oversized
        report = check_stability_conditions(model, ctx, f=1, d0=2, alpha=0.05)
        assert [r.identifier for r in report.rows if r.note == "S_T + S_Delta > m"] == [
            "keep-constant-coefficients"
        ]
        assert report.row("keep-addition-1").lhs is not None

    @pytest.mark.parametrize("d0", [5, "scan"])
    def test_oversized_delta_rows_fail_without_lookup(self, d0):
        # S_T = s0 + f (d0 + S_a) passes m = 16 from d0 = 5 on: no delta of
        # that size is requested, and the rows that would read one fail
        model = generous_model(m=16, s0=8, sa=4, d=10)
        ctx = zero_rip_ctx(model)
        with pytest.raises(InsufficientRipTable):
            ctx.rip.delta(model.m + 1)
        if d0 == "scan":
            found, report = find_min_d0(model, ctx, f=1, alpha=0.05)
            assert found is None and report.d0 == model.d - 1
            assert report.row("detect-addition-1").note == "S_T=17 exceeds S*"
        else:
            report = check_stability_conditions(model, ctx, f=1, d0=d0, alpha=0.05)
        row = report.row("support-size-within-ls-range")
        assert not row.holds and row.note == "S_T > m"
        assert row.lhs is None and row.inputs["S_T"] > model.m
        assert not report.holds

    def test_threshold_rows_read_the_definitions(self):
        # distinct constants, so a row reading the wrong entry shows
        table = RipTable("graded")
        for s in range(1, 31):
            table.set_delta(s, 0.013 * s, True)
            for sp in range(1, 31 - s):
                table.set_theta(s, sp, 0.007 * (s + sp), True)
        ctx = BoundContext(rip=table, n=50, m=30, lam=0.1, norm_A_1=5.0, noise_linf_bound=0.02)

        def survival(theta, count, mag_sq):
            # 2 alpha_del^2 + 2 (4 n lam^2/||A||_1^2 + 8 theta^2 count mag^2)
            return (2.0 * prescribed_alpha_del(ctx) ** 2 + 8.0 * ctx.w_max_sq()
                    + 16.0 * theta ** 2 * count * mag_sq)

        for sa in (0, 1, 2, 4):
            model = generous_model(m=30, s0=8, sa=sa, d=10)
            report = check_stability_conditions(model, ctx, f=1, d0=2, alpha=0.05)
            # every rate is 5 and big_m is 10, so each magnitude caps at 10
            for i in range(1, sa + 1):
                row = report.row(f"keep-addition-{i}")
                assert row.inputs == {"S_T": 8 + (2 + i), "S_Delta": sa - i}
                mag_sq = 100.0 if i < sa else 0.0
                assert row.rhs == survival(table.theta(8 + (2 + i), sa - i).value, sa - i, mag_sq)
            theta = table.theta(8 + (2 + sa), sa).value
            assert report.row("keep-constant-coefficients").rhs == survival(theta, sa, 100.0)
            caps = stability_error_caps(model, ctx, f=1, d0=2)
            assert caps.support_err_sq == 4.0 * ctx.w_max_sq() + 8.0 * theta ** 2 * sa * 100.0
            row = report.row("addition-count-within-recovery-range")
            if sa == 0:
                assert row.lhs is None and row.holds
            else:
                assert row.lhs == table.delta(2 * sa).value + table.theta(sa, 2 * sa).value
            row = report.row("support-size-within-ls-range")
            assert row.inputs["S_T"] == 8 + (2 + sa)
            assert row.lhs == table.delta(8 + (2 + sa)).value
        model = generous_model(m=30, s0=8, sa=1, d=10)
        for excess in (0.0, 5e-13, 2e-12, 1e-3):
            noisy = replace(ctx, noise_linf_bound=0.1 / 5.0 + excess)
            row = check_stability_conditions(model, noisy, f=1, d0=2, alpha=0.05).row("noise-budget")
            assert row.holds is noisy.noise_budget_ok()
            assert row.holds is (excess < 1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_addition_rows_match_every_addition_set(self, seed):
        # the detect and keep rows must hold for every size-S_a index subset;
        # enumerate them all and compare with the rows read off sorted rates
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(40):
            m = int(rng.integers(2, 10))
            sa = int(rng.integers(1, m // 2 + 1))
            s0 = int(rng.integers(2 * sa, m + 1))
            if rng.random() < 0.5:
                rates = rng.choice([0.3, 0.7, 1.1], size=m)
            else:
                rates = np.round(rng.permutation(rng.uniform(0.1, 2.0, m)), 3)
            d0 = int(rng.integers(1, 4))
            # big_m caps some magnitudes or none
            big_m = 100.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 3.0))
            model = SignalModelParams(m=m, s0=s0, sa=sa, d=d0 + sa + 2, r=1, big_m=big_m,
                                      rates=rates, t_end=d0 + sa + 2, seed=0)
            table = RipTable("random")
            for k in range(1, m + 1):
                table.set_delta(k, rng.uniform(0.0, 0.3), True)
                for kp in range(1, m - k + 1):
                    table.set_theta(k, kp, rng.uniform(0.0, 0.3), True)
            ctx = BoundContext(rip=table, n=m, m=m, lam=0.05, norm_A_1=2.0, noise_linf_bound=0.0)
            alpha_del = float(rng.uniform(0.0, 0.5))
            report = check_stability_conditions(model, ctx, f=0, d0=d0, alpha=0.1, alpha_del=alpha_del)
            subsets = [sorted(rates[list(c)], reverse=True)
                       for c in itertools.combinations(range(m), sa)]
            for i in range(1, sa + 1):
                mags = [[min(big_m, (d0 + i) * a) for a in ms] + [0.0] for ms in subsets]
                row = report.row(f"detect-addition-{i}")
                assert row.lhs == min(mag[i - 1] ** 2 for mag in mags)
                row = report.row(f"keep-addition-{i}")
                if s0 + sa - i > m:
                    assert row.lhs is None and row.note == "S_T + S_Delta > m"
                    continue
                theta = table.theta(s0, sa - i).value
                pairs = [(mag[i - 1] ** 2, _keep_threshold(ctx, alpha_del, theta, sa - i, mag[i] ** 2))
                         for mag in mags]
                worst = min(lhs - rhs for lhs, rhs in pairs)
                assert row.holds is bool(worst > 0)
                assert row.lhs - row.rhs == worst
                assert (row.lhs, row.rhs) in [pair for pair in pairs if pair[0] - pair[1] == worst]
                checked += 1
        assert checked >= 40

    def test_addition_rows_with_many_distinct_rates(self):
        # 30 distinct rates and S_a = 5 give 142,506 rate multisets
        rates = 0.05 * np.arange(1, 31)
        model = SignalModelParams(m=30, s0=10, sa=5, d=12, r=2, big_m=10.0,
                                  rates=np.random.default_rng(3).permutation(rates), t_end=24, seed=0)
        report = check_stability_conditions(model, zero_rip_ctx(model), f=0, d0=2, alpha=0.05)
        # detect-addition-i reads the i-th largest of the five smallest rates
        for i in range(1, 6):
            assert report.row(f"detect-addition-{i}").lhs == ((2 + i) * rates[5 - i]) ** 2
        assert report.row("keep-addition-5").lhs == (7 * rates[0]) ** 2

    def test_scan_reaches_d0_that_fits(self):
        # S_T = 19 > m at d0 = d - 1, but d0 = 1 fits and passes
        model = generous_model(m=16, s0=3, sa=1, d=16)
        ctx = zero_rip_ctx(model)
        d0, report = find_min_d0(model, ctx, f=1, alpha=0.05)
        assert d0 == 1 and report.holds

    def test_find_min_d0(self):
        model = generous_model(d=8, sa=2, r=2)
        ctx = zero_rip_ctx(model)
        d0, report = find_min_d0(model, ctx, f=1, alpha=0.05)
        assert d0 == 1
        assert report.holds

    def test_report_roundtrip(self):
        model = generous_model()
        ctx = zero_rip_ctx(model)
        report = check_stability_conditions(model, ctx, f=1, d0=3, alpha=0.05)
        doc = report.to_json_dict()
        assert doc["holds"] is True
        assert any(r["identifier"] == "detection-gate" for r in doc["rows"])


class TestStabilityCaps:
    def test_hand_values(self):
        model = generous_model()
        ctx = zero_rip_ctx(model)
        caps = stability_error_caps(model, ctx, f=1, d0=3)
        assert caps.applicable
        assert caps.miss_err_sq == pytest.approx(2 * min(10.0, 5 * 5.0) ** 2)
        assert caps.support_err_sq == pytest.approx(4 * ctx.w_max_sq())  # theta = 0

    def test_no_additions(self):
        model = generous_model(s0=5, sa=0, d=10, r=2, t_end=20)
        ctx = zero_rip_ctx(model)
        caps = stability_error_caps(model, ctx, f=0, d0=1)
        assert caps.miss_err_sq == 0.0


class TestSmallScaleStabilityRun:
    """Exact-constants variant of the tracking run: the stability conditions
    verify, and the implied error caps hold at every step."""

    def test_caps_hold_on_every_step(self):
        m = n = 16
        A = gen_perturbed_orthonormal_matrix(n, m, seed=5, noise_scale=0.02)
        lam = 0.05
        w_linf = lam / A.induced_one_norm
        model = SignalModelParams(m=m, s0=3, sa=1, d=8, r=2, big_m=3.0,
                                  rates=np.full(m, 1.0), t_end=24, seed=99)
        f = 0
        table = build_rip_table(A, mode="exact")
        ctx = BoundContext(rip=table, n=n, m=m, lam=lam,
                           norm_A_1=A.induced_one_norm, noise_linf_bound=w_linf)
        alpha = 0.5
        d0, report = find_min_d0(model, ctx, f, alpha)
        assert d0 is not None and report.holds and not report.optimistic
        caps = stability_error_caps(model, ctx, f, d0)
        assert caps.applicable and not caps.optimistic

        cfg = FilterConfig(lam=lam, alpha=alpha, alpha_del=prescribed_alpha_del(ctx))
        false_detects = 0
        for trial in range(5):
            rng = np.random.default_rng([1234, trial])
            seq = generate(SignalModelParams(
                m=m, s0=3, sa=1, d=8, r=2, big_m=3.0, rates=np.full(m, 1.0),
                t_end=24, seed=int(rng.integers(2 ** 62)),
            ))
            y0 = A.entries @ seq.signal_at(0) + rng.uniform(-w_linf, w_linf, n)
            state = FilterState(seq.support_at(0), ls_on_support(A, seq.support_at(0), y0))
            for t in range(1, 25):
                x = seq.signal_at(t)
                y = A.entries @ x + rng.uniform(-w_linf, w_linf, n)
                state, diag = lscs_step(state, A, y, cfg)
                assert diag.failed_stage is None
                truth = support_of(x)
                false_detects += len((diag.T_det - truth) - (diag.T_prev - truth))
                miss_idx = (truth - diag.final_support).to_array()
                assert float(np.sum(x[miss_idx] ** 2)) <= caps.miss_err_sq + 1e-9
                support_err = sum(
                    (x[i] - diag.x_final[i]) ** 2 for i in diag.final_support
                )
                assert support_err <= caps.support_err_sq + 1e-9
                assert float(np.sum((x - diag.x_csres) ** 2)) <= caps.csres_err_cap + 1e-9
        # condition 2 assumed at most f = 0 false detections per step
        assert false_detects == 0

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_runtime_predicates_fire(self, mode):
        # a less perturbed matrix and a smaller lam than above, so the noise
        # budget holds and every predicate's hypothesis is met on some step
        m = n = 16
        A = gen_perturbed_orthonormal_matrix(n, m, seed=5, noise_scale=0.005)
        lam = 0.02
        w_linf = lam / A.induced_one_norm
        table = build_rip_table(A, mode=mode, trials=200)
        ctx = BoundContext(rip=table, n=n, m=m, lam=lam,
                           norm_A_1=A.induced_one_norm, noise_linf_bound=w_linf)
        cfg = FilterConfig(lam=lam, alpha=0.5, alpha_del=prescribed_alpha_del(ctx))
        tally = PredicateTally()
        steps_with_misses = 0
        for trial in range(3):
            rng = np.random.default_rng([1234, trial])
            seq = generate(SignalModelParams(
                m=m, s0=3, sa=1, d=8, r=2, big_m=3.0, rates=np.full(m, 1.0),
                t_end=24, seed=int(rng.integers(2 ** 62)),
            ))
            y0 = A.entries @ seq.signal_at(0) + rng.uniform(-w_linf, w_linf, n)
            state = FilterState(seq.support_at(0), ls_on_support(A, seq.support_at(0), y0))
            for t in range(1, 25):
                x = seq.signal_at(t)
                y = A.entries @ x + rng.uniform(-w_linf, w_linf, n)
                state, diag = lscs_step(state, A, y, cfg)
                step = runtime_step_checks(diag, x, cfg, ctx)
                # the detection condition is counted only where T_prev misses
                misses = len(support_of(x) - diag.T_prev) > 0
                assert ("detection_condition" in step.hypotheses) is misses
                steps_with_misses += misses
                tally.merge(step)
        assert steps_with_misses == 9
        assert tally.hypotheses == {
            "detection_guarantee": 9, "no_false_deletion_guarantee": 207,
            "extras_deletion_guarantee": 9, "detection_condition": 9,
            "no_false_deletion_condition": 207, "deletion_condition": 9,
        }
        assert tally.total_violations() == 0 and set(tally.violations) == set(tally.hypotheses)


class TestAppendixFacts:
    def run_step(self, seed, alpha=0.1, alpha_del=0.05, noise=0.05):
        A = gen_gaussian_matrix(20, 40, seed)
        rng = np.random.default_rng(seed + 1)
        support = SupportSet(rng.choice(40, 6, replace=False), 40)
        x = np.zeros(40)
        x[support.to_array()] = rng.uniform(1.0, 2.0, 6) * rng.choice([-1, 1], 6)
        known = SupportSet(rng.choice(support.to_array(), 4, replace=False), 40)
        y = A.entries @ x + noise * rng.standard_normal(20)
        cfg = FilterConfig(lam=0.2, alpha=alpha, alpha_del=alpha_del)
        state = FilterState(known, np.zeros(40))
        _, diag = lscs_step(state, A, y, cfg)
        # Gaussian noise has no l-inf bound, so no condition reads a constant
        ctx = BoundContext(rip=RipTable("empty"), n=20, m=40, lam=0.2,
                           norm_A_1=A.induced_one_norm, noise_linf_bound=math.inf)
        return runtime_step_checks(diag, x, cfg, ctx)

    def test_facts_never_violated(self):
        for seed in range(25):
            tally = self.run_step(seed)
            assert tally.total_violations() == 0
            assert [tally.hypotheses[k] for k in tally.hypotheses if k.endswith("_condition")] == [0, 0, 0]

    def test_fact_hypotheses_fire(self):
        fired = 0
        for seed in range(25):
            tally = self.run_step(seed)
            fired += tally.hypotheses["detection_guarantee"] + tally.hypotheses["no_false_deletion_guarantee"]
        assert fired > 0  # the predicates are not vacuous on these instances

    def test_step_compared_with_truth_by_hand(self):
        # truth {0, 1, 4}; the step starts from {0}, detects {0, 3, 4} and
        # keeps {0}: one extra (3) that T_prev lacked, one miss (1) left
        x_true = np.array([3.0, 1.0, 0.0, 0.0, 1.4, 0.0])
        diag = StepDiagnostics(
            T_prev=SupportSet([0], 6),
            x_csres=np.array([3.0, 0.5, 0.0, 0.8, 1.4, 0.0]),   # squared error 0.89
            T_det=SupportSet([0, 3, 4], 6),
            x_det=np.array([3.0, 0.0, 0.0, 0.01, 1.4, 0.0]),    # 1e-4 on T_det
            final_support=SupportSet([0], 6),
        )
        cfg = FilterConfig(lam=0.2, alpha=0.1, alpha_del=0.05)
        ctx = BoundContext(rip=RipTable("empty"), n=6, m=6, lam=0.2, norm_A_1=1.0, noise_linf_bound=math.inf)
        tally = runtime_step_checks(diag, x_true, cfg, ctx)
        # detection: x^2 > 2 alpha^2 + 2 * 0.89 = 1.8 holds for index 4 only;
        # survival: both kept true indices pass 0.0052, and 4 was deleted;
        # extras: alpha_del^2 = 0.0025 covers 1e-4, so extra 3 counts
        assert (tally.hypotheses, tally.violations) == (
            {"detection_guarantee": 1, "no_false_deletion_guarantee": 2, "extras_deletion_guarantee": 1,
             "detection_condition": 0, "no_false_deletion_condition": 0, "deletion_condition": 0},
            {"detection_guarantee": 0, "no_false_deletion_guarantee": 1, "extras_deletion_guarantee": 0,
             "detection_condition": 0, "no_false_deletion_condition": 0, "deletion_condition": 0},
        )

    def test_ls_bound_noiseless_true_support(self):
        table = flat_table()
        ctx = make_ctx(table, lam=0.0, noise=0.0)
        res = detected_support_ls_error_bound(ctx, 4, 0.0, 0)
        assert res.applicable
        assert res.value == 0.0

    def test_ls_bound_dominates_actual(self):
        m = n = 16
        A = gen_perturbed_orthonormal_matrix(n, m, 77, noise_scale=0.2)
        lam = 0.3
        w_linf = lam / A.induced_one_norm
        table = build_rip_table(A, mode="exact")
        ctx = BoundContext(rip=table, n=n, m=m, lam=lam,
                           norm_A_1=A.induced_one_norm, noise_linf_bound=w_linf)
        rng = np.random.default_rng(78)
        checked = 0
        for _ in range(30):
            support = SupportSet(rng.choice(m, 6, replace=False), m)
            x = np.zeros(m)
            x[support.to_array()] = rng.uniform(1.0, 2.0, 6) * rng.choice([-1, 1], 6)
            detected = SupportSet(rng.choice(support.to_array(), 4, replace=False), m)
            misses = support - detected
            y = A.entries @ x + rng.uniform(-w_linf, w_linf, n)
            x_det = ls_on_support(A, detected, y)
            actual = sum((x[i] - x_det[i]) ** 2 for i in detected)
            res = detected_support_ls_error_bound(
                ctx, len(detected), float(np.sum(x[misses.to_array()] ** 2)), len(misses)
            )
            if res.applicable:
                checked += 1
                assert actual <= res.value + 1e-9
        assert checked > 0

import numpy as np
import pytest

from lscs.core import SupportSet, support_of
from lscs.filter import (
    FilterConfig,
    FilterState,
    cs_residual_estimate,
    delete,
    detect,
    genie_ls,
    initial_ls_residual,
    lscs_step,
    simple_cs,
)
from lscs.measurement import MeasurementMatrix, gen_gaussian_matrix
from lscs.solver import ls_on_support


def planted_instance(seed, n=20, m=40, k=5, noise=0.0):
    rng = np.random.default_rng(seed)
    A = gen_gaussian_matrix(n, m, seed)
    support = SupportSet(rng.choice(m, size=k, replace=False), m)
    x = np.zeros(m)
    x[support.to_array()] = rng.standard_normal(k) + np.sign(rng.standard_normal(k)) * 1.5
    w = noise * rng.standard_normal(n)
    return A, x, support, A.entries @ x + w, w


class TestInitialLsResidual:
    def test_empty_support(self):
        A, x, _, y, _ = planted_instance(0)
        x_init, y_res = initial_ls_residual(A, SupportSet.empty(40), y)
        assert np.all(x_init == 0.0)
        assert np.array_equal(y_res, y)

    def test_true_support_noiseless_annihilates(self):
        A, x, support, y, _ = planted_instance(1)
        x_init, y_res = initial_ls_residual(A, support, y)
        assert np.max(np.abs(y_res)) < 1e-9

    def test_residual_bias_identity(self):
        # bias on the known part equals -pinv(A_T)(w + A_Delta x_Delta);
        # off the union it is the signal itself
        A, x, support, y, w = planted_instance(2, noise=0.05)
        rng = np.random.default_rng(3)
        missing = SupportSet(rng.choice(support.to_array(), 2, replace=False), 40)
        known = support - missing
        x_init, y_res = initial_ls_residual(A, known, y)
        beta = x - x_init
        pinv = np.linalg.pinv(A.columns(known))
        expect_T = -pinv @ (w + A.columns(missing) @ x[missing.to_array()])
        assert np.allclose(beta[known.to_array()], expect_T, atol=1e-9)
        assert np.allclose(beta[missing.to_array()], x[missing.to_array()], atol=1e-12)
        assert np.max(np.abs(A.columns(known).T @ y_res)) < 1e-9


class TestCsResidual:
    def test_zero_residual_returns_init(self):
        A, x, support, y, _ = planted_instance(4)
        x_init, y_res = initial_ls_residual(A, support, y)
        out = cs_residual_estimate(A, x_init, y_res, lam=0.5)
        assert np.allclose(out, x_init, atol=1e-10)

    def test_empty_known_part_reduces_to_plain_solve(self):
        A, x, _, y, _ = planted_instance(5, noise=0.02)
        x_init, y_res = initial_ls_residual(A, SupportSet.empty(40), y)
        from lscs.solver import solve_dantzig
        direct = solve_dantzig(A, y, 0.2).zeta_hat
        assert np.allclose(cs_residual_estimate(A, x_init, y_res, 0.2), direct, atol=1e-10)


class TestDetect:
    cfg = FilterConfig(lam=0.1, alpha=0.5, alpha_del=0.5)

    def test_no_crossings(self):
        T = SupportSet([0, 1], 12)
        x = np.zeros(12)
        x[5] = 0.5  # exactly at alpha: strict comparison keeps it out
        assert detect(x, T, self.cfg) == T

    def test_cap_keeps_largest(self):
        cfg = FilterConfig(lam=0.1, alpha=0.5, alpha_del=0.5, max_additions_per_step=1)
        T = SupportSet([0], 12)
        x = np.zeros(12)
        x[3], x[7], x[9] = 0.9, 0.6, 0.2
        out = detect(x, T, cfg)
        assert out == SupportSet([0, 3], 12)

    def test_members_kept_regardless(self):
        T = SupportSet([2], 12)
        x = np.zeros(12)  # even a zero estimate keeps T in the detected set
        assert detect(x, T, self.cfg) == T


class TestDelete:
    def test_boundary_is_deleted(self):
        x = np.array([1.0, 0.5, 0.0])
        out = delete(x, SupportSet([0, 1, 2], 3), alpha_del=0.5)
        assert out == SupportSet([0], 3)

    def test_zero_threshold_deletes_exact_zeros(self):
        x = np.array([1.0, 0.0, -0.3])
        out = delete(x, SupportSet([0, 1, 2], 3), alpha_del=0.0)
        assert out == SupportSet([0, 2], 3)

    def test_threshold_example(self):
        x = np.array([1.0, 0.05])
        assert delete(x, SupportSet([0, 1], 2), 0.1) == SupportSet([0], 2)


class TestStep:
    def test_genie_fixed_point(self):
        A, x, support, y, _ = planted_instance(6)
        state = FilterState(support, genie_ls(A, support, y))
        min_mag = np.abs(x[support.to_array()]).min()
        cfg = FilterConfig(lam=0.3, alpha=0.25, alpha_del=min_mag / 2)
        new_state, diag = lscs_step(state, A, y, cfg)
        assert new_state.support_estimate == support
        assert np.allclose(new_state.x_hat, x, atol=1e-9)
        truth = support_of(x)
        assert len(truth - diag.final_support) == 0 and len(diag.final_support - truth) == 0
        assert diag.failed_stage is None

    def test_pipeline_set_identities(self):
        A, x, support, y, _ = planted_instance(7, noise=0.05)
        rng = np.random.default_rng(8)
        known = SupportSet(rng.choice(support.to_array(), 3, replace=False), 40)
        state = FilterState(known, np.zeros(40))
        cfg = FilterConfig(lam=0.2, alpha=0.1, alpha_del=0.05)
        _, diag = lscs_step(state, A, y, cfg)
        assert set(diag.T_prev.indices) <= set(diag.T_det.indices)
        assert set(diag.final_support.indices) <= set(diag.T_det.indices)
        deleted = (diag.T_det - diag.final_support).to_array()
        assert np.all(np.abs(diag.x_det[deleted]) <= cfg.alpha_del)
        assert np.all(np.abs(diag.x_det[diag.final_support.to_array()]) > cfg.alpha_del)
        assert support_of(diag.x_final).indices <= diag.final_support.indices

    def test_detects_missing_coefficient(self):
        A, x, support, y, _ = planted_instance(9)
        idx = support.to_array()
        strongest = idx[np.argmax(np.abs(x[idx]))]
        known = support - SupportSet([strongest], 40)
        state = FilterState(known, np.zeros(40))
        cfg = FilterConfig(lam=0.05, alpha=0.2, alpha_del=0.05)
        _, diag = lscs_step(state, A, y, cfg)
        assert strongest in diag.T_det
        assert len(support_of(x) - diag.final_support) == 0

    def test_failure_fallback_keeps_previous_support(self):
        A, x, support, y, _ = planted_instance(10)
        # an oversized previous support makes the very first solve impossible
        too_big = SupportSet(range(25), 40)
        state = FilterState(too_big, np.zeros(40))
        cfg = FilterConfig(lam=0.2, alpha=0.1, alpha_del=0.05)
        new_state, diag = lscs_step(state, A, y, cfg)
        assert diag.failed_stage == "initial_ls"
        assert new_state.support_estimate == too_big
        assert new_state.x_hat is state.x_hat

    @pytest.mark.parametrize("case", ["locked", "detecting"])
    def test_repeated_support_reuses_least_squares(self, case, monkeypatch):
        # least squares runs once per distinct support of a step; a reused
        # estimate equals a fresh solve on its support bit for bit
        if case == "locked":
            A, x, support, y, _ = planted_instance(6)
            known = support
            cfg = FilterConfig(lam=0.3, alpha=0.25, alpha_del=np.abs(x[support.to_array()]).min() / 2)
        else:
            A, x, support, y, _ = planted_instance(9)
            idx = support.to_array()
            known = support - SupportSet([idx[np.argmax(np.abs(x[idx]))]], 40)
            cfg = FilterConfig(lam=0.05, alpha=0.2, alpha_del=0.05)
        solved = []

        def counted(A, T, y):
            solved.append(T)
            return ls_on_support(A, T, y)

        monkeypatch.setattr("lscs.filter.ls_on_support", counted)
        _, diag = lscs_step(FilterState(known, np.zeros(40)), A, y, cfg)
        assert diag.final_support == support and diag.failed_stage is None
        assert solved == ([support] if case == "locked" else [known, support])
        assert (diag.x_det is diag.x_init) == (case == "locked")
        assert diag.x_final is diag.x_det
        for T, estimate in ((diag.T_prev, diag.x_init), (diag.T_det, diag.x_det), (diag.final_support, diag.x_final)):
            assert np.array_equal(estimate, ls_on_support(A, T, y))

    def test_stationary_after_noiseless_lock(self):
        A, x, support, y, _ = planted_instance(11)
        state = FilterState(support, genie_ls(A, support, y))
        cfg = FilterConfig(lam=0.3, alpha=0.25, alpha_del=0.1)
        for _ in range(3):
            state, diag = lscs_step(state, A, y, cfg)
            assert state.support_estimate == support


class TestBaselines:
    def test_genie_noiseless_exact(self):
        A, x, support, y, _ = planted_instance(12)
        assert np.allclose(genie_ls(A, support, y), x, atol=1e-10)

    def test_genie_matches_step_when_support_correct(self):
        A, x, support, y, _ = planted_instance(13, noise=0.03)
        state = FilterState(support, np.zeros(40))
        cfg = FilterConfig(lam=0.3, alpha=1e9, alpha_del=0.0)  # no detects, no deletes
        new_state, _ = lscs_step(state, A, y, cfg)
        assert np.allclose(new_state.x_hat, genie_ls(A, support, y), atol=1e-9)

    def test_simple_cs_zero_measurement(self):
        A = gen_gaussian_matrix(10, 20, 14)
        x_hat, support = simple_cs(A, np.zeros(10), lam=0.1, alpha=0.1)
        assert np.all(x_hat == 0.0)
        assert len(support) == 0

    def test_simple_cs_recovers_strong_signal(self):
        A, x, support, y, _ = planted_instance(15, n=30, m=40, k=4, noise=0.01)
        x_hat, est = simple_cs(A, y, lam=0.1, alpha=0.4)
        assert est == support
        assert np.allclose(x_hat, x, atol=0.05)

    def test_simple_cs_initialization_rate(self):
        # taller-matrix start on the tracking model: with a threshold between
        # the spurious-entry level and the true magnitudes, the one-shot
        # estimate finds the exact support in the large majority of trials
        from lscs.sigmodel import SignalModelParams, generate

        rates = np.concatenate([np.full(100, 0.5), np.full(100, 0.25)])
        exact = 0
        trials = 20
        for k in range(trials):
            rng = np.random.default_rng([909, k])
            p = SignalModelParams(m=200, s0=20, sa=2, d=8, r=2, big_m=3.0,
                                  rates=rates, t_end=8, seed=int(rng.integers(2 ** 62)))
            seq = generate(p)
            x0 = seq.signal_at(0)
            A0 = MeasurementMatrix.from_columns(rng.standard_normal((160, 200)))
            y0 = A0.entries @ x0 + rng.uniform(-0.0528, 0.0528, 160)
            _, est = simple_cs(A0, y0, lam=0.35, alpha=1.5)
            exact += est == seq.support_at(0)
        assert exact / trials >= 0.8


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(lam=-1.0, alpha=0.1, alpha_del=0.1)
    with pytest.raises(ValueError):
        FilterConfig(lam=float("nan"), alpha=0.1, alpha_del=0.1)
    with pytest.raises(ValueError):
        FilterConfig(lam=0.1, alpha=float("inf"), alpha_del=0.1)

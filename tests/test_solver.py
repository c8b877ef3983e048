import json
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy._core import HighsModelStatus

import lscs.solver
from lscs.cli import main as cli_main
from lscs.core import SupportSet, support_of
from lscs.filter import FilterConfig, FilterState, lscs_step
from lscs.harness import _parse_tracking, _tracking_trial, run_static_experiment, run_stability_experiment
from lscs.measurement import MeasurementMatrix, gen_gaussian_matrix
from lscs.solver import (
    DantzigStatusError,
    LsSolveError,
    SelectorLP,
    ls_on_support,
    optimal_zeta,
    solve_dantzig,
)


def soft_threshold(y: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def vertex_enumeration_optimum(A: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Brute-force LP oracle: visit every basic solution of the
    (zeta, u) formulation, ``min 1'u`` s.t. ``|zeta| <= u`` and
    ``|g - G zeta| <= lam``, and return the best feasible objective.

    At a basic solution ``u = |zeta|``, and the k nonzeros of zeta on a
    support S are fixed by k active rows R with signs s:
    ``G[R, S] zeta_S = g_R - lam s``.  Such a system is nonsingular only
    for k <= rank(G) <= n, so every (S, R, s) with k <= n is visited."""
    n, m = A.shape
    G = A.T @ A
    g = A.T @ y
    best = 0.0 if np.max(np.abs(g)) <= lam + 1e-9 else np.inf
    for k in range(1, min(n, m) + 1):
        signs = np.array(list(product((-1.0, 1.0), repeat=k)))
        for S in combinations(range(m), k):
            cols = G[:, S]
            for R in combinations(range(m), k):
                sub = cols[list(R)]
                if abs(np.linalg.det(sub)) < 1e-10:
                    continue
                Z = np.linalg.solve(sub, (g[list(R)] - lam * signs).T)
                feasible = np.all(np.abs(g[:, None] - cols @ Z) <= lam + 1e-9, axis=0)
                if feasible.any():
                    best = min(best, float(np.abs(Z[:, feasible]).sum(axis=0).min()))
    return best


def inequality_form_dantzig(A: MeasurementMatrix, y: np.ndarray, lam: float) -> np.ndarray:
    """Reference selector: the 2m-row inequality form
    ``G(p - q) <= lam + g, -G(p - q) <= lam - g`` with ``p, q >= 0``."""
    G = A.entries.T @ A.entries
    g = A.entries.T @ y
    m = A.m
    if lam >= np.max(np.abs(g)):
        return np.zeros(m)
    res = linprog(
        np.ones(2 * m),
        A_ub=np.block([[G, -G], [-G, G]]),
        b_ub=np.concatenate([lam + g, lam - g]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return res.x[:m] - res.x[m:]


def milp_ranged_dantzig(A: MeasurementMatrix, y: np.ndarray, lam: float) -> np.ndarray:
    """Reference selector: the same ranged-row LP through ``scipy.optimize.milp``
    with no integer variables, presolve and scaling off and 1e-10
    tolerances, after the same zero exit.  ``milp`` hands keys it does not
    know to HiGHS verbatim and warns about them."""
    G = A.gram()
    g = A.entries.T @ y
    m = A.m
    if lam >= np.max(np.abs(g)):
        return np.zeros(m)
    options = {
        "presolve": False,
        "simplex_scale_strategy": 0,
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(
            np.ones(2 * m),
            constraints=LinearConstraint(np.hstack([G, -G]), g - lam, g + lam),
            bounds=Bounds(0.0, np.inf),
            options=options,
        )
    assert res.status == 0
    return res.x[:m] - res.x[m:]


def static_table_instance(n: int, seed: int, sigma: float):
    """A static-table draw: m = 200, twenty +-1 spikes, Gaussian noise."""
    rng = np.random.default_rng([seed, n])
    A = MeasurementMatrix.from_columns(rng.standard_normal((n, 200)))
    x = np.zeros(200)
    x[rng.choice(200, size=20, replace=False)] = rng.choice([-1.0, 1.0], size=20)
    return A, A.entries @ x + sigma * rng.standard_normal(n)


def stability_instance(seed: int):
    """A ``configs/stability.json`` draw: m = 200, n = 59, twenty nonzeros of
    which the two newest are small, uniform noise of width 0.0528, and the
    support known up to those two.  Returns ``(A, y, x_init)`` with
    ``x_init`` the least-squares estimate on the known support."""
    rng = np.random.default_rng([seed, 59])
    A = gen_gaussian_matrix(59, 200, seed)
    support = rng.choice(200, size=20, replace=False)
    x = np.zeros(200)
    x[support[:18]] = rng.choice([-1.0, 1.0], size=18) * rng.uniform(1.0, 3.0, size=18)
    x[support[18:]] = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.0, size=2)
    y = A.entries @ x + rng.uniform(-0.0528, 0.0528, size=59)
    return A, y, ls_on_support(A, SupportSet(support[:18], 200), y)


def stability_cfg(seed: int, trials: int) -> dict:
    """``configs/stability.json`` with the simple_cs baseline only and no
    runtime bound checks."""
    return {
        "kind": "stability", "n": 59, "trials": trials, "seed": seed,
        "model": {"m": 200, "s0": 20, "sa": 2, "d": 8, "r": 2, "big_m": 3.0,
                  "rates": {"classes": [0.5, 0.25]}, "t_end": 24},
        "noise": {"kind": "uniform", "c": 0.0528},
        "filter": {"lam": 0.35, "alpha": 0.0528, "alpha_del": 2.28 * 0.0528},
        "methods": ["simple_cs"],
    }


class TestDantzig:
    def test_identity_soft_threshold(self):
        rng = np.random.default_rng(0)
        for k in range(100):
            mdim = int(rng.integers(3, 9))
            y = rng.standard_normal(mdim) * 2.0
            lam = float(rng.uniform(0.05, 1.5))
            sol = solve_dantzig(MeasurementMatrix(np.eye(mdim)), y, lam)
            assert sol.status == "optimal"
            assert np.allclose(sol.zeta_hat, soft_threshold(y, lam), atol=1e-8)

    def test_zero_solution_when_lambda_large(self):
        A = gen_gaussian_matrix(6, 12, 1)
        y = A.entries @ np.ones(12)
        lam = float(np.abs(A.entries.T @ y).max())
        sol = solve_dantzig(A, y, lam)
        assert sol.status == "optimal"
        assert np.all(sol.zeta_hat == 0.0)
        assert sol.objective == 0.0

    def test_matches_vertex_oracle(self):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            A = gen_gaussian_matrix(3, 5, seed)
            y = rng.standard_normal(3)
            lam = 0.2
            sol = solve_dantzig(A, y, lam)
            assert sol.status == "optimal"
            oracle = vertex_enumeration_optimum(A.entries, y, lam)
            assert sol.objective == pytest.approx(oracle, abs=1e-6)

    def test_feasibility_and_objective_contract(self):
        A = gen_gaussian_matrix(10, 30, 7)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(10)
        lam = 0.15
        sol = solve_dantzig(A, y, lam)
        assert sol.max_correlation <= lam + 1e-9
        assert sol.objective == pytest.approx(np.abs(sol.zeta_hat).sum(), rel=1e-12)

    def test_first_order_optimality(self):
        # no feasible coordinate perturbation improves the l1 norm
        A = gen_gaussian_matrix(8, 16, 11)
        rng = np.random.default_rng(12)
        y = rng.standard_normal(8)
        lam = 0.3
        sol = solve_dantzig(A, y, lam)
        G, g = A.gram(), A.entries.T @ y
        eps = 1e-6
        base = np.abs(sol.zeta_hat).sum()
        for i in range(16):
            for sign in (+1.0, -1.0):
                z = sol.zeta_hat.copy()
                z[i] += sign * eps
                if np.max(np.abs(g - G @ z)) <= lam + 1e-12:
                    assert np.abs(z).sum() >= base - 1e-8

    def test_l1_no_worse_than_feasible_point(self):
        A = gen_gaussian_matrix(9, 20, 13)
        rng = np.random.default_rng(14)
        y = rng.standard_normal(9)
        sol = solve_dantzig(A, y, 0.25)
        # least-norm interpolator is feasible for any lam >= 0
        z0, *_ = np.linalg.lstsq(A.entries, y, rcond=None)
        assert np.max(np.abs(A.entries.T @ (y - A.entries @ z0))) <= 0.25 + 1e-9
        assert sol.objective <= np.abs(z0).sum() + 1e-8

    def test_budget_exceeded_status(self):
        A = gen_gaussian_matrix(20, 60, 2)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(20)
        sol = solve_dantzig(A, y, 0.01, max_iterations=1)
        assert sol.status == "budget_exceeded"
        assert (sol.path, sol.iterations) == ("cold", 1)

    def test_path_and_iterations(self):
        A, y = static_table_instance(59, seed=5, sigma=0.04)
        peak = float(np.max(np.abs(A.entries.T @ y)))
        zero = solve_dantzig(A, y, peak)
        assert (zero.path, zero.iterations) == ("zero_exit", 0)
        lp = solve_dantzig(A, y, 0.16)
        assert lp.path == "cold" and lp.iterations > 0

    def test_rejects_bad_inputs(self):
        A = gen_gaussian_matrix(4, 6, 0)
        with pytest.raises(ValueError):
            solve_dantzig(A, np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            solve_dantzig(A, np.zeros(4), -0.5)
        with pytest.raises(ValueError):
            solve_dantzig(A, np.full(4, np.nan), 0.1)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_optimality_against_vertex_oracle(self, data):
        m = data.draw(st.integers(2, 8), label="m")
        n = data.draw(st.integers(1, m - 1), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        # scales of max|A'y|: below 1 the LP answers, from 1 on the zero exit
        scale = data.draw(st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0, 1.5]), label="scale")
        A = gen_gaussian_matrix(n, m, seed)
        y = np.random.default_rng(seed).standard_normal(n)
        lam = scale * float(np.max(np.abs(A.entries.T @ y)))
        sol = solve_dantzig(A, y, lam)
        assert sol.status == "optimal"
        assert np.max(np.abs(A.entries.T @ (y - A.entries @ sol.zeta_hat))) <= lam + 1e-9
        assert abs(np.abs(sol.zeta_hat).sum() - vertex_enumeration_optimum(A.entries, y, lam)) <= 1e-8
        if scale >= 1.0:
            assert np.all(sol.zeta_hat == 0.0)


class TestRangedForm:
    """The ranged-row LP against the 2m-row inequality form in HiGHS."""

    @staticmethod
    def assert_agrees(A, y, lam):
        sol = solve_dantzig(A, y, lam)
        ref = inequality_form_dantzig(A, y, lam)
        assert sol.status == "optimal"
        # the cold path solves the program milp solves, bit for bit
        assert np.array_equal(sol.zeta_hat, milp_ranged_dantzig(A, y, lam))
        assert np.max(np.abs(sol.zeta_hat - ref)) <= 1e-9
        assert abs(sol.objective - np.abs(ref).sum()) <= 1e-9
        assert sol.max_correlation <= lam + 1e-9
        return sol

    @pytest.mark.parametrize("n", [45, 59, 100])
    def test_matches_inequality_form(self, n):
        sigma = 0.04
        A, y = static_table_instance(n, seed=5, sigma=sigma)
        peak = float(np.max(np.abs(A.entries.T @ y)))
        # two LP scales and one past max|A'y|, where the zero exit answers
        for lam in (0.4 * sigma, 4.0 * sigma, 1.5 * peak):
            sol = self.assert_agrees(A, y, lam)
        assert np.all(sol.zeta_hat == 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_inequality_form_on_stability_draws(self, seed):
        A, y, x_init = stability_instance(seed)
        # the one-shot baseline on y and the estimator's solve on the residual
        for rhs in (y, y - A.entries @ x_init):
            assert np.max(np.abs(A.entries.T @ rhs)) > 0.35  # an LP, not the zero exit
            self.assert_agrees(A, rhs, 0.35)

    def test_stability_trial_within_contract(self):
        # trial 25 of the acceptance stability run holds a one-shot LP that
        # HiGHS with its default scaling closes 2.8e-9 past lambda; the
        # post-solve check would raise DantzigNumericsError
        record = _tracking_trial(_parse_tracking(stability_cfg(424242, trials=26)), 25)
        assert len(record.rows["simple_cs"]) == 25

    def test_no_warning_escapes(self):
        A, y = static_table_instance(59, seed=5, sigma=0.04)
        filters = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_dantzig(A, y, 0.16, max_iterations=100_000)
        assert sol.status == "optimal"
        assert warnings.filters == filters

    def test_gram_is_cached_and_read_only(self):
        raw = np.random.default_rng(4).standard_normal((6, 9))
        raw /= np.linalg.norm(raw, axis=0)
        A = MeasurementMatrix(raw)
        G = A.gram()
        assert A.gram() is G
        assert not G.flags.writeable and not A.entries.flags.writeable
        assert raw.flags.writeable  # the caller's array is copied, not frozen
        assert np.array_equal(G, raw.T @ raw)


class TestWarmStart:
    """The tracking baseline starts each solve from the previous basis."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tracking_baseline_matches_cold(self, seed, monkeypatch):
        solves = []

        def warm_and_cold(A, y, lam, max_iterations=None, *, warm=None):
            sol = solve_dantzig(A, y, lam, max_iterations, warm=warm)
            solves.append((sol, solve_dantzig(A, y, lam), A, y, lam))
            return sol

        monkeypatch.setattr("lscs.harness.solve_dantzig", warm_and_cold)
        _tracking_trial(_parse_tracking(stability_cfg(seed, trials=1)), 0)
        assert len(solves) == 25
        warm_iterations = cold_iterations = 0
        for t, (sol, cold, A, y, lam) in enumerate(solves):
            assert sol.status == cold.status == "optimal"
            g = A.entries.T @ y
            assert np.max(np.abs(g - A.gram() @ sol.zeta_hat)) <= lam + 1e-9
            assert np.max(np.abs(sol.zeta_hat - cold.zeta_hat)) <= 1e-9
            if t == 0:
                # the handle's first solve loads a fresh instance
                assert sol.path == "cold" and np.array_equal(sol.zeta_hat, cold.zeta_hat)
            else:
                assert sol.path == "warm", t
                warm_iterations += sol.iterations
                cold_iterations += cold.iterations
        assert warm_iterations < cold_iterations / 2

    @pytest.mark.parametrize("failure", ["not_optimal", "past_lambda"])
    def test_rejected_warm_run_falls_back_to_cold(self, failure, monkeypatch):
        A, y, x_init = stability_instance(1)
        handle = SelectorLP(A)
        assert solve_dantzig(A, y, 0.35, warm=handle).path == "cold"
        stale, run = handle._highs, lscs.solver._run

        def sabotaged(highs):
            if highs is not stale:
                return run(highs)
            if failure == "not_optimal":
                return HighsModelStatus.kIterationLimit
            # with every row free the optimum is zero, past lambda on the real rows
            for i in range(A.m):
                highs.changeRowBounds(i, -np.inf, np.inf)
            return run(highs)

        monkeypatch.setattr(lscs.solver, "_run", sabotaged)
        y_res = y - A.entries @ x_init
        sol = solve_dantzig(A, y_res, 0.35, warm=handle)
        assert sol.status == "optimal" and sol.path == "fallback"
        assert np.array_equal(sol.zeta_hat, solve_dantzig(A, y_res, 0.35).zeta_hat)
        assert handle._highs is not stale

    def test_budget_caps_warm_and_fallback_runs(self):
        A, y, x_init = stability_instance(2)
        handle = SelectorLP(A)
        solve_dantzig(A, y, 0.35, warm=handle)
        sol = solve_dantzig(A, y - A.entries @ x_init, 0.35, max_iterations=1, warm=handle)
        assert (sol.status, sol.path, sol.iterations) == ("budget_exceeded", "fallback", 2)
        with pytest.raises(DantzigStatusError):
            optimal_zeta(sol)

    def test_zero_exit_keeps_basis(self):
        A, y, _ = stability_instance(3)
        handle = SelectorLP(A)
        solve_dantzig(A, y, 0.35, warm=handle)
        highs = handle._highs
        sol = solve_dantzig(A, y, float(np.max(np.abs(A.entries.T @ y))), warm=handle)
        assert (sol.path, sol.iterations) == ("zero_exit", 0)
        assert handle._highs is highs

    def test_handle_of_another_matrix_rejected(self):
        A, y, _ = stability_instance(1)
        with pytest.raises(ValueError):
            solve_dantzig(A, y, 0.35, warm=SelectorLP(gen_gaussian_matrix(59, 200, 1)))


class TestSelectorFailure:
    """A non-optimal selector status must surface, never score as zeros."""

    @pytest.fixture(autouse=True)
    def failing_lp(self, monkeypatch):
        monkeypatch.setattr(lscs.solver, "_run", lambda highs: HighsModelStatus.kInfeasible)

    def test_status_reported(self):
        A = gen_gaussian_matrix(10, 20, 1)
        y = A.entries @ np.ones(20)
        sol = solve_dantzig(A, y, 0.01)
        assert sol.status == "infeasible"
        with pytest.raises(DantzigStatusError):
            optimal_zeta(sol)

    def test_iteration_limit_reported(self, monkeypatch):
        monkeypatch.setattr(lscs.solver, "_run", lambda highs: HighsModelStatus.kIterationLimit)
        A = gen_gaussian_matrix(10, 20, 1)
        sol = solve_dantzig(A, A.entries @ np.ones(20), 0.01)
        assert sol.status == "budget_exceeded"
        with pytest.raises(DantzigStatusError):
            optimal_zeta(sol)

    def test_step_fails_at_cs_residual(self):
        A = gen_gaussian_matrix(20, 40, 3)
        x = np.zeros(40)
        x[[2, 11, 30]] = [1.0, -1.5, 2.0]
        y = A.entries @ x
        known = SupportSet([2, 11], 40)
        state = FilterState(known, np.zeros(40), 0)
        new_state, diag = lscs_step(state, A, y, FilterConfig(lam=0.01, alpha=0.1, alpha_del=0.05))
        assert diag.failed_stage == "cs_residual"
        assert "infeasible" in diag.failure
        assert new_state.support_estimate == known

    def test_experiments_raise(self, tmp_path):
        static = {
            "kind": "static_table",
            "m": 40, "support_size": 6, "delta_size": 1, "delta_e_size": 1,
            "cells": [{"n": 20, "sigma": 0.05}],
            "trials": 1, "seed": 11,
        }
        with pytest.raises(DantzigStatusError):
            run_static_experiment(static)
        stability = {
            "kind": "stability",
            "n": 25, "trials": 1, "seed": 7,
            "model": {"m": 60, "s0": 8, "sa": 1, "d": 6, "r": 2, "big_m": 2.0,
                      "rates": 0.5, "t_end": 6},
            "noise": {"kind": "uniform", "c": 0.02},
            "filter": {"lam": 0.15, "alpha": 0.05, "alpha_del": 0.1},
        }
        # the per-step lscs failures are caught; the simple_cs baseline is not
        with pytest.raises(DantzigStatusError):
            run_stability_experiment(stability)
        path = tmp_path / "static.json"
        path.write_text(json.dumps(static))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


class TestLsOnSupport:
    def test_empty_support(self):
        A = gen_gaussian_matrix(5, 8, 0)
        x = ls_on_support(A, SupportSet.empty(8), np.ones(5))
        assert np.all(x == 0.0)

    def test_identity_single_column(self):
        A = MeasurementMatrix(np.eye(4))
        y = np.zeros(4)
        y[2] = 1.0
        x = ls_on_support(A, SupportSet([2], 4), y)
        assert np.allclose(x, y)

    def test_exact_recovery_noiseless(self):
        A = gen_gaussian_matrix(12, 24, 5)
        rng = np.random.default_rng(6)
        support = SupportSet(rng.choice(24, size=6, replace=False), 24)
        x = np.zeros(24)
        x[support.to_array()] = rng.standard_normal(6)
        y = A.entries @ x
        xh = ls_on_support(A, support, y)
        assert np.allclose(xh, x, atol=1e-10)

    def test_residual_orthogonality(self):
        A = gen_gaussian_matrix(10, 20, 9)
        rng = np.random.default_rng(10)
        y = rng.standard_normal(10)
        T = SupportSet([1, 4, 7], 20)
        xh = ls_on_support(A, T, y)
        residual = y - A.entries @ xh
        assert np.max(np.abs(A.columns(T).T @ residual)) < 1e-9

    def test_idempotent(self):
        A = gen_gaussian_matrix(10, 20, 15)
        rng = np.random.default_rng(16)
        y = rng.standard_normal(10)
        T = SupportSet([0, 3, 9, 12], 20)
        x1 = ls_on_support(A, T, y)
        x2 = ls_on_support(A, support_of(x1), y)
        assert np.allclose(x1, x2, atol=1e-12)

    def test_too_many_columns(self):
        A = gen_gaussian_matrix(3, 8, 0)
        with pytest.raises(LsSolveError):
            ls_on_support(A, SupportSet([0, 1, 2, 3], 8), np.ones(3))

    def test_condition_cap(self):
        # two nearly identical columns blow up the Gram condition number
        base = np.array([[1.0, 1.0], [1e-6, 0.0], [0.0, 1e-6]])
        A = MeasurementMatrix.from_columns(base)
        with pytest.raises(LsSolveError) as err:
            ls_on_support(A, SupportSet([0, 1], 2), np.ones(3), cond_cap=1e6)
        assert err.value.condition_number > 1e6

    def test_genie_ls_covariance(self):
        # E||x - xh||^2 = sigma^2 trace((A_N' A_N)^-1) for LS on the true support
        A = gen_gaussian_matrix(15, 30, 20)
        rng = np.random.default_rng(21)
        support = SupportSet(rng.choice(30, size=5, replace=False), 30)
        x = np.zeros(30)
        x[support.to_array()] = rng.standard_normal(5) + 2.0
        sigma = 0.2
        gram_inv = np.linalg.inv(A.columns(support).T @ A.columns(support))
        expected = sigma ** 2 * np.trace(gram_inv)
        total = 0.0
        trials = 3000
        for _ in range(trials):
            y = A.entries @ x + sigma * rng.standard_normal(15)
            xh = ls_on_support(A, support, y)
            total += float(np.sum((x - xh) ** 2))
        assert total / trials == pytest.approx(expected, rel=0.1)

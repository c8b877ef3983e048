import json
import subprocess
import sys
import textwrap
import warnings
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import lscs.solver
from lscs.cli import main as cli_main
from lscs.core import SupportSet, support_of
from lscs.filter import FilterConfig, FilterState, lscs_step
from lscs.harness import _parse_tracking, _tracking_trial, run_static_experiment, run_stability_experiment
from lscs.measurement import MeasurementMatrix, gen_gaussian_matrix
from lscs.solver import DantzigNumericsError, LsSolveError, SelectorLP, ls_on_support, solve_dantzig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def soft_threshold(y: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def vertex_enumeration_optimum(A: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Brute-force LP oracle: visit every basic solution of the
    (zeta, u) formulation, ``min 1'u`` s.t. ``|zeta| <= u`` and
    ``|g - G zeta| <= lam``, and return the best feasible objective.

    At a basic solution ``u = |zeta|``, and the k nonzeros of zeta on a
    support S are fixed by k active rows R with signs s:
    ``G[R, S] zeta_S = g_R - lam s``.  Such a system is nonsingular only
    for k <= rank(G) <= n, so every (S, R, s) with k <= n is visited; the
    rows and signs of one support are solved as one batch."""
    n, m = A.shape
    G = A.T @ A
    g = A.T @ y
    best = 0.0 if np.max(np.abs(g)) <= lam + 1e-9 else np.inf
    for k in range(1, min(n, m) + 1):
        signs = np.array(list(product((-1.0, 1.0), repeat=k)))
        rows = np.array(list(combinations(range(m), k)))
        rhs = g[rows][:, :, None] - lam * signs.T[None]
        for S in combinations(range(m), k):
            cols = G[:, S]
            subs = cols[rows]
            regular = np.abs(np.linalg.det(subs)) >= 1e-10
            if not regular.any():
                continue
            Z = np.linalg.solve(subs[regular], rhs[regular])
            feasible = np.all(np.abs(g[None, :, None] - cols[None] @ Z) <= lam + 1e-9, axis=1)
            if feasible.any():
                best = min(best, float(np.abs(Z).sum(axis=1)[feasible].min()))
    return best


def inequality_form_dantzig(A: MeasurementMatrix, y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference selector: the 2m-row inequality form
    ``G(p - q) <= lam + g, -G(p - q) <= lam - g`` with ``p, q >= 0``.
    Returns zeta and the dual u of ``max g'u - lam ||u||_1  s.t.  |Gu| <= 1``
    read from HiGHS's row marginals: a row at ``+lam`` gives ``u_i >= 0``,
    one at ``-lam`` gives ``u_i <= 0``."""
    G = A.entries.T @ A.entries
    g = A.entries.T @ y
    m = A.m
    if lam >= np.max(np.abs(g)):
        return np.zeros(m), np.zeros(m)
    res = linprog(
        np.ones(2 * m),
        A_ub=np.block([[G, -G], [-G, G]]),
        b_ub=np.concatenate([lam + g, lam - g]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    marginals = res.ineqlin.marginals
    return res.x[:m] - res.x[m:], marginals[:m] - marginals[m:]


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
        assert np.abs(sol.zeta_hat).sum() == 0.0

    def test_matches_vertex_oracle(self):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            A = gen_gaussian_matrix(3, 5, seed)
            y = rng.standard_normal(3)
            lam = 0.2
            sol = solve_dantzig(A, y, lam)
            assert sol.status == "optimal"
            oracle = vertex_enumeration_optimum(A.entries, y, lam)
            assert np.abs(sol.zeta_hat).sum() == pytest.approx(oracle, abs=1e-6)

    def test_feasibility_and_objective_contract(self):
        A = gen_gaussian_matrix(10, 30, 7)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(10)
        lam = 0.15
        sol = solve_dantzig(A, y, lam)
        G, g = A.gram(), A.entries.T @ y
        assert np.max(np.abs(g - G @ sol.zeta_hat)) <= lam + 1e-9
        reference = np.abs(milp_ranged_dantzig(A, y, lam)).sum()
        assert np.abs(sol.zeta_hat).sum() == pytest.approx(reference, abs=1e-9)

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
        assert np.abs(sol.zeta_hat).sum() <= np.abs(z0).sum() + 1e-8

    def test_path_and_iterations(self):
        A, y = static_table_instance(59, seed=5, sigma=0.04)
        peak = float(np.max(np.abs(A.entries.T @ y)))
        zero = solve_dantzig(A, y, peak)
        assert (zero.path, zero.iterations) == ("zero_exit", 0)
        cold = solve_dantzig(A, y, 0.16)
        assert cold.path == "cold" and cold.iterations > 0
        handle = SelectorLP(A)
        first, second = (solve_dantzig(A, y, lam, lp=handle) for lam in (0.5, 0.16))
        assert first.path == "cold" and second.path == "warm"
        # the dual simplex from the optimal basis at lambda = 0.5 takes
        # fewer pivots than the one from the empty basis
        assert second.iterations < cold.iterations
        assert np.array_equal(second.zeta_hat, cold.zeta_hat)

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


    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_walk_through_one_handle(self, data):
        # a handle's answers along a walk in (y, lambda): lambda goes down,
        # up and repeats, zero exits fall in between, and a sign flip of y
        # drives g through zero, where the path passes above max|g|
        # n = 1 gives columns +-1, whose duplicates make the optimum non-unique
        m = data.draw(st.integers(3, 8), label="m")
        n = data.draw(st.integers(2, min(m - 1, 4)), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        moves = data.draw(st.lists(st.sampled_from(["nudge", "jump", "flip", "same"]), min_size=5, max_size=9), label="moves")
        A = gen_gaussian_matrix(n, m, seed)
        rng = np.random.default_rng(seed)
        handle = SelectorLP(A)
        y, started = rng.standard_normal(n), False
        for move in ["jump"] + moves:
            if move == "nudge":
                y = y + 0.1 * rng.standard_normal(n)
            elif move == "jump":
                y = rng.standard_normal(n)
            elif move == "flip":
                y = -y
            if move != "same":
                scale = data.draw(st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0, 1.5]), label="scale")
                lam = scale * float(np.max(np.abs(A.entries.T @ y)))
            sol = solve_dantzig(A, y, lam, lp=handle)
            assert sol.status == "optimal"
            if lam >= np.max(np.abs(A.entries.T @ y)):
                assert sol.path == "zero_exit" and np.all(sol.zeta_hat == 0.0)
                continue
            assert sol.path == ("warm" if started else "cold")
            started = True
            assert np.max(np.abs(A.entries.T @ (y - A.entries @ sol.zeta_hat))) <= lam + 1e-9
            assert abs(np.abs(sol.zeta_hat).sum() - vertex_enumeration_optimum(A.entries, y, lam)) <= 1e-8
            assert np.max(np.abs(sol.zeta_hat - milp_ranged_dantzig(A, y, lam))) <= 1e-9


    @pytest.mark.parametrize("raw, y, scale", [
        ([[0, 1, 0, 0, 1, -1], [0, -1, 1, 0, 0, -1], [1, 1, -1, 1, 1, -1], [-1, 0, -1, -1, 0, 0]],
         [-3.0, 2.0, 1.0, 2.0], 0.25),
        ([[1, -1, 0, 0, 0, 0, 0, -1], [1, 1, -1, -1, 0, -1, 0, 0], [-1, -1, -1, -1, 0, -1, 1, 0],
          [0, 0, 1, 0, 1, 1, -1, -1], [1, -1, -1, 0, 0, 0, -1, 1]],
         [3.0, -3.0, -2.0, -2.0, 2.0], 0.5),
    ])
    def test_tied_events_on_a_sign_design(self, raw, y, scale):
        # a design of -1, 0, +1 entries has exact ties between dual steps
        # and columns that |Gu| barely moves; the pivots must still reach
        # the optimum
        A = MeasurementMatrix.from_columns(np.array(raw, dtype=float))
        y = np.array(y)
        lam = scale * float(np.max(np.abs(A.entries.T @ y)))
        sol = solve_dantzig(A, y, lam)
        assert (sol.status, sol.path) == ("optimal", "cold")
        assert abs(np.abs(sol.zeta_hat).sum() - vertex_enumeration_optimum(A.entries, y, lam)) <= 1e-8

    def test_seeded_walk_on_sign_designs(self):
        # -1/0/+1 designs scaled to unit columns, integer y, eight solves per
        # handle: no solve breaks down, and every answer matches the ranged
        # LP through milp (when a dual slower than the smallest pivot could
        # still leave R, 2, 5 and 3 of these seeds' 2,400 solves broke down)
        for seed, zero_exits in ((2024, 12), (11, 20), (12, 9)):
            rng = np.random.default_rng(seed)
            paths = []
            for _ in range(300):
                m = int(rng.integers(3, 16))
                n = int(rng.integers(2, m + 1))
                raw = rng.integers(-1, 2, size=(n, m)).astype(float)
                while not np.all(np.any(raw != 0, axis=0)):
                    raw = rng.integers(-1, 2, size=(n, m)).astype(float)
                A = MeasurementMatrix.from_columns(raw)
                handle = SelectorLP(A)
                for _ in range(8):
                    y = rng.integers(-3, 4, size=n).astype(float)
                    lam = float(rng.uniform(0.05, 1.0)) * float(np.max(np.abs(A.entries.T @ y)))
                    sol = solve_dantzig(A, y, lam, lp=handle)
                    paths.append(sol.path)
                    if sol.path != "zero_exit":
                        l1 = np.abs(milp_ranged_dantzig(A, y, lam)).sum()
                        assert abs(np.abs(sol.zeta_hat).sum() - l1) <= 1e-9 * max(1.0, l1), seed
            # each handle starts cold once and keeps its basis from then on
            assert (paths.count("cold"), paths.count("zero_exit")) == (300, zero_exits), seed

    def test_slow_dual_passes_its_kink(self, monkeypatch):
        # design 201 of the seed-11 walk: on the fourth call a coefficient's
        # column leaves S, and the dual that stops the step falls at a rate
        # below the smallest pivot, so its row could only be refused; the
        # step passes that dual's kink and the row changes sign instead
        raw = [[-1, 1, -1, 0, -1, 0, 1, 0, 1, 0, -1, 1],
               [-1, 0, 0, 1, 1, -1, 1, 0, 0, 1, 0, -1],
               [1, -1, -1, 0, 0, 1, 1, 1, 1, 1, 1, 1]]
        calls = [([0, 2, 0], 1.8289144318858572), ([2, 2, 1], 2.6873018974716074),
                 ([-2, 0, 2], 1.8185660125820353), ([-1, 2, 1], 0.7980700600389762)]
        A = MeasurementMatrix.from_columns(np.array(raw, dtype=float))
        dual_step = SelectorLP._dual_step
        flips = []

        def counted(handle, w, Gw, j_out=-1):
            signs = handle.s[:handle.k].copy()
            step = dual_step(handle, w, Gw, j_out)
            flips[-1] += int(np.sum(handle.s[:len(signs)] != signs))
            return step

        monkeypatch.setattr(SelectorLP, "_dual_step", counted)
        handle, paths = SelectorLP(A), []
        for y, lam in calls:
            flips.append(0)
            sol = solve_dantzig(A, np.array(y, dtype=float), lam, lp=handle)
            paths.append(sol.path)
            l1 = np.abs(milp_ranged_dantzig(A, np.array(y, dtype=float), lam)).sum()
            assert abs(np.abs(sol.zeta_hat).sum() - l1) <= 1e-9 * max(1.0, l1)
        assert paths == ["cold", "warm", "warm", "warm"]
        assert flips[-1] >= 1, flips

    def test_event_times_clip_values_past_the_bound(self):
        # the drive calls it under one errstate, which this call repeats
        with np.errstate(divide="ignore", invalid="ignore"):
            times = lscs.solver._exit_times(np.array([-1e-16, 0.5, 2.0, -1.0]), np.array([1.0, 2.0, -1.0, 0.0]))
        assert times.tolist() == [0.0, 0.25, np.inf, np.inf]


class TestRangedForm:
    """The dual simplex agrees with the ranged-row LP that milp solves and
    with the 2m-row inequality form, whose HiGHS duals the certificate
    accepts as solved and rejects negated."""

    @staticmethod
    def assert_agrees(A, y, lam, lp=None):
        sol = solve_dantzig(A, y, lam, lp=lp)
        ref, u = inequality_form_dantzig(A, y, lam)
        reference = milp_ranged_dantzig(A, y, lam)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.zeta_hat - reference)) <= 1e-9
        assert np.max(np.abs(sol.zeta_hat - ref)) <= 1e-9
        assert abs(np.abs(sol.zeta_hat).sum() - np.abs(ref).sum()) <= 1e-9
        G, g = A.gram(), A.entries.T @ y
        assert np.max(np.abs(g - G @ sol.zeta_hat)) <= lam + 1e-9
        if lam < np.max(np.abs(g)):
            assert lscs.solver._certify(G, g, lam, ref, u) is None
            assert lscs.solver._certify(G, g, lam, ref, -u) is not None
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

    @pytest.mark.parametrize("family", ["static_table", "stability"])
    def test_reused_handle_matches_reference(self, family):
        # one handle per matrix drives between its cases in a shuffled order
        # with repeats, across changes of y, of lambda (up and down) and of
        # both; a repeat of the previous call takes no pivot
        rng = np.random.default_rng(17)
        for draw in (1, 2, 3):
            if family == "static_table":
                A, y = static_table_instance((45, 59, 100)[draw - 1], seed=5, sigma=0.04)
                cases = [(y, f * 0.04) for f in (12.0, 4.0, 0.4)]
            else:
                A, y, x_init = stability_instance(draw)
                cases = [(rhs, lam) for rhs in (y, y - A.entries @ x_init) for lam in (0.35, 0.1)]
            lp, previous = SelectorLP(A), None
            for i in rng.permutation(np.repeat(np.arange(len(cases)), 2)):
                rhs, lam = cases[i]
                sol = self.assert_agrees(A, rhs, lam, lp)
                assert sol.path == ("cold" if previous is None else "warm")
                if i == previous:
                    assert sol.iterations == 0
                previous = i

    def test_stability_trial_within_contract(self):
        # trial 25 of the acceptance stability run holds a one-shot LP that
        # HiGHS with its default scaling closes 2.8e-9 past lambda; every
        # answer of the trial must pass the certificate
        record = _tracking_trial(_parse_tracking(stability_cfg(424242, trials=26)), 25)
        assert len(record.rows["simple_cs"]) == 25

    def test_no_warning_escapes(self):
        A, y = static_table_instance(59, seed=5, sigma=0.04)
        filters = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_dantzig(A, y, 0.16)
        assert (sol.status, sol.path) == ("optimal", "cold")
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
    """The tracking baseline drives each solve from the previous instant's
    answer; a drive that fails raises, and the handle starts cold again."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tracking_baseline_matches_cold(self, seed, monkeypatch):
        solves, residuals = [], []

        def warm_and_cold(A, y, lam, *, lp=None):
            sol = solve_dantzig(A, y, lam, lp=lp)
            solves.append((sol, solve_dantzig(A, y, lam), A, y, lam))
            return sol

        def residual(A, y, lam, *, lp=None):
            sol = solve_dantzig(A, y, lam, lp=lp)
            residuals.append((sol, lp))
            return sol

        monkeypatch.setattr("lscs.harness.solve_dantzig", warm_and_cold)
        monkeypatch.setattr("lscs.filter.solve_dantzig", residual)
        _tracking_trial(_parse_tracking(stability_cfg(seed, trials=1)), 0)
        assert len(solves) == 25
        # the residual solves take no handle and start cold
        assert len(residuals) == 24 and all(lp is None for _, lp in residuals)
        assert {sol.path for sol, _ in residuals} == {"cold", "zero_exit"}
        warm_pivots = cold_pivots = 0
        for t, (sol, cold, A, y, lam) in enumerate(solves):
            assert sol.status == cold.status == "optimal"
            g = A.entries.T @ y
            assert np.max(np.abs(g - A.gram() @ sol.zeta_hat)) <= lam + 1e-9
            # the answer is factored from the sorted optimal basis, so it
            # does not depend on the pivots that reached it
            assert np.array_equal(sol.zeta_hat, cold.zeta_hat), t
            assert cold.path == "cold"
            if t == 0:
                # the handle's first solve starts cold too
                assert sol.path == "cold"
            else:
                assert sol.path == "warm", t
                warm_pivots += sol.iterations
                cold_pivots += cold.iterations
        assert warm_pivots < cold_pivots / 2

    @pytest.mark.parametrize("failure", ["not_optimal", "past_lambda", "interrupted"])
    def test_rejected_warm_run_falls_back_to_cold(self, failure, monkeypatch):
        # a drive that breaks down (every pivot refused), whose answer fails
        # the certificate, or that any other exception stops halfway
        # raises; the handle returns to the empty basis, and its next call
        # starts cold
        A, y, x_init = stability_instance(1)
        handle = SelectorLP(A)
        assert solve_dantzig(A, y, 0.35, lp=handle).path == "cold"
        if failure == "not_optimal":
            monkeypatch.setattr(lscs.solver, "_PIVOT_TOL", np.inf)
            raised = pytest.raises(DantzigNumericsError, match="broke down")
        elif failure == "past_lambda":
            zero = np.zeros(A.m)
            monkeypatch.setattr(SelectorLP, "answer", lambda handle: (zero, zero))
            raised = pytest.raises(DantzigNumericsError, match="constraint")
        else:
            dual_step = SelectorLP._dual_step

            def interrupted(handle, *args):
                dual_step(handle, *args)  # the dual has moved, the basis not
                raise KeyboardInterrupt

            monkeypatch.setattr(SelectorLP, "_dual_step", interrupted)
            raised = pytest.raises(KeyboardInterrupt)
        y_res = y - A.entries @ x_init
        with raised:
            solve_dantzig(A, y_res, 0.35, lp=handle)
        assert handle.k == 0 and not handle.Gu.any()
        monkeypatch.undo()
        again = solve_dantzig(A, y_res, 0.35, lp=handle)
        assert again.path == "cold"
        assert np.max(np.abs(again.zeta_hat - milp_ranged_dantzig(A, y_res, 0.35))) <= 1e-9
        # the reset handle pivots exactly as a new one does
        fresh = solve_dantzig(A, y_res, 0.35, lp=SelectorLP(A))
        assert np.array_equal(again.zeta_hat, fresh.zeta_hat)
        assert (again.path, again.iterations) == (fresh.path, fresh.iterations)

    def test_zero_exit_keeps_basis(self):
        A, y, _ = stability_instance(3)
        handle = SelectorLP(A)
        solve_dantzig(A, y, 0.35, lp=handle)
        k, g, lam = handle.k, handle.g, handle.lam
        sol = solve_dantzig(A, 2.0 * y, float(np.max(np.abs(A.entries.T @ y))) * 2.0, lp=handle)
        assert (sol.path, sol.iterations) == ("zero_exit", 0)
        assert k > 0 and handle.k == k and handle.g is g and handle.lam == lam
        # the next call drives from the answer before the zero exit
        repeat = solve_dantzig(A, y, 0.35, lp=handle)
        assert (repeat.path, repeat.iterations) == ("warm", 0)

    def test_handle_of_another_matrix_rejected(self):
        A, y, _ = stability_instance(1)
        other = gen_gaussian_matrix(59, 200, 1)
        with pytest.raises(ValueError):
            solve_dantzig(A, y, 0.35, lp=SelectorLP(other))


class TestHandle:
    """A handle drives one matrix's solves from its last answer."""

    def test_static_draw_drives_one_handle(self, monkeypatch):
        solves = []

        def recorded(*args, **kwargs):
            sol = solve_dantzig(*args, **kwargs)
            solves.append((sol.path, kwargs.get("lp")))
            return sol

        # the residual solve goes through the filter's selector call
        monkeypatch.setattr("lscs.harness.solve_dantzig", recorded)
        monkeypatch.setattr("lscs.filter.solve_dantzig", recorded)
        cfg = json.loads((CONFIGS / "static_table.json").read_text())
        run_static_experiment({**cfg, "trials": 1, "cells": cfg["cells"][:1]})
        (residual, none), *scales = solves
        assert (residual, none) == ("cold", None)
        # one cold start at the largest lambda, then two lambda drives
        assert [path for path, _ in scales] == ["cold", "warm", "warm"]
        assert len({id(lp) for _, lp in scales}) == 1 and scales[0][1] is not None


class TestSelectorFailure:
    """A selector breakdown must surface as an error, never score as zeros."""

    @pytest.fixture(autouse=True)
    def failing_lp(self, monkeypatch):
        # the dual simplex refuses every pivot
        monkeypatch.setattr(lscs.solver, "_PIVOT_TOL", np.inf)

    def test_status_reported(self):
        A = gen_gaussian_matrix(10, 20, 1)
        with pytest.raises(DantzigNumericsError, match="broke down"):
            solve_dantzig(A, A.entries @ np.ones(20), 0.01)

    def test_iteration_limit_reported(self, monkeypatch):
        # pivots that change nothing stop at the cap of 10 m
        tried = []
        monkeypatch.setattr(SelectorLP, "_join", lambda handle, i, sign: tried.append(i) or True)
        A = gen_gaussian_matrix(10, 20, 1)
        with pytest.raises(DantzigNumericsError, match="broke down"):
            solve_dantzig(A, A.entries @ np.ones(20), 0.01)
        assert len(tried) == 10 * A.m

    def test_step_fails_at_cs_residual(self):
        A = gen_gaussian_matrix(20, 40, 3)
        x = np.zeros(40)
        x[[2, 11, 30]] = [1.0, -1.5, 2.0]
        y = A.entries @ x
        known = SupportSet([2, 11], 40)
        state = FilterState(known, np.zeros(40))
        new_state, diag = lscs_step(state, A, y, FilterConfig(lam=0.01, alpha=0.1, alpha_del=0.05))
        assert diag.failed_stage == "cs_residual"
        assert "broke down" in diag.failure
        assert new_state.support_estimate == known

    def test_experiments_raise(self, tmp_path):
        static = {
            "kind": "static_table",
            "m": 40, "support_size": 6, "delta_size": 1, "delta_e_size": 1,
            "cells": [{"n": 20, "sigma": 0.05}],
            "trials": 1, "seed": 11,
        }
        with pytest.raises(DantzigNumericsError):
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
        with pytest.raises(DantzigNumericsError):
            run_stability_experiment(stability)
        path = tmp_path / "static.json"
        path.write_text(json.dumps(static))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


class TestCertificate:
    """Every answer is checked by primal and dual feasibility and the gap."""

    @staticmethod
    def pair(seed: int, lam: float = 0.35):
        A, y, _ = stability_instance(seed)
        G, g = A.gram(), A.entries.T @ y
        handle = SelectorLP(A)
        # the drive runs under the errstate that solve_dantzig sets
        with np.errstate(divide="ignore", invalid="ignore"):
            assert handle.drive(g, lam) is not None
            zeta, u = handle.answer()
        assert lscs.solver._certify(G, g, lam, zeta, u) is None
        return A, y, G, g, zeta, u

    @pytest.mark.parametrize("seed", [1, 2])
    def test_feasible_but_not_optimal_fails(self, seed):
        A, y, G, g, zeta, u = self.pair(seed)
        # the least-norm interpolator meets every row with c = 0
        z0, *_ = np.linalg.lstsq(A.entries, y, rcond=None)
        assert np.max(np.abs(g - G @ z0)) <= 1e-9
        assert "duality gap" in lscs.solver._certify(G, g, 0.35, z0, u)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_corrupted_dual_fails(self, seed):
        A, y, G, g, zeta, u = self.pair(seed)
        assert lscs.solver._certify(G, g, 0.35, zeta, 1.01 * u) is not None
        for r in np.flatnonzero(u):
            flipped = u.copy()
            flipped[r] = -flipped[r]
            assert lscs.solver._certify(G, g, 0.35, zeta, flipped) is not None

    def test_dual_infeasible_pair_with_no_gap_fails(self):
        # move u within the active rows along a direction that keeps its
        # signs and the dual objective: the gap stays closed, |Gu| breaks 1
        A, y, G, g, zeta, u = self.pair(3)
        R = np.flatnonzero(u)
        d = g[R] - 0.35 * np.sign(u[R])
        v = np.random.default_rng(0).standard_normal(len(R))
        v -= (d @ v) / (d @ d) * d
        bent = u.copy()
        bent[R] += 1e-3 * np.min(np.abs(u[R])) / np.max(np.abs(v)) * v
        if np.max(np.abs(G @ bent)) <= 1.0:
            bent[R] = 2.0 * u[R] - bent[R]
        assert "dual infeasibility" in lscs.solver._certify(G, g, 0.35, zeta, bent)

    def test_failed_highs_answer_raises(self, monkeypatch):
        # an independent HiGHS answer whose duals, scaled by 1.01, break
        # |Gu| <= 1 fails the certificate inside the solve, which raises and
        # returns the handle to the empty basis
        A, y, _ = stability_instance(1)
        zeta, u = inequality_form_dantzig(A, y, 0.35)
        handle = SelectorLP(A)
        solve_dantzig(A, y, 0.35, lp=handle)
        monkeypatch.setattr(SelectorLP, "answer", lambda handle: (zeta, 1.01 * u))
        with pytest.raises(DantzigNumericsError, match="dual infeasibility"):
            solve_dantzig(A, y, 0.35, lp=handle)
        assert handle.k == 0 and not handle.Gu.any()
        monkeypatch.undo()
        # the next call pivots exactly as a new handle does
        again, fresh = (solve_dantzig(A, y, 0.35, lp=lp) for lp in (handle, SelectorLP(A)))
        assert np.array_equal(again.zeta_hat, fresh.zeta_hat)
        assert (again.path, again.iterations) == ("cold", fresh.iterations)


class TestImport:
    """Neither the CLI nor a run imports scipy."""

    def test_cli_imports_no_scipy(self, tmp_path):
        cfg = tmp_path / "static.json"
        cfg.write_text(json.dumps({
            "kind": "static_table", "m": 40, "support_size": 6, "delta_size": 1, "delta_e_size": 1,
            "cells": [{"n": 20, "sigma": 0.05}], "trials": 2, "seed": 11,
        }))
        code = f"""
            import sys
            import lscs.cli

            def scipy_modules():
                return [name for name in sys.modules if name.split(".")[0] == "scipy"]

            assert not scipy_modules()
            assert lscs.cli.main(["run", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
            assert not scipy_modules(), scipy_modules()
        """
        out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "out" / "manifest.json").exists()


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
            ls_on_support(A, SupportSet([0, 1], 2), np.ones(3))
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

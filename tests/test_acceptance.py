"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo criteria
use the pinned experiment configurations and take several minutes total.
"""

from itertools import combinations

import numpy as np
import pytest

from lscs.harness import (
    run_bound_validation,
    run_low_snr_experiments,
    run_static_experiment,
    run_stability_experiment,
)
from lscs.measurement import (
    MeasurementMatrix,
    build_rip_table,
    delta_exhaustive,
    gen_gaussian_matrix,
    theta_exhaustive,
)
from lscs.solver import solve_dantzig

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# ---------------------------------------------------------------------------
# pinned configurations
# ---------------------------------------------------------------------------

STATIC_CFG = {
    "kind": "static_table",
    "m": 200, "support_size": 20, "delta_size": 2, "delta_e_size": 2,
    "trials": 50, "seed": 20260810,
    "csres_lambda_factor": 4.0,
    "ds_lambda_factors": [12.0, 4.0, 0.4],
    "cells": [
        {"n": 45, "sigma": 0.04}, {"n": 45, "sigma": 0.09},
        {"n": 45, "sigma": 0.18}, {"n": 45, "sigma": 0.44},
        {"n": 59, "sigma": 0.04}, {"n": 59, "sigma": 0.09},
        {"n": 59, "sigma": 0.18}, {"n": 59, "sigma": 0.44},
        {"n": 100, "sigma": 0.04}, {"n": 100, "sigma": 0.09},
    ],
}

STABILITY_C = 0.0528
STABILITY_CFG = {
    "kind": "stability",
    "n": 59, "trials": 100, "seed": 424242,
    "model": {"m": 200, "s0": 20, "sa": 2, "d": 8, "r": 2, "big_m": 3.0,
              "rates": {"classes": [0.5, 0.25]}, "t_end": 24},
    "noise": {"kind": "uniform", "c": STABILITY_C},
    "filter": {"lam": 0.35, "alpha": STABILITY_C, "alpha_del": 2.28 * STABILITY_C},
    "init": {"kind": "true_support"},
    "zero_hit_window": 4,
    "check_guarantees": True,
    "rip_sampling_trials": 200,
}

LOW_SNR_CFG = {
    "kind": "low_snr",
    "seed": 515151, "trials": 30,
    "variants": {
        "slow_adds": {
            "kind": "stability", "n": 59,
            "model": {"m": 200, "s0": 20, "sa": 2, "d": 8, "r": 3, "big_m": 1.0,
                      "rates": 0.2, "t_end": 24},
            "noise": {"kind": "uniform", "c": 0.1266},
            "filter": {"lam": 0.176, "alpha": 0.0633, "alpha_del": 0.0633,
                        "max_additions_per_step": 3},
            "init": {"kind": "simple_cs", "n0": 150},
            "methods": ["lscs", "genie_ls"],
        },
        "fast_adds": {
            "kind": "stability", "n": 59,
            "model": {"m": 200, "s0": 20, "sa": 2, "d": 3, "r": 2, "big_m": 1.0,
                      "rates": 0.2, "t_end": 24},
            "noise": {"kind": "uniform", "c": 0.0528},
            "filter": {"lam": 0.176, "alpha": 0.0528, "alpha_del": 0.0528,
                        "max_additions_per_step": 2},
            "init": {"kind": "simple_cs", "n0": 150},
            "methods": ["lscs", "genie_ls"],
        },
    },
}

BOUND_VALIDATION_CFG = {
    "kind": "bound_validation",
    "m": 16, "n": 16, "support_size": 3, "delta_size": 1, "delta_e_size": 1,
    "lam": 0.5, "alpha": 0.25,
    "num_matrices": 5, "instances_per_matrix": 25,
    "seed": 616161, "matrix_kind": "perturbed_orthonormal",
    "matrix_noise_scale": 0.2,
}


@pytest.fixture(scope="module")
def static_result():
    return run_static_experiment(STATIC_CFG)


@pytest.fixture(scope="module")
def stability_result():
    return run_stability_experiment(STABILITY_CFG)


@pytest.fixture(scope="module")
def low_snr_result():
    return run_low_snr_experiments(LOW_SNR_CFG)


def _cell(result, n, sigma):
    for cell in result["cells"]:
        if cell["n"] == n and cell["sigma"] == sigma:
            return cell["nmse"]
    raise KeyError((n, sigma))


def test_criterion_1_static_table(static_result):
    a = _cell(static_result, 59, 0.09)
    b = _cell(static_result, 45, 0.04)
    ok_a = 0.05 <= a["cs_residual"] <= 0.25 and 0.45 <= a["ds_4sigma"] <= 0.95
    ok_b = 0.07 <= b["cs_residual"] <= 0.28
    ordering = []
    for cell in static_result["cells"]:
        nm = cell["nmse"]
        for name, value in nm.items():
            if name == "cs_residual":
                continue
            if cell["n"] == 100 and name == "ds_0.4sigma":
                continue  # the one regime where the plain selector may win
            ordering.append(nm["cs_residual"] < value)
    ok_c = all(ordering)
    ok = ok_a and ok_b and ok_c
    report(
        "criterion 1",
        ok,
        "table cells: n59/s0.09 csres=%.4f ds4=%.4f; n45/s0.04 csres=%.4f; "
        "ordering holds at %d/%d comparisons"
        % (a["cs_residual"], a["ds_4sigma"], b["cs_residual"],
           sum(ordering), len(ordering)),
    )
    assert ok_a, f"cell (59, 0.09) out of band: {a}"
    assert ok_b, f"cell (45, 0.04) out of band: {b}"
    assert ok_c, "residual route lost an ordering comparison"


def test_criterion_2_stability(stability_result):
    res = stability_result
    ok_delay = res.zero_hit_fraction is not None and res.zero_hit_fraction >= 0.90
    ok_lscs = res.nmse["lscs"] <= 0.01
    ok_cs = res.nmse["simple_cs"] >= 0.2
    ok = ok_delay and ok_lscs and ok_cs
    report(
        "criterion 2",
        ok,
        "zero-hit within 4 steps in %.1f%% of %d epochs; NMSE lscs=%.5f cs=%.3f"
        % (100 * res.zero_hit_fraction, len(res.epoch_delays),
           res.nmse["lscs"], res.nmse["simple_cs"]),
    )
    assert ok_delay
    assert ok_lscs
    assert ok_cs


def test_criterion_3_low_snr(low_snr_result):
    slow = low_snr_result["slow_adds"]
    fast = low_snr_result["fast_adds"]
    ok_slow = 0.01 <= slow.nmse["lscs"] <= 0.06
    ok_fast = 0.004 <= fast.nmse["lscs"] <= 0.03
    ok_snr = (
        abs(slow.snr["min_snr"] / 2.73 - 1) <= 0.01
        and abs(slow.snr["max_snr"] / 13.7 - 1) <= 0.01
        and abs(fast.snr["min_snr"] / 6.6 - 1) <= 0.01
        and abs(fast.snr["max_snr"] / 19.7 - 1) <= 0.01
    )
    ok = ok_slow and ok_fast and ok_snr
    report(
        "criterion 3",
        ok,
        "NMSE slow=%.4f fast=%.4f; SNR slow=(%.2f, %.1f) fast=(%.2f, %.1f)"
        % (slow.nmse["lscs"], fast.nmse["lscs"],
           slow.snr["min_snr"], slow.snr["max_snr"],
           fast.snr["min_snr"], fast.snr["max_snr"]),
    )
    assert ok_slow
    assert ok_fast
    assert ok_snr


def test_criterion_4_bound_soundness():
    rep = run_bound_validation(BOUND_VALIDATION_CFG)
    counts = rep["verified"]
    ok_counts = all(
        counts[c] >= 100
        for c in ["scan_bound", "single_scale_bound", "compressibility_bound", "detected_ls_bound"]
    )
    ok_viol = len(rep["violations"]) == 0
    ok = ok_counts and ok_viol
    report(
        "criterion 4",
        ok,
        "verified instances %s; violations=%d" % (counts, len(rep["violations"])),
    )
    assert ok_counts, f"too few precondition-verified instances: {counts}"
    assert ok_viol, f"bound violations: {rep['violations'][:3]}"


def test_criterion_5_solver_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        mdim = int(rng.integers(3, 10))
        y = 2.0 * rng.standard_normal(mdim)
        lam = float(rng.uniform(0.05, 1.5))
        sol = solve_dantzig(MeasurementMatrix(np.eye(mdim)), y, lam)
        st = np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)
        worst = max(worst, float(np.max(np.abs(sol.zeta_hat - st))))
    ok_soft = worst <= 1e-8

    def vertex_optimum(A, y, lam):
        n, m = A.shape
        G, g = A.T @ A, A.T @ y
        eye, zero = np.eye(m), np.zeros((m, m))
        rows = np.vstack([
            np.hstack([eye, -eye]), np.hstack([-eye, -eye]),
            np.hstack([-G, zero]), np.hstack([G, zero]),
        ])
        rhs = np.concatenate([np.zeros(2 * m), lam + g, lam - g])
        cost = np.concatenate([np.zeros(m), np.ones(m)])
        best = np.inf
        for active in combinations(range(rows.shape[0]), 2 * m):
            sub = rows[list(active)]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            z = np.linalg.solve(sub, rhs[list(active)])
            if np.all(rows @ z <= rhs + 1e-9):
                best = min(best, float(cost @ z))
        return best

    gap = 0.0
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        A = gen_gaussian_matrix(3, 5, seed)
        y = rng.standard_normal(3)
        sol = solve_dantzig(A, y, 0.2)
        gap = max(gap, abs(np.abs(sol.zeta_hat).sum() - vertex_optimum(A.entries, y, 0.2)))
    ok_vertex = gap <= 1e-6

    A = gen_gaussian_matrix(6, 12, 5)
    y = A.entries @ np.ones(12)
    lam = float(np.abs(A.entries.T @ y).max())
    sol = solve_dantzig(A, y, lam)
    ok_zero = np.all(sol.zeta_hat == 0.0) and np.abs(sol.zeta_hat).sum() == 0.0

    ok = ok_soft and ok_vertex and ok_zero
    report(
        "criterion 5",
        ok,
        "soft-threshold max err %.2e (tol 1e-8); vertex-oracle gap %.2e (tol 1e-6); "
        "zero case exact=%s" % (worst, gap, bool(ok_zero)),
    )
    assert ok_soft and ok_vertex and ok_zero


def test_criterion_6_rip_machinery():
    A = gen_gaussian_matrix(6, 10, 21)
    gram = A.gram()

    exact_delta = delta_exhaustive(A, 2)
    angles = np.linspace(0.0, np.pi, 200_000, endpoint=False)
    c = np.stack([np.cos(angles), np.sin(angles)])
    worst = 0.0
    for t in combinations(range(10), 2):
        block = gram[np.ix_(t, t)]
        q = np.einsum("ik,ij,jk->k", c, block, c)
        worst = max(worst, float(np.max(np.abs(q - 1.0))))
    gap_delta = abs(exact_delta - worst)

    exact_theta = theta_exhaustive(A, 1, 2)
    angles2 = np.linspace(0.0, 2 * np.pi, 200_000, endpoint=False)
    c2 = np.stack([np.cos(angles2), np.sin(angles2)])
    worst_theta = 0.0
    for t1 in range(10):
        for pair in combinations([j for j in range(10) if j != t1], 2):
            row = gram[t1, list(pair)]
            worst_theta = max(worst_theta, float(np.max(np.abs(row @ c2))))
    gap_theta = abs(exact_theta - worst_theta)

    I = MeasurementMatrix(np.eye(8))
    ortho_zero = max(
        max(delta_exhaustive(I, s) for s in range(1, 9)),
        theta_exhaustive(I, 2, 3),
    )

    table = build_rip_table(A, mode="exact")
    for s in [1, 2, 3]:
        table.delta(s)
    for pair in [(1, 1), (1, 2), (2, 2), (2, 4)]:
        table.theta(*pair)
    try:
        table.validate_monotone()
        monotone = True
    except ValueError:
        monotone = False
    sampled = build_rip_table(gen_gaussian_matrix(10, 30, 8), mode="sampled", trials=200, seed=3)
    for s in [1, 2, 3, 4]:
        sampled.delta(s)
    for pair in [(1, 2), (2, 2), (2, 4)]:
        sampled.theta(*pair)
    try:
        sampled.validate_monotone()
    except ValueError:
        monotone = False

    ok = gap_delta <= 1e-6 and gap_theta <= 1e-6 and ortho_zero == 0.0 and monotone
    report(
        "criterion 6",
        ok,
        "oracle gaps delta=%.2e theta=%.2e (tol 1e-6); orthonormal constants=%.1e; "
        "monotonicity=%s" % (gap_delta, gap_theta, ortho_zero, monotone),
    )
    assert gap_delta <= 1e-6
    assert gap_theta <= 1e-6
    assert ortho_zero == 0.0
    assert monotone


def test_criterion_7_runtime_guarantee_assertions(stability_result):
    tally = stability_result.tally
    names = [
        "detection_guarantee", "no_false_deletion_guarantee", "extras_deletion_guarantee",
        "detection_condition", "no_false_deletion_condition", "deletion_condition",
    ]
    total_viol = sum(tally.violations.get(name, 0) for name in names)
    hyp = {name: tally.hypotheses.get(name, 0) for name in names}
    ok = total_viol == 0 and hyp["no_false_deletion_guarantee"] > 0 and hyp["extras_deletion_guarantee"] > 0
    report(
        "criterion 7",
        ok,
        "violations=%d; hypothesis counts %s (counts of zero mean the "
        "predicate's hypothesis never verified at this scale, a vacuous pass)"
        % (total_viol, hyp),
    )
    assert total_viol == 0
    # the deletion-side guarantees must actually fire here, otherwise the run
    # checked nothing; the detection guarantee and the condition predicates
    # cannot verify at this configuration (selector shrinkage keeps the
    # estimate error above the detection-guarantee threshold, and sampled
    # constants leave the condition gates unsatisfied) - non-vacuous coverage
    # for those lives in the unit suites at friendlier scales
    assert hyp["no_false_deletion_guarantee"] > 0
    assert hyp["extras_deletion_guarantee"] > 0


def test_criterion_8_determinism(tmp_path):
    static_cfg = {
        "kind": "static_table",
        "m": 60, "support_size": 8, "delta_size": 1, "delta_e_size": 1,
        "cells": [{"n": 25, "sigma": 0.05}], "trials": 4, "seed": 77,
    }
    stability_cfg = {
        "kind": "stability",
        "n": 25, "trials": 2, "seed": 78,
        "model": {"m": 60, "s0": 8, "sa": 1, "d": 6, "r": 2, "big_m": 2.0,
                  "rates": 0.5, "t_end": 12},
        "noise": {"kind": "uniform", "c": 0.02},
        "filter": {"lam": 0.15, "alpha": 0.05, "alpha_del": 0.1},
        "init": {"kind": "true_support"},
    }
    identical = []
    for label, cfg, files in [
        ("static", static_cfg, ["n25_sigma0.05/cs_residual.csv", "manifest.json"]),
        ("stability", stability_cfg, ["lscs.csv", "genie_ls.csv", "simple_cs.csv", "manifest.json"]),
    ]:
        a, b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        run = run_static_experiment if label == "static" else run_stability_experiment
        run(dict(cfg), a)
        run(dict(cfg), b)
        for rel in files:
            identical.append((a / rel).read_bytes() == (b / rel).read_bytes())
    ok = all(identical)
    report("criterion 8", ok, "re-runs byte-identical for %d/%d output files"
           % (sum(identical), len(identical)))
    assert ok

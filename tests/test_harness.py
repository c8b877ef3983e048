import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lscs import cli, measurement
from lscs.cli import main
from lscs.config import ConfigError, ConfigReader
from lscs.core import SupportSet
from lscs.harness import (
    CSV_HEADER,
    MetricsRow,
    _draw_instance,
    _parse_tracking,
    _scored_row,
    _static_trial,
    _tracking_trial,
    parse_model,
    parse_noise,
    run_bound_validation,
    run_experiment,
    run_low_snr_experiments,
    run_static_experiment,
    run_stability_experiment,
    snr_summary,
    write_method_csv,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_static_cfg(trials=3):
    return {
        "kind": "static_table",
        "m": 40, "support_size": 6, "delta_size": 1, "delta_e_size": 1,
        "cells": [{"n": 20, "sigma": 0.05}],
        "trials": trials, "seed": 11,
    }


def small_stability_cfg(trials=2, check_guarantees=False):
    return {
        "kind": "stability",
        "n": 25, "trials": trials, "seed": 7,
        "model": {"m": 60, "s0": 8, "sa": 1, "d": 6, "r": 2, "big_m": 2.0,
                  "rates": 0.5, "t_end": 12},
        "noise": {"kind": "uniform", "c": 0.02},
        "filter": {"lam": 0.15, "alpha": 0.05, "alpha_del": 0.1},
        "init": {"kind": "true_support"},
        "zero_hit_window": 3,
        "check_guarantees": check_guarantees,
        "rip_sampling_trials": 50,
    }


def small_low_snr_cfg():
    base = small_stability_cfg(trials=1)
    return {
        "kind": "low_snr", "seed": 3, "trials": 1,
        "variants": {"slow": {**base, "init": {"kind": "simple_cs", "n0": 50}}},
    }


def small_bound_cfg():
    return {
        "kind": "bound_validation",
        "m": 16, "n": 16, "support_size": 3, "delta_size": 1, "delta_e_size": 1,
        "lam": 0.5, "alpha": 0.25,
        "num_matrices": 1, "instances_per_matrix": 6,
        "seed": 9, "matrix_kind": "perturbed_orthonormal",
    }


def bad_config(name):
    """A config with one fault, which the runner must report before its
    first selector solve."""
    bad_model = small_stability_cfg()
    bad_model["model"]["r"] = 10  # needs r < d
    if name == "filter":
        cfg = small_stability_cfg()
        cfg["filter"]["alpha"] = -1
        return cfg
    if name == "model":
        return bad_model
    if name == "second_variant":
        return {"kind": "low_snr", "seed": 3, "trials": 1,
                "variants": {"a": small_stability_cfg(trials=1), "b": bad_model}}
    cfg = small_static_cfg()
    cfg["cells"].append({"n": 20})
    return cfg


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["filter", "model", "second_variant", "second_cell"])
    def test_rejected_before_any_solve(self, name, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("selector ran before the config was parsed")

        monkeypatch.setattr("lscs.harness.solve_dantzig", no_solve)
        monkeypatch.setattr("lscs.filter.solve_dantzig", no_solve)
        with pytest.raises(ConfigError):
            run_experiment(bad_config(name))

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            run_static_experiment({"kind": "static_table"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "nope"})

    def test_bad_trials(self):
        cfg = small_static_cfg(trials=0)
        with pytest.raises(ConfigError):
            run_static_experiment(cfg)

    def test_bad_rates(self):
        cfg = small_stability_cfg()
        cfg["model"]["rates"] = [0.1, 0.2]
        with pytest.raises(ConfigError):
            run_stability_experiment(cfg)

    @pytest.mark.parametrize("key", ["ds_lambda_factors", "cells"])
    def test_repeated_factor_or_cell(self, key, tmp_path, capsys):
        # a repeated factor names two solves alike, a repeated cell writes
        # one directory twice: both exit 1 before anything is written
        cfg = small_static_cfg(trials=1)
        if key == "ds_lambda_factors":
            cfg[key] = [4.0, 0.4, 4.0]
        else:
            cfg[key] = [{"n": 20, "sigma": 0.05}, {"n": 24, "sigma": 0.05}, {"n": 20, "sigma": 0.05}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {key} repeats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("noise", [{"kind": "uniform", "c": 0}, {"kind": "gaussian", "sigma": 0.0}])
    def test_low_snr_zero_noise(self, noise, tmp_path, capsys):
        # zero noise makes every SNR infinite, which JSON cannot hold
        cfg = small_low_snr_cfg()
        cfg["variants"]["slow"]["noise"] = noise
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "config error: variants.slow.noise is zero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shipped_static_config_loads(self):
        cfg = json.loads((CONFIGS / "static_table.json").read_text())
        res = run_static_experiment({**cfg, "trials": 1})
        assert [(c["n"], c["sigma"]) for c in res["cells"]] == [(c["n"], c["sigma"]) for c in cfg["cells"]]
        assert all(len(c["nmse"]) == 1 + len(cfg["ds_lambda_factors"]) for c in res["cells"])


class TestStaticRunner:
    def test_runs_and_reports(self, tmp_path):
        res = run_static_experiment(small_static_cfg(), tmp_path)
        cell = res["cells"][0]
        assert set(cell["nmse"]) == {
            "cs_residual", "ds_12sigma", "ds_4sigma", "ds_0.4sigma",
        }
        assert all(v >= 0 for v in cell["nmse"].values())
        sub = tmp_path / "n20_sigma0.05"
        assert (sub / "cs_residual.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_csv_schema(self, tmp_path):
        run_static_experiment(small_static_cfg(), tmp_path)
        lines = (tmp_path / "n20_sigma0.05" / "cs_residual.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "cs_residual"
        # aggregate row flagged with trial = -1
        assert lines[-1].split(",")[0] == "-1"

    def test_noiseless_true_support_limit(self):
        # sigma -> 0 with the known part equal to the true support: the
        # residual route recovers exactly
        cfg = small_static_cfg(trials=2)
        cfg["delta_size"] = 0
        cfg["delta_e_size"] = 0
        cfg["cells"] = [{"n": 20, "sigma": 1e-9}]
        res = run_static_experiment(cfg)
        assert res["cells"][0]["nmse"]["cs_residual"] < 1e-12


class TestStabilityRunner:
    def test_basic_run(self):
        res = run_stability_experiment(small_stability_cfg())
        assert set(res.nmse) == {"lscs", "genie_ls", "simple_cs"}
        assert res.nmse["lscs"] < 0.2
        assert res.failed_steps == 0

    def test_outputs(self, tmp_path):
        run_stability_experiment(small_stability_cfg(), tmp_path)
        for name in ["lscs", "genie_ls", "simple_cs"]:
            assert (tmp_path / f"{name}.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "nmse" in manifest and "zero_hit_fraction" in manifest

    def test_epoch_delays_recorded(self):
        res = run_stability_experiment(small_stability_cfg())
        assert len(res.epoch_delays) > 0

    def test_guarantee_checks_run_clean(self):
        res = run_stability_experiment(small_stability_cfg(check_guarantees=True))
        assert sum(res.tally.violations.values()) == 0
        assert res.tally.hypotheses.get("detection_guarantee", 0) >= 0

    def test_noiseless_genie_lock(self):
        cfg = small_stability_cfg(trials=1)
        cfg["noise"] = {"kind": "uniform", "c": 1e-12}
        cfg["filter"] = {"lam": 0.05, "alpha": 0.02, "alpha_del": 0.02}
        res = run_stability_experiment(cfg)
        assert res.nmse["lscs"] == pytest.approx(res.nmse["genie_ls"], abs=1e-6)


def one_shot_variant():
    cfg = json.loads((CONFIGS / "low_snr.json").read_text())
    return {**cfg["variants"]["slow_adds"], "seed": 1, "trials": 2, "init": {"kind": "simple_cs", "n0": 150}}


def gaussian_tracking_cfg():
    return {**small_stability_cfg(), "noise": {"kind": "gaussian", "sigma": 0.02}}


class TestUnitsPickle:
    """A parsed setup survives pickling, and a unit run from the copy
    returns the record the original gives."""

    @pytest.mark.parametrize("cfg", [
        json.loads((CONFIGS / "stability.json").read_text()), one_shot_variant(), gaussian_tracking_cfg(),
    ], ids=["stability", "low_snr_one_shot", "gaussian"])
    def test_tracking_setup(self, cfg):
        setup = _parse_tracking(cfg)
        copy = pickle.loads(pickle.dumps(setup))
        assert _tracking_trial(copy, 1) == _tracking_trial(setup, 1)

    @pytest.mark.parametrize("cfg", [
        json.loads((CONFIGS / "static_table.json").read_text()), small_static_cfg(),
    ], ids=["static_table", "small"])
    def test_static_setup(self, cfg, monkeypatch):
        # the setup that the runner hands its units
        setups = []

        def recorded(setup, key):
            setups.append(setup)
            return _static_trial(setup, key)

        monkeypatch.setattr("lscs.harness._static_trial", recorded)
        run_static_experiment({**cfg, "trials": 2})
        setup = setups[-1]
        copy = pickle.loads(pickle.dumps(setup))
        key = (len(setup.cells) - 1, 1)
        assert _static_trial(copy, key) == _static_trial(setup, key)

    @pytest.mark.parametrize("spec, old", [
        ({"kind": "gaussian", "sigma": 0.3}, lambda size, rng: 0.3 * rng.standard_normal(size)),
        ({"kind": "uniform", "c": 0.1266}, lambda size, rng: rng.uniform(-0.1266, 0.1266, size)),
    ], ids=["gaussian", "uniform"])
    def test_noise_draw_matches_former_lambda(self, spec, old):
        # the expressions parse_noise once closed over: the same bits, and
        # the generator left in the same state
        noise = parse_noise(ConfigReader(spec))
        rng, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        for size in (1, 7, 59):
            assert noise.draw(size, rng).tobytes() == old(size, rng_old).tobytes()
        assert rng.bit_generator.state == rng_old.bit_generator.state


class TestScoredRow:
    def test_errors_and_support_counts(self):
        x_true = np.array([1.0, 0.0, -2.0, 0.0])
        x_hat = np.array([0.5, 0.0, -2.0, 0.5])
        row = _scored_row(3, 5, "lscs", x_true, x_hat, 5.0, SupportSet([0, 2], 4), SupportSet([2, 3], 4))
        assert (row.trial, row.t, row.method, row.err_final, row.nmse) == (3, 5, "lscs", 0.5, 0.1)
        assert (row.misses, row.extras, row.support_size, row.err_csres) == (1, 1, 2, None)
        plain = _scored_row(0, 0, "ds", x_true, x_hat, 0.0)
        assert (plain.nmse, plain.misses, plain.extras, plain.support_size) == (0.0, None, None, None)

    def test_tracking_rows(self):
        record = _tracking_trial(_parse_tracking(small_stability_cfg(trials=1)), 0)
        lscs, genie, cs = (record.rows[name] for name in ("lscs", "genie_ls", "simple_cs"))
        # the residual estimate is scored from the first step on
        assert lscs[0].err_csres is None and all(row.err_csres > 0 for row in lscs[1:])
        assert all(row.misses == row.extras == 0 for row in genie)
        assert all(row.misses is None and row.err_csres is None for row in cs)


class TestLowSnrRunner:
    def test_snr_summary_values(self):
        model = parse_model(ConfigReader({"m": 200, "s0": 20, "sa": 2, "d": 8, "r": 3, "big_m": 1.0,
                                          "rates": 0.2, "t_end": 24}), seed=0)
        snr = snr_summary(model, parse_noise(ConfigReader({"kind": "uniform", "c": 0.1266})))
        assert snr["min_snr"] == pytest.approx(2.73, rel=0.01)
        assert snr["max_snr"] == pytest.approx(13.7, rel=0.01)

    def test_snr_summary_fast(self):
        model = parse_model(ConfigReader({"m": 200, "s0": 20, "sa": 2, "d": 3, "r": 2, "big_m": 1.0,
                                          "rates": 0.2, "t_end": 24}), seed=0)
        snr = snr_summary(model, parse_noise(ConfigReader({"kind": "uniform", "c": 0.0528})))
        assert snr["min_snr"] == pytest.approx(6.6, rel=0.01)
        assert snr["max_snr"] == pytest.approx(19.7, rel=0.01)

    def test_variants_run(self, tmp_path):
        res = run_low_snr_experiments(small_low_snr_cfg(), tmp_path)
        assert "slow" in res
        assert res["slow"].snr is not None
        assert (tmp_path / "slow" / "lscs.csv").exists()
        assert (tmp_path / "slow" / "snr.json").exists()


class TestBoundValidationRunner:
    def test_small_sweep_sound(self, tmp_path):
        rep = run_bound_validation(small_bound_cfg(), tmp_path)
        assert rep["violations"] == []
        assert rep["verified"]["scan_bound"] > 0
        assert (tmp_path / "bound_validation.json").exists()

    def test_gaussian_instances_mostly_skipped(self):
        # plain Gaussian matrices at this size fail the hypotheses; the sweep
        # must skip them rather than assert anything
        cfg = {
            "kind": "bound_validation",
            "m": 16, "n": 8, "support_size": 3, "delta_size": 1, "delta_e_size": 1,
            "lam": 0.5, "alpha": 0.25,
            "num_matrices": 1, "instances_per_matrix": 4,
            "seed": 2, "matrix_kind": "gaussian",
        }
        rep = run_bound_validation(cfg)
        assert rep["violations"] == []
        assert rep["skipped"]["scan_bound"] + rep["verified"]["scan_bound"] == 4


def setdiff_draw_instance(rng, m, support_size, delta_size, delta_e_size, magnitudes=None):
    """``_draw_instance`` as it was written with ``np.setdiff1d``."""
    support = rng.choice(m, size=support_size, replace=False)
    x = np.zeros(m)
    mags = 1.0 if magnitudes is None else rng.uniform(magnitudes[0], magnitudes[1], support_size)
    x[support] = mags * rng.choice([-1.0, 1.0], size=support_size)
    delta = rng.choice(support, size=delta_size, replace=False)
    off = np.setdiff1d(np.arange(m), support)
    delta_e = rng.choice(off, size=delta_e_size, replace=False)
    known = SupportSet(np.concatenate([np.setdiff1d(support, delta), delta_e]), m)
    return x, known, np.sort(delta)


class TestDrawInstance:
    def test_matches_setdiff_draws(self):
        # same draws in the same order: outputs and the generator state agree
        params = np.random.default_rng(20)
        for seed in range(250):
            m = int(params.integers(1, 41))
            support_size = int(params.integers(0, m + 1))
            delta_size = int(params.integers(0, support_size + 1))
            delta_e_size = int(params.integers(0, m - support_size + 1))
            low = float(params.uniform(0.0, 2.0))
            magnitudes = None if seed % 3 == 0 else (low, low + float(params.uniform(0.0, 2.0)))
            args = (m, support_size, delta_size, delta_e_size, magnitudes)
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            x, known, delta = _draw_instance(new, *args)
            x0, known0, delta0 = setdiff_draw_instance(old, *args)
            assert np.array_equal(x, x0), args
            assert known.indices == known0.indices, args
            assert np.array_equal(delta, delta0) and delta.dtype == delta0.dtype, args
            assert new.integers(2**62) == old.integers(2**62), args


TRACKING_FILES = ["genie_ls.csv", "lscs.csv", "manifest.json", "simple_cs.csv"]

#: kind -> (small config, every file it writes)
SMALL_RUNS = {
    "static_table": (small_static_cfg(), ["manifest.json"] + [
        f"n20_sigma0.05/{name}.csv" for name in ("cs_residual", "ds_0.4sigma", "ds_12sigma", "ds_4sigma")
    ]),
    "stability": (small_stability_cfg(), TRACKING_FILES),
    "low_snr": (small_low_snr_cfg(), [f"slow/{name}" for name in TRACKING_FILES + ["snr.json"]]),
    "bound_validation": (small_bound_cfg(), ["bound_validation.json"]),
}


class TestDeterminism:
    @pytest.mark.parametrize("kind", list(SMALL_RUNS))
    def test_rerun_binary_identical(self, kind, tmp_path):
        cfg, files = SMALL_RUNS[kind]
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            run_experiment(cfg, out)
            outputs.append({p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert sorted(outputs[0]) == files
        assert outputs[0] == outputs[1]

    def test_different_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = small_static_cfg()
        run_static_experiment(cfg, a)
        cfg2 = dict(cfg, seed=99)
        run_static_experiment(cfg2, b)
        fa = (a / "n20_sigma0.05" / "cs_residual.csv").read_text()
        fb = (b / "n20_sigma0.05" / "cs_residual.csv").read_text()
        assert fa != fb


class TestCsvFormatting:
    def test_nine_significant_digits(self, tmp_path):
        row = MetricsRow(trial=0, t=0, method="x", nmse=0.123456789123, err_final=1e-12)
        path = tmp_path / "x.csv"
        write_method_csv(path, [row])
        body = path.read_text().splitlines()[1]
        assert "0.123456789" in body
        assert "1e-12" in body

    def test_empty_fields(self):
        row = MetricsRow(trial=0, t=0, method="x")
        assert row.to_csv_line() == "0,0,x,,,,,,"


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "lscs.cli", *args],
            capture_output=True, text=True,
        )

    def test_version(self):
        out = self.run_cli("version")
        assert out.returncode == 0
        assert out.stdout.strip()

    def test_run_static(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_static_cfg(trials=2)))
        out = self.run_cli("run", str(cfg_path), "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_trials_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_static_cfg(trials=5)))
        out = self.run_cli("run", str(cfg_path), "--out", str(tmp_path / "o"), "--trials", "1")
        assert out.returncode == 0, out.stderr
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 1

    def test_trials_flag_rejected_for_bound_validation(self, tmp_path):
        # the sweep's size is instances_per_matrix; the message names the
        # flag, not a config key the file does not hold
        out = self.run_cli(
            "run", str(CONFIGS / "bound_validation.json"), "--trials", "2", "--out", str(tmp_path / "o"),
        )
        assert out.returncode == 1
        assert "--trials" in out.stderr and "instances_per_matrix" in out.stderr
        assert "unknown config keys" not in out.stderr
        assert not (tmp_path / "o").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{\"kind\": \"static_table\"}")
        out = self.run_cli("run", str(cfg_path))
        assert out.returncode == 1

    def test_bad_filter_exit_code(self, tmp_path):
        cfg = small_stability_cfg()
        cfg["filter"]["lam"] = -0.1
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("run", str(cfg_path))
        assert out.returncode == 1
        assert "config error" in out.stderr

    @pytest.mark.parametrize("kind", ["stability", "static_table", "low_snr", "bound_validation"])
    def test_negative_seed_exit_code(self, kind, tmp_path):
        cfg = json.loads((CONFIGS / f"{kind}.json").read_text())
        cfg["seed"] = -3
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("run", str(cfg_path), "--out", str(tmp_path / "o"))
        assert out.returncode == 1
        assert "seed must be nonnegative" in out.stderr

    def test_negative_seed_flag_exit_code(self, tmp_path):
        out = self.run_cli(
            "run", str(CONFIGS / "stability.json"), "--seed", "-1", "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert out.returncode == 1
        assert "seed must be nonnegative" in out.stderr

    @pytest.mark.parametrize("seeded", ["matrix", "sampled_table"])
    def test_negative_check_stability_seed_exit_code(self, seeded, tmp_path):
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        if seeded == "matrix":
            cfg["rip_table"]["matrix"]["seed"] = -3
        else:
            cfg["rip_table"].update(mode="sampled", seed=-3)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 1
        assert "config error" in out.stderr

    def test_numerical_failure_exit_code(self, tmp_path):
        # the noise draw overflows; the selector rejects the non-finite data
        cfg = small_static_cfg(trials=1)
        cfg["cells"] = [{"n": 20, "sigma": 1e308}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("run", str(cfg_path))
        assert out.returncode == 2
        assert "runtime failure" in out.stderr

    def test_missing_rip_entries_exit_code(self, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps({"matrix_digest": "", "delta": {}, "theta": {}}))
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps({
            "model": {"m": 16, "s0": 3, "sa": 1, "d": 8, "r": 2, "big_m": 3.0,
                      "rates": 1.0, "t_end": 8},
            "context": {"n": 16, "lam": 0.05, "norm_A_1": 3.63, "noise_linf_bound": 0.0137},
            "rip_table": str(table_path),
            "f": 0, "d0": 1, "alpha": 0.5,
        }))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 2
        assert "missing from table" in out.stderr

    def test_entry_missing_where_read_exit_code(self, tmp_path):
        # the file holds every constant defined at m = 16 but delta_4, which
        # only the detection condition of detect-addition-1 (S_T = 4) reads
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps({
            "matrix_digest": "",
            "delta": {str(s): [0.0, True] for s in range(1, 17) if s != 4},
            "theta": {f"{s},{sp}": [0.0, True] for s in range(1, 16) for sp in range(1, 17 - s)},
        }))
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg.update({"rip_table": str(table_path), "f": 1, "d0": 1})
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 2
        assert "delta_4 missing from table" in out.stderr

    def test_missing_file_exit_code(self):
        out = self.run_cli("run", "/nonexistent/x.json")
        assert out.returncode == 1

    def test_rip_table_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "rip.json"
        cfg_path.write_text(json.dumps(RIP_TABLE_CFG))
        out_path = tmp_path / "table.json"
        out = self.run_cli("rip-table", str(cfg_path), "--out", str(out_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out_path.read_text())
        assert "delta" in doc and "2" in doc["delta"]

    def test_check_stability(self, tmp_path):
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps({
            "model": {"m": 16, "s0": 3, "sa": 1, "d": 8, "r": 2, "big_m": 3.0,
                      "rates": 1.0, "t_end": 8},
            "context": {"n": 16, "lam": 0.05, "norm_A_1": 3.63, "noise_linf_bound": 0.0137},
            "rip_table": {
                "matrix": {"kind": "perturbed_orthonormal", "n": 16, "m": 16,
                           "seed": 5, "noise_scale": 0.02},
                "mode": "exact",
            },
            "f": 0, "d0": "scan", "alpha": 0.5,
        }))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert "min_d0" in doc

    def test_check_stability_out_creates_parent_directory(self, tmp_path):
        out_path = tmp_path / "missing" / "dir" / "report.json"
        out = self.run_cli("check-stability", str(CONFIGS / "check_stability.json"),
                           "--out", str(out_path))
        assert out.returncode == 0, out.stderr
        assert out_path.read_text() == out.stdout

    @pytest.mark.parametrize("key, value", [("n", 4), ("norm_A_1", 50.0)])
    def test_check_stability_context_mismatch_exit_code(self, key, value, tmp_path):
        # the shipped norm_A_1 3.63 is within 1e-3 of the matrix's 3.6297;
        # a context that contradicts its matrix is rejected before any work
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["context"][key] = value
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        out = self.run_cli("check-stability", str(cfg_path), "--out", str(out_path))
        assert out.returncode == 1
        assert "config error: the rip_table matrix has" in out.stderr
        assert f"the context {key} = {value}" in out.stderr
        assert not out_path.exists()

    def test_check_stability_many_distinct_rates(self, tmp_path):
        # 200 distinct rates with S_a = 3: the worst case over addition sets
        # comes from the sorted rates, so no enumeration of rate multisets
        # runs out of room
        A = measurement.gen_matrix("gaussian", 60, 200, 1, 0.2)
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps({
            "model": {"m": 200, "s0": 6, "sa": 3, "d": 8, "r": 2, "big_m": 1.0,
                      "rates": [0.05 + 0.001 * i for i in range(200)], "t_end": 24},
            "context": {"n": 60, "lam": 0.05, "norm_A_1": A.induced_one_norm,
                        "noise_linf_bound": 0.001},
            "rip_table": {"matrix": {"kind": "gaussian", "n": 60, "m": 200, "seed": 1},
                          "mode": "sampled", "trials": 50},
            "f": 0, "d0": "scan", "alpha": 0.5,
        }))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 0, out.stderr
        rows = {r["identifier"]: r for r in json.loads(out.stdout)["report"]["rows"]}
        assert {f"keep-addition-{i}" for i in range(1, 4)} <= rows.keys()

    def test_check_stability_oversized_theta_pair(self, tmp_path):
        # S_T + S_Delta = 14 + 4 > m = 16 in the keep-constant row, where
        # theta_{14,4} is not defined
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["model"].update({"s0": 8, "sa": 4, "d": 10})
        cfg.update({"f": 1, "d0": 2})
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)["report"]
        row = next(r for r in report["rows"] if r["identifier"] == "keep-constant-coefficients")
        assert row["holds"] is False and row["note"] == "S_T + S_Delta > m"
        assert report["holds"] is False

    @pytest.mark.parametrize("model, f, rip, expected", [
        # every detection gate fails, so each threshold is infinite
        ({"s0": 8, "sa": 4, "d": 10}, 1, {},
         {f"detect-addition-{i}": ("rhs", "detection gate fails", True) for i in range(1, 5)}),
        # S_Delta > S**, so the gate term itself is infinite; a gate that
        # fails on sampled constants is not exact, a hypothesis that fails is
        ({"s0": 12, "sa": 6, "d": 12}, 0, {"mode": "sampled", "trials": 50},
         {"detection-gate": ("lhs", "S_Delta=6 exceeds S**", False),
          "detect-addition-1": ("rhs", "S_Delta=6 exceeds S**", True),
          "detect-addition-2": ("rhs", "detection gate fails", False)}),
    ], ids=["gate-fails", "past-s-starstar"])
    def test_check_stability_prints_strict_json(self, tmp_path, model, f, rip, expected):
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["model"].update(model)
        cfg["rip_table"].update(rip)
        cfg.update({"f": f, "d0": 2})
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 0, out.stderr

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rows = {r["identifier"]: r for r in json.loads(out.stdout, parse_constant=reject)["report"]["rows"]}
        for identifier, (side, note, exact) in expected.items():
            assert rows[identifier][side] is None and rows[identifier]["note"] == note, identifier
            assert rows[identifier]["exact"] is exact, identifier

    @pytest.mark.parametrize("d0", [5, "scan"])
    def test_check_stability_oversized_delta(self, tmp_path, d0):
        # S_T = 8 + (d0 + 4) > m = 16; no delta_{S_T} is computed
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["model"].update({"s0": 8, "sa": 4, "d": 10})
        cfg.update({"f": 1, "d0": d0})
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        row = next(r for r in doc["report"]["rows"] if r["identifier"] == "support-size-within-ls-range")
        assert row["holds"] is False and row["note"] == "S_T > m"
        assert doc["report"]["holds"] is False
        if d0 == "scan":
            assert doc["min_d0"] is None

    def test_check_stability_oversized_recovery_range(self, tmp_path):
        # 3 S_a = 18 > m = 16: theta_{6,12} is undefined and never computed
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["model"].update({"s0": 12, "sa": 6, "d": 12})
        cfg["d0"] = 2
        cfg["rip_table"].update({"mode": "sampled", "trials": 50})
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 0, out.stderr
        rows = {r["identifier"]: r for r in json.loads(out.stdout)["report"]["rows"]}
        row = rows["addition-count-within-recovery-range"]
        assert row["holds"] is False and row["note"] == "3 S_a > m"
        assert rows["detect-addition-1"]["note"] == "S_Delta=6 exceeds S**"

    def test_check_stability_scan_builds_table_for_every_d0(self, tmp_path):
        # with f = 1 each d0 needs its own delta_{S_T}; the scan stops at d0 = 1
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["f"] = 1
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("check-stability", str(cfg_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["min_d0"] == 1 and doc["report"]["holds"] is True

    def test_bound_validation_exit_code_on_clean_run(self, tmp_path):
        cfg_path = tmp_path / "bv.json"
        cfg_path.write_text(json.dumps({
            "kind": "bound_validation",
            "m": 16, "n": 16, "support_size": 3, "delta_size": 1, "delta_e_size": 1,
            "lam": 0.5, "alpha": 0.25, "num_matrices": 1, "instances_per_matrix": 3,
            "seed": 13, "matrix_kind": "perturbed_orthonormal",
        }))
        out = self.run_cli("run", str(cfg_path), "--out", str(tmp_path / "bv"))
        assert out.returncode == 0, out.stderr

    def test_bound_validation_failed_stage_exit_code(self, tmp_path):
        # detection grows |T| to 5 > n = 4, so its least squares fails: the
        # run stops at the first such instance, not counting it as skipped
        cfg_path = tmp_path / "bv.json"
        cfg_path.write_text(json.dumps({
            "kind": "bound_validation",
            "m": 16, "n": 4, "support_size": 3, "delta_size": 1, "delta_e_size": 1,
            "lam": 0.5, "alpha": 0.01, "num_matrices": 2, "instances_per_matrix": 10,
            "seed": 1, "matrix_kind": "gaussian",
        }))
        out = self.run_cli("run", str(cfg_path), "--out", str(tmp_path / "bv"))
        assert out.returncode == 2
        assert "detect_ls failed on matrix 0, instance 0: |T| = 5 exceeds n = 4" in out.stderr
        assert out.stdout == "" and not (tmp_path / "bv").exists()

    @pytest.mark.parametrize("kind, sizes", [
        ("static_table", {"delta_e_size": 35}),    # past m - support_size = 34
        ("static_table", {"delta_e_size": -1}),
        ("bound_validation", {"support_size": 17}),  # past m = 16
        ("bound_validation", {"delta_e_size": 14}),  # past m - support_size = 13
    ])
    def test_undrawable_sizes_exit_code(self, kind, sizes, tmp_path):
        cfg = small_static_cfg(trials=1) if kind == "static_table" else {
            "kind": "bound_validation",
            "m": 16, "n": 16, "support_size": 3, "delta_size": 1, "delta_e_size": 1,
            "lam": 0.5, "num_matrices": 1, "instances_per_matrix": 1, "seed": 13,
        }
        cfg.update(sizes)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.run_cli("run", str(cfg_path))
        assert out.returncode == 1, out.stderr
        assert "config error" in out.stderr

    @pytest.mark.parametrize("kind, change", [
        ("static_table", {"cells": [{"n": 0, "sigma": 0.05}]}),
        ("static_table", {"cells": [{"n": 20, "sigma": -0.05}]}),
        ("static_table", {"csres_lambda_factor": -1.0}),
        ("static_table", {"ds_lambda_factors": [4.0, -1.0]}),
        ("stability", {"n": 0}),
        ("stability", {"cs_lambda": -0.1}),
        ("stability", {"noise": {"kind": "uniform", "c": -0.02}}),
        ("stability", {"noise": {"kind": "gaussian", "sigma": -0.02}}),
        ("stability", {"init": {"kind": "simple_cs", "n0": 0}}),
        ("stability", {"init": {"kind": "simple_cs", "n0": 40, "lam": -0.1}}),
        ("stability", {"init": {"kind": "simple_cs", "n0": 40, "alpha": -0.1}}),
        ("stability", {"zero_hit_window": -1}),
        ("bound_validation.json", {"budget": -1}),
        ("stability.json", {"rip_sampling_trials": 0}),
        ("check_stability.json", {"trials": 0}),
        ("check_stability.json", {"budget": -1}),
        ("static_table", {"trials": 1.7}),
        ("static_table", {"seed": 1.5}),
        ("stability", {"zero_hit_window": 2.5}),
        ("stability", {"n": True}),
        ("stability", {"check_guarantees": "no"}),
        ("stability", {"check_guarentees": True}),
        ("bound_validation.json", {"magnitude_low": 3.0, "magnitude_high": 2.0}),
    ])
    def test_invalid_value_exit_code(self, kind, change, tmp_path, capsys):
        if kind.endswith(".json"):
            cfg = json.loads((CONFIGS / kind).read_text())
        else:
            cfg = small_static_cfg(trials=1) if kind == "static_table" else small_stability_cfg(trials=1)
        if kind == "check_stability.json":
            cfg["rip_table"].update({"mode": "sampled", **change})
        else:
            cfg.update(change)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        command = "check-stability" if kind == "check_stability.json" else "run"
        assert main([command, str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("block, change", [
        ("context", {"norm_A_1": 0}),
        ("context", {"norm_A_1": -3.63}),
        ("context", {"n": -3}),
        ("context", {"n": 0}),
        ("context", {"lam": -0.05}),
        ("context", {"noise_linf_bound": -0.0137}),
        (None, {"alpha": -0.5}),
        (None, {"alpha_del": -0.1}),
        (None, {"f": 0.9}),
    ], ids=["norm_A_1-zero", "norm_A_1-negative", "n-negative", "n-zero", "lam", "noise_linf_bound",
            "alpha", "alpha_del", "f-non-integral"])
    def test_check_stability_invalid_context_exit_code(self, block, change, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        (cfg if block is None else cfg[block]).update(change)
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["check-stability", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("entries", [
        {"delta": {"1": [0.5, True], "2": [0.1, True]}},   # delta_1 > delta_2
        {"theta": {"1,1": [0.2, True], "1,2": [0.1, True]}},
        {"delta": {"1": [float("nan"), True]}},
        {"theta": {"1,1": [-0.1, True]}},
        {"delta": []},
        {"delta": {"1": [0.1, "yes"]}},
        {"thetas": {"1,1": [0.1, True]}},
        {"delta": {"0": [0.1, True]}},
        {"theta": {"1,1,1": [0.1, True]}},
    ], ids=["delta-non-monotone", "theta-non-monotone", "nan", "negative", "delta-list", "exact-not-bool",
            "unknown-key", "size-zero", "theta-three-sizes"])
    def test_check_stability_bad_table_file_exit_code(self, entries, tmp_path, capsys):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps({"matrix_digest": "", **entries}))
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["rip_table"] = str(table_path)
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        assert main(["check-stability", str(cfg_path), "--out", str(out_path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out_path.exists()

    def test_type_error_in_parsing_code_is_a_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # a TypeError inside a parse block is a fault of the code, not of the config
        def broken(*args):
            raise TypeError("broken parser")

        monkeypatch.setattr(cli, "gen_matrix", broken)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RIP_TABLE_CFG))
        assert main(["rip-table", str(cfg_path), "--out", str(tmp_path / "table.json")]) == 2
        assert "runtime failure: TypeError: broken parser" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["static_table", "stability", "low_snr", "bound_validation",
                                      "check_stability", "rip_table"])
    def test_every_config_value_is_checked(self, name, tmp_path, capsys):
        # each mutant of a valid config exits 1 before it writes anything
        if name == "rip_table":
            command, cfg, out = "rip-table", RIP_TABLE_CFG, "table.json"
        elif name == "check_stability":
            command, out = "check-stability", "report.json"
            cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        else:
            command, cfg, out = "run", json.loads((CONFIGS / f"{name}.json").read_text()), "."
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        accepted = []
        for label, mutant in config_mutants(cfg):
            cfg_path.write_text(json.dumps(mutant))
            code = main([command, str(cfg_path), "--out", str(out_dir / out)])
            if code != 1 or "config error" not in capsys.readouterr().err or out_dir.exists():
                accepted.append(label)
        assert accepted == []

    def test_check_stability_matrix_of_another_size_exit_code(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "check_stability.json").read_text())
        cfg["rip_table"]["matrix"].update({"n": 8, "m": 8})  # the model has m = 16
        cfg["d0"] = 2
        cfg_path = tmp_path / "chk.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["check-stability", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [
        {"delta": [1, 12]},              # past m = 10
        {"delta": [1, -2]},
        {"theta": [[1, 1], [6, 5]]},     # S + S' past m
        {"theta": [[1, 1], [-1, 2]]},
    ], ids=["delta-past-m", "delta-negative", "theta-past-m", "theta-negative"])
    def test_rip_table_invalid_sizes_exit_code(self, sizes, tmp_path, monkeypatch, capsys):
        computed = count_constants(monkeypatch)
        cfg_path = tmp_path / "rip.json"
        cfg_path.write_text(json.dumps({
            "matrix": {"kind": "gaussian", "n": 6, "m": 10, "seed": 4}, "mode": "exact", **sizes,
        }))
        assert main(["rip-table", str(cfg_path), "--out", str(tmp_path / "table.json")]) == 1
        assert "config error" in capsys.readouterr().err
        assert computed == [] and not (tmp_path / "table.json").exists()

    def test_low_snr_flags_override_variants(self, tmp_path, capsys):
        variant = {**small_stability_cfg(trials=1), "init": {"kind": "simple_cs", "n0": 50}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "kind": "low_snr", "seed": 3, "trials": 1, "variants": {"a": variant, "b": variant},
        }))
        out = tmp_path / "o"
        assert main(["run", str(cfg_path), "--out", str(out), "--trials", "2", "--seed", "5"]) == 0
        for name in ("a", "b"):
            manifest = json.loads((out / name / "manifest.json").read_text())
            assert (manifest["config"]["trials"], manifest["config"]["seed"]) == (2, 5)
            trials = {line.split(",")[0] for line in (out / name / "lscs.csv").read_text().splitlines()[1:]}
            assert trials == {"0", "1", "-1"}


RIP_TABLE_CFG = {
    "matrix": {"kind": "gaussian", "n": 6, "m": 10, "seed": 4},
    "delta": [1, 2], "theta": [[1, 2]], "mode": "exact",
}


def config_mutants(doc, path=()):
    """Yield (label, copy of ``doc``) for each mutant of each value below
    ``path``: a value of the wrong type, and for a number also NaN, +inf and
    -1; and for each object, the object with an unknown key added."""
    node = doc
    for key in path:
        node = node[key]

    def mutant(at, value):
        copy = json.loads(json.dumps(doc))
        target = copy
        for key in at[:-1]:
            target = target[key]
        target[at[-1]] = value
        return f"{'.'.join(map(str, at))} = {value!r}", copy

    if isinstance(node, dict):
        yield mutant(path + ("unknown_key",), 1)
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        at = path + (key,)
        if isinstance(value, str):
            # d0 takes "scan" or an integer in [1, d), so 3 would be valid
            wrong = [1.5 if at == ("d0",) else 3]
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            wrong = ["x", float("nan"), float("inf"), -1]
        else:
            wrong = ["x"]
        for bad in wrong:
            yield mutant(at, bad)
        if isinstance(value, (dict, list)):
            yield from config_mutants(doc, at)


def count_constants(monkeypatch) -> list:
    """Record the function name and sizes of every constant computed from
    now on."""
    computed = []

    def counting(fn, sizes):
        def counted(A, *args, **kwargs):
            computed.append((fn.__name__, *args[:sizes]))
            return fn(A, *args, **kwargs)
        return counted

    for name, sizes in [("delta_exhaustive", 1), ("delta_sampled", 1),
                        ("theta_exhaustive", 2), ("theta_sampled", 2)]:
        monkeypatch.setattr(measurement, name, counting(getattr(measurement, name), sizes))
    return computed


class TestLazyConstants:
    """A table computes a constant when a check first reads it, and no
    other."""

    def test_check_stability_computes_what_it_reads(self, monkeypatch, capsys):
        computed = count_constants(monkeypatch)
        assert main(["check-stability", str(CONFIGS / "check_stability.json")]) == 0
        # the detection gate reads theta at the largest |T| only
        assert sorted(computed) == [
            ("delta_exhaustive", 2), ("delta_exhaustive", 3),
            ("theta_exhaustive", 1, 2), ("theta_exhaustive", 3, 1),
        ]

    def test_bound_validation_computes_what_it_reads(self, monkeypatch):
        computed = count_constants(monkeypatch)
        cfg = json.loads((CONFIGS / "bound_validation.json").read_text())
        run_bound_validation({**cfg, "num_matrices": 2, "instances_per_matrix": 4})
        # the recovery-bound scan stops before S = 3, so neither delta_6,
        # delta_8, theta_{3,6} nor theta_{4,8} is enumerated
        per_matrix = [
            ("delta_exhaustive", 2), ("delta_exhaustive", 3), ("delta_exhaustive", 4),
            ("theta_exhaustive", 1, 2), ("theta_exhaustive", 2, 4), ("theta_exhaustive", 3, 1),
        ]
        assert sorted(computed) == sorted(per_matrix * 2)

    def test_tracking_trial_reads_no_constant(self, monkeypatch):
        # trial 0 fails the noise budget, so no condition predicate reads one
        computed = count_constants(monkeypatch)
        setup = _parse_tracking(json.loads((CONFIGS / "stability.json").read_text()))
        record = _tracking_trial(setup, 0)
        assert computed == []
        assert record.tally.hypotheses["no_false_deletion_guarantee"] > 0
        assert record.tally.hypotheses["deletion_condition"] == 0

"""Config-driven Monte Carlo experiments with deterministic CSV/JSON output.

Experiment kinds:

* ``static_table``   one-shot reconstruction grid over (n, sigma) cells,
  comparing the residual-based estimate against plain selector solves,
* ``stability``      tracking run on the ramped signal model,
* ``low_snr``        tracking runs at low SNR (slow and fast addition
  variants) initialized by a one-shot solve on a taller matrix,
* ``bound_validation``  seeded soundness sweep of the error bounds against
  actual errors at exhaustively-computed isometry constants.

Each runner parses its whole config before the first random draw, so a bad
config raises :class:`ConfigError` before any work; anything raised later is
a runtime failure.

A tracking trial is a pure function of the parsed setup and the trial index:
it draws from its own generator ``default_rng([seed, k])`` and returns a
:class:`TrialRecord` holding only what reaches the outputs (per-t squared
errors and signal energies, misses, epoch delays, CSV rows and
the predicate tally).  The records are then reduced in trial order, adding
every sum in the same (trial, t) order as a single loop would.

Aggregate NMSE is the ratio of summed squared errors to summed signal energy
over all trials and steps; per-(trial, t) rows are also emitted so a
per-instant convention can be recovered.  Every random draw derives from the
experiment seed, so re-running a config reproduces output files byte for
byte.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BoundContext,
    PredicateTally,
    simplified_residual_bound,
    compressibility_residual_bound,
    detected_support_ls_error_bound,
    runtime_step_checks,
    residual_recovery_bound,
)
from .core import SupportSet, support_of
from .filter import (
    FilterConfig,
    FilterState,
    detect,
    genie_ls,
    initial_ls_residual,
    lscs_step,
    simple_cs,
)
from .measurement import DEFAULT_SUBSET_BUDGET, MeasurementMatrix, build_rip_table, gen_matrix
from .sigmodel import SignalModelParams, SignalSequence, generate
from .solver import LsSolveError, SelectorLP, ls_on_support, optimal_zeta, solve_dantzig

CSV_HEADER = "trial,t,method,nmse,misses,extras,support_size,err_csres,err_final"

METHOD_LSCS = "lscs"
METHOD_GENIE = "genie_ls"
METHOD_CS = "simple_cs"


class ConfigError(ValueError):
    """Invalid or missing experiment configuration."""


@contextmanager
def config_errors():
    """Report any ``KeyError``, ``TypeError``, ``ValueError`` or ``OSError``
    raised while a config is parsed as a :class:`ConfigError`."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.9g" % v
    return str(v)


@dataclass
class MetricsRow:
    trial: int              # -1 flags an aggregate row
    t: int                  # -1 flags the overall aggregate
    method: str
    nmse: float | None = None
    misses: int | None = None
    extras: int | None = None
    support_size: int | None = None
    err_csres: float | None = None
    err_final: float | None = None

    def to_csv_line(self) -> str:
        return ",".join([
            str(self.trial), str(self.t), self.method,
            _fmt(self.nmse), _fmt(self.misses), _fmt(self.extras),
            _fmt(self.support_size), _fmt(self.err_csres), _fmt(self.err_final),
        ])


def write_method_csv(path: Path, rows: list[MetricsRow]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_line() + "\n")


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def write_manifest(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _req(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config key {key!r} has wrong type {type(value).__name__}")
    return value


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# ---------------------------------------------------------------------------
# config parsing helpers
# ---------------------------------------------------------------------------


def _parse_filter(cfg: dict) -> FilterConfig:
    return FilterConfig(
        lam=float(_req(cfg, "lam")),
        alpha=float(_req(cfg, "alpha")),
        alpha_del=float(_req(cfg, "alpha_del")),
        max_additions_per_step=(
            None if cfg.get("max_additions_per_step") is None
            else int(cfg["max_additions_per_step"])
        ),
    )


def _rates_vector(spec, m: int) -> np.ndarray:
    """Rates given either as an explicit list, a constant, or value classes
    split evenly across indices."""
    if isinstance(spec, (int, float)):
        return np.full(m, float(spec))
    if isinstance(spec, list):
        rates = np.asarray(spec, dtype=float)
        if rates.shape != (m,):
            raise ConfigError("explicit rates list must have length m")
        return rates
    if isinstance(spec, dict) and "classes" in spec:
        classes = [float(v) for v in spec["classes"]]
        if not classes:
            raise ConfigError("rates classes must be nonempty")
        rates = np.empty(m)
        bounds = np.linspace(0, m, len(classes) + 1).astype(int)
        for k, v in enumerate(classes):
            rates[bounds[k]:bounds[k + 1]] = v
        return rates
    raise ConfigError("rates must be a number, a length-m list, or {'classes': [...]}")


def parse_model(cfg: dict, seed: int) -> SignalModelParams:
    with config_errors():
        m = int(_req(cfg, "m"))
        return SignalModelParams(
            m=m,
            s0=int(_req(cfg, "s0")),
            sa=int(_req(cfg, "sa")),
            d=int(_req(cfg, "d")),
            r=int(_req(cfg, "r")),
            big_m=float(_req(cfg, "big_m")),
            rates=_rates_vector(_req(cfg, "rates"), m),
            t_end=int(_req(cfg, "t_end")),
            seed=seed,
        )


def _noise_std(noise: dict) -> float:
    if noise["kind"] == "gaussian":
        return float(noise["sigma"])
    if noise["kind"] == "uniform":
        return float(noise["c"]) / math.sqrt(3.0)
    raise ConfigError(f"unknown noise kind {noise.get('kind')!r}")


def _draw_noise(noise: dict, size: int, rng: np.random.Generator) -> np.ndarray:
    """Noise of a config that :func:`_noise_std` accepted."""
    if noise["kind"] == "gaussian":
        return float(noise["sigma"]) * rng.standard_normal(size)
    c = float(noise["c"])
    return rng.uniform(-c, c, size)


def _noise_linf_bound(noise: dict) -> float:
    """Hard l-inf bound when one exists; infinity for unbounded noise."""
    if noise["kind"] == "uniform":
        return float(noise["c"])
    return float("inf")


def _draw_instance(
    rng: np.random.Generator,
    m: int,
    support_size: int,
    delta_size: int,
    delta_e_size: int,
    magnitudes: tuple[float, float] | None = None,
) -> tuple[np.ndarray, SupportSet, np.ndarray]:
    """One sparse signal and the known part of its support.

    Returns ``(x, known, delta)``: ``known`` misses the ``delta_size`` true
    indices in the sorted array ``delta`` and carries ``delta_e_size``
    spurious ones.  Entries are +-1, or uniform on ``magnitudes`` with a
    random sign; the magnitude draw precedes the sign draw.
    """
    support = rng.choice(m, size=support_size, replace=False)
    x = np.zeros(m)
    mags = 1.0 if magnitudes is None else rng.uniform(magnitudes[0], magnitudes[1], support_size)
    x[support] = mags * rng.choice([-1.0, 1.0], size=support_size)
    delta = rng.choice(support, size=delta_size, replace=False)
    off = np.setdiff1d(np.arange(m), support)
    delta_e = rng.choice(off, size=delta_e_size, replace=False)
    known = SupportSet(np.concatenate([np.setdiff1d(support, delta), delta_e]), m)
    return x, known, np.sort(delta)


# ---------------------------------------------------------------------------
# static (single time instant) experiment
# ---------------------------------------------------------------------------


def _ds_method_name(factor: float) -> str:
    return "ds_%gsigma" % factor


def run_static_experiment(cfg: dict, out_dir: Path | None = None) -> dict:
    """One-shot reconstruction over (n, sigma) cells.

    Per trial: a fresh column-normalized Gaussian matrix, a support of
    ``support_size`` +-1 spikes, a known part missing ``delta_size`` true
    indices and carrying ``delta_e_size`` spurious ones, Gaussian noise.
    The residual-based estimate runs at ``csres_lambda_factor * sigma``; plain
    selector solves run at each of ``ds_lambda_factors * sigma``.
    """
    with config_errors():
        m = int(_req(cfg, "m"))
        support_size = int(_req(cfg, "support_size"))
        delta_size = int(_req(cfg, "delta_size"))
        delta_e_size = int(_req(cfg, "delta_e_size"))
        cells = [(int(_req(c, "n")), float(_req(c, "sigma"))) for c in _req(cfg, "cells", list)]
        trials = int(_req(cfg, "trials"))
        seed = int(_req(cfg, "seed"))
        csres_factor = float(cfg.get("csres_lambda_factor", 4.0))
        ds_factors = [float(v) for v in cfg.get("ds_lambda_factors", [12.0, 4.0, 0.4])]
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not 0 <= delta_size <= support_size or support_size > m:
        raise ConfigError("need delta_size <= support_size <= m")

    methods = ["cs_residual"] + [_ds_method_name(f) for f in ds_factors]
    summary = []
    all_rows: dict[tuple[int, str], list[MetricsRow]] = {}

    for ci, (n, sigma) in enumerate(cells):
        err_sum = {name: 0.0 for name in methods}
        sig_sum = 0.0
        rows = {name: [] for name in methods}
        for k in range(trials):
            rng = np.random.default_rng([seed, ci, k])
            A = MeasurementMatrix.from_columns(rng.standard_normal((n, m)))
            x, known, _ = _draw_instance(rng, m, support_size, delta_size, delta_e_size)
            w = sigma * rng.standard_normal(n)
            y = A.entries @ x + w
            sig_sq = float(x @ x)
            sig_sum += sig_sq

            x_init, y_res = initial_ls_residual(A, known, y)
            x_csres = optimal_zeta(solve_dantzig(A, y_res, csres_factor * sigma)) + x_init
            err = float(np.sum((x - x_csres) ** 2))
            err_sum["cs_residual"] += err
            rows["cs_residual"].append(MetricsRow(
                trial=k, t=0, method="cs_residual", nmse=_ratio(err, sig_sq),
                err_csres=err, err_final=err,
            ))

            for factor in ds_factors:
                name = _ds_method_name(factor)
                zeta = optimal_zeta(solve_dantzig(A, y, factor * sigma))
                err = float(np.sum((x - zeta) ** 2))
                err_sum[name] += err
                rows[name].append(MetricsRow(
                    trial=k, t=0, method=name, nmse=_ratio(err, sig_sq), err_final=err,
                ))

        nmse = {name: _ratio(err_sum[name], sig_sum) for name in methods}
        for name in methods:
            rows[name].append(MetricsRow(
                trial=-1, t=-1, method=name, nmse=nmse[name], err_final=err_sum[name],
            ))
            all_rows[(ci, name)] = rows[name]
        summary.append({"n": n, "sigma": sigma, "nmse": nmse})

    result = {
        "kind": "static_table",
        "cells": summary,
        "config": cfg,
        "version": __version__,
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        for (ci, name), rows in sorted(all_rows.items()):
            cell = summary[ci]
            sub = out_dir / ("n%d_sigma%s" % (cell["n"], _fmt(cell["sigma"])))
            write_method_csv(sub / f"{name}.csv", rows)
        write_manifest(out_dir / "manifest.json", result)
    return result


# ---------------------------------------------------------------------------
# tracking experiments (stability / low SNR)
# ---------------------------------------------------------------------------


@dataclass
class TrackingResult:
    nmse: dict
    mean_misses: list[float]
    epoch_delays: list[int | None]       # flattened over (trial, epoch)
    zero_hit_fraction: float | None
    init_exact_fraction: float | None
    failed_steps: int
    tally: PredicateTally
    rows: dict = field(default_factory=dict)
    snr: dict | None = None


def _epoch_delays(
    seq: SignalSequence, misses: list[int], extras: list[int], window: int
) -> list[int | None]:
    """Per addition epoch: steps until misses+extras first hit zero."""
    out = []
    t_end = len(misses) - 1
    for t_j in seq.addition_times:
        if t_j + window > t_end:
            continue
        delay = None
        horizon = min(t_j + seq.params.d - 1, t_end)
        for t in range(t_j, horizon + 1):
            if misses[t] + extras[t] == 0:
                delay = t - t_j
                break
        out.append(delay)
    return out


@dataclass(frozen=True)
class TrackingSetup:
    """A tracking config, parsed once before trial 0.

    ``model`` carries seed 0; each trial replaces it with a seed drawn from
    the trial's generator.  ``init`` is ``{"kind": "true_support"}`` or
    ``{"kind": "simple_cs", "n0", "lam", "alpha"}`` with every value set.
    """

    n: int
    model: SignalModelParams
    noise: dict
    fcfg: FilterConfig
    init: dict
    window: int
    methods: tuple[str, ...]
    trials: int
    seed: int
    cs_lambda: float
    check_guarantees: bool
    rip_trials: int


@dataclass(frozen=True)
class TrialRecord:
    """What one tracking trial contributes to the outputs.  Lists run over
    t = 0..t_end; each row's ``err_final`` is that method's squared error."""

    rows: dict[str, list[MetricsRow]]
    sig: list[float]                   # signal energy
    misses: list[int]                  # of the estimator's support
    delays: list[int | None]
    init_exact: bool
    failed_steps: int
    tally: PredicateTally


def _parse_tracking(cfg: dict) -> TrackingSetup:
    with config_errors():
        fcfg = _parse_filter(_req(cfg, "filter", dict))
        noise = _req(cfg, "noise", dict)
        _noise_std(noise)  # rejects an unknown kind or a missing parameter
        init = dict(cfg.get("init", {"kind": "true_support"}))
        if init.get("kind") == "simple_cs":
            init = {
                "kind": "simple_cs",
                "n0": int(_req(init, "n0")),
                "lam": float(init.get("lam", fcfg.lam)),
                "alpha": float(init.get("alpha", fcfg.alpha)),
            }
        elif init.get("kind") != "true_support":
            raise ConfigError(f"unknown init kind {init.get('kind')!r}")
        methods = tuple(dict.fromkeys(cfg.get("methods", [METHOD_LSCS, METHOD_GENIE, METHOD_CS])))
        unknown = [name for name in methods if name not in (METHOD_LSCS, METHOD_GENIE, METHOD_CS)]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}")
        setup = TrackingSetup(
            n=int(_req(cfg, "n")),
            model=parse_model(_req(cfg, "model", dict), seed=0),
            noise=noise,
            fcfg=fcfg,
            init=init,
            window=int(cfg.get("zero_hit_window", 4)),
            methods=methods,
            trials=int(_req(cfg, "trials")),
            seed=int(_req(cfg, "seed")),
            cs_lambda=float(cfg.get("cs_lambda", fcfg.lam)),
            check_guarantees=bool(cfg.get("check_guarantees", False)),
            rip_trials=int(cfg.get("rip_sampling_trials", 200)),
        )
    if setup.trials < 1:
        raise ConfigError("trials must be >= 1")
    return setup


def _estimate(
    name: str, setup: TrackingSetup, A: MeasurementMatrix, y: np.ndarray,
    state: FilterState, truth: SupportSet, baseline: SelectorLP,
) -> tuple[np.ndarray, SupportSet | None]:
    """A method's estimate at one instant and the support it claims (none for
    the plain selector, which starts from ``baseline``'s previous basis)."""
    if name == METHOD_LSCS:
        return state.x_hat, state.support_estimate
    if name == METHOD_GENIE:
        return genie_ls(A, truth, y), truth
    return optimal_zeta(solve_dantzig(A, y, setup.cs_lambda, warm=baseline)), None


def _tracking_trial(setup: TrackingSetup, k: int) -> TrialRecord:
    """Run trial ``k``.  Its generator draws the matrix, the model seed, the
    noise of every instant and then the initialization, in that order."""
    rng = np.random.default_rng([setup.seed, k])
    n, m, t_end = setup.n, setup.model.m, setup.model.t_end
    A = MeasurementMatrix.from_columns(rng.standard_normal((n, m)))
    seq = generate(replace(setup.model, seed=int(rng.integers(2 ** 62))))
    ys = [seq.signal_at(t) @ A.entries.T + _draw_noise(setup.noise, n, rng) for t in range(t_end + 1)]
    if setup.init["kind"] == "simple_cs":
        n0 = setup.init["n0"]
        A0 = MeasurementMatrix.from_columns(rng.standard_normal((n0, m)))
        y0 = A0.entries @ seq.signal_at(0) + _draw_noise(setup.noise, n0, rng)
        x0_hat, n0_hat = simple_cs(A0, y0, setup.init["lam"], setup.init["alpha"])
    else:
        n0_hat = seq.support_at(0)
        x0_hat = ls_on_support(A, n0_hat, ys[0])

    rows = {name: [] for name in setup.methods}
    sig, misses, extras, diags = [], [], [], []
    state = FilterState(n0_hat, x0_hat, 0)
    baseline = SelectorLP(A)
    for t in range(t_end + 1):
        x_true = seq.signal_at(t)
        err_csres = None
        if t > 0:
            state, diag = lscs_step(state, A, ys[t], setup.fcfg, x_true=x_true)
            diags.append(diag)
            err_csres = diag.err_csres
        truth = seq.support_at(t)
        sig.append(float(x_true @ x_true))
        misses.append(len(truth - state.support_estimate))
        extras.append(len(state.support_estimate - truth))
        for name in setup.methods:
            x_hat, support = _estimate(name, setup, A, ys[t], state, truth, baseline)
            err = float(np.sum((x_true - x_hat) ** 2))
            row = MetricsRow(trial=k, t=t, method=name, nmse=_ratio(err, sig[t]), err_final=err)
            if support is not None:
                row.misses, row.extras = len(truth - support), len(support - truth)
                row.support_size = len(support)
            if name == METHOD_LSCS:
                row.err_csres = err_csres
            rows[name].append(row)

    return TrialRecord(
        rows=rows, sig=sig, misses=misses,
        delays=_epoch_delays(seq, misses, extras, setup.window),
        init_exact=n0_hat == seq.support_at(0),
        failed_steps=sum(diag.failed_stage is not None for diag in diags),
        tally=_guarantee_tally(setup, k, A, seq, diags) if setup.check_guarantees else PredicateTally(),
    )


def _guarantee_tally(
    setup: TrackingSetup, k: int, A: MeasurementMatrix, seq: SignalSequence, diags: list
) -> PredicateTally:
    """Runtime predicates on every step of one trial, with a sampled table
    that computes each constant when a predicate first reads it."""
    table = build_rip_table(
        A, [], [], mode="sampled", trials=setup.rip_trials, seed=setup.seed + 7919 * (k + 1)
    )
    ctx = BoundContext(
        rip=table, n=setup.n, m=A.m, lam=setup.fcfg.lam,
        norm_A_1=A.induced_one_norm,
        noise_linf_bound=_noise_linf_bound(setup.noise),
    )
    tally = PredicateTally()
    for t, diag in enumerate(diags, start=1):
        tally.merge(runtime_step_checks(diag, seq.signal_at(t), setup.fcfg, ctx))
    return tally


def _reduce_trials(setup: TrackingSetup, records: list[TrialRecord]) -> TrackingResult:
    """Fold trial records in trial order; each sum adds in (trial, t) order."""
    methods, t_end = setup.methods, setup.model.t_end
    err_sums = {name: 0.0 for name in methods}
    sig_sum_total = 0.0
    per_t_err = {name: np.zeros(t_end + 1) for name in methods}
    per_t_sig = np.zeros(t_end + 1)
    sum_misses = np.zeros(t_end + 1)
    delays: list[int | None] = []
    tally = PredicateTally()
    rows = {name: [] for name in methods}
    for rec in records:
        for sig_sq in rec.sig:
            sig_sum_total += sig_sq
        per_t_sig += rec.sig
        for name in methods:
            errs = [row.err_final for row in rec.rows[name]]
            for err in errs:
                err_sums[name] += err
            per_t_err[name] += errs
            rows[name].extend(rec.rows[name])
        sum_misses += np.asarray(rec.misses, dtype=float)
        delays.extend(rec.delays)
        tally.merge(rec.tally)

    for name in methods:
        for t in range(t_end + 1):
            rows[name].append(MetricsRow(
                trial=-1, t=t, method=name, nmse=float(_ratio(per_t_err[name][t], per_t_sig[t])),
                err_final=per_t_err[name][t],
            ))
        rows[name].append(MetricsRow(
            trial=-1, t=-1, method=name,
            nmse=_ratio(err_sums[name], sig_sum_total), err_final=err_sums[name],
        ))

    hit = sum(1 for d in delays if d is not None and d <= setup.window)
    return TrackingResult(
        nmse={name: float(_ratio(err_sums[name], sig_sum_total)) for name in methods},
        mean_misses=[float(v) for v in sum_misses / setup.trials],
        epoch_delays=delays,
        zero_hit_fraction=(hit / len(delays)) if delays else None,
        init_exact_fraction=sum(rec.init_exact for rec in records) / setup.trials,
        failed_steps=sum(rec.failed_steps for rec in records),
        tally=tally,
        rows=rows,
    )


def _run_tracking(setup: TrackingSetup, cfg: dict, out_dir: Path | None) -> TrackingResult:
    result = _reduce_trials(setup, [_tracking_trial(setup, k) for k in range(setup.trials)])
    if out_dir is not None:
        out_dir = Path(out_dir)
        for name in setup.methods:
            write_method_csv(out_dir / f"{name}.csv", result.rows[name])
        write_manifest(out_dir / "manifest.json", {
            "kind": "stability",
            "config": cfg,
            "version": __version__,
            "nmse": result.nmse,
            "zero_hit_fraction": result.zero_hit_fraction,
            "init_exact_fraction": result.init_exact_fraction,
            "failed_steps": result.failed_steps,
            "predicate_hypotheses": result.tally.hypotheses,
            "predicate_violations": result.tally.violations,
            "rip_provenance": "sampled (lower bounds); condition reports optimistic",
        })
    return result


def run_stability_experiment(cfg: dict, out_dir: Path | None = None) -> TrackingResult:
    """Tracking run on the ramped signal model with exact-support start."""
    return _run_tracking(_parse_tracking(cfg), cfg, out_dir)


def snr_summary(model_cfg: dict, noise: dict) -> dict:
    """Deterministic SNR figures of a model config.

    min: mean initial magnitude over all indices divided by the noise standard
    deviation; max: mean plateau magnitude ``min(big_m, d * a_i)`` divided by
    the same.
    """
    m = int(_req(model_cfg, "m"))
    rates = _rates_vector(_req(model_cfg, "rates"), m)
    d = int(_req(model_cfg, "d"))
    big_m = float(_req(model_cfg, "big_m"))
    std = _noise_std(noise)
    return {
        "min_snr": float(np.mean(rates) / std),
        "max_snr": float(np.mean(np.minimum(big_m, d * rates)) / std),
    }


def run_low_snr_experiments(cfg: dict, out_dir: Path | None = None) -> dict:
    """Slow-adds and fast-adds tracking runs with one-shot initialization.

    Every variant is parsed before the first one runs."""
    variants = _req(cfg, "variants", dict)
    parsed = {}
    for name in sorted(variants):
        with config_errors():
            vcfg = dict(variants[name])
        vcfg.setdefault("seed", cfg.get("seed", 0))
        vcfg.setdefault("trials", cfg.get("trials", 100))
        vcfg.setdefault("init", {"kind": "simple_cs", "n0": 150})
        parsed[name] = vcfg, _parse_tracking(vcfg)
    results = {}
    for name, (vcfg, setup) in parsed.items():
        sub = None if out_dir is None else Path(out_dir) / name
        res = _run_tracking(setup, vcfg, sub)
        res.snr = snr_summary(vcfg["model"], vcfg["noise"])
        results[name] = res
        if sub is not None:
            write_manifest(sub / "snr.json", res.snr)
    return results


# ---------------------------------------------------------------------------
# bound validation sweep
# ---------------------------------------------------------------------------


def run_bound_validation(cfg: dict, out_dir: Path | None = None) -> dict:
    """Assert bounds dominate actual errors on instances whose hypotheses hold.

    Uses exhaustively computed constants only, so every check is a hard
    soundness assertion (slack 1e-9).  Instances whose preconditions do not
    verify are counted and skipped, never asserted.
    """
    with config_errors():
        m = int(_req(cfg, "m"))
        n = int(_req(cfg, "n"))
        support_size = int(_req(cfg, "support_size"))
        delta_size = int(_req(cfg, "delta_size"))
        delta_e_size = int(_req(cfg, "delta_e_size"))
        lam = float(_req(cfg, "lam"))
        alpha = float(cfg.get("alpha", lam))
        num_matrices = int(cfg.get("num_matrices", 5))
        instances = int(cfg.get("instances_per_matrix", 25))
        if num_matrices < 1 or instances < 1:
            raise ConfigError("num_matrices and instances_per_matrix must be >= 1")
        seed = int(_req(cfg, "seed"))
        budget = int(cfg.get("budget", DEFAULT_SUBSET_BUDGET))
        kind = cfg.get("matrix_kind", "perturbed_orthonormal")
        noise_scale = float(cfg.get("matrix_noise_scale", 0.2))
        magnitudes = (float(cfg.get("magnitude_low", 0.5)), float(cfg.get("magnitude_high", 2.0)))
        max_additions = cfg.get("max_additions_per_step", delta_size + 1)
        fcfg = FilterConfig(
            lam=lam, alpha=alpha, alpha_del=alpha,
            max_additions_per_step=None if max_additions is None else int(max_additions),
        )
        matrices = [gen_matrix(kind, n, m, seed + 1000 * mi, noise_scale) for mi in range(num_matrices)]

    size_T = support_size - delta_size + delta_e_size
    checks = ["scan_bound", "single_scale_bound", "compressibility_bound", "detected_ls_bound"]
    verified = {c: 0 for c in checks}
    skipped = {c: 0 for c in checks}
    violations: list[dict] = []

    for mi, A in enumerate(matrices):
        table = build_rip_table(A, [], [], mode="exact", budget=budget)
        w_max = lam / A.induced_one_norm
        ctx = BoundContext(
            rip=table, n=n, m=m, lam=lam, norm_A_1=A.induced_one_norm,
            noise_linf_bound=w_max,
        )

        for k in range(instances):
            rng = np.random.default_rng([seed, mi, k])
            x, known, delta = _draw_instance(
                rng, m, support_size, delta_size, delta_e_size, magnitudes
            )
            w = rng.uniform(-w_max, w_max, n)
            y = A.entries @ x + w

            x_init, y_res = initial_ls_residual(A, known, y)
            x_csres = optimal_zeta(solve_dantzig(A, y_res, lam)) + x_init
            err_csres = float(np.sum((x - x_csres) ** 2))
            x_delta = x[delta]
            w_sq = float(w @ w)

            def record(name: str, res, actual: float, extra: dict | None = None):
                if not res.applicable:
                    skipped[name] += 1
                    return
                if res.optimistic:
                    skipped[name] += 1
                    return
                verified[name] += 1
                if actual > res.value + 1e-9:
                    violations.append({
                        "check": name, "matrix": mi, "instance": k,
                        "bound": res.value, "actual": actual, **(extra or {}),
                    })

            record("scan_bound", residual_recovery_bound(ctx, size_T, x_delta, w_sq), err_csres)
            record(
                "single_scale_bound",
                simplified_residual_bound(ctx, size_T, delta_size, float(x_delta @ x_delta)),
                err_csres,
            )

            pinv_T = np.linalg.pinv(A.columns(known))
            gain = np.abs(pinv_T @ A.entries[:, delta]).sum(axis=0).max() if delta_size else 0.0
            w_l1 = float(np.abs(pinv_T @ w).sum())
            xd_l1 = float(np.abs(x_delta).sum())
            b = gain + max(1.01 * w_l1 / xd_l1 if xd_l1 else 0.0, 1e-9)
            record(
                "compressibility_bound",
                compressibility_residual_bound(ctx, size_T, delta_size, float(x_delta @ x_delta), b),
                err_csres,
                {"b": b},
            )

            t_det = detect(x_csres, known, fcfg)
            try:
                x_det = ls_on_support(A, t_det, y)
            except LsSolveError:
                skipped["detected_ls_bound"] += 1
                continue
            det_misses = support_of(x) - t_det
            miss_idx = det_misses.to_array()
            miss_sq = float(np.sum(x[miss_idx] ** 2))
            idx = t_det.to_array()
            actual_det = float(np.sum((x[idx] - x_det[idx]) ** 2))
            record(
                "detected_ls_bound",
                detected_support_ls_error_bound(ctx, len(t_det), miss_sq, len(det_misses)),
                actual_det,
            )

    report = {
        "kind": "bound_validation",
        "config": cfg,
        "version": __version__,
        "verified": verified,
        "skipped": skipped,
        "violations": violations,
        "rip_provenance": "exact (exhaustive enumeration)",
    }
    if out_dir is not None:
        write_manifest(Path(out_dir) / "bound_validation.json", report)
    return report


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_experiment(cfg: dict, out_dir: Path | None = None):
    kind = _req(cfg, "kind")
    if kind == "static_table":
        return run_static_experiment(cfg, out_dir)
    if kind == "stability":
        return run_stability_experiment(cfg, out_dir)
    if kind == "low_snr":
        return run_low_snr_experiments(cfg, out_dir)
    if kind == "bound_validation":
        return run_bound_validation(cfg, out_dir)
    raise ConfigError(f"unknown experiment kind {kind!r}")

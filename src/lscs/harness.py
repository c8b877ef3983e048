"""Config-driven Monte Carlo experiments with deterministic CSV/JSON output.

Experiment kinds:

* ``static_table``   one-shot reconstruction grid over (n, sigma) cells,
  comparing the residual-based estimate against plain selector solves,
* ``stability``      tracking run on the ramped signal model,
* ``low_snr``        tracking runs at low SNR (slow and fast addition
  variants) initialized by a one-shot solve on a taller matrix,
* ``bound_validation``  seeded soundness sweep of the error bounds against
  actual errors at exhaustively-computed isometry constants.

Each runner reads its whole config through one :class:`ConfigReader` before
the first random draw, so a bad config raises :class:`ConfigError` before any
work; anything raised later is a runtime failure.

Every kind then runs the same way: a pure unit per key, its records folded
in key order.  The keys are ``(cell, trial)`` for ``static_table``, the
trial for the tracking kinds and ``(matrix, instance)`` for
``bound_validation``.  A unit draws from its own generator, seeded by the
experiment seed and its key, and returns only what reaches the outputs.  A
Monte Carlo unit returns a :class:`TrialRecord`: each method's rows and the
signal energies, plus epoch delays and the predicate tally when tracking.
:func:`_fold` turns the records into rows, adding every sum in the same
(unit, t) order as a single loop would.  A bound-validation unit returns one
outcome per check, and the runner counts them.

A static or tracking unit is a module-level function of a frozen, picklable
setup and its key.  Bound validation's stays a closure: a matrix's instances
share one lazily filled exact RIP table, so they run in order in one process.

Aggregate NMSE is the ratio of summed squared errors to summed signal energy
over all trials and steps; per-(trial, t) rows are also emitted so a
per-instant convention can be recovered.  Every random draw derives from the
experiment seed, so re-running a config reproduces output files byte for
byte.
"""

from __future__ import annotations

import json
import math
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
from .config import ConfigError, ConfigReader
from .core import SupportSet, support_of
from .filter import (
    FilterConfig,
    FilterState,
    cs_residual_estimate,
    genie_ls,
    initial_ls_residual,
    lscs_step,
    simple_cs,
)
from .measurement import DEFAULT_SUBSET_BUDGET, MeasurementMatrix, build_rip_table, gen_matrix
from .sigmodel import SignalModelParams, SignalSequence, generate
from .solver import SelectorLP, ls_on_support, solve_dantzig

CSV_HEADER = "trial,t,method,nmse,misses,extras,support_size,err_csres,err_final"

METHOD_LSCS = "lscs"
METHOD_GENIE = "genie_ls"
METHOD_CS = "simple_cs"
METHODS = (METHOD_LSCS, METHOD_GENIE, METHOD_CS)


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


def _sq_err(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    return float(np.sum((x_true - x_hat) ** 2))


def _scored_row(
    trial: int, t: int, method: str, x_true: np.ndarray, x_hat: np.ndarray, sig_sq: float,
    truth: SupportSet | None = None, support: SupportSet | None = None,
    err_csres: float | None = None,
) -> MetricsRow:
    """A method's row: its squared error against ``x_true`` and NMSE, plus the
    misses, extras and size of ``support`` against ``truth`` when it claims one."""
    err = _sq_err(x_true, x_hat)
    row = MetricsRow(trial=trial, t=t, method=method, nmse=_ratio(err, sig_sq),
                     err_csres=err_csres, err_final=err)
    if support is not None:
        row.misses, row.extras = len(truth - support), len(support - truth)
        row.support_size = len(support)
    return row


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


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


@dataclass(frozen=True)
class TrialRecord:
    """What one Monte Carlo unit contributes to the outputs.  Lists run over
    the unit's instants; each row's ``err_final`` is that method's squared
    error.  The fields after ``sig`` are filled by tracking trials only."""

    rows: dict[str, list[MetricsRow]]
    sig: list[float]                   # signal energy
    delays: list[int | None] = field(default_factory=list)
    init_exact: bool = False
    failed_steps: int = 0
    tally: PredicateTally = field(default_factory=PredicateTally)


def _fold(
    methods: list[str] | tuple[str, ...], records: list[TrialRecord], t_count: int
) -> dict[str, tuple[list[MetricsRow], list[MetricsRow], MetricsRow]]:
    """Per method: the units' rows in unit order, one aggregate row per t and
    the overall aggregate row.  Every sum adds in (unit, t) order."""
    sig_t, sig_sum = [0.0] * t_count, 0.0
    for rec in records:
        for t, sig_sq in enumerate(rec.sig):
            sig_t[t] += sig_sq
            sig_sum += sig_sq
    folded = {}
    for name in methods:
        rows, err_t, err_sum = [], [0.0] * t_count, 0.0
        for rec in records:
            rows.extend(rec.rows[name])
            for row in rec.rows[name]:
                err_t[row.t] += row.err_final
                err_sum += row.err_final
        per_t = [MetricsRow(trial=-1, t=t, method=name, nmse=_ratio(err_t[t], sig_t[t]), err_final=err_t[t])
                 for t in range(t_count)]
        overall = MetricsRow(trial=-1, t=-1, method=name, nmse=_ratio(err_sum, sig_sum), err_final=err_sum)
        folded[name] = rows, per_t, overall
    return folded


# ---------------------------------------------------------------------------
# config parsing helpers
# ---------------------------------------------------------------------------


def _rates_vector(r: ConfigReader, m: int) -> np.ndarray:
    """Rates given either as an explicit list, a constant, or value classes
    split evenly across indices."""
    spec = r.value("rates")
    if isinstance(spec, dict):
        classes = r.obj("rates").floats("classes")
        return np.repeat(classes, np.diff(np.linspace(0, m, len(classes) + 1).astype(int)))
    return np.asarray(r.floats("rates")) if isinstance(spec, list) else np.full(m, r.float("rates"))


def parse_model(r: ConfigReader, seed: int) -> SignalModelParams:
    """A ``model`` object; :class:`SignalModelParams` checks how its keys relate."""
    m = r.int("m", low=1)
    return SignalModelParams(
        m=m, s0=r.int("s0"), sa=r.int("sa"), d=r.int("d"), r=r.int("r"), big_m=r.float("big_m"),
        rates=_rates_vector(r, m), t_end=r.int("t_end"), seed=seed,
    )


@dataclass(frozen=True)
class Noise:
    """i.i.d. zero-mean noise: its standard deviation and its l-inf bound,
    infinite for Gaussian noise and ``c`` for noise uniform on [-c, c]."""

    std: float
    linf_bound: float

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if math.isinf(self.linf_bound):
            return self.std * rng.standard_normal(size)
        return rng.uniform(-self.linf_bound, self.linf_bound, size)


def parse_noise(r: ConfigReader) -> Noise:
    """Gaussian noise of standard deviation ``sigma``, or uniform on [-c, c]."""
    if r.choice("kind", ("gaussian", "uniform")) == "gaussian":
        return Noise(r.float("sigma"), math.inf)
    c = r.float("c")
    return Noise(c / math.sqrt(3.0), c)


def _sizes(r: ConfigReader, m: int) -> tuple[int, int, int]:
    """``support_size``, ``delta_size`` and ``delta_e_size``, in the ranges
    :func:`_draw_instance` can draw: ``delta_size <= support_size <= m`` and
    ``delta_e_size <= m - support_size``."""
    support_size = r.int("support_size", high=m)
    return support_size, r.int("delta_size", high=support_size), r.int("delta_e_size", high=m - support_size)


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
    on = np.zeros(m, dtype=bool)
    on[support] = True
    delta_e = rng.choice(np.flatnonzero(~on), size=delta_e_size, replace=False)
    on[delta] = False
    known = SupportSet(np.concatenate([np.flatnonzero(on), delta_e]), m)
    return x, known, np.sort(delta)


# ---------------------------------------------------------------------------
# static (single time instant) experiment
# ---------------------------------------------------------------------------


def _ds_method_name(factor: float) -> str:
    return "ds_%gsigma" % factor


@dataclass(frozen=True)
class StaticSetup:
    """What a ``static_table`` trial reads of its config."""

    m: int
    sizes: tuple[int, int, int]            # support_size, delta_size, delta_e_size
    cells: tuple[tuple[int, float], ...]   # (n, sigma)
    seed: int
    csres_factor: float
    ds_factors: tuple[float, ...]


def _static_trial(setup: StaticSetup, key: tuple[int, int]) -> TrialRecord:
    """Trial ``k`` of cell ``ci``, where ``key = (ci, k)``."""
    ci, k = key
    n, sigma = setup.cells[ci]
    rng = np.random.default_rng([setup.seed, ci, k])
    A = MeasurementMatrix.from_columns(rng.standard_normal((n, setup.m)))
    x, known, _ = _draw_instance(rng, setup.m, *setup.sizes)
    y = A.entries @ x + sigma * rng.standard_normal(n)
    sig_sq = float(x @ x)
    x_init, y_res = initial_ls_residual(A, known, y)
    x_csres = cs_residual_estimate(A, x_init, y_res, setup.csres_factor * sigma)
    rows = {"cs_residual": [_scored_row(k, 0, "cs_residual", x, x_csres, sig_sq,
                                        err_csres=_sq_err(x, x_csres))]}
    # one handle answers the draw's lambda scales one after another
    lp = SelectorLP(A)
    for factor in setup.ds_factors:
        name = _ds_method_name(factor)
        zeta = solve_dantzig(A, y, factor * sigma, lp=lp).zeta_hat
        rows[name] = [_scored_row(k, 0, name, x, zeta, sig_sq)]
    return TrialRecord(rows, [sig_sq])


def run_static_experiment(cfg: dict, out_dir: Path | None = None) -> dict:
    """One-shot reconstruction over (n, sigma) cells.

    Per trial: a fresh column-normalized Gaussian matrix, a support of
    ``support_size`` +-1 spikes, a known part missing ``delta_size`` true
    indices and carrying ``delta_e_size`` spurious ones, Gaussian noise.
    The residual-based estimate runs at ``csres_lambda_factor * sigma``; plain
    selector solves run at each of ``ds_lambda_factors * sigma``.
    """
    with ConfigReader(cfg) as r:
        r.choice("kind", ("static_table",), default="static_table")
        m = r.int("m", low=1)
        sizes = _sizes(r, m)
        items = r.obj("cells", kind=list)
        cells = tuple((cell.int("n", low=1), cell.float("sigma")) for cell in map(items.obj, items.doc))
        trials = r.int("trials", low=1)
        setup = StaticSetup(m, sizes, cells, r.int("seed"), r.float("csres_lambda_factor", default=4.0),
                            tuple(r.floats("ds_lambda_factors", default=[12.0, 4.0, 0.4])))
        methods = ["cs_residual"] + [_ds_method_name(f) for f in setup.ds_factors]
        cell_dirs = ["n%d_sigma%s" % (n, _fmt(sigma)) for n, sigma in cells]
        # a repeated factor or cell would write two results to one file
        for key, names in (("ds_lambda_factors", methods), ("cells", cell_dirs)):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ConfigError(f"{key} repeats {repeated}")

    summary, csvs = [], {}
    for ci, (n, sigma) in enumerate(cells):
        folded = _fold(methods, [_static_trial(setup, (ci, k)) for k in range(trials)], 1)
        summary.append({"n": n, "sigma": sigma, "nmse": {name: folded[name][2].nmse for name in methods}})
        for name, (rows, _, overall) in folded.items():
            csvs[f"{cell_dirs[ci]}/{name}.csv"] = rows + [overall]

    result = {
        "kind": "static_table",
        "cells": summary,
        "config": cfg,
        "version": __version__,
    }
    if out_dir is not None:
        for path, rows in csvs.items():
            write_method_csv(Path(out_dir) / path, rows)
        write_manifest(Path(out_dir) / "manifest.json", result)
    return result


# ---------------------------------------------------------------------------
# tracking experiments (stability / low SNR)
# ---------------------------------------------------------------------------


@dataclass
class TrackingResult:
    nmse: dict
    epoch_delays: list[int | None]       # flattened over (trial, epoch)
    zero_hit_fraction: float | None
    init_exact_fraction: float | None
    failed_steps: int
    tally: PredicateTally
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
class OneShotInit:
    """Start from a :func:`simple_cs` solve on a taller n0 x m matrix."""

    n0: int
    lam: float
    alpha: float


@dataclass(frozen=True)
class TrackingSetup:
    """A tracking config, parsed once before trial 0.

    ``model`` carries seed 0; each trial replaces it with a seed drawn from
    the trial's generator.  ``init`` is ``None`` to start from the true
    support.
    """

    n: int
    model: SignalModelParams
    noise: Noise
    fcfg: FilterConfig
    init: OneShotInit | None
    window: int
    methods: tuple[str, ...]
    trials: int
    seed: int
    cs_lambda: float
    check_guarantees: bool
    rip_trials: int


def _parse_tracking(cfg: dict) -> TrackingSetup:
    """A ``stability`` config or a ``low_snr`` variant; either may carry
    ``"kind": "stability"``."""
    with ConfigReader(cfg) as r:
        r.choice("kind", ("stability",), default="stability")
        f = r.obj("filter")
        fcfg = FilterConfig(f.float("lam"), f.float("alpha"), f.float("alpha_del"),
                            f.int("max_additions_per_step", default=None))
        init = r.obj("init", default={"kind": "true_support"})
        one_shot = init.choice("kind", ("true_support", "simple_cs")) == "simple_cs"
        methods = r.obj("methods", list(METHODS), list)
        setup = TrackingSetup(
            n=r.int("n", low=1),
            model=parse_model(r.obj("model"), seed=0),
            noise=parse_noise(r.obj("noise")),
            fcfg=fcfg,
            init=OneShotInit(init.int("n0", low=1), init.float("lam", default=fcfg.lam),
                             init.float("alpha", default=fcfg.alpha)) if one_shot else None,
            window=r.int("zero_hit_window", default=4),
            methods=tuple(dict.fromkeys(methods.choice(i, METHODS) for i in methods.doc)),
            trials=r.int("trials", low=1),
            seed=r.int("seed"),
            cs_lambda=r.float("cs_lambda", default=fcfg.lam),
            check_guarantees=r.bool("check_guarantees", default=False),
            rip_trials=r.int("rip_sampling_trials", low=1, default=200),
        )
    return setup


def _estimate(
    name: str, setup: TrackingSetup, A: MeasurementMatrix, y: np.ndarray,
    state: FilterState, truth: SupportSet, baseline: SelectorLP,
) -> tuple[np.ndarray, SupportSet | None]:
    """A method's estimate at one instant and the support it claims (none for
    the plain selector, which pivots from ``baseline``'s previous answer)."""
    if name == METHOD_LSCS:
        return state.x_hat, state.support_estimate
    if name == METHOD_GENIE:
        return genie_ls(A, truth, y), truth
    return solve_dantzig(A, y, setup.cs_lambda, lp=baseline).zeta_hat, None


def _tracking_trial(setup: TrackingSetup, k: int) -> TrialRecord:
    """Run trial ``k``.  Its generator draws the matrix, the model seed, the
    noise of every instant and then the initialization, in that order."""
    rng = np.random.default_rng([setup.seed, k])
    n, m, t_end = setup.n, setup.model.m, setup.model.t_end
    A = MeasurementMatrix.from_columns(rng.standard_normal((n, m)))
    seq = generate(replace(setup.model, seed=int(rng.integers(2 ** 62))))
    ys = [seq.signal_at(t) @ A.entries.T + setup.noise.draw(n, rng) for t in range(t_end + 1)]
    if setup.init is not None:
        n0 = setup.init.n0
        A0 = MeasurementMatrix.from_columns(rng.standard_normal((n0, m)))
        y0 = A0.entries @ seq.signal_at(0) + setup.noise.draw(n0, rng)
        x0_hat, n0_hat = simple_cs(A0, y0, setup.init.lam, setup.init.alpha)
    else:
        n0_hat = seq.support_at(0)
        x0_hat = ls_on_support(A, n0_hat, ys[0])

    rows = {name: [] for name in setup.methods}
    sig, misses, extras, diags = [], [], [], []
    state = FilterState(n0_hat, x0_hat)
    baseline = SelectorLP(A)
    for t in range(t_end + 1):
        x_true = seq.signal_at(t)
        err_csres = None
        if t > 0:
            state, diag = lscs_step(state, A, ys[t], setup.fcfg)
            diags.append(diag)
            if diag.x_csres is not None:
                err_csres = _sq_err(x_true, diag.x_csres)
        truth = seq.support_at(t)
        sig.append(float(x_true @ x_true))
        misses.append(len(truth - state.support_estimate))
        extras.append(len(state.support_estimate - truth))
        for name in setup.methods:
            x_hat, support = _estimate(name, setup, A, ys[t], state, truth, baseline)
            rows[name].append(_scored_row(k, t, name, x_true, x_hat, sig[t], truth, support,
                                          err_csres if name == METHOD_LSCS else None))

    return TrialRecord(
        rows=rows, sig=sig,
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
    table = build_rip_table(A, mode="sampled", trials=setup.rip_trials, seed=setup.seed + 7919 * (k + 1))
    ctx = BoundContext(
        rip=table, n=setup.n, m=A.m, lam=setup.fcfg.lam,
        norm_A_1=A.induced_one_norm,
        noise_linf_bound=setup.noise.linf_bound,
    )
    tally = PredicateTally()
    for t, diag in enumerate(diags, start=1):
        tally.merge(runtime_step_checks(diag, seq.signal_at(t), setup.fcfg, ctx))
    return tally


def _run_tracking(setup: TrackingSetup, cfg: dict, out_dir: Path | None) -> TrackingResult:
    records = [_tracking_trial(setup, k) for k in range(setup.trials)]
    folded = _fold(setup.methods, records, setup.model.t_end + 1)
    delays = [d for rec in records for d in rec.delays]
    tally = PredicateTally()
    for rec in records:
        tally.merge(rec.tally)
    hit = sum(1 for d in delays if d is not None and d <= setup.window)
    result = TrackingResult(
        nmse={name: overall.nmse for name, (_, _, overall) in folded.items()},
        epoch_delays=delays,
        zero_hit_fraction=(hit / len(delays)) if delays else None,
        init_exact_fraction=sum(rec.init_exact for rec in records) / setup.trials,
        failed_steps=sum(rec.failed_steps for rec in records),
        tally=tally,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        for name, (rows, per_t, overall) in folded.items():
            write_method_csv(out_dir / f"{name}.csv", rows + per_t + [overall])
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


def snr_summary(model: SignalModelParams, noise: Noise) -> dict:
    """Deterministic SNR figures of a model.

    min: mean initial magnitude over all indices divided by the noise standard
    deviation; max: mean plateau magnitude (the magnitude after ``d`` steps of
    growth) divided by the same.
    """
    return {
        "min_snr": float(np.mean(model.rates) / noise.std),
        "max_snr": float(np.mean([model.magnitude(model.d, a) for a in model.rates]) / noise.std),
    }


def run_low_snr_experiments(cfg: dict, out_dir: Path | None = None) -> dict:
    """Slow-adds and fast-adds tracking runs with one-shot initialization.

    A variant inherits the ``seed``, the ``trials`` and a one-shot ``init``
    that it does not set; its manifest echoes it with them.  Every variant is
    parsed before the first one runs."""
    with ConfigReader(cfg) as r:
        r.choice("kind", ("low_snr",), default="low_snr")
        inherited = {
            "seed": r.int("seed", default=0), "trials": r.int("trials", low=1, default=100),
            "init": {"kind": "simple_cs", "n0": 150},
        }
        variants = r.obj("variants")
        parsed = {}
        for name in sorted(variants.doc):
            vcfg = {**inherited, **variants.value(name, kind=dict)}
            parsed[name] = vcfg, _parse_tracking(vcfg)
            if parsed[name][1].noise.std == 0:
                raise ConfigError(f"variants.{name}.noise is zero, so its SNR is infinite")
    results = {}
    for name, (vcfg, setup) in parsed.items():
        sub = None if out_dir is None else Path(out_dir) / name
        res = _run_tracking(setup, vcfg, sub)
        res.snr = snr_summary(setup.model, setup.noise)
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
    with ConfigReader(cfg) as r:
        r.choice("kind", ("bound_validation",), default="bound_validation")
        m, n = r.int("m", low=1), r.int("n", low=1)
        support_size, delta_size, delta_e_size = _sizes(r, m)
        lam = r.float("lam")
        alpha = r.float("alpha", default=lam)
        num_matrices = r.int("num_matrices", low=1, default=5)
        instances = r.int("instances_per_matrix", low=1, default=25)
        budget = r.int("budget", low=1, default=DEFAULT_SUBSET_BUDGET)
        seed = r.int("seed")
        kind = r.choice("matrix_kind", ("gaussian", "perturbed_orthonormal"), default="perturbed_orthonormal")
        noise_scale = r.float("matrix_noise_scale", default=0.2)
        low = r.float("magnitude_low", default=0.5)
        magnitudes = (low, r.float("magnitude_high", low=low, default=2.0))
        fcfg = FilterConfig(
            lam=lam, alpha=alpha, alpha_del=alpha,
            max_additions_per_step=r.int("max_additions_per_step", default=delta_size + 1),
        )
        matrices = [gen_matrix(kind, n, m, seed + 1000 * mi, noise_scale) for mi in range(num_matrices)]

    size_T = support_size - delta_size + delta_e_size

    def instance(mi: int, k: int, A: MeasurementMatrix, ctx: BoundContext) -> list[tuple]:
        """``(check, bound, actual error, extra fields)`` for every check on
        instance ``k`` of matrix ``mi``; the bound is None when the check has
        nothing to bound."""
        rng = np.random.default_rng([seed, mi, k])
        x, known, delta = _draw_instance(rng, m, support_size, delta_size, delta_e_size, magnitudes)
        w = rng.uniform(-ctx.noise_linf_bound, ctx.noise_linf_bound, n)
        _, diag = lscs_step(FilterState(known, np.zeros(m)), A, A.entries @ x + w, fcfg)
        if diag.x_csres is None:
            raise RuntimeError(f"{diag.failed_stage} failed: {diag.failure}")
        err_csres = _sq_err(x, diag.x_csres)
        x_delta = x[delta]
        xd_sq = float(x_delta @ x_delta)
        outcomes = [
            ("scan_bound", residual_recovery_bound(ctx, size_T, x_delta, float(w @ w)), err_csres, {}),
            ("single_scale_bound", simplified_residual_bound(ctx, size_T, delta_size, xd_sq), err_csres, {}),
        ]
        pinv_T = np.linalg.pinv(A.columns(known))
        gain = np.abs(pinv_T @ A.entries[:, delta]).sum(axis=0).max() if delta_size else 0.0
        w_l1 = float(np.abs(pinv_T @ w).sum())
        xd_l1 = float(np.abs(x_delta).sum())
        b = gain + max(1.01 * w_l1 / xd_l1 if xd_l1 else 0.0, 1e-9)
        outcomes.append((
            "compressibility_bound",
            compressibility_residual_bound(ctx, size_T, delta_size, xd_sq, b),
            err_csres, {"b": b},
        ))

        if diag.x_det is None:
            return outcomes + [("detected_ls_bound", None, 0.0, {})]
        det_misses = support_of(x) - diag.T_det
        miss_sq = float(np.sum(x[det_misses.to_array()] ** 2))
        idx = diag.T_det.to_array()
        return outcomes + [(
            "detected_ls_bound",
            detected_support_ls_error_bound(ctx, len(diag.T_det), miss_sq, len(det_misses)),
            _sq_err(x[idx], diag.x_det[idx]), {},
        )]

    checks = ("scan_bound", "single_scale_bound", "compressibility_bound", "detected_ls_bound")
    verified = dict.fromkeys(checks, 0)
    skipped = dict.fromkeys(checks, 0)
    violations: list[dict] = []
    for mi, A in enumerate(matrices):
        # one exact table per matrix, shared by its instances
        ctx = BoundContext(
            rip=build_rip_table(A, mode="exact", budget=budget), n=n, m=m, lam=lam,
            norm_A_1=A.induced_one_norm, noise_linf_bound=lam / A.induced_one_norm,
        )
        for k in range(instances):
            for check, res, actual, extra in instance(mi, k, A, ctx):
                if res is None or not res.applicable or res.optimistic:
                    skipped[check] += 1
                    continue
                verified[check] += 1
                if actual > res.value + 1e-9:
                    violations.append({
                        "check": check, "matrix": mi, "instance": k,
                        "bound": res.value, "actual": actual, **extra,
                    })

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


#: kind -> (runner, result -> (summary, whether a soundness assertion failed))
_EXPERIMENTS = {
    "static_table": (run_static_experiment, lambda res: (res["cells"], False)),
    "stability": (
        run_stability_experiment,
        lambda res: ({"nmse": res.nmse, "zero_hit_fraction": res.zero_hit_fraction}, False),
    ),
    "low_snr": (
        run_low_snr_experiments,
        lambda results: ({name: {"nmse": res.nmse, "snr": res.snr} for name, res in results.items()}, False),
    ),
    "bound_validation": (
        run_bound_validation,
        lambda rep: ({"verified": rep["verified"], "violations": len(rep["violations"])}, bool(rep["violations"])),
    ),
}


def run_experiment(cfg: dict, out_dir: Path | None = None) -> tuple[object, bool]:
    """Run the experiment that ``cfg["kind"]`` names; return its summary and
    whether a soundness assertion failed."""
    run, summary = _EXPERIMENTS[ConfigReader(cfg).choice("kind", tuple(_EXPERIMENTS))]
    return summary(run(cfg, out_dir))

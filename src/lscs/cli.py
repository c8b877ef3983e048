"""Command line front-end.

Commands:
  lscs run <config.json> [--out DIR] [--seed N] [--trials N]
  lscs rip-table <config.json> --out FILE
  lscs check-stability <config.json> [--out FILE]
  lscs version

Flag overrides beat config-file values, in every ``low_snr`` variant too.
Each command loads and parses its whole config before it starts work.  Exit
codes: 0 success, 1 the config could not be loaded or parsed, 2 any failure
after parsing (a RIP table file lacking an entry that a check reads
included), 3 soundness assertion failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import BoundContext, find_min_d0, check_stability_conditions
from .harness import ConfigError, config_errors, parse_model, run_experiment
from .measurement import DEFAULT_SUBSET_BUDGET, MeasurementMatrix, RipTable, build_rip_table, gen_matrix

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ASSERTION = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file does not hold a JSON object: {path}")
    return doc


def _matrix_from_spec(spec: dict) -> MeasurementMatrix:
    return gen_matrix(
        spec.get("kind", "gaussian"), int(spec["n"]), int(spec["m"]),
        int(spec.get("seed", 0)), float(spec.get("noise_scale", 0.2)),
    )


def _table_options(spec: dict, default_mode: str) -> dict:
    """Keyword arguments of ``build_rip_table`` besides the matrix."""
    mode = spec.get("mode", default_mode)
    if mode not in ("exact", "sampled"):
        raise ConfigError(f"unknown mode {mode!r}")
    options = {
        "mode": mode,
        "budget": int(spec.get("budget", DEFAULT_SUBSET_BUDGET)),
        "trials": int(spec.get("trials", 2000)),
        "seed": int(spec.get("seed", 0)),
    }
    if options["budget"] < 1 or options["trials"] < 1:
        raise ConfigError("budget and trials must be >= 1")
    if options["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    return options


def _cmd_run(args) -> int:
    cfg = _load_json(args.config)
    overrides = {"seed": args.seed, "trials": args.trials}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    cfg.update(overrides)
    if cfg.get("kind") == "low_snr" and isinstance(cfg.get("variants"), dict):
        for variant in cfg["variants"].values():
            if isinstance(variant, dict):
                variant.update(overrides)
    out_dir = Path(args.out) if args.out else None
    result = run_experiment(cfg, out_dir)
    if cfg.get("kind") == "bound_validation":
        n_viol = len(result["violations"])
        print(json.dumps({"verified": result["verified"], "violations": n_viol}, sort_keys=True))
        return EXIT_ASSERTION if n_viol else EXIT_OK
    if cfg.get("kind") == "static_table":
        print(json.dumps(result["cells"], sort_keys=True))
    elif cfg.get("kind") == "stability":
        print(json.dumps({
            "nmse": result.nmse,
            "zero_hit_fraction": result.zero_hit_fraction,
        }, sort_keys=True))
    elif cfg.get("kind") == "low_snr":
        print(json.dumps({
            name: {"nmse": res.nmse, "snr": res.snr} for name, res in result.items()
        }, sort_keys=True))
    return EXIT_OK


def _cmd_rip_table(args) -> int:
    cfg = _load_json(args.config)
    with config_errors():
        A = _matrix_from_spec(cfg["matrix"])
        delta_sizes = [int(s) for s in cfg.get("delta", [])]
        theta_pairs = [(int(s), int(sp)) for s, sp in cfg.get("theta", [])]
        options = _table_options(cfg, "exact")
        if any(not 0 <= s <= A.m for s in delta_sizes):
            raise ConfigError(f"each delta size S needs 0 <= S <= m = {A.m}")
        if any(min(pair) < 0 or sum(pair) > A.m for pair in theta_pairs):
            raise ConfigError(f"each theta pair (S, S') needs S, S' >= 0 and S + S' <= m = {A.m}")
    table = build_rip_table(A, **options)
    for s in delta_sizes:
        table.delta(s)
    for pair in theta_pairs:
        table.theta(*pair)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(table.to_json() + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_check_stability(args) -> int:
    cfg = _load_json(args.config)
    with config_errors():
        model = parse_model(cfg["model"], seed=0)
        f = int(cfg.get("f", 0))
        if f < 0:
            raise ConfigError("f must be nonnegative")
        d0 = cfg.get("d0", "scan")
        if d0 != "scan":
            d0 = int(d0)
            if not 1 <= d0 < model.d:
                raise ConfigError("need 1 <= d0 < d")
        alpha = float(cfg["alpha"])
        alpha_del = cfg.get("alpha_del")
        alpha_del = None if alpha_del is None else float(alpha_del)
        ctx_cfg = cfg["context"]
        ctx_args = {
            "n": int(ctx_cfg["n"]),
            "lam": float(ctx_cfg["lam"]),
            "norm_A_1": float(ctx_cfg["norm_A_1"]),
            "noise_linf_bound": float(ctx_cfg["noise_linf_bound"]),
        }
        if ctx_args["n"] < 1 or not ctx_args["norm_A_1"] > 0:
            raise ConfigError("context needs n >= 1 and norm_A_1 > 0")
        if min(ctx_args["lam"], ctx_args["noise_linf_bound"], alpha, alpha_del or 0.0) < 0:
            raise ConfigError("lam, noise_linf_bound, alpha and alpha_del must be nonnegative")
        rip_spec = cfg["rip_table"]
        if isinstance(rip_spec, str):
            table = RipTable.from_json(Path(rip_spec).read_text())
        else:
            A = _matrix_from_spec(rip_spec["matrix"])
            if A.m != model.m:
                raise ConfigError(f"the rip_table matrix has m = {A.m}, the model m = {model.m}")
            if ctx_args["n"] != A.n:
                raise ConfigError(f"the rip_table matrix has n = {A.n}, the context n = {ctx_args['n']}")
            if abs(ctx_args["norm_A_1"] - A.induced_one_norm) > 1e-3 * A.induced_one_norm:
                raise ConfigError(
                    f"the rip_table matrix has ||A||_1 = {A.induced_one_norm:.6g}, "
                    f"the context norm_A_1 = {ctx_args['norm_A_1']}"
                )
            # computes each constant when the checks first read it
            table = build_rip_table(A, **_table_options(rip_spec, "sampled"))
    ctx = BoundContext(rip=table, m=model.m, **ctx_args)
    if d0 == "scan":
        d0, report = find_min_d0(model, ctx, f, alpha, alpha_del)
        doc = {"min_d0": d0, "report": None if report is None else report.to_json_dict()}
    else:
        report = check_stability_conditions(model, ctx, f, d0, alpha, alpha_del)
        doc = {"report": report.to_json_dict()}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lscs", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory for CSV/manifest")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=None)

    p_rip = sub.add_parser("rip-table", help="precompute a constants table")
    p_rip.add_argument("config")
    p_rip.add_argument("--out", required=True)

    p_chk = sub.add_parser("check-stability", help="evaluate the stability conditions")
    p_chk.add_argument("config")
    p_chk.add_argument("--out", default=None)

    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "rip-table":
            return _cmd_rip_table(args)
        if args.command == "check-stability":
            return _cmd_check_stability(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # every failure after parsing is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

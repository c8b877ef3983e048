"""Command line front-end.

Commands:
  lscs run <config.json> [--out DIR] [--seed N] [--trials N]
  lscs rip-table <config.json> --out FILE
  lscs check-stability <config.json> [--out FILE]
  lscs version

Flag overrides beat config-file values, in every ``low_snr`` variant too.
Each command loads and parses its whole config before it starts work.  Exit
codes: 0 success; 1 the config could not be loaded, or a key is missing,
unknown, of the wrong type, non-finite or out of range, or keys disagree
(sizes past m, a model the signal model rejects, d0 >= d, a rip_table matrix
or file that contradicts the model or context, magnitude_low >
magnitude_high); 2 any failure after parsing (a RIP table file lacking an
entry that a check reads included); 3 soundness assertion failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import BoundContext, find_min_d0, check_stability_conditions
from .config import ConfigError, ConfigReader
from .harness import parse_model, run_experiment
from .measurement import DEFAULT_SUBSET_BUDGET, MeasurementMatrix, RipTable, build_rip_table, gen_matrix

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ASSERTION = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file does not hold a JSON object: {path}")
    return doc


def _matrix_from_spec(spec: ConfigReader) -> MeasurementMatrix:
    return gen_matrix(
        spec.choice("kind", ("gaussian", "perturbed_orthonormal"), default="gaussian"),
        spec.int("n", low=1), spec.int("m", low=1), spec.int("seed", default=0),
        spec.float("noise_scale", default=0.2),
    )


def _table_options(spec: ConfigReader, default_mode: str) -> dict:
    """Keyword arguments of ``build_rip_table`` besides the matrix."""
    return {
        "mode": spec.choice("mode", ("exact", "sampled"), default=default_mode),
        "budget": spec.int("budget", low=1, default=DEFAULT_SUBSET_BUDGET),
        "trials": spec.int("trials", low=1, default=2000),
        "seed": spec.int("seed", default=0),
    }


def _cmd_run(args) -> int:
    cfg = _load_json(args.config)
    overrides = {"seed": args.seed, "trials": args.trials}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    cfg.update(overrides)
    if isinstance(cfg.get("variants"), dict):
        for variant in cfg["variants"].values():
            if isinstance(variant, dict):
                variant.update(overrides)
    summary, violated = run_experiment(cfg, Path(args.out) if args.out else None)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_ASSERTION if violated else EXIT_OK


def _cmd_rip_table(args) -> int:
    with ConfigReader(_load_json(args.config)) as r:
        A = _matrix_from_spec(r.obj("matrix"))
        delta = r.obj("delta", [], list)
        delta_sizes = [delta.int(i, high=A.m) for i in delta.doc]
        theta = r.obj("theta", [], list)
        theta_pairs = [(pair.int(0), pair.int(1)) for pair in (theta.obj(i, kind=list) for i in theta.doc)]
        options = _table_options(r, "exact")
    if any(sum(pair) > A.m for pair in theta_pairs):
        raise ConfigError(f"each theta pair (S, S') needs S + S' <= m = {A.m}")
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
    with ConfigReader(_load_json(args.config)) as r:
        model = parse_model(r.obj("model"), seed=0)
        f = r.int("f", default=0)
        d0 = r.value("d0", default="scan")
        if d0 != "scan":
            d0 = r.int("d0", low=1, high=model.d - 1)
        alpha = r.float("alpha")
        alpha_del = r.float("alpha_del", default=None)
        context = r.obj("context")
        ctx_args = {
            "n": context.int("n", low=1),
            "lam": context.float("lam"),
            "norm_A_1": context.float("norm_A_1", low=1.0),  # a unit-norm column has l1 norm >= 1
            "noise_linf_bound": context.float("noise_linf_bound"),
        }
        rip_table = r.value("rip_table")
        if isinstance(rip_table, str):
            table = RipTable.from_json_dict(_load_json(rip_table))
            table.validate_monotone()
        else:
            spec = r.obj("rip_table")
            A = _matrix_from_spec(spec.obj("matrix"))
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
            table = build_rip_table(A, **_table_options(spec, "sampled"))
    ctx = BoundContext(rip=table, m=model.m, **ctx_args)
    if d0 == "scan":
        d0, report = find_min_d0(model, ctx, f, alpha, alpha_del)
        doc = {"min_d0": d0, "report": None if report is None else report.to_json_dict()}
    else:
        report = check_stability_conditions(model, ctx, f, d0, alpha, alpha_del)
        doc = {"report": report.to_json_dict()}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
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

"""Benchmark of the ``lscs`` command line on three workloads.

    python3 perfbench/run.py --workload {tracking,static_grid,bound_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md).  Run outputs, spans and the recorded
environment go to ``.perfbench/`` at the repository root.

``--record-reference`` rewrites ``perfbench/reference/`` from one pass per
workload at the default seed; the files there are the outputs the correctness
gate compares against.
"""

import os

# BLAS threads are pinned before numpy is imported: on two cores the default
# thread count made the tracking pass slower and noisier, with byte-identical
# outputs
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = ROOT / ".perfbench"

#: ``setup_s`` is timed in this process and, after every untraced round, in a
#: fresh interpreter, so its samples spread over the run like the passes do
_PROBE = (
    "import time; t0 = time.perf_counter()\n"
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, scipy.optimize, lscs.cli\n"
    "[json.loads(open(p).read()) for p in sys.argv[2:]]\n"
    "print(time.perf_counter() - t0)\n"
)

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
]


def _setup_in_process(configs: list[str]) -> float:
    """Import of numpy, scipy and lscs plus config load, timed in this process
    the same way ``_PROBE`` times it in a fresh one."""
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy, scipy.optimize, lscs.cli  # noqa: E401,F401
    [json.loads(Path(p).read_text()) for p in configs]
    return perf_counter() - t0


def _setup_probe(configs: list[str]) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), *configs],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


# ``spans`` and ``lscs`` import numpy, so they are imported inside functions,
# after ``_setup_in_process`` has timed that import


def run_pass(calls, scratch: Path, tracer=None):
    """Run every call of one pass in-process; return its wall time and, per
    call, (call, exit code or None if it raised, output path, non-optimal
    selector results)."""
    import lscs.cli
    import spans

    outs = []
    for call in calls:
        out = scratch / call.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        outs.append(out)
    results = []
    sink = io.StringIO()
    t0 = perf_counter()
    for call, out in zip(calls, outs):
        counter = {"nonoptimal": 0}
        argv = [a.replace("{out}", str(out)) for a in call.argv]
        with contextlib.ExitStack() as stack:
            stack.enter_context(spans.rebind(spans.status_guard(counter)))
            if tracer is not None:
                stack.enter_context(spans.rebind(tracer.wrappers()))
                stack.enter_context(tracer.span("bench.call", call=call.name))
            stack.enter_context(contextlib.redirect_stdout(sink))
            try:
                code = lscs.cli.main(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = None
        results.append((call, code, out, counter["nonoptimal"]))
    return perf_counter() - t0, results


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Repeat rounds until ``seconds`` would be exceeded (at least one).  A
    round is an untraced pass followed by a traced pass when ``trace`` is set,
    else by one set-up probe."""
    import spans

    calls = workload.calls(ROOT, seed, scratch)
    baselines = {}
    if seed == workloads.DEFAULT_SEED:
        baselines = {c.name: workloads.read_outputs(REFERENCE / workload.name / c.name)[0]
                     for c in calls}
    untraced, traced, layers, nest, setup = [], [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    rounds = 0
    while True:
        for tracer in ([None, spans.Tracer()] if trace else [None]):
            secs, results = run_pass(calls, scratch, tracer)
            for call, code, out, nonoptimal in results:
                n_failed, records = workloads.failed_ops(
                    call, code, out, baselines.get(call.name), nonoptimal)
                if baselines.get(call.name) is None:
                    baselines[call.name] = records
                attempted += call.ops
                failed += n_failed
            if tracer is None:
                untraced.append(secs)
            else:
                traced.append(secs)
                layers.append(spans.layer_metrics(tracer.spans))
                nest += spans.nesting_errors(tracer.spans)
                last_spans = tracer.spans
        if not trace:
            setup.append(_setup_probe(workload.configs))
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    result = {"untraced_s": untraced, "traced_s": traced, "setup_s": setup,
              "attempted": attempted, "failed": failed, "nesting_errors": nest[:20]}
    if trace:
        layer = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
        layer["trace.wall_s"] = statistics.median(traced)
        layer["trace.untraced_wall_s"] = statistics.median(untraced)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
        layer["trace.spans"] = float(len(last_spans))
        layer["ops_failed_frac"] = failed / attempted
        if layer["harness.self_s"] < 0 or layer["filter.step.self_s"] < 0:
            nest.append("negative self time")
            result["nesting_errors"] = nest[:20]
        result["layers"] = layer
        result["spans"] = [s.to_json() for s in last_spans]
    return result


def record_reference(scratch: Path) -> None:
    for name, workload in workloads.WORKLOADS.items():
        calls = workload.calls(ROOT, workloads.DEFAULT_SEED, scratch)
        _, results = run_pass(calls, scratch)
        target = REFERENCE / name
        shutil.rmtree(target, ignore_errors=True)
        for call, code, out, nonoptimal in results:
            if code not in (0,) or nonoptimal:
                raise SystemExit(f"{name}/{call.name}: exit {code}, {nonoptimal} non-optimal solves")
            shutil.copytree(out, target / call.name)
        print(f"recorded {target}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "lscs" / "__init__.py").is_file():
        print(f"error: no lscs package under {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    workload = workloads.WORKLOADS.get(args.workload)
    configs = list(workload.configs) if workload else []
    missing = [c for c in configs if not Path(c).is_file()]
    if missing:
        print(f"error: missing config files {missing}", file=sys.stderr)
        return 2
    in_process_setup = _setup_in_process(configs)
    import lscs

    if not Path(lscs.__file__).resolve().is_relative_to(SRC):
        print(f"error: lscs imported from {lscs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.record_reference:
            record_reference(scratch)
            return 0
        result = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_s"].insert(0, in_process_setup)

    import spans

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(result["untraced_s"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": 1.0 - result["failed"] / result["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = result["failed"] == 0 and not result["nesting_errors"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              **{k: v for k, v in result.items() if k != "spans"}, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(result["spans"]) + "\n")

    print(json.dumps({"environment": record["environment"]}))
    times = sorted(result["untraced_s"])
    print(f"{args.workload} seed={args.seed}: {len(times)} untraced passes, "
          f"min {times[0]:.3f} s, median {statistics.median(times):.3f} s, max {times[-1]:.3f} s"
          + (f"; {len(result['traced_s'])} traced" if args.trace else ""))
    for err in result["nesting_errors"]:
        print(f"span nesting error: {err}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

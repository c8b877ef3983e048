"""Workload passes and the correctness gate on their outputs.

A pass is a fixed list of ``lscs`` command lines, run in-process through
``lscs.cli.main``.  An operation is one trial (one cell-trial of the static
grid), one bound-validation instance, or the one ``check-stability`` call.
An operation fails when its call raised or exited nonzero, when a selector
returned a status other than ``optimal``, when its output rows break the CSV
schema, or when its output disagrees with the baseline: the recorded
reference at the default seed, else the first pass of the same run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

#: seed at which outputs are compared with the recorded reference
DEFAULT_SEED = 1

CSV_HEADER = "trial,t,method,nmse,misses,extras,support_size,err_csres,err_final"
_INT_FIELDS = (0, 1, 4, 5, 6)
_FLOAT_FIELDS = (3, 7, 8)

#: relative and absolute tolerance on floating-point output fields; an exact
#: reimplementation of the selector agrees to ~1e-10 (the LP feasibility
#: contract is 1e-9), far inside this
RTOL, ATOL = 1e-6, 1e-9

AGGREGATE = ("aggregate",)


@dataclass(frozen=True)
class Call:
    """One ``lscs`` command line.  ``{out}`` in ``argv`` is replaced by the
    call's output path.  ``ops`` counts the operations it attempts; ``keys``
    are the output keys (see ``read_outputs``) of those that write their own
    rows."""

    name: str
    argv: tuple[str, ...]
    ops: int
    keys: tuple = ()
    bound_validation: bool = False


def _trial_call(config: str, dirs: list[str], trials: int, seed: int) -> Call:
    keys = tuple((d, str(k)) for d in dirs for k in range(trials))
    return Call(
        "run",
        ("run", config, "--trials", str(trials), "--seed", str(seed), "--out", "{out}"),
        len(keys), keys,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[str, ...]
    trials: int = 0              # tracking / static grid
    matrices: int = 0            # bound sweep
    instances: int = 0           # bound sweep, per matrix

    def calls(self, root: Path, seed: int, scratch: Path) -> list[Call]:
        if self.name == "tracking":
            return [_trial_call(self.configs[0], ["."], self.trials, seed)]
        if self.name == "static_grid":
            cfg = json.loads((root / self.configs[0]).read_text())
            cells = ["n%d_sigma%s" % (int(c["n"]), "%.9g" % float(c["sigma"])) for c in cfg["cells"]]
            return [_trial_call(self.configs[0], cells, self.trials, seed)]
        if self.name == "bound_sweep":
            # the shipped sweep enumerates five matrices; the CLI has no flag
            # for that, so the pass runs a copy with a smaller count
            cfg = json.loads((root / self.configs[0]).read_text())
            cfg.update(num_matrices=self.matrices, instances_per_matrix=self.instances)
            path = scratch / "bound_validation.json"
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            return [
                Call(
                    "run",
                    ("run", str(path), "--seed", str(seed), "--out", "{out}"),
                    self.matrices * self.instances,
                    bound_validation=True,
                ),
                Call(
                    "check",
                    ("check-stability", self.configs[1],
                     "--out", "{out}/check_stability.json"),
                    1,
                ),
            ]
        raise ValueError(f"unknown workload {self.name!r}")


# Pass sizes: a pass takes 3-4 s (tracking, static grid) or about 7 s (bound
# sweep) on one x86-64 core, so a 35 s run holds five to ten passes.  On a
# shared two-core machine repeats of one pass spread by +-15%, far more than
# the spread across seeds, so many short passes and their median give a
# steadier figure than a few long ones.
WORKLOADS = {
    w.name: w for w in (
        Workload("tracking", ("configs/stability.json",), trials=1),
        Workload("static_grid", ("configs/static_table.json",), trials=1),
        Workload("bound_sweep", ("configs/bound_validation.json", "configs/check_stability.json"),
                 matrices=1, instances=25),
    )
}


# ---------------------------------------------------------------------------
# output reading and comparison
# ---------------------------------------------------------------------------


def _row_ok(fields: list[str], stem: str) -> bool:
    if len(fields) != 9 or fields[2] != stem:
        return False
    try:
        for i in _INT_FIELDS:
            if fields[i] and int(fields[i]) < -1:
                return False
        for i in _FLOAT_FIELDS:
            if fields[i] and not (math.isfinite(float(fields[i])) and float(fields[i]) >= 0):
                return False
    except ValueError:
        return False
    return bool(fields[0] and fields[1])


def read_outputs(out_dir: Path) -> tuple[dict, set]:
    """Group a call's output records by operation key.

    CSV rows of trial ``k`` in directory ``d`` go to key ``(d, k)``; aggregate
    rows and JSON documents (without their ``version`` field) go to
    ``AGGREGATE``.  Also returns the keys whose rows break the schema.
    """
    records: dict = {}
    bad: set = set()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir)
        if path.suffix == ".csv":
            lines = path.read_text().splitlines()
            if not lines or lines[0] != CSV_HEADER:
                bad.add(AGGREGATE)
                continue
            for line in lines[1:]:
                fields = line.split(",")
                key = AGGREGATE if fields[0] == "-1" else (str(rel.parent), fields[0])
                if not _row_ok(fields, path.stem):
                    bad.add(key)
                records.setdefault(key, []).append((str(rel), fields))
        elif path.suffix == ".json":
            doc = json.loads(path.read_text())
            if isinstance(doc, dict):
                doc.pop("version", None)
            records.setdefault(AGGREGATE, []).append((str(rel), doc))
    return records, bad


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:
            return math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
        except ValueError:
            return False
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            return a == b
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL) or (a != a and b != b)
    return a == b


def failed_ops(call: Call, exit_code: int | None, out_dir: Path,
               baseline: dict | None, nonoptimal: int) -> tuple[int, dict]:
    """Count the failed operations of one call (``exit_code`` is None when it
    raised); also return its records so later passes can be compared with
    them."""
    if exit_code not in ((0, 3) if call.bound_validation else (0,)):
        return call.ops, {}
    records, bad = read_outputs(out_dir)
    failed = bad | {key for key in call.keys if key not in records}
    if baseline is not None:
        failed |= {key for key in set(records) | set(baseline)
                   if not _close(records.get(key), baseline.get(key))}
    extra = nonoptimal
    if call.bound_validation:
        # exit code 3 reports violated bounds; each violating instance fails
        report = dict(records.get(AGGREGATE, [])).get("bound_validation.json")
        if report is None:
            failed.add(AGGREGATE)
        else:
            extra += len({(v["matrix"], v["instance"]) for v in report["violations"]})
    if AGGREGATE in failed:
        return call.ops, records
    return min(call.ops, len(failed) + extra), records


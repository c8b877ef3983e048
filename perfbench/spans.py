"""Per-layer spans recorded from outside the ``lscs`` package.

Each target below names a public function of one ``lscs`` module.  While a
``rebind`` block is active, every name in every loaded ``lscs`` module that is
bound to the original function is rebound to a wrapper, because consumers
import functions by name (``from .solver import solve_dantzig``) and patching
only the defining module would miss their copies.  The wrappers record spans
(name, start, end, parent span) in memory; the block restores every original
binding on exit.  No file of the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int, attrs: dict):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


def _resolve(target: str):
    """``"lscs.measurement:MeasurementMatrix.gram"`` -> (owner, attribute, object)."""
    module_name, qualname = target.split(":")
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@contextlib.contextmanager
def rebind(wrappers: dict):
    """Replace each target function by ``make(original)`` wherever ``lscs``
    modules bind it, and restore the original bindings on exit."""
    saved = []
    try:
        for target, make in wrappers.items():
            try:
                owner, attr, original = _resolve(target)
            except (KeyError, AttributeError):
                # a renamed or removed function leaves its metrics at 0
                print(f"perfbench: {target} not found, not wrapped", file=sys.stderr)
                continue
            wrapped = make(original)
            owners = [owner] + [
                mod for name, mod in sorted(sys.modules.items())
                if (name == "lscs" or name.startswith("lscs.")) and mod is not owner
            ]
            for obj in owners:
                for name, value in list(vars(obj).items()):
                    if value is original:
                        saved.append((obj, name, original))
                        setattr(obj, name, wrapped)
        yield
    finally:
        for obj, name, original in reversed(saved):
            setattr(obj, name, original)


def status_guard(counter: dict) -> dict:
    """Wrapper table that counts selector results whose status is not
    ``optimal``.  It is cheap enough for untraced passes; traced passes wrap
    it again."""

    def make(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            sol = fn(*args, **kwargs)
            if sol.status != "optimal":
                counter["nonoptimal"] += 1
            return sol
        return guarded

    return {"lscs.solver:solve_dantzig": make}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._last_residual = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close()

    def _open(self, name: str, attrs: dict) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = perf_counter()

    def _wrap(self, name: str, before=None, after=None):
        """Wrapper factory recording one span per call.  ``before`` sees the
        bound arguments and returns span attributes; it runs outside the
        span.  ``after`` sees the span, the result and the arguments."""

        def make(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments if (before or after) else None
                span = self._open(name, before(bound) if before else {})
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    span.attrs["error"] = type(exc).__name__
                    raise
                finally:
                    self._close()
                if after:
                    after(span, result, bound)
                return result

            return traced

        return make

    # -- per-target attribute hooks ------------------------------------------

    def _dantzig_before(self, a: dict) -> dict:
        g = a["A"].entries.T @ np.asarray(a["y"], dtype=float)
        peak = float(np.max(np.abs(g), initial=0.0))
        return {"zero_exit": bool(a["lam"] >= peak), "residual": a["y"] is self._last_residual}

    def _residual_after(self, span: Span, result, a: dict) -> None:
        self._last_residual = result[1]

    @staticmethod
    def _dantzig_after(span: Span, result, a: dict) -> None:
        span.attrs["status"] = result.status

    @staticmethod
    def _step_after(span: Span, result, a: dict) -> None:
        span.attrs["failed_stage"] = result[1].failed_stage

    @staticmethod
    def _delta_subsets(a: dict) -> dict:
        return {"subsets": math.comb(a["A"].m, a["S"]) if a["S"] > 0 else 0}

    @staticmethod
    def _theta_subsets(a: dict) -> dict:
        m, s, sp = a["A"].m, a["S"], a["Sp"]
        if s == 0 or sp == 0:
            return {"subsets": 0}
        count = math.comb(m, s) * math.comb(m - s, sp)
        return {"subsets": count // 2 if s == sp else count}

    @staticmethod
    def _write_after(span: Span, result, a: dict) -> None:
        span.attrs["bytes"] = Path(a["path"]).stat().st_size

    def wrappers(self) -> dict:
        w = self._wrap
        return {
            "lscs.solver:solve_dantzig": w("solver.dantzig", self._dantzig_before, self._dantzig_after),
            "lscs.solver:ls_on_support": w("solver.ls"),
            "lscs.measurement:MeasurementMatrix.gram": w("measurement.gram"),
            "lscs.measurement:delta_exhaustive": w("measurement.exhaustive", self._delta_subsets),
            "lscs.measurement:theta_exhaustive": w("measurement.exhaustive", self._theta_subsets),
            "lscs.measurement:delta_sampled": w("measurement.sampled"),
            "lscs.measurement:theta_sampled": w("measurement.sampled"),
            "lscs.measurement:build_rip_table": w("measurement.rip_table"),
            "lscs.filter:lscs_step": w("filter.step", after=self._step_after),
            "lscs.filter:initial_ls_residual": w("filter.initial_ls", after=self._residual_after),
            "lscs.filter:simple_cs": w("filter.simple_cs"),
            "lscs.sigmodel:generate": w("sigmodel.generate"),
            "lscs.bounds:runtime_step_checks": w("bounds.step_checks"),
            "lscs.bounds:residual_recovery_bound": w("bounds.eval"),
            "lscs.bounds:simplified_residual_bound": w("bounds.eval"),
            "lscs.bounds:compressibility_residual_bound": w("bounds.eval"),
            "lscs.bounds:detected_support_ls_error_bound": w("bounds.eval"),
            "lscs.bounds:check_stability_conditions": w("bounds.stability"),
            "lscs.bounds:find_min_d0": w("bounds.stability"),
            "lscs.harness:run_experiment": w("harness.experiment"),
            "lscs.harness:write_method_csv": w("harness.write", after=self._write_after),
            "lscs.harness:write_manifest": w("harness.write", after=self._write_after),
        }


# ---------------------------------------------------------------------------
# span -> metric reduction
# ---------------------------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("solver.dantzig.calls", "count", "lower"),
    ("solver.dantzig.lp_calls", "count", "lower"),
    ("solver.dantzig.zero_exit_ratio", "ratio", "higher"),
    ("solver.dantzig.lp_busy_s", "s", "lower"),
    ("solver.dantzig.lp_ms_p50", "ms", "lower"),
    ("solver.dantzig.lp_ms_p90", "ms", "lower"),
    ("solver.dantzig.lp_samples", "count", "lower"),
    ("solver.dantzig.residual_busy_s", "s", "lower"),
    ("solver.dantzig.oneshot_busy_s", "s", "lower"),
    ("solver.dantzig.nonoptimal", "count", "lower"),
    ("solver.ls.calls", "count", "lower"),
    ("solver.ls.busy_s", "s", "lower"),
    ("solver.ls.errors", "count", "lower"),
    ("measurement.gram.calls", "count", "lower"),
    ("measurement.gram.busy_s", "s", "lower"),
    ("measurement.exhaustive.busy_s", "s", "lower"),
    ("measurement.exhaustive.subsets", "count_computed", "lower"),
    ("measurement.sampled.calls", "count", "lower"),
    ("measurement.sampled.busy_s", "s", "lower"),
    ("measurement.rip_table.busy_s", "s", "lower"),
    ("filter.step.calls", "count", "lower"),
    ("filter.step.self_s", "s", "lower"),
    ("filter.step.failed.initial_ls", "count", "lower"),
    ("filter.step.failed.cs_residual", "count", "lower"),
    ("filter.step.failed.detect_ls", "count", "lower"),
    ("filter.step.failed.final_ls", "count", "lower"),
    ("filter.simple_cs.calls", "count", "lower"),
    ("sigmodel.generate.calls", "count", "lower"),
    ("sigmodel.generate.busy_s", "s", "lower"),
    ("bounds.step_checks.calls", "count", "lower"),
    ("bounds.step_checks.busy_s", "s", "lower"),
    ("bounds.eval.busy_s", "s", "lower"),
    ("bounds.stability.busy_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.write.busy_s", "s", "lower"),
    ("harness.write.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("ops_failed_frac", "ratio", "lower"),
]

FAILED_STAGES = ("initial_ls", "cs_residual", "detect_ls", "final_ls")


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} ({s.name}) leaves parent {s.parent} ({p.name})")
    return errors


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics (without ``trace.*``
    and ``ops_failed_frac``, which the caller adds)."""
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        children.setdefault(s.parent, []).append(i)

    def ancestors(i: int):
        p = spans[i].parent
        while p >= 0:
            yield spans[p]
            p = spans[p].parent

    def picked(name: str, keep=lambda s: True) -> list[Span]:
        return [spans[i] for i in by_name.get(name, []) if keep(spans[i])]

    def outermost(name: str, keep=lambda s: True) -> list[int]:
        # spans with no ancestor of the same name, so recursion counts once
        return [i for i in by_name.get(name, [])
                if keep(spans[i]) and all(a.name != name for a in ancestors(i))]

    def busy(name: str, keep=lambda s: True) -> float:
        return sum(spans[i].duration for i in outermost(name, keep))

    def descendants_busy(i: int, prefix: str) -> float:
        total = 0.0
        for c in children.get(i, []):
            if spans[c].name.startswith(prefix):
                total += spans[c].duration
            else:
                total += descendants_busy(c, prefix)
        return total

    ds = picked("solver.dantzig")
    lp = [s for s in ds if not s.attrs["zero_exit"]]
    lp_ms = sorted(s.duration * 1e3 for s in lp)
    steps = by_name.get("filter.step", [])
    failed = [spans[i].attrs.get("failed_stage") for i in steps]
    stability = sum(spans[i].duration - descendants_busy(i, "measurement.rip_table")
                    for i in outermost("bounds.stability"))
    out = {
        "solver.dantzig.calls": len(ds),
        "solver.dantzig.lp_calls": len(lp),
        "solver.dantzig.zero_exit_ratio": (len(ds) - len(lp)) / len(ds) if ds else 0.0,
        "solver.dantzig.lp_busy_s": sum(s.duration for s in lp),
        "solver.dantzig.lp_ms_p50": _quantile(lp_ms, 0.5),
        "solver.dantzig.lp_ms_p90": _quantile(lp_ms, 0.9),
        "solver.dantzig.lp_samples": len(lp_ms),
        "solver.dantzig.residual_busy_s": busy("solver.dantzig", lambda s: s.attrs["residual"]),
        "solver.dantzig.oneshot_busy_s": busy("solver.dantzig", lambda s: not s.attrs["residual"]),
        "solver.dantzig.nonoptimal": sum(s.attrs.get("status") != "optimal" for s in ds),
        "solver.ls.calls": len(picked("solver.ls")),
        "solver.ls.busy_s": busy("solver.ls"),
        "solver.ls.errors": len(picked("solver.ls", lambda s: "error" in s.attrs)),
        "measurement.gram.calls": len(picked("measurement.gram")),
        "measurement.gram.busy_s": busy("measurement.gram"),
        "measurement.exhaustive.busy_s": busy("measurement.exhaustive"),
        "measurement.exhaustive.subsets": sum(s.attrs["subsets"] for s in picked("measurement.exhaustive")),
        "measurement.sampled.calls": len(picked("measurement.sampled")),
        "measurement.sampled.busy_s": busy("measurement.sampled"),
        "measurement.rip_table.busy_s": busy("measurement.rip_table"),
        "filter.step.calls": len(steps),
        "filter.step.self_s": sum(spans[i].duration - descendants_busy(i, "solver.") for i in steps),
        **{f"filter.step.failed.{stage}": failed.count(stage) for stage in FAILED_STAGES},
        "filter.simple_cs.calls": len(picked("filter.simple_cs")),
        "sigmodel.generate.calls": len(picked("sigmodel.generate")),
        "sigmodel.generate.busy_s": busy("sigmodel.generate"),
        "bounds.step_checks.calls": len(picked("bounds.step_checks")),
        "bounds.step_checks.busy_s": busy("bounds.step_checks"),
        "bounds.eval.busy_s": sum(
            spans[i].duration for i in by_name.get("bounds.eval", [])
            if all(not a.name.startswith("bounds.") for a in ancestors(i))
        ),
        "bounds.stability.busy_s": stability,
        "harness.self_s": sum(
            spans[i].duration - sum(spans[c].duration for c in children.get(i, []))
            for i in by_name.get("harness.experiment", [])
        ),
        "harness.write.busy_s": busy("harness.write"),
        "harness.write.bytes": sum(s.attrs.get("bytes", 0) for s in picked("harness.write")),
    }
    return {k: float(v) for k, v in out.items()}

"""The benchmark's span recorder wraps package functions by name, and a name
it cannot find only leaves that layer's metrics at zero.  Every target must
therefore resolve once the command line front-end is imported."""

import importlib.util
from pathlib import Path

import lscs.cli  # noqa: F401  (loads every module the targets name)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves():
    spans = load_spans()
    targets = [*spans.Tracer().wrappers(), *spans.status_guard({})]
    assert "lscs.bounds:runtime_step_checks" in targets
    for target in targets:
        *_, original = spans._resolve(target)
        assert callable(original), target

"""Smoke test of the benchmark: every workload at minimal size, untraced and
traced, prints every metric named in BENCHMARK.json with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

import run
import spans
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

MINIMAL = {
    "tracking": {"trials": 1},
    "static_grid": {"trials": 1},
    "bound_sweep": {"matrices": 1, "instances": 2},
}


def test_metric_tables_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(MINIMAL))
def test_workload_prints_every_metric(name, trace, monkeypatch):
    small = dataclasses.replace(workloads.WORKLOADS[name], **MINIMAL[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    monkeypatch.chdir(run.ROOT)
    out = io.StringIO()
    # a seed other than the default, so the gate checks invariants and
    # determinism rather than the full-size reference
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["harness.self_s"]["value"] >= 0

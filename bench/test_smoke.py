"""Checks for the benchmark harness itself; none depends on a timing.

    python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import refs
import run
import tracer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_smoke_run_prints_every_metric_and_fails_no_op():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == 2 * len(run.WORKLOADS)
    for i, res in enumerate(results):
        want = tracer.PER_LAYER_UNITS if i % 2 else run.E2E_UNITS
        assert {k: m["unit"] for k, m in res["metrics"].items()} == want
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    ratios = [line.split() for line in lines if line.startswith("failed_op_ratio")]
    assert len(ratios) == len(run.WORKLOADS)
    assert all(r[1] == "0" and r[2] == "ratio" for r in ratios)
    assert json.loads(lines[-1]) == {"smoke_passed": True, "problems": []}


def test_tracer_refuses_a_name_that_no_longer_resolves(monkeypatch):
    sys.path.insert(0, str(BENCH.parent / "src"))
    import premeasure.born  # noqa: F401

    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (("born", "renamed_away", "x", True),))
    t = tracer.Tracer()
    with pytest.raises(tracer.TraceDrift):
        t.install()
    t.uninstall()


def test_reference_comparison_uses_the_float_tolerance():
    doc = {"p": [0.25, 0.75], "passed": True, "n": 2}
    assert refs.mismatch({"p": [0.25 + 5e-13, 0.75], "passed": True, "n": 2}, doc) is None
    assert refs.mismatch({"p": [0.25 + 5e-12, 0.75], "passed": True, "n": 2}, doc)
    assert refs.mismatch({"p": [0.25, 0.75], "passed": False, "n": 2}, doc)
    d = refs.digest(doc)
    assert refs.digest_mismatch(refs.digest({"p": [0.25 + 5e-13, 0.75], "passed": True, "n": 2}), d) is None
    assert refs.digest_mismatch(refs.digest({"p": [0.25 + 1e-9, 0.75], "passed": True, "n": 2}), d)
    assert refs.digest_mismatch(refs.digest({"p": [0.25, 0.75], "passed": False, "n": 2}), d)

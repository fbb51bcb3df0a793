"""In-process benchmark outputs match the benchmark's recorded references.

``bench/refs/`` records, per workload, the answer of every case a benchmark
pass can draw: the JSON document and exit code of ``premeasure run`` and
``premeasure verify`` on each bundled scenario (``cli_bundled``), the summary
of every one-trial property suite (``prop_suite``), and the answers of every
generated ``deep_pure`` and ``mixed_chain`` scenario.  These tests run every
recorded case in-process and compare it the way the benchmark does, with
``bench/workloads.py``'s ``normalize`` and ``reference_mismatch``.  The
harness modules are loaded read-only from their paths, so the comparison
lives in one place and ``bench/`` gains no bytecode cache.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads imports refs and cases by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.delenv("PREMEASURE_TOL", raising=False)
    refs = _load(monkeypatch, "refs")
    workloads = _load(monkeypatch, "workloads")
    _load(monkeypatch, "cases")
    monkeypatch.chdir(workloads.ROOT)  # the cli cases name their scenarios relative to it
    return refs, workloads


def _all_cases(wl, workload: str) -> list:
    """Every case of ``workload`` that ``bench/refs/`` records."""
    if workload == "cli_bundled":
        return [wl.Case(f"{c}:{n}", (c, n)) for c in wl.CLI_COMMANDS for n in wl.BUNDLED]
    if workload == "prop_suite":
        return [wl.Case(str(s), s) for s in wl.PROP_UNIVERSE]
    gen = sys.modules["cases"]
    return [
        wl.Case(gen.case_key(slot, variant, toy), gen.case_text(workload, slot, variant, toy))
        for toy, slots in ((False, gen.SLOTS[workload]), (True, gen.TOY_SLOTS[workload]))
        for slot in range(len(slots))
        for variant in range(gen.VARIANTS)
    ]


def _mismatches(refs, wl, workload: str, count: int) -> dict[str, str]:
    expected = refs.load(workload)["cases"]
    cases = _all_cases(wl, workload)
    assert len(cases) == count and sorted(c.key for c in cases) == sorted(expected)
    op = wl.op_for(workload, True, {})
    mismatches = {}
    for case in cases:
        value, problem = wl.normalize(workload, op(case))
        problem = problem or wl.reference_mismatch(workload, value, expected[case.key])
        if problem:
            mismatches[case.key] = problem
    return mismatches


def test_bundled_cli_outputs_match_the_recorded_references(harness):
    assert _mismatches(*harness, "cli_bundled", 24) == {}


@pytest.mark.parametrize("workload, count", [
    ("prop_suite", 384), ("deep_pure", 192), ("mixed_chain", 144),
])
def test_in_process_outputs_match_the_recorded_references(harness, workload, count):
    assert _mismatches(*harness, workload, count) == {}

"""The bundled ``run`` and ``verify`` outputs match the benchmark's references.

``bench/refs/cli_bundled.json`` records the JSON document and exit code of
``premeasure run`` and ``premeasure verify`` on each bundled scenario.  This
test runs the same 24 cases through ``cli.main`` in-process and compares
them the way the benchmark does, with ``bench/workloads.py``'s ``normalize``
and ``reference_mismatch``.  The two harness modules are loaded read-only
from their paths, so the comparison lives in one place and ``bench/`` gains
no bytecode cache.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads imports refs by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.delenv("PREMEASURE_TOL", raising=False)
    refs = _load(monkeypatch, "refs")
    workloads = _load(monkeypatch, "workloads")
    monkeypatch.chdir(workloads.ROOT)  # the cases name their scenarios relative to it
    return refs, workloads


def test_bundled_cli_outputs_match_the_recorded_references(harness):
    refs, wl = harness
    expected = refs.load("cli_bundled")["cases"]
    cases = [wl.Case(f"{c}:{n}", (c, n)) for c in wl.CLI_COMMANDS for n in wl.BUNDLED]
    assert len(cases) == 24 and sorted(c.key for c in cases) == sorted(expected)
    mismatches = {}
    for case in cases:
        value, problem = wl.normalize("cli_bundled", wl.run_cli_inprocess(case))
        problem = problem or wl.reference_mismatch("cli_bundled", value, expected[case.key])
        if problem:
            mismatches[case.key] = problem
    assert mismatches == {}

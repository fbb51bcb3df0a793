"""Every query answer of the package against the from-text dense reference.

``reference.py`` shares only the parser with the package, so a fault in the
compiler or in the objects that chain and collapse oracle both consume (an
observable's projector-to-outcome pairing, the sign of an evolution's phase)
shows here even when the two routes still agree with each other.
"""

import ast
from pathlib import Path

import numpy as np

import premeasure
from premeasure import dsl, runner, sampling

import reference

TOL = 1e-12
MAX_COMPOSITE_DIM = 512
RANDOM_SCENARIOS = 100


def _agree(actual, expected, where="$"):
    if isinstance(expected, float):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), where
        assert abs(actual - expected) <= TOL, f"{where}: {actual!r} vs {expected!r}"
    elif isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            _agree(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _agree(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, f"{where}: {actual!r} vs {expected!r}"


def _check(scenario: dsl.Scenario, name: str):
    got = runner.answers_to_jsonable(runner.run_scenario(scenario))
    want = reference.answers(scenario)
    assert len(got) == len(want), name
    for g, w in zip(got, want):
        g = {k: v for k, v in g.items() if k not in ("query", "error")}
        _agree(g, w, f"{name} query {w['index']}")


def _composite_dim(scenario: dsl.Scenario) -> int:
    observables = (dsl.EigenObservableDecl, dsl.ProjectorObservableDecl)
    outcomes = {
        o.name: len(o.eigenvalues) for o in scenario.statements if isinstance(o, observables)
    }
    total = next(s.dim for s in scenario.statements if isinstance(s, dsl.SystemDecl))
    for s in scenario.events:
        if isinstance(s, dsl.MeasureDeviceDecl):
            outcomes[s.name] = outcomes[s.observable]
        elif isinstance(s, dsl.ReaderDeviceDecl):
            outcomes[s.name] = outcomes[s.target] + 1
        else:
            continue
        total *= outcomes[s.name] + 1
    return total


def test_bundled_scenarios_match_the_reference():
    for name in premeasure.bundled_scenario_names():
        text = premeasure.bundled_scenario_path(name).read_text(encoding="utf-8")
        _check(dsl.parse_scenario(text), name)


def test_random_scenarios_match_the_reference():
    checked = trial = 0
    while checked < RANDOM_SCENARIOS:
        scenario = sampling.random_scenario(np.random.default_rng([2024, trial]), max_dim=3)
        if _composite_dim(scenario) <= MAX_COMPOSITE_DIM:
            _check(scenario, f"trial {trial}:\n{dsl.format_scenario(scenario)}")
            checked += 1
        trial += 1


def test_reference_imports_only_the_parser():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in reference.py"
            if node.module == "premeasure":
                names = [f"premeasure.{alias.name}" for alias in node.names]
            else:
                names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "premeasure":
                assert name == "premeasure.dsl", f"reference.py imports {name}"

"""Every query answer of the package against the from-text dense reference.

``reference.py`` shares only the parser with the package, so a fault in the
compiler or in the objects that chain and collapse oracle both consume (an
observable's projector-to-outcome pairing, the sign of an evolution's phase)
shows here even when the two routes still agree with each other.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

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


QUBIT = (
    "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
    "observable X eigen [1, -1] basis [[0.7071067811865476, 0.7071067811865476], "
    "[0.7071067811865476, -0.7071067811865476]]\n"
)
WEAK_SCENARIOS = {
    "pure start": (
        "system dim 2\nstate pure [0.6, 0.8i]\n" + QUBIT
        + "device MW measures Z weak [[0.6, -0.8], [0.8, 0.6]] [[0, 1i], [1i, 0]]\n"
        "device M2 measures X\ndevice M3 measures Z\n"
        "query marginal M2\nquery conditional M3=1 given MW=2\nquery reduced\n"
        "query equivalence\n"
    ),
    "mixed start": (
        "system dim 2\nstate mixed [[0.7, 0.1-0.2i], [0.1+0.2i, 0.3]]\n" + QUBIT
        + "device MW measures X weak [[0.6, -0.8], [0.8, 0.6]] [[1, 0], [0, 1i]]\n"
        "device M2 measures Z\ndevice M3 measures X\n"
        "query marginal M3\nquery joint MW=2 M2=1 M3=2\nquery reduced\n"
        "query equivalence\n"
    ),
    "projector form": (
        "system dim 3\nstate pure [0.8, 0.2, 0.1+0.3i]\n"
        "observable D projectors [1, 2] [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]] "
        "[[0.5, -0.5, 0], [-0.5, 0.5, 0], [0, 0, 1]]\n"
        "observable Z eigen [1, 2, 3] basis [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
        "device MW measures D weak [[0, 0, 1], [1, 0, 0], [0, 1, 0]] "
        "[[1, 0, 0], [0, 0.6, -0.8], [0, 0.8, 0.6]]\n"
        "device M2 measures Z\ndevice M3 measures D\n"
        "query marginal M2\nquery repeatability MW M3\nquery equivalence\n"
    ),
    "after an evolve": (
        "system dim 2\nstate pure [1, 0]\n" + QUBIT
        + "hamiltonian H [[0.3, 0.5-0.2i], [0.5+0.2i, -0.1]]\n"
        "device M1 measures X\nevolve H t 0.7\n"
        "device MW measures Z weak [[0.6, 0.8i], [0.8i, 0.6]] [[0, 1], [1, 0]]\n"
        "evolve unitary [[0.6, -0.8], [0.8, 0.6]]\ndevice M2 measures X\n"
        "query conditional M2=1 given MW=2\nquery equivalence\n"
    ),
    "read by a reader": (
        "system dim 2\nstate pure [0.6, 0.8]\n" + QUBIT
        + "device MW measures Z weak [[1, 0], [0, 1]] [[0, 1], [1, 0]]\n"
        "device R reads MW\ndevice M2 measures X\n"
        "query marginal R\nquery joint MW=2 R=2\nquery conditional M2=1 given R=2\n"
        "query equivalence\n"
    ),
}


@pytest.mark.parametrize("name", WEAK_SCENARIOS)
def test_weak_scenarios_match_the_reference(name):
    scenario = dsl.parse_scenario(WEAK_SCENARIOS[name])
    assert not dsl.validate_scenario(scenario)
    _check(scenario, name)
    equivalence = reference.answers(scenario)[-1]["result"]
    assert equivalence["passed"] and len(equivalence["records"]) > 4


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

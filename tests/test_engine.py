import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure import born, bundled_scenario_path, dsl, engine, runner
from premeasure.born import OutcomeEvent, conditional_probability, marginal_distribution
from premeasure.chain import Attach
from premeasure.collapse import Evolve
from premeasure.model import DensityState


def _bundled(name: str) -> dsl.Scenario:
    return dsl.parse_scenario(bundled_scenario_path(name).read_text(encoding="utf-8"))


def test_query_events_reach_born_as_parsed(monkeypatch):
    scenario = _bundled("zx_conditional")
    assert not dsl.validate_scenario(scenario)
    built = []
    monkeypatch.setattr(born.OutcomeEvent, "__post_init__", lambda self: built.append(self))
    answers = runner.run_scenario(scenario)
    assert [a.kind for a in answers] == ["conditional", "marginal", "equivalence"]
    assert all(a.error is None for a in answers)
    assert built == []


def test_oracle_plan_steps_are_the_program_records():
    scenario = _bundled("evolved_pair")
    events = scenario.program.events
    initial, steps, labels = engine.oracle_plan(scenario)
    assert initial is scenario.program.initial_state
    assert labels == ["M1", "M2"]
    assert [type(s).__name__ for s in steps] == ["Observable", "Evolve", "Observable"]
    assert steps[0] is events[0].spec.observable
    assert steps[1] is events[1]
    assert steps[2] is events[2].spec.observable


def test_chain_keeps_the_program_attach_records():
    scenario = dsl.parse_scenario(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
        "device M measures Z\n"
        "device W measures Z weak [[1, 0], [0, 1]] [[0, 1], [1, 0]]\n"
        "device R reads M\n"
    )
    chain = engine.build_chain(scenario)
    assert [type(d) for d in chain.devices] == [Attach] * 3
    assert [d.mode for d in chain.devices] == ["ideal", "weak", "reader"]
    assert all(d is e for d, e in zip(chain.devices, scenario.program.events))


def test_build_chain_executes_events_in_order():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "hamiltonian H [[0, 1.5707963267948966], [1.5707963267948966, 0]]\n"
        "device M1 measures Z\n"
        "evolve H t 1\n"
        "device M2 measures Z\n"
    )
    chain = engine.build_chain(s)
    # generator (pi/2) sx for t=1 flips the qubit between the two records
    p = conditional_probability(chain, OutcomeEvent("M2", 2), [OutcomeEvent("M1", 1)])
    assert_allclose(p, 1.0, atol=1e-10)


def test_eight_digit_scenario_runs():
    s = dsl.parse_scenario(
        "system dim 2\n"
        "state pure [0.70710678, 0.70710678]\n"
        "observable A eigen [1, -1] basis [[1,0],[0,1]]\n"
        "observable B eigen [1, -1] basis "
        "[[0.70710678,0.70710678],[0.70710678,-0.70710678]]\n"
        "device M measures A\n"
        "device M2 measures B\n"
        "query conditional M2=1 given M=1\n"
    )
    assert not dsl.validate_scenario(s)
    chain = engine.build_chain(s)
    p = conditional_probability(chain, OutcomeEvent("M2", 1), [OutcomeEvent("M", 1)])
    assert_allclose(p, 0.5, atol=1e-10)


def test_build_initial_state_normalizes():
    s = dsl.parse_scenario("system dim 2\nstate pure [3, 4]\n")
    v = s.program.initial_state
    assert_allclose(v, [0.6, 0.8], atol=1e-15)
    s = dsl.parse_scenario("system dim 2\nstate mixed [[2, 0], [0, 1]]\n")
    m = s.program.initial_state.matrix
    assert_allclose(np.trace(m).real, 1.0, atol=1e-15)


def test_a_mixed_start_is_checked_once(monkeypatch):
    # init_chain and the oracle take the compiled DensityState as it is; the
    # only other one built is the answer to ``query reduced``.
    built = []
    check = DensityState.__post_init__
    monkeypatch.setattr(DensityState, "__post_init__", lambda self: built.append(check(self)))
    s = dsl.parse_scenario(bundled_scenario_path("mixed_initial").read_text())
    answers = runner.run_scenario(s)
    assert [a.error for a in answers] == [None] * 4
    assert len(built) == 2


def test_build_observable_shape_mismatch():
    s = dsl.parse_scenario(
        "system dim 3\nstate pure [1, 0, 0]\n"
        "observable A eigen [1, -1] basis [[1,0],[0,1]]\n"
    )
    with pytest.raises(ValueError):
        engine.build_observables(s)


def test_oracle_plan_rejects_weak_devices():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device MW measures Z weak [[1,0],[0,1]] [[0,1],[1,0]]\n"
    )
    with pytest.raises(ValueError, match="weak"):
        engine.oracle_plan(s)


def test_oracle_plan_skips_readers():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device M1 measures Z\n"
        "device R reads M1\n"
    )
    _, steps, labels = engine.oracle_plan(s)
    assert labels == ["M1"]
    assert len(steps) == 1


def test_reader_event_builds_running_chain():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device M1 measures Z\n"
        "device R reads M1\n"
    )
    chain = engine.build_chain(s)
    assert chain.device_labels == ("M1", "R")
    # The reader stores one slot per pointer state of M1, ready included.
    assert chain.state.shape == (2, 2, 3)
    dist = marginal_distribution(chain, "R")
    assert_allclose(dist.probability((2,)), 0.64, atol=1e-12)

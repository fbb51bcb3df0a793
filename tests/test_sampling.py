import numpy as np
from numpy.testing import assert_allclose

from premeasure import dsl, engine, propsuite
from premeasure.chain import ChainState, Disturbance, attach_device, make_reader_device
from premeasure.linalg import unitarity_residual
from premeasure.model import make_device
from premeasure.propsuite import attach_residual, run_property_suite
from premeasure.sampling import (
    distinct_eigenvalues,
    random_degenerate_observable,
    random_density_matrix,
    random_observable,
    random_orthonormal_basis,
    random_scenario,
    random_state_vector,
)

from reference import random_unitary


def test_random_state_vector_is_normalized():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 6):
        v = random_state_vector(rng, dim)
        assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)


def test_random_density_matrix_properties():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng, 4)
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_random_orthonormal_basis():
    rng = np.random.default_rng(2)
    basis = random_orthonormal_basis(rng, 5)
    m = np.array(basis)
    assert_allclose(m.conj() @ m.T, np.eye(5), atol=1e-12)


def test_random_unitary():
    rng = np.random.default_rng(3)
    for dim in (2, 4):
        assert unitarity_residual(random_unitary(rng, dim)) <= 1e-12


def test_distinct_eigenvalues_are_separated():
    rng = np.random.default_rng(4)
    for _ in range(20):
        vals = sorted(distinct_eigenvalues(rng, 6))
        gaps = [b - a for a, b in zip(vals, vals[1:])]
        assert min(gaps) >= 0.2


def test_random_observables_are_valid():
    rng = np.random.default_rng(5)
    obs = random_observable(rng, 4, "A")
    assert obs.outcome_count == 4
    deg = random_degenerate_observable(rng, 4, "D")
    assert deg.outcome_count < 4
    total = sum(deg.projectors[k] for k in range(deg.outcome_count))
    assert_allclose(total, np.eye(4), atol=1e-12)


def test_random_scenarios_validate_and_build():
    for trial in range(20):
        rng = np.random.default_rng([7, trial])
        s = random_scenario(rng, max_dim=5, max_depth=3)
        assert not dsl.validate_scenario(s)
        chain = engine.build_chain(s)
        assert chain.state.size >= 2


def test_random_scenario_generation_is_deterministic():
    a = random_scenario(np.random.default_rng([42, 0]))
    b = random_scenario(np.random.default_rng([42, 0]))
    assert a == b


def test_property_suite_runs_clean():
    summary = run_property_suite(seed=13, trials=8, max_dim=5, max_depth=3)
    assert summary.passed
    assert summary.checks_run >= 8
    assert summary.max_deviation <= 1e-9
    again = run_property_suite(seed=13, trials=8, max_dim=5, max_depth=3)
    assert again == summary


def test_attach_residual_covers_every_mode():
    # random_scenario draws no weak device, so prop alone never checks one.
    rng = np.random.default_rng(3)
    ideal = make_device("M", random_observable(rng, 3, "A"))
    degenerate = make_device("MD", random_degenerate_observable(rng, 4, "D"))
    assert degenerate.observable.outcome_count < 4
    weak = Disturbance(tuple(random_unitary(rng, 3) for _ in range(3)))
    reader = make_reader_device("R", ideal)
    assert attach_residual(ideal) <= 1e-13
    assert attach_residual(degenerate) <= 1e-13
    assert attach_residual(ideal, weak) <= 1e-13
    assert attach_residual(reader, target=ideal) <= 1e-13


def test_a_non_isometric_attach_fails_unitarity(monkeypatch):
    # Outcome 1's branch scaled by 1 + 1e-9 after every per-branch check.
    def scaled(chain, dev, **kwargs):
        grown = attach_device(chain, dev, **kwargs)
        state = np.array(grown.state)
        state[..., 0] *= 1 + 1e-9
        return ChainState(state, grown.devices, grown.initial_system_state)

    monkeypatch.setattr(propsuite, "attach_device", scaled)
    summary = run_property_suite(1, 5, 6, 3)
    assert {f.trial for f in summary.failures if f.check == "unitarity"} == set(range(5))

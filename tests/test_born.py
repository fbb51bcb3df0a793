import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure.born import (
    Distribution,
    OutcomeEvent,
    ZeroProbabilityError,
    conditional_probability,
    joint_distribution,
    joint_probability,
    marginal_distribution,
    reduced_system_state,
    sum_to_axes,
    total_probability,
)
from premeasure.chain import (
    Disturbance,
    apply_evolution,
    attach_device,
    init_chain,
    make_reader_device,
)
from premeasure.model import make_device, make_observable


def _z_obs():
    return make_observable("Z", "S", [1.0, -1.0], np.eye(2, dtype=complex))


def _x_obs():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return make_observable("X", "S", [1.0, -1.0], h)


def _chain(state=(0.6, 0.8), devices=("M1", "M2")):
    chain = init_chain(np.array(state, dtype=complex))
    for lbl in devices:
        chain = attach_device(chain, make_device(lbl, _z_obs()))
    return chain


def test_marginal_matches_squared_amplitudes():
    dist = marginal_distribution(_chain(), "M1")
    assert_allclose(dist.probability((1,)), 0.36, atol=1e-12)
    assert_allclose(dist.probability((2,)), 0.64, atol=1e-12)


def test_joint_probability_repeats_agree():
    chain = _chain()
    assert_allclose(
        joint_probability(chain, [OutcomeEvent("M1", 1), OutcomeEvent("M2", 1)]),
        0.36,
        atol=1e-12,
    )
    assert_allclose(
        joint_probability(chain, [OutcomeEvent("M1", 1), OutcomeEvent("M2", 2)]),
        0.0,
        atol=1e-14,
    )


def test_joint_distribution_sums_to_one():
    dist = joint_distribution(_chain(), ["M1", "M2"])
    total = sum(p for _, p in dist.entries)
    assert_allclose(total, 1.0, atol=1e-12)
    assert dist.table.shape == (2, 2)


def test_outcome_zero_is_rejected():
    chain = _chain()
    with pytest.raises(ValueError, match="ready"):
        joint_probability(chain, [OutcomeEvent("M1", 0)])


def test_outcome_out_of_range():
    chain = _chain()
    with pytest.raises(ValueError):
        joint_probability(chain, [OutcomeEvent("M1", 3)])
    with pytest.raises(ValueError):
        joint_probability(chain, [OutcomeEvent("nope", 1)])


def test_duplicate_device_in_events():
    chain = _chain()
    with pytest.raises(ValueError, match="duplicate"):
        joint_probability(chain, [OutcomeEvent("M1", 1), OutcomeEvent("M1", 2)])


def test_conditional_probability_identity():
    chain = _chain()
    p = conditional_probability(
        chain, OutcomeEvent("M2", 1), [OutcomeEvent("M1", 1)]
    )
    assert_allclose(p, 1.0, atol=1e-12)


def test_conditional_on_zero_probability_event():
    chain = _chain(state=(1.0, 0.0))
    with pytest.raises(ZeroProbabilityError):
        conditional_probability(chain, OutcomeEvent("M2", 1), [OutcomeEvent("M1", 2)])


def test_conditional_z_then_x_is_half():
    chain = init_chain(np.array([1.0, 0.0], dtype=complex))
    chain = attach_device(chain, make_device("MZ", _z_obs()))
    chain = attach_device(chain, make_device("MX", _x_obs()))
    p = conditional_probability(chain, OutcomeEvent("MX", 1), [OutcomeEvent("MZ", 1)])
    assert_allclose(p, 0.5, atol=1e-12)


def test_density_route_matches_pure_route():
    v = np.array([0.36, 0.48, 0.8j], dtype=complex)
    v = v / np.linalg.norm(v)
    rng = np.random.default_rng(2)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    obs = make_observable("A", "S", [1.0, 2.0, 3.0], [q[:, k] for k in range(3)])

    pure = init_chain(v)
    pure = attach_device(pure, make_device("M1", obs))
    dens = init_chain(np.outer(v, v.conj()))
    dens = attach_device(dens, make_device("M1", obs))
    for k in (1, 2, 3):
        assert_allclose(
            joint_probability(pure, [OutcomeEvent("M1", k)]),
            joint_probability(dens, [OutcomeEvent("M1", k)]),
            atol=1e-12,
        )


def test_reader_marginal_mirrors_target():
    chain = _chain(devices=("M1",))
    rdev = make_reader_device("R", chain.device("M1").spec)
    chain = attach_device(chain, rdev)
    dist = marginal_distribution(chain, "R")
    assert_allclose(dist.probability((1,)), 0.36, atol=1e-12)
    assert_allclose(dist.probability((2,)), 0.64, atol=1e-12)
    assert dist.probability((3,)) <= 1e-14
    assert_allclose(
        joint_probability(chain, [OutcomeEvent("M1", 2), OutcomeEvent("R", 2)]),
        0.64,
        atol=1e-12,
    )


def test_total_probability_two_routes():
    chain = init_chain(np.array([0.6, 0.8], dtype=complex))
    chain = attach_device(chain, make_device("MA", _z_obs()))
    chain = attach_device(chain, make_device("MB", _x_obs()))
    dist = total_probability(chain, "MB")
    # sum_j p(B_k|A_j) p(A_j) with |<beta_k|alpha_j>|^2 = 1/2 throughout
    assert_allclose(dist.probability((1,)), 0.5, atol=1e-12)
    assert_allclose(dist.probability((2,)), 0.5, atol=1e-12)


def test_reduced_system_state_is_projection_mixture():
    v = np.array([1.0, np.sqrt(2.0)], dtype=complex) / np.sqrt(3.0)
    chain = init_chain(v)
    chain = attach_device(chain, make_device("M1", _z_obs()))
    red = reduced_system_state(chain)
    assert_allclose(red.matrix, np.diag([1 / 3, 2 / 3]).astype(complex), atol=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution([0.4, 0.4])  # sums to 0.8
    d = Distribution([0.25, 0.75])
    assert_allclose(d.probability((2,)), 0.75)


# --- the pointer-probability kernel against an explicit masked |psi|^2 sum ----


def _masked_reference(chain, events):
    """Squared norm of the state restricted to the events' pointer states,
    written out over the full state with no shared code.  The state's
    trailing axes are the devices' in attachment order, each storing its
    recorded pointer states only, outcome k at index k - 1."""
    block = chain.state
    first = block.ndim - len(chain.devices)
    index = [slice(None)] * block.ndim
    for ev in events:
        index[first + chain.device_labels.index(ev.device)] = ev.outcome - 1
    return float(np.sum(np.abs(block[tuple(index)]) ** 2))


def _kernel_chains():
    rng = np.random.default_rng(77)

    def obs(label, d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        return make_observable(label, "S", [float(k) for k in range(d)], [q[:, k] for k in range(d)])

    def state(d):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    def unitary(d):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q

    chains = {}
    a, b = obs("A", 2), obs("B", 2)
    c = attach_device(init_chain(state(2)), make_device("M1", a))
    c = attach_device(c, make_device("M2", a))
    chains["pure"] = attach_device(c, make_device("MB", b))

    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = w @ w.conj().T
    a3, b3 = obs("A", 3), obs("B", 3)
    c = attach_device(init_chain(rho / np.trace(rho)), make_device("M1", a3))
    c = attach_device(c, make_device("M2", a3))
    chains["purified-mixed"] = attach_device(c, make_device("MB", b3))

    c = attach_device(init_chain(state(2)), make_device("M1", a))
    c = attach_device(c, make_reader_device("R", c.device("M1").spec))
    chains["reader"] = attach_device(c, make_device("MB", b))

    dist = Disturbance((unitary(2), unitary(2)))
    c = attach_device(init_chain(state(2)), make_device("MW", a), disturbance=dist)
    c = attach_device(c, make_device("M2", a))
    chains["weak"] = attach_device(c, make_device("MB", b))

    c = attach_device(init_chain(state(2)), make_device("M1", a))
    c = apply_evolution(c, unitary(2))
    c = attach_device(c, make_device("M2", a))
    c = apply_evolution(c, unitary(2))
    chains["evolved"] = attach_device(c, make_device("MB", b))

    c = attach_device(init_chain(state(3)), make_device("M1", a3))
    c = apply_evolution(c, unitary(3))
    c = attach_device(c, make_device("M2", a3))
    chains["qutrit"] = attach_device(c, make_device("MB", b3))
    return chains


KERNEL_CHAINS = _kernel_chains()


@pytest.mark.parametrize("name", sorted(KERNEL_CHAINS))
def test_kernel_matches_masked_reference(name):
    chain = KERNEL_CHAINS[name]
    labels = chain.device_labels
    for size in range(1, len(labels) + 1):
        for devices in itertools.permutations(labels, size):
            dist = joint_distribution(chain, devices)
            assert dist.table.shape == tuple(chain.outcome_count(d) for d in devices)
            for key, p in dist.entries:
                events = [OutcomeEvent(d, k) for d, k in zip(devices, key)]
                ref = _masked_reference(chain, events)
                assert abs(p - ref) <= 1e-15
                assert abs(joint_probability(chain, events) - ref) <= 1e-15
    for target in labels:
        for (k,), p in marginal_distribution(chain, target).entries:
            assert abs(p - _masked_reference(chain, [OutcomeEvent(target, k)])) <= 1e-15
        if target != labels[0]:
            for (k,), p in total_probability(chain, target).entries:
                assert abs(p - _masked_reference(chain, [OutcomeEvent(target, k)])) <= 1e-15
    for target, given in itertools.permutations(labels, 2):
        for j in range(1, chain.outcome_count(given) + 1):
            cond = [OutcomeEvent(given, j)]
            p_given = _masked_reference(chain, cond)
            if p_given <= 1e-12:
                continue
            for k in range(1, chain.outcome_count(target) + 1):
                ev = OutcomeEvent(target, k)
                ref = _masked_reference(chain, cond + [ev]) / p_given
                assert abs(conditional_probability(chain, ev, cond) - ref) <= 1e-15


def test_pointer_probabilities_are_cached_and_read_only():
    chain = KERNEL_CHAINS["purified-mixed"]
    probs = chain.pointer_probabilities
    assert probs is chain.pointer_probabilities
    assert probs.shape == tuple(chain.outcome_count(lbl) for lbl in chain.device_labels)
    assert not probs.flags.writeable
    assert_allclose(probs.sum(), 1.0, atol=1e-15)


def test_distribution_views_agree_with_the_table():
    table = np.array([[0.1, 0.2, 0.0], [0.3, 0.15, 0.25]])
    d = Distribution(table)
    assert d.entries == tuple(
        ((j + 1, k + 1), table[j, k]) for j in range(2) for k in range(3)
    )
    assert d.probability((2, 3)) == 0.25
    assert d.probability((3, 1)) == 0.0
    assert d.probability((0, 1)) == 0.0
    assert d.probability((1,)) == 0.0
    assert_allclose(sum_to_axes(d.table, [0]), [0.3, 0.7], atol=1e-16)
    assert_allclose(sum_to_axes(d.table, [1]), [0.4, 0.35, 0.25], atol=1e-16)
    assert np.array_equal(sum_to_axes(d.table, [1, 0]), table.T)


def test_distribution_validation_is_vectorised_with_the_same_bounds():
    d = Distribution([-1e-13, 1.0 + 1e-13])
    assert d.entries == (((1,), 0.0), ((2,), 1.0))
    with pytest.raises(ValueError, match="outside"):
        Distribution([-1e-11, 1.0])
    with pytest.raises(ValueError, match="outside"):
        Distribution([np.nan, 1.0])
    with pytest.raises(ValueError, match="sum to"):
        Distribution([0.5, 0.5 - 2e-9])
    Distribution([0.5, 0.5 - 5e-10])


def test_query_errors_keep_their_messages():
    chain = _chain()
    with pytest.raises(ValueError, match=r"outcome index 3 out of range 1\.\.2 for device 'M1'"):
        joint_probability(chain, [OutcomeEvent("M1", 3)])
    with pytest.raises(ValueError, match="pointer index 0 of device 'M2' is the ready state"):
        conditional_probability(chain, OutcomeEvent("M2", 0), [OutcomeEvent("M1", 1)])
    with pytest.raises(ValueError, match="duplicate device 'M1' in event list"):
        joint_distribution(chain, ["M1", "M2", "M1"])
    with pytest.raises(ValueError, match="no device labelled 'nope'"):
        marginal_distribution(chain, "nope")
    with pytest.raises(ValueError, match="need at least one outcome event"):
        joint_distribution(chain, [])
    with pytest.raises(ValueError, match="at least one conditioning event"):
        conditional_probability(chain, OutcomeEvent("M2", 1), [])
    zero = _chain(state=(1.0, 0.0))
    with pytest.raises(ZeroProbabilityError, match="conditional undefined"):
        conditional_probability(zero, OutcomeEvent("M2", 1), [OutcomeEvent("M1", 2)])

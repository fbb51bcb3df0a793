import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure.born import (
    OutcomeEvent,
    joint_probability,
    marginal_distribution,
    reduced_system_state,
)
from premeasure.chain import (
    ANCILLA_LABEL,
    Disturbance,
    apply_evolution,
    attach_device,
    build_ideal_unitary,
    build_weak_unitary,
    init_chain,
    make_reader_device,
    pointer_basis_observable,
    pointer_shift,
)
from premeasure.linalg import unitarity_residual
from premeasure.model import DensityState, make_device, make_observable

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _z_obs():
    return make_observable("Z", "S", [1.0, -1.0], np.eye(2, dtype=complex))


def test_pointer_shift_cycles():
    s = pointer_shift(3)
    e0 = np.array([1, 0, 0], dtype=complex)
    assert_allclose(s @ e0, [0, 1, 0])
    assert_allclose(s @ s @ e0, [0, 0, 1])
    assert_allclose(np.linalg.matrix_power(s, 3), np.eye(3), atol=1e-15)


def test_ideal_unitary_moves_ready_pointer():
    obs = _z_obs()
    dev = make_device("M", obs)
    u = build_ideal_unitary(obs, dev)
    assert unitarity_residual(u) <= 1e-12
    # |j> (x) |ready> -> |j> (x) |j+1>
    for j, target in ((0, 1), (1, 2)):
        vin = np.zeros(6, dtype=complex)
        vin[j * 3 + 0] = 1.0
        vout = u @ vin
        expect = np.zeros(6, dtype=complex)
        expect[j * 3 + target] = 1.0
        assert_allclose(vout, expect, atol=1e-14)


def test_ideal_unitary_matches_projector_sum():
    rng = np.random.default_rng(17)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    obs = make_observable("A", "S", [0.5, 1.5, 2.5], [q[:, k] for k in range(3)])
    dev = make_device("M", obs)
    u = build_ideal_unitary(obs, dev)
    shift = pointer_shift(4)
    expected = sum(
        np.kron(obs.projector(k), np.linalg.matrix_power(shift, k))
        for k in (1, 2, 3)
    )
    assert_allclose(u, expected, atol=1e-13)
    assert unitarity_residual(u) <= 1e-12


def test_weak_unitary_flips_branch():
    obs = _z_obs()
    dev = make_device("M", obs)
    dist = Disturbance((np.eye(2, dtype=complex), SX))
    u = build_weak_unitary(obs, dev, dist)
    assert unitarity_residual(u) <= 1e-12
    # |1> (x) ready -> flip: |0> (x) pointer 2
    vin = np.zeros(6, dtype=complex)
    vin[1 * 3 + 0] = 1.0
    expect = np.zeros(6, dtype=complex)
    expect[0 * 3 + 2] = 1.0
    assert_allclose(u @ vin, expect, atol=1e-14)


def test_weak_unitary_wrong_count():
    obs = _z_obs()
    dev = make_device("M", obs)
    with pytest.raises(ValueError, match="disturbance"):
        build_weak_unitary(obs, dev, Disturbance((np.eye(2, dtype=complex),)))


def test_disturbance_rejects_nonunitary():
    with pytest.raises(ValueError):
        Disturbance((np.array([[1, 1], [0, 1]], dtype=complex),))


def test_attach_grows_space():
    chain = init_chain(np.array([0.6, 0.8], dtype=complex))
    assert chain.is_pure
    chain = attach_device(chain, make_device("M1", _z_obs()))
    assert chain.space.labels == ("S", "M1")
    assert chain.space.dim == 6
    assert chain.outcome_count("M1") == 2
    assert chain.device("M1").mode == "ideal"


def test_attach_rejects_duplicate_label():
    chain = init_chain(np.array([1, 0], dtype=complex))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    with pytest.raises(ValueError, match="M1"):
        attach_device(chain, make_device("M1", _z_obs()))


def test_attach_density_route_matches_pure():
    v = np.array([0.6, 0.8j], dtype=complex)
    pure = attach_device(init_chain(v), make_device("M1", _z_obs()))
    rho = np.outer(v, v.conj())
    dens = attach_device(init_chain(rho), make_device("M1", _z_obs()))
    assert pure.is_pure and not dens.is_pure
    for k in (1, 2):
        ev = [OutcomeEvent("M1", k)]
        assert_allclose(joint_probability(dens, ev), joint_probability(pure, ev), atol=1e-13)
    assert_allclose(
        reduced_system_state(dens).matrix, reduced_system_state(pure).matrix, atol=1e-13
    )


def test_reader_targets_pointer_factor():
    obs = _z_obs()
    base = make_device("M1", obs)
    reader = make_reader_device("R", base)
    # target pointer has 3 states, so the reader sees 3 outcomes and its own
    # pointer has 4 states
    assert reader.pointer_dim == 4
    pb = pointer_basis_observable("pb", base)
    assert pb.outcome_count == 3
    # outcome k projects onto pointer state k, ready state comes last
    assert_allclose(pb.projector(1), np.diag([0, 1, 0]).astype(complex))
    assert_allclose(pb.projector(2), np.diag([0, 0, 1]).astype(complex))
    assert_allclose(pb.projector(3), np.diag([1, 0, 0]).astype(complex))


def test_attach_reader_requires_existing_target():
    chain = init_chain(np.array([1, 0], dtype=complex))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    rdev = make_reader_device("R", chain.device("M1").spec)
    grown = attach_device(chain, rdev, mode="reader", target="M1")
    assert grown.space.labels == ("S", "M1", "R")
    with pytest.raises(ValueError):
        attach_device(chain, rdev, mode="reader", target="nope")


def test_apply_evolution_on_system_factor():
    chain = init_chain(np.array([1, 0], dtype=complex))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    u = np.array([[0, -1j], [-1j, 0]])
    evolved = apply_evolution(chain, u)
    # amplitude moved from |0, p1> to |1, p1>
    assert_allclose(abs(evolved.state[1 * 3 + 1]), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        apply_evolution(chain, np.array([[1, 1], [0, 1]], dtype=complex))


def test_init_chain_accepts_density_state():
    ds = DensityState("S", np.diag([0.25, 0.75]).astype(complex))
    chain = init_chain(ds)
    assert not chain.is_pure
    assert chain.system_dim == 2
    assert chain.state.ndim == 1
    assert_allclose(reduced_system_state(chain).matrix, ds.matrix, atol=1e-15)
    chain = attach_device(chain, make_device("M1", _z_obs()))
    assert not chain.is_pure
    assert_allclose(marginal_distribution(chain, "M1").probability((1,)), 0.25, atol=1e-15)
    assert_allclose(marginal_distribution(chain, "M1").probability((2,)), 0.75, atol=1e-15)


def test_attach_rejects_the_ancilla_label():
    chain = init_chain(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="already used"):
        attach_device(chain, make_device(ANCILLA_LABEL, _z_obs()))


def test_initial_system_state_is_preserved():
    v = np.array([0.6, 0.8], dtype=complex)
    chain = init_chain(v)
    chain = attach_device(chain, make_device("M1", _z_obs()))
    assert_allclose(chain.initial_system_state, v)

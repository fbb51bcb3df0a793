import re

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
    ChainState,
    apply_evolution,
    attach_device,
    init_chain,
    make_reader_device,
    pointer_basis_observable,
)
from premeasure.linalg import unitarity_residual
from premeasure.model import DensityState, DeviceSpec, Disturbance, make_device, make_observable

from reference import interaction

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
H = 0.5 ** 0.5


def _z_obs():
    return make_observable("Z", "S", [1.0, -1.0], np.eye(2, dtype=complex))


def _dense(dev):
    """The reference's dense U, then V for a weak device, on (measured
    factor) x (pointer factor)."""
    obs = dev.observable
    weak = None if dev.disturbance is None else dev.disturbance.unitaries
    return interaction(obs.projectors, [obs.dim, dev.pointer_dim], 0, 1, weak)


def test_ideal_unitary_moves_ready_pointer():
    obs = _z_obs()
    dev = make_device("M", obs)
    u = _dense(dev)
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
    # The attach is sum_k P_k (x) Shift^k on the ready pointer: its branch k
    # is the dense U's column block from ready to pointer state k.
    rng = np.random.default_rng(17)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    obs = make_observable("A", "S", [0.5, 1.5, 2.5], [q[:, k] for k in range(3)])
    dev = make_device("M", obs)
    u = _dense(dev).reshape(3, 4, 3, 4)
    for j in range(3):
        grown = attach_device(init_chain(np.eye(3)[j]), dev)
        assert_allclose(grown.state, u[:, 1:, j, 0], rtol=0, atol=1e-15)


def test_weak_unitary_flips_branch():
    obs = _z_obs()
    dev = DeviceSpec("M", obs, Disturbance((np.eye(2, dtype=complex), SX)))
    u = _dense(dev)
    assert unitarity_residual(u) <= 1e-12
    # |1> (x) ready -> flip: |0> (x) pointer 2
    vin = np.zeros(6, dtype=complex)
    vin[1 * 3 + 0] = 1.0
    expect = np.zeros(6, dtype=complex)
    expect[0 * 3 + 2] = 1.0
    assert_allclose(u @ vin, expect, atol=1e-14)
    grown = attach_device(init_chain(np.array([0, 1])), dev)
    assert_allclose(grown.state, [[0, 1], [0, 0]], atol=1e-15)


def test_disturbance_rejects_nonunitary():
    with pytest.raises(ValueError):
        Disturbance((np.array([[1, 1], [0, 1]], dtype=complex),))


def test_attach_grows_space():
    chain = init_chain(np.array([0.6, 0.8], dtype=complex))
    assert chain.state.shape == (2,)  # no ancilla axis
    chain = attach_device(chain, make_device("M1", _z_obs()))
    assert chain.device_labels == ("M1",)
    # The device axis stores its two recorded pointer states, not the ready one.
    assert chain.state.shape == (2, 2)
    assert chain.outcome_count("M1") == 2
    assert chain.device("M1").mode == "ideal"
    assert chain.device("M1").target is None
    weak = attach_device(chain, DeviceSpec("MW", _z_obs(), Disturbance((SX, SX))))
    assert weak.device("MW").mode == "weak"


def test_attach_keeps_the_given_device_record():
    chain = init_chain(np.array([0.6, 0.8], dtype=complex))
    record = DeviceSpec("MW", _z_obs(), Disturbance((SX, SX)))
    grown = attach_device(chain, record)
    assert grown.devices == (record,) and grown.device("MW").mode == "weak"
    with pytest.raises(TypeError, match="unexpected keyword argument 'disturbance'"):
        attach_device(chain, record, disturbance=Disturbance((SX, SX)))


def test_attach_rejects_duplicate_label():
    chain = init_chain(np.array([1, 0], dtype=complex))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    with pytest.raises(ValueError, match="M1"):
        attach_device(chain, make_device("M1", _z_obs()))


@pytest.mark.parametrize(
    "dev,disturbance,message",
    [
        (make_device("S", _z_obs()), None, "label 'S' already used"),
        (
            make_reader_device("R", make_device("M1", _z_obs())),
            Disturbance((np.eye(3),) * 3),
            "reader attachment takes no disturbance",
        ),
        (
            make_device("M2", make_observable("A", "S", [0.0, 1.0, 2.0], np.eye(3))),
            None,
            "observable dimension 3 does not match dimension 2 of the measured factor 'S'",
        ),
        (
            make_device("R", make_observable("P", "M1", [0.0, 1.0], np.eye(2))),
            None,
            "observable dimension 2 does not match dimension 3 of the measured factor 'M1'",
        ),
        (
            make_device("M2", _z_obs()),
            Disturbance((np.eye(2),)),
            "need 2 disturbance unitaries, got 1",
        ),
        (
            make_device("M2", _z_obs()),
            Disturbance((np.eye(3),) * 2),
            "disturbance dimension 3 does not match system dimension 2",
        ),
        (
            make_device("R", make_observable(
                "P", "M1", [0.0, 1.0, 2.0], [[1, 0, 0], [0, H, H], [0, H, -H]]
            )),
            None,
            "reader devices must measure the pointer basis",
        ),
        (
            # Basis and disturbances each pass within 1e-10; R_k V_k is off by
            # about 1.6e-10.
            make_device("M2", make_observable("Z", "S", [1.0, -1.0], np.eye(2) * (1 + 4e-11))),
            Disturbance((np.eye(2) * (1 + 4e-11),) * 2),
            "constructed interaction is not unitary",
        ),
    ],
    ids=[
        "system-label", "reader-disturbed", "system-dim", "reader-dim",
        "disturbance-count", "disturbance-dim", "reader-rotated", "weak-composite",
    ],
)
def test_attach_rejects_a_device_its_factor_cannot_take(dev, disturbance, message):
    # A disturbance that does not fit its device fails as the record is built.
    chain = attach_device(init_chain(np.array([1, 0], dtype=complex)), make_device("M1", _z_obs()))
    with pytest.raises(ValueError, match=re.escape(message)):
        attach_device(chain, DeviceSpec(dev.label, dev.observable, disturbance))


def test_only_a_weak_attach_checks_unitarity(monkeypatch):
    # Observable has already bounded every V_k; only R_k V_k is new.
    calls = []
    monkeypatch.setattr(
        "premeasure.chain.unitarity_residual",
        lambda m: calls.append(m) or unitarity_residual(m),
    )
    chain = attach_device(init_chain(np.array([0.6, 0.8], dtype=complex)), make_device("M1", _z_obs()))
    chain = attach_device(chain, make_reader_device("R", chain.device("M1")))
    assert calls == []
    attach_device(chain, DeviceSpec("W", _z_obs(), Disturbance((SX, np.eye(2)))))
    assert len(calls) == 2


def test_attach_density_route_matches_pure():
    v = np.array([0.6, 0.8j], dtype=complex)
    pure = attach_device(init_chain(v), make_device("M1", _z_obs()))
    rho = np.outer(v, v.conj())
    dens = attach_device(init_chain(rho), make_device("M1", _z_obs()))
    assert pure.state.shape == (2, 2) and dens.state.shape == (2, 1, 2)  # rank-1 ancilla
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
    assert_allclose(pb.projectors[0], np.diag([0, 1, 0]).astype(complex))
    assert_allclose(pb.projectors[1], np.diag([0, 0, 1]).astype(complex))
    assert_allclose(pb.projectors[2], np.diag([1, 0, 0]).astype(complex))


def test_attach_reader_requires_existing_target():
    chain = init_chain(np.array([1, 0], dtype=complex))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    rdev = make_reader_device("R", chain.device("M1"))
    assert rdev.target == "M1"
    grown = attach_device(chain, rdev)
    assert grown.device_labels == ("M1", "R")
    assert grown.device("R").mode == "reader"
    absent = make_reader_device("R", make_device("nope", _z_obs()))
    with pytest.raises(ValueError, match="no device labelled 'nope'"):
        attach_device(chain, absent)


def test_apply_evolution_on_system_factor():
    chain = init_chain(np.array([1, 0], dtype=complex))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    u = np.array([[0, -1j], [-1j, 0]])
    evolved = apply_evolution(chain, u)
    # amplitude moved from |0, p1> to |1, p1>; pointer state 1 is stored at index 0
    assert_allclose(abs(evolved.state[1, 0]), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        apply_evolution(chain, np.array([[1, 1], [0, 1]], dtype=complex))


def test_init_chain_accepts_density_state():
    ds = DensityState("S", np.diag([0.25, 0.75]).astype(complex))
    chain = init_chain(ds)
    assert chain.system_dim == 2
    assert chain.state.shape == (2, 2)  # system, ancilla
    assert_allclose(reduced_system_state(chain).matrix, ds.matrix, atol=1e-15)
    chain = attach_device(chain, make_device("M1", _z_obs()))
    assert chain.state.shape == (2, 2, 2)  # system, ancilla, M1
    assert_allclose(marginal_distribution(chain, "M1").probability((1,)), 0.25, atol=1e-15)
    assert_allclose(marginal_distribution(chain, "M1").probability((2,)), 0.75, atol=1e-15)


def test_state_shape_is_the_factor_layout():
    # (d, [r], K1, ..., Kn): the system, the ancilla of a mixed start, then
    # one axis per device with its outcome count.
    qutrit = make_observable("A", "S", [0.0, 1.0, 2.0], np.eye(3, dtype=complex))
    pure = init_chain(np.array([0.6, 0.8, 0], dtype=complex))
    mixed = init_chain(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert pure.state.shape == (3,)
    assert mixed.state.shape == (3, 3)
    for chain, lead in ((pure, (3,)), (mixed, (3, 3))):
        chain = attach_device(chain, make_device("M1", qutrit))
        assert chain.state.shape == lead + (3,)
        chain = attach_device(chain, make_reader_device("R", chain.device("M1")))
        assert chain.state.shape == lead + (3, 4)
        chain = apply_evolution(chain, np.eye(3)[[1, 2, 0]])
        assert chain.state.shape == lead + (3, 4)
        assert chain.state.ndim - len(chain.devices) == len(lead)
    devices = chain.devices
    with pytest.raises(ValueError, match="outcome counts"):
        ChainState(np.zeros((3, 3, 4, 3)), devices, chain.initial_system_state)
    with pytest.raises(ValueError, match="outcome counts"):
        ChainState(np.zeros((3, 3 * 4)), devices, chain.initial_system_state)
    with pytest.raises(ValueError, match="outcome counts"):
        ChainState(np.zeros((3, 3, 3, 3, 4)), devices, chain.initial_system_state)
    lone = (devices[0],)
    with pytest.raises(ValueError, match="outcome counts"):
        ChainState(np.zeros(9), lone, chain.initial_system_state)


def test_initial_system_state_is_preserved():
    v = np.array([0.6, 0.8], dtype=complex)
    chain = init_chain(v)
    chain = attach_device(chain, make_device("M1", _z_obs()))
    assert_allclose(chain.initial_system_state, v)

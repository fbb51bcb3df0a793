"""The chain core holds one state vector: devices attach through their
observable's eigenbasis, one branch per outcome, and mixed starts are
purified onto an ancilla.

Both are checked against the routes they replace: the full interaction
(``reference.interaction``) applied to the ready-extended vector, restricted
to the recorded pointer states the chain stores, and a density matrix evolved
as ``U rho U^dagger`` with every operator written out as Kronecker products.  The ready slab that
the chain drops is exactly zero on the dense route.  The attach is also held
to its memory bound: no dense interaction, and a peak below twice the new
state.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure.born import (
    OutcomeEvent,
    conditional_probability,
    marginal_distribution,
    reduced_system_state,
)
from premeasure.chain import (
    apply_evolution,
    attach_device,
    init_chain,
    make_reader_device,
)
from premeasure.linalg import apply_operator, hermitian_evolution
from premeasure.model import DensityState, DeviceSpec, Disturbance, make_device, make_observable
from premeasure.sampling import (
    random_degenerate_observable,
    random_density_matrix,
    random_orthonormal_basis,
    random_state_vector,
)

from reference import interaction, random_unitary


def _obs(rng, label, d):
    values = [float(k) for k in range(d)]
    return make_observable(label, "S", values, random_orthonormal_basis(rng, d))


def _degenerate_obs(rng, label, d):
    return random_degenerate_observable(rng, d, label)


def _steps(rng, d, make_obs=_obs):
    """Ideal, weak, reader and evolve steps on a d-dimensional system.

    Each step is (kind, device or unitary, extra); ``make_obs`` draws the
    observables of the ideal and the weak device.
    """
    a = make_device("MA", make_obs(rng, "A", d))
    n = a.observable.outcome_count
    dist = Disturbance(tuple(random_unitary(rng, d) for _ in range(n)))
    w = DeviceSpec("MW", make_obs(rng, "W", d), dist)
    r = make_reader_device("R", a)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return [
        ("ideal", a, None),
        ("evolve", hermitian_evolution((g + g.conj().T) / 2, 0.7), None),
        ("weak", w, None),
        ("reader", r, "MA"),
    ]


def _attach(chain, step):
    kind, obj, extra = step
    if kind == "evolve":
        return apply_evolution(chain, obj)
    return attach_device(chain, obj)


def _interaction(step):
    """The reference's dense U (then V) on (measured factor) x (new pointer)."""
    kind, dev, extra = step
    obs = dev.observable
    weak = dev.disturbance.unitaries if kind == "weak" else None
    return interaction(obs.projectors, [obs.dim, dev.pointer_dim], 0, 1, weak)


def _dense_attach(chain, step):
    """(state, dims) of the dense route: the pure ``chain`` written into full
    pointer spaces with an empty ready state per device, extended by the new
    device in its ready state, and the full interaction applied."""
    kind, dev, extra = step
    dims = (
        (chain.system_dim,)
        + tuple(attached.pointer_dim for attached in chain.devices)
        + (dev.pointer_dim,)
    )
    dense = np.zeros(dims, dtype=complex)
    dense[(slice(None), *[slice(1, None)] * len(chain.devices), 0)] = chain.state
    anchor = 1 + chain.device_labels.index(extra) if kind == "reader" else 0
    state = apply_operator(_interaction(step), (anchor, len(dims) - 1), dims, dense.reshape(-1))
    return state.reshape(dims), dims


# Seed 11 draws both d = 4 observables with eigenspace ranks (2, 1, 1).
STEP_CASES = pytest.mark.parametrize(
    "seed,d,make_obs",
    [(1, 2, _obs), (2, 3, _obs), (11, 4, _degenerate_obs)],
    ids=["1-2", "2-3", "11-4-degenerate"],
)


@STEP_CASES
def test_ready_column_attach_matches_full_interaction(seed, d, make_obs):
    rng = np.random.default_rng(seed)
    chain = init_chain(random_state_vector(rng, d))
    for step in _steps(rng, d, make_obs):
        grown = _attach(chain, step)
        if step[0] != "evolve":
            dense, dims = _dense_attach(chain, step)
            recorded = dense[(slice(None), *[slice(1, None)] * (len(dims) - 1))]
            assert_allclose(grown.state, recorded, rtol=0, atol=1e-15)
        chain = grown


@STEP_CASES
def test_dense_route_leaves_the_ready_slab_empty(seed, d, make_obs):
    # The paper's point: after the interaction every branch has moved its
    # pointer off the ready state.  Ideal, weak and reader devices alike put
    # exactly zero amplitude there, so the chain need not store it.
    rng = np.random.default_rng(seed)
    chain = init_chain(random_state_vector(rng, d))
    for step in _steps(rng, d, make_obs):
        grown = _attach(chain, step)
        if step[0] != "evolve":
            dense, dims = _dense_attach(chain, step)
            for axis in range(1, len(dims)):
                assert not np.take(dense, 0, axis=axis).any()
            if step[0] == "reader":
                # The reader's last outcome is the target's ready state.
                assert not dense[..., -1].any()
                assert not grown.state[..., -1].any()
        chain = grown


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_attach_builds_no_dense_interaction():
    # A d = 48 device: the dense (d*p)^2 interaction alone would be 84 MiB.
    d = 48
    obs = make_observable("A", "S", [float(k) for k in range(d)], np.eye(d))
    chain = init_chain(np.full(d, d**-0.5))
    grown, peak = _traced_peak(lambda: attach_device(chain, make_device("M", obs)))
    assert grown.state.size == d * d
    assert peak <= 2**20
    assert "projectors" not in vars(obs)  # the cached view was never read


def test_reader_attach_checks_its_basis_in_small_scratch():
    # The pointer-basis check holds one projector at a time: stacking all 48
    # of the d = 49 pointer factor would add 1.8 MB and its temporaries.
    d = 48
    obs = make_observable("A", "S", [float(k) for k in range(d)], np.eye(d))
    chain = attach_device(init_chain(np.full(d, d**-0.5)), make_device("M", obs))
    reader = make_reader_device("R", chain.device("M"))
    grown, peak = _traced_peak(lambda: attach_device(chain, reader))
    assert peak <= grown.state.nbytes + 2**20
    assert "projectors" not in vars(reader.observable)


def _qubit_chain(devices):
    z = make_observable("Z", "S", [1.0, -1.0], np.eye(2))
    chain = init_chain(np.array([0.6, 0.8]))
    for i in range(devices):
        chain = attach_device(chain, make_device(f"M{i}", z))
    return chain, z


# Each peak test uses a chain of 2**18 amplitudes or more, so its ratio
# measures the state rather than fixed overhead.
def test_attach_peaks_below_twice_the_new_state():
    chain, z = _qubit_chain(16)
    grown, peak = _traced_peak(lambda: attach_device(chain, make_device("M16", z)))
    assert grown.state.size == 2**18
    assert peak <= 2 * grown.state.nbytes


def test_pointer_probabilities_peak_below_the_state():
    chain, _ = _qubit_chain(17)
    probs, peak = _traced_peak(lambda: chain.pointer_probabilities)
    assert probs.shape == (2,) * 17
    assert_allclose(probs.sum(), 1.0, atol=1e-12)
    assert peak <= 0.6 * chain.state.nbytes


def test_reduced_state_sums_blocks_in_bounded_memory():
    # 2**19 amplitudes: eight column blocks of 2**16.
    chain, _ = _qubit_chain(18)
    rho, peak = _traced_peak(lambda: reduced_system_state(chain))
    assert peak <= 0.25 * chain.state.nbytes
    m = chain.state.reshape(2, -1)
    assert_allclose(rho.matrix, m @ m.conj().T, rtol=0, atol=1e-14)
    # A state smaller than one block takes the single product.
    small, _ = _qubit_chain(3)
    m = small.state.reshape(2, -1)
    single = DensityState("S", m @ m.conj().T).matrix
    assert np.array_equal(reduced_system_state(small).matrix, single)


def _embedded_interaction(u, dims, anchor, p):
    """Interaction on (factor ``anchor``, new last factor) as a full-space
    matrix: sum over a, b of |a><b| at the anchor, identity elsewhere, and
    the (a, b) pointer block last."""
    d = dims[anchor]
    u4 = u.reshape(d, p, d, p)
    full = 0
    for a in range(d):
        for b in range(d):
            mats = [np.eye(n, dtype=complex) for n in dims]
            mats[anchor] = np.zeros((d, d), dtype=complex)
            mats[anchor][a, b] = 1.0
            full = full + reduce(np.kron, mats + [u4[a, :, b, :]])
    return full


def _density_reference(rho, steps):
    """(density matrix, factor dims, device labels) after every step."""
    dims = [rho.shape[0]]
    labels = ["S"]
    for step in steps:
        kind, obj, extra = step
        if kind == "evolve":
            full = reduce(np.kron, [obj] + [np.eye(n) for n in dims[1:]])
            rho = full @ rho @ full.conj().T
            continue
        p = obj.pointer_dim
        anchor = labels.index(extra) if kind == "reader" else 0
        ready = np.zeros((p, p), dtype=complex)
        ready[0, 0] = 1.0
        full = _embedded_interaction(_interaction(step), dims, anchor, p)
        rho = full @ np.kron(rho, ready) @ full.conj().T
        dims.append(p)
        labels.append(obj.label)
    return rho, dims, labels


def _rank_one_density(rng, d):
    """A random pure state as a density matrix, drawn as a one-term mixture
    (the weight, then the state) like ``random_density_matrix``."""
    rng.random(1)  # the weight, normalized to 1
    v = random_state_vector(rng, d)
    return np.outer(v, v.conj())


def _reference_probability(rho, dims, labels, events):
    diag = np.real(np.diag(rho)).reshape(dims)
    idx = [slice(None)] * len(dims)
    for label, k in events:
        idx[labels.index(label)] = k
    return float(np.sum(diag[tuple(idx)]))


@pytest.mark.parametrize("rank", [None, 1])
@pytest.mark.parametrize("seed,d", [(5, 2), (6, 3)])
def test_purified_chain_matches_density_reference(seed, d, rank):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, d) if rank is None else _rank_one_density(rng, d)
    steps = _steps(rng, d)
    chain = init_chain(DensityState("S", rho))
    for step in steps:
        chain = _attach(chain, step)
    assert chain.state.ndim == len(chain.devices) + 2  # an ancilla axis
    # System, ancilla (one state per nonzero eigenvalue), MA, MW, R.
    system, ancilla, *pointers = chain.state.shape
    assert (system, pointers) == (d, [d, d, d + 1])
    assert ancilla == (1 if rank == 1 else d)
    assert_allclose(chain.initial_system_state, rho, atol=1e-15)

    ref, dims, labels = _density_reference(rho, steps)
    for label in ("MA", "MW", "R"):
        dist = marginal_distribution(chain, label)
        for (k,), p in dist.entries:
            want = _reference_probability(ref, dims, labels, [(label, k)])
            assert abs(p - want) <= 1e-14
    for j in range(1, d + 1):
        p_given = _reference_probability(ref, dims, labels, [("MA", j)])
        if p_given <= 1e-6:
            continue
        want = _reference_probability(ref, dims, labels, [("MA", j), ("MW", 1)]) / p_given
        got = conditional_probability(chain, OutcomeEvent("MW", 1), [OutcomeEvent("MA", j)])
        assert abs(got - want) <= 1e-14
    rest = ref.shape[0] // d
    want_red = np.einsum("iaja->ij", ref.reshape(d, rest, d, rest))
    assert_allclose(reduced_system_state(chain).matrix, want_red, rtol=0, atol=1e-14)


def test_purification_keeps_one_ancilla_state_per_positive_eigenvalue():
    v = np.array([0.6, 0.8j], dtype=complex)
    chain = init_chain(np.outer(v, v.conj()))
    assert chain.state.shape == (2, 1)
    assert_allclose(np.linalg.norm(chain.state), 1.0, atol=1e-15)
    # The round-off eigenvalues of a rank-1 state get no ancilla state.
    for seed in range(5):
        v = random_state_vector(np.random.default_rng(seed), 64)
        assert init_chain(np.outer(v, v.conj())).state.shape == (64, 1)
    # A negative eigenvalue within DensityState's tolerance is dropped and
    # the rest renormalized, so probabilities stay within [0, 1].
    edge = init_chain(np.diag([1 + 5e-11, -5e-11]).astype(complex))
    assert edge.state.shape == (2, 1)
    assert_allclose(np.linalg.norm(edge.state), 1.0, rtol=0, atol=1e-15)
    full = init_chain(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert full.state.shape == (3, 3)
    assert_allclose(reduced_system_state(full).matrix, np.diag([0.5, 0.3, 0.2]), atol=1e-15)

"""The chain core holds one state vector: devices attach through the ready
column of their interaction, and mixed starts are purified onto an ancilla.

Both are checked against the routes they replace: the full interaction
applied to the ready-extended vector, and a density matrix evolved as
``U rho U^dagger`` with every operator written out as Kronecker products.
"""

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
    Disturbance,
    apply_evolution,
    attach_device,
    build_ideal_unitary,
    build_weak_unitary,
    init_chain,
    make_reader_device,
)
from premeasure.linalg import apply_operator, hermitian_evolution
from premeasure.model import DensityState, make_device, make_observable
from premeasure.sampling import (
    random_density_matrix,
    random_orthonormal_basis,
    random_state_vector,
    random_unitary,
)


def _obs(rng, label, d):
    values = [float(k) for k in range(d)]
    return make_observable(label, "S", values, random_orthonormal_basis(rng, d))


def _steps(rng, d):
    """Ideal, weak, reader and evolve steps on a d-dimensional system.

    Each step is (kind, device or unitary, extra) with the interaction built
    the way ``attach_device`` builds it.
    """
    a = make_device("MA", _obs(rng, "A", d))
    dist = Disturbance(tuple(random_unitary(rng, d) for _ in range(d)))
    w = make_device("MW", _obs(rng, "W", d))
    r = make_reader_device("R", a)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return [
        ("ideal", a, None),
        ("evolve", hermitian_evolution((g + g.conj().T) / 2, 0.7), None),
        ("weak", w, dist),
        ("reader", r, "MA"),
    ]


def _attach(chain, step):
    kind, obj, extra = step
    if kind == "ideal":
        return attach_device(chain, obj)
    if kind == "weak":
        return attach_device(chain, obj, mode="weak", disturbance=extra)
    if kind == "reader":
        return attach_device(chain, obj, mode="reader", target=extra)
    return apply_evolution(chain, obj)


def _interaction(step):
    kind, dev, extra = step
    if kind == "weak":
        return build_weak_unitary(dev.observable, dev, extra)
    return build_ideal_unitary(dev.observable, dev)


@pytest.mark.parametrize("seed,d", [(1, 2), (2, 3)])
def test_ready_column_attach_matches_full_interaction(seed, d):
    rng = np.random.default_rng(seed)
    chain = init_chain(random_state_vector(rng, d))
    for step in _steps(rng, d):
        grown = _attach(chain, step)
        kind, dev, extra = step
        if kind != "evolve":
            e0 = np.zeros(dev.pointer_dim, dtype=complex)
            e0[0] = 1.0
            anchor = extra if kind == "reader" else chain.system_label
            old = apply_operator(
                _interaction(step), (anchor, dev.label), grown.space,
                np.kron(chain.state, e0),
            )
            assert_allclose(grown.state, old, rtol=0, atol=1e-15)
        chain = grown


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
    rho = random_density_matrix(rng, d, rank)
    steps = _steps(rng, d)
    chain = init_chain(DensityState("S", rho))
    for step in steps:
        chain = _attach(chain, step)
    assert not chain.is_pure
    assert chain.state.ndim == 1
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
    assert chain.space.dims[0] == 2
    assert 1 <= chain.space.dims[1] <= 2
    assert_allclose(np.linalg.norm(chain.state), 1.0, atol=1e-15)
    # A negative eigenvalue within DensityState's tolerance is dropped and
    # the rest renormalized, so probabilities stay within [0, 1].
    edge = init_chain(np.diag([1 + 5e-11, -5e-11]).astype(complex))
    assert edge.space.dims == (2, 1)
    assert_allclose(np.linalg.norm(edge.state), 1.0, rtol=0, atol=1e-15)
    full = init_chain(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert full.space.dims == (3, 3)
    assert_allclose(reduced_system_state(full).matrix, np.diag([0.5, 0.3, 0.2]), atol=1e-15)

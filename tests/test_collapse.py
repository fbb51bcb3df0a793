import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure.collapse import (
    Evolve,
    collapse_branches,
    oracle_sequence_distribution,
    unknown_result_mixture,
)
from premeasure.linalg import as_state_vector
from premeasure.model import DensityState, Observable, make_degenerate_observable, make_observable
from premeasure.sampling import (
    random_degenerate_observable,
    random_density_matrix,
    random_state_vector,
)
from premeasure.tolerances import PRUNE_TOL

from reference import random_unitary


def _z_obs():
    return make_observable("Z", "S", [1.0, -1.0], np.eye(2, dtype=complex))


def test_collapse_branches_pure():
    branches = collapse_branches(np.array([0.6, 0.8], dtype=complex), _z_obs())
    assert [b.outcome_index for b in branches] == [1, 2]
    assert_allclose(branches[0].probability, 0.36, atol=1e-12)
    assert_allclose(branches[1].probability, 0.64, atol=1e-12)
    assert_allclose(branches[0].post_state, [1, 0], atol=1e-12)
    assert_allclose(branches[1].post_state, [0, 1], atol=1e-12)


def test_collapse_branches_skip_zero_probability():
    branches = collapse_branches(np.array([1.0, 0.0], dtype=complex), _z_obs())
    assert [b.outcome_index for b in branches] == [1]


def test_degenerate_branch_keeps_superposition():
    p1 = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]], dtype=complex)
    p2 = np.eye(3, dtype=complex) - p1
    obs = make_degenerate_observable("D", "S", [1.0, 2.0], [p1, p2])
    psi = np.ones(3, dtype=complex) / np.sqrt(3)
    branches = collapse_branches(psi, obs)
    first = branches[0]
    assert first.outcome_index == 1
    assert_allclose(first.probability, 2 / 3, atol=1e-12)
    assert_allclose(first.post_state, np.array([1, 1, 0]) / np.sqrt(2), atol=1e-12)


def test_collapse_branches_density():
    rho = np.diag([0.25, 0.75]).astype(complex)
    branches = collapse_branches(rho, _z_obs())
    assert_allclose(branches[0].probability, 0.25, atol=1e-12)
    assert_allclose(branches[0].post_state, np.diag([1.0, 0.0]), atol=1e-12)


def test_unknown_result_mixture():
    v = np.array([1.0, np.sqrt(2.0)], dtype=complex) / np.sqrt(3.0)
    mix = unknown_result_mixture(v, _z_obs())
    assert_allclose(mix.matrix, np.diag([1 / 3, 2 / 3]).astype(complex), atol=1e-12)


def test_oracle_sequence_with_evolution():
    # measure, flip, measure: the second record is the opposite of the first
    flip = np.array([[0, -1j], [-1j, 0]])
    dist = oracle_sequence_distribution(
        np.array([1.0, 0.0], dtype=complex),
        [_z_obs(), Evolve(flip), _z_obs()],
    )
    assert_allclose(dist.probability((1, 2)), 1.0, atol=1e-12)
    assert dist.probability((1, 1)) <= 1e-14
    assert dist.probability((2, 1)) <= 1e-14


def test_oracle_sequence_weights_sum_to_one():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    obs_a = make_observable("A", "S", [1.0, 2.0, 3.0, 4.0], [q[:, k] for k in range(4)])
    g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q2, _ = np.linalg.qr(g2)
    obs_b = make_observable("B", "S", [1.0, 2.0, 3.0, 4.0], [q2[:, k] for k in range(4)])
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = psi / np.linalg.norm(psi)
    dist = oracle_sequence_distribution(psi, [obs_a, obs_b])
    assert_allclose(sum(p for _, p in dist.entries), 1.0, atol=1e-10)
    # one table axis per measure step, in step order
    assert dist.table.shape == (4, 4)


def test_oracle_repeated_measurement_is_diagonal():
    psi = np.array([0.6, 0.8j], dtype=complex)
    dist = oracle_sequence_distribution(psi, [_z_obs(), _z_obs()])
    assert_allclose(dist.probability((1, 1)), 0.36, atol=1e-12)
    assert_allclose(dist.probability((2, 2)), 0.64, atol=1e-12)
    assert dist.probability((1, 2)) <= 1e-14


def test_oracle_requires_a_measurement():
    with pytest.raises(ValueError):
        oracle_sequence_distribution(
            np.array([1.0, 0.0], dtype=complex), [Evolve(np.eye(2, dtype=complex))]
        )


def test_evolve_rejects_nonunitary():
    with pytest.raises(ValueError):
        oracle_sequence_distribution(
            np.array([1.0, 0.0], dtype=complex),
            [_z_obs(), Evolve(np.array([[1, 1], [0, 1]], dtype=complex))],
        )


def test_evolve_rejects_nonunitary_on_a_mixed_frontier():
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="not unitary"):
        oracle_sequence_distribution(
            rho, [_z_obs(), Evolve(np.array([[1, 1], [0, 1]], dtype=complex))]
        )


@pytest.mark.parametrize(
    "start", [np.array([1.0, 0.0], dtype=complex), np.diag([0.5, 0.5]).astype(complex)]
)
def test_evolve_of_the_wrong_size_names_both_sizes(start):
    with pytest.raises(ValueError, match=r"^evolution has shape \(3, 3\), state dimension is 2$"):
        oracle_sequence_distribution(start, [_z_obs(), Evolve(np.eye(3))])


def _qutrit_fan(devices):
    z3 = make_observable("Z", "S", [0.0, 1.0, 2.0], np.eye(3, dtype=complex))
    dft = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    steps = [z3]
    for _ in range(devices - 1):
        steps += [Evolve(dft), z3]
    return steps


@pytest.mark.parametrize(
    "start, first",
    [
        (np.array([1.0, 0.0, 0.0], dtype=complex), [1.0, 0.0, 0.0]),
        (np.diag([0.5, 0.3, 0.2]).astype(complex), [0.5, 0.3, 0.2]),
    ],
)
def test_qutrit_fan_spreads_evenly_after_the_first_device(start, first):
    # The DFT takes every Z eigenstate to an even superposition, so after M1
    # each later device reads 1, 2 or 3 with probability 1/3.
    dist = oracle_sequence_distribution(start, _qutrit_fan(6))
    expected = np.multiply.outer(first, np.full((3,) * 5, 3.0**-5))
    assert dist.table.shape == (3,) * 6
    assert np.max(np.abs(dist.table - expected)) <= 1e-15


def test_branch_below_the_cumulative_weight_floor_is_kept():
    # Both factors of leaf (2, 1) are 1e-7, above PRUNE_TOL; their product,
    # 1e-14, is below it.  Pruning looks at each outcome's own probability,
    # so the rare row keeps its children and the leaf is kept like (1, 2).
    e = 1e-7
    s, c = np.sqrt(e), np.sqrt(1 - e)
    rotation = np.array([[c, -s], [s, c]], dtype=complex)
    dist = oracle_sequence_distribution(
        np.array([c, s], dtype=complex), [_z_obs(), Evolve(rotation), _z_obs()]
    )
    assert e > PRUNE_TOL and e * e <= PRUNE_TOL
    assert_allclose(dist.table[1, 0], e * e, rtol=1e-9)
    assert_allclose(dist.table[0, 1], (1 - e) * e, rtol=1e-9)
    assert_allclose(dist.table[1, 1], e * (1 - e), rtol=1e-9)


def _library_message(bad) -> str:
    """What ``as_state_vector`` or ``DensityState`` says about ``bad``."""
    with pytest.raises(ValueError) as caught:
        as_state_vector(bad) if bad.ndim == 1 else DensityState("S", bad)
    return str(caught.value)


_ENTRY_POINTS = {
    "sequence": lambda s: oracle_sequence_distribution(s, [_z_obs()]),
    "sequence-evolve-first": lambda s: oracle_sequence_distribution(
        s, [Evolve(np.eye(2)), _z_obs()]
    ),
    "branches": lambda s: collapse_branches(s, _z_obs()),
    "mixture": lambda s: unknown_result_mixture(s, _z_obs()),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@pytest.mark.parametrize(
    "bad",
    [
        np.array([1.0, np.nan]),
        np.array([0.6, 0.6]),  # norm outside RENORM_WINDOW
        np.array([], dtype=complex),
        np.array([[0.5, np.inf], [0.0, 0.5]]),
        np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),  # not Hermitian
        np.diag([0.6, 0.6]).astype(complex),  # trace outside RENORM_WINDOW
        np.diag([1.5, -0.5]).astype(complex),  # negative eigenvalue
        np.zeros((0, 0), dtype=complex),
        np.full((2, 3), 0.5),
    ],
    ids=[
        "vector-nan", "norm", "vector-empty", "matrix-inf", "hermitian", "trace",
        "negative", "matrix-empty", "not-square",
    ],
)
def test_a_bad_start_is_refused_once_with_the_library_message(entry, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(_library_message(bad))}$"):
        _ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_a_3d_start_is_neither_a_vector_nor_a_density_matrix(entry):
    with pytest.raises(ValueError, match="^state must be a vector or a density matrix$"):
        _ENTRY_POINTS[entry](np.zeros((2, 2, 2)))


@pytest.mark.parametrize("entry", ["sequence", "branches", "mixture"])
def test_a_start_of_the_wrong_dimension_names_both_dimensions(entry):
    with pytest.raises(ValueError, match="^state dimension 3 does not match 2$"):
        _ENTRY_POINTS[entry](np.array([1.0, 0.0, 0.0]))


def _hadamard(d):
    h = np.ones((1, 1))
    while len(h) < d:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(d)


def test_oracle_peak_stays_under_the_incoming_and_projected_stacks():
    # Twelve 2-outcome devices alternating between the two halves of the
    # standard and of the Hadamard basis keep all 2**12 branches of a d = 64
    # start.  The last step holds its 2**11-branch input and the 2**12
    # projected states, 1.5 final frontiers; a per-step copy of the input
    # would reach 2.
    d, devices = 64, 12
    halves = np.repeat([1, 2], d // 2)
    obs = [
        Observable("Z", "S", (1.0, -1.0), np.eye(d), halves),
        Observable("X", "S", (1.0, -1.0), _hadamard(d), halves),
    ]
    steps = [obs[i % 2] for i in range(devices)]
    for o in obs:
        o.projectors  # built on first read, outside the measured peak
    tracemalloc.start()
    try:
        dist = oracle_sequence_distribution(np.ones(d) / np.sqrt(d), steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(dist.table) == 2**devices
    final = 16 * 2**devices * d
    assert peak <= 1.75 * final


def _loop_oracle(state, steps):
    """Per-branch reference: recurse over outcomes with one projector at a time."""
    table = {}

    def walk(st, i, prefix, weight):
        if i == len(steps):
            table[prefix] = weight
            return
        step = steps[i]
        if isinstance(step, Evolve):
            u = step.unitary
            walk(u @ st if st.ndim == 1 else u @ st @ u.conj().T, i + 1, prefix, weight)
            return
        for k, proj in enumerate(step.projectors):
            w = proj @ st if st.ndim == 1 else proj @ st @ proj
            p = np.vdot(w, w).real if st.ndim == 1 else np.trace(w).real
            if p > PRUNE_TOL:
                post = w / np.sqrt(p) if st.ndim == 1 else w / p
                walk(post, i + 1, prefix + (k,), weight * p)

    walk(state, 0, (), 1.0)
    return table


@pytest.mark.parametrize("seed", range(6))
def test_stacked_frontier_matches_the_per_branch_loop(seed):
    rng = np.random.default_rng(seed)
    d = 4
    obs_a = random_degenerate_observable(rng, d, "A")
    obs_b = random_degenerate_observable(rng, d, "B")
    u = random_unitary(rng, d)
    steps = [obs_a, Evolve(u), obs_b, obs_a, Evolve(u), obs_b]
    start = random_state_vector(rng, d) if seed % 2 else random_density_matrix(rng, d)
    dist = oracle_sequence_distribution(start, steps)
    expected = np.zeros(dist.table.shape)
    for prefix, weight in _loop_oracle(np.asarray(start, dtype=complex), steps).items():
        expected[prefix] = weight
    assert np.max(np.abs(dist.table - expected)) <= 1e-14

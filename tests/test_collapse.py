import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import premeasure
from premeasure import collapse, dsl, engine
from premeasure.chain import make_reader_device
from premeasure.collapse import (
    Evolve,
    collapse_branches,
    oracle_sequence_distribution,
    unknown_result_mixture,
)
from premeasure.linalg import as_state_vector
from premeasure.model import (
    DensityState,
    DeviceSpec,
    Disturbance,
    Observable,
    make_degenerate_observable,
    make_device,
    make_observable,
)
from premeasure.sampling import (
    random_degenerate_observable,
    random_density_matrix,
    random_observable,
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


def _weak_step(*unitaries):
    return DeviceSpec("MW", _z_obs(), Disturbance(unitaries))


def test_a_weak_step_measures_then_applies_that_outcome_r():
    # R_1 = 1 keeps |0>; R_2 = X turns |1> into |0>: the second Z always shows 1.
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for start in (np.array([0.6, 0.8]), np.diag([0.36, 0.64])):
        dist = oracle_sequence_distribution(start, [_weak_step(np.eye(2), sx), _z_obs()])
        assert_allclose(dist.table, [[0.36, 0.0], [0.64, 0.0]], atol=1e-15)


@pytest.mark.parametrize("unitaries,message", [
    ((np.eye(2),), "need 2 disturbance unitaries, got 1"),
    ((np.eye(2), np.eye(3)), r"disturbance 2 has shape \(3, 3\), state dimension is 2"),
])
def test_a_weak_step_checks_its_disturbance(unitaries, message):
    # The oracle checks the R_k itself, whatever the device record checked.
    step = _weak_step(np.eye(2), np.eye(2))
    object.__setattr__(step.disturbance, "unitaries", unitaries)
    with pytest.raises(ValueError, match=message):
        oracle_sequence_distribution(np.array([1.0, 0.0]), [step])


def test_a_weak_step_checks_each_r_unitary():
    step = _weak_step(np.eye(2), np.eye(2))
    object.__setattr__(step.disturbance, "unitaries", (np.eye(2), 1.1 * np.eye(2)))
    with pytest.raises(ValueError, match="disturbance 2 operator is not unitary"):
        oracle_sequence_distribution(np.array([1.0, 0.0]), [step])


def test_a_reader_is_not_an_oracle_step():
    spec = make_device("M1", _z_obs())
    with pytest.raises(ValueError, match="unknown oracle step"):
        oracle_sequence_distribution(
            np.array([1.0, 0.0]), [_z_obs(), make_reader_device("R", spec)]
        )


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


def test_the_oracle_imports_nothing_from_the_chain():
    # The oracle is the independent reference the chain is checked against.
    tree = ast.parse(Path(collapse.__file__).read_text(encoding="utf-8"))
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package, where collapse.py sits
                module = f"premeasure.{module}".rstrip(".")
            named += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert named and not [n for n in named if n.startswith("premeasure.chain")]


@pytest.mark.parametrize("start", [
    np.array([0.6, 0.8j, 0.0]), np.diag([0.5, 0.3, 0.2]).astype(complex),
], ids=["pure", "mixed"])
def test_an_ideal_device_step_is_its_observable(start):
    rng = np.random.default_rng(8)
    a, b = random_degenerate_observable(rng, 3, "A"), random_observable(rng, 3, "B")
    u = Evolve(random_unitary(rng, 3))
    bare = oracle_sequence_distribution(start, [a, u, b, a])
    devices = [make_device("M1", a), u, make_device("M2", b), make_device("M3", a)]
    assert np.array_equal(oracle_sequence_distribution(start, devices).table, bare.table)


# The oracle's tables of weak_flip plus ``query equivalence``, pinned: a weak
# device's record must give them bit for bit.
WEAK_FLIP_TABLES = {
    "pure [0.6, 0.8]": [[0.36, 0.0], [0.6400000000000001, 0.0]],
    "mixed [[0.7, 0.1], [0.1, 0.3]]": [[0.7, 0.0], [0.3, 0.0]],
}


@pytest.mark.parametrize("start", list(WEAK_FLIP_TABLES), ids=["pure", "mixed"])
def test_a_weak_device_step_keeps_the_weak_flip_tables(start):
    text = premeasure.bundled_scenario_path("weak_flip").read_text(encoding="utf-8")
    scenario = dsl.parse_scenario(
        text.replace("state pure [0.6, 0.8]", f"state {start}") + "query equivalence\n")
    z = scenario.program.observables["Z"]
    weak = DeviceSpec("MW", z, Disturbance((np.eye(2), np.array([[0, 1], [1, 0]]))))
    by_hand = oracle_sequence_distribution(
        scenario.program.initial_state, [weak, make_device("M2", z)])
    planned = oracle_sequence_distribution(*engine.oracle_plan(scenario)[:2])
    assert by_hand.table.tolist() == planned.table.tolist() == WEAK_FLIP_TABLES[start]


def test_a_reader_device_step_is_refused_after_its_target():
    spec = make_device("M1", _z_obs())
    with pytest.raises(ValueError, match=r"unknown oracle step DeviceSpec\(label='R'"):
        oracle_sequence_distribution(np.array([1.0, 0.0]), [spec, make_reader_device("R", spec)])

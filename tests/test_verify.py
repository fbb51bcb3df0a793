import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure import dsl, engine
from premeasure.born import OutcomeEvent, conditional_probability, joint_distribution
from premeasure.chain import Disturbance, attach_device, init_chain, make_reader_device
from premeasure.model import make_device, make_observable
from premeasure.sampling import random_scenario
from premeasure.verify import (
    WeakDeviceError,
    collapse_equivalence_report,
    partial_trace_check,
    repeatability_matrix,
)

import reference

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
QUBIT_ZX = (
    "system dim 2\nstate pure [0.6, 0.8]\n"
    "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
    "observable X eigen [1, -1] basis "
    "[[0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]]\n"
)


def _z_obs():
    return make_observable("Z", "S", [1.0, -1.0], np.eye(2, dtype=complex))


def _ideal_pair(state):
    chain = init_chain(np.asarray(state, dtype=complex))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    chain = attach_device(chain, make_device("M2", _z_obs()))
    return chain


def test_repeatability_identity_for_ideal_pair():
    rep = repeatability_matrix(_ideal_pair([0.6, 0.8]), "M1", "M2")
    assert rep.passed
    assert rep.max_identity_deviation <= 1e-12
    assert_allclose(rep.rows[0], [1.0, 0.0], atol=1e-12)
    assert_allclose(rep.rows[1], [0.0, 1.0], atol=1e-12)


def test_repeatability_marks_zero_probability_rows():
    rep = repeatability_matrix(_ideal_pair([1.0, 0.0]), "M1", "M2")
    assert rep.rows[1] is None
    assert rep.passed


def test_repeatability_breaks_for_weak_flip():
    chain = init_chain(np.array([0.6, 0.8], dtype=complex))
    dist = Disturbance((np.eye(2, dtype=complex), SX))
    chain = attach_device(chain, make_device("MW", _z_obs()), disturbance=dist)
    chain = attach_device(chain, make_device("M2", _z_obs()))
    rep = repeatability_matrix(chain, "MW", "M2")
    assert not rep.passed
    assert_allclose(rep.rows[0], [1.0, 0.0], atol=1e-12)
    assert_allclose(rep.rows[1], [1.0, 0.0], atol=1e-12)
    assert_allclose(rep.max_identity_deviation, 1.0, atol=1e-12)


def test_repeatability_rejects_same_device():
    with pytest.raises(ValueError, match="distinct"):
        repeatability_matrix(_ideal_pair([0.6, 0.8]), "M1", "M1")


def test_equivalence_report_on_simple_scenario():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "observable X eigen [1, -1] basis "
        "[[0.70710678,0.70710678],[0.70710678,-0.70710678]]\n"
        "device M1 measures Z\ndevice M2 measures X\n"
    )
    rep = collapse_equivalence_report(s, engine.build_chain(s))
    assert rep.passed
    assert rep.max_deviation <= 1e-12
    kinds = {r.query.split()[0] for r in rep.records}
    assert kinds == {"joint", "marginal", "conditional"}


def test_equivalence_report_random_scenarios():
    for trial in range(15):
        rng = np.random.default_rng([123, trial])
        s = random_scenario(rng, max_dim=4, max_depth=3)
        rep = collapse_equivalence_report(s, engine.build_chain(s), tol=1e-9)
        assert rep.passed, (trial, rep.max_deviation)


def test_equivalence_rejects_weak_devices():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device MW measures Z weak [[1,0],[0,1]] [[0,1],[1,0]]\n"
    )
    with pytest.raises(WeakDeviceError):
        collapse_equivalence_report(s, engine.build_chain(s))


def test_partial_trace_check_single_device():
    chain = init_chain(np.array([1.0, np.sqrt(2.0)], dtype=complex) / np.sqrt(3.0))
    chain = attach_device(chain, make_device("M1", _z_obs()))
    rep = partial_trace_check(chain)
    assert rep.passed
    assert rep.max_deviation <= 1e-12


def test_partial_trace_check_needs_one_device():
    rep_chain = _ideal_pair([0.6, 0.8])
    with pytest.raises(ValueError, match="exactly one"):
        partial_trace_check(rep_chain)


def test_reader_leaves_system_conditionals_unchanged():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _r = np.linalg.qr(g)
        obs_a = make_observable("A", "S", [1.0, 2.0, 3.0], [q[:, k] for k in range(3)])
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _r = np.linalg.qr(g)
        obs_b = make_observable("B", "S", [1.0, 2.0, 3.0], [q[:, k] for k in range(3)])
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = psi / np.linalg.norm(psi)

        bare = init_chain(psi)
        bare = attach_device(bare, make_device("M1", obs_a))
        bare = attach_device(bare, make_device("MB", obs_b))

        read = init_chain(psi)
        read = attach_device(read, make_device("M1", obs_a))
        rdev = make_reader_device("R", read.device("M1").spec)
        read = attach_device(read, rdev)
        read = attach_device(read, make_device("MB", obs_b))

        for j in range(1, 4):
            pj = conditional_probability(
                bare, OutcomeEvent("MB", j), [OutcomeEvent("M1", 1)]
            )
            qj = conditional_probability(
                read, OutcomeEvent("MB", j), [OutcomeEvent("M1", 1)]
            )
            assert abs(pj - qj) <= 1e-12


def _masked_reference(chain, events):
    # The devices are the state's trailing axes; outcome k of a device sits
    # at index k - 1 of its axis.
    block = chain.state
    first = block.ndim - len(chain.devices)
    index = [slice(None)] * block.ndim
    for label, k in events:
        index[first + chain.device_labels.index(label)] = k - 1
    return float(np.sum(np.abs(block[tuple(index)]) ** 2))


@pytest.mark.parametrize("weak", [False, True])
def test_repeatability_rows_match_masked_reference(weak):
    rng = np.random.default_rng(5)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    obs = make_observable("A", "S", [1.0, 2.0, 3.0], [q[:, k] for k in range(3)])
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    chain = init_chain(w @ w.conj().T / np.trace(w @ w.conj().T))
    if weak:
        dist = Disturbance(tuple(np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(3)))
        chain = attach_device(chain, make_device("M1", obs), disturbance=dist)
    else:
        chain = attach_device(chain, make_device("M1", obs))
    chain = attach_device(chain, make_device("M2", obs))
    rep = repeatability_matrix(chain, "M1", "M2")
    for j, row in enumerate(rep.rows, start=1):
        p_first = _masked_reference(chain, [("M1", j)])
        for k, p in enumerate(row, start=1):
            assert abs(p - _masked_reference(chain, [("M1", j), ("M2", k)]) / p_first) <= 1e-15
    assert rep.passed is not weak


def test_equivalence_report_records_in_order():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device M1 measures Z\ndevice R reads M1\ndevice M2 measures Z\n"
    )
    rep = collapse_equivalence_report(s, engine.build_chain(s))
    assert [r.query for r in rep.records] == [
        "joint M1=1 M2=1", "joint M1=1 M2=2", "joint M1=2 M2=1", "joint M1=2 M2=2",
        "marginal M1=1", "marginal M1=2", "marginal M2=1", "marginal M2=2",
        "conditional M2=1 given M1=1", "conditional M2=2 given M1=1",
        "conditional M2=1 given M1=2", "conditional M2=2 given M1=2",
    ]
    assert_allclose([r.chain_value for r in rep.records[:4]], [0.36, 0, 0, 0.64], atol=1e-15)
    assert rep.max_deviation <= 1e-15


# Edge cases of the array report: (scenario text, number of conditionals).
EDGE_CASES = {
    "one system device": (QUBIT_ZX + "device M1 measures Z\n", 0),
    "mixed outcome counts": (
        "system dim 3\nstate pure [0.8, 0.2, 0.1]\n"
        "observable D projectors [1, 2] [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]] "
        "[[0.5, -0.5, 0], [-0.5, 0.5, 0], [0, 0, 1]]\n"
        "observable F eigen [1, 2, 3] basis [[0.6, 0.8, 0], [0.8, -0.6, 0], [0, 0, 1]]\n"
        "device M1 measures D\ndevice M2 measures F\ndevice M3 measures D\n",
        2 * 3 + 2 * 2 + 3 * 2,
    ),
    "reader between system devices": (
        QUBIT_ZX + "device M1 measures Z\ndevice R reads M1\ndevice M2 measures X\n",
        2 * 2,
    ),
    # M1=2 and M2=2 never fire, so the rows given them are dropped.
    "zero-probability condition": (
        QUBIT_ZX.replace("[0.6, 0.8]", "[1, 0]")
        + "device M1 measures Z\ndevice M2 measures Z\ndevice M3 measures X\n",
        2 + 2 + 2,
    ),
}


@pytest.mark.parametrize("text, conditionals", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_equivalence_arrays_match_the_reference(text, conditionals):
    s = dsl.parse_scenario(text + "query equivalence\n")
    rep = collapse_equivalence_report(s, engine.build_chain(s))
    want = reference.answers(s)[-1]["result"]["records"]
    assert list(rep.queries) == [r["query"] for r in want]
    assert sum(q.startswith("conditional") for q in rep.queries) == conditionals
    assert rep.chain_values.dtype == rep.oracle_values.dtype == np.float64
    assert_allclose(rep.chain_values, [r["chain"] for r in want], rtol=0, atol=1e-12)
    assert_allclose(rep.oracle_values, [r["oracle"] for r in want], rtol=0, atol=1e-12)
    records = rep.records
    assert len(records) == len(want) == rep.deviations.size
    assert rep.max_deviation == max(r.abs_deviation for r in records)
    assert rep.passed


def test_partial_trace_check_arrays_and_records():
    s = dsl.parse_scenario(EDGE_CASES["mixed outcome counts"][0])
    device = make_device("M1", s.program.observables["D"])
    chain = attach_device(init_chain(s.program.initial_state), device)
    rep = partial_trace_check(chain)
    assert rep.queries == tuple(f"reduced[{j}][{k}]" for j in range(3) for k in range(3))
    assert rep.chain_values.dtype == np.complex128
    records = rep.records
    assert len(records) == 9
    assert rep.max_deviation == max(r.abs_deviation for r in records)
    assert [r.chain_value for r in records] == rep.chain_values.tolist()
    assert rep.passed


def test_equivalence_marginals_and_conditionals_match_exact_sums():
    # 12 qubit devices alternating Z and X: 4,096 joint outcomes, none zero.
    labels = [f"M{i}" for i in range(1, 13)]
    text = QUBIT_ZX + "".join(
        f"device {dev} measures {'ZX'[i % 2]}\n" for i, dev in enumerate(labels)
    )
    s = dsl.parse_scenario(text)
    chain = engine.build_chain(s)
    rep = collapse_equivalence_report(s, chain)
    table = joint_distribution(chain, labels).table

    def exact(fixed):
        index = [slice(None)] * table.ndim
        for axis, k in fixed:
            index[axis] = k
        return math.fsum(table[tuple(index)].ravel().tolist())

    # The typical round-off of a sum of N terms grows as sqrt(N) units of eps.
    bound = math.sqrt(table.size) * np.finfo(float).eps
    values = dict(zip(rep.queries, rep.chain_values.tolist()))
    assert len(values) == table.size + 12 * 2 + 66 * 2 * 2
    for i, dev in enumerate(labels):
        for k in (1, 2):
            assert abs(values[f"marginal {dev}={k}"] - exact([(i, k - 1)])) <= bound
    for i, j in itertools.combinations(range(12), 2):
        for e in (1, 2):
            given = exact([(i, e - 1)])
            for k in (1, 2):
                got = values[f"conditional {labels[j]}={k} given {labels[i]}={e}"]
                assert abs(got - exact([(i, e - 1), (j, k - 1)]) / given) <= bound

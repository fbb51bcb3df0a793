import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure import dsl
from premeasure.chain import make_reader_device
from premeasure.model import (
    DensityState,
    DeviceSpec,
    Disturbance,
    Observable,
    make_degenerate_observable,
    make_device,
    make_observable,
)


def _z():
    return make_observable("Z", "S", [1.0, -1.0], np.eye(2, dtype=complex))


def _matrix(obs):
    """The operator reassembled as sum of a_k P_k."""
    return sum(a * p for a, p in zip(obs.eigenvalues, obs.projectors))


def test_make_observable_projectors():
    obs = _z()
    assert obs.outcome_count == 2
    assert obs.dim == 2
    assert_allclose(obs.projectors[0], np.diag([1, 0]).astype(complex))
    assert_allclose(obs.projectors[1], np.diag([0, 1]).astype(complex))
    assert_allclose(_matrix(obs), np.diag([1.0, -1.0]).astype(complex))


def test_make_observable_rejects_duplicate_eigenvalues():
    with pytest.raises(ValueError, match="distinct"):
        make_observable("Z", "S", [1.0, 1.0], np.eye(2, dtype=complex))


def test_make_observable_rejects_skew_basis():
    basis = np.array([[1, 0], [1, 1]], dtype=complex) / np.sqrt([1, 2])[:, None]
    with pytest.raises(ValueError, match="orthonormal"):
        make_observable("A", "S", [1.0, 2.0], basis)


def test_make_observable_accepts_eight_digit_rows():
    b = np.array(
        [[0.70710678, 0.70710678], [0.70710678, -0.70710678]], dtype=complex
    )
    b = b / np.linalg.norm(b, axis=1)[:, None]
    obs = make_observable("X", "S", [1.0, -1.0], b)
    assert_allclose(_matrix(obs), np.array([[0, 1], [1, 0]], dtype=complex), atol=1e-12)


def test_degenerate_observable():
    p1 = np.diag([1, 1, 0]).astype(complex)
    p2 = np.diag([0, 0, 1]).astype(complex)
    obs = make_degenerate_observable("D", "S", [5.0, -2.0], [p1, p2])
    assert obs.outcome_count == 2
    assert obs.dim == 3
    assert_allclose(_matrix(obs), np.diag([5.0, 5.0, -2.0]).astype(complex))


def test_degenerate_observable_requires_completeness():
    p1 = np.diag([1, 0, 0]).astype(complex)
    p2 = np.diag([0, 1, 0]).astype(complex)
    with pytest.raises(ValueError, match="identity"):
        make_degenerate_observable("D", "S", [1.0, 2.0], [p1, p2])


def test_degenerate_observable_requires_orthogonality():
    p = np.diag([1, 1, 0]).astype(complex)
    q = np.diag([0, 1, 1]).astype(complex)
    with pytest.raises(ValueError):
        make_degenerate_observable("D", "S", [1.0, 2.0], [p, q])


@pytest.mark.parametrize("overlap, accepted", [(1e-12, True), (1e-9, False)])
def test_degenerate_overlap_is_bounded_like_the_entrywise_check(overlap, accepted):
    # Two rank-1 projectors whose vectors overlap by ``overlap``; max|P1 P2|
    # equals the overlap, so 1e-9 fails the 1e-10 orthogonality bound.
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([overlap, np.sqrt(1 - overlap**2)], dtype=complex)
    p1, p2 = np.outer(v1, v1.conj()), np.outer(v2, v2.conj())
    assert abs(np.max(np.abs(p1 @ p2)) - overlap) <= 1e-20
    if accepted:
        make_degenerate_observable("D", "S", [1.0, 2.0], [p1, p2])
    else:
        with pytest.raises(ValueError, match="projectors 1 and 2 are not orthogonal"):
            make_degenerate_observable("D", "S", [1.0, 2.0], [p1, p2])


def test_degenerate_observable_rejects_an_empty_eigenspace():
    p1 = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="2 eigenvalues but 1 eigenspaces"):
        make_degenerate_observable("D", "S", [1.0, 2.0], [p1, np.zeros((2, 2))])


def test_observable_arrays_are_readonly():
    obs = _z()
    with pytest.raises(ValueError):
        obs.projectors[0][0, 0] = 9.0


def test_density_state_validation():
    rho = DensityState("S", np.diag([0.25, 0.75]).astype(complex))
    assert rho.dim == 2
    with pytest.raises(ValueError, match="Hermitian"):
        DensityState("S", np.array([[0.5, 1], [0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityState("S", np.diag([0.8, 0.8]).astype(complex))
    with pytest.raises(ValueError):
        DensityState("S", np.diag([1.5, -0.5]).astype(complex))


def test_density_state_renormalizes_tiny_trace_drift():
    rho = DensityState("S", np.diag([0.5 + 2e-9, 0.5]).astype(complex))
    assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-14)


def test_make_device_pointer_layout():
    dev = make_device("M1", _z())
    assert dev.label == "M1"
    assert dev.pointer_dim == 3


@pytest.mark.parametrize("reads,unitaries,message", [
    (True, (np.eye(3),) * 3, "reader attachment takes no disturbance"),
    (False, (np.eye(2),), "need 2 disturbance unitaries, got 1"),
    (False, (np.eye(3),) * 2, "disturbance dimension 3 does not match system dimension 2"),
], ids=["reader", "count", "dimension"])
def test_a_device_record_refuses_a_disturbance_that_does_not_fit(reads, unitaries, message):
    # A malformed weak device fails where it is made, not at its first use.
    observable = make_reader_device("R", make_device("M1", _z())).observable if reads else _z()
    disturbance = Disturbance(unitaries)
    with pytest.raises(ValueError, match=re.escape(message)):
        DeviceSpec("W", observable, disturbance)


def test_observable_requires_projector_property():
    bad = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # projector
    not_proj = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        make_degenerate_observable("D", "S", [1.0, 2.0], [bad, not_proj])


def test_validation_memory_is_a_small_multiple_of_the_basis():
    d = 256
    rows = ", ".join(
        "[" + ", ".join("1" if i == j else "0" for j in range(d)) + "]" for i in range(d)
    )
    scenario = dsl.parse_scenario(
        f"system dim {d}\nstate pure [{', '.join(['1'] + ['0'] * (d - 1))}]\n"
        f"observable A eigen [{', '.join(str(k) for k in range(d))}] basis [{rows}]\n"
    )
    tracemalloc.start()
    try:
        assert dsl.validate_scenario(scenario) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * d * d * np.dtype(np.complex128).itemsize

import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure.model import (
    DensityState,
    Observable,
    make_degenerate_observable,
    make_device,
    make_observable,
)


def _z():
    return make_observable("Z", "S", [1.0, -1.0], np.eye(2, dtype=complex))


def test_make_observable_projectors():
    obs = _z()
    assert obs.outcome_count == 2
    assert obs.dim == 2
    assert_allclose(obs.projector(1), np.diag([1, 0]).astype(complex))
    assert_allclose(obs.projector(2), np.diag([0, 1]).astype(complex))
    assert_allclose(obs.matrix(), np.diag([1.0, -1.0]).astype(complex))


def test_projector_index_is_one_based():
    obs = _z()
    with pytest.raises(ValueError):
        obs.projector(0)
    with pytest.raises(ValueError):
        obs.projector(3)


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
    assert_allclose(obs.matrix(), np.array([[0, 1], [1, 0]], dtype=complex), atol=1e-12)


def test_degenerate_observable():
    p1 = np.diag([1, 1, 0]).astype(complex)
    p2 = np.diag([0, 0, 1]).astype(complex)
    obs = make_degenerate_observable("D", "S", [5.0, -2.0], [p1, p2])
    assert obs.outcome_count == 2
    assert obs.dim == 3
    assert_allclose(obs.matrix(), np.diag([5.0, 5.0, -2.0]).astype(complex))


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
    assert dev.ready_index == 0


def test_observable_requires_projector_property():
    bad = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # projector
    not_proj = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        make_degenerate_observable("D", "S", [1.0, 2.0], [bad, not_proj])

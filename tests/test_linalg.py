import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure.linalg import (
    apply_operator,
    as_complex_matrix,
    as_state_vector,
    hermitian_evolution,
    hermiticity_residual,
    is_unitary,
    partial_trace,
    unitarity_residual,
)

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def test_as_state_vector_renormalizes_near_unit():
    v = as_state_vector([0.70710678, 0.70710678])
    assert_allclose(np.linalg.norm(v), 1.0, atol=1e-15)


def test_as_state_vector_rejects_far_from_unit():
    with pytest.raises(ValueError, match="norm"):
        as_state_vector([0.7, 0.7])


def test_as_complex_matrix_rejects_nonmatrix():
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3], "m")


def test_is_hermitian_and_unitary():
    assert hermiticity_residual(SZ) == 0.0
    assert hermiticity_residual(1j * SZ) > 1.0
    assert is_unitary(SX)
    assert not is_unitary(2 * SX)


def test_apply_operator_vector_agrees_with_dense_route():
    rng = np.random.default_rng(3)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = apply_operator(op, [1], (2, 3), v)
    want = np.kron(np.eye(2), op) @ v
    assert_allclose(got, want, atol=1e-13)
    # Two target axes, listed out of order: op's factors follow the list.
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    swap = np.eye(4)[[0, 2, 1, 3]]  # exchanges the two qubit factors
    got = apply_operator(op, [2, 0], (2, 3, 2), v)
    dense = np.kron(np.eye(3), swap @ op @ swap).reshape(3, 2, 2, 3, 2, 2)
    want = dense.transpose(1, 0, 2, 4, 3, 5).reshape(12, 12) @ v
    assert_allclose(got, want, atol=1e-13)


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    red = partial_trace(rho, (2, 2), keep=[0])
    assert_allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keeps_requested_order():
    rng = np.random.default_rng(9)
    dims = (2, 3, 2)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho)
    red = partial_trace(rho, dims, keep=[2, 0])
    assert red.shape == (4, 4)
    assert_allclose(np.trace(red).real, 1.0, atol=1e-12)
    # order of keep is the order of the result's factors
    swapped = partial_trace(rho, dims, keep=[0, 2])
    perm = swapped.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert_allclose(red, perm, atol=1e-13)


def test_hermitian_evolution_halfpi_flip():
    # generator (pi/2) sx at t = 1 is a bit flip up to a global phase
    u = hermitian_evolution((np.pi / 2) * SX, 1.0)
    expected = np.array([[0, -1j], [-1j, 0]])
    assert_allclose(u, expected, atol=1e-12)


def test_hermitian_evolution_group_property():
    rng = np.random.default_rng(21)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2
    t1, t2 = 0.37, 1.21
    u12 = hermitian_evolution(h, t1) @ hermitian_evolution(h, t2)
    assert_allclose(u12, hermitian_evolution(h, t1 + t2), atol=1e-8)


def test_hermitian_evolution_is_unitary():
    rng = np.random.default_rng(22)
    for _ in range(5):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (g + g.conj().T) / 2
        u = hermitian_evolution(h, float(rng.uniform(0, 2 * np.pi)))
        assert unitarity_residual(u) <= 1e-10


def test_hermitian_evolution_rejects_bad_input():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_evolution(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)
    with pytest.raises(ValueError):
        hermitian_evolution(SZ, float("inf"))


@pytest.mark.filterwarnings("error")
def test_hermitian_evolution_rejects_overflowing_phases():
    h = np.diag([1e308, -1e308]).astype(complex)
    with pytest.raises(ValueError, match="not finite"):
        hermitian_evolution(h, 1e10)


def test_apply_operator_takes_state_vectors_only():
    with pytest.raises(ValueError, match="vector"):
        apply_operator(SX, [0], (2, 2), np.eye(4, dtype=complex) / 4)

import numpy as np
import pytest
from numpy.testing import assert_allclose

from premeasure.linalg import (
    CompositeSpace,
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
    v = as_state_vector([0.70710678, 0.70710678], "v")
    assert_allclose(np.linalg.norm(v), 1.0, atol=1e-15)


def test_as_state_vector_rejects_far_from_unit():
    with pytest.raises(ValueError, match="norm"):
        as_state_vector([0.7, 0.7], "v")


def test_as_complex_matrix_rejects_nonmatrix():
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3], "m")


def test_is_hermitian_and_unitary():
    assert hermiticity_residual(SZ) == 0.0
    assert hermiticity_residual(1j * SZ) > 1.0
    assert is_unitary(SX)
    assert not is_unitary(2 * SX)


def test_composite_space_bookkeeping():
    sp = CompositeSpace((("S", 2), ("M1", 3)))
    assert sp.dim == 6
    assert sp.labels == ("S", "M1")
    assert sp.index("M1") == 1
    assert sp.dim_of("S") == 2
    grown = sp.extended("M2", 4)
    assert grown.dims == (2, 3, 4)
    with pytest.raises(ValueError, match="unknown factor"):
        sp.index("nope")


def test_apply_operator_vector_agrees_with_dense_route():
    rng = np.random.default_rng(3)
    sp = CompositeSpace((("S", 2), ("M", 3)))
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = apply_operator(op, ["M"], sp, v)
    want = np.kron(np.eye(2), op) @ v
    assert_allclose(got, want, atol=1e-13)


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    sp = CompositeSpace((("S", 2), ("M", 2)))
    red = partial_trace(rho, sp, keep_labels=("S",))
    assert_allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keeps_requested_order():
    rng = np.random.default_rng(9)
    sp = CompositeSpace((("A", 2), ("B", 3), ("C", 2)))
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho)
    red = partial_trace(rho, sp, keep_labels=("C", "A"))
    assert red.shape == (4, 4)
    assert_allclose(np.trace(red).real, 1.0, atol=1e-12)
    # order of keep_labels is the order of the result's factors
    swapped = partial_trace(rho, sp, keep_labels=("A", "C"))
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
    sp = CompositeSpace((("S", 2), ("M", 2)))
    with pytest.raises(ValueError, match="vector"):
        apply_operator(SX, ["S"], sp, np.eye(4, dtype=complex) / 4)

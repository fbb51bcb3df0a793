"""Dense complex linear algebra on plain complex128 numpy arrays.

Input coercion and the unitarity / Hermiticity checks every module shares,
plus two operations on tensor-product spaces given by their factor sizes:
applying an operator to some axes of a state vector, and the partial trace.
Both reshape to one axis per factor and contract, instead of assembling
Kronecker products with identity blocks.  The chain needs neither (its state
already has one axis per factor); they are the dense routes the tests check
it against.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import DEFAULT_TOL, RENORM_WINDOW


def readonly(arr) -> np.ndarray:
    """Return an immutable complex128 copy of ``arr``."""
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-d complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_state_vector(v) -> np.ndarray:
    """Coerce ``v`` to a unit-norm 1-d complex128 array.

    Norm deviations below ``RENORM_WINDOW`` are repaired by renormalizing;
    larger deviations raise ValueError.
    """
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"state must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("state is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state contains non-finite entries")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) >= RENORM_WINDOW:
        raise ValueError(f"state has norm {norm:.12g}; expected 1 within {RENORM_WINDOW:g}")
    return arr / norm


def hermiticity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_residual(m: np.ndarray) -> float:
    """Largest entry of ``m^dagger m - 1``; a tall ``m`` is an isometry at 0."""
    eye = np.eye(m.shape[1], dtype=np.complex128)
    return float(np.max(np.abs(m.conj().T @ m - eye)))


def as_hermitian(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite square complex128 array, Hermitian within
    ``DEFAULT_TOL``."""
    arr = as_complex_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    res = hermiticity_residual(arr)
    if res > DEFAULT_TOL:
        raise ValueError(f"{name} is not Hermitian (residual {res:.3e})")
    return arr


def as_unitary(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite square complex128 array, unitary within
    ``DEFAULT_TOL``."""
    arr = as_complex_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    res = unitarity_residual(arr)
    if res > DEFAULT_TOL:
        raise ValueError(f"{name} is not unitary (residual {res:.3e})")
    return arr


def is_unitary(m) -> bool:
    """True when ``m^† m`` equals the identity entrywise within ``DEFAULT_TOL``."""
    arr = as_complex_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"is_unitary requires a square matrix, got shape {arr.shape}")
    return unitarity_residual(arr) <= DEFAULT_TOL


def apply_operator(op, axes, dims, state) -> np.ndarray:
    """Return ``op|state>`` for ``op`` acting on the listed axes of a state
    vector with factor sizes ``dims``, without materializing the embedded
    operator.  ``op`` orders its factors as ``axes`` lists them."""
    op = as_complex_matrix(op, "operator")
    axes, dims = list(axes), tuple(dims)
    tdims = tuple(dims[a] for a in axes)
    d = math.prod(tdims)
    if op.shape != (d, d):
        raise ValueError(
            f"operator has shape {op.shape}, expected {(d, d)} for target factors {tdims}"
        )
    state = np.asarray(state, dtype=np.complex128)
    size = math.prod(dims)
    if state.shape != (size,):
        raise ValueError(f"state has shape {state.shape}, expected a vector of size {size}")
    k = len(axes)
    psi = np.tensordot(
        op.reshape(tdims + tdims), state.reshape(dims), axes=(list(range(k, 2 * k)), axes)
    )
    return np.moveaxis(psi, list(range(k)), axes).reshape(-1)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every axis of a density operator with factor sizes ``dims``
    that ``keep`` does not list; the result's factors follow ``keep``."""
    rho = as_complex_matrix(rho, "density operator")
    keep, dims = list(keep), tuple(dims)
    n, size = len(dims), math.prod(dims)
    if rho.shape != (size, size):
        raise ValueError(f"operator has shape {rho.shape}, expected {(size, size)}")
    col_sub = [n + p if p in keep else p for p in range(n)]
    out_sub = keep + [n + p for p in keep]
    out = np.einsum(rho.reshape(dims + dims), list(range(n)) + col_sub, out_sub)
    d = math.prod(dims[p] for p in keep)
    return out.reshape(d, d)


def hermitian_evolution(h, t: float) -> np.ndarray:
    """Unitary ``exp(-i h t)`` of a Hermitian generator, via eigendecomposition."""
    h = as_hermitian(h, "generator")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    w, v = np.linalg.eigh(h)
    with np.errstate(over="ignore", invalid="ignore"):
        wt = w * t
    if not np.all(np.isfinite(wt)):
        raise ValueError("evolution phases overflow: eigenvalue times time is not finite")
    phases = np.exp(-1j * wt)
    return (v * phases) @ v.conj().T

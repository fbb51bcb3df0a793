"""Dense complex linear algebra over labelled tensor-factor spaces.

Everything operates on plain numpy arrays with dtype complex128.  Operations
on composite spaces (applying an operator to a subset of factors of a state
vector, partial trace) reshape to one axis per factor and contract, instead
of assembling Kronecker products with identity blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def as_state_vector(v, name: str = "state") -> np.ndarray:
    """Coerce ``v`` to a unit-norm 1-d complex128 array.

    Norm deviations below ``RENORM_WINDOW`` are repaired by renormalizing;
    larger deviations raise ValueError.
    """
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) >= RENORM_WINDOW:
        raise ValueError(
            f"{name} has norm {norm:.12g}; expected 1 within {RENORM_WINDOW:g}"
        )
    return arr / norm


def hermiticity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_residual(m: np.ndarray) -> float:
    eye = np.eye(m.shape[0], dtype=np.complex128)
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


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True when ``m^† m`` equals the identity entrywise within ``tol``."""
    arr = as_complex_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"is_unitary requires a square matrix, got shape {arr.shape}")
    return unitarity_residual(arr) <= tol


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of labelled factors.

    ``factors`` is a tuple of (label, dimension) pairs; labels are unique and
    their order fixes the axis layout of every state and operator on the
    space.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(lbl), int(dim)) for lbl, dim in self.factors)
        if not factors:
            raise ValueError("composite space needs at least one factor")
        labels = [lbl for lbl, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for lbl, dim in factors:
            if dim < 1:
                raise ValueError(f"factor {lbl!r} has non-positive dimension {dim}")
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self.factors):
            if lbl == label:
                return i
        raise ValueError(f"unknown factor label {label!r}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.index(label)][1]

    def extended(self, label: str, dim: int) -> "CompositeSpace":
        """New space with one extra factor appended."""
        return CompositeSpace(self.factors + ((label, dim),))


def _target_positions(space: CompositeSpace, target_labels) -> list[int]:
    labels = list(target_labels)
    if not labels:
        raise ValueError("need at least one target label")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate target labels {labels}")
    return [space.index(lbl) for lbl in labels]


def apply_operator(op, target_labels, space: CompositeSpace, state: np.ndarray) -> np.ndarray:
    """Return ``op|state>`` for ``op`` acting on the listed factors of the
    state vector, without materializing the embedded operator."""
    op = as_complex_matrix(op, "operator")
    positions = _target_positions(space, target_labels)
    dims = space.dims
    tdims = [dims[p] for p in positions]
    d = math.prod(tdims)
    if op.shape != (d, d):
        raise ValueError(
            f"operator has shape {op.shape}, expected {(d, d)} for target factors {tdims}"
        )
    k = len(positions)
    opt = op.reshape(tuple(tdims) + tuple(tdims))

    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (space.dim,):
        raise ValueError(
            f"state has shape {state.shape}, expected a vector of size {space.dim}"
        )
    psi = np.tensordot(opt, state.reshape(dims), axes=(list(range(k, 2 * k)), positions))
    return np.moveaxis(psi, list(range(k)), positions).reshape(-1)


def partial_trace(rho, space: CompositeSpace, keep_labels) -> np.ndarray:
    """Trace out every factor not named in ``keep_labels``.

    The result's factor order follows ``keep_labels`` as given.
    """
    rho = as_complex_matrix(rho, "density operator")
    if rho.shape != (space.dim, space.dim):
        raise ValueError(f"operator has shape {rho.shape}, expected {(space.dim, space.dim)}")
    keep = _target_positions(space, keep_labels)
    dims = space.dims
    n = len(dims)
    t = rho.reshape(dims + dims)
    row_sub = list(range(n))
    col_sub = [n + p if p in keep else p for p in range(n)]
    out_sub = [p for p in keep] + [n + p for p in keep]
    out = np.einsum(t, row_sub + col_sub, out_sub)
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

"""Observables, density operators and measurement-device descriptions.

An :class:`Observable` is held in spectral form: a tuple of distinct real
eigenvalues paired with orthogonal projectors that sum to the identity.
Degenerate observables simply carry projectors of rank greater than one.
Outcome indices are 1-based throughout; index ``k`` refers to the k-th
eigenvalue / projector pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_complex_matrix, as_hermitian, hermiticity_residual, readonly
from .tolerances import DEFAULT_TOL, EIGENVALUE_SEPARATION, RENORM_WINDOW


@dataclass(frozen=True, eq=False)
class Observable:
    """Spectral decomposition of a Hermitian operator on one labelled factor."""

    label: str
    space_label: str
    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        eigenvalues = tuple(float(a) for a in self.eigenvalues)
        projectors = tuple(as_complex_matrix(p, "projector") for p in self.projectors)
        if len(eigenvalues) == 0:
            raise ValueError("observable needs at least one outcome")
        if len(eigenvalues) != len(projectors):
            raise ValueError(
                f"{len(eigenvalues)} eigenvalues but {len(projectors)} projectors"
            )
        if not all(np.isfinite(eigenvalues)):
            raise ValueError("eigenvalues contain non-finite entries")
        d = projectors[0].shape[0]
        for p in projectors:
            if p.shape != (d, d):
                raise ValueError(f"projector shapes disagree: {p.shape} vs {(d, d)}")

        vals = sorted(eigenvalues)
        for a, b in zip(vals, vals[1:]):
            if abs(b - a) <= EIGENVALUE_SEPARATION:
                raise ValueError(
                    f"eigenvalues not distinct: {a!r} and {b!r} closer than "
                    f"{EIGENVALUE_SEPARATION:g}"
                )

        for i, p in enumerate(projectors, start=1):
            res = hermiticity_residual(p)
            if res > DEFAULT_TOL:
                raise ValueError(f"projector {i} is not Hermitian (residual {res:.3e})")
            res = float(np.max(np.abs(p @ p - p)))
            if res > DEFAULT_TOL:
                raise ValueError(f"projector {i} is not idempotent (residual {res:.3e})")
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                res = float(np.max(np.abs(projectors[i] @ projectors[j])))
                if res > DEFAULT_TOL:
                    raise ValueError(
                        f"projectors {i + 1} and {j + 1} are not orthogonal "
                        f"(residual {res:.3e})"
                    )
        total = sum(projectors)
        res = float(np.max(np.abs(total - np.eye(d))))
        if res > DEFAULT_TOL:
            raise ValueError(f"projectors do not sum to identity (residual {res:.3e})")

        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "projectors", tuple(readonly(p) for p in projectors))

    @property
    def outcome_count(self) -> int:
        return len(self.eigenvalues)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def matrix(self) -> np.ndarray:
        """The operator itself, reassembled as sum of a_k P_k."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for a, p in zip(self.eigenvalues, self.projectors):
            out += a * p
        return out

    def projector(self, outcome_index: int) -> np.ndarray:
        """Projector for a 1-based outcome index."""
        if not 1 <= outcome_index <= self.outcome_count:
            raise ValueError(
                f"outcome index {outcome_index} out of range 1..{self.outcome_count}"
            )
        return self.projectors[outcome_index - 1]


def make_observable(label: str, space_label: str, eigenvalues, eigenbasis) -> Observable:
    """Non-degenerate observable from distinct eigenvalues and an orthonormal
    eigenbasis (one vector per outcome).

    The basis must be orthonormal within 1e-10; each projector is the rank-1
    projector onto the corresponding basis vector.
    """
    vectors = [np.asarray(v, dtype=np.complex128) for v in eigenbasis]
    if not vectors:
        raise ValueError("eigenbasis is empty")
    d = vectors[0].size
    for v in vectors:
        if v.ndim != 1 or v.size != d:
            raise ValueError("eigenbasis vectors must share one dimension")
        if not np.all(np.isfinite(v)):
            raise ValueError("eigenbasis contains non-finite entries")
    if len(vectors) != d:
        raise ValueError(f"{len(vectors)} eigenvectors for dimension {d}")
    vmat = np.array(vectors)
    gram = vmat.conj() @ vmat.T
    res = float(np.max(np.abs(gram - np.eye(d))))
    if res > DEFAULT_TOL:
        raise ValueError(f"non-orthonormal eigenbasis (residual {res:.3e})")
    projectors = []
    for v in vectors:
        v = v / np.linalg.norm(v)
        projectors.append(np.outer(v, v.conj()))
    return Observable(label, space_label, tuple(float(a) for a in eigenvalues), tuple(projectors))


def make_degenerate_observable(label: str, space_label: str, eigenvalues, projectors) -> Observable:
    """Observable from explicit projectors; ranks may exceed one."""
    return Observable(
        label,
        space_label,
        tuple(float(a) for a in eigenvalues),
        tuple(as_complex_matrix(p, "projector") for p in projectors),
    )


@dataclass(frozen=True, eq=False)
class DensityState:
    """Unit-trace positive semidefinite operator on one labelled factor.

    Trace deviations below the renormalization window are repaired; Hermiticity
    and positivity violations beyond 1e-10 are rejected.
    """

    space_label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = as_hermitian(self.matrix, "density matrix")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) >= RENORM_WINDOW:
            raise ValueError(f"density matrix has trace {tr:.12g}; expected 1")
        m = m / tr
        low = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
        if low < -DEFAULT_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DeviceSpec:
    """A pointer device for one observable.

    The pointer space has one ready state (index 0) plus one pointer state per
    outcome, so ``pointer_dim`` is always ``outcome_count + 1``.  Pointer state
    ``k`` records outcome ``k``.
    """

    label: str
    observable: Observable
    pointer_dim: int
    ready_index: int = field(default=0)

    def __post_init__(self):
        if not self.label:
            raise ValueError("device label must be non-empty")
        expected = self.observable.outcome_count + 1
        if self.pointer_dim != expected:
            raise ValueError(
                f"pointer_dim {self.pointer_dim} does not fit observable with "
                f"{self.observable.outcome_count} outcomes (need {expected})"
            )
        if self.ready_index != 0:
            raise ValueError("ready state must sit at pointer index 0")


def make_device(label: str, observable: Observable) -> DeviceSpec:
    """Device spec with the canonical pointer layout for ``observable``."""
    return DeviceSpec(label, observable, observable.outcome_count + 1)

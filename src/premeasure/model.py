"""Observables, density operators and measurement-device descriptions.

An :class:`Observable` is held in spectral form: distinct real eigenvalues,
one d x d unitary ``basis`` with an eigenvector per column, and the 1-based
outcome index of each column.  The projector of outcome ``k`` is
``V_k V_k^dagger`` over the columns ``V_k`` mapped to ``k``, so a degenerate
outcome simply owns several columns.  Outcome indices are 1-based
throughout; index ``k`` refers to the k-th eigenvalue / projector pair.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

import numpy as np

from .linalg import (
    as_complex_matrix,
    as_hermitian,
    hermiticity_residual,
    readonly,
    unitarity_residual,
)
from .tolerances import DEFAULT_TOL, EIGENVALUE_SEPARATION, RENORM_WINDOW

# Factor label of the system; no device may take it.
SYSTEM_LABEL = "S"


class Record:
    """Frozen record.  Fields are its annotations after its bases'; an omitted
    one reads its default, the class attribute of its name.  ``_keywords``
    names keyword-only fields, with defaults and not compared.  ``eq=True``
    records compare and hash by type and fields, others by identity."""

    _fields: tuple[str, ...] = ()  # positional, compared
    _keywords: tuple[str, ...] = ()  # keyword-only, not compared

    def __init_subclass__(cls, eq=False, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = vars(cls).get("__annotations__", ())
        cls._fields += tuple(name for name in annotations if name not in cls._keywords)
        cls._names = frozenset(cls._fields + cls._keywords)
        cls._required = frozenset(name for name in cls._names if not hasattr(cls, name))
        cls._key = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda record: ())
        if eq:
            cls.__eq__, cls.__hash__ = Record._eq, Record._hash

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) != len(names) or kwargs and tuple(kwargs) != self._keywords:
            got = dict(zip(names, args))  # defaults or fields by keyword, or a bad call
            if len(args) > len(names) or not kwargs.keys() <= self._names or not (
                    got.keys().isdisjoint(kwargs) and self._required <= got.keys() | kwargs.keys()):
                raise TypeError(f"bad call of {type(self).__qualname__}{names + self._keywords}")
            got.update(kwargs)
            names, args = got, got.values()
        elif kwargs:  # every keyword-only field, in order
            names, args = names + self._keywords, args + tuple(kwargs.values())
        # One at a time, as generated code does: keeps CPython's compact instance storage.
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields + self._keywords)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def _eq(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def _hash(self):
        return hash((type(self), self._key(self)))


class Observable(Record):
    """Spectral decomposition of a Hermitian operator on one labelled factor.

    ``basis`` column ``j`` is an eigenvector with eigenvalue
    ``eigenvalues[outcomes[j] - 1]``.  Construction checks each property
    once, in O(d^3): finite eigenvalues separated by more than 1e-9, an
    orthonormal basis within 1e-10, and an outcome map that gives every
    eigenvalue at least one column.  ``projectors`` is derived from the
    basis on first read.
    """

    label: str
    space_label: str
    eigenvalues: tuple[float, ...]
    basis: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        eigenvalues = tuple(float(a) for a in self.eigenvalues)
        if not all(np.isfinite(eigenvalues)):
            raise ValueError("eigenvalues contain non-finite entries")
        vals = sorted(eigenvalues)
        for a, b in zip(vals, vals[1:]):
            if abs(b - a) <= EIGENVALUE_SEPARATION:
                raise ValueError(
                    f"eigenvalues not distinct: {a!r} and {b!r} closer than "
                    f"{EIGENVALUE_SEPARATION:g}"
                )

        basis = as_complex_matrix(self.basis, "eigenbasis")
        d = basis.shape[0]
        if basis.shape != (d, d):
            raise ValueError(f"eigenbasis has shape {basis.shape}, expected a square matrix")
        outcomes = np.array(self.outcomes, dtype=int)
        used = set(outcomes.ravel().tolist())
        if outcomes.shape != (d,) or used != set(range(1, len(eigenvalues) + 1)):
            raise ValueError(f"{len(eigenvalues)} eigenvalues but {len(used)} eigenspaces")
        res = unitarity_residual(basis)
        if res > DEFAULT_TOL:
            raise ValueError(f"non-orthonormal eigenbasis (residual {res:.3e})")

        outcomes.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "basis", readonly(basis))
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def outcome_count(self) -> int:
        return len(self.eigenvalues)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def projectors(self) -> np.ndarray:
        """Read-only (K, d, d) stack of the projector of each outcome in
        order, built on first read."""
        columns = (self.basis[:, self.outcomes == k] for k in range(1, self.outcome_count + 1))
        stack = np.stack([v @ v.conj().T for v in columns])
        stack.setflags(write=False)
        return stack


def make_observable(label: str, space_label: str, eigenvalues, eigenbasis) -> Observable:
    """Non-degenerate observable from distinct eigenvalues and an orthonormal
    eigenbasis given as rows, one per outcome in order.

    The rows become the basis columns as given; ``Observable`` checks them.
    """
    basis = np.asarray(eigenbasis, dtype=np.complex128).T
    return Observable(label, space_label, eigenvalues, basis, np.arange(1, basis.shape[-1] + 1))


def make_degenerate_observable(label: str, space_label: str, eigenvalues, projectors) -> Observable:
    """Observable from explicit projectors, one per eigenvalue; ranks may
    exceed one.

    Each projector must be Hermitian and idempotent within 1e-10; its range,
    taken from ``eigh``, becomes that outcome's basis columns.  One Gram
    product over all the ranges then bounds the Frobenius norm of every
    off-diagonal block, V_i^dagger V_j, by 1e-10.  That norm bounds the
    spectral norm of P_i P_j, hence each of its entries.  Ranges that pass
    and fill the space make the basis.
    """
    ranges = []
    for i, p in enumerate(projectors, start=1):
        p = as_complex_matrix(p, "projector")
        d = len(ranges[0]) if ranges else p.shape[0]
        if p.shape != (d, d):
            raise ValueError(f"projector {i} has shape {p.shape}, expected {(d, d)}")
        res = hermiticity_residual(p)
        if res > DEFAULT_TOL:
            raise ValueError(f"projector {i} is not Hermitian (residual {res:.3e})")
        res = float(np.max(np.abs(p @ p - p)))
        if res > DEFAULT_TOL:
            raise ValueError(f"projector {i} is not idempotent (residual {res:.3e})")
        w, v = np.linalg.eigh(p)
        ranges.append(v[:, w > 0.5])
    basis = np.hstack(ranges)
    outcomes = np.repeat(np.arange(1, len(ranges) + 1), [r.shape[1] for r in ranges])
    # Squared Frobenius norm of every Gram block (i, j), summed by outcome.
    member = (outcomes[:, None] == np.arange(1, len(ranges) + 1)).astype(float)
    overlap = member.T @ np.abs(basis.conj().T @ basis) ** 2 @ member
    pairs = np.argwhere(np.triu(overlap, 1) > DEFAULT_TOL**2)
    if pairs.size:
        i, j = pairs[0]
        raise ValueError(
            f"projectors {i + 1} and {j + 1} are not orthogonal "
            f"(residual {np.sqrt(overlap[i, j]):.3e})"
        )
    if basis.shape[1] != basis.shape[0]:
        raise ValueError(
            f"projectors do not sum to identity (total rank {basis.shape[1]} "
            f"for dimension {basis.shape[0]})"
        )
    return Observable(label, space_label, eigenvalues, basis, outcomes)


class DensityState(Record):
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


class DeviceSpec(Record):
    """A pointer device for one observable.

    The observable's ``space_label`` names the factor the device measures:
    the system, or for a reader the pointer of device ``target``.  The
    pointer space has one ready state (index 0) plus one pointer state per
    outcome, so ``pointer_dim`` is ``outcome_count + 1``.  Pointer state ``k``
    records outcome ``k``.  The interaction leaves no amplitude on the ready
    state, so a chain stores only the ``outcome_count`` recorded states of the
    device's factor (see ``premeasure.chain``).
    """

    label: str
    observable: Observable

    def __post_init__(self):
        if not self.label:
            raise ValueError("device label must be non-empty")

    @property
    def pointer_dim(self) -> int:
        return self.observable.outcome_count + 1

    @property
    def target(self) -> str | None:
        """Label of the device whose pointer this one reads; None on the system."""
        space = self.observable.space_label
        return None if space == SYSTEM_LABEL else space


def make_device(label: str, observable: Observable) -> DeviceSpec:
    """Device spec with the canonical pointer layout for ``observable``."""
    return DeviceSpec(label, observable)

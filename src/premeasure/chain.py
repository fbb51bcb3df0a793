"""Measurement chains: one system factor plus any number of pointer devices.

A chain starts as the bare system and grows one tensor factor per attached
device.  Devices always attach in their ready state and interact through a
unitary built from the measured observable:

* ideal interaction: ``U = sum_k P_k (x) Shift^k`` with ``Shift`` the cyclic
  add-1 shift on the pointer basis, so an eigenstate of outcome ``k`` drives
  the pointer from ready straight to pointer state ``k`` while the system
  component is left untouched;
* weak interaction: the ideal unitary followed by a pointer-controlled
  disturbance ``V = sum_k R_k (x) |k><k| + 1 (x) |0><0|`` that may rotate the
  system inside each recorded branch (``R_k`` unitary);
* reader: an ideal interaction whose "system" is the pointer factor of an
  earlier device, copying that device's record into a fresh pointer.

Every new pointer starts in its ready state |0>, so only the ready column
``U[:, :, :, 0]`` of an interaction (reshaped to measured x pointer x
measured x pointer) ever acts: attaching a device costs one contraction of
that column into the measured factor, O(D*d*p) for composite dimension D,
measured dimension d and pointer dimension p.

A mixed initial state rho = sum_i w_i |e_i><e_i| is simulated by its
purification sum_i sqrt(w_i) |e_i>|i> on the system and an ancilla factor
placed right after it.  No device or evolution touches the ancilla, so every
Born probability and the system marginal equal those of the density-matrix
route, while the chain only ever holds a state vector.

No state is ever collapsed; chains only grow and evolve unitarily.  ChainState
values are immutable, every operation returns a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    CompositeSpace,
    apply_operator,
    as_complex_matrix,
    as_state_vector,
    as_unitary,
    is_unitary,
    readonly,
)
from .model import DensityState, DeviceSpec, Observable, make_device, make_observable
from .tolerances import DEFAULT_TOL

SYSTEM_TARGET = "system"

# Factor label of the purifying ancilla of a mixed initial state.  Scenario
# names cannot contain "~", so no device can claim it.
ANCILLA_LABEL = "~ancilla"


@dataclass(frozen=True, eq=False)
class Disturbance:
    """Per-outcome unitaries applied to the system inside recorded branches."""

    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(
            as_unitary(u, f"disturbance {i}") for i, u in enumerate(self.unitaries, start=1)
        )
        if not mats:
            raise ValueError("disturbance needs at least one unitary")
        d = mats[0].shape[0]
        for i, u in enumerate(mats, start=1):
            if u.shape != (d, d):
                raise ValueError(f"disturbance {i} has shape {u.shape}, expected {(d, d)}")
        object.__setattr__(self, "unitaries", tuple(readonly(u) for u in mats))

    def __len__(self) -> int:
        return len(self.unitaries)


@dataclass(frozen=True, eq=False)
class AttachedDevice:
    spec: DeviceSpec
    factor_index: int
    target: str  # SYSTEM_TARGET or the label of an earlier device
    mode: str  # "ideal" | "weak" | "reader"
    disturbance: Disturbance | None = None


@dataclass(frozen=True, eq=False)
class ChainState:
    """Immutable snapshot of system + devices.

    ``state`` is always a state vector over ``space``.  A chain started from
    a mixed state carries the purifying ancilla as its second factor.
    ``initial_system_state`` keeps the system state the chain was started
    from (a vector, or the density matrix of a mixed start), which
    downstream checks replay against the projection postulate.
    """

    space: CompositeSpace
    state: np.ndarray
    devices: tuple[AttachedDevice, ...]
    initial_system_state: np.ndarray
    system_label: str = field(default="S")

    def __post_init__(self):
        state = np.asarray(self.state, dtype=np.complex128)
        if state.ndim != 1:
            raise ValueError(f"state must be a vector, got shape {state.shape}")
        if state.size != self.space.dim:
            raise ValueError(
                f"state size {state.size} does not match space dimension {self.space.dim}"
            )
        if self.space.labels[0] != self.system_label:
            raise ValueError("first factor must be the system")
        for ad in self.devices:
            if self.space.dim_of(ad.spec.label) != ad.spec.pointer_dim:
                raise ValueError(f"factor of device {ad.spec.label!r} has wrong dimension")
        object.__setattr__(self, "state", readonly(state))
        object.__setattr__(self, "initial_system_state", readonly(self.initial_system_state))

    @property
    def is_pure(self) -> bool:
        """True unless the chain started from a mixed state."""
        return ANCILLA_LABEL not in self.space.labels

    @property
    def system_dim(self) -> int:
        return self.space.dims[0]

    @property
    def device_labels(self) -> tuple[str, ...]:
        return tuple(ad.spec.label for ad in self.devices)

    def device(self, label: str) -> AttachedDevice:
        for ad in self.devices:
            if ad.spec.label == label:
                return ad
        raise ValueError(f"no device labelled {label!r} in this chain")

    def outcome_count(self, label: str) -> int:
        return self.device(label).spec.observable.outcome_count

    @cached_property
    def pointer_probabilities(self) -> np.ndarray:
        """|psi|^2 summed over the system and any ancilla, computed once: one
        axis per device in attachment order, indexed by pointer state."""
        psi = self.state.reshape(self.space.dims)
        lead = len(self.space.factors) - len(self.devices)
        probs = (np.square(psi.real) + np.square(psi.imag)).sum(axis=tuple(range(lead)))
        probs.setflags(write=False)
        return probs


def pointer_shift(dim: int) -> np.ndarray:
    """Cyclic add-1 shift on a ``dim``-dimensional pointer basis."""
    if dim < 1:
        raise ValueError("pointer dimension must be positive")
    return np.roll(np.eye(dim, dtype=np.complex128), 1, axis=0)


def build_ideal_unitary(obs: Observable, dev: DeviceSpec) -> np.ndarray:
    """Premeasurement unitary on (measured factor) x (pointer factor)."""
    if dev.observable is not obs:
        raise ValueError(f"device {dev.label!r} does not measure observable {obs.label!r}")
    shift = pointer_shift(dev.pointer_dim)
    u = np.zeros((obs.dim * dev.pointer_dim,) * 2, dtype=np.complex128)
    step = np.eye(dev.pointer_dim, dtype=np.complex128)
    for p in obs.projectors:
        step = step @ shift
        u += np.kron(p, step)
    return u


def build_weak_unitary(obs: Observable, dev: DeviceSpec, dist: Disturbance) -> np.ndarray:
    """Ideal premeasurement followed by the pointer-controlled disturbance."""
    if len(dist) != obs.outcome_count:
        raise ValueError(
            f"need {obs.outcome_count} disturbance unitaries, got {len(dist)}"
        )
    for u in dist.unitaries:
        if u.shape[0] != obs.dim:
            raise ValueError(
                f"disturbance dimension {u.shape[0]} does not match system dimension {obs.dim}"
            )
    d_p = dev.pointer_dim
    v = np.zeros((obs.dim * d_p,) * 2, dtype=np.complex128)
    for k, r in enumerate(dist.unitaries, start=1):
        e = np.zeros((d_p, d_p), dtype=np.complex128)
        e[k, k] = 1.0
        v += np.kron(r, e)
    ready = np.zeros((d_p, d_p), dtype=np.complex128)
    ready[0, 0] = 1.0
    v += np.kron(np.eye(obs.dim, dtype=np.complex128), ready)
    return v @ build_ideal_unitary(obs, dev)


def pointer_basis_observable(label: str, target_spec: DeviceSpec) -> Observable:
    """Pointer-basis observable of a device's factor, for reader devices.

    Outcome ``k`` matches pointer state ``k`` of the target for
    ``k = 1..n``; the ready state gets the final outcome index ``n+1``.
    """
    d = target_spec.pointer_dim
    order = list(range(1, d)) + [0]
    basis = [np.eye(d, dtype=np.complex128)[i] for i in order]
    eigenvalues = [float(i) for i in order]
    return make_observable(label, target_spec.label, eigenvalues, basis)


def make_reader_device(label: str, target_spec: DeviceSpec) -> DeviceSpec:
    """Device that records the pointer value of an earlier device."""
    obs = pointer_basis_observable(f"pointer[{target_spec.label}]", target_spec)
    return make_device(label, obs)


def init_chain(state, system_label: str | None = None) -> ChainState:
    """Chain holding only the system, no devices attached yet.

    ``state`` may be a vector, a density matrix, or a DensityState.  A
    density matrix is purified onto (system, ancilla), keeping one ancilla
    state per positive eigenvalue.
    """
    if isinstance(state, DensityState):
        label = system_label if system_label is not None else state.space_label
        return _purified_chain(state.matrix, label)
    arr = np.asarray(state, dtype=np.complex128)
    label = system_label if system_label is not None else "S"
    if arr.ndim == 2:
        return _purified_chain(DensityState(label, arr).matrix, label)
    vec = as_state_vector(arr)
    space = CompositeSpace(((label, vec.size),))
    return ChainState(space, vec, (), vec, label)


def _purified_chain(rho: np.ndarray, label: str) -> ChainState:
    w, v = np.linalg.eigh(rho)
    keep = w > 0
    # Dropping the (at most 1e-10) negative eigenvalues may leave the kept
    # weights a hair away from unit sum; renormalize so the vector is a state.
    weights = w[keep] / np.sum(w[keep])
    amplitudes = v[:, keep] * np.sqrt(weights)
    space = CompositeSpace(((label, rho.shape[0]), (ANCILLA_LABEL, int(keep.sum()))))
    return ChainState(space, amplitudes.reshape(-1), (), rho, label)


def attach_device(
    chain: ChainState,
    dev: DeviceSpec,
    mode: str = "ideal",
    *,
    disturbance: Disturbance | None = None,
    target: str | None = None,
) -> ChainState:
    """Extend the chain by one device in its ready state and apply its
    premeasurement interaction.

    ``mode`` selects the interaction: "ideal" and "weak" couple the device to
    the system, "reader" couples it to the pointer of the earlier device named
    by ``target``.  A label already present in the chain is rejected: a fired
    device keeps its record and cannot be reused.
    """
    if dev.label in chain.space.labels:
        raise ValueError(f"device label {dev.label!r} already used in this chain")
    obs = dev.observable

    if mode in ("ideal", "weak"):
        if target is not None:
            raise ValueError("target is only meaningful for reader devices")
        if obs.space_label != chain.system_label:
            raise ValueError(
                f"observable {obs.label!r} lives on {obs.space_label!r}, "
                f"not on the system {chain.system_label!r}"
            )
        if obs.dim != chain.system_dim:
            raise ValueError(
                f"observable dimension {obs.dim} does not match system dimension "
                f"{chain.system_dim}"
            )
        if mode == "ideal":
            if disturbance is not None:
                raise ValueError("ideal attachment takes no disturbance")
            u = build_ideal_unitary(obs, dev)
        else:
            if disturbance is None:
                raise ValueError("weak attachment needs a disturbance")
            u = build_weak_unitary(obs, dev, disturbance)
        anchor = chain.system_label
        recorded_target = SYSTEM_TARGET
    elif mode == "reader":
        if target is None:
            raise ValueError("reader attachment needs a target device label")
        if disturbance is not None:
            raise ValueError("reader attachment takes no disturbance")
        target_ad = chain.device(target)
        if obs.space_label != target:
            raise ValueError(
                f"reader observable lives on {obs.space_label!r}, expected {target!r}"
            )
        if obs.dim != target_ad.spec.pointer_dim:
            raise ValueError(
                f"reader dimension {obs.dim} does not match pointer dimension "
                f"{target_ad.spec.pointer_dim}"
            )
        for p in obs.projectors:
            offdiag = p - np.diag(np.diag(p))
            if float(np.max(np.abs(offdiag))) > DEFAULT_TOL:
                raise ValueError("reader devices must measure the pointer basis")
        u = build_ideal_unitary(obs, dev)
        anchor = target
        recorded_target = target
    else:
        raise ValueError(f"unknown attachment mode {mode!r}")

    if not is_unitary(u, DEFAULT_TOL):
        raise ValueError("constructed interaction is not unitary")

    pos = chain.space.index(anchor)
    d, p = obs.dim, dev.pointer_dim
    column = u.reshape(d, p, d, p)[:, :, :, 0]
    psi = np.tensordot(column, chain.state.reshape(chain.space.dims), axes=([2], [pos]))
    new_state = np.moveaxis(psi, (0, 1), (pos, -1)).reshape(-1)
    attached = AttachedDevice(
        spec=dev,
        factor_index=len(chain.space.factors),
        target=recorded_target,
        mode=mode,
        disturbance=disturbance,
    )
    return ChainState(
        chain.space.extended(dev.label, dev.pointer_dim),
        new_state,
        chain.devices + (attached,),
        chain.initial_system_state,
        chain.system_label,
    )


def apply_evolution(chain: ChainState, u_system) -> ChainState:
    """Evolve the system factor by a unitary; devices are stationary."""
    u = as_complex_matrix(u_system, "evolution")
    if u.shape != (chain.system_dim, chain.system_dim):
        raise ValueError(
            f"evolution has shape {u.shape}, system dimension is {chain.system_dim}"
        )
    if not is_unitary(u, DEFAULT_TOL):
        raise ValueError("evolution operator is not unitary")
    new_state = apply_operator(u, (chain.system_label,), chain.space, chain.state)
    return ChainState(
        chain.space,
        new_state,
        chain.devices,
        chain.initial_system_state,
        chain.system_label,
    )

"""Measurement chains: one system factor plus any number of pointer devices.

A chain starts as the bare system and grows one tensor factor per attached
device.  Devices always attach in their ready state and interact through a
unitary built from the measured observable.  The factor that observable
lives on, and a disturbance if one is given, decide the interaction:

* ideal, on the system: ``U = sum_k P_k (x) Shift^k`` with ``Shift`` the
  cyclic add-1 shift on the pointer basis, so an eigenstate of outcome ``k``
  drives the pointer from ready straight to pointer state ``k`` while the
  system component is left untouched;
* weak, on the system with a ``Disturbance``: the ideal unitary followed by a
  pointer-controlled disturbance ``V = sum_k R_k (x) |k><k| + 1 (x) |0><0|``
  that may rotate the system inside each recorded branch (``R_k`` unitary);
* reader, on the pointer factor of an earlier device (``DeviceSpec.target``,
  see ``make_reader_device``): an ideal interaction that copies that
  device's record into a fresh pointer.

Every new pointer starts in its ready state |0>, so an attach only needs
``U (psi (x) |0>) = sum_k B_k V_k V_k^dagger psi (x) |k>``, where ``V_k`` holds
the basis columns of outcome ``k`` and ``B_k`` is ``R_k`` for a weak device
and 1 otherwise.  Every branch has k >= 1: after the interaction the ready
state carries no amplitude.  So a chain stores, per device, only its K
recorded pointer states, outcome ``k`` at axis index ``k - 1``; the ready
state is implicit.  For a device with K outcomes the stored factor has
dimension K, while its ``DeviceSpec.pointer_dim`` stays K + 1.  A reader's
measured factor is such a stored pointer, so it uses only the rows of its
basis for the target's pointer states 1..K; it keeps a slot for its own
ready outcome, which always stays empty.

A chain's state has one axis per factor, and that shape is its whole
layout: the system, then the ancilla of a mixed start (below), then one
axis of length K per device in attachment order.  ``attach_device`` writes
each branch straight into the new state, in its final axis order: O(D*d)
time for composite dimension D and measured dimension d, and O(d^2) scratch
per outcome besides the new state.  Its loop over outcomes only computes:
``Observable`` bounds the Gram matrix of every ``V_k`` (a set of its basis
columns), ``_check_disturbance`` checks each weak ``R_k V_k``, and a reader's
projectors are checked diagonal before the loop.  ``apply_evolution`` is one
product on the system axis.  ``test_pure_core.py`` checks the attach against
the dense U on the full K + 1 pointer space that ``tests/reference.py`` builds.

A mixed initial state rho = sum_i w_i |e_i><e_i| is simulated by its
purification sum_i sqrt(w_i) |e_i>|i> on the system and an ancilla axis
placed right after it, with one ancilla state per eigenvalue above the
round-off of ``eigh``.  No device or evolution touches the ancilla, so every
Born probability and the system marginal equal those of the density-matrix
route, while the chain only ever holds a pure state.

No state is ever collapsed; chains only grow and evolve unitarily.  ChainState
values are immutable, every operation returns a new one.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .linalg import (
    as_complex_matrix,
    as_state_vector,
    as_unitary,
    is_unitary,
    readonly,
    unitarity_residual,
)
from .model import SYSTEM_LABEL, DensityState, DeviceSpec, Observable, Record, make_observable
from .tolerances import DEFAULT_TOL


class Disturbance(Record):
    """Per-outcome unitaries applied to the system inside recorded branches.

    Each is checked unitary here; their count and dimension are checked
    against the observable where the disturbance is used.
    """

    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(readonly(as_unitary(u, f"disturbance {i}"))
                     for i, u in enumerate(self.unitaries, start=1))
        object.__setattr__(self, "unitaries", mats)


class AttachedDevice(Record):
    spec: DeviceSpec
    mode: str  # "ideal" | "weak" | "reader"


class ChainState(Record):
    """Immutable snapshot of system + devices.

    ``state`` has one axis per factor: the system, the purifying ancilla of
    a mixed start, then one axis per device holding its recorded pointer
    states only, outcome ``k`` at index ``k - 1``, the ready state implicit.
    ``initial_system_state`` keeps the system state the chain was started
    from (a vector, or the density matrix of a mixed start), which
    downstream checks replay against the projection postulate.
    """

    state: np.ndarray
    devices: tuple[AttachedDevice, ...]
    initial_system_state: np.ndarray

    def __post_init__(self):
        for name in ("state", "initial_system_state"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.flags.writeable or not arr.flags.owndata:
                arr = readonly(arr)
            object.__setattr__(self, name, arr)
        counts = tuple(ad.spec.observable.outcome_count for ad in self.devices)
        lead = self.state.ndim - len(counts)
        if lead not in (1, 2) or self.state.shape[lead:] != counts:
            raise ValueError(
                f"state of shape {self.state.shape} does not end in the devices' "
                f"outcome counts {counts}"
            )

    @property
    def system_dim(self) -> int:
        return self.state.shape[0]

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
        axis per device in attachment order, outcome ``k`` at index ``k - 1``."""
        lead = self.state.ndim - len(self.devices)
        psi = self.state.reshape(math.prod(self.state.shape[:lead]), -1)
        # Two passes over the real and imaginary views: no temporary the size
        # of the state, only the half-size result.
        probs = np.einsum("ij,ij->j", psi.real, psi.real)
        probs += np.einsum("ij,ij->j", psi.imag, psi.imag)
        probs = probs.reshape(self.state.shape[lead:])
        probs.setflags(write=False)
        return probs


def _check_disturbance(obs: Observable, dist: Disturbance, columns) -> list[np.ndarray]:
    """``R_k V_k`` for each outcome's basis ``columns`` ``V_k``, checked an isometry:
    ``R_k`` and ``V_k`` may each pass their own check while the product does not."""
    if len(dist.unitaries) != obs.outcome_count:
        raise ValueError(
            f"need {obs.outcome_count} disturbance unitaries, got {len(dist.unitaries)}"
        )
    for u in dist.unitaries:
        if u.shape[0] != obs.dim:
            raise ValueError(
                f"disturbance dimension {u.shape[0]} does not match system dimension {obs.dim}"
            )
    branches = [u @ v for u, v in zip(dist.unitaries, columns)]
    if any(unitarity_residual(b) > DEFAULT_TOL for b in branches):
        raise ValueError("constructed interaction is not unitary")
    return branches


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
    return DeviceSpec(label, pointer_basis_observable(f"pointer[{target_spec.label}]", target_spec))


def init_chain(state) -> ChainState:
    """Chain holding only the system, no devices attached yet.

    ``state`` may be a vector, a density matrix, or a DensityState.  A
    density matrix is purified onto (system, ancilla), keeping one ancilla
    state per eigenvalue above round-off.
    """
    if isinstance(state, DensityState):
        return _purified_chain(state.matrix)
    arr = np.asarray(state, dtype=np.complex128)
    if arr.ndim == 2:
        return _purified_chain(DensityState(SYSTEM_LABEL, arr).matrix)
    vec = readonly(as_state_vector(arr))
    return ChainState(vec, (), vec)


def _purified_chain(rho: np.ndarray) -> ChainState:
    w, v = np.linalg.eigh(rho)
    # eigh resolves eigenvalues only to about d * eps * max(w); anything
    # below that, negative or not, is round-off of a zero eigenvalue.
    keep = w > len(w) * np.finfo(float).eps * w[-1]
    # Dropping the (at most 1e-10) negative eigenvalues may leave the kept
    # weights a hair away from unit sum; renormalize so the vector is a state.
    weights = w[keep] / np.sum(w[keep])
    return ChainState(v[:, keep] * np.sqrt(weights), (), rho)


def attach_device(
    chain: ChainState, dev: DeviceSpec, *, disturbance: Disturbance | None = None
) -> ChainState:
    """Extend the chain by one device in its ready state and apply its
    premeasurement interaction.

    The device's observable decides the interaction.  A device on the system
    attaches "ideal", or "weak" when given a ``disturbance``; a device whose
    observable lives on the pointer of an earlier device (``dev.target``)
    attaches as its "reader" and takes no disturbance.  The chain records the
    mode in ``AttachedDevice.mode``.  The observable's dimension must match
    the factor it measures.  A label already present in the chain, or the
    system's, is rejected: a fired device keeps its record and cannot be
    reused.
    """
    if dev.label == SYSTEM_LABEL or dev.label in chain.device_labels:
        raise ValueError(f"device label {dev.label!r} already used in this chain")
    obs = dev.observable
    if dev.target is None:
        mode = "ideal" if disturbance is None else "weak"
        measured_dim, anchor = chain.system_dim, 0
    elif disturbance is not None:
        raise ValueError("reader attachment takes no disturbance")
    else:
        mode = "reader"
        measured_dim = chain.device(dev.target).spec.pointer_dim
        anchor = chain.state.ndim - len(chain.devices) + chain.device_labels.index(dev.target)
    if obs.dim != measured_dim:
        raise ValueError(
            f"observable dimension {obs.dim} does not match dimension {measured_dim} "
            f"of the measured factor {obs.space_label!r}"
        )
    columns = [obs.basis[:, obs.outcomes == k] for k in range(1, obs.outcome_count + 1)]
    branches = columns if disturbance is None else _check_disturbance(obs, disturbance, columns)
    if mode == "reader":
        for v in columns:
            proj = v @ v.conj().T
            if float(np.max(np.abs(proj - np.diag(np.diag(proj))))) > DEFAULT_TOL:
                raise ValueError("reader devices must measure the pointer basis")

    psi = chain.state.reshape(chain.state.shape[:anchor + 1] + (-1,))
    # A reader's measured factor stores only the target's pointer states 1..K.
    stored = slice(1, None) if mode == "reader" else slice(None)
    count = obs.outcome_count
    new_state = np.empty(chain.state.shape + (count,), dtype=np.complex128)
    out = new_state.reshape(psi.shape + (count,))
    for k, (v, branch) in enumerate(zip(columns, branches)):
        np.matmul(branch[stored], v[stored].conj().T @ psi, out=out[..., k])
    new_state.setflags(write=False)
    return ChainState(
        new_state,
        chain.devices + (AttachedDevice(dev, mode),),
        chain.initial_system_state,
    )


def apply_evolution(chain: ChainState, u_system) -> ChainState:
    """Evolve the system factor by a unitary; devices are stationary."""
    u = as_complex_matrix(u_system, "evolution")
    if u.shape != (chain.system_dim, chain.system_dim):
        raise ValueError(
            f"evolution has shape {u.shape}, system dimension is {chain.system_dim}"
        )
    if not is_unitary(u):
        raise ValueError("evolution operator is not unitary")
    d = chain.system_dim
    new_state = np.empty_like(chain.state)
    np.matmul(u, chain.state.reshape(d, -1), out=new_state.reshape(d, -1))
    new_state.setflags(write=False)
    return ChainState(new_state, chain.devices, chain.initial_system_state)

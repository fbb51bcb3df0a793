"""Projection-postulate oracle.

This module deliberately does what the chain simulator never does: it
collapses.  Measuring an observable splits a state into outcome branches
with Born weights; degenerate outcomes project onto the eigenspace and
renormalize (for a density operator, ``P rho P / tr(rho P)``).  Steps, each
an ``Observable``, a system device's ``DeviceSpec`` (measure its observable,
then, for a weak device, R_k) or an ``Evolve``, fan out into a branch tree
whose leaf weights give the joint outcome distribution the postulate
predicts; the chain must reproduce them.

The tree is grown one step at a time on its whole frontier, held as one
stack: the B branch states as a (B, d) array, or (B, d, d) for density
operators, their Born weights as (B,) and their outcomes so far as one
row-major index each into the product of the outcome counts, (B,) ints.  Only
the caller's state is checked, once; a measure step projects the stack onto
every outcome in one product against the stacked projectors (or R_k P_k) and
keeps the branches above the pruning floor, and every step renormalizes the
states it makes.  ``collapse_branches`` is the measure step for a stack of
one.  The oracle shares no kernel with the chain on purpose, and imports
nothing from it: it is the independent reference the chain is checked
against.  It takes the compiled program's plain records as its steps and
checks each unitary itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .born import Distribution, clamp_probability
from .linalg import as_complex_matrix, as_state_vector, hermitian_evolution, is_unitary
from .model import SYSTEM_LABEL, DensityState, DeviceSpec, Observable, Record
from .tolerances import PROB_SLACK, PRUNE_TOL


class Branch(Record):
    """One collapse outcome: 1-based index, Born weight, renormalized state."""

    outcome_index: int
    probability: float
    post_state: np.ndarray


class Evolve(Record):
    """Evolve the system by the unitary ``matrix``, or, given a ``time``, by
    ``exp(-i matrix time)`` of the Hermitian ``matrix``."""

    matrix: np.ndarray
    time: float | None = None

    @cached_property
    def unitary(self) -> np.ndarray:
        """Exponentiated once, on first use when the chain is built, so a phase
        overflow is a build failure rather than a diagnostic."""
        if self.time is None:
            return self.matrix
        return hermitian_evolution(self.matrix, self.time)


def _coerce(state) -> np.ndarray:
    """``state`` checked and renormalized once, as it enters the oracle: by
    ``as_state_vector`` for a vector, by ``DensityState`` for a matrix."""
    if isinstance(state, DensityState):
        return state.matrix
    arr = np.asarray(state, dtype=np.complex128)
    if arr.ndim == 1:
        return as_state_vector(arr)
    if arr.ndim == 2:
        return DensityState(SYSTEM_LABEL, arr).matrix
    raise ValueError("state must be a vector or a density matrix")


def _weights(stack: np.ndarray, pure: bool) -> np.ndarray:
    """Squared norm of each vector (``pure``), else trace of each density
    matrix, of a stack of states."""
    if not pure:
        return np.trace(stack, axis1=-2, axis2=-1).real
    # |psi|^2 over the real and imaginary views: no conjugate copy.
    p = np.einsum("...i,...i->...", stack.real, stack.real)
    p += np.einsum("...i,...i->...", stack.imag, stack.imag)
    return p


def _unitary(u, name: str, dim: int) -> np.ndarray:
    """``u`` as a complex matrix, checked (dim, dim) and unitary."""
    u = as_complex_matrix(u, name)
    if u.shape != (dim, dim):
        raise ValueError(f"{name} has shape {u.shape}, state dimension is {dim}")
    if not is_unitary(u):
        raise ValueError(f"{name} operator is not unitary")
    return u


def _measure(index: np.ndarray, weights: np.ndarray, states: np.ndarray, obs: Observable,
             after: np.ndarray | None = None):
    """One measure step on the whole frontier: every kept (outcome, branch)
    pair as (index * K + outcome, weight * p, renormalized post state).

    ``index`` (B,) holds each branch's 0-based outcomes so far as one
    row-major index into the product of the outcome counts, ``weights`` (B,)
    its Born weight and ``states`` its (B, d) vector or (B, d, d) density
    matrix, each of unit norm or trace.  A weak step's stacked R_k,
    ``after`` (K, d, d), makes the product R_k P_k in place of P_k.  Outcome
    k of branch b is dropped when its own probability p is at most 1e-12,
    whatever the branch's weight: a rare branch keeps its likely children,
    and one step drops at most K * 1e-12 of the total weight.  Besides the
    frontier passed in, a step holds the K * B projected states,
    renormalized in place (and for density matrices the product's temporary
    stack); only a step that prunes copies the kept ones out of them.
    """
    if states.shape[1] != obs.dim:
        raise ValueError(f"state dimension {states.shape[1]} does not match {obs.dim}")
    proj = obs.projectors
    left = proj if after is None else after @ proj
    pure = states.ndim == 2
    if pure:
        post = states @ left.transpose(0, 2, 1)  # post[k, b] = R_k P_k psi_b
    else:
        right = proj if after is None else left.conj().transpose(0, 2, 1)
        post = left[:, None] @ states @ right[:, None]
    p = _weights(post, pure)
    over = p > 1.0 + PROB_SLACK
    if over.any():
        clamp_probability(float(p[over][0]))  # raises, naming the value
    # Row-major (k, b) is the stack's own order, so the flat stack is a view.
    leaves = (index * len(proj) + np.arange(len(proj))[:, None]).reshape(-1)
    flat = p.reshape(-1)
    grown = (weights * np.minimum(p, 1.0)).reshape(-1)
    post = post.reshape(flat.size, *post.shape[2:])
    keep = flat > PRUNE_TOL
    if not keep.all():
        leaves, flat, grown, post = leaves[keep], flat[keep], grown[keep], post[keep]
    post /= np.sqrt(flat)[:, None] if pure else flat[:, None, None]
    return leaves, grown, post


def collapse_branches(state, obs: Observable) -> list[Branch]:
    """Born-weighted outcome branches of one measurement, pruned at 1e-12."""
    arr = _coerce(state)
    outcomes, weights, post = _measure(np.zeros(1, dtype=np.intp), np.ones(1), arr[None], obs)
    return [Branch(k + 1, w, st) for k, w, st in zip(outcomes.tolist(), weights.tolist(), post)]


def unknown_result_mixture(state, obs: Observable) -> DensityState:
    """State assigned when a measurement happened but the result is unknown:
    the Born-weighted mixture of the collapsed branches."""
    mix = np.zeros((obs.dim, obs.dim), dtype=np.complex128)
    for b in collapse_branches(state, obs):
        if b.post_state.ndim == 1:
            mix += b.probability * np.outer(b.post_state, b.post_state.conj())
        else:
            mix += b.probability * b.post_state
    return DensityState(obs.space_label, mix)


def oracle_sequence_distribution(initial_state, steps) -> Distribution:
    """Joint outcome distribution for a sequence of ``Observable`` (measure),
    system ``DeviceSpec`` (measure, then a weak device's R_k) and ``Evolve``
    steps; a reader's ``DeviceSpec`` is refused.

    Axis i of the table is the outcome of the i-th measure step.  An outcome
    of local probability at most 1e-12 is pruned, so the reported weights
    undershoot 1 by at most 1e-12 times the summed outcome counts of the
    measure steps.
    """
    steps = list(steps)
    if not any(isinstance(s, (Observable, DeviceSpec)) for s in steps):
        raise ValueError("sequence contains no measure steps")

    states = _coerce(initial_state)[None]
    index = np.zeros(1, dtype=np.intp)
    weights = np.ones(1)
    outcome_ranges: list[int] = []
    for step in steps:
        dim = states.shape[1]
        after = None
        if isinstance(step, DeviceSpec) and step.target is None:
            dist, step = step.disturbance, step.observable
            if dist is not None:
                rs = dist.unitaries
                if len(rs) != step.outcome_count:
                    raise ValueError(
                        f"need {step.outcome_count} disturbance unitaries, got {len(rs)}")
                after = np.stack([_unitary(r, f"disturbance {k}", dim)
                                  for k, r in enumerate(rs, 1)])
        if isinstance(step, Observable):
            outcome_ranges.append(step.outcome_count)
            index, weights, states = _measure(index, weights, states, step, after)
        elif isinstance(step, Evolve):
            u = _unitary(step.unitary, "evolution", dim)
            pure = states.ndim == 2
            states = states @ u.T if pure else u @ states @ u.conj().T
            norm = _weights(states, pure)
            states /= np.sqrt(norm)[:, None] if pure else norm[:, None, None]
        else:
            raise ValueError(f"unknown oracle step {step!r}")

    # Leaf indices are unique, and each step prunes at most K * PRUNE_TOL of
    # the weight; the table spans the full product of outcomes so chain-side
    # comparisons align by position.
    table = np.zeros(outcome_ranges)
    table.reshape(-1)[index] = weights
    return Distribution(table)

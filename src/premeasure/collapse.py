"""Projection-postulate oracle.

This module deliberately does what the chain simulator never does: it
collapses.  Measuring an observable splits a state into outcome branches
with Born weights; degenerate outcomes project onto the eigenspace and
renormalize (for a density operator, ``P rho P / tr(rho P)``).  Chains of
measure and evolve steps fan out into a branch tree whose leaf weights give
the joint outcome distribution predicted by the postulate.  The rest of the
package exists to show that the collapse-free chain reproduces these numbers.

The tree is grown one step at a time on its whole frontier, held as one
stack: the B branch states as a (B, d) array, or (B, d, d) for density
operators, their Born weights as (B,) and their outcomes so far as one
row-major index each into the product of the outcome counts, (B,) ints.  A
measure step checks and renormalizes every state, projects the stack
onto every outcome in one product against the stacked projectors, and keeps
the branches above the pruning floor; ``collapse_branches`` is that step for
a stack of one.  The oracle shares no kernel with the chain on purpose: it is
the independent reference the chain is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .born import Distribution, clamp_probability
from .linalg import as_complex_matrix, is_unitary
from .model import DensityState, Observable
from .tolerances import DEFAULT_TOL, PROB_SLACK, PRUNE_TOL, RENORM_WINDOW


@dataclass(frozen=True, eq=False)
class Branch:
    """One collapse outcome: 1-based index, Born weight, renormalized state."""

    outcome_index: int
    probability: float
    post_state: np.ndarray


@dataclass(frozen=True, eq=False)
class Measure:
    observable: Observable


@dataclass(frozen=True, eq=False)
class Evolve:
    unitary: np.ndarray


def _coerce(state, dim: int | None = None) -> np.ndarray:
    """``state`` as a vector or a square matrix; ``_checked`` checks its values."""
    if isinstance(state, DensityState):
        arr = state.matrix
    else:
        arr = np.asarray(state, dtype=np.complex128)
        if arr.ndim not in (1, 2):
            raise ValueError("state must be a vector or a density matrix")
        name = "state" if arr.ndim == 1 else "density matrix"
        if arr.size == 0:
            raise ValueError(f"{name} is empty")
        if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
            raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"state dimension {arr.shape[0]} does not match {dim}")
    return arr


def _reject_first(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    if bad.any():
        raise ValueError(message.format(float(values[bad][0])))


def _checked(states: np.ndarray) -> np.ndarray:
    """A stack of vectors (B, d) or density matrices (B, d, d), each checked
    as ``as_state_vector`` or ``DensityState`` checks one state, with the same
    tolerances and messages, and renormalized."""
    if states.ndim == 2:
        if not np.isfinite(states).all():
            raise ValueError("state contains non-finite entries")
        norm = np.linalg.norm(states, axis=1)
        _reject_first(
            np.abs(norm - 1.0) >= RENORM_WINDOW,
            norm,
            f"state has norm {{:.12g}}; expected 1 within {RENORM_WINDOW:g}",
        )
        return states / norm[:, None]
    if not np.isfinite(states).all():
        raise ValueError("density matrix contains non-finite entries")
    adjoint = states.conj().transpose(0, 2, 1)
    residual = np.abs(states - adjoint).max(axis=(1, 2))
    _reject_first(
        residual > DEFAULT_TOL, residual, "density matrix is not Hermitian (residual {:.3e})"
    )
    trace = np.trace(states, axis1=1, axis2=2).real
    _reject_first(
        np.abs(trace - 1.0) >= RENORM_WINDOW, trace, "density matrix has trace {:.12g}; expected 1"
    )
    states = states / trace[:, None, None]
    low = np.linalg.eigvalsh((states + states.conj().transpose(0, 2, 1)) / 2).min(axis=1)
    _reject_first(low < -DEFAULT_TOL, low, "density matrix has negative eigenvalue {:.3e}")
    return states


def _measure(index: np.ndarray, weights: np.ndarray, states: np.ndarray, obs: Observable):
    """One measure step on the whole frontier: every kept (outcome, branch)
    pair as (index * K + outcome, weight * p, renormalized post state).

    ``index`` (B,) holds each branch's 0-based outcomes so far as one
    row-major index into the product of the outcome counts, ``weights`` (B,)
    its Born weight and ``states`` its (B, d) vector or (B, d, d) density
    matrix.  Outcome k of branch b is dropped when its own probability p is
    at most 1e-12, whatever the branch's weight: a rare branch keeps its
    likely children, and one step drops at most K * 1e-12 of the total
    weight.  Besides the frontier passed in, a step holds a checked copy of
    it and the K * B projected states, renormalized in place; only a step
    that prunes copies the kept ones out of them.
    """
    if states.shape[1] != obs.dim:
        raise ValueError(f"state dimension {states.shape[1]} does not match {obs.dim}")
    states = _checked(states)
    proj = obs.projectors
    pure = states.ndim == 2
    if pure:
        post = states @ proj.transpose(0, 2, 1)  # post[k, b] = P_k psi_b
        # |P_k psi_b|^2 over the real and imaginary views: no conjugate copy.
        p = np.einsum("kbi,kbi->kb", post.real, post.real)
        p += np.einsum("kbi,kbi->kb", post.imag, post.imag)
    else:
        post = proj[:, None] @ states @ proj[:, None]
        p = np.trace(post, axis1=2, axis2=3).real
    del states  # the renormalized copy; the caller still holds the frontier
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
    arr = _coerce(state, obs.dim)
    outcomes, weights, post = _measure(np.zeros(1, dtype=np.intp), np.ones(1), arr[None], obs)
    return [Branch(k + 1, w, st) for k, w, st in zip(outcomes.tolist(), weights.tolist(), post)]


def unknown_result_mixture(state, obs: Observable) -> DensityState:
    """State assigned when a measurement happened but the result is unknown:
    the Born-weighted mixture of the collapsed branches."""
    arr = _coerce(state, obs.dim)
    mix = np.zeros((obs.dim, obs.dim), dtype=np.complex128)
    for b in collapse_branches(arr, obs):
        if b.post_state.ndim == 1:
            mix += b.probability * np.outer(b.post_state, b.post_state.conj())
        else:
            mix += b.probability * b.post_state
    return DensityState(obs.space_label, mix)


def oracle_sequence_distribution(initial_state, steps) -> Distribution:
    """Joint outcome distribution for a sequence of Measure / Evolve steps.

    Axis i of the table is the outcome of the i-th measure step.  An outcome
    of local probability at most 1e-12 is pruned, so the reported weights
    undershoot 1 by at most 1e-12 times the summed outcome counts of the
    measure steps.
    """
    steps = list(steps)
    if not any(isinstance(s, Measure) for s in steps):
        raise ValueError("sequence contains no measure steps")

    states = _coerce(initial_state)[None]
    index = np.zeros(1, dtype=np.intp)
    weights = np.ones(1)
    outcome_ranges: list[int] = []
    for step in steps:
        if isinstance(step, Measure):
            outcome_ranges.append(step.observable.outcome_count)
            index, weights, states = _measure(index, weights, states, step.observable)
        elif isinstance(step, Evolve):
            u = as_complex_matrix(step.unitary, "evolution")
            dim = states.shape[1]
            if u.shape != (dim, dim):
                raise ValueError(f"evolution has shape {u.shape}, state dimension is {dim}")
            if not is_unitary(u, DEFAULT_TOL):
                raise ValueError("evolution operator is not unitary")
            states = states @ u.T if states.ndim == 2 else u @ states @ u.conj().T
        else:
            raise ValueError(f"unknown oracle step {step!r}")

    # Leaf indices are unique, and each step prunes at most K * PRUNE_TOL of
    # the weight; the table spans the full product of outcomes so chain-side
    # comparisons align by position.
    table = np.zeros(outcome_ranges)
    table.reshape(-1)[index] = weights
    return Distribution(table)

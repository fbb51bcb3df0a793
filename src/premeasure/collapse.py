"""Projection-postulate oracle.

This module deliberately does what the chain simulator never does: it
collapses.  Measuring an observable splits a state into outcome branches
with Born weights; degenerate outcomes project onto the eigenspace and
renormalize (for a density operator, ``P rho P / tr(rho P)``).  Steps, each
an ``Observable`` to measure or an ``Evolve``, fan out into a branch tree
whose leaf weights give the joint outcome distribution predicted by the
postulate; the package shows that the collapse-free chain reproduces them.

The tree is grown one step at a time on its whole frontier, held as one
stack: the B branch states as a (B, d) array, or (B, d, d) for density
operators, their Born weights as (B,) and their outcomes so far as one
row-major index each into the product of the outcome counts, (B,) ints.  Only
the caller's state is checked, once; a measure step projects the stack onto
every outcome in one product against the stacked projectors and keeps the
branches above the pruning floor, and every step renormalizes the states it
makes.  ``collapse_branches`` is the measure step for a stack of one.  The
oracle shares no kernel with the chain on purpose: it is the independent
reference the chain is checked against.  It takes the compiled program's
plain records as its steps and checks each unitary itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .born import Distribution, clamp_probability
from .linalg import as_complex_matrix, as_state_vector, hermitian_evolution, is_unitary
from .model import SYSTEM_LABEL, DensityState, Observable, Record
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
        arr = state.matrix
    else:
        arr = np.asarray(state, dtype=np.complex128)
        if arr.ndim == 1:
            arr = as_state_vector(arr)
        elif arr.ndim == 2:
            arr = DensityState(SYSTEM_LABEL, arr).matrix
        else:
            raise ValueError("state must be a vector or a density matrix")
    return arr


def _weights(stack: np.ndarray, pure: bool) -> np.ndarray:
    """Squared norm of each vector (``pure``), else trace of each density
    matrix, of a stack of states."""
    if not pure:
        return np.trace(stack, axis1=-2, axis2=-1).real
    # |psi|^2 over the real and imaginary views: no conjugate copy.
    p = np.einsum("...i,...i->...", stack.real, stack.real)
    p += np.einsum("...i,...i->...", stack.imag, stack.imag)
    return p


def _measure(index: np.ndarray, weights: np.ndarray, states: np.ndarray, obs: Observable):
    """One measure step on the whole frontier: every kept (outcome, branch)
    pair as (index * K + outcome, weight * p, renormalized post state).

    ``index`` (B,) holds each branch's 0-based outcomes so far as one
    row-major index into the product of the outcome counts, ``weights`` (B,)
    its Born weight and ``states`` its (B, d) vector or (B, d, d) density
    matrix, each of unit norm or trace.  Outcome k of branch b is dropped
    when its own probability p is at most 1e-12, whatever the branch's
    weight: a rare branch keeps its likely children, and one step drops at
    most K * 1e-12 of the total weight.  Besides the frontier passed in, a
    step holds the K * B projected states, renormalized in place (and for
    density matrices the product's temporary stack); only a step that
    prunes copies the kept ones out of them.
    """
    if states.shape[1] != obs.dim:
        raise ValueError(f"state dimension {states.shape[1]} does not match {obs.dim}")
    proj = obs.projectors
    pure = states.ndim == 2
    if pure:
        post = states @ proj.transpose(0, 2, 1)  # post[k, b] = P_k psi_b
    else:
        post = proj[:, None] @ states @ proj[:, None]
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
    """Joint outcome distribution for a sequence of ``Observable`` (measure)
    and ``Evolve`` steps.

    Axis i of the table is the outcome of the i-th measure step.  An outcome
    of local probability at most 1e-12 is pruned, so the reported weights
    undershoot 1 by at most 1e-12 times the summed outcome counts of the
    measure steps.
    """
    steps = list(steps)
    if not any(isinstance(s, Observable) for s in steps):
        raise ValueError("sequence contains no measure steps")

    states = _coerce(initial_state)[None]
    index = np.zeros(1, dtype=np.intp)
    weights = np.ones(1)
    outcome_ranges: list[int] = []
    for step in steps:
        if isinstance(step, Observable):
            outcome_ranges.append(step.outcome_count)
            index, weights, states = _measure(index, weights, states, step)
        elif isinstance(step, Evolve):
            u = as_complex_matrix(step.unitary, "evolution")
            dim = states.shape[1]
            if u.shape != (dim, dim):
                raise ValueError(f"evolution has shape {u.shape}, state dimension is {dim}")
            if not is_unitary(u):
                raise ValueError("evolution operator is not unitary")
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

"""Projection-postulate oracle.

This module deliberately does what the chain simulator never does: it
collapses.  Measuring an observable splits a state into outcome branches
with Born weights; degenerate outcomes project onto the eigenspace and
renormalize (for a density operator, ``P rho P / tr(rho P)``).  Chains of
measure and evolve steps fan out into a branch tree whose leaf weights give
the joint outcome distribution predicted by the postulate.  The rest of the
package exists to show that the collapse-free chain reproduces these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .born import PROB_SLACK, Distribution, clamp_probability
from .linalg import as_complex_matrix, as_state_vector, is_unitary
from .model import DensityState, Observable
from .tolerances import DEFAULT_TOL, PRUNE_TOL


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
    if isinstance(state, DensityState):
        arr = state.matrix
    else:
        arr = np.asarray(state, dtype=np.complex128)
        if arr.ndim == 1:
            arr = as_state_vector(arr)
        elif arr.ndim == 2:
            arr = DensityState("S", arr).matrix
        else:
            raise ValueError("state must be a vector or a density matrix")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"state dimension {arr.shape[0]} does not match {dim}")
    return arr


def collapse_branches(state, obs: Observable) -> list[Branch]:
    """Born-weighted outcome branches of one measurement, pruned at 1e-12."""
    arr = _coerce(state, obs.dim)
    branches = []
    for k, p_op in enumerate(obs.projectors, start=1):
        if arr.ndim == 1:
            w = p_op @ arr
            p = float(np.vdot(w, w).real)
            if p <= PRUNE_TOL:
                continue
            post = w / np.sqrt(p)
        else:
            m = p_op @ arr @ p_op
            p = float(np.trace(m).real)
            if p <= PRUNE_TOL:
                continue
            post = m / p
        branches.append(Branch(k, clamp_probability(p), post))
    return branches


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


def oracle_sequence_distribution(initial_state, steps, labels=None) -> Distribution:
    """Joint outcome distribution for a sequence of Measure / Evolve steps.

    Outcome tuples are ordered by measure step; ``labels`` optionally names
    the tuple positions (defaults to m1, m2, ...).  Branches are pruned at
    1e-12, so the reported weights may undershoot 1 by at most a sliver.
    """
    steps = list(steps)
    measure_count = sum(1 for s in steps if isinstance(s, Measure))
    if measure_count == 0:
        raise ValueError("sequence contains no measure steps")
    if labels is None:
        labels = tuple(f"m{i}" for i in range(1, measure_count + 1))
    else:
        labels = tuple(labels)
        if len(labels) != measure_count:
            raise ValueError(
                f"{len(labels)} labels for {measure_count} measure steps"
            )

    state = _coerce(initial_state)
    frontier: list[tuple[tuple[int, ...], float, np.ndarray]] = [((), 1.0, state)]
    outcome_ranges: list[int] = []
    for step in steps:
        if isinstance(step, Measure):
            outcome_ranges.append(step.observable.outcome_count)
            grown = []
            for prefix, weight, st in frontier:
                for b in collapse_branches(st, step.observable):
                    w = weight * b.probability
                    if w <= PRUNE_TOL:
                        continue
                    grown.append((prefix + (b.outcome_index,), w, b.post_state))
            frontier = grown
        elif isinstance(step, Evolve):
            u = as_complex_matrix(step.unitary, "evolution")
            if not is_unitary(u, DEFAULT_TOL):
                raise ValueError("evolution operator is not unitary")
            frontier = [
                (prefix, weight, u @ st if st.ndim == 1 else u @ st @ u.conj().T)
                for prefix, weight, st in frontier
            ]
        else:
            raise ValueError(f"unknown oracle step {step!r}")

    # Pruned branches carry weight <= PRUNE_TOL each; the table spans the
    # full product of outcomes so chain-side comparisons align by position.
    table = np.zeros(outcome_ranges)
    for prefix, weight, _ in frontier:
        table[tuple(k - 1 for k in prefix)] += weight
    return Distribution(labels, table=table)

"""Seeded random states, bases, observables and whole scenarios.

Random orthonormal bases come from the QR factorization of a complex Gaussian
matrix; everything takes a ``numpy.random.Generator`` so callers control
determinism.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .model import SYSTEM_LABEL, Observable, make_observable


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank mixture of ``dim`` random pure states."""
    weights = rng.random(dim) + 0.1
    weights = weights / weights.sum()
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        v = random_state_vector(rng, dim)
        rho += w * np.outer(v, v.conj())
    return rho


def random_orthonormal_basis(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    return [q[:, k].copy() for k in range(dim)]


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def distinct_eigenvalues(rng: np.random.Generator, count: int) -> list[float]:
    # Integer spine plus jitter keeps pairwise separation >= 0.4.
    base = rng.permutation(count).astype(float)
    return list(base + rng.uniform(-0.3, 0.3, size=count))


def random_observable(rng: np.random.Generator, dim: int, label: str) -> Observable:
    basis = random_orthonormal_basis(rng, dim)
    return make_observable(label, SYSTEM_LABEL, distinct_eigenvalues(rng, dim), basis)


def random_degenerate_observable(rng: np.random.Generator, dim: int, label: str) -> Observable:
    """Observable with at least one eigenspace of dimension > 1 (needs dim >= 2)."""
    if dim < 2:
        raise ValueError("degeneracy needs dimension >= 2")
    cuts = sorted(rng.choice(range(1, dim), size=rng.integers(1, dim), replace=False))
    groups = np.split(np.arange(dim), cuts)
    if all(len(g) == 1 for g in groups):
        groups = [np.arange(2)] + [np.array([i]) for i in range(2, dim)]
    basis = np.array(random_orthonormal_basis(rng, dim)).T
    outcomes = np.repeat(np.arange(1, len(groups) + 1), [len(g) for g in groups])
    values = distinct_eigenvalues(rng, len(groups))
    return Observable(label, SYSTEM_LABEL, values, basis, outcomes)


# --- scenario generation -----------------------------------------------------

def _rows(mat: np.ndarray) -> dsl.Mat:
    return tuple(tuple(complex(z) for z in row) for row in mat)


def _obs_decl(name: str, obs: Observable) -> dsl.Statement:
    """Declaration matching ``obs``: eigen/basis when every outcome owns one
    basis column, projector form otherwise."""
    if obs.outcome_count == obs.dim:
        rows = obs.basis[:, np.argsort(obs.outcomes)].T
        return dsl.EigenObservableDecl(name, tuple(obs.eigenvalues), _rows(rows))
    return dsl.ProjectorObservableDecl(
        name, tuple(obs.eigenvalues), tuple(_rows(p) for p in obs.projectors)
    )


def random_scenario(rng: np.random.Generator, max_dim: int = 6, max_depth: int = 3) -> dsl.Scenario:
    """Random runnable scenario: a repeated ideal measurement, an optional
    evolution and reader, a second observable, and the standard queries.

    The layout matches what the property suite asserts on: devices M1..Mr
    measure A, MB measures B, with queries for repeatability, equivalence,
    a marginal, a joint and the reduced system state.
    """
    if max_dim < 2:
        raise ValueError("max_dim must be at least 2")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")

    # Mixed trials get a much smaller budget (and a smaller system) than pure
    # ones.  A purified mixed chain is at most the system dimension times the
    # size of its pure counterpart, so this is stricter than memory needs;
    # the budgets stay because they fix which scenario each (seed, trial) draws.
    mixed = rng.random() < 0.25
    if mixed:
        dim = int(rng.integers(2, min(max_dim, 4) + 1))
        budget = 1500
    else:
        dim = int(rng.integers(2, max_dim + 1))
        budget = 120_000

    statements: list[dsl.Statement] = [dsl.SystemDecl(dim)]

    if mixed:
        rho = random_density_matrix(rng, dim)
        statements.append(dsl.MixedStateDecl(_rows(rho)))
        pure = None
    else:
        pure = random_state_vector(rng, dim)
        statements.append(
            dsl.PureStateDecl(tuple(complex(z) for z in pure))
        )

    degenerate = dim >= 3 and rng.random() < 0.3
    if degenerate:
        obs_a = random_degenerate_observable(rng, dim, "A")
    else:
        obs_a = random_observable(rng, dim, "A")
    # Sometimes start in an eigenstate so some conditioning rows have zero
    # probability and the exclusion paths get exercised.
    if pure is not None and not degenerate and rng.random() < 0.2:
        aligned = obs_a.basis[:, 0]  # the eigenvector of outcome 1
        statements[1] = dsl.PureStateDecl(tuple(complex(z) for z in aligned))

    obs_b = random_observable(rng, dim, "B")
    statements.append(_obs_decl("A", obs_a))
    statements.append(_obs_decl("B", obs_b))

    evolve = rng.random() < 0.5
    if evolve:
        h = random_hermitian(rng, dim)
        statements.append(dsl.HamiltonianDecl("H", _rows(h)))

    n_a = obs_a.outcome_count

    # Counted over full pointer spaces, ready states included: more than the
    # chain stores, and kept because it fixes which scenario each (seed,
    # trial) draws.
    def composite_dim(repeat: int, reader: bool) -> int:
        total = dim * (n_a + 1) ** repeat * (dim + 1)
        return total * (n_a + 2) if reader else total

    repeat = int(rng.integers(2, max(2, min(max_depth, 4)) + 1))
    while repeat > 2 and composite_dim(repeat, False) > budget:
        repeat -= 1
    reader = rng.random() < 0.3 and composite_dim(repeat, True) <= budget

    repeat_labels = [f"M{i}" for i in range(1, repeat + 1)]
    for lbl in repeat_labels:
        statements.append(dsl.MeasureDeviceDecl(lbl, "A"))
    if reader:
        statements.append(dsl.ReaderDeviceDecl("R", repeat_labels[0]))
    if evolve:
        statements.append(dsl.EvolveNamedDecl("H", float(rng.uniform(0.0, 2 * np.pi))))
    statements.append(dsl.MeasureDeviceDecl("MB", "B"))

    statements.append(dsl.RepeatabilityQuery(repeat_labels[0], repeat_labels[1]))
    statements.append(dsl.EquivalenceQuery())
    statements.append(dsl.MarginalQuery("MB"))
    statements.append(
        dsl.JointQuery(tuple(dsl.EventRef(lbl, 1) for lbl in repeat_labels))
    )
    statements.append(dsl.ReducedQuery())
    return dsl.Scenario(tuple(statements))

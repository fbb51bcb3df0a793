"""Checks that the collapse-free chain reproduces collapse-postulate numbers.

Three kinds of report:

* repeatability: the conditional-outcome matrix between two devices in one
  chain, with its deviation from the identity.  The matrix itself is the
  finding; a weak first device shows exactly where repeatability breaks.
* collapse equivalence: every joint, marginal and pairwise conditional of the
  chain's ideal system devices, compared against the branch-tree oracle; the
  caller passes in the chain it built, so each scenario is built once.
* partial trace: the system marginal of a one-device chain compared against
  the unknown-result mixture of the projected branches.

Conditionals on events of probability <= 1e-12 are excluded from reports
rather than counted as failures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import engine
from .born import clamp_probability, joint_distribution, reduced_system_state, sum_to_axes
from .chain import ChainState
from .collapse import oracle_sequence_distribution, unknown_result_mixture
from .dsl import Scenario
from .tolerances import PROB_SLACK, REPORT_TOL


class WeakDeviceError(ValueError):
    """Raised when an equivalence claim is requested for a weak device."""


class QueryRecord(NamedTuple):
    """One compared quantity; values are floats or complex matrix entries."""

    query: str
    chain_value: complex
    oracle_value: complex
    abs_deviation: float


@dataclass(frozen=True)
class EquivalenceReport:
    records: tuple[QueryRecord, ...]
    max_deviation: float
    tol: float
    passed: bool

    def __post_init__(self):
        if self.passed != (self.max_deviation <= self.tol):
            raise ValueError("passed flag contradicts max_deviation vs tol")


def _compare(queries, chain_values, oracle_values) -> list[QueryRecord]:
    """One record per query name, pairing equal-shaped arrays elementwise."""
    c, o = chain_values.ravel(), oracle_values.ravel()
    rows = zip(queries, c.tolist(), o.tolist(), np.abs(c - o).tolist())
    return list(map(QueryRecord._make, rows))


def _make_report(records, tol: float) -> EquivalenceReport:
    records = tuple(records)
    max_dev = max((r.abs_deviation for r in records), default=0.0)
    return EquivalenceReport(records, max_dev, tol, max_dev <= tol)


@dataclass(frozen=True)
class RepeatabilityReport:
    """Rows are conditional distributions of the second device given the
    first; a ``None`` row marks a conditioning outcome of zero probability."""

    first_device: str
    second_device: str
    rows: tuple[tuple[float, ...] | None, ...]
    max_identity_deviation: float
    tol: float
    passed: bool


def repeatability_matrix(
    chain: ChainState,
    first_device: str,
    second_device: str,
    *,
    tol: float = REPORT_TOL,
) -> RepeatabilityReport:
    """Conditional matrix C[j][k] = p(second=k | first=j) and its deviation
    from the identity over the rows that are defined."""
    if first_device == second_device:
        raise ValueError("repeatability needs two distinct devices")
    n1 = chain.outcome_count(first_device)
    n2 = chain.outcome_count(second_device)
    if n1 != n2:
        raise ValueError(
            f"devices {first_device!r} and {second_device!r} have different "
            f"outcome counts ({n1} vs {n2})"
        )
    table = joint_distribution(chain, [first_device, second_device]).table
    rows: list[tuple[float, ...] | None] = []
    max_dev = 0.0
    for j, joint_row in enumerate(table):
        p_first = float(joint_row.sum())
        if p_first <= PROB_SLACK:
            rows.append(None)
            continue
        row = [clamp_probability(p) for p in (joint_row / p_first).tolist()]
        rows.append(tuple(row))
        row[j] -= 1.0
        max_dev = max(max_dev, *map(abs, row))
    return RepeatabilityReport(
        first_device, second_device, tuple(rows), max_dev, tol, max_dev <= tol
    )


def collapse_equivalence_report(
    scenario: Scenario, chain: ChainState, *, tol: float = REPORT_TOL
) -> EquivalenceReport:
    """Compare the chain against the collapse oracle on every joint, marginal
    and pairwise conditional of the scenario's ideal system devices.

    ``chain`` is the scenario's built chain (``engine.build_chain(scenario)``).
    Marginals and pair tables, for the chain and the oracle alike, are sums
    over their one joint table.
    """
    if scenario.has_weak_device():
        raise WeakDeviceError(
            "equivalence with the collapse postulate is only claimed for ideal "
            "premeasurements; this scenario attaches a weak device"
        )
    initial, steps, labels = engine.oracle_plan(scenario)
    if not labels:
        raise ValueError("scenario attaches no system devices; nothing to compare")
    oracle = oracle_sequence_distribution(initial, steps, labels=labels).table
    chain_table = joint_distribution(chain, labels).table

    events = ([f"{d}={k}" for k in range(1, n + 1)] for d, n in zip(labels, oracle.shape))
    names = map(" ".join, itertools.product(["joint"], *events))
    records = _compare(names, chain_table, oracle)
    for i, dev in enumerate(labels):
        records += _compare(
            (f"marginal {dev}={k}" for k in range(1, oracle.shape[i] + 1)),
            sum_to_axes(chain_table, (i,)),
            sum_to_axes(oracle, (i,)),
        )
    for i, earlier in enumerate(labels):
        for j, later in enumerate(labels[i + 1:], start=i + 1):
            pair_c, pair_o = sum_to_axes(chain_table, (i, j)), sum_to_axes(oracle, (i, j))
            pg_c, pg_o = pair_c.sum(axis=1, keepdims=True), pair_o.sum(axis=1, keepdims=True)
            rows = ((pg_c > PROB_SLACK) & (pg_o > PROB_SLACK)).ravel()
            names = (
                f"conditional {later}={k} given {earlier}={e}"
                for e in np.flatnonzero(rows) + 1
                for k in range(1, pair_c.shape[1] + 1)
            )
            records += _compare(names, pair_c[rows] / pg_c[rows], pair_o[rows] / pg_o[rows])
    return _make_report(records, tol)


def partial_trace_check(chain: ChainState, *, tol: float = REPORT_TOL) -> EquivalenceReport:
    """Entrywise comparison of the traced-out system state of a one-device
    chain with the collapse oracle's unknown-result mixture."""
    if len(chain.devices) != 1:
        raise ValueError("partial-trace check needs a chain with exactly one device")
    attached = chain.devices[0]
    if attached.mode != "ideal":
        raise ValueError("partial-trace check needs an ideal device")
    lhs = reduced_system_state(chain).matrix
    rhs = unknown_result_mixture(chain.initial_system_state, attached.spec.observable).matrix
    entries = itertools.product(range(lhs.shape[0]), repeat=2)
    records = _compare((f"reduced[{j}][{k}]" for j, k in entries), lhs, rhs)
    return _make_report(records, tol)

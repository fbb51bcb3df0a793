"""Checks that the collapse-free chain reproduces collapse-postulate numbers.

Three kinds of report:

* repeatability: the conditional-outcome matrix between two devices in one
  chain, with its deviation from the identity.  The matrix itself is the
  finding; a weak first device shows exactly where repeatability breaks.
* collapse equivalence: every joint, marginal and pairwise conditional of the
  chain's ideal system devices against the oracle run on the program's own
  records; the caller passes in the chain it built, so each is built once.  Both
  joint tables are contracted once against the one-hot indicator of the
  joint outcomes; every marginal and pair table is a block of that product.
  A scenario with a weak device is refused by ``engine.oracle_plan``, which
  raises ``WeakDeviceError`` (re-exported here).
* partial trace: the system marginal of a one-device chain compared against
  the unknown-result mixture of the projected branches.

Equivalence and partial-trace reports (``EquivalenceReport``) hold their
compared values as arrays and build no object per compared quantity until a
caller asks for ``records``.  Conditionals on events of probability <= 1e-12
are excluded from reports rather than counted as failures.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import engine
from .born import clamp_probability, joint_distribution, reduced_system_state
from .chain import ChainState
from .collapse import oracle_sequence_distribution, unknown_result_mixture
from .dsl import Scenario
from .engine import WeakDeviceError  # noqa: F401 - re-exported
from .model import Record
from .tolerances import PROB_SLACK, REPORT_TOL


class QueryRecord(NamedTuple):
    """One compared quantity; values are floats or complex matrix entries."""

    query: str
    chain_value: complex
    oracle_value: complex
    abs_deviation: float


class EquivalenceReport:
    """Compared quantities of one report as arrays, in record order.

    ``chain_values``, ``oracle_values`` and ``deviations`` (their absolute
    differences) are read-only 1-d arrays: float64 probabilities, or
    complex128 matrix entries for the partial-trace check.  ``queries``
    names the entries in the same order; ``names`` is called once, when
    ``queries`` is first read.  ``records`` pairs names and values as
    ``QueryRecord``s, built anew on each read.  ``passed`` is
    ``max_deviation <= tol``.
    """

    def __init__(self, names, chain_values: np.ndarray, oracle_values: np.ndarray, tol: float):
        self._names = names
        self.chain_values = chain_values
        self.oracle_values = oracle_values
        self.deviations = np.abs(chain_values - oracle_values)
        for values in (chain_values, oracle_values, self.deviations):
            values.setflags(write=False)
        self.max_deviation = float(np.max(self.deviations, initial=0.0))
        self.tol = tol
        self.passed = self.max_deviation <= tol

    @cached_property
    def queries(self) -> tuple[str, ...]:
        return tuple(self._names())

    @property
    def records(self) -> tuple[QueryRecord, ...]:
        rows = zip(
            self.queries,
            self.chain_values.tolist(),
            self.oracle_values.tolist(),
            self.deviations.tolist(),
        )
        return tuple(map(QueryRecord._make, rows))


# Scratch budget of the pair-table contraction per chunk of joint outcomes:
# the outcome indicator and its weighted copies stay near 1 MiB whatever the
# number of joint outcomes.
_CHUNK_BYTES = 2**20


def _pair_tables(tables) -> np.ndarray:
    """Every pair table of C joint tables of one shape, as blocks of one array.

    Each table has shape (K1, ..., Kn).  With offsets o_i = K1 + ... +
    K(i-1), the result G (C, S, S), S = K1 + ... + Kn, holds at
    [c, o_i + a, o_j + b] the probability under table c that device i shows
    a and device j shows b; block (i, i) is diagonal and holds device i's
    marginal.  It is one product A^T diag(p_c) A against the one-hot (N, S)
    indicator A of the N joint outcomes, summed over chunks of rows.
    """
    shape = tables[0].shape
    flat = [t.reshape(-1) for t in tables]
    count, width = len(tables), sum(shape)
    offsets = np.cumsum([0, *shape[:-1]]).tolist()
    # A chunk holds the joint outcomes that share the leading devices'
    # outcomes, so the trailing devices' part of its indicator is the same in
    # every chunk and the leading devices' part is one column each.
    budget = _CHUNK_BYTES // (8 * width * (count + 1))
    lead, rows = len(shape), 1
    while lead and rows * shape[lead - 1] <= budget:
        lead -= 1
        rows *= shape[lead]
    trailing = np.zeros((rows, width))
    before = 1
    for k, offset in zip(shape[lead:], offsets[lead:]):
        outcome = np.arange(k)
        view = trailing.reshape(before, k, rows // (before * k), width)
        view[:, outcome, :, offset + outcome] = 1.0
        before *= k
    out = np.zeros((width, count * width))
    for chunk, leading in enumerate(itertools.product(*map(range, shape[:lead]))):
        onehot = trailing.copy()
        onehot[:, [o + e for o, e in zip(offsets, leading)]] = 1.0
        p = np.stack([t[chunk * rows:(chunk + 1) * rows] for t in flat], axis=1)
        weighted = p[:, :, None] * onehot[:, None, :]
        out += onehot.T @ weighted.reshape(rows, count * width)
    return out.reshape(width, count, width).transpose(1, 0, 2)


class RepeatabilityReport(Record, eq=True):
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
    A weak device raises ``WeakDeviceError`` from ``engine.oracle_plan``.
    The chain's and the oracle's joint tables are contracted together once
    (``_pair_tables``); every marginal and pair conditional is read from that
    one result.  A conditional given an outcome of probability <= 1e-12 on
    either side is left out.
    """
    initial, steps, labels = engine.oracle_plan(scenario)
    if not labels:
        raise ValueError("scenario attaches no system devices; nothing to compare")
    oracle = oracle_sequence_distribution(initial, steps).table
    tables = (joint_distribution(chain, labels).table, oracle)
    pairs = _pair_tables(tables)
    marginals = np.diagonal(pairs, axis1=1, axis2=2)

    # Position s of the diagonal is one outcome of device[s].  Conditionals
    # run over devices i < j, then outcome e of i, then outcome k of j; each
    # divides by its row of the (i, j) pair table summed over k.
    events = [[f"{d}={k}" for k in range(1, n + 1)] for d, n in zip(labels, oracle.shape)]
    device = np.repeat(np.arange(len(labels)), oracle.shape)
    given, target = np.nonzero(device[:, None] < device[None, :])
    order = np.argsort(device[given] * len(labels) + device[target], kind="stable")
    given, target = given[order], target[order]
    row_sums = np.add.reduceat(pairs, np.cumsum((0, *oracle.shape[:-1])), axis=2)
    given_p = row_sums[:, given, device[target]]
    defined = (given_p > PROB_SLACK).all(axis=0)
    given, target = given[defined], target[defined]
    conditionals = pairs[:, given, target] / given_p[:, defined]

    def names():
        flat = list(itertools.chain.from_iterable(events))
        return itertools.chain(
            map(" ".join, itertools.product(["joint"], *events)),
            (f"marginal {e}" for e in flat),
            (
                f"conditional {flat[k]} given {flat[e]}"
                for e, k in zip(given.tolist(), target.tolist())
            ),
        )

    chain_values, oracle_values = (
        np.concatenate((t.reshape(-1), m, c))
        for t, m, c in zip(tables, marginals, conditionals)
    )
    return EquivalenceReport(names, chain_values, oracle_values, tol)


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

    def names():
        entries = itertools.product(range(lhs.shape[0]), repeat=2)
        return (f"reduced[{j}][{k}]" for j, k in entries)

    return EquivalenceReport(names, lhs.ravel(), rhs.ravel(), tol)

"""Randomized invariant suite behind the ``prop`` CLI command.

Each trial draws one random scenario and asserts, through the full engine
path, the invariants the package is built around:

* every attach map is an isometry,
* repeated ideal measurements agree (identity conditional matrix, and all
  repeat devices show the same outcome with probability 1),
* the chain's joint / marginal / conditional statistics match the collapse
  oracle (1e-9 when the trial includes time evolution, 1e-10 otherwise),
* tracing out a single ideal device reproduces the unknown-result mixture,
* the second observable's marginal obeys the law of total probability and
  equals ``tr(W_t P_k)`` for the evolved post-measurement mixture ``W_t``.

Each trial records six checks: ``unitarity``, ``repeatability``,
``avalanche``, ``equivalence``, ``partial-trace`` and ``total-probability``.
It builds its chain once.  The first step of that build, the one-device
chain of ``M1`` (the first event of every ``random_scenario``), is the chain
the partial-trace check traces out, and the full chain continues from it.
The mixture route reuses the partial-trace check's unknown-result mixture and
forms its own only when that check raised.

Trial ``i`` of seed ``s`` uses ``default_rng([s, i])``, so summaries are
byte-for-byte reproducible and single trials can be replayed.
"""

from __future__ import annotations

import numpy as np

from . import dsl, engine, sampling
from .born import joint_distribution, total_probability
from .chain import ChainState, attach_device, init_chain
from .collapse import Evolve, unknown_result_mixture
from .linalg import unitarity_residual
from .model import DeviceSpec, Record
from .tolerances import DYNAMIC_TOL, STRUCT_TOL
from .verify import collapse_equivalence_report, partial_trace_check, repeatability_matrix


class PropFailure(Record, eq=True):
    trial: int
    check: str
    deviation: float
    message: str
    scenario_text: str


class PropSummary:
    def __init__(self, checks_run: int = 0, max_deviation: float = 0.0, failures=None):
        self.checks_run = checks_run
        self.max_deviation = max_deviation
        self.failures: list[PropFailure] = [] if failures is None else failures

    def __eq__(self, other):
        return type(other) is PropSummary and vars(other) == vars(self)

    @property
    def passed(self) -> bool:
        return not self.failures


def run_property_suite(seed: int, trials: int, max_dim: int, max_depth: int) -> PropSummary:
    summary = PropSummary()
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        scenario = sampling.random_scenario(rng, max_dim=max_dim, max_depth=max_depth)
        _run_trial(trial, scenario, summary)
    return summary


def attach_residual(spec: DeviceSpec, target: DeviceSpec | None = None) -> float:
    """Distance from an isometry of ``spec``'s attach map as ``attach_device``
    runs it, with the spec's own disturbance if it is weak; a reader's
    ``target`` is attached first.

    The start is the identity on (system, ancilla), so each ancilla column is
    a system basis state and the grown state, ancilla axis last, is the map's
    matrix W: (d * prod K, d).
    """
    d = (target or spec).observable.dim
    chain = ChainState(np.eye(d, dtype=complex), (), np.eye(d) / d)
    if target is not None:
        chain = attach_device(chain, target)
    chain = attach_device(chain, spec)
    return unitarity_residual(np.moveaxis(chain.state, 1, -1).reshape(-1, d))


def _record(summary: PropSummary, trial: int, scenario: dsl.Scenario, check: str,
            deviation: float, tol: float) -> None:
    summary.checks_run += 1
    summary.max_deviation = max(summary.max_deviation, deviation)
    if deviation > tol:
        summary.failures.append(
            PropFailure(
                trial,
                check,
                deviation,
                f"deviation {deviation:.3e} exceeds {tol:g}",
                dsl.format_scenario(scenario),
            )
        )


def _run_trial(trial: int, scenario: dsl.Scenario, summary: PropSummary) -> None:
    def fail(check: str, message: str):
        summary.checks_run += 1
        summary.failures.append(
            PropFailure(trial, check, float("nan"), message, dsl.format_scenario(scenario))
        )

    # The one-device prefix is the build's first step: the partial-trace
    # check reads it and the full chain continues from it.
    try:
        observables = engine.build_observables(scenario)  # raises on diagnostics
        program = scenario.program
        prefix = engine.extend_chain(init_chain(program.initial_state), program.events[:1])
        chain = engine.extend_chain(prefix, program.events[1:])
    except Exception as exc:  # noqa: BLE001 - any build failure is a finding
        fail("build", f"chain construction failed: {exc}")
        return

    repeat_labels = [
        e.name
        for e in scenario.events
        if isinstance(e, dsl.MeasureDeviceDecl) and e.observable == "A"
    ]
    has_evolution = any(
        isinstance(e, (dsl.EvolveNamedDecl, dsl.EvolveUnitaryDecl))
        for e in scenario.events
    )
    dynamic_tol = DYNAMIC_TOL if has_evolution else STRUCT_TOL

    # Each attach map, as production runs it, must be an isometry.  A map
    # depends on its observable and disturbance alone, so the repeat devices
    # that share A's are checked once.
    attaches = {
        (id(e.observable), id(e.disturbance)): e
        for e in program.events
        if isinstance(e, DeviceSpec)
    }
    specs = {dev.label: dev for dev in chain.devices}
    residual = max(
        (attach_residual(e, specs.get(e.target)) for e in attaches.values()),
        default=0.0,
    )
    _record(summary, trial, scenario, "unitarity", residual, STRUCT_TOL)

    # Repeatability: identity conditionals plus all-devices-agree.
    try:
        rep = repeatability_matrix(chain, repeat_labels[0], repeat_labels[1], tol=STRUCT_TOL)
        _record(summary, trial, scenario, "repeatability", rep.max_identity_deviation, STRUCT_TOL)
        agree = joint_distribution(chain, repeat_labels).table
        p_equal = sum(float(agree[(j,) * agree.ndim]) for j in range(agree.shape[0]))
        _record(summary, trial, scenario, "avalanche", abs(p_equal - 1.0), STRUCT_TOL)
    except Exception as exc:  # noqa: BLE001
        fail("repeatability", str(exc))

    # Full equivalence with the collapse oracle.
    try:
        eq = collapse_equivalence_report(scenario, chain, tol=dynamic_tol)
        _record(summary, trial, scenario, "equivalence", eq.max_deviation, dynamic_tol)
    except Exception as exc:  # noqa: BLE001
        fail("equivalence", str(exc))

    # Partial trace of the one-device prefix chain.
    mixture = None
    try:
        pt = partial_trace_check(prefix, tol=STRUCT_TOL)
        _record(summary, trial, scenario, "partial-trace", pt.max_deviation, STRUCT_TOL)
        mixture = pt.oracle_values
    except Exception as exc:  # noqa: BLE001
        fail("partial-trace", str(exc))

    # Law of total probability and the mixture route to MB's marginal; the
    # mixture is the partial-trace check's collapse side when that check ran.
    try:
        direct = total_probability(chain, "MB")
        obs_a = observables["A"]
        if mixture is None:
            w = unknown_result_mixture(program.initial_state, obs_a).matrix
        else:
            w = mixture.reshape(obs_a.dim, obs_a.dim)
        for e in program.events:
            if isinstance(e, Evolve):
                w = e.unitary @ w @ e.unitary.conj().T
        via_mixture = [np.trace(w @ p).real for p in observables["B"].projectors]
        dev = float(np.max(np.abs(direct.table - via_mixture)))
        _record(summary, trial, scenario, "total-probability", dev, dynamic_tol)
    except Exception as exc:  # noqa: BLE001
        fail("total-probability", str(exc))

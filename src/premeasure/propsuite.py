"""Randomized invariant suite behind the ``prop`` CLI command.

Each trial draws one random scenario and asserts, through the full engine
path, the invariants the package is built around:

* every constructed interaction is unitary,
* repeated ideal measurements agree (identity conditional matrix, and all
  repeat devices show the same outcome with probability 1),
* the chain's joint / marginal / conditional statistics match the collapse
  oracle (1e-9 when the trial includes time evolution, 1e-10 otherwise),
* tracing out a single ideal device reproduces the unknown-result mixture,
* the second observable's marginal obeys the law of total probability and
  equals ``tr(W_t P_k)`` for the evolved post-measurement mixture ``W_t``.

Trial ``i`` of seed ``s`` uses ``default_rng([s, i])``, so summaries are
byte-for-byte reproducible and single trials can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsl, engine, sampling
from .born import joint_distribution, total_probability
from .chain import attach_device, build_ideal_unitary, init_chain, make_device
from .collapse import unknown_result_mixture
from .linalg import unitarity_residual
from .tolerances import DYNAMIC_TOL, STRUCT_TOL
from .verify import collapse_equivalence_report, partial_trace_check, repeatability_matrix


@dataclass(frozen=True)
class PropFailure:
    trial: int
    check: str
    deviation: float
    message: str
    scenario_text: str


@dataclass
class PropSummary:
    seed: int
    trials: int
    max_dim: int
    max_depth: int
    checks_run: int = 0
    max_deviation: float = 0.0
    failures: list[PropFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def run_property_suite(seed: int, trials: int, max_dim: int, max_depth: int) -> PropSummary:
    summary = PropSummary(seed, trials, max_dim, max_depth)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        scenario = sampling.random_scenario(rng, max_dim=max_dim, max_depth=max_depth)
        _run_trial(trial, scenario, summary)
    return summary


def _record(summary: PropSummary, trial: int, scenario: dsl.Scenario, check: str,
            deviation: float, tol: float, detail: str = "") -> None:
    summary.checks_run += 1
    summary.max_deviation = max(summary.max_deviation, deviation)
    if deviation > tol:
        summary.failures.append(
            PropFailure(
                trial,
                check,
                deviation,
                detail or f"deviation {deviation:.3e} exceeds {tol:g}",
                dsl.format_scenario(scenario),
            )
        )


def _run_trial(trial: int, scenario: dsl.Scenario, summary: PropSummary) -> None:
    def fail(check: str, message: str):
        summary.checks_run += 1
        summary.failures.append(
            PropFailure(trial, check, float("nan"), message, dsl.format_scenario(scenario))
        )

    try:
        chain = engine.build_chain(scenario)
    except Exception as exc:  # noqa: BLE001 - any build failure is a finding
        fail("build", f"chain construction failed: {exc}")
        return

    observables = engine.build_observables(scenario)
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

    # Interaction unitarity, re-derived from the specs rather than trusting
    # the attach path.
    residual = 0.0
    for ad in chain.devices:
        if ad.mode == "weak":
            continue
        u = build_ideal_unitary(ad.spec.observable, ad.spec)
        residual = max(residual, unitarity_residual(u))
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
        eq = collapse_equivalence_report(scenario, chain=chain, tol=dynamic_tol)
        _record(summary, trial, scenario, "equivalence", eq.max_deviation, dynamic_tol)
    except Exception as exc:  # noqa: BLE001
        fail("equivalence", str(exc))

    # Partial trace of the one-device prefix chain.
    try:
        obs_a = observables["A"]
        prefix = init_chain(engine.build_initial_state(scenario), engine.SYSTEM_LABEL)
        prefix = attach_device(prefix, make_device("M1", obs_a), mode="ideal")
        pt = partial_trace_check(prefix, tol=STRUCT_TOL)
        _record(summary, trial, scenario, "partial-trace", pt.max_deviation, STRUCT_TOL)
    except Exception as exc:  # noqa: BLE001
        fail("partial-trace", str(exc))

    # Law of total probability and the mixture route to MB's marginal.
    try:
        direct = total_probability(chain, "MB")
        w = unknown_result_mixture(engine.build_initial_state(scenario), obs_a).matrix
        for e in scenario.program.events:
            if isinstance(e, dsl.Evolution):
                w = e.unitary @ w @ e.unitary.conj().T
        via_mixture = [np.trace(w @ p).real for p in observables["B"].projectors]
        dev = float(np.max(np.abs(direct.table - via_mixture)))
        _record(summary, trial, scenario, "total-probability", dev, dynamic_tol)
    except Exception as exc:  # noqa: BLE001
        fail("total-probability", str(exc))

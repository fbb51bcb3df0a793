"""Answer the queries of a scenario against its final chain state.

Every query yields exactly one answer record: either a payload dict that maps
directly onto the shipped JSON schema, or an error. Complex numbers are
serialized as two-element [re, im] arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dsl, engine
from .born import (
    OutcomeEvent,
    ZeroProbabilityError,
    conditional_probability,
    joint_probability,
    marginal_distribution,
    reduced_system_state,
)
from .tolerances import REPORT_TOL
from .verify import (
    EquivalenceReport,
    RepeatabilityReport,
    WeakDeviceError,
    collapse_equivalence_report,
    repeatability_matrix,
)


@dataclass(frozen=True)
class QueryAnswer:
    index: int
    kind: str
    query: str
    payload: dict | None
    error: str | None = None
    error_kind: str | None = None  # "zero-probability" | "weak-equivalence" | "runtime"


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_payload(m) -> list[list[list[float]]]:
    return [[_c(z) for z in row] for row in m]


def _event_payload(ev: dsl.EventRef) -> dict:
    return {"device": ev.device, "outcome": ev.outcome}


def repeatability_payload(rep: RepeatabilityReport) -> dict:
    return {
        "first": rep.first_device,
        "second": rep.second_device,
        "rows": [list(r) if r is not None else None for r in rep.rows],
        "max_identity_deviation": rep.max_identity_deviation,
        "tol": rep.tol,
        "passed": rep.passed,
    }


def equivalence_payload(rep: EquivalenceReport) -> dict:
    def val(v: complex):
        v = complex(v)
        return float(v.real) if v.imag == 0.0 else _c(v)

    return {
        "scenario_id": rep.scenario_id,
        "records": [
            {
                "query": r.query,
                "chain": val(r.chain_value),
                "oracle": val(r.oracle_value),
                "deviation": r.abs_deviation,
            }
            for r in rep.records
        ],
        "max_deviation": rep.max_deviation,
        "tol": rep.tol,
        "passed": rep.passed,
    }


def run_scenario(
    scenario: dsl.Scenario,
    *,
    tol: float = REPORT_TOL,
    scenario_id: str = "scenario",
) -> list[QueryAnswer]:
    """Build the chain once and answer each query in order.

    Runtime failures (zero-probability conditions and the like) become error
    records instead of aborting the remaining queries.
    """
    chain = engine.build_chain(scenario)
    answers = []
    for index, q in enumerate(scenario.queries):
        text = dsl.format_statement(q)
        kind = _query_kind(q)
        try:
            payload = _answer(scenario, chain, q, tol, scenario_id)
            answers.append(QueryAnswer(index, kind, text, payload))
        except ZeroProbabilityError as exc:
            answers.append(QueryAnswer(index, kind, text, None, str(exc), "zero-probability"))
        except WeakDeviceError as exc:
            answers.append(QueryAnswer(index, kind, text, None, str(exc), "weak-equivalence"))
        except ValueError as exc:
            answers.append(QueryAnswer(index, kind, text, None, str(exc), "runtime"))
    return answers


def _query_kind(q) -> str:
    return {
        dsl.MarginalQuery: "marginal",
        dsl.JointQuery: "joint",
        dsl.ConditionalQuery: "conditional",
        dsl.ReducedQuery: "reduced",
        dsl.RepeatabilityQuery: "repeatability",
        dsl.EquivalenceQuery: "equivalence",
    }[type(q)]


def _answer(scenario, chain, q, tol: float, scenario_id: str) -> dict:
    if isinstance(q, dsl.MarginalQuery):
        dist = marginal_distribution(chain, q.device)
        return {
            "device": q.device,
            "distribution": {str(k[0]): p for k, p in dist.entries},
        }
    if isinstance(q, dsl.JointQuery):
        events = [OutcomeEvent(e.device, e.outcome) for e in q.events]
        return {
            "events": [_event_payload(e) for e in q.events],
            "probability": joint_probability(chain, events),
        }
    if isinstance(q, dsl.ConditionalQuery):
        target = OutcomeEvent(q.target.device, q.target.outcome)
        given = [OutcomeEvent(e.device, e.outcome) for e in q.given]
        return {
            "target": _event_payload(q.target),
            "given": [_event_payload(e) for e in q.given],
            "conditional": conditional_probability(chain, target, given),
        }
    if isinstance(q, dsl.ReducedQuery):
        ds = reduced_system_state(chain)
        return {"space": ds.space_label, "matrix": _matrix_payload(ds.matrix)}
    if isinstance(q, dsl.RepeatabilityQuery):
        rep = repeatability_matrix(
            chain, q.first, q.second, tol=tol, scenario_id=scenario_id
        )
        return repeatability_payload(rep)
    if isinstance(q, dsl.EquivalenceQuery):
        rep = collapse_equivalence_report(scenario, chain=chain, tol=tol, scenario_id=scenario_id)
        return equivalence_payload(rep)
    raise TypeError(f"unknown query {q!r}")


def answers_to_jsonable(answers: list[QueryAnswer]) -> list[dict]:
    out = []
    for a in answers:
        rec: dict = {"index": a.index, "kind": a.kind, "query": a.query}
        if a.error is None:
            rec["result"] = a.payload
        else:
            rec["error"] = a.error
            rec["error_kind"] = a.error_kind
        out.append(rec)
    return out

"""Known answers to scenario queries, computed from the parsed text alone.

This module is a test oracle that shares no code with the package beyond its
parser: it reads the statements of ``dsl.parse_scenario`` and does the
physics in plain numpy, the slow and obvious way.

* Every observable is a list of projectors: |v><v| for each basis row, or the
  matrices as written.
* The state is a density matrix on the whole composite space (system first,
  then one pointer factor per device in file order).  A device adds a factor
  in its ready state |0><0| and then acts by the dense unitary
  ``U = sum_k P_k (x) 1 (x) Shift^k`` on that space, followed for a weak
  device by ``V = sum_k R_k (x) 1 (x) |k><k| + 1 (x) 1 (x) |0><0|``.  A
  reader's projectors are the pointer states of its target, ready state last.
  ``interaction`` builds U and V; the chain tests call it on the measured
  factor and one pointer alone.
* ``evolve H t`` is ``exp(-iHt)`` from ``eigh``; the state evolves as
  ``U rho U^dagger`` and is never purified.
* Born numbers are ``tr(rho Pi)`` for the pointer projectors ``Pi``.
* The projection postulate is a plain sequential loop over the system's
  measure and evolve steps that keeps every unnormalized branch
  ``P_k rho P_k``; the trace of a branch is its joint probability.

``answers`` returns the same JSON shape as ``runner.answers_to_jsonable``
minus the query text, with ``error_kind`` in place of an error message.
"""

from __future__ import annotations

import itertools

import numpy as np

from premeasure import dsl

# Conditioning events at or below this probability are undefined.
ZERO_PROBABILITY = 1e-12
# Default pass/fail tolerance of repeatability and equivalence reports.
REPORT_TOL = 1e-10


def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


def _shift(p: int) -> np.ndarray:
    """Cyclic add-1 shift |j> -> |j+1 mod p>."""
    return np.roll(np.eye(p), 1, axis=0)


def _state_projector(k: int, p: int) -> np.ndarray:
    """|k><k| on a p-dimensional factor."""
    e = np.zeros((p, p))
    e[k, k] = 1.0
    return e


def _on(ops: dict[int, np.ndarray], dims: list[int]) -> np.ndarray:
    """Kronecker product of ``ops[i]`` on factor i and identities elsewhere."""
    out = np.ones((1, 1), dtype=np.complex128)
    for i, d in enumerate(dims):
        out = np.kron(out, ops.get(i, np.eye(d)))
    return out


def interaction(ops, dims: list[int], measured: int, new: int, weak=None) -> np.ndarray:
    """Dense premeasurement unitary on the factors ``dims``:
    ``U = sum_k ops[k-1] (x) Shift^k`` on factors ``measured`` and ``new``,
    followed, given the per-outcome system unitaries ``weak``, by
    ``V = sum_k R_k (x) |k><k| + 1 (x) |0><0|`` on factors 0 and ``new``."""
    p = dims[new]
    u = sum(
        _on({measured: op, new: np.linalg.matrix_power(_shift(p), k)}, dims)
        for k, op in enumerate(ops, start=1)
    )
    if weak is not None:
        v = _on({new: _state_projector(0, p)}, dims) + sum(
            _on({0: _mat(r), new: _state_projector(k, p)}, dims)
            for k, r in enumerate(weak, start=1)
        )
        u = v @ u
    return u


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR factorization of a complex Gaussian
    matrix, for weak-device and evolution inputs; the package draws none."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class Reference:
    """Final density matrix and projection-postulate plan of one scenario."""

    def __init__(self, scenario: dsl.Scenario):
        stmts = scenario.statements
        self.dim = d = next(s.dim for s in stmts if isinstance(s, dsl.SystemDecl))
        projectors: dict[str, list[np.ndarray]] = {}
        hamiltonians: dict[str, np.ndarray] = {}
        self.dims = [d]
        self.factor: dict[str, int] = {}  # device -> factor index
        self.outcomes: dict[str, int] = {}  # device -> outcome count
        self.kind: dict[str, str] = {}  # device -> ideal | weak | reader
        # Oracle steps: ("measure", device, projectors) or ("evolve", unitary).
        self.steps: list[tuple] = []
        rho = None
        for s in stmts:
            if isinstance(s, dsl.PureStateDecl):
                v = _mat(s.amplitudes)
                v = v / np.linalg.norm(v)
                rho = self.initial = np.outer(v, v.conj())
            elif isinstance(s, dsl.MixedStateDecl):
                m = _mat(s.rows)
                rho = self.initial = m / np.trace(m).real
            elif isinstance(s, dsl.EigenObservableDecl):
                rows = _mat(s.basis)
                rows = rows / np.linalg.norm(rows, axis=1)[:, None]
                projectors[s.name] = [np.outer(v, v.conj()) for v in rows]
            elif isinstance(s, dsl.ProjectorObservableDecl):
                projectors[s.name] = [_mat(m) for m in s.projectors]
            elif isinstance(s, dsl.HamiltonianDecl):
                hamiltonians[s.name] = _mat(s.matrix)
            elif isinstance(s, (dsl.EvolveNamedDecl, dsl.EvolveUnitaryDecl)):
                if isinstance(s, dsl.EvolveNamedDecl):
                    w, v = np.linalg.eigh(hamiltonians[s.hamiltonian])
                    u = v @ np.diag(np.exp(-1j * w * s.time)) @ v.conj().T
                else:
                    u = _mat(s.matrix)
                big = _on({0: u}, self.dims)
                rho = big @ rho @ big.conj().T
                self.steps.append(("evolve", u))
            elif isinstance(s, (dsl.MeasureDeviceDecl, dsl.ReaderDeviceDecl)):
                if isinstance(s, dsl.MeasureDeviceDecl):
                    measured, ops, weak = 0, projectors[s.observable], s.weak
                    self.kind[s.name] = "ideal" if weak is None else "weak"
                else:
                    measured = self.factor[s.target]
                    p_t = self.dims[measured]
                    ops = [_state_projector(k, p_t) for k in list(range(1, p_t)) + [0]]
                    weak = None
                    self.kind[s.name] = "reader"
                n = len(ops)
                p = n + 1
                new = self.factor[s.name] = len(self.dims)
                self.outcomes[s.name] = n
                self.dims.append(p)
                rho = np.kron(rho, _state_projector(0, p))
                u = interaction(ops, self.dims, measured, new, weak)
                rho = u @ rho @ u.conj().T
                if self.kind[s.name] == "ideal":
                    self.steps.append(("measure", s.name, ops))
        self.rho = rho

    # --- Born numbers of the final state -----------------------------------

    def probability(self, events: dict[str, int]) -> float:
        """tr(rho Pi) for the pointer projector Pi of ``events`` (device ->
        outcome index)."""
        pi = np.ones(1)
        for i, p in enumerate(self.dims):
            pick = [k for dev, k in events.items() if self.factor[dev] == i]
            pi = np.outer(pi, np.eye(p)[pick[0]] if pick else np.ones(p)).ravel()
        return float(np.real(np.diagonal(self.rho) @ pi))

    def table(self, devices: list[str]) -> np.ndarray:
        """Joint distribution over outcomes 1..n of each listed device."""
        ranges = [range(1, self.outcomes[dev] + 1) for dev in devices]
        return np.array(
            [self.probability(dict(zip(devices, ks))) for ks in itertools.product(*ranges)]
        ).reshape([len(r) for r in ranges])

    def reduced(self) -> np.ndarray:
        rest = self.rho.shape[0] // self.dim
        return np.trace(self.rho.reshape(self.dim, rest, self.dim, rest), axis1=1, axis2=3)

    # --- projection postulate ----------------------------------------------

    def postulate_table(self) -> tuple[list[str], np.ndarray]:
        """Joint outcome probabilities of the ideal system devices, from
        sequential projection of the initial system state."""
        labels = [step[1] for step in self.steps if step[0] == "measure"]
        branches = {(): self.initial}
        for step in self.steps:
            if step[0] == "evolve":
                u = step[1]
                branches = {key: u @ r @ u.conj().T for key, r in branches.items()}
            else:
                branches = {
                    key + (k,): p @ r @ p
                    for key, r in branches.items()
                    for k, p in enumerate(step[2], start=1)
                }
        shape = [self.outcomes[dev] for dev in labels]
        table = np.zeros(shape)
        for key, r in branches.items():
            table[tuple(k - 1 for k in key)] = np.trace(r).real
        return labels, table


def _error(kind: str) -> dict:
    return {"error_kind": kind}


def _conditional(ref: Reference, target: dsl.EventRef, given) -> dict:
    given_events = {e.device: e.outcome for e in given}
    p_given = ref.probability(given_events)
    if p_given <= ZERO_PROBABILITY:
        return _error("zero-probability")
    p_both = ref.probability({**given_events, target.device: target.outcome})
    return {"conditional": p_both / p_given}


def _repeatability(ref: Reference, q: dsl.RepeatabilityQuery) -> dict:
    table = ref.table([q.first, q.second])
    rows, deviation = [], 0.0
    for j, row in enumerate(table):
        if row.sum() <= ZERO_PROBABILITY:
            rows.append(None)
            continue
        cond = row / row.sum()
        rows.append(list(cond))
        deviation = max(deviation, float(np.max(np.abs(cond - np.eye(len(row))[j]))))
    return {
        "first": q.first,
        "second": q.second,
        "rows": rows,
        "max_identity_deviation": deviation,
        "tol": REPORT_TOL,
        "passed": deviation <= REPORT_TOL,
    }


def _equivalence(ref: Reference) -> dict:
    if "weak" in ref.kind.values():
        return _error("weak-equivalence")
    labels, oracle = ref.postulate_table()
    if not labels:
        return _error("runtime")
    chain = ref.table(labels)
    records = []

    def add(name, c, o):
        records.append({"query": name, "chain": c, "oracle": o, "deviation": abs(c - o)})

    for ks in itertools.product(*(range(1, n + 1) for n in chain.shape)):
        name = "joint " + " ".join(f"{d}={k}" for d, k in zip(labels, ks))
        index = tuple(k - 1 for k in ks)
        add(name, chain[index], oracle[index])
    for i, dev in enumerate(labels):
        others = tuple(a for a in range(len(labels)) if a != i)
        c, o = chain.sum(axis=others), oracle.sum(axis=others)
        for k in range(len(c)):
            add(f"marginal {dev}={k + 1}", c[k], o[k])
    for i, j in itertools.combinations(range(len(labels)), 2):
        others = tuple(a for a in range(len(labels)) if a not in (i, j))
        pair_c, pair_o = chain.sum(axis=others), oracle.sum(axis=others)
        for e in range(pair_c.shape[0]):
            pg_c, pg_o = pair_c[e].sum(), pair_o[e].sum()
            if pg_c <= ZERO_PROBABILITY or pg_o <= ZERO_PROBABILITY:
                continue
            for k in range(pair_c.shape[1]):
                add(
                    f"conditional {labels[j]}={k + 1} given {labels[i]}={e + 1}",
                    pair_c[e, k] / pg_c,
                    pair_o[e, k] / pg_o,
                )
    worst = max((r["deviation"] for r in records), default=0.0)
    return {
        "records": records,
        "max_deviation": worst,
        "tol": REPORT_TOL,
        "passed": worst <= REPORT_TOL,
    }


def answers(scenario: dsl.Scenario, scenario_id: str = "scenario") -> list[dict]:
    """One record per query, in file order: ``{"index", "kind", "result"}``
    or ``{"index", "kind", "error_kind"}``."""
    ref = Reference(scenario)
    out = []
    for index, q in enumerate(scenario.queries):
        if isinstance(q, dsl.MarginalQuery):
            dist = ref.table([q.device])
            kind, result = "marginal", {
                "device": q.device,
                "distribution": {str(k): float(p) for k, p in enumerate(dist, start=1)},
            }
        elif isinstance(q, dsl.JointQuery):
            events = [{"device": e.device, "outcome": e.outcome} for e in q.events]
            kind, result = "joint", {
                "events": events,
                "probability": ref.probability({e.device: e.outcome for e in q.events}),
            }
        elif isinstance(q, dsl.ConditionalQuery):
            kind, result = "conditional", _conditional(ref, q.target, q.given)
            if "conditional" in result:
                result = {
                    "target": {"device": q.target.device, "outcome": q.target.outcome},
                    "given": [{"device": e.device, "outcome": e.outcome} for e in q.given],
                    **result,
                }
        elif isinstance(q, dsl.ReducedQuery):
            m = ref.reduced()
            kind, result = "reduced", {
                "space": "S",
                "matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()],
            }
        elif isinstance(q, dsl.RepeatabilityQuery):
            kind, result = "repeatability", _repeatability(ref, q)
        else:
            kind, result = "equivalence", {"scenario_id": scenario_id, **_equivalence(ref)}
        record = {"index": index, "kind": kind}
        if "error_kind" in result:
            record["error_kind"] = result["error_kind"]
        else:
            record["result"] = result
        out.append(record)
    return out

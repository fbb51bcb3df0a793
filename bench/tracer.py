"""Spans around the public functions of each ``premeasure`` module.

The tracer wraps every function named in ``TRACED`` in every ``premeasure.*``
module namespace that binds it (``runner`` and ``verify`` import Born-rule
functions by name, so patching ``born`` alone would miss their calls).  A name
that no longer resolves raises ``TraceDrift`` instead of going untraced.

Each span records name, start, end, parent span and op id; spans stay in
memory until ``write_spans``.  A span's self time is its duration minus the
durations of its child spans (calls are nested and single-threaded, so the
children never overlap).  Some functions are only counted, not timed, because
they are called tens of thousands of times per pass.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, metric prefix, timed)
TRACED = (
    ("cli", "main", "cli.main", True),
    ("dsl", "parse_scenario", "dsl.parse_scenario", True),
    ("dsl", "validate_scenario", "dsl.validate_scenario", True),
    ("engine", "build_chain", "engine.build_chain", True),
    ("engine", "build_observables", "engine.build_observables", True),
    ("engine", "oracle_plan", "engine.oracle_plan", True),
    ("model", "make_observable", "model.observable", True),
    ("model", "make_degenerate_observable", "model.observable", True),
    ("chain", "make_reader_device", "model.observable", True),
    ("chain", "attach_device", "chain.attach_device", True),
    ("chain", "apply_evolution", "chain.apply_evolution", True),
    ("linalg", "apply_operator", "linalg.apply_operator", True),
    ("linalg", "is_unitary", "linalg.is_unitary", True),
    ("linalg", "partial_trace", "linalg.partial_trace", True),
    ("linalg", "hermitian_evolution", "linalg.hermitian_evolution", True),
    ("born", "joint_distribution", "born.joint_distribution", True),
    ("born", "Distribution.probability", "born.Distribution.probability", False),
    ("born", "conditional_probability", "born.conditional_probability", True),
    ("born", "joint_probability", "born.joint_probability", True),
    ("born", "marginal_distribution", "born.marginal_distribution", True),
    ("born", "total_probability", "born.total_probability", True),
    ("born", "reduced_system_state", "born.reduced_system_state", True),
    ("collapse", "oracle_sequence_distribution", "collapse.oracle_sequence_distribution", True),
    ("collapse", "collapse_branches", "collapse.collapse_branches", True),
    ("collapse", "unknown_result_mixture", "collapse.unknown_result_mixture", True),
    ("verify", "collapse_equivalence_report", "verify.collapse_equivalence_report", True),
    ("verify", "repeatability_matrix", "verify.repeatability_matrix", True),
    ("verify", "partial_trace_check", "verify.partial_trace_check", True),
    ("runner", "run_scenario", "runner.run_scenario", True),
    ("propsuite", "run_property_suite", "propsuite.run_property_suite", True),
    ("sampling", "random_scenario", "sampling.random_scenario", True),
)

# Per-layer metrics reported by the traced run: name -> unit.  Names ending
# in ``_s`` are self time summed over the traced pass; ``.calls`` are counts.
PER_LAYER_UNITS = {
    "import.python_s": "s",
    "import.numpy_s": "s",
    "import.premeasure_s": "s",
    "cli.main_s": "s",
    "cli.output_bytes": "B",
    "dsl.parse_scenario_s": "s",
    "dsl.validate_scenario_s": "s",
    "engine.build_chain_s": "s",
    "engine.build_chain.calls": "count",
    "engine.build_observables_s": "s",
    "engine.build_observables.calls": "count",
    "engine.oracle_plan_s": "s",
    "model.observable_s": "s",
    "model.observable.calls": "count",
    "chain.attach_device_s": "s",
    "chain.attach_device.calls": "count",
    "chain.apply_evolution_s": "s",
    "chain.state_bytes_max": "B",
    "linalg.apply_operator_s": "s",
    "linalg.apply_operator.calls": "count",
    "linalg.apply_operator.bytes": "B",
    "linalg.is_unitary_s": "s",
    "linalg.partial_trace_s": "s",
    "linalg.hermitian_evolution_s": "s",
    "born.joint_distribution_s": "s",
    "born.joint_distribution.calls": "count",
    "born.outcome_tuples": "count",
    "born.Distribution.probability.calls": "count",
    "born.conditional_probability_s": "s",
    "born.conditional_probability.calls": "count",
    "born.joint_probability_s": "s",
    "born.marginal_distribution_s": "s",
    "born.total_probability_s": "s",
    "born.reduced_system_state_s": "s",
    "collapse.oracle_sequence_distribution_s": "s",
    "collapse.collapse_branches.calls": "count",
    "collapse.branch_keep_ratio": "ratio",
    "collapse.branches_kept": "count",
    "collapse.outcomes_attempted": "count",
    "collapse.unknown_result_mixture_s": "s",
    "verify.collapse_equivalence_report_s": "s",
    "verify.collapse_equivalence_report.calls": "count",
    "verify.records": "count",
    "verify.max_deviation": "prob",
    "verify.repeatability_matrix_s": "s",
    "verify.partial_trace_check_s": "s",
    "runner.run_scenario_s": "s",
    "runner.error_answers": "count",
    "propsuite.run_property_suite_s": "s",
    "propsuite.checks_run": "count",
    "propsuite.failures": "count",
    "sampling.random_scenario_s": "s",
    "trace.overhead_ratio": "ratio",
}


class TraceDrift(RuntimeError):
    """A traced name no longer resolves in the imported package."""


def _resolve(module, qualname: str):
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    func = getattr(owner, parts[-1], None) if owner is not None else None
    if not callable(func):
        raise TraceDrift(
            f"{module.__name__}.{qualname} does not resolve; update bench/tracer.py "
            "so the layer stays traced"
        )
    return owner, parts[-1], func


class Tracer:
    """Installs wrappers, collects spans and counters, removes wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [prefix, start, end, parent, op]
        self.op_id = -1
        self._stack: list[list] = []  # [span index, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.computed: dict[str, float] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        targets = []
        for mod_name, qualname, prefix, timed in TRACED:
            home = sys.modules.get(f"premeasure.{mod_name}")
            if home is None:
                raise TraceDrift(f"premeasure.{mod_name} is not imported")
            targets.append((home, *_resolve(home, qualname), prefix, timed))
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "premeasure" or name.startswith("premeasure."))
        ]
        for home, owner, attr, func, prefix, timed in targets:
            wrapper = self._wrap(func, prefix, timed)
            if owner is not home:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, func, prefix: str, timed: bool):
        observe = _OBSERVERS.get(prefix)
        tracer = self

        if not timed:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                tracer.calls[prefix] += 1
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return tracer.call(prefix, func, args, kwargs, observe)
        return traced

    def call(self, prefix: str, func, args, kwargs, observe=None):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        span = [prefix, 0.0, 0.0, parent, self.op_id]
        self.spans.append(span)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span[1], span[2] = start, end
            duration = end - start
            self.self_s[prefix] += duration - frame[1]
            self.calls[prefix] += 1
            if self._stack:
                self._stack[-1][1] += duration
        if observe is not None:
            observe(self.computed, args, kwargs, result)
        return result

    def op(self, op_id: int, func, case):
        """Run one benchmark op under a root span."""
        self.op_id = op_id
        return self.call("bench.op", func, (case,), {})

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in PER_LAYER_UNITS:
            if name.endswith("_s") and not name.startswith("import."):
                out[name] = self.self_s.get(name[:-2], 0.0)
            elif name.endswith(".calls"):
                out[name] = self.calls.get(name[: -len(".calls")], 0)
        c = self.computed
        out["chain.state_bytes_max"] = c["chain.state_bytes_max"]
        out["linalg.apply_operator.bytes"] = c["linalg.apply_operator.bytes"]
        out["born.outcome_tuples"] = c["born.outcome_tuples"]
        out["collapse.branches_kept"] = c["collapse.branches_kept"]
        out["collapse.outcomes_attempted"] = c["collapse.outcomes_attempted"]
        attempted = c["collapse.outcomes_attempted"]
        out["collapse.branch_keep_ratio"] = c["collapse.branches_kept"] / attempted if attempted else 0.0
        out["verify.records"] = c["verify.records"]
        out["verify.max_deviation"] = c["verify.max_deviation"]
        out["runner.error_answers"] = c["runner.error_answers"]
        out["propsuite.checks_run"] = c["propsuite.checks_run"]
        out["propsuite.failures"] = c["propsuite.failures"]
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: prefix, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- counters derived from arguments and results -------------------------------

def _state_bytes(c, args, kwargs, result):
    c["chain.state_bytes_max"] = max(c["chain.state_bytes_max"], result.state.nbytes)


def _apply_operator(c, args, kwargs, result):
    state = args[3] if len(args) > 3 else kwargs["state"]
    c["linalg.apply_operator.bytes"] += getattr(state, "nbytes", 0) + result.nbytes


def _joint_distribution(c, args, kwargs, result):
    chain = args[0]
    labels = args[1] if len(args) > 1 else kwargs["device_labels"]
    c["born.outcome_tuples"] += math.prod(chain.outcome_count(lbl) for lbl in labels)


def _collapse_branches(c, args, kwargs, result):
    obs = args[1] if len(args) > 1 else kwargs["obs"]
    c["collapse.branches_kept"] += len(result)
    c["collapse.outcomes_attempted"] += obs.outcome_count


def _equivalence(c, args, kwargs, result):
    c["verify.records"] += len(result.records)
    c["verify.max_deviation"] = max(c["verify.max_deviation"], result.max_deviation)


def _run_scenario(c, args, kwargs, result):
    c["runner.error_answers"] += sum(1 for a in result if a.error is not None)


def _property_suite(c, args, kwargs, result):
    c["propsuite.checks_run"] += result.checks_run
    c["propsuite.failures"] += len(result.failures)


_OBSERVERS = {
    "chain.attach_device": _state_bytes,
    "chain.apply_evolution": _state_bytes,
    "linalg.apply_operator": _apply_operator,
    "born.joint_distribution": _joint_distribution,
    "collapse.collapse_branches": _collapse_branches,
    "verify.collapse_equivalence_report": _equivalence,
    "runner.run_scenario": _run_scenario,
    "propsuite.run_property_suite": _property_suite,
}

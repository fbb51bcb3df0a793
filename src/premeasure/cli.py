"""Command-line interface.

Three subcommands:

* ``run SCENARIO``     answer the scenario's queries (json, csv or text);
* ``verify SCENARIO``  answer its queries, report the repeatability /
  equivalence ones and exit 0 only if every equivalence report passes;
* ``prop``             run the randomized invariant suite.

Exit codes: 0 success; 1 usage, parse or validation failure; 2 runtime
failure such as conditioning on a zero-probability event, a chain that
cannot be built, a run that exhausts memory or a standard output closed by
its reader; 3 property-suite violation (a generated scenario whose chain
cannot be built counts as a ``build`` failure, so it too exits 3).  ``prop``
exits 1 for a negative seed or a ``--max-dim`` past the size limits, and 2
when it cannot write a reproducer file into ``--out-dir``.
In ``run`` and ``verify`` the first failed answer exits 2 (``verify`` looks
only at its repeatability and equivalence answers); ``run`` prints its
document first, ``verify`` prints none.
``PREMEASURE_TOL`` overrides the default report tolerance of 1e-10.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, dsl, runner
from .tolerances import REPORT_TOL

SCHEMA_VERSION = 1
ENV_TOL = "PREMEASURE_TOL"
VERIFIED_KINDS = ("repeatability", "equivalence")  # the query kinds verify reports


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for runtime errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw}")
    return value


def _tolerance(args) -> float | None:
    """``--tol``, else ``PREMEASURE_TOL``, else the default; None after reporting a bad one."""
    raw = os.environ.get(ENV_TOL)
    if args.tol is not None or raw is None:
        return REPORT_TOL if args.tol is None else args.tol
    try:
        return _positive_float(raw)
    except argparse.ArgumentTypeError:
        print(f"premeasure: invalid {ENV_TOL} value {raw!r}", file=sys.stderr)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="premeasure")
    parser.add_argument("--version", action="version", version=f"premeasure {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and print its query results")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_run.add_argument("--tol", type=_positive_float, default=None,
                       help="tolerance for embedded verification queries")

    p_verify = sub.add_parser("verify", help="evaluate verification queries")
    p_verify.add_argument("scenario", help="path to a scenario file")
    p_verify.add_argument("--tol", type=_positive_float, default=None)

    p_prop = sub.add_parser("prop", help="run the randomized invariant suite")
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--trials", type=int, default=100)
    p_prop.add_argument("--max-dim", type=int, default=6)
    p_prop.add_argument("--max-depth", type=int, default=3)
    p_prop.add_argument("--out-dir", default=".",
                        help="directory for reproducer scenario files")
    return parser


def _load_scenario(path: str) -> dsl.Scenario | None:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"premeasure: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(
            f"premeasure: cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})",
            file=sys.stderr,
        )
        return None
    try:
        scenario = dsl.parse_scenario(text)
    except dsl.ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return None
    diagnostics = dsl.validate_scenario(scenario)
    if diagnostics:
        for d in diagnostics:
            print(f"{path}:{d}", file=sys.stderr)
        return None
    return scenario


def _run_answers(scenario: dsl.Scenario, tol: float, scenario_id: str):
    """(answers, elapsed seconds), or None after reporting a chain that
    could not be built (a runtime failure)."""
    started = time.perf_counter()
    try:
        answers = runner.run_scenario(scenario, tol=tol, scenario_id=scenario_id)
    except ValueError as exc:
        print(f"premeasure: {exc}", file=sys.stderr)
        return None
    return answers, time.perf_counter() - started


def _print_doc(kind: str, **fields) -> None:
    """Print one JSON output document: ``fields`` under the common header."""
    header = {"kind": kind, "schema_version": SCHEMA_VERSION, "tool_version": __version__}
    print(json.dumps({**header, **fields}, indent=2, sort_keys=True))


def _failure(answers) -> int:
    """Exit code of ``answers``: 2 after naming the first failed one on stderr, else 0."""
    for a in answers:
        if a.error is not None:
            print(f"premeasure: {a.query}: {a.error}", file=sys.stderr)
            return 2
    return 0


def cmd_run(args) -> int:
    tol = _tolerance(args)
    scenario = None if tol is None else _load_scenario(args.scenario)
    if scenario is None:
        return 1
    outcome = _run_answers(scenario, tol, args.scenario)
    if outcome is None:
        return 2
    answers, elapsed = outcome

    if args.format == "json":
        _print_doc("run", scenario=args.scenario, tolerance=tol, elapsed_s=elapsed,
                   results=runner.answers_to_jsonable(answers))
    elif args.format == "csv":
        print(_answers_csv(answers), end="")
    else:
        for line in _answers_text(answers):
            print(line)
    return _failure(answers)


def _answers_csv(answers) -> str:
    import csv  # imported here: only this output format needs it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "kind", "query", "item", "value"])
    for a in answers:
        if a.error is not None:
            writer.writerow([a.index, a.kind, a.query, "error", a.error])
            continue
        p = a.payload
        if a.kind == "marginal":
            for k, v in p["distribution"].items():
                writer.writerow([a.index, a.kind, a.query, f"{p['device']}={k}", repr(v)])
        elif a.kind == "joint":
            writer.writerow([a.index, a.kind, a.query, "probability", repr(p["probability"])])
        elif a.kind == "conditional":
            writer.writerow([a.index, a.kind, a.query, "conditional", repr(p["conditional"])])
        elif a.kind == "reduced":
            m = p["matrix"]
            for i, row in enumerate(m):
                for j, (re, im) in enumerate(row):
                    writer.writerow([a.index, a.kind, a.query, f"matrix[{i}][{j}].re", repr(re)])
                    writer.writerow([a.index, a.kind, a.query, f"matrix[{i}][{j}].im", repr(im)])
        elif a.kind == "repeatability":
            for j, row in enumerate(p["rows"], start=1):
                if row is None:
                    continue
                for k, v in enumerate(row, start=1):
                    writer.writerow([a.index, a.kind, a.query, f"C[{j}][{k}]", repr(v)])
            writer.writerow([a.index, a.kind, a.query, "max_identity_deviation",
                             repr(p["max_identity_deviation"])])
            writer.writerow([a.index, a.kind, a.query, "passed", int(p["passed"])])
        elif a.kind == "equivalence":
            for rec in p["records"]:
                writer.writerow([a.index, a.kind, a.query, rec["query"], repr(rec["deviation"])])
            writer.writerow([a.index, a.kind, a.query, "max_deviation", repr(p["max_deviation"])])
            writer.writerow([a.index, a.kind, a.query, "passed", int(p["passed"])])
    return buf.getvalue()


def _answers_text(answers) -> list[str]:
    lines = []
    for a in answers:
        if a.error is not None:
            lines.append(f"{a.query} -> error: {a.error}")
            continue
        p = a.payload
        if a.kind == "marginal":
            pairs = ", ".join(f"{k} -> {v!r}" for k, v in p["distribution"].items())
            lines.append(f"{a.query}: {pairs}")
        elif a.kind == "joint":
            lines.append(f"{a.query} -> {p['probability']!r}")
        elif a.kind == "conditional":
            lines.append(f"{a.query} -> {p['conditional']!r}")
        elif a.kind == "reduced":
            lines.append(f"{a.query}:")
            for row in p["matrix"]:
                cells = ", ".join(f"{re:+.12g}{im:+.12g}i" for re, im in row)
                lines.append(f"  [{cells}]")
        elif a.kind == "repeatability":
            lines.append(
                f"{a.query}: max identity deviation "
                f"{p['max_identity_deviation']!r} (passed={p['passed']})"
            )
            for j, row in enumerate(p["rows"], start=1):
                shown = "undefined (zero probability)" if row is None else \
                    "[" + ", ".join(f"{v:.12g}" for v in row) + "]"
                lines.append(f"  given {p['first']}={j}: {shown}")
        elif a.kind == "equivalence":
            lines.append(
                f"{a.query}: max deviation {p['max_deviation']!r} over "
                f"{len(p['records'])} compared quantities (passed={p['passed']})"
            )
    return lines


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    scenario = None if tol is None else _load_scenario(args.scenario)
    if scenario is None:
        return 1
    if not any(q.kind in VERIFIED_KINDS for q in scenario.queries):
        print(
            f"premeasure: {args.scenario} contains no repeatability or "
            "equivalence query; nothing to verify",
            file=sys.stderr,
        )
        return 1
    outcome = _run_answers(scenario, tol, args.scenario)
    if outcome is None:
        return 2
    answers, elapsed = outcome
    answers = [a for a in answers if a.kind in VERIFIED_KINDS]
    code = _failure(answers)
    if code:
        return code
    # Repeatability matrices are findings either way; only equivalence
    # reports gate the exit status.
    passed = all(a.payload["passed"] for a in answers if a.kind == "equivalence")
    reports = [{"type": a.kind, "query": a.query, **a.payload} for a in answers]
    _print_doc("verify", scenario=args.scenario, tolerance=tol, elapsed_s=elapsed,
               reports=reports, passed=passed)
    return 0 if passed else 1


def run_property_suite(*args):
    """``propsuite.run_property_suite``, imported on first use: ``run`` and
    ``verify`` never load the suite or its scenario sampler."""
    from . import propsuite

    return propsuite.run_property_suite(*args)


def cmd_prop(args) -> int:
    if args.seed < 0:
        print("premeasure: --seed must be non-negative", file=sys.stderr)
        return 1
    if args.trials < 1:
        print("premeasure: --trials must be at least 1", file=sys.stderr)
        return 1
    if args.max_dim < 2:
        print("premeasure: --max-dim must be at least 2", file=sys.stderr)
        return 1
    # The smallest pure trial at dimension d measures the d-outcome observable
    # A twice and the d-outcome B once: its chain stores d**4 amplitudes, and
    # its equivalence query compares d**3 joint outcomes.
    d = args.max_dim
    if d**4 > dsl.MAX_AMPLITUDES:
        problem = f"chain stores {d**4} amplitudes, past the limit of {dsl.MAX_AMPLITUDES}"
    else:
        problem = dsl.equivalence_problem(d, False, d**3, (d, d))
    if problem:
        print(f"premeasure: --max-dim {d} can draw a scenario whose {problem}", file=sys.stderr)
        return 1
    if args.max_depth < 1:
        print("premeasure: --max-depth must be at least 1", file=sys.stderr)
        return 1
    summary = run_property_suite(args.seed, args.trials, args.max_dim, args.max_depth)
    failures = []
    written = set()
    for f in summary.failures:
        name = f"prop-failure-{args.seed}-{f.trial}.scn"
        path = Path(args.out_dir) / name
        if f.trial not in written:
            try:
                path.write_text(f.scenario_text, encoding="utf-8")
            except OSError as exc:
                print(f"premeasure: cannot write {path}: {exc}", file=sys.stderr)
                return 2
            written.add(f.trial)
        failures.append(
            {
                "trial": f.trial,
                "check": f.check,
                "deviation": None if math.isnan(f.deviation) else f.deviation,
                "message": f.message,
                "scenario_file": str(path),
            }
        )
    _print_doc("prop", seed=args.seed, trials=args.trials, max_dim=args.max_dim,
               max_depth=args.max_depth, checks_run=summary.checks_run,
               max_deviation=summary.max_deviation, failures=failures, passed=summary.passed)
    return 0 if summary.passed else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "verify": cmd_verify, "prop": cmd_prop}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except MemoryError as exc:
        print(f"premeasure: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _discard_stdout()
        print("premeasure: cannot write to standard output: broken pipe", file=sys.stderr)
        return 2


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the interpreter's
    final flush of the unwritten output raises nothing.  An in-process caller
    that redirected stdout to a buffer has no descriptor and is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())

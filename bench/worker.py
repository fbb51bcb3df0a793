"""One workload process: set up, then run the timed loop or the traced run.

Started by ``run.py``, one at a time; prints one JSON object as its last line
of standard output.  ``--mode setup`` stops after set-up (used to take several
set-up samples per run), ``timed`` runs whole passes until ``--seconds`` have
elapsed, and ``traced`` runs one untraced pass and one traced pass of the same
schedule and checks that their outputs are identical.
"""

from __future__ import annotations

import argparse
import time

T_START = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import refs  # noqa: E402
import workloads as wl  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--t0", type=float, default=None,
                   help="parent's perf_counter() just before this process was spawned")
    p.add_argument("--toy", action="store_true")
    return p.parse_args(argv)


def import_program() -> None:
    """Import premeasure from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(wl.SRC))
    import premeasure

    where = Path(premeasure.__file__).resolve()
    if wl.SRC.resolve() not in where.parents:
        raise SystemExit(f"premeasure imported from {where}, not from {wl.SRC}")


def blas_info() -> dict:
    """numpy version, BLAS library and BLAS thread count (Linux, OpenBLAS)."""
    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = None
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with >= 10 samples above."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def timing_metrics(times: list[float], pass_len: int) -> dict:
    """Op latency and throughput of one timed run of whole passes.

    The host's speed drifts by 20-50 % for stretches of seconds, and a run
    repeats every case of its pass several times, so each case is timed by its
    fastest repetition.  ``op_p50_s`` is the median of those per-case times
    and ``ops_per_s`` the rate of one pass at those times.  The tail is read
    from every op of the run, slow spells included.
    """
    best = [min(times[i::pass_len]) for i in range(pass_len)]
    value, pct, n = tail(times)
    return {
        "op_p50_s": statistics.median(best),
        "op_tail_s": value,
        "op_tail_percentile": pct,
        "op_samples": n,
        "ops_per_s": pass_len / sum(best),
        "passes": n // pass_len,
    }


class Checker:
    """Checks each op's output against the references and counts failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cases = refs.load(workload)["cases"]
        self.attempted = 0
        self.failed = 0
        self.self_checks = 0
        self.first_failures: list[str] = []

    def check(self, case, output, error: str | None):
        """Returns the op's normalized value (None if the op raised)."""
        self.attempted += 1
        value = None
        if error is None:
            value, problem = wl.normalize(self.workload, output)
            self.self_checks += 1
            if problem is None:
                problem = wl.reference_mismatch(self.workload, value, self.cases.get(case.key))
        else:
            problem = error
        if problem is not None:
            self.fail(case, problem)
        return value

    def fail(self, case, problem: str) -> None:
        self.failed += 1
        name, text = wl.reproducer(self.workload, case)
        RESULTS.joinpath("failures").mkdir(parents=True, exist_ok=True)
        path = RESULTS / "failures" / name
        path.write_text(text, encoding="utf-8")
        if len(self.first_failures) < 5:
            self.first_failures.append(
                f"{case.key}: {problem} (replay: {path.relative_to(wl.ROOT)})")


def run_op(op, case, tracer=None, op_id=0):
    """(output, None) or (None, reason) if the op raised."""
    try:
        if tracer is not None:
            return tracer.op(op_id, op, case), None
        return op(case), None
    except Exception as exc:  # noqa: BLE001 - any raise is a failed op
        return None, f"raised {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    args = parse_args(argv)
    in_process = args.workload != "cli_bundled" or args.mode == "traced"
    if in_process:
        import_program()
    env = wl.child_env()
    passes = wl.schedule(args.workload, args.seed, args.toy)
    op = wl.op_for(args.workload, in_process, env)
    checker = Checker(args.workload)
    _, warm_error = run_op(op, wl.warmup_case(args.workload))
    if warm_error:
        raise SystemExit(f"warm-up op failed: {warm_error}")
    started = time.perf_counter()
    t0 = args.t0 if args.t0 is not None else T_START
    result: dict = {"setup_s": started - t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "timed":
        times: list[float] = []
        loop_start = time.perf_counter()
        while True:
            for case in passes:
                t = time.perf_counter()
                output, error = run_op(op, case)
                times.append(time.perf_counter() - t)
                checker.check(case, output, error)
            if time.perf_counter() - loop_start >= args.seconds:
                break
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        result.update(timing_metrics(times, len(passes)))
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result["op_times_s"] = times
    else:
        result.update(traced_run(args, op, passes, checker))

    result.update({
        "attempted": checker.attempted,
        "failed": checker.failed,
        "self_checks": checker.self_checks,
        "failures": checker.first_failures,
        "pass_cases": [c.key for c in passes],
        # After the measurement: the CLI worker imports numpy only here, to
        # report the BLAS its children load.
        "env": blas_info(),
    })
    print(json.dumps(result))
    return 0


def run_pass(op, passes, checker, tracer=None) -> tuple[list, float, list]:
    """Runs every case once; returns (normalized values, op seconds, outputs)."""
    values, outputs, busy = [], [], 0.0
    for i, case in enumerate(passes):
        t = time.perf_counter()
        output, error = run_op(op, case, tracer, i)
        busy += time.perf_counter() - t
        values.append(checker.check(case, output, error))
        outputs.append(output)
    return values, busy, outputs


def traced_run(args, op, passes, checker) -> dict:
    """One untraced and one traced pass over the same cases; their outputs must
    be identical.  Returns the per-layer metrics and the trace check."""
    import tracer as tr

    for mod, *_ in tr.TRACED:
        __import__(f"premeasure.{mod}")

    untraced, untraced_s, _ = run_pass(op, passes, checker)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced, traced_s, outputs = run_pass(op, passes, checker, tracer)
    finally:
        tracer.uninstall()

    mismatches = []
    for case, a, b in zip(passes, traced, untraced):
        diff = refs.mismatch(a, b, tol=0.0)
        if diff:
            mismatches.append(f"{case.key}: {diff}")
    metrics = tracer.metrics()
    if args.workload == "cli_bundled":
        metrics["cli.output_bytes"] = sum(len(o[1].encode()) for o in outputs if o)
    else:
        metrics["cli.output_bytes"] = 0
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    return {
        "per_layer": metrics,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "trace_mismatches": mismatches[:5],
        "trace_matches": not mismatches,
        "spans_file": str(spans.relative_to(wl.ROOT)),
    }


if __name__ == "__main__":
    raise SystemExit(main())

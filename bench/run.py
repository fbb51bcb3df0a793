"""premeasure benchmark: one workload per invocation, or a toy smoke run.

    python3 bench/run.py --workload deep_pure --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; the program is imported from ``src/`` of the checkout that
holds this file, never from an installed copy.  With ``--trace 0`` the last
line of standard output is a JSON object whose metrics are the end-to-end
metrics; with ``--trace 1`` they are the per-layer metrics of a separate
traced run.  Everything before that line is a human-readable report, and the
full result document (environment block included) is written under
``bench/results/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402  (stdlib only; lists the per-layer metrics)
import workloads as wl  # noqa: E402  (imports numpy only inside the ops)

ROOT, SRC, WORKLOADS = wl.ROOT, wl.SRC, wl.WORKLOADS
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9  # set-up probes per run, the main worker's set-up included
DEADLINE_S = 170.0
IMPORT_PROBE_REPEATS = 5


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict[str, str]:
    """Environment for workers and CLI children.

    One op is in flight and nothing else runs, so BLAS pools get one thread
    unless the caller set a count no larger than the usable CPU count.
    """
    env = wl.child_env()
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        raw = env.get(var, "")
        if not (raw.isdigit() and 1 <= int(raw) <= nproc):
            env[var] = "1"
    return env


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """Runs a worker and returns the JSON object on its last line of output."""
    timeout = deadline - time.perf_counter()
    if timeout <= 1:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *argv, "--t0", repr(t0)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {argv} printed nothing: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def check_program_copy(env: dict[str, str]) -> None:
    """The CLI children must import premeasure from this checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c", "import premeasure; print(premeasure.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    where = Path(proc.stdout.strip() or "?").resolve()
    if proc.returncode != 0 or SRC.resolve() not in where.parents:
        raise BenchError(f"children import premeasure from {where}, not {SRC}: {proc.stderr.strip()}")


def import_probes(env: dict[str, str], deadline: float, repeats: int) -> dict[str, float]:
    """Interpreter start, then the extra cost of numpy, then of premeasure."""
    snippets = {"python": "pass", "numpy": "import numpy", "premeasure": "import premeasure"}
    medians = {}
    for name, code in snippets.items():
        samples = []
        for _ in range(repeats):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           timeout=max(1.0, deadline - t))
            samples.append(time.perf_counter() - t)
        medians[name] = statistics.median(samples)
    return {
        "import.python_s": medians["python"],
        "import.numpy_s": medians["numpy"] - medians["python"],
        "import.premeasure_s": medians["premeasure"] - medians["numpy"],
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
             setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the full result document."""
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "premeasure" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'premeasure'}")
    env = worker_env()
    load_start = os.getloadavg()
    check_program_copy(env)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if toy:
        base.append("--toy")

    setups = []
    if not trace:
        for _ in range(setup_samples - 1):
            setups.append(run_child(base + ["--mode", "setup"], env, deadline)["setup_s"])
    main = run_child(base + ["--mode", "traced" if trace else "timed"], env, deadline)
    setups.append(main["setup_s"])

    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "toy": toy,
        "attempted": main["attempted"], "failed": main["failed"],
        "self_checks": main["self_checks"], "failures": main["failures"],
        "pass_cases": main["pass_cases"],
    }
    correct = main["failed"] == 0 and main["attempted"] > 0
    if trace:
        per_layer = dict(main["per_layer"])
        per_layer.update(import_probes(env, deadline, 1 if toy else IMPORT_PROBE_REPEATS))
        metrics = {name: per_layer[name] for name in tracer.PER_LAYER_UNITS}
        units = tracer.PER_LAYER_UNITS
        correct = correct and main["trace_matches"]
        doc["trace_matches"] = main["trace_matches"]
        doc["trace_mismatches"] = main["trace_mismatches"]
        doc["spans_file"] = main["spans_file"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            **{k: main[k] for k in ("op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb")},
        }
        units = E2E_UNITS
        doc["setup_samples_s"] = setups
        doc["op_tail_percentile"] = main["op_tail_percentile"]
        doc["op_samples"] = main["op_samples"]
        doc["passes"] = main["passes"]
        doc["op_times_s"] = main["op_times_s"]
        doc["failed_op_ratio"] = main["failed"] / main["attempted"]
    doc["correct"] = correct
    doc["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    doc["env"] = {
        **main["env"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: env[v] for v in BLAS_THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    return doc


def report_lines(doc: dict) -> list[str]:
    lines = [f"# premeasure bench: workload={doc['workload']} seed={doc['seed']} "
             f"trace={int(doc['trace'])} toy={int(doc['toy'])}"]
    for name, m in doc["metrics"].items():
        extra = ""
        if name == "op_tail_s":
            extra = f"  (p{doc['op_tail_percentile']:.1f} of {doc['op_samples']} ops)"
        lines.append(f"{name:42s} {m['value']:.6g} {m['unit']}{extra}")
    if not doc["trace"]:
        # Reported here and carried by the result's failed/attempted counts; it
        # is not in BENCHMARK.json because a metric that reads 0 on every
        # healthy run has no relative bound.
        lines.append(f"{'failed_op_ratio':42s} {doc['failed_op_ratio']:.6g} ratio  "
                     f"({doc['failed']} of {doc['attempted']} ops)")
    else:
        lines.append(f"traced outputs equal untraced: {doc['trace_matches']}")
    for f in doc["failures"]:
        lines.append(f"FAILED {f}")
    lines.append("# env: " + json.dumps(doc["env"], sort_keys=True))
    return lines


def final_line(doc: dict) -> str:
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    })


def save(doc: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    tag = "toy-" if doc["toy"] else ""
    path = RESULTS / f"{tag}{doc['workload']}-seed{doc['seed']}-trace{int(doc['trace'])}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def smoke() -> int:
    """All workloads at toy size, untraced and traced: every metric present
    with its unit, and no failed op."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            doc = run_once(workload, 1, 0.1, trace, toy=True, setup_samples=2)
            save(doc)
            print("\n".join(report_lines(doc)))
            print(final_line(doc))
            want = tracer.PER_LAYER_UNITS if trace else E2E_UNITS
            got = {k: m["unit"] for k, m in doc["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if not doc["correct"] or doc["failed"]:
                problems.append(f"{workload} trace={trace}: {doc['failed']} failed ops "
                                f"{doc['failures']}")
    print(json.dumps({"smoke_passed": not problems, "problems": problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy-size run of every workload")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required unless --smoke is given")
        doc = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = save(doc)
    print("\n".join(report_lines(doc)))
    print(f"# full result: {path.relative_to(ROOT)}")
    print(final_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

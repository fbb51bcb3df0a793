"""Scaling sweep: wall time and peak memory against chain size.

    python3 bench/sweep.py            # all points, one fresh process each
    python3 bench/sweep.py --quick    # the three smallest points of each sweep

Not part of the repeated benchmark runs.  Three sweeps, each point one
``parse_scenario`` + ``validate_scenario`` + ``run_scenario`` with the full
query set:

* ``pure_z``: pure qubit, n = 2..11 devices repeatedly measuring Z;
* ``mixed_z``: mixed qubit, n = 2..6 devices repeatedly measuring Z;
* ``dim``: pure system of dimension 2..6, four devices measuring one
  random-basis observable.

Each point runs in its own process, so its peak RSS (``ru_maxrss``) is its
own; the largest point (mixed, n = 6) peaks near 0.25 GB.  Wall time is the
median of three runs after a warm-up.  Results go to standard output and to
``bench/results/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import cases
import workloads as wl

SWEEPS = {
    "pure_z": range(2, 12),
    "mixed_z": range(2, 7),
    "dim": range(2, 7),
}
DIM_DEPTH = 4
REPEATS = 3


def point_text(sweep: str, n: int) -> str:
    rng = np.random.default_rng([303, n])
    dim = n if sweep == "dim" else 2
    devices = DIM_DEPTH if sweep == "dim" else n
    lines = [f"system dim {dim}"]
    if sweep == "mixed_z":
        lines.append("state mixed [[0.6, 0.2+0.1i], [0.2-0.1i, 0.4]]")
    else:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        lines.append(f"state pure {cases.vector(v / np.linalg.norm(v))}")
    if sweep == "dim":
        lines.append(cases.observable_line(rng, "Z", dim))
    else:
        lines.append("observable Z eigen [1, -1] basis [[1, 0], [0, 1]]")
    labels = [f"M{i}" for i in range(1, devices + 1)]
    lines += [f"device {label} measures Z" for label in labels]
    lines += [
        "query marginal M1",
        "query joint " + " ".join(f"{label}=1" for label in labels),
        "query reduced",
        "query equivalence",
    ]
    if devices >= 2:
        lines.append("query repeatability M1 M2")
    return "\n".join(lines) + "\n"


def measure_point(sweep: str, n: int) -> dict:
    """Runs in the child process."""
    sys.path.insert(0, str(wl.SRC))
    from premeasure import dsl, runner

    text = point_text(sweep, n)
    small = point_text(sweep, 2)
    runner.run_scenario(dsl.parse_scenario(small))  # warm-up
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        scenario = dsl.parse_scenario(text)
        if dsl.validate_scenario(scenario):
            raise SystemExit(f"{sweep} n={n}: scenario does not validate")
        answers = runner.run_scenario(scenario)
        times.append(time.perf_counter() - t)
    if any(a.error for a in answers):
        raise SystemExit(f"{sweep} n={n}: error answers")
    equivalence = [a.payload for a in answers if a.kind == "equivalence"][0]
    devices = DIM_DEPTH if sweep == "dim" else n
    dim = n if sweep == "dim" else 2
    amplitudes = dim * (dim + 1) ** devices
    return {
        "sweep": sweep,
        "n": n,
        "system_dim": dim,
        "devices": devices,
        "composite_dim": amplitudes,
        "state_bytes": amplitudes * 16 * (amplitudes if sweep == "mixed_z" else 1),
        "wall_s": statistics.median(times),
        "wall_samples_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_after_warmup_mb": rss_before,
        "equivalence_passed": equivalence["passed"],
        "max_deviation": equivalence["max_deviation"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="premeasure scaling sweep")
    p.add_argument("--quick", action="store_true", help="three smallest points per sweep")
    p.add_argument("--point", nargs=2, metavar=("SWEEP", "N"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.point:
        print(json.dumps(measure_point(args.point[0], int(args.point[1]))))
        return 0

    from run import RESULTS, worker_env

    env = worker_env()
    points = []
    for sweep, ns in SWEEPS.items():
        for n in list(ns)[:3] if args.quick else ns:
            proc = subprocess.run(
                [sys.executable, __file__, "--point", sweep, str(n)],
                cwd=wl.ROOT, env=env, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"sweep: {sweep} n={n} failed: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            point = json.loads(proc.stdout.strip().splitlines()[-1])
            points.append(point)
            print(f"{sweep:8s} n={n:2d} D={point['composite_dim']:8d} "
                  f"wall {point['wall_s']:.4f} s  peak {point['peak_rss_mb']:.1f} MB  "
                  f"max dev {point['max_deviation']:.2e}", flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "sweep.json").write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

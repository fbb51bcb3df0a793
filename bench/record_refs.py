"""Record the reference answers in ``bench/refs/`` from the current program.

    python3 bench/record_refs.py [WORKLOAD ...]

Run only on a commit whose answers are trusted: every later benchmark run is
checked against what this writes.  For ``prop_suite`` it also records each
trial seed's cost on the recording machine, which the workload uses to draw
passes with the same cost profile from every seed.
"""

from __future__ import annotations

import platform
import sys
import time

import refs
import workloads as wl

sys.path.insert(0, str(wl.SRC))


def record_cases(workload: str, cases) -> dict:
    env = wl.child_env()
    op = wl.op_for(workload, workload != "cli_bundled", env)
    op(cases[0])  # warm-up
    out = {}
    for case in cases:
        t = time.perf_counter()
        output = op(case)
        cost = time.perf_counter() - t
        value, problem = wl.normalize(workload, output)
        if problem:
            raise SystemExit(f"{workload} {case.key}: {problem}; refusing to record it")
        if workload == "prop_suite":
            value["cost_s"] = cost
        out[case.key] = value
    return out


def all_cases(workload: str) -> list[wl.Case]:
    if workload == "cli_bundled":
        return [wl.Case(f"{c}:{n}", (c, n)) for n in wl.BUNDLED for c in wl.CLI_COMMANDS]
    if workload == "prop_suite":
        return [wl.Case(str(s), s) for s in wl.PROP_UNIVERSE]
    import cases as gen

    out = []
    for toy, slots in ((False, gen.SLOTS[workload]), (True, gen.TOY_SLOTS[workload])):
        for slot in range(len(slots)):
            for variant in range(gen.VARIANTS):
                out.append(wl.Case(gen.case_key(slot, variant, toy),
                                   gen.case_text(workload, slot, variant, toy)))
    return out


def main(argv: list[str]) -> int:
    import numpy as np

    for workload in argv or wl.WORKLOADS:
        t = time.perf_counter()
        cases = record_cases(workload, all_cases(workload))
        refs.save(workload, {
            "workload": workload,
            "tolerance": refs.FLOAT_TOL,
            "recorded_with": {"python": platform.python_version(), "numpy": np.__version__},
            "cases": cases,
        })
        print(f"{workload}: {len(cases)} cases in {time.perf_counter() - t:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

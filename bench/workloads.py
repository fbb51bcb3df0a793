"""The four benchmark workloads: their inputs, their op, and its checks.

Each workload turns a seed into a *pass*, an ordered list of cases, and the
benchmark repeats that pass in a closed loop.  A case's op returns the
program's raw output; ``normalize`` turns it into a plain JSON-like value (or
a digest of one) that is compared with the reference recorded in ``refs/``
and, in the traced run, with the untraced run's value.

* ``cli_bundled``: one ``python -m premeasure run|verify FILE`` per op, one
  per bundled scenario in a pass; the seed picks ``run`` or ``verify`` for
  each scenario and the order.
* ``prop_suite``: one property trial, ``run_property_suite(s, 1, 6, 3)``, per
  op.  The trial seeds ``s`` come from a recorded universe sorted by cost; the
  workload seed draws one seed from each block of ``PROP_BLOCK`` neighbours,
  so every pass has the same cost profile but different trials.
* ``deep_pure`` / ``mixed_chain``: ``parse_scenario`` + ``validate_scenario``
  + ``run_scenario`` on seeded scenario text, one case per shape slot, the
  workload seed choosing each slot's variant and the order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import refs

WORKLOADS = ("cli_bundled", "prop_suite", "deep_pure", "mixed_chain")
GENERATED = ("deep_pure", "mixed_chain")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = Path("src") / "premeasure" / "scenarios"  # relative to ROOT
BUNDLED = (
    "avalanche", "degenerate_qutrit", "evolved_pair", "mixed_initial",
    "qutrit_full", "reader_chain", "reader_chain_twin", "repeat_ideal",
    "weak_flip", "weak_flip_ideal_twin", "zero_condition", "zx_conditional",
)
CLI_COMMANDS = ("run", "verify")
CLI_TOY = (("run", "avalanche"), ("verify", "zero_condition"), ("run", "zero_condition"))

# Arguments after the seed of every property-trial op: trials, max_dim, max_depth.
PROP_ARGS = (1, 6, 3)
PROP_UNIVERSE = range(384)
PROP_BLOCK = 4


@dataclass(frozen=True)
class Case:
    key: str
    payload: object  # ("run"|"verify", name) | prop seed | scenario text


# --- inputs ------------------------------------------------------------------

def schedule(workload: str, seed: int, toy: bool = False) -> list[Case]:
    """One pass of the workload's ops, derived from ``seed`` alone."""
    rng = random.Random(seed)
    if workload == "cli_bundled":
        pairs = list(CLI_TOY) if toy else [(rng.choice(CLI_COMMANDS), n) for n in BUNDLED]
        cases = [Case(f"{c}:{n}", (c, n)) for c, n in pairs]
    elif workload == "prop_suite":
        universe = sorted(
            (v["cost_s"], int(s)) for s, v in refs.load("prop_suite")["cases"].items()
        )
        seeds = [s for _, s in universe]
        if toy:
            picked = seeds[:3]
        else:
            picked = [rng.choice(seeds[i:i + PROP_BLOCK]) for i in range(0, len(seeds), PROP_BLOCK)]
        cases = [Case(str(s), s) for s in picked]
    elif workload in GENERATED:
        import cases as gen

        slots = gen.TOY_SLOTS[workload] if toy else gen.SLOTS[workload]
        cases = []
        for slot in range(len(slots)):
            variant = rng.randrange(gen.VARIANTS)
            cases.append(
                Case(gen.case_key(slot, variant, toy), gen.case_text(workload, slot, variant, toy))
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


def warmup_case(workload: str) -> Case:
    """A cheap case run once before timing, so lazy imports and caches settle."""
    return schedule(workload, 0, toy=True)[0]


# --- ops -----------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """Environment for CLI children: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(case: Case) -> list[str]:
    command, name = case.payload
    return [command, str(SCENARIO_DIR / f"{name}.scn")]


def run_cli_subprocess(case: Case, env: dict[str, str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "premeasure", *cli_argv(case)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(case: Case) -> tuple[int, str, str]:
    from premeasure import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(cli_argv(case))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def run_prop(case: Case):
    from premeasure import propsuite

    return propsuite.run_property_suite(case.payload, *PROP_ARGS)


def run_generated(case: Case):
    from premeasure import dsl, runner

    scenario = dsl.parse_scenario(case.payload)
    diagnostics = dsl.validate_scenario(scenario)
    if diagnostics:
        return diagnostics
    return runner.run_scenario(scenario)


def op_for(workload: str, in_process: bool, env: dict[str, str]):
    if workload == "cli_bundled":
        return run_cli_inprocess if in_process else (lambda case: run_cli_subprocess(case, env))
    if workload == "prop_suite":
        return run_prop
    return run_generated


# --- checks --------------------------------------------------------------------

def normalize(workload: str, output) -> tuple[object, str | None]:
    """(comparable value, self-check failure or None) for one op's output."""
    if workload == "cli_bundled":
        code, stdout, _ = output
        doc = None
        if stdout.strip():
            try:
                doc = json.loads(stdout)
            except ValueError:
                return {"exit": code, "output": stdout}, "stdout is not JSON"
            doc.pop("elapsed_s", None)
        return {"exit": code, "output": doc}, None
    if workload == "prop_suite":
        value = {
            "checks_run": output.checks_run,
            "failures": len(output.failures),
            "max_deviation": output.max_deviation,
            "passed": output.passed,
        }
        return value, None if output.passed else "PropSummary.passed is false"
    from premeasure import runner

    if output and not hasattr(output[0], "kind"):
        return None, "validation failed: " + "; ".join(str(d) for d in output)
    records = runner.answers_to_jsonable(output)
    value = [refs.digest(r) for r in records]
    for r in records:
        if "error" in r:
            return value, f"{r['query']}: {r['error']}"
        if r["kind"] == "equivalence" and not r["result"]["passed"]:
            return value, "equivalence report did not pass"
    return value, None


def reference_mismatch(workload: str, value, expected) -> str | None:
    if expected is None:
        return "no recorded reference for this case"
    if workload in GENERATED:
        if len(value) != len(expected):
            return f"{len(value)} answers vs {len(expected)} recorded"
        for i, (a, e) in enumerate(zip(value, expected)):
            diff = refs.digest_mismatch(a, e)
            if diff:
                return f"answer {i}: {diff}"
        return None
    if workload == "prop_suite":
        expected = {k: v for k, v in expected.items() if k != "cost_s"}
    return refs.mismatch(value, expected)


def reproducer(workload: str, case: Case) -> tuple[str, str]:
    """(file name, contents) that let ``premeasure`` replay a failed op."""
    safe = case.key.replace(":", "-")
    if workload in GENERATED:
        return f"{workload}-{safe}.scn", case.payload
    if workload == "prop_suite":
        trials, max_dim, max_depth = PROP_ARGS
        cmd = (f"premeasure prop --seed {case.payload} --trials {trials} "
               f"--max-dim {max_dim} --max-depth {max_depth}")
        return f"{workload}-seed{case.payload}.txt", cmd + "\n"
    return f"{workload}-{safe}.txt", "premeasure " + " ".join(cli_argv(case)) + "\n"

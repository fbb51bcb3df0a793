"""Seeded token mutations of the bundled and of sampled scenarios, run
through ``cli.main``.

Each mutated file goes through ``run`` (json, csv or text) or ``verify``,
and must end in a documented exit without a traceback: exit 0 with an empty
stderr, exit 2 with exactly one ``premeasure: `` line, or exit 1 with at
least one stderr line, each one a ``FILE:`` diagnostic or a ``premeasure: ``
line.  Exit 1 may print more than one line (validation reports every
problem) and may follow a printed document (``run`` on a weak device's
equivalence query).  The mutations drop, duplicate and swap tokens, or put
in extreme numbers, stray brackets and out-of-range outcome indices.  No
timings are asserted.
"""

import random
import re

import numpy as np
import pytest

import premeasure
from premeasure import cli
from premeasure.dsl import format_scenario
from premeasure.sampling import random_scenario

NAMES = premeasure.bundled_scenario_names()
MUTATIONS_PER_SCENARIO = 170
SAMPLED_SEED = 11
SAMPLED_SCENARIOS = 60
MUTATIONS_PER_SAMPLED = 10
COMMANDS = (
    ("run",),
    ("run", "--format", "csv"),
    ("run", "--format", "text"),
    ("verify",),
)
TOKEN = re.compile(r"\s+|[\[\],=]|[^\s\[\],=]+")
STRAY = ("1e308", "nan", "[", "]", "-1", "0", "99")


def _mutate(text: str, rng: random.Random) -> str:
    tokens = TOKEN.findall(text)
    words = [i for i, t in enumerate(tokens) if not t.isspace()]
    for _ in range(rng.randint(1, 2)):
        i = rng.choice(words)
        kind = rng.randrange(5)
        if kind == 0:
            tokens[i] = ""
        elif kind == 1:
            tokens[i] = tokens[i] + " " + tokens[i]
        elif kind == 2:
            j = rng.choice(words)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == 3:
            tokens[i] = rng.choice(STRAY)
        else:
            # An outcome index right after "=", pushed out of range.
            outcomes = [k + 1 for k in words[:-1] if tokens[k] == "="]
            tokens[rng.choice(outcomes or [i])] = rng.choice(("0", "3", "4", "99"))
    return "".join(tokens)


def _check_mutations(original: str, mutations: int, rng, path, capsys) -> None:
    for n in range(mutations):
        text = _mutate(original, rng)
        path.write_text(text, encoding="utf-8")
        command, *options = rng.choice(COMMANDS)
        code = cli.main([command, str(path), *options])
        err = capsys.readouterr().err
        lines = err.splitlines()
        context = f"mutation {n} of {path.name} ({command} {options}):\n{text}\nstderr:\n{err}"
        assert "Traceback" not in err, context
        if code == 0:
            assert err == "", context
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("premeasure: "), context
        else:
            assert code == 1, context
            assert lines, context
            assert all(line.startswith((f"{path}:", "premeasure: ")) for line in lines), context


@pytest.mark.parametrize("name", NAMES)
def test_mutated_scenarios_end_in_a_documented_exit(name, tmp_path, capsys):
    assert len(NAMES) == 12
    original = premeasure.bundled_scenario_path(name).read_text(encoding="utf-8")
    rng = random.Random(f"fuzz-{name}")
    _check_mutations(original, MUTATIONS_PER_SCENARIO, rng, tmp_path / name, capsys)


@pytest.mark.parametrize("trial", range(SAMPLED_SCENARIOS))
def test_mutated_sampled_scenarios_end_in_a_documented_exit(trial, tmp_path, capsys):
    scenario = random_scenario(np.random.default_rng([SAMPLED_SEED, trial]), max_dim=4, max_depth=3)
    rng = random.Random(f"fuzz-sampled-{trial}")
    path = tmp_path / f"sampled-{trial}.scn"
    _check_mutations(format_scenario(scenario), MUTATIONS_PER_SAMPLED, rng, path, capsys)

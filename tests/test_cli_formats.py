"""Every bundled scenario through every output format of ``run`` and ``verify``.

The JSON documents validate against the shipped schema.  The CSV and text
renderings are checked against the JSON answers they are drawn from: the
rows and lines each answer implies, and in the CSV the ``repr`` of each
JSON float.
"""

import csv
import io
import json

import pytest

import premeasure
from premeasure import cli

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

NAMES = premeasure.bundled_scenario_names()


def _schema():
    import importlib.resources as resources

    path = resources.files("premeasure") / "schemas" / "result.schema.json"
    return json.loads(path.read_text())


def _cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _results(capsys, path):
    _, out = _cli(capsys, "run", str(path))
    return json.loads(out)["results"]


def _csv_cells(result) -> list[tuple[str, str]]:
    """The (item, value) cells of one answer, as the CSV renders them."""
    if "error" in result:
        return [("error", result["error"])]
    kind, p = result["kind"], result["result"]
    if kind == "marginal":
        dist = sorted(p["distribution"].items(), key=lambda kv: int(kv[0]))
        return [(f"{p['device']}={k}", repr(v)) for k, v in dist]
    if kind in ("joint", "conditional"):
        item = "probability" if kind == "joint" else "conditional"
        return [(item, repr(p[item]))]
    if kind == "reduced":
        return [
            (f"matrix[{i}][{j}].{part}", repr(x))
            for i, row in enumerate(p["matrix"])
            for j, pair in enumerate(row)
            for part, x in zip(("re", "im"), pair)
        ]
    if kind == "repeatability":
        cells = [
            (f"C[{j}][{k}]", repr(v))
            for j, row in enumerate(p["rows"], start=1)
            if row is not None
            for k, v in enumerate(row, start=1)
        ]
        return cells + [
            ("max_identity_deviation", repr(p["max_identity_deviation"])),
            ("passed", str(int(p["passed"]))),
        ]
    assert kind == "equivalence", kind
    cells = [(rec["query"], repr(rec["deviation"])) for rec in p["records"]]
    return cells + [
        ("max_deviation", repr(p["max_deviation"])),
        ("passed", str(int(p["passed"]))),
    ]


def _text_line_count(result) -> int:
    if "error" in result:
        return 1
    if result["kind"] == "reduced":
        return 1 + len(result["result"]["matrix"])
    if result["kind"] == "repeatability":
        return 1 + len(result["result"]["rows"])
    return 1


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_every_json_document_matches_the_schema(capsys):
    schema = _schema()
    documents = 0
    for name in NAMES:
        path = premeasure.bundled_scenario_path(name)
        for command in ("run", "verify"):
            _, out = _cli(capsys, command, str(path))
            if out:
                jsonschema.validate(json.loads(out), schema)
                documents += 1
    # zero_condition has no query for verify to report: its stdout is empty.
    assert documents == 2 * len(NAMES) - 1


@pytest.mark.parametrize("name", NAMES)
def test_csv_has_the_rows_each_answer_implies(name, capsys):
    path = premeasure.bundled_scenario_path(name)
    results = _results(capsys, path)
    _, out = _cli(capsys, "run", str(path), "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    expected = [["index", "kind", "query", "item", "value"]]
    for r in results:
        expected += [
            [str(r["index"]), r["kind"], r["query"], item, value]
            for item, value in _csv_cells(r)
        ]
    assert rows == expected


@pytest.mark.parametrize("name", NAMES)
def test_text_has_the_lines_each_answer_implies(name, capsys):
    path = premeasure.bundled_scenario_path(name)
    results = _results(capsys, path)
    _, out = _cli(capsys, "run", str(path), "--format", "text")
    lines = out.splitlines()
    assert len(lines) == sum(_text_line_count(r) for r in results)
    heads = [line for line in lines if not line.startswith("  ")]
    assert [h.split(":")[0].split(" -> ")[0] for h in heads] == [r["query"] for r in results]

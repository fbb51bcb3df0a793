import json
import subprocess
import sys

import pytest

import premeasure
from premeasure import cli
from premeasure.propsuite import PropFailure, PropSummary

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

ZX = premeasure.bundled_scenario_path("zx_conditional")
REPEAT = premeasure.bundled_scenario_path("repeat_ideal")
WEAK = premeasure.bundled_scenario_path("weak_flip")
ZERO = premeasure.bundled_scenario_path("zero_condition")


def _schema():
    import importlib.resources as resources

    path = resources.files("premeasure") / "schemas" / "result.schema.json"
    return json.loads(path.read_text())


def _run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_run_json_conditional_half(capsys):
    code, doc = _run_json(capsys, ["run", str(ZX)])
    assert code == 0
    assert doc["kind"] == "run"
    assert doc["schema_version"] == 1
    cond = [r for r in doc["results"] if r["kind"] == "conditional"][0]
    assert abs(cond["result"]["conditional"] - 0.5) <= 1e-10


def test_run_json_matches_schema(capsys):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    schema = _schema()
    for path in (ZX, REPEAT, WEAK, ZERO):
        cli.main(["run", str(path)])
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)


def test_run_csv_layout(capsys):
    code = cli.main(["run", str(REPEAT), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,kind,query,item,value"
    assert any(line.startswith("0,marginal,") for line in lines[1:])
    assert any(",repeatability," in line and ",passed," in line for line in lines)


def test_run_text_format(capsys):
    code = cli.main(["run", str(WEAK), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "query marginal MW" in out
    assert "passed=False" in out


def test_run_zero_probability_exits_2(capsys):
    code = cli.main(["run", str(ZERO)])
    captured = capsys.readouterr()
    assert code == 2
    assert "probability" in captured.err
    doc = json.loads(captured.out)
    errs = [r for r in doc["results"] if "error" in r]
    assert errs and errs[0]["error_kind"] == "zero-probability"


def test_run_missing_file_exits_1(capsys):
    code = cli.main(["run", "/nonexistent/file.scn"])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("system dim 2\nstate pure [0.6 0.8]\n")
    code = cli.main(["run", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "2:" in err  # position-bearing diagnostic


def test_run_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "system dim 2\nstate pure [1, 0]\nquery marginal M1\n"
    )
    code = cli.main(["run", str(bad)])
    assert code == 1
    assert "M1" in capsys.readouterr().err


OVERFLOW = (
    "system dim 2\nstate pure [1, 0]\n"
    "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
    "hamiltonian H [[1e308, 0], [0, -1e308]]\n"
    "evolve H t 1e10\n"
    "device M1 measures Z\ndevice M2 measures Z\n"
    "query repeatability M1 M2\n"
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["run", "verify"])
def test_chain_build_failure_exits_2(tmp_path, capsys, command):
    path = tmp_path / "overflow.scn"
    path.write_text(OVERFLOW)
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("premeasure: ") and "not finite" in lines[0]


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])
    assert exc.value.code == 1


def test_bad_tol_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(ZX), "--tol", "-3"])
    assert exc.value.code == 1
    assert "positive" in capsys.readouterr().err


def test_env_var_sets_default_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("PREMEASURE_TOL", "1e-6")
    code, doc = _run_json(capsys, ["verify", str(REPEAT)])
    assert code == 0
    assert doc["tolerance"] == 1e-6


def test_env_var_rejects_garbage(monkeypatch, capsys):
    monkeypatch.setenv("PREMEASURE_TOL", "banana")
    with pytest.raises(SystemExit):
        cli.main(["run", str(ZX)])


def test_verify_passes_on_ideal_scenario(capsys):
    code, doc = _run_json(capsys, ["verify", str(REPEAT)])
    assert code == 0
    assert doc["kind"] == "verify"
    assert doc["passed"] is True
    types = {r["type"] for r in doc["reports"]}
    assert types == {"repeatability", "equivalence"}


def test_verify_weak_repeatability_is_a_finding_not_a_failure(capsys):
    # the conditional matrix is far from identity, yet the report itself is
    # the product: exit 0
    code, doc = _run_json(capsys, ["verify", str(WEAK)])
    assert code == 0
    rep = [r for r in doc["reports"] if r["type"] == "repeatability"][0]
    assert rep["passed"] is False
    assert rep["rows"][0] == [1.0, 0.0]
    assert rep["rows"][1] == [1.0, 0.0]


def test_verify_weak_equivalence_exits_1(tmp_path, capsys):
    scn = tmp_path / "weak_eq.scn"
    scn.write_text(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device MW measures Z weak [[1,0],[0,1]] [[0,1],[1,0]]\n"
        "query equivalence\n"
    )
    code = cli.main(["verify", str(scn)])
    captured = capsys.readouterr()
    assert code == 1
    assert "weak" in captured.err


def test_verify_without_verification_queries_exits_1(capsys):
    code = cli.main(["verify", str(ZERO)])
    assert code == 1
    assert "nothing to verify" in capsys.readouterr().err


def test_verify_json_matches_schema(capsys):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    cli.main(["verify", str(WEAK)])
    jsonschema.validate(json.loads(capsys.readouterr().out), _schema())


def test_prop_small_run_passes(capsys):
    code, doc = _run_json(capsys, ["prop", "--trials", "5", "--seed", "3"])
    assert code == 0
    assert doc["kind"] == "prop"
    assert doc["passed"] is True
    assert doc["checks_run"] > 0
    if jsonschema is not None:
        jsonschema.validate(doc, _schema())


def test_prop_output_is_byte_deterministic(capsys):
    cli.main(["prop", "--trials", "6", "--seed", "11"])
    first = capsys.readouterr().out
    cli.main(["prop", "--trials", "6", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed" not in first


def test_prop_zero_trials_usage_error(capsys):
    code = cli.main(["prop", "--trials", "0"])
    assert code == 1
    assert "trials" in capsys.readouterr().err


def test_prop_violation_exits_3_and_writes_reproducer(tmp_path, monkeypatch, capsys):
    failure = PropFailure(
        trial=4,
        check="repeatability",
        deviation=0.25,
        message="conditional matrix deviates from identity by 0.25",
        scenario_text="system dim 2\nstate pure [1, 0]\n",
    )
    fake = PropSummary(
        seed=9, trials=5, max_dim=6, max_depth=3,
        checks_run=5, max_deviation=0.25, failures=[failure],
    )
    monkeypatch.setattr(cli, "run_property_suite", lambda *a, **k: fake)
    code = cli.main(
        ["prop", "--seed", "9", "--trials", "5", "--out-dir", str(tmp_path)]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["passed"] is False
    repro = tmp_path / "prop-failure-9-4.scn"
    assert repro.exists()
    assert repro.read_text() == failure.scenario_text
    assert doc["failures"][0]["scenario_file"] == str(repro)
    if jsonschema is not None:
        jsonschema.validate(doc, _schema())


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "premeasure", "run", str(ZX)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "run"


def test_bundled_scenario_helpers():
    names = premeasure.bundled_scenario_names()
    assert "weak_flip.scn" in names
    with pytest.raises(KeyError):
        premeasure.bundled_scenario_path("no_such_scenario")

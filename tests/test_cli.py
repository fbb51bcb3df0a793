import json
import math
import os
import subprocess
import sys

import pytest

import premeasure
from premeasure import cli, engine
from premeasure.propsuite import PropFailure, PropSummary

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

ZX = premeasure.bundled_scenario_path("zx_conditional")
REPEAT = premeasure.bundled_scenario_path("repeat_ideal")
WEAK = premeasure.bundled_scenario_path("weak_flip")
ZERO = premeasure.bundled_scenario_path("zero_condition")
AVALANCHE = premeasure.bundled_scenario_path("avalanche")


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


@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_utf8_file_exits_1_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"# caf\xe9\nsystem dim 2\n")
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"premeasure: cannot read {path}: not UTF-8 text (invalid continuation byte at byte 5)"
    ]


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


@pytest.mark.parametrize("command", ["run", "verify"])
def test_out_of_memory_exits_2(monkeypatch, capsys, command):
    def exhausted(scenario):
        raise MemoryError("Unable to allocate 4.00 GiB for an array")

    monkeypatch.setattr(engine, "build_chain", exhausted)
    code = cli.main([command, str(REPEAT)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "premeasure: out of memory: Unable to allocate 4.00 GiB for an array"
    ]


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
    assert cli.main(["run", str(ZX)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "premeasure: invalid PREMEASURE_TOL value 'banana'\n"


@pytest.mark.parametrize("raw", ["banana", "nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_env_var_refusal_names_the_value(monkeypatch, capsys, raw, command):
    monkeypatch.setenv("PREMEASURE_TOL", raw)
    assert cli.main([command, str(REPEAT)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"premeasure: invalid PREMEASURE_TOL value {raw!r}\n"


@pytest.mark.parametrize(
    "raw,message",
    [
        ("-3", "must be positive and finite, got -3"),
        ("inf", "must be positive and finite, got inf"),
        ("banana", "not a number: 'banana'"),
    ],
)
def test_bad_tol_message(capsys, raw, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(ZX), "--tol", raw])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"premeasure run: error: argument --tol: {message}"


WEAK_AFTER_ZERO = (
    "system dim 2\nstate pure [1, 0]\n"
    "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
    "device M1 measures Z\n"
    "device MW measures Z weak [[1, 0], [0, 1]] [[0, 1], [1, 0]]\n"
    "query conditional MW=1 given M1=2\n"
    "query repeatability M1 MW\n"
    "query equivalence\n"
)
ZERO_LINE = (
    "premeasure: query conditional MW=1 given M1=2: "
    "conditioning event has probability 0.0; conditional undefined"
)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_run_first_failure_exits_2_before_a_weak_equivalence(tmp_path, capsys, fmt):
    # The zero-probability conditional is the first failed answer and sets
    # the exit code; the weak device's equivalence query after it is answered
    # and passes, and the document is printed all the same.
    path = tmp_path / "weak_after_zero.scn"
    path.write_text(WEAK_AFTER_ZERO)
    assert cli.main(["run", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [ZERO_LINE]
    assert "query conditional MW=1 given M1=2" in captured.out
    if fmt == "json":
        results = json.loads(captured.out)["results"]
        assert [r.get("error_kind") for r in results] == ["zero-probability", None, None]
        assert results[2]["result"]["passed"] is True


def test_verify_weak_equivalence_prints_its_report(tmp_path, capsys):
    # verify looks only at the repeatability and equivalence answers, which
    # both succeed: the failed conditional does not count.
    path = tmp_path / "weak_after_zero.scn"
    path.write_text(WEAK_AFTER_ZERO)
    code, doc = _run_json(capsys, ["verify", str(path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert doc["passed"] is True
    assert [r["type"] for r in doc["reports"]] == ["repeatability", "equivalence"]
    assert [r["query"] for r in doc["reports"][1]["records"]][:2] == [
        "joint M1=1 MW=1", "joint M1=1 MW=2"
    ]


@pytest.mark.parametrize("argv", [
    ["run"], ["run", "--format", "csv"], ["run", "--format", "text"], ["verify"],
])
def test_equivalence_with_no_measuring_device_is_a_validation_error(tmp_path, capsys, argv):
    path = tmp_path / "bare.scn"
    path.write_text("system dim 2\nstate pure [1, 0]\nquery equivalence\n")
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{path}:3:1: scenario attaches no system devices; nothing to compare"
    ]


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


def test_verify_weak_equivalence_passes(tmp_path, capsys):
    # The oracle measures a weak device and then applies R_k, for a pure
    # start (weak_flip) and a mixed one; the chain matches it to float64.
    mixed = (
        "system dim 2\nstate mixed [[0.7, 0.1], [0.1, 0.3]]\n"
        "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
        "device MW measures Z weak [[1, 0], [0, 1]] [[0, 1], [1, 0]]\n"
        "evolve unitary [[0.6, -0.8], [0.8, 0.6]]\n"
        "device M2 measures Z\ndevice R reads M2\n"
    )
    for name, text in [("weak_flip", WEAK.read_text()), ("weak_mixed", mixed)]:
        scn = tmp_path / f"{name}.scn"
        scn.write_text(text + "query equivalence\n")
        code, doc = _run_json(capsys, ["verify", str(scn)])
        assert code == 0, name
        assert doc["passed"] is True
        report = doc["reports"][-1]
        assert report["records"][0]["query"] == "joint MW=1 M2=1"
        assert max(r["deviation"] for r in report["records"]) <= 1e-14, name
        if jsonschema is not None:
            jsonschema.validate(doc, _schema())


def test_verify_keeps_the_likely_children_of_a_rare_row(tmp_path, capsys):
    # p(M1=2) = 1e-7 and p(M2=1 | M1=2) = 1e-6: leaf (2, 1) weighs 1e-13,
    # below the 1e-12 pruning floor, yet the oracle must keep it for its
    # conditionals given M1=2 to match the chain's.
    scn = tmp_path / "rare_row.scn"
    scn.write_text(
        "system dim 2\n"
        "state pure [0.9999999499999987, 0.00031622776601683794]\n"
        "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
        "device M1 measures Z\n"
        "evolve unitary [[0.999999499999875, -0.001], [0.001, 0.999999499999875]]\n"
        "device M2 measures Z\n"
        "query equivalence\n"
    )
    code, doc = _run_json(capsys, ["verify", str(scn)])
    assert code == 0
    (report,) = doc["reports"]
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-14


def test_verify_renormalizes_after_a_near_unitary_evolution(tmp_path, capsys):
    # The evolution is admitted as unitary, yet it scales the norm by
    # 1 + 5e-11; without renormalizing the evolved frontier the oracle's
    # next probability would be 1 + 5e-11, past the 1e-12 slack.
    c = math.sqrt((1 + 5e-11) / 2)
    h = 0.5**0.5
    scn = tmp_path / "near_unitary.scn"
    scn.write_text(
        "system dim 2\n"
        "state pure [1, 1]\n"
        "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
        f"observable X eigen [1, -1] basis [[{h!r}, {h!r}], [{h!r}, {-h!r}]]\n"
        "device M1 measures Z\n"
        f"evolve unitary [[{c!r}, {c!r}], [{c!r}, {-c!r}]]\n"
        "device M2 measures X\n"
        "query equivalence\n"
    )
    code, doc = _run_json(capsys, ["verify", str(scn)])
    assert code == 0
    (report,) = doc["reports"]
    assert report["passed"] is True
    assert report["max_deviation"] == pytest.approx(2.5e-11, rel=1e-3)


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


def _no_suite(*args):
    raise AssertionError("the property suite must not run")


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-1", "--trials", "1"],
        ["--max-dim", "90"],
        ["--max-dim", "256"],
        ["--max-dim", "100000"],
    ],
)
def test_prop_bad_arguments_exit_1_with_one_line(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "run_property_suite", _no_suite)
    code = cli.main(["prop", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"premeasure: {argv[0]} ")


def test_prop_max_dim_cap_follows_the_size_limit(monkeypatch, capsys):
    # The smallest pure trial at d stores d**4 amplitudes and compares d**3
    # joint outcomes.  Its equivalence query binds first: the oracle estimate
    # 16 * (3 * d**4 + 2 * d**3) fits under dsl.MAX_ORACLE_BYTES at d = 48,
    # not at d = 49.
    calls = []
    fake = PropSummary()
    monkeypatch.setattr(cli, "run_property_suite", lambda *a: calls.append(a) or fake)
    assert cli.main(["prop", "--trials", "1", "--max-dim", "48"]) == 0
    assert calls == [(0, 1, 48, 3)]
    assert capsys.readouterr().err == ""
    assert cli.main(["prop", "--trials", "1", "--max-dim", "49"]) == 1
    assert "280475216 bytes" in capsys.readouterr().err
    assert cli.main(["prop", "--trials", "1", "--max-dim", "91"]) == 1
    assert "68574961 amplitudes" in capsys.readouterr().err
    assert len(calls) == 1


def _qubit_chain_text(devices: int, query: str) -> str:
    return (
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
        + "".join(f"device M{i} measures Z\n" for i in range(1, devices + 1))
        + query + "\n"
    )


@pytest.mark.parametrize(
    "text,where,message",
    [
        ("system dim " + "9" * 400 + "\n", "1:12", "integer dimension has 400 digits"),
        (_qubit_chain_text(1, "query joint M1=" + "9" * 400), "5:16",
         "outcome index has 400 digits"),
    ],
    ids=["system-dim", "outcome-index"],
)
def test_oversized_integer_exits_1_with_one_line(tmp_path, capsys, text, where, message):
    path = tmp_path / "big.scn"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{path}:{where}: {message}, more than 100"]


def test_integers_are_read_exactly(tmp_path, capsys):
    index = "9" * 26
    path = tmp_path / "index.scn"
    path.write_text(_qubit_chain_text(1, f"query joint M1={index}"))
    assert cli.main(["run", str(path)]) == 1
    assert f"outcome index {index} out of range 1..2" in capsys.readouterr().err


def test_equivalence_past_the_joint_outcome_bound_exits_1(tmp_path, capsys):
    # 2**19 joint outcomes: the chain fits, the equivalence query does not.
    path = tmp_path / "deep.scn"
    path.write_text(_qubit_chain_text(19, "query equivalence"))
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{path}:23:1: query equivalence compares 524288 joint outcomes, "
        "past the limit of 262144"
    ]
    # The same chain answers its other queries.
    path.write_text(_qubit_chain_text(19, "query marginal M19"))
    assert cli.main(["run", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_chain_past_the_device_bound_exits_1_with_one_line(tmp_path, capsys, command):
    # 31 one-outcome devices fit the amplitude limit but not the device bound.
    path = tmp_path / "long.scn"
    path.write_text(
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable One projectors [1] [[1, 0], [0, 1]]\n"
        + "".join(f"device M{i} measures One\n" for i in range(1, 32))
        + "query marginal M31\nquery repeatability M1 M31\n"
    )
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{path}:34:1: device 'M31' makes 31 devices, past the limit of 30"
    ]


def test_prop_out_of_memory_exits_2(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 42.5 GiB for an array")

    monkeypatch.setattr(cli, "run_property_suite", exhausted)
    code = cli.main(["prop", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "premeasure: out of memory: Unable to allocate 42.5 GiB for an array"
    ]


def test_prop_violation_exits_3_and_writes_reproducer(tmp_path, monkeypatch, capsys):
    failure = PropFailure(
        trial=4,
        check="repeatability",
        deviation=0.25,
        message="conditional matrix deviates from identity by 0.25",
        scenario_text="system dim 2\nstate pure [1, 0]\n",
    )
    fake = PropSummary(checks_run=5, max_deviation=0.25, failures=[failure])
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


def test_closed_stdout_exits_2_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "premeasure", "run", str(AVALANCHE)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["premeasure: cannot write to standard output: broken pipe"]


def test_bundled_scenario_helpers():
    names = premeasure.bundled_scenario_names()
    assert "weak_flip.scn" in names
    with pytest.raises(KeyError):
        premeasure.bundled_scenario_path("no_such_scenario")


def test_prop_unwritable_out_dir_exits_2(tmp_path, monkeypatch, capsys):
    failure = PropFailure(
        trial=1, check="equivalence", deviation=0.5, message="deviation",
        scenario_text="system dim 2\nstate pure [1, 0]\n",
    )
    fake = PropSummary(checks_run=2, max_deviation=0.5, failures=[failure])
    monkeypatch.setattr(cli, "run_property_suite", lambda *a, **k: fake)
    missing = tmp_path / "no" / "such" / "dir"
    code = cli.main(["prop", "--seed", "3", "--trials", "2", "--out-dir", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"premeasure: cannot write {missing}")


def test_prop_unbuildable_scenario_is_a_build_failure(tmp_path, monkeypatch, capsys):
    from premeasure import engine

    # prop builds through the loop that build_chain runs, not build_chain itself.
    def refuse(chain, events):
        raise ValueError("evolution phases are not finite")

    monkeypatch.setattr(engine, "extend_chain", refuse)
    code = cli.main(["prop", "--seed", "5", "--trials", "2", "--out-dir", str(tmp_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["passed"] is False
    assert [f["check"] for f in doc["failures"]] == ["build", "build"]
    assert "chain construction failed: evolution phases are not finite" in doc["failures"][0]["message"]
    assert (tmp_path / "prop-failure-5-0.scn").exists()
    assert (tmp_path / "prop-failure-5-1.scn").exists()


def test_cli_import_loads_only_what_a_run_needs():
    code = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import premeasure.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "premeasure.cli" in added
    assert not added & {"dataclasses", "csv", "premeasure.propsuite", "premeasure.sampling"}


def test_run_and_verify_do_not_import_the_property_suite():
    code = (
        "import sys\n"
        "from premeasure import cli\n"
        f"cli.main(['verify', {str(ZX)!r}])\n"
        "assert 'premeasure.propsuite' not in sys.modules\n"
        "assert 'premeasure.sampling' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

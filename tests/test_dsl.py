import re
import tracemalloc

import numpy as np
import pytest

import premeasure
from premeasure import born, dsl
from premeasure.sampling import random_scenario

GOOD = """
# comment line
system dim 2
state pure [0.6, 0.8]
observable Z eigen [1, -1] basis [[1, 0], [0, 1]]
device M1 measures Z
device M2 measures Z
query marginal M1
query joint M1=1 M2=2
query conditional M2=1 given M1=1
query reduced
query repeatability M1 M2
query equivalence
"""


def test_parse_basic_structure():
    s = dsl.parse_scenario(GOOD)
    assert s.statements[0].dim == 2
    assert [type(st).__name__ for st in s.statements[:3]] == [
        "SystemDecl", "PureStateDecl", "EigenObservableDecl",
    ]
    assert s.statements[2].name == "Z"
    assert [(e.name, e.observable, e.weak) for e in s.events] == [
        ("M1", "Z", None), ("M2", "Z", None),
    ]
    assert len(s.queries) == 6


def test_complex_literal_forms():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [0.5-0.5i, 0.70710678i]\n"
    )
    amps = s.statements[1].amplitudes
    assert amps[0] == pytest.approx(0.5 - 0.5j)
    assert amps[1] == pytest.approx(0.70710678j)


def test_scientific_notation():
    s = dsl.parse_scenario("system dim 2\nstate pure [1e0, 1.0e-12+2E-3i]\n")
    assert s.statements[1].amplitudes[1] == pytest.approx(1e-12 + 2e-3j)


def test_newlines_insignificant_inside_brackets():
    s = dsl.parse_scenario(
        "system dim 2\nobservable A eigen [1,\n-1] basis [[1, 0],\n [0, 1]]\n"
    )
    assert s.statements[1].eigenvalues == (1.0, -1.0)


# (text, tokens as (kind, text, line, col, value)); the closing newline and
# eof tokens are part of every table row.
TOKEN_TABLE = [
    ("1+2", [("number", "1", 1, 1, 1), ("number", "+2", 1, 2, 2),
             ("newline", "\n", 1, 4, 0), ("eof", "", 1, 4, 0)]),
    ("1+2ei", [("number", "1", 1, 1, 1), ("number", "+2", 1, 2, 2), ("word", "ei", 1, 4, 0),
               ("newline", "\n", 1, 6, 0), ("eof", "", 1, 6, 0)]),
    (".5e-3-.2e+4i", [("number", ".5e-3-.2e+4i", 1, 1, complex(5e-4, -2e3)),
                      ("newline", "\n", 1, 13, 0), ("eof", "", 1, 13, 0)]),
    ("-0i", [("number", "-0i", 1, 1, complex(0.0, -0.0)),
             ("newline", "\n", 1, 4, 0), ("eof", "", 1, 4, 0)]),
    ("\t\rdim", [("word", "dim", 1, 3, 0), ("newline", "\n", 1, 6, 0), ("eof", "", 1, 6, 0)]),
    ("t # end", [("word", "t", 1, 1, 0), ("newline", "\n", 1, 8, 0), ("eof", "", 1, 8, 0)]),
    ("[1,\n 2]\n", [("lbracket", "[", 1, 1, 0), ("number", "1", 1, 2, 1), ("comma", ",", 1, 3, 0),
                    ("number", "2", 2, 2, 2), ("rbracket", "]", 2, 3, 0),
                    ("newline", "\n", 2, 4, 0), ("eof", "", 3, 1, 0)]),
    # an unmatched ']' leaves the depth at 0, so the newline still counts
    ("]\nt", [("rbracket", "]", 1, 1, 0), ("newline", "\n", 1, 2, 0), ("word", "t", 2, 1, 0),
              ("newline", "\n", 2, 2, 0), ("eof", "", 2, 2, 0)]),
]


@pytest.mark.parametrize("text, expected", TOKEN_TABLE)
def test_token_table(text, expected):
    # repr tells the signed zeros apart
    got = [(*tok[:4], repr(tok.value)) for tok in dsl._tokenize(text)]
    assert got == [(*row[:4], repr(complex(row[4]))) for row in expected]


@pytest.mark.parametrize("text, line, col, char", [
    ("dim +", 1, 5, "+"), ("dim\n  é", 2, 3, "é"),
])
def test_unexpected_character_position(text, line, col, char):
    with pytest.raises(dsl.ParseError, match="unexpected character") as exc:
        dsl._tokenize(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert repr(char) in exc.value.message


def test_eigenvalue_accepts_zero_imaginary_part_only():
    s = dsl.parse_scenario("observable A eigen [0i, 1] basis [[1, 0], [0, 1]]\n")
    assert s.statements[0].eigenvalues == (0.0, 1.0)
    with pytest.raises(dsl.ParseError, match="complex literal '1i'"):
        dsl.parse_scenario("observable A eigen [1i, 1] basis [[1, 0], [0, 1]]\n")


def test_nodes_compare_by_type_and_fields_not_position():
    assert dsl.ReaderDeviceDecl("A", "B") != dsl.RepeatabilityQuery("A", "B")
    assert dsl.ReducedQuery() != dsl.EquivalenceQuery()
    assert dsl.SystemDecl(2, pos=(1, 1)) == dsl.SystemDecl(2, pos=(7, 3))
    assert born.OutcomeEvent("M", 1, pos=(1, 1)) == born.OutcomeEvent("M", 1)
    assert hash(dsl.SystemDecl(2, pos=(1, 1))) == hash(dsl.SystemDecl(2, pos=(7, 3)))
    assert hash(dsl.MarginalQuery("A")) != hash(dsl.EvolveUnitaryDecl("A"))
    event = born.OutcomeEvent("M", 1, pos=(2, 3))
    assert repr(event) == "OutcomeEvent(device='M', outcome=1, pos=(2, 3))"
    with pytest.raises(TypeError):
        dsl.SystemDecl(2, (1, 1))
    with pytest.raises(TypeError):
        dsl.ReducedQuery((1, 1))


def test_parse_error_position():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_scenario("system dim 2\nstate pure [0.6 0.8]\n")
    assert exc.value.line == 2
    assert exc.value.col > 0


def test_keywords_are_reserved():
    with pytest.raises(dsl.ParseError, match="keyword"):
        dsl.parse_scenario("system dim 2\nobservable state eigen [1, -1] basis [[1,0],[0,1]]\n")


def test_duplicate_declarations_rejected():
    text = (
        "system dim 2\nsystem dim 3\n"
    )
    with pytest.raises(dsl.ParseError, match="duplicate"):
        dsl.parse_scenario(text)
    with pytest.raises(dsl.ParseError, match="duplicate"):
        dsl.parse_scenario(
            "system dim 2\n"
            "observable A eigen [1, -1] basis [[1,0],[0,1]]\n"
            "observable A eigen [1, -1] basis [[1,0],[0,1]]\n"
        )


def test_device_statement_forms():
    s = dsl.parse_scenario(
        "system dim 2\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device MW measures Z weak [[1,0],[0,1]] [[0,1],[1,0]]\n"
        "device R reads MW\n"
    )
    weak, reader = s.events
    assert (weak.name, len(weak.weak)) == ("MW", 2)
    assert (reader.name, reader.target) == ("R", "MW")


def test_format_round_trip_bundled_corpus():
    names = premeasure.bundled_scenario_names()
    assert len(names) >= 10
    for name in names:
        text = premeasure.bundled_scenario_path(name).read_text()
        s = dsl.parse_scenario(text)
        assert dsl.parse_scenario(dsl.format_scenario(s)) == s


def test_format_round_trip_random_scenarios():
    for trial in range(25):
        rng = np.random.default_rng([99, trial])
        s = random_scenario(rng, max_dim=5, max_depth=3)
        text = dsl.format_scenario(s)
        assert dsl.parse_scenario(text) == s
        assert not dsl.validate_scenario(s)


def test_format_complex_forms():
    assert dsl.format_complex(complex(0.5, 0)) == "0.5"
    assert dsl.format_complex(complex(0, -0.25)) == "-0.25i"
    assert dsl.format_complex(complex(1.5, 2.5)) == "1.5+2.5i"
    assert dsl.format_complex(complex(1.5, -2.5)) == "1.5-2.5i"


def test_formatter_keeps_float64_precision():
    # 17 significant digits round-trip any float64 exactly
    z = complex(1 / 3, -np.pi)
    s = dsl.parse_scenario(f"system dim 1\nstate pure [{dsl.format_complex(z)}]\n")
    assert s.statements[1].amplitudes[0] == z


def _diags(text):
    return [d.message for d in dsl.validate_scenario(dsl.parse_scenario(text))]


def test_validator_missing_sections():
    msgs = _diags("query reduced\n")
    assert any("system" in m for m in msgs)
    assert any("state" in m for m in msgs)


def test_validator_dimension_mismatches():
    msgs = _diags("system dim 3\nstate pure [1, 0]\n")
    assert any("3" in m for m in msgs)


def test_validator_non_orthonormal_basis():
    msgs = _diags(
        "system dim 2\nstate pure [1, 0]\n"
        "observable A eigen [1, -1] basis [[1, 0], [0.6, 0.8]]\n"
    )
    assert any("orthonormal" in m for m in msgs)


def test_validator_accepts_eight_digit_half_sqrt2():
    text = (
        "system dim 2\nstate pure [0.70710678, 0.70710678]\n"
        "observable B eigen [1, -1] basis "
        "[[0.70710678, 0.70710678], [0.70710678, -0.70710678]]\n"
    )
    assert not dsl.validate_scenario(dsl.parse_scenario(text))


def test_validator_unknown_device_in_query():
    msgs = _diags(
        "system dim 2\nstate pure [1, 0]\nquery marginal M9\n"
    )
    assert any("M9" in m for m in msgs)


def test_validator_outcome_range():
    msgs = _diags(
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device M1 measures Z\n"
        "query joint M1=5\n"
    )
    assert any("outcome" in m for m in msgs)


def test_validator_repeatability_needs_matching_devices():
    base = (
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device M1 measures Z\n"
    )
    msgs = _diags(base + "query repeatability M1 M1\n")
    assert any("distinct" in m for m in msgs)


def test_validator_weak_disturbance_must_be_unitary():
    msgs = _diags(
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device MW measures Z weak [[1,0],[0,1]] [[1,1],[0,1]]\n"
    )
    assert any("unitary" in m for m in msgs)


def test_validator_reserved_system_label():
    msgs = _diags(
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "device S measures Z\n"
    )
    assert any("reserved" in m for m in msgs)


def _ququart_chain(state: str, devices: int) -> str:
    return (
        f"system dim 4\nstate {state}\n"
        "observable A eigen [1, 2, 3, 4] basis "
        "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]\n"
        + "".join(f"device M{i} measures A\n" for i in range(1, devices + 1))
    )


def test_validator_size_preflight_names_first_device_over_limit():
    # The chain stores 4 pointer states per device: 4 * 4**13 amplitudes is
    # past 2**26, 4 * 4**12 is not.  Validation is arithmetic on the
    # declarations, so it must not allocate the state.
    tracemalloc.start()
    try:
        msgs = _diags(_ququart_chain("pure [1, 0, 0, 0]", 14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    over = [m for m in msgs if "amplitudes" in m]
    assert len(over) == 1 and "'M13'" in over[0]
    assert not _diags(_ququart_chain("pure [1, 0, 0, 0]", 12))


def test_validator_size_preflight_counts_the_mixed_ancilla():
    mixed = "mixed [[0.25,0,0,0],[0,0.25,0,0],[0,0,0.25,0],[0,0,0,0.25]]"
    # 4 * 4 * 4**11 amplitudes fit; 4 * 4 * 4**12 do not.
    assert not _diags(_ququart_chain(mixed, 11))
    over = [m for m in _diags(_ququart_chain(mixed, 12)) if "amplitudes" in m]
    assert len(over) == 1 and "'M12'" in over[0]


def _one_outcome_chain(devices: int) -> str:
    return (
        "system dim 2\nstate pure [0.6, 0.8]\n"
        "observable One projectors [1] [[1, 0], [0, 1]]\n"
        + "".join(f"device M{i} measures One\n" for i in range(1, devices + 1))
    )


def test_validator_bounds_the_device_count():
    # One-outcome devices keep the state at 2 amplitudes, so only the device
    # bound stops the chain: one diagnostic at the first device past it.
    assert dsl.MAX_DEVICES == 30
    assert not _diags(_one_outcome_chain(30))
    for devices in (31, 70):
        diags = dsl.validate_scenario(dsl.parse_scenario(_one_outcome_chain(devices)))
        assert [(d.line, d.col, d.message) for d in diags] == [
            (34, 1, "device 'M31' makes 31 devices, past the limit of 30")
        ]
    reader = _one_outcome_chain(30) + "device R reads M30\n"
    assert _diags(reader) == ["device 'R' makes 31 devices, past the limit of 30"]


def test_statement_order_is_preserved():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1,0],[0,1]]\n"
        "hamiltonian H [[0, 1], [1, 0]]\n"
        "device M1 measures Z\n"
        "evolve H t 0.25\n"
        "device M2 measures Z\n"
    )
    kinds = [type(e).__name__ for e in s.events]
    assert kinds == ["MeasureDeviceDecl", "EvolveNamedDecl", "MeasureDeviceDecl"]


def _diag_positions(text):
    return [(d.line, d.col, d.message) for d in dsl.validate_scenario(dsl.parse_scenario(text))]


def test_validator_bounds_the_equivalence_oracle():
    # A mixed d = 16 start with four 16-outcome devices: the chain stores
    # 16 * 16 * 16**4 = 2**24 amplitudes, but the oracle would hold 16**4
    # density matrices of 16 x 16.
    eye = "[" + ", ".join(
        "[" + ", ".join("1" if i == j else "0" for j in range(16)) + "]" for i in range(16)
    ) + "]"
    def text(devices):
        return (
            f"system dim 16\nstate mixed {eye}\n"
            f"observable A eigen [{', '.join(map(str, range(16)))}] basis {eye}\n"
            + "".join(f"device M{i} measures A\n" for i in range(1, devices + 1))
            + "query equivalence\n"
        )

    diags = _diag_positions(text(4))
    assert [(line, col) for line, col, _ in diags] == [(8, 1)]
    assert "collapse-oracle" in diags[0][2]
    assert not _diag_positions(text(3))


def test_oracle_estimate_prices_three_stacks_per_joint_outcome():
    # A pure d = 256 start with fourteen 2-outcome devices: the oracle's
    # final frontier is 67 MB and its peak about 1.5 times that, priced at
    # three frontiers plus the projectors.  A fifteenth device doubles it.
    assert dsl.equivalence_problem(256, False, 2**14, [2, 2]) is None
    assert dsl.equivalence_problem(256, False, 2**15, [2, 2]) == (
        "query equivalence needs about 406847488 bytes of collapse-oracle "
        "states, past the limit of 268435456"
    )


def test_oracle_estimate_charges_the_widest_weak_device_once(monkeypatch):
    # A mixed qubit start and two 2-outcome devices on one observable:
    # 16 * (3 * 4 * 4 + 2 * 4) = 896 bytes.  A weak step adds three (2, 2, 2)
    # stacks, 384 bytes, however many weak devices there are.
    monkeypatch.setattr(dsl, "MAX_ORACLE_BYTES", 1000)
    weak = "weak [[1, 0], [0, 1]] [[0, 1], [1, 0]]"

    def diagnostics(first, second):
        return dsl.validate_scenario(dsl.parse_scenario(
            "system dim 2\nstate mixed [[0.5, 0], [0, 0.5]]\n"
            "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
            f"device M1 measures Z {first}\ndevice M2 measures Z {second}\n"
            "query equivalence\n"
        ))

    assert diagnostics("", "") == []
    message = ("query equivalence needs about 1280 bytes of collapse-oracle states, "
               "past the limit of 1000")
    assert [d.message for d in diagnostics(weak, "")] == [message]
    assert [d.message for d in diagnostics(weak, weak)] == [message]


def test_validator_reports_an_early_equivalence_query_in_file_order():
    # The query comes before the devices it compares; its diagnostic keeps
    # its place ahead of a later one.
    text = (
        "system dim 2\nstate pure [1, 0]\n"
        "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
        "query equivalence\n"
        + "".join(f"device M{i} measures Z\n" for i in range(1, 20))
        + "device X measures Nothing\n"
    )
    diags = _diag_positions(text)
    assert [(line, col) for line, col, _ in diags] == [(4, 1), (24, 1)]
    assert "524288 joint outcomes" in diags[0][2]
    assert "undefined observable" in diags[1][2]


# One row per parse-error branch: (text, str(ParseError)).  The tokenizer
# closes every file with a newline token, so a statement cut off at the end
# of the input reports the '\n' it runs into.
PARSE_ERRORS = [
    ("5", "1:1: expected statement keyword, got '5'"),
    ("]", "1:1: expected statement keyword, got ']'"),
    ("foo", "1:1: expected 'system' or 'state' or 'observable' or 'hamiltonian' or "
            "'device' or 'evolve' or 'query', got 'foo'"),
    ("system 2", "1:8: expected 'dim', got '2'"),
    ("system dim", "1:11: expected integer dimension, got end of line"),
    ("system dim 2.5", "1:12: expected integer dimension, got '2.5'"),
    ("system dim 1" + "0" * 100, "1:12: integer dimension has 101 digits, more than 100"),
    ("system dim 2\nsystem dim 3", "2:1: duplicate system declaration"),
    ("state [1]", "1:7: expected 'pure' or 'mixed', got '['"),
    ("state pure 1", "1:12: expected '[', got '1'"),
    ("state pure [a]", "1:13: expected number, got 'a'"),
    ("state pure [1 2]", "1:15: expected ']' or ',', got '2'"),
    ("state pure [1, 0", "1:17: expected ']' or ',', got end of line"),
    ("state mixed [1]", "1:14: expected '[', got '1'"),
    ("state pure [1]\nstate mixed [[1]]", "2:1: duplicate state declaration"),
    ("state pure [1]\nstate [1]", "2:1: duplicate state declaration"),
    ("observable 5", "1:12: expected observable name, got '5'"),
    ("observable state", "1:12: keyword 'state' cannot be used as observable name"),
    ("observable A basis", "1:14: expected 'eigen' or 'projectors', got 'basis'"),
    ("observable A eigen [x]", "1:21: expected eigenvalue, got 'x'"),
    ("observable A eigen [1i]", "1:21: expected eigenvalue, got complex literal '1i'"),
    ("observable A eigen [1] [[1]]", "1:24: expected 'basis', got '['"),
    ("observable A projectors [1] 5", "1:29: expected '[', got '5'"),
    ("observable A projectors [1] [[1]]\nobservable A eigen [1] basis [[1]]",
     "2:12: duplicate observable name 'A'"),
    ("observable A projectors [1] [[1]]\nobservable A 5", "2:12: duplicate observable name 'A'"),
    ("hamiltonian 5", "1:13: expected hamiltonian name, got '5'"),
    ("hamiltonian H 5", "1:15: expected '[', got '5'"),
    ("hamiltonian H [[1]]\nhamiltonian H [[1]]", "2:13: duplicate hamiltonian name 'H'"),
    ("device 5", "1:8: expected device name, got '5'"),
    ("device M 5", "1:10: expected 'measures' or 'reads', got '5'"),
    ("device M measures 5", "1:19: expected observable name, got '5'"),
    ("device M measures Z weak 5", "1:26: expected '[', got '5'"),
    ("device M measures Z 5", "1:21: expected end of line, got '5'"),
    ("device R reads 5", "1:16: expected device name, got '5'"),
    ("device M reads A\ndevice M measures Z", "2:8: duplicate device name 'M'"),
    ("evolve 5", "1:8: expected hamiltonian name, got '5'"),
    ("evolve query", "1:8: keyword 'query' cannot be used as hamiltonian name"),
    ("evolve H 5", "1:10: expected 't', got '5'"),
    ("evolve H t x", "1:12: expected time, got 'x'"),
    ("evolve H t 1i", "1:12: expected time, got complex literal '1i'"),
    ("evolve unitary 5", "1:16: expected '[', got '5'"),
    ("query 5", "1:7: expected query kind, got '5'"),
    ("query foo", "1:7: expected 'marginal' or 'joint' or 'conditional' or 'reduced' or "
                  "'repeatability' or 'equivalence', got 'foo'"),
    ("query marginal 5", "1:16: expected device name, got '5'"),
    ("query joint 5", "1:13: expected device name, got '5'"),
    ("query joint M 1", "1:15: expected '=', got '1'"),
    ("query joint M=x", "1:15: expected outcome index, got 'x'"),
    ("query joint M=1.5", "1:15: expected outcome index, got '1.5'"),
    ("query joint state=1", "1:13: keyword 'state' cannot be used as device name"),
    ("query conditional M=1 M=2", "1:23: expected 'given', got 'M'"),
    ("query conditional M=1 given 5", "1:29: expected device name, got '5'"),
    ("query repeatability M 5", "1:23: expected device name, got '5'"),
    ("query reduced 5", "1:15: expected end of line, got '5'"),
    ("query equivalence [", "1:19: expected end of line, got '['"),
    ("dim +", "1:5: unexpected character '+'"),
    ("system dim 2 # ok\n\x0c", "2:1: unexpected character '\\x0c'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_text_and_position(text, message):
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_scenario(text)
    assert str(exc.value) == message


# Every statement form, written loosely, and its canonical line.  One file
# holds one state declaration, so the mixed form replaces the pure one.
FORMS = [
    ("system  dim 2 # a qubit", "system dim 2"),
    ("state pure [0.5,\n 5e-1i]", "state pure [0.5, 0.5i]"),
    ("observable Z eigen [1, -1.0] basis [[1, 0], [0, 1]]",
     "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]"),
    ("observable P projectors [0.5, -2] [[1, 0], [0, 0]]\t[[0, 0], [0, 1]]",
     "observable P projectors [0.5, -2] [[1, 0], [0, 0]] [[0, 0], [0, 1]]"),
    ("hamiltonian H [[0, -1i], [+1i, 0]]", "hamiltonian H [[0, -1i], [1i, 0]]"),
    ("device M1 measures Z", "device M1 measures Z"),
    ("device MW measures Z weak [[1,0],[0,1]] [[0,1],[1,0]]",
     "device MW measures Z weak [[1, 0], [0, 1]] [[0, 1], [1, 0]]"),
    ("device R reads M1", "device R reads M1"),
    ("evolve H t 2.5e-1", "evolve H t 0.25"),
    ("evolve unitary [[0, 1], [1, 0]]", "evolve unitary [[0, 1], [1, 0]]"),
    ("query marginal M1", "query marginal M1"),
    ("query joint M1=1 MW=2", "query joint M1=1 MW=2"),
    ("query conditional R=1 given M1=+1 MW=2", "query conditional R=1 given M1=1 MW=2"),
    ("query reduced", "query reduced"),
    ("query repeatability M1 R", "query repeatability M1 R"),
    ("query equivalence", "query equivalence"),
]
MIXED_FORM = ("state mixed [[0.5, 0.25-0.5i], [0.25+0.5i, 0.5]]",
              "state mixed [[0.5, 0.25-0.5i], [0.25+0.5i, 0.5]]")


def test_every_statement_form_round_trips_to_its_canonical_line():
    seen = set()
    for state in (FORMS[1], MIXED_FORM):
        forms = [FORMS[0], state, *FORMS[2:]]
        s = dsl.parse_scenario("\n".join(loose for loose, _ in forms))
        text = dsl.format_scenario(s)
        assert text.splitlines() == [canonical for _, canonical in forms]
        assert dsl.parse_scenario(text) == s
        assert dsl.format_scenario(dsl.parse_scenario(text)) == text
        seen.update(type(st) for st in s.statements)
    assert seen == {
        dsl.SystemDecl, dsl.PureStateDecl, dsl.MixedStateDecl, dsl.EigenObservableDecl,
        dsl.ProjectorObservableDecl, dsl.HamiltonianDecl, dsl.MeasureDeviceDecl,
        dsl.ReaderDeviceDecl, dsl.EvolveNamedDecl, dsl.EvolveUnitaryDecl, dsl.MarginalQuery,
        dsl.JointQuery, dsl.ConditionalQuery, dsl.ReducedQuery, dsl.RepeatabilityQuery,
        dsl.EquivalenceQuery,
    }


def test_equivalence_queries_need_a_measuring_device():
    # A reader cannot be declared without a measuring device, and an
    # evolution compares nothing; every equivalence query is reported.
    text = (
        "system dim 2\nstate pure [1, 0]\nquery equivalence\n"
        "hamiltonian H [[0, 1], [1, 0]]\nevolve H t 1\nquery equivalence\n"
    )
    assert _diag_positions(text) == [
        (3, 1, "scenario attaches no system devices; nothing to compare"),
        (6, 1, "scenario attaches no system devices; nothing to compare"),
    ]
    text += "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\ndevice M measures Z\n"
    assert _diag_positions(text) == []


def test_grammar_has_one_row_per_form_and_the_docstring_quotes_its_keywords():
    classes = [row[0] for row in dsl.GRAMMAR]
    assert len(classes) == len(set(classes)) == 16
    assert set(re.findall(r'"([a-z]+)"', dsl.__doc__)) == dsl.KEYWORDS

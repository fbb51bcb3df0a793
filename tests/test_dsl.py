import tracemalloc

import numpy as np
import pytest

import premeasure
from premeasure import dsl
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
    assert s.system_dim == 2
    assert list(s.observables) == ["Z"]
    assert list(s.device_decls) == ["M1", "M2"]
    assert len(s.queries) == 6
    assert not s.has_weak_device()


def test_complex_literal_forms():
    s = dsl.parse_scenario(
        "system dim 2\nstate pure [0.5-0.5i, 0.70710678i]\n"
    )
    amps = s.state_decl.amplitudes
    assert amps[0] == pytest.approx(0.5 - 0.5j)
    assert amps[1] == pytest.approx(0.70710678j)


def test_scientific_notation():
    s = dsl.parse_scenario("system dim 2\nstate pure [1e0, 1.0e-12+2E-3i]\n")
    assert s.state_decl.amplitudes[1] == pytest.approx(1e-12 + 2e-3j)


def test_newlines_insignificant_inside_brackets():
    s = dsl.parse_scenario(
        "system dim 2\nobservable A eigen [1,\n-1] basis [[1, 0],\n [0, 1]]\n"
    )
    assert s.observables["A"].eigenvalues == (1.0, -1.0)


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
    assert s.has_weak_device()
    weak = s.device_decls["MW"]
    assert weak.weak is not None and len(weak.weak) == 2
    assert s.device_decls["R"].target == "MW"


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
    assert s.state_decl.amplitudes[0] == z


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
    # 4 * 5**11 amplitudes is past 2**26; 4 * 5**10 is not.  Validation is
    # arithmetic on the declarations, so it must not allocate the state.
    tracemalloc.start()
    try:
        msgs = _diags(_ququart_chain("pure [1, 0, 0, 0]", 12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    over = [m for m in msgs if "amplitudes" in m]
    assert len(over) == 1 and "'M11'" in over[0]
    assert not _diags(_ququart_chain("pure [1, 0, 0, 0]", 10))


def test_validator_size_preflight_counts_the_mixed_ancilla():
    mixed = "mixed [[0.25,0,0,0],[0,0.25,0,0],[0,0,0.25,0],[0,0,0,0.25]]"
    assert not _diags(_ququart_chain(mixed, 9))
    over = [m for m in _diags(_ququart_chain(mixed, 10)) if "amplitudes" in m]
    assert len(over) == 1 and "'M10'" in over[0]


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

"""One compile pass per scenario: validation builds the objects the engine runs."""

import sys
import warnings

import pytest

from premeasure import chain, cli, dsl, linalg, model, runner

EVOLVED = (
    "system dim 2\nstate pure [0.6, 0.8]\n"
    "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
    "observable X eigen [1, -1] basis [[0.70710678, 0.70710678], [0.70710678, -0.70710678]]\n"
    "hamiltonian H [[0, 1], [1, 0]]\n"
    "device M1 measures Z\nevolve H t 0.3\ndevice M2 measures X\n"
    "evolve H t 1.1\ndevice M3 measures Z\ndevice R reads M3\n"
    "query conditional M3=1 given M1=1\nquery equivalence\n"
)


def _counting(monkeypatch, func):
    """Count calls of ``func`` through every premeasure module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("premeasure"):
            for name, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, name, counted)
    return calls


def test_validate_and_run_build_each_object_once(monkeypatch):
    evolutions = _counting(monkeypatch, linalg.hermitian_evolution)
    observables = _counting(monkeypatch, model.make_observable)
    readers = _counting(monkeypatch, chain.make_reader_device)
    scenario = dsl.parse_scenario(EVOLVED)
    assert not dsl.validate_scenario(scenario)
    answers = runner.run_scenario(scenario)
    assert [a.error for a in answers] == [None, None]
    assert answers[1].payload["passed"]
    assert len(evolutions) == 2  # once per `evolve H t`, shared by chain and oracle
    assert len(observables) == 3  # Z, X and the reader's pointer basis
    assert len(readers) == 1
    assert scenario.program is scenario.program


NON_FINITE = {
    "state pure": ("state pure [X, 0]", 2),
    "state mixed": ("state mixed [[X, 0], [0, 0.5]]", 2),
    "eigenbasis": ("observable Z eigen [1, -1] basis [[X, 0], [0, 1]]", 3),
    "eigenvalues": ("observable Z eigen [X, -1] basis [[1, 0], [0, 1]]", 3),
    "projectors": ("observable Z projectors [1, -1] [[X, 0], [0, 0]] [[0, 0], [0, 1]]", 3),
    "hamiltonian": ("hamiltonian H [[X, 0], [0, 1]]", 4),
    "weak": ("device MW measures Z weak [[X, 0], [0, 1]] [[1, 0], [0, 1]]", 4),
    "evolve unitary": ("evolve unitary [[X, 0], [0, 1]]", 4),
}
# Finite literals whose checks overflow float64, and the quantity the
# diagnostic names.
OVERFLOWING = {
    "state pure": "state norm",
    "eigenbasis": "eigenbasis row norm",
    "projectors": "projector product",
    "weak": "disturbance unitarity residual",
    "evolve unitary": "evolution unitarity residual",
}


BASE = (
    "system dim 2",
    "state pure [1, 0]",
    "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]",
    "evolve unitary [[1, 0], [0, 1]]",
    "device M measures Z",
    "query marginal M",
)


def _scenario_with(kind: str, literal: str) -> str:
    template, line = NON_FINITE[kind]
    lines = list(BASE)
    lines[line - 1] = template.replace("X", literal)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kind, literal",
    [(k, "1e400") for k in NON_FINITE] + [(k, "1e200") for k in OVERFLOWING],
)
def test_extreme_literals_are_positioned_validation_errors(kind, literal, tmp_path, capsys):
    path = tmp_path / "extreme.scn"
    path.write_text(_scenario_with(kind, literal))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"{path}:{NON_FINITE[kind][1]}:1: ")
    assert "encountered" not in captured.err
    if literal == "1e200":
        assert captured.err.endswith(f": {OVERFLOWING[kind]} overflows float64\n")


@pytest.mark.parametrize(
    "statement, quantity",
    [
        ("state pure [1e308, 1e308]", "state norm"),
        ("state mixed [[1e308, 0], [0, 1e308]]", "mixed state trace or spectrum"),
        ("state mixed [[0.5, 1e308], [1e308, 0.5]]", "mixed state trace or spectrum"),
        ("hamiltonian H [[0, 1e308], [-1e308, 0]]", "hamiltonian hermiticity residual"),
    ],
)
def test_overflow_names_the_quantity(statement, quantity):
    state = [] if statement.startswith("state") else ["state pure [1, 0]"]
    lines = ["system dim 2", *state, statement]
    diags = dsl.validate_scenario(dsl.parse_scenario("\n".join(lines) + "\n"))
    assert [str(d) for d in diags] == [f"{len(lines)}:1: {quantity} overflows float64"]


@pytest.mark.parametrize(
    "statement, line, message",
    [
        ("state mixed [[0.5, 0.5], [0, 0.5]]", 2, "density matrix is not Hermitian"),
        ("state mixed [[1.5, 0], [0, -0.5]]", 2, "negative eigenvalue"),
        ("observable A eigen [1, 1] basis [[1, 0], [0, 1]]", 3, "eigenvalues not distinct"),
        ("observable A projectors [1, 2] [[1, 0], [0, 1]] [[0, 0], [0, 1]]", 3, "not orthogonal"),
        ("hamiltonian G [[0, 1], [0, 0]]", 3, "hamiltonian 'G' is not Hermitian"),
        ("evolve unitary [[1, 1], [0, 1]]", 3, "evolution is not unitary"),
    ],
)
def test_constructor_errors_are_diagnostics_at_their_statement(statement, line, message):
    text = f"system dim 2\nstate pure [1, 0]\n{statement}\n"
    if line == 2:
        text = f"system dim 2\n{statement}\n"
    diags = dsl.validate_scenario(dsl.parse_scenario(text))
    assert [(d.line, d.col) for d in diags] == [(line, 1)]
    assert message in diags[0].message

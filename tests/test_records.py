"""Record semantics of every class built on ``model.Record``: frozen fields,
equality by type and fields or by identity, argument checking, defaults,
``__post_init__`` validation and memoized properties; and the one mutable
result record, ``propsuite.PropSummary``."""

import numpy as np
import pytest

from premeasure import born, chain, collapse, dsl, model, propsuite, runner, verify
from premeasure.model import Record

SCENARIO = dsl.parse_scenario(
    "system dim 2\nstate pure [0.6, 0.8]\n"
    "observable Z eigen [1, -1] basis [[1, 0], [0, 1]]\n"
    "hamiltonian H [[0, 1], [1, 0]]\n"
    "device M1 measures Z\nevolve H t 0.5\ndevice M2 measures Z\n"
    "query repeatability M1 M2\n"
)
Z = SCENARIO.program.observables["Z"]
CHAIN = chain.attach_device(chain.init_chain(np.array([0.6, 0.8])), model.DeviceSpec("M1", Z))
EVENT = born.OutcomeEvent("M1", 1, pos=(9, 1))
ROWS = ((1.0, 0.0), (0.0, 1.0))
# A degenerate measure step for the collapse oracle: outcome 1 spans two columns.
MEASURE_STEP = model.Observable("P", model.SYSTEM_LABEL, (1.0, -1.0), np.eye(3), np.array([1, 1, 2]))

# One example of every record class, plus the records each layer now shares
# as it is: the chain's attach record, a parsed event with its position, the
# program's evolution and an oracle measure step.
EXAMPLES = [
    Z,
    MEASURE_STEP,
    model.DensityState("S", np.eye(2) / 2),
    model.DeviceSpec("M1", Z),
    chain.Disturbance((np.eye(2), np.eye(2))),
    CHAIN.devices[0],
    CHAIN,
    born.OutcomeEvent("M1", 1),
    collapse.Branch(1, 0.36, np.array([1.0, 0.0])),
    collapse.Evolve(np.eye(2)),
    verify.RepeatabilityReport("M1", "M2", (ROWS[0], None), 0.0, 1e-10, True),
    runner.QueryAnswer(0, "conditional", "query conditional M1=1 given M2=2", None, "zero", "z"),
    propsuite.PropFailure(3, "equivalence", 0.5, "deviation 5e-01", "system dim 2\n"),
    dsl.Diagnostic("no state declaration", 1, 1),
    SCENARIO,
    SCENARIO.program,
    *SCENARIO.program.events,  # chain.Attach, collapse.Evolve, chain.Attach
    dsl.SystemDecl(2, pos=(1, 1)),
    dsl.PureStateDecl((0.6, 0.8)),
    dsl.MixedStateDecl(ROWS),
    dsl.EigenObservableDecl("Z", (1.0, -1.0), ROWS),
    dsl.ProjectorObservableDecl("P", (1.0, -1.0), (ROWS, ROWS)),
    dsl.HamiltonianDecl("H", ROWS),
    dsl.MeasureDeviceDecl("M1", "Z", (ROWS, ROWS)),
    dsl.ReaderDeviceDecl("R", "M1"),
    dsl.EvolveNamedDecl("H", 0.5),
    dsl.EvolveUnitaryDecl(ROWS),
    EVENT,
    dsl.MarginalQuery("M1"),
    dsl.JointQuery((EVENT,)),
    dsl.ConditionalQuery(EVENT, (born.OutcomeEvent("M2", 2),)),
    dsl.ReducedQuery(),
    dsl.RepeatabilityQuery("M1", "M2"),
    dsl.EquivalenceQuery(),
]
COMPARED = (
    born.OutcomeEvent, verify.RepeatabilityReport, runner.QueryAnswer, propsuite.PropFailure,
    dsl.Diagnostic, dsl.Scenario, dsl._Node,
)
ROLES = {
    id(CHAIN.devices[0]): "AttachedDevice",
    id(EVENT): "EventRef",
    id(SCENARIO.program.events[1]): "Evolution",
    id(MEASURE_STEP): "Measure",
}
IDS = [ROLES.get(id(r), type(r).__name__) for r in EXAMPLES]


def _values(record):
    return [getattr(record, name) for name in record._fields]


def _copy(record):
    """A new record of the same type from the same field values."""
    keywords = {name: getattr(record, name) for name in record._keywords}
    return type(record)(*_values(record), **keywords)


def test_examples_cover_every_record_class():
    classes, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.add(sub)
            todo.append(sub)
    assert {type(r) for r in EXAMPLES} == classes - {dsl._Node}


@pytest.mark.parametrize("record", EXAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in record._fields + record._keywords:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", EXAMPLES, ids=IDS)
def test_equality_by_type_and_fields_or_by_identity(record):
    twin = _copy(record)
    assert record == record
    if isinstance(record, COMPARED):
        assert twin == record
        assert hash(twin) == hash(record)
    else:
        assert twin != record
        assert hash(twin) != hash(record)


@pytest.mark.parametrize("record", EXAMPLES, ids=IDS)
def test_missing_or_extra_positional_argument_raises(record):
    cls, values = type(record), _values(record)
    required = [name for name in cls._fields if not hasattr(cls, name)]
    if required:
        with pytest.raises(TypeError):
            cls(*values[:len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, not_a_field=None)


def test_keyword_may_not_repeat_a_positional_argument():
    with pytest.raises(TypeError):
        born.OutcomeEvent("M1", 1, device="M2")
    with pytest.raises(TypeError):
        born.OutcomeEvent("M1", 1, outcome=2)


def test_event_position_is_keyword_only_and_not_compared():
    assert born.OutcomeEvent._fields == ("device", "outcome")
    with pytest.raises(TypeError):
        born.OutcomeEvent("M1", 1, (9, 1))
    moved = born.OutcomeEvent("M1", 1, pos=(2, 5))
    assert moved == EVENT and hash(moved) == hash(EVENT)
    assert moved != born.OutcomeEvent("M1", 2, pos=(9, 1))


def test_class_attribute_is_the_default():
    assert dsl.MeasureDeviceDecl("M1", "Z").weak is None
    assert born.OutcomeEvent("M1", 1).pos == (0, 0)
    assert runner.QueryAnswer(0, "joint", "q", {}).error_kind is None


def test_prop_summaries_are_mutable_and_do_not_share_failures():
    first, second = propsuite.PropSummary(), propsuite.PropSummary()
    first.failures.append(EXAMPLES[IDS.index("PropFailure")])
    first.checks_run += 1
    assert second.failures == [] and second.checks_run == 0
    assert first.failures is not second.failures
    assert first == propsuite.PropSummary(1, 0.0, list(first.failures)) != second
    with pytest.raises(TypeError):
        hash(first)


@pytest.mark.parametrize("build", [
    lambda: model.Observable("Z", "S", (1.0, 1.0), np.eye(2), np.array([1, 2])),
    lambda: model.DensityState("S", 2 * np.eye(2)),
    lambda: model.DeviceSpec("", Z),
    lambda: chain.Disturbance((2 * np.eye(2),)),
    lambda: chain.ChainState(np.ones((2, 3)), CHAIN.devices, CHAIN.initial_system_state),
    lambda: chain.Attach(chain.make_reader_device("R", CHAIN.devices[0].spec), chain.Disturbance(())),
], ids=["Observable", "DensityState", "DeviceSpec", "Disturbance", "ChainState", "Attach"])
def test_post_init_still_validates(build):
    with pytest.raises(ValueError):
        build()


def test_cached_properties_memoize():
    evolution = SCENARIO.program.events[1]
    assert SCENARIO.program is SCENARIO.program
    assert SCENARIO.events is SCENARIO.events
    assert SCENARIO.queries is SCENARIO.queries
    twin = dsl.parse_scenario(dsl.format_scenario(SCENARIO))
    assert twin == SCENARIO and hash(twin) == hash(SCENARIO)  # memos are not compared
    assert evolution.unitary is evolution.unitary
    assert Z.projectors is Z.projectors
    assert CHAIN.pointer_probabilities is CHAIN.pointer_probabilities

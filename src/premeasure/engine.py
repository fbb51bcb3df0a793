"""Run compiled scenarios: build the chain and the collapse-oracle plan.

``scenario.program`` (``dsl.compile_scenario``) has already normalized and
checked every number and built the initial state, observables, device specs
and evolutions once.  A scenario with diagnostics raises ValueError naming the
first one, and so does a build that still fails, such as a phase overflow.
"""

from __future__ import annotations

from . import dsl
from .chain import ChainState, apply_evolution, attach_device, init_chain
from .collapse import Evolve, Measure
from .model import Observable


class WeakDeviceError(ValueError):
    """Raised when an equivalence claim is requested for a weak device."""


def _program(scenario: dsl.Scenario) -> dsl.Program:
    """The scenario's compiled program; ValueError if it has diagnostics."""
    compiled = scenario.program
    if compiled.diagnostics:
        raise ValueError(str(compiled.diagnostics[0]))
    return compiled


def build_observables(scenario: dsl.Scenario) -> dict[str, Observable]:
    return _program(scenario).observables


def build_chain(scenario: dsl.Scenario) -> ChainState:
    """Run every device / evolve event in file order on the initial state."""
    compiled = _program(scenario)
    chain = init_chain(compiled.initial_state)
    for event in compiled.events:
        if isinstance(event, dsl.Evolution):
            chain = apply_evolution(chain, event.unitary)
        else:
            chain = attach_device(chain, event.device, disturbance=event.disturbance)
    return chain


def oracle_plan(scenario: dsl.Scenario):
    """(initial state, collapse-oracle steps, system-device labels).

    Ideal system devices become Measure steps and evolutions become Evolve
    steps; reader devices have no collapse-side counterpart and are skipped.
    Weak devices are outside the oracle's remit: the first one raises
    ``WeakDeviceError``.
    """
    compiled = _program(scenario)
    steps = []
    labels = []
    for event in compiled.events:
        if isinstance(event, dsl.Evolution):
            steps.append(Evolve(event.unitary))
        elif event.disturbance is not None:
            raise WeakDeviceError(
                "equivalence with the collapse postulate is only claimed for ideal "
                "premeasurements; this scenario attaches a weak device"
            )
        elif event.device.target is None:
            steps.append(Measure(event.device.observable))
            labels.append(event.device.label)
    return compiled.initial_state, steps, labels

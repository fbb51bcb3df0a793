"""Run compiled scenarios: build the chain and the collapse-oracle plan.

``scenario.program`` (``dsl.compile_scenario``) has already normalized and
checked every number and built the initial state, the observables and one
``Attach`` or ``Evolve`` per event once; the chain and the oracle take those
records as they are.  A scenario with diagnostics raises ValueError naming
the first one, and so does a build that still fails, such as a phase overflow.
"""

from __future__ import annotations

from . import dsl
from .chain import ChainState, apply_evolution, attach_device, init_chain
from .collapse import Evolve
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
    return extend_chain(init_chain(compiled.initial_state), compiled.events)


def extend_chain(chain: ChainState, events) -> ChainState:
    """Run a program's ``Attach`` / ``Evolve`` records in order on ``chain``,
    which the caller has already built: ``build_chain`` starts it from the
    initial state, ``prop`` from its one-device prefix."""
    for event in events:
        if isinstance(event, Evolve):
            chain = apply_evolution(chain, event.unitary)
        else:
            chain = attach_device(chain, event)
    return chain


def oracle_plan(scenario: dsl.Scenario):
    """(initial state, collapse-oracle steps, system-device labels).

    The steps are the program's own records: an ideal system device's
    ``Observable`` is a measure step and an ``Evolve`` stays one; reader
    devices have no collapse-side counterpart and are skipped.  Weak devices
    are outside the oracle's remit: the first one raises ``WeakDeviceError``.
    """
    compiled = _program(scenario)
    steps, labels = [], []
    for event in compiled.events:
        if isinstance(event, Evolve):
            steps.append(event)
        elif event.mode == "weak":
            raise WeakDeviceError(
                "equivalence with the collapse postulate is only claimed for ideal "
                "premeasurements; this scenario attaches a weak device"
            )
        elif event.mode == "ideal":
            steps.append(event.spec.observable)
            labels.append(event.spec.label)
    return compiled.initial_state, steps, labels

"""Collapse-free quantum measurement chains, checked against the collapse rule.

The package models a measured system together with explicit pointer devices,
drives every measurement through a unitary pointer interaction, and reads
outcome statistics from the final entangled state. A separate oracle applies
the textbook projection rule step by step so the two routes can be compared
to numerical precision.
"""

from __future__ import annotations

from importlib import resources

__version__ = "0.1.0"

from .born import (
    Distribution,
    OutcomeEvent,
    ZeroProbabilityError,
    conditional_probability,
    joint_distribution,
    joint_probability,
    marginal_distribution,
    reduced_system_state,
    total_probability,
)
from .chain import (
    ChainState,
    Disturbance,
    apply_evolution,
    attach_device,
    build_ideal_unitary,
    build_weak_unitary,
    init_chain,
    make_reader_device,
    pointer_shift,
)
from .collapse import (
    Branch,
    Evolve,
    Measure,
    collapse_branches,
    oracle_sequence_distribution,
    unknown_result_mixture,
)
from .dsl import (
    Diagnostic,
    ParseError,
    Scenario,
    format_scenario,
    parse_scenario,
    validate_scenario,
)
from .linalg import CompositeSpace, hermitian_evolution, partial_trace
from .model import (
    DensityState,
    DeviceSpec,
    Observable,
    make_degenerate_observable,
    make_device,
    make_observable,
)
from .verify import (
    EquivalenceReport,
    RepeatabilityReport,
    WeakDeviceError,
    collapse_equivalence_report,
    partial_trace_check,
    repeatability_matrix,
)

__all__ = [
    "Branch",
    "ChainState",
    "CompositeSpace",
    "DensityState",
    "DeviceSpec",
    "Diagnostic",
    "Distribution",
    "EquivalenceReport",
    "Evolve",
    "Measure",
    "Observable",
    "OutcomeEvent",
    "ParseError",
    "RepeatabilityReport",
    "Scenario",
    "WeakDeviceError",
    "ZeroProbabilityError",
    "__version__",
    "apply_evolution",
    "attach_device",
    "build_ideal_unitary",
    "build_weak_unitary",
    "bundled_scenario_path",
    "bundled_scenario_names",
    "collapse_branches",
    "collapse_equivalence_report",
    "conditional_probability",
    "format_scenario",
    "hermitian_evolution",
    "init_chain",
    "joint_distribution",
    "joint_probability",
    "make_degenerate_observable",
    "make_device",
    "make_observable",
    "make_reader_device",
    "marginal_distribution",
    "oracle_sequence_distribution",
    "parse_scenario",
    "partial_trace",
    "partial_trace_check",
    "pointer_shift",
    "reduced_system_state",
    "repeatability_matrix",
    "total_probability",
    "unknown_result_mixture",
    "validate_scenario",
]


def bundled_scenario_names() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files(__name__) / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".scn"))


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario file."""
    if not name.endswith(".scn"):
        name = name + ".scn"
    path = resources.files(__name__) / "scenarios" / name
    if not path.is_file():
        known = ", ".join(bundled_scenario_names())
        raise KeyError(f"no bundled scenario {name!r}; available: {known}")
    return path

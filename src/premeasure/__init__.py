"""Collapse-free quantum measurement chains, checked against the collapse rule.

The package models a measured system together with explicit pointer devices,
drives every measurement through a unitary pointer interaction, and reads
outcome statistics from the final entangled state. A separate oracle applies
the textbook projection rule step by step so the two routes can be compared
to numerical precision.
"""

import gc

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
    apply_evolution,
    attach_device,
    init_chain,
    make_reader_device,
)
from .collapse import (
    Evolve,
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
from .linalg import hermitian_evolution
from .model import (
    DensityState,
    DeviceSpec,
    Disturbance,
    Observable,
    make_degenerate_observable,
    make_device,
    make_observable,
)
from .verify import (
    EquivalenceReport,
    RepeatabilityReport,
    collapse_equivalence_report,
    partial_trace_check,
    repeatability_matrix,
)

__all__ = [
    "ChainState",
    "DensityState",
    "DeviceSpec",
    "Diagnostic",
    "Disturbance",
    "Distribution",
    "EquivalenceReport",
    "Evolve",
    "Observable",
    "OutcomeEvent",
    "ParseError",
    "RepeatabilityReport",
    "Scenario",
    "ZeroProbabilityError",
    "__version__",
    "apply_evolution",
    "attach_device",
    "bundled_scenario_path",
    "bundled_scenario_names",
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
    "partial_trace_check",
    "reduced_system_state",
    "repeatability_matrix",
    "total_probability",
    "unknown_result_mixture",
    "validate_scenario",
]

# Importing numpy and this package leaves about 22,000 GC-tracked objects that
# live as long as the process.  Left in the collected generations, they are
# rescanned by every full collection: a pause of 7-10 ms on about one property
# trial in 500, each trial taking 1-7 ms.  In the permanent generation the
# pause is about 1 ms; objects created later are collected as before.
gc.freeze()


def bundled_scenario_names() -> list[str]:
    """Names of the scenario files shipped with the package."""
    from importlib.resources import files  # imported here: only these two need it
    root = files(__name__) / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".scn"))


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario file."""
    if not name.endswith(".scn"):
        name = name + ".scn"
    from importlib.resources import files
    path = files(__name__) / "scenarios" / name
    if not path.is_file():
        known = ", ".join(bundled_scenario_names())
        raise KeyError(f"no bundled scenario {name!r}; available: {known}")
    return path

"""Born-rule queries against a measurement chain.

Outcome events (``OutcomeEvent``, the record the scenario parser builds for
a query's events) name a device and a 1-based outcome index; the corresponding
projector is the pointer projector |k><k| on that device's factor.  These
projectors are diagonal and commute, so every query reads one array computed
once per chain: ``ChainState.pointer_probabilities``, |psi|^2 summed over the
system and any ancilla, one axis per device with outcome ``k`` at index
``k - 1`` (the chain stores no ready state).  A joint probability indexes the
events' axes and sums the rest, a conditional is the ratio of two such sums,
and a joint distribution keeps its devices' axes and sums the rest.
"""

from __future__ import annotations

import itertools

import numpy as np

from .chain import ChainState
from .model import SYSTEM_LABEL, DensityState, Record
from .tolerances import DEFAULT_TOL, DISTRIBUTION_SUM_TOL, PROB_SLACK


class ZeroProbabilityError(ValueError):
    """Conditioning on an event whose probability is numerically zero."""


class OutcomeEvent(Record, eq=True):
    """Device ``device`` shows outcome ``outcome`` (1-based); ``pos``, a parsed
    event's source position, is keyword-only and ignored by equality."""

    _keywords = ("pos",)
    device: str
    outcome: int
    pos: tuple[int, int] = (0, 0)


def clamp_probability(p: float) -> float:
    """Snap tiny negative / above-one excursions back into [0, 1]."""
    if -PROB_SLACK <= p <= 1.0 + PROB_SLACK:
        return min(max(p, 0.0), 1.0)
    raise ValueError(f"probability {p!r} lies outside [0, 1] beyond tolerance")


class Distribution:
    """Probabilities over joint outcome tuples, one table axis per device.

    ``table[k1 - 1, ..., kn - 1]`` is p(k1, ..., kn).  Entries are clamped
    and must sum to 1 within ``DISTRIBUTION_SUM_TOL``.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        table = np.asarray(table, dtype=np.float64)
        bad = ~((table >= -PROB_SLACK) & (table <= 1.0 + PROB_SLACK))
        if bad.any():
            clamp_probability(float(table[bad][0]))  # raises, naming the value
        table = np.clip(table, 0.0, 1.0)
        total = float(table.sum())
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        table.setflags(write=False)
        self.table = table

    @property
    def entries(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Every (outcome tuple, probability) pair, sorted by tuple."""
        keys = itertools.product(*(range(1, n + 1) for n in self.table.shape))
        return tuple(zip(keys, self.table.ravel().tolist()))

    def probability(self, key) -> float:
        """p(key); 0.0 for a key that names no outcome, such as a non-integral index."""
        index = tuple(k - 1 if hasattr(k, "__index__") else -1 for k in key)
        shape = self.table.shape
        if len(index) == len(shape) and all(0 <= i < n for i, n in zip(index, shape)):
            return float(self.table[index])
        return 0.0


def sum_to_axes(table: np.ndarray, axes) -> np.ndarray:
    """``table`` with every unlisted axis summed out, the listed ones in order."""
    others = [a for a in range(table.ndim) if a not in axes]
    return table.transpose([*axes, *others]).sum(axis=tuple(range(len(axes), table.ndim)))


def _event_positions(chain: ChainState, events) -> list[tuple[int, int]]:
    """(pointer-tensor axis, axis index ``k - 1``) of each (device label,
    outcome ``k``) pair of a checked list."""
    events = list(events)
    if not events:
        raise ValueError("need at least one outcome event")
    seen = set()
    out = []
    for label, k in events:
        n = chain.outcome_count(label)
        if not hasattr(k, "__index__"):
            raise ValueError(f"outcome index {k} of device {label!r} is not an integer")
        if k == 0:
            raise ValueError(
                f"pointer index 0 of device {label!r} is the ready state, "
                "not a measurement outcome"
            )
        if not 1 <= k <= n:
            raise ValueError(f"outcome index {k} out of range 1..{n} for device {label!r}")
        if label in seen:
            raise ValueError(f"duplicate device {label!r} in event list")
        seen.add(label)
        out.append((chain.device_labels.index(label), k - 1))
    return out


def _pairs(events) -> list[tuple[str, int]]:
    """(device label, outcome index) of each ``OutcomeEvent``."""
    return [(ev.device, ev.outcome) for ev in events]


def _events_probability(chain: ChainState, positions) -> float:
    index = [slice(None)] * len(chain.devices)
    for axis, k in positions:
        index[axis] = k
    return clamp_probability(float(chain.pointer_probabilities[tuple(index)].sum()))


def joint_probability(chain: ChainState, events) -> float:
    """Probability that every listed device shows its listed outcome."""
    return _events_probability(chain, _event_positions(chain, _pairs(events)))


def conditional_probability(chain: ChainState, target: OutcomeEvent, given) -> float:
    """p(target | given), refusing conditions of probability <= 1e-12."""
    given = list(given)
    if not given:
        raise ValueError("conditional needs at least one conditioning event")
    positions = _event_positions(chain, _pairs(given + [target]))
    p_given = _events_probability(chain, positions[:-1])
    if p_given <= PROB_SLACK:
        raise ZeroProbabilityError(
            f"conditioning event has probability {p_given!r}; conditional undefined"
        )
    return clamp_probability(_events_probability(chain, positions) / p_given)


def joint_distribution(chain: ChainState, device_labels) -> Distribution:
    """Full joint distribution over the listed devices' outcomes."""
    # Outcome 1 is always valid, so this only checks the labels.
    axes = [axis for axis, _ in _event_positions(chain, [(lbl, 1) for lbl in device_labels])]
    return Distribution(sum_to_axes(chain.pointer_probabilities, axes))


def marginal_distribution(chain: ChainState, device_label: str) -> Distribution:
    """Outcome distribution of a single device."""
    return joint_distribution(chain, [device_label])


def total_probability(chain: ChainState, target_device: str) -> Distribution:
    """Marginal of ``target_device``, cross-checked against its decomposition
    over the first device's outcomes (law of total probability)."""
    if not chain.devices:
        raise ValueError("chain has no devices")
    first = chain.devices[0].label
    if target_device == first:
        raise ValueError("target device must differ from the first device")
    direct = marginal_distribution(chain, target_device)
    decomposed = joint_distribution(chain, [first, target_device]).table.sum(axis=0)
    for k, (d, p) in enumerate(zip(decomposed.tolist(), direct.table.tolist()), start=1):
        if abs(d - p) > DEFAULT_TOL:
            raise RuntimeError(
                f"total-probability decomposition mismatch for outcome {k}: {d!r} vs {p!r}"
            )
    return direct


def reduced_system_state(chain: ChainState) -> DensityState:
    """System marginal: all device factors (and any ancilla) traced out.

    The sum of M M^dagger runs over column blocks of at most 2**16
    amplitudes, so the conjugate copy stays small whatever the state's size.
    """
    m = chain.state.reshape(chain.system_dim, -1)
    step = max(1, 2**16 // chain.system_dim)
    rho = m[:, :step] @ m[:, :step].conj().T
    for start in range(step, m.shape[1], step):
        block = m[:, start:start + step]
        rho += block @ block.conj().T
    return DensityState(SYSTEM_LABEL, rho)

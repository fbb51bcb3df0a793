"""Born-rule queries against a measurement chain.

Outcome events name a device and a 1-based outcome index; the corresponding
projector is the pointer projector |k><k| on that device's factor.  These
projectors are diagonal and commute, so every query reads one array computed
once per chain: ``ChainState.pointer_probabilities``, |psi|^2 summed over the
system and any ancilla, one axis per device.  A joint probability indexes the
events' axes and sums the rest, a conditional is the ratio of two such sums,
and a joint distribution keeps outcomes 1..n of its devices and sums the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chain import ChainState
from .model import DensityState
from .tolerances import DEFAULT_TOL, DISTRIBUTION_SUM_TOL, PROB_SLACK


class ZeroProbabilityError(ValueError):
    """Conditioning on an event whose probability is numerically zero."""


@dataclass(frozen=True)
class OutcomeEvent:
    """Device ``device_label`` shows outcome ``outcome_index`` (1-based)."""

    device_label: str
    outcome_index: int


def clamp_probability(p: float) -> float:
    """Snap tiny negative / above-one excursions back into [0, 1]."""
    if -PROB_SLACK <= p <= 1.0 + PROB_SLACK:
        return min(max(p, 0.0), 1.0)
    raise ValueError(f"probability {p!r} lies outside [0, 1] beyond tolerance")


class Distribution:
    """Probabilities over joint outcome tuples of the named devices.

    ``table[k1 - 1, ..., kn - 1]`` is p(k1, ..., kn), given as ``table=`` or
    filled from (outcome tuple, probability) ``entries``, absent tuples being
    0.  Entries are clamped and must sum to 1 within ``DISTRIBUTION_SUM_TOL``.
    """

    __slots__ = ("devices", "table")

    def __init__(self, devices, entries=(), *, table=None):
        devices = tuple(str(d) for d in devices)
        if table is None:
            table = _table_from_entries(devices, entries)
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != len(devices):
            raise ValueError(f"table of shape {table.shape} does not match devices {devices}")
        bad = ~((table >= -PROB_SLACK) & (table <= 1.0 + PROB_SLACK))
        if bad.any():
            clamp_probability(float(table[bad][0]))  # raises, naming the value
        table = np.clip(table, 0.0, 1.0)
        total = float(table.sum())
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        table.setflags(write=False)
        self.devices = devices
        self.table = table

    @property
    def entries(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Every (outcome tuple, probability) pair, sorted by tuple."""
        keys = itertools.product(*(range(1, n + 1) for n in self.table.shape))
        return tuple(zip(keys, self.table.ravel().tolist()))

    def probability(self, key) -> float:
        index = tuple(int(k) - 1 for k in key)
        shape = self.table.shape
        if len(index) == len(shape) and all(0 <= i < n for i, n in zip(index, shape)):
            return float(self.table[index])
        return 0.0

    def marginal(self, device_label: str) -> "Distribution":
        """Single-device marginal obtained by summing the other positions."""
        axis = self.devices.index(device_label)
        return Distribution((device_label,), table=sum_to_axes(self.table, [axis]))


def sum_to_axes(table: np.ndarray, axes) -> np.ndarray:
    """``table`` with every unlisted axis summed out, the listed ones in order."""
    others = [a for a in range(table.ndim) if a not in axes]
    return table.transpose([*axes, *others]).sum(axis=tuple(range(len(axes), table.ndim)))


def _table_from_entries(devices: tuple[str, ...], entries) -> np.ndarray:
    probs: dict[tuple[int, ...], float] = {}
    for key, p in entries:
        key = tuple(int(k) for k in key)
        if len(key) != len(devices) or min(key, default=1) < 1:
            raise ValueError(f"outcome tuple {key} does not match devices {devices}")
        if key in probs:
            raise ValueError(f"duplicate outcome tuple {key}")
        probs[key] = p
    keys = np.array(list(probs), dtype=int).reshape(len(probs), len(devices))
    table = np.zeros(keys.max(axis=0, initial=0))
    table[tuple((keys - 1).T)] = list(probs.values())
    return table


def _event_positions(chain: ChainState, events) -> list[tuple[int, int]]:
    """(pointer-tensor axis, outcome index) of each event of a checked list."""
    events = list(events)
    if not events:
        raise ValueError("need at least one outcome event")
    lead = len(chain.space.factors) - len(chain.devices)
    seen = set()
    out = []
    for ev in events:
        ad = chain.device(ev.device_label)
        n = ad.spec.observable.outcome_count
        if ev.outcome_index == 0:
            raise ValueError(
                f"pointer index 0 of device {ev.device_label!r} is the ready state, "
                "not a measurement outcome"
            )
        if not 1 <= ev.outcome_index <= n:
            raise ValueError(
                f"outcome index {ev.outcome_index} out of range 1..{n} "
                f"for device {ev.device_label!r}"
            )
        if ev.device_label in seen:
            raise ValueError(f"duplicate device {ev.device_label!r} in event list")
        seen.add(ev.device_label)
        out.append((ad.factor_index - lead, ev.outcome_index))
    return out


def _events_probability(chain: ChainState, positions) -> float:
    index = [slice(None)] * len(chain.devices)
    for axis, k in positions:
        index[axis] = k
    return clamp_probability(float(chain.pointer_probabilities[tuple(index)].sum()))


def joint_probability(chain: ChainState, events) -> float:
    """Probability that every listed device shows its listed outcome."""
    return _events_probability(chain, _event_positions(chain, events))


def conditional_probability(chain: ChainState, target: OutcomeEvent, given) -> float:
    """p(target | given), refusing conditions of probability <= 1e-12."""
    given = list(given)
    if not given:
        raise ValueError("conditional needs at least one conditioning event")
    positions = _event_positions(chain, given + [target])
    p_given = _events_probability(chain, positions[:-1])
    if p_given <= PROB_SLACK:
        raise ZeroProbabilityError(
            f"conditioning event has probability {p_given!r}; conditional undefined"
        )
    return clamp_probability(_events_probability(chain, positions) / p_given)


def joint_distribution(chain: ChainState, device_labels) -> Distribution:
    """Full joint distribution over the listed devices' outcomes."""
    labels = list(device_labels)
    events = [OutcomeEvent(lbl, 1) for lbl in labels]  # checks the labels: 1 is always valid
    axes = [axis for axis, _ in _event_positions(chain, events)]
    table = sum_to_axes(chain.pointer_probabilities, axes)
    # Pointer state 0 is the ready state, never an outcome.
    return Distribution(labels, table=table[(slice(1, None),) * len(axes)])


def marginal_distribution(chain: ChainState, device_label: str) -> Distribution:
    """Outcome distribution of a single device."""
    return joint_distribution(chain, [device_label])


def total_probability(chain: ChainState, target_device: str) -> Distribution:
    """Marginal of ``target_device``, cross-checked against its decomposition
    over the first device's outcomes (law of total probability)."""
    if not chain.devices:
        raise ValueError("chain has no devices")
    first = chain.devices[0].spec.label
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
    """System marginal: all device factors (and any ancilla) traced out."""
    m = chain.state.reshape(chain.system_dim, -1)
    return DensityState(chain.system_label, m @ m.conj().T)

"""Born-rule queries against a measurement chain.

Outcome events name a device and a 1-based outcome index; the corresponding
projector is the pointer projector |k><k| on that device's factor.  All such
projectors are diagonal in the computational basis and commute, so a joint
probability is the squared norm of the chain's state vector restricted to the
events' pointer indices.  A mixed start's ancilla factor is never masked, so
it is summed over like any unobserved factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chain import ChainState
from .model import DensityState

# Probabilities may stray this far outside [0, 1] before being an error,
# and conditioning events at or below it are refused outright.
PROB_SLACK = 1e-12

# A set of probabilities meant to be exhaustive must sum to 1 within this.
DISTRIBUTION_SUM_TOL = 1e-9


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


@dataclass(frozen=True)
class Distribution:
    """Probabilities over joint outcome tuples of the named devices.

    ``entries`` is sorted by outcome tuple; probabilities are clamped and must
    sum to 1 within ``DISTRIBUTION_SUM_TOL``.
    """

    devices: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        devices = tuple(str(d) for d in self.devices)
        entries = []
        keys = set()
        for key, p in self.entries:
            key = tuple(int(k) for k in key)
            if len(key) != len(devices):
                raise ValueError(f"outcome tuple {key} does not match devices {devices}")
            if key in keys:
                raise ValueError(f"duplicate outcome tuple {key}")
            keys.add(key)
            entries.append((key, clamp_probability(float(p))))
        entries.sort(key=lambda kv: kv[0])
        total = sum(p for _, p in entries)
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "devices", devices)
        object.__setattr__(self, "entries", tuple(entries))

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(self.entries)

    def probability(self, key) -> float:
        key = tuple(int(k) for k in key)
        for k, p in self.entries:
            if k == key:
                return p
        return 0.0

    def marginal(self, device_label: str) -> "Distribution":
        """Single-device marginal obtained by summing the other positions."""
        pos = self.devices.index(device_label)
        acc: dict[tuple[int, ...], float] = {}
        for key, p in self.entries:
            sub = (key[pos],)
            acc[sub] = acc.get(sub, 0.0) + p
        return Distribution((device_label,), tuple(acc.items()))


def _event_positions(chain: ChainState, events) -> list[tuple[int, int]]:
    events = list(events)
    if not events:
        raise ValueError("need at least one outcome event")
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
        out.append((ad.factor_index, ev.outcome_index))
    return out


def _masked_probability(chain: ChainState, events) -> float:
    dims = chain.space.dims
    idx: list = [slice(None)] * len(dims)
    for pos, k in _event_positions(chain, events):
        idx[pos] = k
    block = chain.state.reshape(dims)[tuple(idx)]
    return clamp_probability(float(np.sum(np.abs(block) ** 2)))


def joint_probability(chain: ChainState, events) -> float:
    """Probability that every listed device shows its listed outcome."""
    return _masked_probability(chain, events)


def conditional_probability(chain: ChainState, target: OutcomeEvent, given) -> float:
    """p(target | given), refusing conditions of probability <= 1e-12."""
    given = list(given)
    if not given:
        raise ValueError("conditional needs at least one conditioning event")
    _event_positions(chain, given + [target])  # validates, incl. distinctness
    p_given = _masked_probability(chain, given)
    if p_given <= PROB_SLACK:
        raise ZeroProbabilityError(
            f"conditioning event has probability {p_given!r}; conditional undefined"
        )
    p_all = _masked_probability(chain, given + [target])
    return clamp_probability(p_all / p_given)


def joint_distribution(chain: ChainState, device_labels) -> Distribution:
    """Full joint distribution over the listed devices' outcomes."""
    labels = list(device_labels)
    ranges = [range(1, chain.outcome_count(lbl) + 1) for lbl in labels]
    entries = []
    for combo in itertools.product(*ranges):
        events = [OutcomeEvent(lbl, k) for lbl, k in zip(labels, combo)]
        entries.append((combo, _masked_probability(chain, events)))
    return Distribution(tuple(labels), tuple(entries))


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
    pair = joint_distribution(chain, [first, target_device])
    for (k,), p in direct.entries:
        decomposed = sum(
            pp for (j, kk), pp in pair.entries if kk == k
        )
        if abs(decomposed - p) > 1e-10:
            raise RuntimeError(
                f"total-probability decomposition mismatch for outcome {k}: "
                f"{decomposed!r} vs {p!r}"
            )
    return direct


def reduced_system_state(chain: ChainState) -> DensityState:
    """System marginal: all device factors (and any ancilla) traced out."""
    m = chain.state.reshape(chain.system_dim, -1)
    return DensityState(chain.system_label, m @ m.conj().T)

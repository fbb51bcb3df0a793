"""Seeded `.scn` scenario text for the generated benchmark workloads.

This module imports numpy but never premeasure: the program under test only
ever sees the text produced here.  A case is identified by ``(slot, variant)``.
The slot fixes the chain's shape (system dimension, device count, evolutions,
reader), which sets the cost of running it; the variant picks the random
numbers (state, eigenbases, eigenvalues, Hamiltonian, times), so two variants
of one slot cost about the same but have different answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Mixed into every case seed so the two generated workloads never share cases.
WORKLOAD_TAGS = {"deep_pure": 101, "mixed_chain": 202}


@dataclass(frozen=True)
class Shape:
    """Chain layout: ``repeat`` devices measure A, an evolution follows each
    of devices 2 .. ``evolve`` + 1, an optional reader reads M1, and a final
    device measures B."""

    dim: int
    repeat: int
    evolve: int
    reader: bool

    def __post_init__(self):
        if self.repeat < 2 or self.evolve + 1 > self.repeat:
            raise ValueError(f"bad shape {self}")

    @property
    def devices(self) -> int:
        return self.repeat + 1 + int(self.reader)

    @property
    def amplitudes(self) -> int:
        d = self.dim
        total = d * (d + 1) ** (self.repeat + 1)
        return total * (d + 2) if self.reader else total


# deep_pure: pure states, 1e4..1e6 amplitudes.  The outcome product over the
# system devices is kept near 2e3 at most, so the equivalence report stays in
# the 50-400 ms range per op at this commit.  Exactly one shape (the qutrit
# with 8 devices) is the heaviest, so the op tail, which has ten ops above it,
# falls inside that one shape's repetitions instead of on the edge between two.
DEEP_PURE_SLOTS = (
    Shape(2, 9, 0, True),
    Shape(2, 9, 2, True),
    Shape(2, 8, 3, True),
    Shape(2, 8, 1, False),
    Shape(2, 7, 4, True),
    Shape(3, 6, 0, True),
    Shape(3, 5, 3, True),
    Shape(3, 5, 1, True),
    Shape(4, 4, 0, True),
    Shape(4, 4, 2, True),
    Shape(4, 3, 1, True),
)

# mixed_chain: density matrices, composite dimension D <= 1458.
MIXED_SLOTS = (
    Shape(2, 5, 0, False),
    Shape(2, 5, 1, False),
    Shape(2, 4, 2, False),
    Shape(2, 3, 1, True),
    Shape(2, 2, 1, False),
    Shape(3, 3, 0, False),
    Shape(3, 3, 1, False),
    Shape(3, 2, 1, True),
)

# Toy shapes for the smoke run only; a few milliseconds each.
TOY_SLOTS = {
    "deep_pure": (Shape(2, 2, 1, True),),
    "mixed_chain": (Shape(2, 2, 1, False),),
}

SLOTS = {"deep_pure": DEEP_PURE_SLOTS, "mixed_chain": MIXED_SLOTS}

# Variants recorded per slot; a run's seed picks one per slot.
VARIANTS = 16


def _num(x: float) -> str:
    return repr(float(x))


def _cnum(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _num(z.real)
    sign = "+" if z.imag > 0 else "-"
    return f"{_num(z.real)}{sign}{_num(abs(z.imag))}i"


def vector(v) -> str:
    return "[" + ", ".join(_cnum(z) for z in v) + "]"


def matrix(m) -> str:
    return "[" + ", ".join(vector(row) for row in m) + "]"


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _eigenvalues(rng: np.random.Generator, d: int) -> list[float]:
    # Integer spine plus jitter keeps eigenvalues well separated.
    return list(rng.permutation(d) + rng.uniform(-0.3, 0.3, size=d))


def observable_line(rng: np.random.Generator, name: str, d: int) -> str:
    basis = _unitary(rng, d)
    values = "[" + ", ".join(_num(x) for x in _eigenvalues(rng, d)) + "]"
    return f"observable {name} eigen {values} basis {matrix(basis.T)}"


def scenario_text(shape: Shape, mixed: bool, rng: np.random.Generator) -> str:
    """Scenario text for one case: devices, evolutions and the full query set
    (marginal, joint, conditional, reduced, repeatability, equivalence)."""
    d = shape.dim
    lines = [f"system dim {d}"]
    if mixed:
        weights = rng.random(d) + 0.1
        rho = np.zeros((d, d), dtype=np.complex128)
        for w in weights / weights.sum():
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho += w * np.outer(v, v.conj())
        lines.append(f"state mixed {matrix(rho)}")
    else:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        lines.append(f"state pure {vector(v / np.linalg.norm(v))}")
    lines.append(observable_line(rng, "A", d))
    lines.append(observable_line(rng, "B", d))
    if shape.evolve:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lines.append(f"hamiltonian H {matrix((g + g.conj().T) / 2)}")

    labels = [f"M{i}" for i in range(1, shape.repeat + 1)]
    evolve_after = set(range(2, 2 + shape.evolve))
    for i, label in enumerate(labels, start=1):
        lines.append(f"device {label} measures A")
        if i in evolve_after:
            lines.append(f"evolve H t {_num(rng.uniform(0.2, 2.0))}")
    if shape.reader:
        lines.append("device R reads M1")
    lines.append("device MB measures B")

    last = labels[-1]
    lines += [
        "query marginal MB",
        "query joint " + " ".join(f"{label}=1" for label in labels),
        f"query conditional MB=1 given {last}=1",
        "query reduced",
        "query repeatability M1 M2",
        "query equivalence",
    ]
    return "\n".join(lines) + "\n"


def case_text(workload: str, slot: int, variant: int, toy: bool = False) -> str:
    shapes = TOY_SLOTS[workload] if toy else SLOTS[workload]
    rng = np.random.default_rng([WORKLOAD_TAGS[workload], int(toy), slot, variant])
    return scenario_text(shapes[slot], workload == "mixed_chain", rng)


def case_key(slot: int, variant: int, toy: bool = False) -> str:
    return f"{'toy' if toy else 'slot'}{slot}:{variant}"

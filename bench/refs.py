"""Reference answers recorded at a known-good commit, and the comparisons.

Outputs are compared within an absolute float tolerance of ``FLOAT_TOL``;
everything that is not a float (keys, strings, booleans, integers, None,
list lengths) must match exactly.  Small outputs are stored whole.  Large
generated answers are stored as a digest: a hash of their non-float skeleton,
their float count, and ``SKETCH_ROWS`` fixed pseudo-random projections of
their floats with weights in [-1, 1].  Moving each of ``n`` floats by at most
``FLOAT_TOL`` moves a projection by at most ``n * FLOAT_TOL``, which is the
digest tolerance.

Stdlib only: the orchestrator and the worker both import this module.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

FLOAT_TOL = 1e-12
SKETCH_ROWS = 4
REFS_DIR = Path(__file__).resolve().parent / "refs"
# Float sums over ~1e4 terms of size <= 1 round at ~1e-12; the sketch slack
# covers that on top of the per-float tolerance.
_SKETCH_SLACK = 1e-11


def load(workload: str) -> dict:
    return json.loads((REFS_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def save(workload: str, doc: dict) -> None:
    REFS_DIR.mkdir(exist_ok=True)
    path = REFS_DIR / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def mismatch(actual, expected, tol: float = FLOAT_TOL, where: str = "$") -> str | None:
    """First difference between two JSON-like values, or None if they agree."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, bool) or isinstance(expected, bool):
            return f"{where}: {actual!r} vs {expected!r}"
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return f"{where}: {actual!r} vs {expected!r}"
        if math.isnan(actual) and math.isnan(expected):
            return None
        if not abs(actual - expected) <= tol:
            return f"{where}: {actual!r} vs {expected!r} (tolerance {tol:g})"
        return None
    if type(actual) is not type(expected):
        return f"{where}: type {type(actual).__name__} vs {type(expected).__name__}"
    if isinstance(expected, dict):
        if sorted(actual) != sorted(expected):
            return f"{where}: keys {sorted(actual)} vs {sorted(expected)}"
        for k in sorted(expected):
            diff = mismatch(actual[k], expected[k], tol, f"{where}.{k}")
            if diff:
                return diff
        return None
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return f"{where}: length {len(actual)} vs {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            diff = mismatch(a, e, tol, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if actual != expected:
        return f"{where}: {actual!r} vs {expected!r}"
    return None


def _split(value, floats: list[float]):
    """Skeleton of ``value`` with every float replaced by a marker."""
    if isinstance(value, float):
        floats.append(value)
        return "<f>"
    if isinstance(value, dict):
        return {str(k): _split(value[k], floats) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_split(v, floats) for v in value]
    return value


def _weight(k: int, j: int) -> float:
    """Deterministic pseudo-random weight in [-1, 1)."""
    h = (j * 0x9E3779B1 + (k + 1) * 0x85EBCA77) & 0xFFFFFFFF
    h ^= h >> 15
    h = (h * 0x2C1B3C6D) & 0xFFFFFFFF
    h ^= h >> 12
    return h / 2**31 - 1.0


def digest(value) -> dict:
    floats: list[float] = []
    skeleton = _split(value, floats)
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    sketch = []
    for k in range(SKETCH_ROWS):
        sketch.append(math.fsum(_weight(k, j) * x for j, x in enumerate(floats)))
    return {
        "skeleton": hashlib.sha256(text.encode()).hexdigest()[:20],
        "floats": len(floats),
        "sketch": sketch,
    }


def digest_mismatch(actual: dict, expected: dict, tol: float = FLOAT_TOL) -> str | None:
    if actual["skeleton"] != expected["skeleton"]:
        return "non-float content differs (skeleton hash)"
    n = expected["floats"]
    if actual["floats"] != n:
        return f"float count {actual['floats']} vs {n}"
    budget = tol * n + _SKETCH_SLACK
    for k, (a, e) in enumerate(zip(actual["sketch"], expected["sketch"])):
        if not abs(a - e) <= budget:
            return f"float projection {k} differs by {abs(a - e):.3e} (budget {budget:.3e})"
    return None

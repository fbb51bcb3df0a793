"""Every name the benchmark tracer wraps still resolves in the package.

``bench/tracer.py`` raises ``TraceDrift`` when a name in its ``TRACED``
table disappears; this test loads it read-only from its path so that a
deleted or renamed function fails here, not only in the slow benchmark job.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_uninstall_restores_it(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    modules = {name: importlib.import_module(f"premeasure.{name}") for name, *_ in tracer.TRACED}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    t = tracer.Tracer()
    t.install()  # raises TraceDrift if a traced name no longer resolves
    try:
        assert modules["born"].joint_distribution is not before["born"]["joint_distribution"]
    finally:
        t.uninstall()
    for name, mod in modules.items():
        assert all(vars(mod)[k] is v for k, v in before[name].items()), name

"""The benchmark tracer wraps implinear functions by module and name.

Renaming or moving a wrapped function (`_audit_rounds`, `check_recoverable`,
`_cone_generators`, `closed_form_weights`, ...) breaks traced benchmark runs;
installing the tracer here makes that fail the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("implinear_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrap_point(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = [(importlib.import_module(m), attr) for m, attr, _ in tracing.WRAP_POINTS]
    targets += [(getattr(importlib.import_module(m), cls), attr)
                for m, cls, attr, _ in tracing.WRAP_METHODS]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(targets, before))

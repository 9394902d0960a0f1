"""The benchmark tracer wraps implinear functions by module and name.

Renaming or moving a wrapped function (`_audit_rounds`, `check_recoverable`,
`_cone_generators`, `closed_form_weights`, ...) breaks traced benchmark runs;
installing the tracer here makes that fail the test suite instead.  Small
traced `recover` and `heuristic` runs check that the spans the per-layer
metrics read still fire where they look for them, so a name that stays bound
but is no longer called, or is called from elsewhere, fails here too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from implinear.harness import run_heuristic_equivalence, run_support_recovery, spec_from_dict

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


def recover_spec(design, horizon):
    return spec_from_dict({
        "kind": "support_recovery",
        "design": design,
        "signal": {"k": 2, "gamma": 0.5},
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "imp": {"horizon": horizon},
        "trials": 2,
        "base_seed": 7,
    })


@pytest.mark.parametrize("design, horizon", [
    ({"kind": "orthonormal", "p": 10, "n": 40}, "infinite"),
    ({"kind": "incoherent", "p": 10, "n": 40}, 5.0),
], ids=["infinite-horizon", "finite-horizon"])
def test_traced_recover_fires_every_metric_span(monkeypatch, design, horizon):
    """A wrapped name that is still bound but no longer called would zero a metric."""
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        report = run_support_recovery(recover_spec(design, horizon))
    finally:
        tracer.uninstall()
    assert len(report.records) == 2
    names = {s.name for s in tracer.spans}
    assert {"harness.recovery_trial", "engine.run_imp", "harness.audit",
            "flow.closed_form_weights", "linalg.sym_eig"} <= names
    parents = {s.id: s.name for s in tracer.spans}
    sym_eig = [s for s in tracer.spans if s.name == "linalg.sym_eig"]
    assert not [s for s in sym_eig
                if parents.get(s.parent) in ("harness.audit", "theory.check_onp")]
    if horizon == "infinite":  # one downdate run: round 0 is the only factorization
        assert len(sym_eig) == len(report.records)


def test_traced_incoherent_heuristic_draws_under_its_span(monkeypatch):
    """trial_windows cuts heuristic attempts at the draws whose parent is harness.heuristic."""
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = run_heuristic_equivalence(spec_from_dict({
            "kind": "heuristic_equivalence",
            "design": {"kind": "incoherent", "p": 3, "n": 2000},
            "trials": 5,
            "base_seed": 1,
            "threads": 1,
        }))
    finally:
        tracer.uninstall()
    parents = {s.id: s.name for s in tracer.spans}
    draws = [s for s in tracer.spans if s.name == "designs.gen_design"]
    assert len(draws) == report.attempts > report.trials
    assert all(parents.get(s.parent) == "harness.heuristic" for s in draws)
    windows, _ = tracing.trial_windows(tracer.spans, "heuristic")
    assert len(windows) == report.attempts

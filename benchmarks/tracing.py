"""In-process span tracer for implinear and the per-layer metrics built on it.

The tracer replaces public functions at the names their callers import
(`implinear.harness.run_imp`, `implinear.engine.sym_eig`, ...) with wrappers
that record one span per call: name, start, end and the span that was open
when the call began.  Nothing under `src/` is edited; `uninstall` restores
every original.  Spans stay in memory until the run ends.

A span's layer is the module before the first dot of its name; its self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "harness", "designs", "engine", "flow", "linalg", "theory", "baselines")

_GEN_DESIGNS = ("gen_incoherent_design", "gen_orthonormal_design", "gen_uniform_corr_design")

# (module, attribute, span name).  A function imported into several modules
# is wrapped at each binding, so every caller's call is seen.
WRAP_POINTS = (
    [
        ("implinear.cli", "main", "cli.main"),
        ("implinear.cli", "load_spec", "harness.load_spec"),
        ("implinear.cli", "run_support_recovery", "harness.experiment"),
        ("implinear.cli", "run_heuristic_equivalence", "harness.experiment"),
        ("implinear.cli", "run_baseline_comparison", "harness.experiment"),
        ("implinear.harness", "recovery_trial", "harness.recovery_trial"),
        ("implinear.harness", "_heuristic_incoherent", "harness.heuristic"),
        ("implinear.harness", "_audit_rounds", "harness.audit"),
        ("implinear.harness", "resolve_sample_size", "harness.resolve_sample_size"),
        ("implinear.harness", "_build_problem", "harness.build_problem"),
        ("implinear.harness", "write_recovery_outputs", "harness.output"),
        ("implinear.harness", "write_heuristic_outputs", "harness.output"),
        ("implinear.harness", "write_baseline_outputs", "harness.output"),
        ("implinear.harness", "run_imp", "engine.run_imp"),
        ("implinear.harness", "imp_prune_order", "engine.imp_prune_order"),
        ("implinear.harness", "assemble_problem", "designs.assemble_problem"),
        ("implinear.harness", "check_onp", "theory.check_onp"),
        ("implinear.harness", "check_recoverable", "theory.check_recoverable"),
        ("implinear.harness", "make_mc_summary", "theory.make_mc_summary"),
        ("implinear.harness", "iht", "baselines.iht"),
        ("implinear.harness", "ht_estimator", "baselines.ht_estimator"),
        ("implinear.harness", "alignment_order", "baselines.alignment_order"),
        ("implinear.designs", "gen_sparse_signal", "designs.gen_sparse_signal"),
        ("implinear.designs", "sample_noise", "designs.sample_noise"),
        ("implinear.engine", "closed_form_weights", "flow.closed_form_weights"),
        ("implinear.theory", "_cone_generators", "theory.cone_generators"),
        ("implinear.theory", "pseudo_inverse", "linalg.pseudo_inverse"),
        ("implinear.baselines", "pseudo_inverse", "linalg.pseudo_inverse"),
    ]
    + [(m, g, "designs.gen_design") for m in ("implinear.harness", "implinear.designs")
       for g in _GEN_DESIGNS]
    + [(m, "sym_eig", "linalg.sym_eig") for m in (
        "implinear.harness", "implinear.designs", "implinear.engine", "implinear.flow",
        "implinear.theory", "implinear.baselines")]
)

# (class path, method, span name): methods are looked up on the class.
WRAP_METHODS = [("implinear.linalg", "CovMatrix", "restrict", "linalg.restrict")]

# sym_eig callers that the per-layer metrics split out, keyed by parent span
SYM_EIG_CALLERS = {
    "engine.run_imp": "engine",
    "harness.audit": "audit",
    "theory.check_onp": "onp",
    "harness.resolve_sample_size": "resolve",
}


def _onp_gen_bytes(args, kwargs, result) -> dict:
    cov = args[0] if args else kwargs["cov"]
    support = args[1] if len(args) > 1 else kwargs["support"]
    p, k = cov.p, len(set(int(i) for i in support))
    return {"gen_bytes": p * k * (2 * (p - k) + 1) * 8}


def _design_key(attr):
    def note(args, kwargs, result) -> dict:
        return {"key": (attr,) + tuple(args) + tuple(sorted(kwargs.items()))}
    return note


def _iht_iters(args, kwargs, result) -> dict:
    return {"iters": result.iters_used}


def _annotation(attr: str):
    if attr == "check_onp":
        return _onp_gen_bytes
    if attr in _GEN_DESIGNS:
        return _design_key(attr)
    if attr == "iht":
        return _iht_iters
    return None


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, note) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), stack[-1].id if stack else None, name,
                        time.perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.attrs.update(note(args, kwargs, result))
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, attr, name in WRAP_POINTS:
            self._wrap(importlib.import_module(module), attr, name, _annotation(attr))
        for module, cls, attr, name in WRAP_METHODS:
            self._wrap(getattr(importlib.import_module(module), cls), attr, name, None)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def trial_windows(spans: list[Span], command: str) -> tuple[list[float], list[Span]]:
    """Per-trial durations (s) and the spans whose children make up trial work.

    recover: each recovery_trial span is one trial.  heuristic: one attempt
    runs from one design draw of the rejection loop to the next.  baselines:
    one (trial, sigma) cell runs from one problem build to the next.  The
    last window of a loop ends where output writing begins.
    """
    by_id = {s.id: s for s in spans}
    if command == "recover":
        trials = [s for s in spans if s.name == "harness.recovery_trial"]
        return [s.dur for s in trials], trials
    if command == "heuristic":
        container = [s for s in spans if s.name == "harness.heuristic"]
        marks = [s for s in spans if s.name == "designs.gen_design"
                 and s.parent is not None and by_id[s.parent].name == "harness.heuristic"]
    else:
        container = [s for s in spans if s.name == "harness.experiment"]
        marks = [s for s in spans if s.name == "harness.build_problem"]
    if not marks:
        return [], container
    outputs = [s.start for s in spans if s.name == "harness.output"]
    end = min(outputs) if outputs else container[-1].end
    starts = [s.start for s in marks] + [end]
    return [b - a for a, b in zip(starts, starts[1:])], container


def layer_metrics(spans: list[Span], command: str, counted_trials: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, normalized by counted trials."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur

    def self_s(s: Span) -> float:
        return s.dur - child_time.get(s.id, 0.0)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def parent_name(s: Span) -> str | None:
        return by_id[s.parent].name if s.parent is not None else None

    def ms_per_trial(name: str) -> float:
        return 1e3 * sum(s.dur for s in named(name)) / counted_trials

    t = counted_trials
    m: dict[str, float] = {}
    sym = named("linalg.sym_eig")
    m["linalg.sym_eig.calls_per_trial"] = len(sym) / t
    for caller in ("engine", "audit", "onp", "resolve", "other"):
        n = sum(SYM_EIG_CALLERS.get(parent_name(s), "other") == caller for s in sym)
        m[f"linalg.sym_eig.calls_per_trial.{caller}"] = n / t
    m["linalg.sym_eig.ms_per_trial"] = ms_per_trial("linalg.sym_eig")

    m["engine.run_imp.self_ms"] = 1e3 * sum(self_s(s) for s in named("engine.run_imp")) / t
    rounds = [s for s in named("flow.closed_form_weights") if parent_name(s) == "engine.run_imp"]
    m["engine.rounds_per_trial"] = len(rounds) / t
    m["flow.closed_form_weights.ms_per_trial"] = ms_per_trial("flow.closed_form_weights")
    m["harness.audit.ms_per_trial"] = ms_per_trial("harness.audit")
    m["theory.check_recoverable.ms_per_trial"] = ms_per_trial("theory.check_recoverable")
    m["theory.check_onp.ms_per_trial"] = ms_per_trial("theory.check_onp")
    m["theory.check_onp.gen_bytes"] = float(
        max((s.attrs["gen_bytes"] for s in named("theory.check_onp")), default=0)
    )

    draws = named("designs.gen_design")
    m["designs.gen_design.calls_per_trial"] = len(draws) / t
    m["designs.gen_design.ms_per_trial"] = ms_per_trial("designs.gen_design")
    distinct = len({s.attrs["key"] for s in draws})
    m["designs.gen_design.draws_per_design"] = len(draws) / distinct if distinct else 0.0

    iht = named("baselines.iht")
    m["baselines.iht.ms_per_trial"] = ms_per_trial("baselines.iht")
    m["baselines.iht.iters_per_call"] = (
        statistics.fmean(s.attrs["iters"] for s in iht) if iht else 0.0
    )
    m["baselines.ht_estimator.ms_per_trial"] = ms_per_trial("baselines.ht_estimator")

    durations, containers = trial_windows(spans, command)
    trial_ms = [1e3 * d for d in durations]
    m["harness.trial_ms.p50"] = _percentile(trial_ms, 50)
    m["harness.trial_ms.p90"] = _percentile(trial_ms, 90)
    m["harness.output_ms"] = 1e3 * sum(s.dur for s in named("harness.output"))

    inside = sum(child_time.get(c.id, 0.0) for c in containers)
    total = sum(c.dur for c in containers)
    m["trace.coverage_pct"] = 100.0 * inside / total if total else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += self_s(s)
    for layer, secs in layer_self.items():
        m[f"layer.{layer}.self_ms_per_trial"] = 1e3 * secs / t
    return m

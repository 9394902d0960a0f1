"""Batch experiment runner behind the CLI.

Four experiment kinds: `support_recovery` verifies the pruning
support-recovery guarantee trial by trial, `heuristic_equivalence` compares
the pruning order against the alignment ordering on the three covariance
regimes, `baseline_comparison` races IMP against hard thresholding and IHT
over a noise sweep, and `lemma1_check` measures the exceedance rate of the
noise functional at the prescribed sample size.

Trial t of a run uses seed base_seed + t, so any trial replays bit for bit
from (config, trial index) alone; wall-clock time is the only
nondeterministic column in the CSV output.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
import types
import typing
from contextlib import nullcontext
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .baselines import (
    IhtDivergenceError,
    ThresholdConfig,
    alignment_order,
    ht_estimator,
    iht,
)
from .designs import (
    DESIGNS,
    STREAM_TARGETS,
    FeatureSet,
    SparseProblem,
    assemble_problem,
    check_design,
    check_noise,
    check_signal,
    exact_law,
    make_rng,
    pairwise_incoherence,
    sample_noise,
)
# Not called here: benchmarks/tracing.py wraps gen_incoherent_design,
# gen_orthonormal_design and gen_uniform_corr_design at this module's names,
# so they stay bound (tests/test_bench_contract.py).
from .designs import gen_incoherent_design, gen_orthonormal_design  # noqa: F401
from .designs import gen_uniform_corr_design  # noqa: F401
from .engine import ImpConfig, ImpTrace, RoundFactors, imp_prune_order, run_imp, trace_to_dict
from .flow import INFINITE
from .linalg import min_nonzero_eig, sym_eig
from .theory import (
    ONP_TOL,
    BoundInputs,
    McSummary,
    check_onp,
    check_recoverable,
    concentration_sample_size,
    make_mc_summary,
    noise_projector,
    recovery_sample_size,
)

EXPERIMENT_KINDS = (
    "support_recovery",
    "heuristic_equivalence",
    "baseline_comparison",
    "lemma1_check",
)

# The size rule: a run's design Phi (n x p) and its covariance Sigma (p x p)
# hold at most this many doubles each (16 GiB); larger sizes are config errors.
MAX_ENTRIES = 2**31

# At most this many worker processes; a larger `threads` is a config error.
MAX_THREADS = 256

# A uniform_corr heuristic run passes only if every trial inverts its Sigma
# to within this: max |Sigma Sigma^{-1} - I| <= INVERSE_TOL.
INVERSE_TOL = 1e-8

# A range of trials handed to a trial function stacks at most this many
# T * p^2 doubles: 26 recover trials at p = 50, one trial from p = 182 on.
STACK_BUDGET = 2**16

BASELINE_METHODS = ("imp", "ht", "iht")


class ConfigError(ValueError):
    """Bad experiment configuration (maps to CLI exit code 2)."""


# ---------------------------------------------------------------------------
# Experiment configuration (mirrors the JSON config file field for field)
# ---------------------------------------------------------------------------


class DesignSpec(NamedTuple):
    kind: str
    p: int
    n: int | None = None  # None: derive from the sample-size bound
    alpha: float | None = None  # uniform_corr only


class SignalSpec(NamedTuple):
    k: int
    gamma: float
    amplitude_law: str = "constant"


class NoiseSpec(NamedTuple):
    kind: str = "gaussian"
    sigma: float = 0.0


class ImpSpec(NamedTuple):
    q: int | None = None  # None: p - k, the hardest admissible setting
    per_round: int = 1
    horizon: float | str = "infinite"
    tie_break: str = "lowest_index"

    def engine_horizon(self):
        if self.horizon == "infinite":
            return INFINITE
        if isinstance(self.horizon, str):
            raise ValueError(f'horizon must be a number or "infinite", got {self.horizon!r}')
        return float(self.horizon)


class BaselineSpec(NamedTuple):
    tau: float | None = None  # None: gamma / 2
    eta: float = 1.0  # in units of the (1/n)-scaled gradient step
    max_iters: int = 10_000
    convergence_tol: float = 1e-10
    sigmas: tuple[float, ...] | None = None  # None: (noise.sigma,)


class ExperimentSpec(NamedTuple):
    kind: str
    design: DesignSpec
    trials: int
    base_seed: int
    delta: float = 0.1
    signal: SignalSpec | None = None
    noise: NoiseSpec = NoiseSpec()
    imp: ImpSpec = ImpSpec()
    baseline: BaselineSpec | None = None
    epsilon: float | None = None  # lemma1 level; None: gamma / 2
    out_dir: str | None = None
    verified_mode: bool = False
    threads: int = 1
    tie_tol: float = 1e-9
    separation_screen: bool = True


def _json_type(tp) -> str:
    if typing.get_origin(tp) is tuple:
        return "a list"
    return {bool: "true or false", int: "an integer", float: "a number", str: "a string"}[tp]


def _parse(tp, value, path: str):
    """Check one JSON value against a spec field's type hint and convert it.

    Nested specs come from objects, `tuple[float, ...]` from a list, and
    None only where the hint allows it.  A bool never counts as a number;
    an integer is accepted, as a float, where a float is expected.  No
    number may be NaN or infinite, or overflow a float.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {json.dumps(value)}")
    if typing.get_origin(tp) is types.UnionType:
        arms = typing.get_args(tp)
        if value is None and type(None) in arms:
            return None
        arms = [a for a in arms if a is not type(None)]
        if len(arms) == 1:
            return _parse(arms[0], value, path)
        if type(value) is int and float in arms and int not in arms:
            return _parse(float, value, path)  # so that its overflow is reported
        for arm in arms:
            try:
                return _parse(arm, value, path)
            except ConfigError:
                pass
        raise ConfigError(
            f"{path} must be {' or '.join(map(_json_type, arms))}, got {json.dumps(value)}"
        )
    if hasattr(tp, "_fields"):  # a nested spec
        where = path or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {json.dumps(value)}")
        hints = typing.get_type_hints(tp)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {unknown}")
        for name in tp._fields:
            if name not in value and name not in tp._field_defaults:
                raise ConfigError(f"{where} is missing required key {name!r}")
        prefix = f"{path}." if path else ""
        return tp(**{k: _parse(hints[k], v, prefix + k) for k, v in value.items()})
    if typing.get_origin(tp) is tuple:
        if isinstance(value, list):
            (item, _) = typing.get_args(tp)
            return tuple(_parse(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    elif isinstance(value, bool):
        if tp is bool:
            return value
    elif isinstance(value, tp):
        return value
    elif tp is float and isinstance(value, int):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path} overflows a float") from None
    raise ConfigError(f"{path} must be {_json_type(tp)}, got {json.dumps(value)}")


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Parse a config document strictly.

    Field names, types and defaults come from the spec NamedTuples; unknown
    keys anywhere are rejected.  The domain rules are validate_spec's, which
    every entry point runs (`_check_run`).
    """
    return _parse(ExperimentSpec, d, "")


def load_spec(path: str | Path, **overrides) -> ExperimentSpec:
    """Read a JSON config file and spec_from_dict it, after `overrides` (the
    CLI's flags) replace its top-level fields: a replaced value goes unchecked."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an oversized integer
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return spec_from_dict(doc | overrides if isinstance(doc, dict) else doc)


def _prune_rounds(spec: ExperimentSpec) -> int:
    """imp.q, defaulting to p - k."""
    return spec.imp.q if spec.imp.q is not None else spec.design.p - spec.signal.k


def _imp_config(spec: ExperimentSpec, q: int) -> ImpConfig:
    """The IMP run of a recover or baselines trial, with q prune rounds."""
    return ImpConfig(horizon=spec.imp.engine_horizon(), prune_rounds=q,
                     per_round=spec.imp.per_round, tie_break=spec.imp.tie_break)


def _baseline(spec: ExperimentSpec) -> tuple[BaselineSpec, tuple[float, ...], ThresholdConfig]:
    """The baseline block with its defaults resolved: (block, sigmas, IHT config)."""
    base = spec.baseline if spec.baseline is not None else BaselineSpec()
    sigmas = base.sigmas if base.sigmas is not None else (spec.noise.sigma,)
    tau = base.tau if base.tau is not None else spec.signal.gamma / 2.0
    return base, sigmas, ThresholdConfig(tau=tau, eta=base.eta, max_iters=base.max_iters,
                                         convergence_tol=base.convergence_tol)


def validate_spec(spec: ExperimentSpec) -> None:
    """Domain rules of a parsed spec.

    The design, signal, noise, pruning and IHT rules are those of the layers
    that use the values, checked without drawing anything; their ValueErrors
    become ConfigErrors.
    """
    design, signal = spec.design, spec.signal
    if spec.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {spec.kind!r}")
    if spec.trials < 1:
        raise ConfigError("trials must be >= 1")
    if not 1 <= spec.threads <= MAX_THREADS:
        raise ConfigError(f"threads must lie in [1, {MAX_THREADS}]")
    if not 0.0 < spec.delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    if spec.epsilon is not None and spec.epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")
    if spec.tie_tol < 0.0:
        raise ConfigError("tie_tol must be nonnegative")
    if spec.kind != "heuristic_equivalence" and signal is None:
        raise ConfigError(f"{spec.kind} needs a signal block")
    if spec.kind == "heuristic_equivalence" and design.kind == "incoherent" and design.n is None:
        raise ConfigError("incoherent heuristic runs need an explicit design.n")
    if spec.baseline is not None and spec.baseline.sigmas == ():
        raise ConfigError("baseline.sigmas must not be empty")
    runs_imp = spec.kind in ("support_recovery", "baseline_comparison")
    q = _prune_rounds(spec) if runs_imp else 0
    n = _heuristic_n(design) if spec.kind == "heuristic_equivalence" else design.n
    where = ""  # the imp and baseline blocks' rules name their field without the block
    try:
        check_design(design.kind, design.p, n, design.alpha)
        check_noise(spec.noise.kind, spec.noise.sigma)
        if signal is not None:
            check_signal(design.p, signal.k, signal.gamma, signal.amplitude_law)
        where = "imp."
        if spec.imp.q is not None and spec.imp.q < 0:  # the engine calls it prune_rounds
            raise ValueError("q must be nonnegative")
        _imp_config(spec, q)
        if spec.baseline is not None:  # an omitted tau defaults to gamma / 2 >= 0
            base, where = spec.baseline, "baseline."
            ThresholdConfig(0.0 if base.tau is None else base.tau, base.eta, base.max_iters,
                            base.convergence_tol)
            for i, sigma in enumerate(base.sigmas or ()):
                check_noise(spec.noise.kind, sigma, f"sigmas[{i}]")
    except ValueError as exc:
        raise ConfigError(where + str(exc)) from exc
    _check_size(n or design.p, design.p, "the design")  # a derived n is >= p
    if runs_imp and (q + 1) * spec.imp.per_round > design.p:
        raise ConfigError(
            f"(imp.q + 1) * imp.per_round = {(q + 1) * spec.imp.per_round} "
            f"exceeds design.p = {design.p}"
        )


def _check_size(n: int, p: int, what: str) -> None:
    """Raise ConfigError unless Phi (n x p) and Sigma (p x p) obey the size rule."""
    if max(n, p) * p > MAX_ENTRIES:
        raise ConfigError(f"{what} is too large: Phi (n x p) and Sigma (p x p) may hold "
                          f"at most {MAX_ENTRIES} entries each")


# ---------------------------------------------------------------------------
# Trial map
# ---------------------------------------------------------------------------


def map_trials(spec: ExperimentSpec, trial_fn, *args, more=None) -> list:
    """trial_fn(spec, trials, *args) over contiguous ranges of trials that
    cover range(spec.trials); the lists it returns, concatenated in trial
    order.

    A range holds max(1, STACK_BUDGET // p^2) trials, and on a pool no more
    than a worker's share of the batch, so that every worker gets one.  With
    threads > 1 the ranges run on one pool of min(threads, trials) worker
    processes for the whole map, as no batch holds more trials than the
    first, and go to it in about four chunks per worker, so that one-trial
    ranges of a cheap trial function (lemma1 from p = 182 on) do not pay a
    round trip each.  The budget counts one (p, p) block per trial, which is what a
    recover or heuristic stack holds; a baselines range holds more once its
    sigma cells prune apart, one Sigma_A^{-1} slice per cell (`_split` copies
    them) and a (q+1, p) trace per cell.  With `more`, the map goes on in
    batches: after each batch, more(batch) is the number of trials to run
    next, numbered on from the last one, and 0 ends the map.  Trial t seeds
    its randomness from base_seed + t alone, so the results depend neither
    on the worker count nor on the ranges.
    """
    results: list = []
    size, workers = spec.trials, min(spec.threads, spec.trials)
    if workers > 1:  # imported only here: a serial run skips its ~15 ms
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        while size > 0:
            first = len(results)
            step = max(1, STACK_BUDGET // spec.design.p**2)
            if pool is not None:
                step = min(step, math.ceil(size / workers))
            ranges = [range(a, min(a + step, first + size))
                      for a in range(first, first + size, step)]
            tasks = (repeat(spec), ranges, *map(repeat, args))
            chunks = (map(trial_fn, *tasks) if pool is None else pool.map(
                trial_fn, *tasks, chunksize=math.ceil(len(ranges) / (4 * workers))))
            batch = [r for chunk in chunks for r in chunk]
            results += batch
            size = more(batch) if more else 0
    return results


def _check_run(spec: ExperimentSpec, kind: str) -> None:
    """What every entry point checks before any trial runs: the kind, then
    validate_spec, the one place a config's rules are checked, then,
    if out_dir is set, that its nearest existing ancestor is a writable
    directory, found now rather than by the writers after the last trial."""
    if spec.kind != kind:
        raise ConfigError(f"expected a {kind} config, got {spec.kind!r}")
    validate_spec(spec)
    if spec.out_dir:
        out = Path(spec.out_dir).absolute()
        base = next(p for p in (out, *out.parents) if p.exists())
        if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot write outputs to {spec.out_dir!r}: "
                              f"{base} is not a writable directory")


# ---------------------------------------------------------------------------
# Sample-size resolution
# ---------------------------------------------------------------------------


def resolve_sample_size(
    spec: ExperimentSpec, seed: int, margin: float, bound_fn
) -> tuple[int, int, float, FeatureSet | None]:
    """Pick the per-trial n: explicit design.n, or the bound at the design's
    smallest nonzero eigenvalue.

    Where that eigenvalue has no closed form it is measured on the design
    drawn at n, so without an explicit n the bound is iterated against the
    measured spectrum until it stabilizes.  Returns (realized n, bound n,
    lambda used, design): the design is the one drawn at (realized n, seed)
    to measure lambda, or None when lambda has a closed form.  A bound that
    cannot be computed in floats (it overflows or is NaN, or the margin or
    its square rounds to 0), or a derived n that breaks the size rule, is a
    ConfigError.
    """
    design = spec.design
    rule = DESIGNS[design.kind]

    def bound(lam: float) -> int:
        try:
            return bound_fn(BoundInputs(spec.noise.sigma, margin, lam, design.p, spec.delta))
        except OverflowError:
            raise ConfigError("the sample-size bound overflows a float") from None
        except (ZeroDivisionError, ValueError) as exc:
            raise ConfigError(f"the sample-size bound cannot be computed: {exc}") from None

    def derived(bound_n: int) -> int:
        n = max(bound_n, design.p)
        _check_size(n, design.p, "the sample size the bound derives")
        return n

    def measured(n: int) -> tuple[float, FeatureSet]:
        fs = rule.draw(n, design.p, seed, design.alpha)
        return min_nonzero_eig(sym_eig(fs.covariance)), fs

    if rule.min_eig is not None:
        lam = rule.min_eig(design.alpha)
        bound_n = bound(lam)
        n = design.n if design.n is not None else derived(bound_n)
        return n, bound_n, lam, None
    if design.n is not None:
        lam, fs = measured(design.n)
        return design.n, bound(lam), lam, fs
    n = derived(bound(1.0))
    for _ in range(16):
        lam, fs = measured(n)
        bound_n = bound(lam)
        if bound_n <= n:
            return n, bound_n, lam, fs
        n = derived(bound_n)
    raise ConfigError(f"sample size for the {design.kind} design did not stabilize")


# ---------------------------------------------------------------------------
# Support recovery
# ---------------------------------------------------------------------------


class TrialRecord(NamedTuple):
    """One recovery trial: its fields but the last are the columns of its
    trials.csv row, and trace is, in a verified run, its IMP trace, which is
    written to trace/<trial>.json."""

    trial: int
    seed: int
    n: int
    p: int
    k: int
    gamma: float
    sigma: float
    delta: float
    q: int
    sparsity_ok: bool
    no_false_exclusion: bool
    min_nz_eig: float
    max_recov_residual: float
    wall_ms: float
    trace: ImpTrace | None = None


TRIALS_CSV_HEADER = ",".join(TrialRecord._fields[:-1])


class RecoveryReport(NamedTuple):
    summary: McSummary
    records: list[TrialRecord]
    rejected: int


def _build_problem(
    spec: ExperimentSpec, seed: int, n: int, features: FeatureSet | None = None,
    sigma: float | None = None,
) -> SparseProblem:
    """Trial `seed`'s problem at n and noise level sigma (None: noise.sigma);
    `features` is its design if already drawn."""
    sig = spec.signal
    return assemble_problem(
        design_kind=spec.design.kind,
        n=n,
        p=spec.design.p,
        k=sig.k,
        gamma=sig.gamma,
        seed=seed,
        alpha=spec.design.alpha,
        amplitude_law=sig.amplitude_law,
        noise_kind=spec.noise.kind,
        sigma=spec.noise.sigma if sigma is None else sigma,
        features=features,
    )


def _audit_rounds(
    problems: list[SparseProblem], audit: list, k: int, active: np.ndarray,
    weights: np.ndarray, factors: RoundFactors,
) -> None:
    """Check a stack of recovery trials at round 0: the engine's observer.

    Round 0 trains on every coordinate, so its eigendecompositions are those
    of the full Sigmas: each trial's ONP verdict, smallest nonzero
    eigenvalue and recoverability residual (one `check_recoverable` call)
    are read from them, so nothing is refactorized.  Appends (onp, min_eig,
    residual) per trial to `audit`.  Later rounds are not checked: ONP
    admits a trial only if its Sigma is nonsingular, and then by Cauchy
    interlacing so is every later Sigma_A, whose smallest eigenvalue is no
    lower, so that Sigma_A^+ Sigma_A s_A = s_A holds exactly.
    """
    if k:
        return
    signal = np.stack([pr.signal for pr in problems])
    cov_signal = np.stack([pr.covariance.entries @ pr.signal for pr in problems])
    eigs = [factors.eigs[i] for i in range(len(problems))]
    residuals = check_recoverable(cov_signal, signal, eigs)
    for eig, pr, residual in zip(eigs, problems, residuals.tolist()):
        try:
            lam = min_nonzero_eig(eig)
        except ValueError:  # a zero Sigma
            lam = float("nan")
        audit.append((check_onp(eig, pr.support) <= ONP_TOL, lam, residual))


def _recovery_problem(spec: ExperimentSpec, seed: int) -> SparseProblem:
    """Trial `seed`'s recover problem at the n of its design or of the bound."""
    # an explicit n needs no bound, so the design is drawn only by the problem
    n, drawn = spec.design.n, None
    if n is None:
        n, _, _, drawn = resolve_sample_size(spec, seed, spec.signal.gamma, recovery_sample_size)
    return _build_problem(spec, seed, n, drawn)


def recovery_trial(spec: ExperimentSpec, trials: range) -> list[TrialRecord | None]:
    """Run a range of trials as one IMP stack, audited at round 0.

    None marks a trial whose drawn design failed the ONP precondition.
    Every trial's wall_ms is the range's time over its length.
    """
    start = time.perf_counter()
    problems = [_recovery_problem(spec, spec.base_seed + t) for t in trials]
    q = _prune_rounds(spec)
    audit: list[tuple[bool, float, float]] = []
    traces = run_imp([pr.covariance for pr in problems], np.stack([pr.b for pr in problems]),
                     _imp_config(spec, q),
                     on_round=functools.partial(_audit_rounds, problems, audit))
    wall_ms = (time.perf_counter() - start) * 1e3 / len(trials)

    records: list[TrialRecord | None] = []
    for t, problem, trace, (onp, min_eig, residual) in zip(trials, problems, traces, audit):
        if not onp:
            records.append(None)
            continue
        final = trace.final_weights
        above = np.abs(problem.signal) >= problem.gamma
        records.append(TrialRecord(
            trial=t,
            seed=spec.base_seed + t,
            n=problem.n,
            p=spec.design.p,
            k=spec.signal.k,
            gamma=spec.signal.gamma,
            sigma=spec.noise.sigma,
            delta=spec.delta,
            q=q,
            sparsity_ok=int(np.sum(final == 0.0)) >= q * spec.imp.per_round,
            no_false_exclusion=bool(np.all(final[above] != 0.0)),
            min_nz_eig=min_eig,
            max_recov_residual=residual,
            wall_ms=wall_ms,
            trace=trace if spec.verified_mode else None,
        ))
    return records


def run_support_recovery(spec: ExperimentSpec) -> RecoveryReport:
    _check_run(spec, "support_recovery")
    records = [r for r in map_trials(spec, recovery_trial) if r is not None]
    rejected = spec.trials - len(records)
    if rejected > spec.trials // 2:
        raise ConfigError(
            f"ONP rejection rate {rejected}/{spec.trials} exceeds 50%: "
            "the design is inconsistent with the recovery hypotheses"
        )

    sparsity_failures = sum(not r.sparsity_ok for r in records)
    exclusion_failures = sum(not r.no_false_exclusion for r in records)
    overall = sum(
        not (r.sparsity_ok and r.no_false_exclusion) for r in records
    )
    summary = make_mc_summary(
        trials=len(records),
        failure_counts={
            "sparsity": sparsity_failures,
            "false_exclusion": exclusion_failures,
            "onp_rejected": rejected,
        },
        overall_failures=overall,
        delta=spec.delta,
    )
    report = RecoveryReport(summary=summary, records=records, rejected=rejected)
    if spec.out_dir:
        write_recovery_outputs(spec, report)
    return report


# ---------------------------------------------------------------------------
# Heuristic equivalence
# ---------------------------------------------------------------------------


class HeuristicTrialRow(NamedTuple):
    """One row of heuristic_trials.csv; a quantity a trial does not measure is nan."""

    trial: int
    seed: int
    full_match: bool
    first_match: bool
    degenerate: bool
    excluded: bool
    delta_pw: float
    min_gap: float
    gap_threshold: float
    inverse_err: float


HEURISTIC_CSV_HEADER = ",".join(HeuristicTrialRow._fields)


class HeuristicReport(NamedTuple):
    design_kind: str
    trials: int
    qualifying: int
    degenerate: int
    excluded: int
    attempts: int
    full_match_rate: float
    first_match_rate: float
    max_inverse_err: float
    passed: bool
    rows: list[HeuristicTrialRow]


def uniform_corr_separation_margin(scores: np.ndarray, alpha: float) -> float:
    """Worst-round separation certificate for the uniform-correlation regime.

    Trained weights there are an affine image (s - beta) / (1 - alpha) of the
    raw scores s, with beta = alpha * sum(active scores) / (1 + alpha(m-1)).
    If at every round the gap between the two smallest active magnitudes
    exceeds 2|beta|, the shifted argmin provably agrees with the raw argmin,
    so pruning follows the alignment ordering.  Returns the minimum over
    rounds of (gap - 2|beta|); a positive value certifies full agreement.
    """
    mags = np.abs(scores)
    order = np.argsort(mags, kind="stable")
    worst = float("inf")
    p = scores.shape[0]
    for r in range(p - 1):
        active = order[r:]
        m = active.shape[0]
        beta = alpha * float(np.sum(scores[active])) / (1.0 + alpha * (m - 1))
        gap = float(mags[order[r + 1]] - mags[order[r]])
        worst = min(worst, gap - 2.0 * abs(beta))
    return worst


def _heuristic_n(design: DesignSpec) -> int:
    """The n of a heuristic run: design.n, or 4p."""
    return design.n if design.n is not None else 4 * design.p


def _heuristic_trials(spec: ExperimentSpec, trials: range) -> list[HeuristicTrialRow]:
    """Evaluate a range of heuristic trials, or of incoherent attempts.

    Trial t draws its design and targets from seed base_seed + t and keeps
    xty = Phi^T y for its gap screens, its alignment order and b = xty / n.
    An incoherent attempt qualifies when the measured pairwise incoherence
    is at most 1/(10p) and the gap between the two smallest alignment scores
    strictly exceeds 10 p delta_pw max_j |phi_j^T y|; one that does not is
    an excluded row.  The range's ranked trials run as one IMP stack: the
    qualifying attempts prune once, the non-degenerate trials of the other
    designs rank all their coordinates.
    """
    design = spec.design
    n, p = _heuristic_n(design), design.p
    incoherent = design.kind == "incoherent"
    measured, ranked, matches = [], [], {}
    for trial in trials:
        seed = spec.base_seed + trial
        fs = DESIGNS[design.kind].draw(n, p, seed, design.alpha)
        xty = fs.phi.T @ make_rng(seed, STREAM_TARGETS).standard_normal(n)
        mags = np.sort(np.abs(xty))
        gaps = np.diff(mags) if p > 1 else np.full(1, np.inf)
        min_gap = float(gaps[0] if incoherent else np.min(gaps))
        degenerate = min_gap < spec.tie_tol
        excluded, delta_pw, gap_threshold, inverse_err = False, math.nan, math.nan, math.nan
        if incoherent:
            delta_pw = pairwise_incoherence(fs.covariance)
            gap_threshold = 10.0 * p * delta_pw * float(mags[-1])
            excluded = degenerate or not (
                delta_pw <= 1.0 / (10.0 * p) and min_gap > gap_threshold)
        elif design.kind == "uniform_corr":
            sig = fs.covariance.entries
            try:
                inv = np.linalg.solve(sig, np.eye(p))
                inverse_err = float(np.max(np.abs(sig @ inv - np.eye(p))))
            except np.linalg.LinAlgError:  # an exactly singular Sigma
                inverse_err = math.inf
            if spec.separation_screen and not degenerate:
                min_gap = uniform_corr_separation_margin(xty, design.alpha)
                excluded = min_gap <= spec.tie_tol
        if not (excluded if incoherent else degenerate):
            ranked.append((trial, fs.covariance, xty))
        measured.append((trial, seed, degenerate, excluded, delta_pw, min_gap, gap_threshold,
                         inverse_err))
    if ranked:
        covs, b = [cov for _, cov, _ in ranked], np.stack([xty / n for _, _, xty in ranked])
        config = ImpConfig(tie_break=spec.imp.tie_break)  # prune_rounds = 0: the first prune
        orders = ([trace.pruned[:, 0] for trace in run_imp(covs, b, config)] if incoherent
                  else imp_prune_order(covs, b, config))
        for (trial, _, xty), order_imp in zip(ranked, orders):
            order_align = alignment_order(xty)
            matches[trial] = (not incoherent and bool(np.array_equal(order_imp, order_align)),
                              bool(order_imp[0] == order_align[0]))
    return [HeuristicTrialRow(trial, seed, *matches.get(trial, (False, False)), *rest)
            for trial, seed, *rest in measured]


def _heuristic_incoherent(spec: ExperimentSpec) -> list[HeuristicTrialRow]:
    """Attempts 0, 1, ... up to the one that makes `trials` of them qualify.

    Attempts run in batches of as many as the qualifying ones still missing:
    a smaller batch cannot fill the quota, and a batch fills it only at its
    last attempt, so every attempt drawn is needed and the rows are those of
    a one-by-one loop.  At most 400 attempts per trial are drawn.
    """
    cap = spec.trials * 400
    missing, drawn = spec.trials, 0

    def next_batch(batch: list[HeuristicTrialRow]) -> int:
        nonlocal missing, drawn
        missing -= sum(not r.excluded for r in batch)
        drawn += len(batch)
        return min(missing, cap - drawn)

    rows = map_trials(spec, _heuristic_trials, more=next_batch)
    if missing:
        raise ConfigError(
            f"only {spec.trials - missing}/{spec.trials} attempts satisfied the gap condition "
            f"after {drawn} draws; raise design.n or lower trials"
        )
    return rows


def run_heuristic_equivalence(spec: ExperimentSpec) -> HeuristicReport:
    _check_run(spec, "heuristic_equivalence")
    incoherent = spec.design.kind == "incoherent"
    rows = (_heuristic_incoherent(spec) if incoherent
            else map_trials(spec, _heuristic_trials))
    qual = [r for r in rows if not (r.degenerate or r.excluded)]
    if not qual:  # a gate with nothing to test is a config error, as in recover
        raise ConfigError(
            f"no trial qualified ({sum(r.degenerate for r in rows)} of {len(rows)} degenerate, "
            f"{sum(r.excluded for r in rows)} excluded by the separation screen): "
            "the gate has nothing to test"
        )

    def rate(hits) -> float:
        return sum(hits) / len(qual)

    # the incoherence condition speaks only of the first prune
    full_rate = float("nan") if incoherent else rate(r.full_match for r in qual)
    first_rate = rate(r.first_match for r in qual)
    max_inverse = float(np.max([r.inverse_err for r in rows]))  # nan off uniform_corr
    passed = (first_rate if incoherent else full_rate) == 1.0
    if spec.design.kind == "uniform_corr":
        passed = passed and max_inverse <= INVERSE_TOL
    report = HeuristicReport(
        design_kind=spec.design.kind,
        trials=spec.trials,
        qualifying=len(qual),
        degenerate=sum(r.degenerate for r in rows),
        excluded=sum(r.excluded for r in rows),
        attempts=len(rows),
        full_match_rate=full_rate,
        first_match_rate=first_rate,
        max_inverse_err=max_inverse,
        passed=passed,
        rows=rows,
    )
    if spec.out_dir:
        write_heuristic_outputs(spec, report)
    return report


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


class BaselineCell(NamedTuple):
    sigma: float
    method: str
    trials: int
    exact_count: int
    exact_rate: float
    mean_f1: float


BASELINES_CSV_HEADER = ",".join(BaselineCell._fields)


def _support_f1(estimated: set[int], truth: set[int]) -> float:
    inter = len(estimated & truth)
    denom = len(estimated) + len(truth)
    return 2.0 * inter / denom if denom else 1.0


def _noise_sweep(
    spec: ExperimentSpec, seed: int, n: int, sigmas: tuple[float, ...],
    features: FeatureSet | None = None,
) -> list[SparseProblem]:
    """Trial `seed`'s problem at each noise level of the sweep: one design,
    drawn here unless given (none on the `exact_law` path), is handed to
    every build, so the problems share one CovMatrix and one noise draw."""
    design = spec.design
    if features is None and not exact_law(design.kind, spec.noise.kind):
        features = DESIGNS[design.kind].draw(n, design.p, seed, design.alpha)
    return [_build_problem(spec, seed, n, features, sigma) for sigma in sigmas]


def _baseline_trial(
    spec: ExperimentSpec, trials: range, n: int, first: list[SparseProblem] | None
) -> list[np.ndarray]:
    """For each trial of the range, one (sigma, method, 2) array: row [i, j]
    is (exact support recovered, support F1) of BASELINE_METHODS[j] at the
    sweep's i-th noise level, with 1.0 for an exact recovery.

    Trial 0's problems are `first` if sizing n already drew its design.  The
    range keeps only the (trial, sigma) problems, and IHT and IMP each run
    them as one stack on one b stack.  The sigma cells of a trial share one
    CovMatrix, so IHT stacks one Sigma per trial, and IMP factorizes it once
    at round 0 for all of them and downdates one inverse while they prune
    alike; hard thresholding reads each cell's Sigma^+ b through IMP's
    round-0 SymEig.
    """
    _, sigmas, threshold = _baseline(spec)
    per_trial = [first if t == 0 and first else _noise_sweep(spec, spec.base_seed + t, n, sigmas)
                 for t in trials]
    cells = [problem for problems in per_trial for problem in problems]
    b = np.stack([problem.b for problem in cells])
    fit = iht(np.stack([problems[0].covariance.entries for problems in per_trial]),
              b.reshape(len(per_trial), len(sigmas), -1), threshold)
    hts = []

    def threshold_round0(k, active, weights, factors):
        if k == 0:
            hts.extend(ht_estimator(problem.b, threshold.tau, factors.eigs[t])
                       for t, problem in enumerate(cells))

    traces = run_imp([problem.covariance for problem in cells], b,
                     _imp_config(spec, _prune_rounds(spec)), on_round=threshold_round0)
    outcomes = []
    for problem, ht, trace, s_iht in zip(cells, hts, traces, fit.estimate.reshape(b.shape)):
        truth = set(problem.support)
        supports = (set(np.flatnonzero(w != 0.0).tolist())
                    for w in (trace.final_weights, ht, s_iht))
        outcomes.append([(sup == truth, _support_f1(sup, truth)) for sup in supports])
    return list(np.reshape(outcomes, (len(trials), len(sigmas), len(BASELINE_METHODS), 2)))


def run_baseline_comparison(spec: ExperimentSpec) -> list[BaselineCell]:
    _check_run(spec, "baseline_comparison")
    base, sigmas, _ = _baseline(spec)

    # One n for the whole sweep, sized for its noisiest setting.
    sizing = spec._replace(noise=spec.noise._replace(sigma=max(sigmas)))
    n, _, _, drawn = resolve_sample_size(
        sizing, spec.base_seed, spec.signal.gamma, recovery_sample_size
    )
    # trial 0's problems from the sizing draw: every range gets them, not its Phi
    first = None if drawn is None else _noise_sweep(spec, spec.base_seed, n, sigmas, drawn)
    del drawn
    try:
        outcomes = map_trials(spec, _baseline_trial, n, first)
    except IhtDivergenceError as exc:
        raise ConfigError(
            f"IHT diverged at baseline.eta = {base.eta} ({exc}); lower baseline.eta"
        ) from exc

    # sums in trial order, so mean_f1 does not depend on the worker count
    totals = np.stack(outcomes).sum(axis=0).tolist()
    cells = [BaselineCell(float(sigma), method, spec.trials, int(exact), exact / spec.trials,
                          f1 / spec.trials)
             for sigma, per_method in zip(sigmas, totals)
             for method, (exact, f1) in zip(BASELINE_METHODS, per_method)]
    if spec.out_dir:
        write_baseline_outputs(spec, cells)
    return cells


# ---------------------------------------------------------------------------
# Noise concentration check (CLI subcommand: lemma1)
# ---------------------------------------------------------------------------


class ConcentrationReport(NamedTuple):
    summary: McSummary
    n: int
    bound_n: int
    lambda_min_nz: float
    epsilon: float


# The noise projector of the lemma1 run under way in this process, keyed by
# (design, base_seed, n): one entry, so a worker builds it once for the map.
_PROJECTOR: dict = {}


def _lemma1_projector(spec: ExperimentSpec, n: int, fs: FeatureSet | None = None) -> np.ndarray:
    """(1/n) Sigma^+ Phi^T of the design drawn at (n, base_seed); `fs` is that
    design if already drawn.  Built at a process's first call and kept."""
    key = (spec.design, spec.base_seed, n)
    if key not in _PROJECTOR:
        design = spec.design
        fs = fs or DESIGNS[design.kind].draw(n, design.p, spec.base_seed, design.alpha)
        _PROJECTOR.clear()
        _PROJECTOR[key] = noise_projector(fs)
    return _PROJECTOR[key]


def _lemma1_draws(spec: ExperimentSpec, draws: range, n: int, epsilon: float) -> list[bool]:
    """Does noise draw t (seed base_seed + t) reach epsilon in sup norm, for
    each t of the range?

    The projector is (1/n) Sigma^+ Phi^T of the run's fixed design, so an
    exceedance is the complement of the concentration event.
    """
    projector, exceeds = _lemma1_projector(spec, n), []
    for t in draws:
        xi = sample_noise(spec.noise.kind, spec.noise.sigma, n, spec.base_seed + t)
        exceeds.append(float(np.max(np.abs(projector @ xi))) >= epsilon)
    return exceeds


def run_concentration_check(spec: ExperimentSpec) -> ConcentrationReport:
    _check_run(spec, "lemma1_check")
    epsilon = spec.epsilon if spec.epsilon is not None else spec.signal.gamma / 2.0
    n, bound_n, lam, fs = resolve_sample_size(
        spec, spec.base_seed, epsilon, concentration_sample_size
    )
    # built here from the sizing draw, if any; a forked worker inherits it,
    # any other builds its own at its first range
    _lemma1_projector(spec, n, fs)
    del fs
    try:
        exceed = sum(map_trials(spec, _lemma1_draws, n, epsilon))
    finally:
        _PROJECTOR.clear()
    summary = make_mc_summary(spec.trials, {"exceedance": exceed}, exceed, spec.delta)
    report = ConcentrationReport(
        summary=summary, n=n, bound_n=bound_n, lambda_min_nz=lam, epsilon=epsilon
    )
    if spec.out_dir:
        _write_json(Path(spec.out_dir) / "summary.json",
                    {"kind": spec.kind, **report._asdict(), "summary": report.summary._asdict()})
    return report


# ---------------------------------------------------------------------------
# Output files and replay
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_line(cols) -> str:
    return ",".join(_fmt(c) for c in cols)


def trial_csv_row(rec: TrialRecord) -> str:
    """The header's columns in its order; wall_ms to the microsecond."""
    return _csv_line(rec[:-2]) + f",{rec.wall_ms:.3f}"


def row_without_wall_ms(row: str) -> str:
    return row.rsplit(",", 1)[0]


def _write_csv(path: Path, header: str, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_recovery_outputs(spec: ExperimentSpec, report: RecoveryReport) -> None:
    out = Path(spec.out_dir)
    for stale in (out / "trace").glob("*.json"):  # an earlier run's traces, written as below
        if stale.stem.isdigit():
            stale.unlink()
    _write_csv(out / "trials.csv", TRIALS_CSV_HEADER, map(trial_csv_row, report.records))
    _write_json(
        out / "summary.json",
        {
            "kind": spec.kind,
            "rejected": report.rejected,
            "summary": report.summary._asdict(),
        },
    )
    for rec in report.records:
        if rec.trace is not None:  # kept by verified runs only
            _write_json(out / "trace" / f"{rec.trial}.json", trace_to_dict(rec.trace))


def write_heuristic_outputs(spec: ExperimentSpec, report: HeuristicReport) -> None:
    out = Path(spec.out_dir)
    _write_csv(out / "heuristic_trials.csv", HEURISTIC_CSV_HEADER, map(_csv_line, report.rows))
    payload = report._asdict()
    payload.pop("rows")
    _write_json(out / "heuristic_summary.json", payload)


def write_baseline_outputs(spec: ExperimentSpec, cells: list[BaselineCell]) -> None:
    out = Path(spec.out_dir)
    _write_csv(out / "baselines.csv", BASELINES_CSV_HEADER, map(_csv_line, cells))
    _write_json(out / "baselines_summary.json", {"cells": [c._asdict() for c in cells]})


def replay_trial(spec: ExperimentSpec, trial: int) -> tuple[str, bool | None]:
    """Recompute one recovery trial and compare it against trials.csv.

    Returns (csv row, verdict).  The verdict is None when no trials.csv is
    available to compare against, else whether every column other than
    wall_ms is byte-identical to the stored row.
    """
    _check_run(spec._replace(out_dir=None), "support_recovery")  # replay only reads
    if not 0 <= trial < spec.trials:
        raise ConfigError(f"trial must lie in [0, {spec.trials})")
    [rec] = recovery_trial(spec, range(trial, trial + 1))
    if rec is None:
        raise ConfigError(
            f"trial {trial} was rejected by the ONP precondition; it has no row"
        )
    row = trial_csv_row(rec)
    if not spec.out_dir:
        return row, None
    csv_path = Path(spec.out_dir) / "trials.csv"
    if not csv_path.exists():
        return row, None
    prefix = f"{trial},"
    with open(csv_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith(prefix):
                return row, row_without_wall_ms(line) == row_without_wall_ms(row)
    raise ConfigError(f"trial {trial} not found in {csv_path}")


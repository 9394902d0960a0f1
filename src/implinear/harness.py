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

import json
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from pathlib import Path

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
    SparseProblem,
    assemble_problem,
    check_design,
    check_noise,
    check_signal,
    gen_incoherent_design,
    make_rng,
)
# Not called here: benchmarks/tracing.py wraps every design generator at this
# module's names, so they stay bound (tests/test_bench_contract.py).
from .designs import gen_orthonormal_design, gen_uniform_corr_design  # noqa: F401
from .engine import ImpConfig, ImpTrace, imp_prune_order, run_imp, trace_to_dict
from .flow import INFINITE
from .linalg import min_nonzero_eig, sym_eig
from .theory import (
    BoundInputs,
    McSummary,
    check_onp,
    check_recoverable,
    concentration_sample_size,
    make_mc_summary,
    noise_exceedance_mc,
    recovery_sample_size,
)

EXPERIMENT_KINDS = (
    "support_recovery",
    "heuristic_equivalence",
    "baseline_comparison",
    "lemma1_check",
)

ONP_TOL = 1e-8
RECOVERY_TOL = 1e-8

TRIALS_CSV_HEADER = (
    "trial,seed,n,p,k,gamma,sigma,delta,q,sparsity_ok,no_false_exclusion,"
    "min_nz_eig,max_recov_residual,wall_ms"
)
HEURISTIC_CSV_HEADER = (
    "trial,seed,full_match,first_match,degenerate,excluded,"
    "delta_pw,min_gap,gap_threshold,inverse_err"
)
BASELINES_CSV_HEADER = "sigma,method,trials,exact_count,exact_rate,mean_f1"
BASELINE_METHODS = ("imp", "ht", "iht")


class ConfigError(ValueError):
    """Bad experiment configuration (maps to CLI exit code 2)."""


# ---------------------------------------------------------------------------
# Experiment configuration (mirrors the JSON config file field for field)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpec:
    kind: str
    p: int
    n: int | None = None  # None: derive from the sample-size bound
    alpha: float | None = None  # uniform_corr only


@dataclass(frozen=True)
class SignalSpec:
    k: int
    gamma: float
    amplitude_law: str = "constant"


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "gaussian"
    sigma: float = 0.0


@dataclass(frozen=True)
class ImpSpec:
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


@dataclass(frozen=True)
class BaselineSpec:
    tau: float | None = None  # None: gamma / 2
    eta: float = 1.0  # in units of the (1/n)-scaled gradient step
    max_iters: int = 10_000
    convergence_tol: float = 1e-10
    sigmas: tuple[float, ...] | None = None  # None: (noise.sigma,)


@dataclass(frozen=True)
class ExperimentSpec:
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
    if is_dataclass(tp):
        return "an object"
    if typing.get_origin(tp) is tuple:
        return "a list"
    return {bool: "true or false", int: "an integer", float: "a number", str: "a string"}[tp]


def _parse(tp, value, path: str):
    """Check one JSON value against a spec field's type hint and convert it.

    Nested specs come from objects, `tuple[float, ...]` from a list, and
    None only where the hint allows it.  A bool never counts as a number;
    an integer is accepted, as a float, where a float is expected.
    """
    if typing.get_origin(tp) is types.UnionType:
        arms = typing.get_args(tp)
        if value is None and type(None) in arms:
            return None
        arms = [a for a in arms if a is not type(None)]
        if len(arms) == 1:
            return _parse(arms[0], value, path)
        for arm in arms:
            try:
                return _parse(arm, value, path)
            except ConfigError:
                pass
        raise ConfigError(
            f"{path} must be {' or '.join(map(_json_type, arms))}, got {json.dumps(value)}"
        )
    if is_dataclass(tp):
        where = path or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {json.dumps(value)}")
        hints = typing.get_type_hints(tp)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {unknown}")
        for f in fields(tp):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where} is missing required key {f.name!r}")
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
        return float(value)
    raise ConfigError(f"{path} must be {_json_type(tp)}, got {json.dumps(value)}")


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Parse a config document strictly, then validate it.

    Field names, types and defaults come from the spec dataclasses; unknown
    keys anywhere are rejected.
    """
    spec = _parse(ExperimentSpec, d, "")
    validate_spec(spec)
    return spec


def spec_to_dict(spec: ExperimentSpec) -> dict:
    d = asdict(spec)
    if d.get("baseline") and d["baseline"].get("sigmas") is not None:
        d["baseline"]["sigmas"] = list(d["baseline"]["sigmas"])
    return d


def load_spec(path: str | Path) -> ExperimentSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return spec_from_dict(doc)


def _prune_rounds(spec: ExperimentSpec) -> int:
    """imp.q, defaulting to p - k."""
    return spec.imp.q if spec.imp.q is not None else spec.design.p - spec.signal.k


def _baseline(spec: ExperimentSpec) -> tuple[BaselineSpec, tuple[float, ...], float]:
    """The baseline block with its defaults resolved: (block, sigmas, tau)."""
    base = spec.baseline if spec.baseline is not None else BaselineSpec()
    sigmas = base.sigmas if base.sigmas is not None else (spec.noise.sigma,)
    tau = base.tau if base.tau is not None else spec.signal.gamma / 2.0
    return base, sigmas, tau


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
    if spec.threads < 1:
        raise ConfigError("threads must be >= 1")
    if not 0.0 < spec.delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    if spec.epsilon is not None and spec.epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")
    if spec.kind != "heuristic_equivalence" and signal is None:
        raise ConfigError(f"{spec.kind} needs a signal block")
    if spec.kind == "heuristic_equivalence" and design.kind == "incoherent" and design.n is None:
        raise ConfigError("incoherent heuristic runs need an explicit design.n")
    if spec.baseline is not None and spec.baseline.sigmas == ():
        raise ConfigError("baseline.sigmas must not be empty")
    runs_imp = spec.kind in ("support_recovery", "baseline_comparison")
    q = _prune_rounds(spec) if runs_imp else 0
    try:
        check_design(design.kind, design.p, design.n, design.alpha)
        check_noise(spec.noise.kind, spec.noise.sigma)
        if signal is not None:
            check_signal(design.p, signal.k, signal.gamma, signal.amplitude_law)
            base, sigmas, tau = _baseline(spec)
            for sigma in sigmas:
                check_noise(spec.noise.kind, sigma)
            ThresholdConfig(tau=tau, eta=base.eta, max_iters=base.max_iters,
                            convergence_tol=base.convergence_tol)
        ImpConfig(horizon=spec.imp.engine_horizon(), prune_rounds=q,
                  per_round=spec.imp.per_round, tie_break=spec.imp.tie_break)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if runs_imp and (q + 1) * spec.imp.per_round > design.p:
        raise ConfigError(
            f"(imp.q + 1) * imp.per_round = {(q + 1) * spec.imp.per_round} "
            f"exceeds design.p = {design.p}"
        )


# ---------------------------------------------------------------------------
# Trial map
# ---------------------------------------------------------------------------


def map_trials(spec: ExperimentSpec, trial_fn, *args) -> list:
    """[trial_fn(spec, t, *args) for t in range(spec.trials)], in trial order.

    With threads > 1 the trials run on that many worker processes.  Trial t
    seeds its randomness from base_seed + t alone, so the results do not
    depend on the worker count.
    """
    tasks = (repeat(spec), range(spec.trials), *map(repeat, args))
    if spec.threads == 1:
        return list(map(trial_fn, *tasks))
    with ProcessPoolExecutor(max_workers=spec.threads) as pool:
        return list(pool.map(trial_fn, *tasks, chunksize=8))


# ---------------------------------------------------------------------------
# Sample-size resolution
# ---------------------------------------------------------------------------


def resolve_sample_size(
    spec: ExperimentSpec, seed: int, margin: float, bound_fn
) -> tuple[int, int, float]:
    """Pick the per-trial n: explicit design.n, or the bound at the design's
    smallest nonzero eigenvalue.

    Where that eigenvalue has no closed form it is measured on the design
    drawn at n, so without an explicit n the bound is iterated against the
    measured spectrum until it stabilizes.  Returns (realized n, bound n,
    lambda used).
    """
    design = spec.design
    rule = DESIGNS[design.kind]

    def bound(lam: float) -> int:
        return bound_fn(BoundInputs(spec.noise.sigma, margin, lam, design.p, spec.delta))

    def measured(n: int) -> float:
        fs = rule.draw(n, design.p, seed, design.alpha)
        return min_nonzero_eig(sym_eig(fs.covariance))

    if rule.min_eig is not None:
        lam = rule.min_eig(design.alpha)
        bound_n = bound(lam)
        return (design.n if design.n is not None else max(bound_n, design.p)), bound_n, lam
    if design.n is not None:
        lam = measured(design.n)
        return design.n, bound(lam), lam
    n = max(bound(1.0), design.p)
    for _ in range(16):
        lam = measured(n)
        bound_n = bound(lam)
        if bound_n <= n:
            return n, bound_n, lam
        n = bound_n
    raise ConfigError(f"sample size for the {design.kind} design did not stabilize")


# ---------------------------------------------------------------------------
# Support recovery
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    """Everything one recovery trial produced (one row of trials.csv)."""

    trial: int
    seed: int
    n: int
    p: int
    k: int
    gamma: float
    sigma: float
    delta: float
    q: int
    bound_n: int
    sparsity_ok: bool
    no_false_exclusion: bool
    min_nz_eig: float
    max_recov_residual: float
    wall_ms: float
    round_min_eigs: tuple[float, ...] = ()
    round_residuals: tuple[float, ...] = ()
    trace_json: dict | None = None


@dataclass
class RecoveryReport:
    summary: McSummary
    records: list[TrialRecord]
    rejected: int


def _build_problem(spec: ExperimentSpec, seed: int, n: int) -> SparseProblem:
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
        sigma=spec.noise.sigma,
    )


def _audit_rounds(
    problem: SparseProblem, trace: ImpTrace
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-round smallest nonzero eigenvalue and recoverability residual.

    Rounds the engine factorized reuse its eigendecomposition when it kept
    one, and are refactorized otherwise.  A downdated round is checked with
    the engine's Sigma_A^{-1}, so its residual also measures downdate drift;
    its eigenvalue entry is the previous round's, a lower bound by Cauchy
    interlacing, so the minimum over rounds is the exact one.
    """
    cov = problem.features.covariance
    eigs: list[float] = []
    residuals: list[float] = []
    for rec in trace.rounds:
        idx = rec.mask.active_indices()
        sub = cov.restrict(idx)
        if rec.inverse is not None:
            eigs.append(eigs[-1])
            chk = check_recoverable(sub, problem.signal[idx], tol=RECOVERY_TOL,
                                    inverse=rec.inverse)
        else:
            eig = rec.eig if rec.eig is not None else sym_eig(sub)
            try:
                eigs.append(min_nonzero_eig(eig))
            except ValueError:
                eigs.append(float("nan"))
            chk = check_recoverable(sub, problem.signal[idx], tol=RECOVERY_TOL, eig=eig)
        residuals.append(chk.residual)
    return tuple(eigs), tuple(residuals)


def recovery_trial(spec: ExperimentSpec, t: int) -> TrialRecord | None:
    """Run one trial; None means the drawn design failed the ONP precondition."""
    seed = spec.base_seed + t
    start = time.perf_counter()
    n, bound_n, _lam = resolve_sample_size(spec, seed, spec.signal.gamma, recovery_sample_size)
    problem = _build_problem(spec, seed, n)

    onp = check_onp(problem.features.covariance, problem.support, tol=ONP_TOL)
    if not onp.holds:
        return None

    p = spec.design.p
    q = _prune_rounds(spec)
    config = ImpConfig(
        horizon=spec.imp.engine_horizon(),
        prune_rounds=q,
        w_init=np.zeros(p),
        per_round=spec.imp.per_round,
        tie_break=spec.imp.tie_break,
    )
    trace = run_imp(problem.features, config)
    final = trace.final_weights

    sparsity_ok = int(np.sum(final == 0.0)) >= q * spec.imp.per_round
    above = np.abs(problem.signal) >= problem.gamma
    no_false_exclusion = bool(np.all(final[above] != 0.0))

    round_eigs, round_residuals = _audit_rounds(problem, trace)
    wall_ms = (time.perf_counter() - start) * 1e3
    return TrialRecord(
        trial=t,
        seed=seed,
        n=n,
        p=p,
        k=spec.signal.k,
        gamma=spec.signal.gamma,
        sigma=spec.noise.sigma,
        delta=spec.delta,
        q=q,
        bound_n=bound_n,
        sparsity_ok=sparsity_ok,
        no_false_exclusion=no_false_exclusion,
        min_nz_eig=float(np.min(round_eigs)) if round_eigs else float("nan"),
        max_recov_residual=float(np.max(round_residuals)) if round_residuals else float("nan"),
        wall_ms=wall_ms,
        round_min_eigs=round_eigs,
        round_residuals=round_residuals,
        trace_json=trace_to_dict(trace) if spec.verified_mode else None,
    )


def run_support_recovery(spec: ExperimentSpec) -> RecoveryReport:
    if spec.kind != "support_recovery":
        raise ConfigError(f"expected a support_recovery config, got {spec.kind!r}")
    records = [r for r in map_trials(spec, recovery_trial) if r is not None]
    rejected = spec.trials - len(records)
    if rejected > spec.trials // 2:
        raise ConfigError(
            f"ONP rejection rate {rejected}/{spec.trials} exceeds 50%: "
            "the design is inconsistent with the recovery hypotheses"
        )
    if not records:
        raise ConfigError("every trial was rejected by the ONP precondition")

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


@dataclass
class HeuristicTrialRow:
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


@dataclass
class HeuristicReport:
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
    rows: list[HeuristicTrialRow] = field(default_factory=list)


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


def _heuristic_single(spec: ExperimentSpec, trial: int) -> HeuristicTrialRow:
    """Evaluate one heuristic trial (orthonormal or uniform_corr)."""
    design = spec.design
    seed = spec.base_seed + trial
    n = design.n if design.n is not None else 4 * design.p
    fs = DESIGNS[design.kind].draw(n, design.p, seed, design.alpha)
    inverse_err = float("nan")
    if design.kind == "uniform_corr":
        sig = fs.covariance.entries
        inv = np.linalg.solve(sig, np.eye(design.p))
        inverse_err = float(np.max(np.abs(sig @ inv - np.eye(design.p))))
    y = make_rng(seed, STREAM_TARGETS).standard_normal(n)
    fs = fs.with_targets(y)

    scores = fs.phi.T @ y
    mags = np.sort(np.abs(scores))
    min_gap = float(np.min(np.diff(mags))) if design.p > 1 else float("inf")
    degenerate = min_gap < spec.tie_tol

    excluded = False
    if design.kind == "uniform_corr" and spec.separation_screen and not degenerate:
        margin = uniform_corr_separation_margin(scores, design.alpha)
        excluded = margin <= spec.tie_tol
        min_gap = margin

    full_match = False
    first_match = False
    if not degenerate:
        order_imp = imp_prune_order(fs, ImpConfig(tie_break=spec.imp.tie_break))
        order_align = alignment_order(fs)
        full_match = bool(np.array_equal(order_imp, order_align))
        first_match = bool(order_imp[0] == order_align[0])
    return HeuristicTrialRow(
        trial=trial,
        seed=seed,
        full_match=full_match,
        first_match=first_match,
        degenerate=degenerate,
        excluded=excluded,
        delta_pw=float("nan"),
        min_gap=min_gap,
        gap_threshold=float("nan"),
        inverse_err=inverse_err,
    )


def _heuristic_incoherent(spec: ExperimentSpec) -> HeuristicReport:
    """First-prune agreement under the enforced incoherence gap condition.

    Attempts are drawn with seeds base_seed, base_seed + 1, ... until
    `trials` of them satisfy: measured pairwise incoherence at most 1/(10p),
    and the gap between the two smallest alignment scores strictly exceeds
    10 p delta_pw max_j |phi_j^T y|.  Non-qualifying attempts are logged as
    excluded rows.
    """
    design = spec.design
    n, p = design.n, design.p
    rows: list[HeuristicTrialRow] = []
    qualifying = 0
    first_matches = 0
    degenerate = 0
    attempt = 0
    max_attempts = spec.trials * 400
    while qualifying < spec.trials and attempt < max_attempts:
        seed = spec.base_seed + attempt
        attempt += 1
        fs, delta_pw = gen_incoherent_design(n, p, seed)
        y = make_rng(seed, STREAM_TARGETS).standard_normal(n)
        fs = fs.with_targets(y)
        scores = np.abs(fs.phi.T @ y)
        order = np.argsort(scores, kind="stable")
        first_gap = float(scores[order[1]] - scores[order[0]]) if p > 1 else float("inf")
        threshold = 10.0 * p * delta_pw * float(np.max(scores))
        is_degenerate = first_gap < spec.tie_tol
        qualifies = (not is_degenerate) and delta_pw <= 1.0 / (10.0 * p) and first_gap > threshold

        first_match = False
        if qualifies:
            trace = run_imp(fs, ImpConfig(prune_rounds=0, tie_break=spec.imp.tie_break))
            first_match = bool(trace.rounds[0].pruned[0] == order[0])
            qualifying += 1
            first_matches += int(first_match)
        degenerate += int(is_degenerate)
        rows.append(
            HeuristicTrialRow(
                trial=attempt - 1,
                seed=seed,
                full_match=False,
                first_match=first_match,
                degenerate=is_degenerate,
                excluded=not qualifies,
                delta_pw=delta_pw,
                min_gap=first_gap,
                gap_threshold=threshold,
                inverse_err=float("nan"),
            )
        )
    if qualifying < spec.trials:
        raise ConfigError(
            f"only {qualifying}/{spec.trials} attempts satisfied the gap condition "
            f"after {attempt} draws; raise design.n or lower trials"
        )
    rate = first_matches / qualifying
    return HeuristicReport(
        design_kind="incoherent",
        trials=spec.trials,
        qualifying=qualifying,
        degenerate=degenerate,
        excluded=len(rows) - qualifying,
        attempts=attempt,
        full_match_rate=float("nan"),
        first_match_rate=rate,
        max_inverse_err=float("nan"),
        passed=rate == 1.0,
        rows=rows,
    )


def run_heuristic_equivalence(spec: ExperimentSpec) -> HeuristicReport:
    if spec.kind != "heuristic_equivalence":
        raise ConfigError(f"expected a heuristic_equivalence config, got {spec.kind!r}")
    if spec.design.kind == "incoherent":
        report = _heuristic_incoherent(spec)
    else:
        rows = map_trials(spec, _heuristic_single)
        qual = [r for r in rows if not (r.degenerate or r.excluded)]
        full = sum(r.full_match for r in qual)
        first = sum(r.first_match for r in qual)
        inverse_errs = [r.inverse_err for r in rows if np.isfinite(r.inverse_err)]
        max_inverse = max(inverse_errs) if inverse_errs else float("nan")
        full_rate = full / len(qual) if qual else float("nan")
        first_rate = first / len(qual) if qual else float("nan")
        passed = bool(qual) and full_rate == 1.0
        if spec.design.kind == "uniform_corr" and np.isfinite(max_inverse):
            passed = passed and max_inverse <= 1e-8
        report = HeuristicReport(
            design_kind=spec.design.kind,
            trials=spec.trials,
            qualifying=len(qual),
            degenerate=sum(r.degenerate for r in rows),
            excluded=sum(r.excluded for r in rows),
            attempts=spec.trials,
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


@dataclass
class BaselineCell:
    sigma: float
    method: str
    trials: int
    exact_count: int
    exact_rate: float
    mean_f1: float


@dataclass
class BaselineReport:
    cells: list[BaselineCell]


def _support_f1(estimated: set[int], truth: set[int]) -> float:
    inter = len(estimated & truth)
    denom = len(estimated) + len(truth)
    return 2.0 * inter / denom if denom else 1.0


def _baseline_trial(spec: ExperimentSpec, t: int, n: int) -> tuple[tuple[bool, float], ...]:
    """(exact support recovered, support F1) of each method on trial t."""
    problem = _build_problem(spec, spec.base_seed + t, n)
    features = problem.features
    base, _, tau = _baseline(spec)
    trace = run_imp(
        features,
        ImpConfig(prune_rounds=_prune_rounds(spec), per_round=spec.imp.per_round,
                  tie_break=spec.imp.tie_break),
    )
    hard = ht_estimator(features, tau)
    est = iht(
        features,
        ThresholdConfig(
            tau=tau,
            eta=base.eta / n,
            max_iters=base.max_iters,
            convergence_tol=base.convergence_tol,
        ),
    )
    truth = set(problem.support)
    supports = (set(np.flatnonzero(w != 0.0).tolist())
                for w in (trace.final_weights, hard, est.estimate))
    return tuple((sup == truth, _support_f1(sup, truth)) for sup in supports)


def run_baseline_comparison(spec: ExperimentSpec) -> BaselineReport:
    if spec.kind != "baseline_comparison":
        raise ConfigError(f"expected a baseline_comparison config, got {spec.kind!r}")
    base, sigmas, _ = _baseline(spec)

    # One n for the whole sweep, sized for its noisiest setting.
    sizing = replace(spec, noise=replace(spec.noise, sigma=max(sigmas)))
    n, _, _ = resolve_sample_size(sizing, spec.base_seed, spec.signal.gamma, recovery_sample_size)

    cells: list[BaselineCell] = []
    for sigma in sigmas:
        sweep = replace(spec, noise=replace(spec.noise, sigma=sigma))
        try:
            outcomes = map_trials(sweep, _baseline_trial, n)
        except IhtDivergenceError as exc:
            raise ConfigError(
                f"IHT diverged at baseline.eta = {base.eta} ({exc}); lower baseline.eta"
            ) from exc
        for method, results in zip(BASELINE_METHODS, zip(*outcomes)):
            # sums in trial order, so mean_f1 does not depend on the worker count
            exact = sum(hit for hit, _ in results)
            cells.append(
                BaselineCell(
                    sigma=float(sigma),
                    method=method,
                    trials=spec.trials,
                    exact_count=exact,
                    exact_rate=exact / spec.trials,
                    mean_f1=sum(f1 for _, f1 in results) / spec.trials,
                )
            )
    report = BaselineReport(cells=cells)
    if spec.out_dir:
        write_baseline_outputs(spec, report)
    return report


# ---------------------------------------------------------------------------
# Noise concentration check (CLI subcommand: lemma1)
# ---------------------------------------------------------------------------


@dataclass
class ConcentrationReport:
    summary: McSummary
    n: int
    bound_n: int
    lambda_min_nz: float
    epsilon: float


def run_concentration_check(spec: ExperimentSpec) -> ConcentrationReport:
    if spec.kind != "lemma1_check":
        raise ConfigError(f"expected a lemma1_check config, got {spec.kind!r}")
    epsilon = spec.epsilon if spec.epsilon is not None else spec.signal.gamma / 2.0
    n, bound_n, lam = resolve_sample_size(
        spec, spec.base_seed, epsilon, concentration_sample_size
    )
    design = spec.design
    fs = DESIGNS[design.kind].draw(n, design.p, spec.base_seed, design.alpha)
    summary = noise_exceedance_mc(
        fs,
        spec.noise.kind,
        spec.noise.sigma,
        epsilon,
        spec.trials,
        spec.base_seed,
        delta=spec.delta,
    )
    report = ConcentrationReport(
        summary=summary, n=n, bound_n=bound_n, lambda_min_nz=lam, epsilon=epsilon
    )
    if spec.out_dir:
        payload = {
            "kind": spec.kind,
            "n": report.n,
            "bound_n": report.bound_n,
            "lambda_min_nz": report.lambda_min_nz,
            "epsilon": report.epsilon,
            "summary": asdict(report.summary),
        }
        _write_json(Path(spec.out_dir) / "summary.json", payload)
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
    cols = [
        rec.trial,
        rec.seed,
        rec.n,
        rec.p,
        rec.k,
        rec.gamma,
        rec.sigma,
        rec.delta,
        rec.q,
        rec.sparsity_ok,
        rec.no_false_exclusion,
        rec.min_nz_eig,
        rec.max_recov_residual,
    ]
    return _csv_line(cols) + f",{rec.wall_ms:.3f}"


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
    _write_csv(out / "trials.csv", TRIALS_CSV_HEADER, map(trial_csv_row, report.records))
    _write_json(
        out / "summary.json",
        {
            "kind": spec.kind,
            "rejected": report.rejected,
            "summary": asdict(report.summary),
        },
    )
    if spec.verified_mode:
        for rec in report.records:
            if rec.trace_json is not None:
                _write_json(out / "trace" / f"{rec.trial}.json", rec.trace_json)


def write_heuristic_outputs(spec: ExperimentSpec, report: HeuristicReport) -> None:
    out = Path(spec.out_dir)
    rows = (_csv_line(astuple(r)) for r in report.rows)
    _write_csv(out / "heuristic_trials.csv", HEURISTIC_CSV_HEADER, rows)
    payload = asdict(report)
    payload.pop("rows")
    _write_json(out / "heuristic_summary.json", payload)


def write_baseline_outputs(spec: ExperimentSpec, report: BaselineReport) -> None:
    out = Path(spec.out_dir)
    rows = (_csv_line(astuple(c)) for c in report.cells)
    _write_csv(out / "baselines.csv", BASELINES_CSV_HEADER, rows)
    _write_json(out / "baselines_summary.json", {"cells": [asdict(c) for c in report.cells]})


def replay_trial(spec: ExperimentSpec, trial: int) -> tuple[str, bool | None]:
    """Recompute one recovery trial and compare it against trials.csv.

    Returns (csv row, verdict).  The verdict is None when no trials.csv is
    available to compare against, else whether every column other than
    wall_ms is byte-identical to the stored row.
    """
    if spec.kind != "support_recovery":
        raise ConfigError("replay is defined for support_recovery configs")
    if not 0 <= trial < spec.trials:
        raise ConfigError(f"trial must lie in [0, {spec.trials})")
    rec = recovery_trial(spec, trial)
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


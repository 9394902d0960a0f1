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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import ThresholdConfig, alignment_order, ht_estimator, iht
from .designs import (
    STREAM_TARGETS,
    FeatureSet,
    SparseProblem,
    assemble_problem,
    gen_incoherent_design,
    gen_orthonormal_design,
    gen_uniform_corr_design,
    make_rng,
    pairwise_incoherence,
)
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
DESIGN_KINDS = ("orthonormal", "uniform_corr", "incoherent")

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


_SPEC_FIELDS = {
    "kind",
    "design",
    "trials",
    "base_seed",
    "delta",
    "signal",
    "noise",
    "imp",
    "baseline",
    "epsilon",
    "out_dir",
    "verified_mode",
    "threads",
    "tie_tol",
    "separation_screen",
}


def _strict_block(d: dict, allowed: set[str], ctx: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {sorted(unknown)}")


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Parse a config document; unknown keys anywhere are rejected."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    _strict_block(d, _SPEC_FIELDS, "config")
    for key in ("kind", "design", "trials", "base_seed"):
        if key not in d:
            raise ConfigError(f"config is missing required key {key!r}")

    design_d = d["design"]
    _strict_block(design_d, {"kind", "p", "n", "alpha"}, "design")
    design = DesignSpec(
        kind=design_d["kind"],
        p=int(design_d["p"]),
        n=None if design_d.get("n") is None else int(design_d["n"]),
        alpha=None if design_d.get("alpha") is None else float(design_d["alpha"]),
    )

    signal = None
    if d.get("signal") is not None:
        sd = d["signal"]
        _strict_block(sd, {"k", "gamma", "amplitude_law"}, "signal")
        signal = SignalSpec(
            k=int(sd["k"]),
            gamma=float(sd["gamma"]),
            amplitude_law=sd.get("amplitude_law", "constant"),
        )

    noise = NoiseSpec()
    if d.get("noise") is not None:
        nd = d["noise"]
        _strict_block(nd, {"kind", "sigma"}, "noise")
        noise = NoiseSpec(kind=nd.get("kind", "gaussian"), sigma=float(nd.get("sigma", 0.0)))

    imp = ImpSpec()
    if d.get("imp") is not None:
        idp = d["imp"]
        _strict_block(idp, {"q", "per_round", "horizon", "tie_break"}, "imp")
        imp = ImpSpec(
            q=None if idp.get("q") is None else int(idp["q"]),
            per_round=int(idp.get("per_round", 1)),
            horizon=idp.get("horizon", "infinite"),
            tie_break=idp.get("tie_break", "lowest_index"),
        )

    baseline = None
    if d.get("baseline") is not None:
        bd = d["baseline"]
        _strict_block(bd, {"tau", "eta", "max_iters", "convergence_tol", "sigmas"}, "baseline")
        baseline = BaselineSpec(
            tau=None if bd.get("tau") is None else float(bd["tau"]),
            eta=float(bd.get("eta", 1.0)),
            max_iters=int(bd.get("max_iters", 10_000)),
            convergence_tol=float(bd.get("convergence_tol", 1e-10)),
            sigmas=None if bd.get("sigmas") is None else tuple(float(s) for s in bd["sigmas"]),
        )

    spec = ExperimentSpec(
        kind=d["kind"],
        design=design,
        trials=int(d["trials"]),
        base_seed=int(d["base_seed"]),
        delta=float(d.get("delta", 0.1)),
        signal=signal,
        noise=noise,
        imp=imp,
        baseline=baseline,
        epsilon=None if d.get("epsilon") is None else float(d["epsilon"]),
        out_dir=d.get("out_dir"),
        verified_mode=bool(d.get("verified_mode", False)),
        threads=int(d.get("threads", 1)),
        tie_tol=float(d.get("tie_tol", 1e-9)),
        separation_screen=bool(d.get("separation_screen", True)),
    )
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


def validate_spec(spec: ExperimentSpec) -> None:
    if spec.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {spec.kind!r}")
    if spec.design.kind not in DESIGN_KINDS:
        raise ConfigError(f"unknown design kind {spec.design.kind!r}")
    if spec.design.p < 1:
        raise ConfigError("design.p must be positive")
    if spec.trials < 1:
        raise ConfigError("trials must be >= 1")
    if not 0.0 < spec.delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    if spec.threads < 1:
        raise ConfigError("threads must be >= 1")
    if spec.design.kind == "uniform_corr" and spec.design.alpha is None:
        raise ConfigError("uniform_corr design needs design.alpha")
    needs_signal = spec.kind in ("support_recovery", "baseline_comparison", "lemma1_check")
    if needs_signal and spec.signal is None:
        raise ConfigError(f"{spec.kind} needs a signal block")
    if spec.signal is not None:
        if not 1 <= spec.signal.k <= spec.design.p:
            raise ConfigError("signal.k must satisfy 1 <= k <= p")
        if spec.signal.gamma <= 0:
            raise ConfigError("signal.gamma must be positive")
    if spec.kind == "heuristic_equivalence" and spec.design.kind == "incoherent":
        if spec.design.n is None:
            raise ConfigError("incoherent heuristic runs need an explicit design.n")


# ---------------------------------------------------------------------------
# Sample-size resolution
# ---------------------------------------------------------------------------


def _analytic_lambda(design: DesignSpec) -> float | None:
    """Smallest nonzero covariance eigenvalue, when known in closed form."""
    if design.kind == "orthonormal":
        return 1.0
    if design.kind == "uniform_corr":
        return 1.0 - float(design.alpha)
    return None


def resolve_sample_size(
    spec: ExperimentSpec, seed: int, margin: float, bound_fn
) -> tuple[int, int, float]:
    """Pick the per-trial n: explicit design.n, or the bound at the design's
    smallest nonzero eigenvalue.

    For the incoherent design the eigenvalue depends on n, so the bound is
    iterated against the measured spectrum until it stabilizes.  Returns
    (realized n, bound n, lambda used).
    """
    design = spec.design
    sigma = spec.noise.sigma
    lam = _analytic_lambda(design)
    if lam is not None:
        bound_n = bound_fn(BoundInputs(sigma, margin, lam, design.p, spec.delta))
        n = design.n if design.n is not None else max(bound_n, design.p)
        return n, bound_n, lam
    if design.n is not None:
        fs, _ = gen_incoherent_design(design.n, design.p, seed)
        lam = min_nonzero_eig(sym_eig(fs.covariance))
        bound_n = bound_fn(BoundInputs(sigma, margin, lam, design.p, spec.delta))
        return design.n, bound_n, lam
    n = max(
        bound_fn(BoundInputs(sigma, margin, 1.0, design.p, spec.delta)),
        design.p,
    )
    for _ in range(16):
        fs, _ = gen_incoherent_design(n, design.p, seed)
        lam = min_nonzero_eig(sym_eig(fs.covariance))
        bound_n = bound_fn(BoundInputs(sigma, margin, lam, design.p, spec.delta))
        if bound_n <= n:
            return n, bound_n, lam
        n = bound_n
    raise ConfigError("sample size for the incoherent design did not stabilize")


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
    q = spec.imp.q if spec.imp.q is not None else p - spec.signal.k
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


def _recovery_trial_star(args: tuple) -> TrialRecord | None:
    return recovery_trial(*args)


def run_support_recovery(spec: ExperimentSpec) -> RecoveryReport:
    if spec.kind != "support_recovery":
        raise ConfigError(f"expected a support_recovery config, got {spec.kind!r}")
    tasks = [(spec, t) for t in range(spec.trials)]
    if spec.threads > 1:
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            raw = list(pool.map(_recovery_trial_star, tasks, chunksize=8))
    else:
        raw = [recovery_trial(spec, t) for t in range(spec.trials)]

    records = [r for r in raw if r is not None]
    rejected = spec.trials - len(records)
    if rejected > spec.trials // 2:
        raise ConfigError(
            f"ONP rejection rate {rejected}/{spec.trials} exceeds 50%: "
            "the design is inconsistent with the recovery hypotheses"
        )
    if not records:
        raise ConfigError("every trial was rejected by the ONP precondition")

    records.sort(key=lambda r: r.trial)
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


def _heuristic_single(
    spec: ExperimentSpec, trial: int, seed: int
) -> HeuristicTrialRow:
    """Evaluate one heuristic trial (orthonormal or uniform_corr)."""
    design = spec.design
    n = design.n if design.n is not None else 4 * design.p
    if design.kind == "orthonormal":
        fs = gen_orthonormal_design(n, design.p, seed)
        inverse_err = float("nan")
    else:
        fs = gen_uniform_corr_design(n, design.p, design.alpha, seed)
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
        rows = [
            _heuristic_single(spec, t, spec.base_seed + t) for t in range(spec.trials)
        ]
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


def run_baseline_comparison(spec: ExperimentSpec) -> BaselineReport:
    if spec.kind != "baseline_comparison":
        raise ConfigError(f"expected a baseline_comparison config, got {spec.kind!r}")
    base = spec.baseline if spec.baseline is not None else BaselineSpec()
    sigmas = base.sigmas if base.sigmas is not None else (spec.noise.sigma,)
    tau = base.tau if base.tau is not None else spec.signal.gamma / 2.0
    p, k = spec.design.p, spec.signal.k
    q = spec.imp.q if spec.imp.q is not None else p - k

    # One n for the whole sweep, sized for its noisiest setting.
    sizing = replace(spec, noise=replace(spec.noise, sigma=max(sigmas)))
    n, _, _ = resolve_sample_size(sizing, spec.base_seed, spec.signal.gamma, recovery_sample_size)

    cells: list[BaselineCell] = []
    for sigma in sigmas:
        counts = {"imp": 0, "ht": 0, "iht": 0}
        f1s = {"imp": 0.0, "ht": 0.0, "iht": 0.0}
        for t in range(spec.trials):
            seed = spec.base_seed + t
            prob_spec = replace(spec, noise=replace(spec.noise, sigma=sigma))
            problem = _build_problem(prob_spec, seed, n)
            truth = set(problem.support)
            features = problem.features

            trace = run_imp(
                features,
                ImpConfig(prune_rounds=q, per_round=spec.imp.per_round,
                          tie_break=spec.imp.tie_break),
            )
            supports = {
                "imp": set(np.flatnonzero(trace.final_weights != 0.0).tolist()),
                "ht": set(np.flatnonzero(ht_estimator(features, tau) != 0.0).tolist()),
            }
            est = iht(
                features,
                ThresholdConfig(
                    tau=tau,
                    eta=base.eta / n,
                    max_iters=base.max_iters,
                    convergence_tol=base.convergence_tol,
                ),
            )
            supports["iht"] = set(np.flatnonzero(est.estimate != 0.0).tolist())
            for method, sup in supports.items():
                counts[method] += int(sup == truth)
                f1s[method] += _support_f1(sup, truth)
        for method in ("imp", "ht", "iht"):
            cells.append(
                BaselineCell(
                    sigma=float(sigma),
                    method=method,
                    trials=spec.trials,
                    exact_count=counts[method],
                    exact_rate=counts[method] / spec.trials,
                    mean_f1=f1s[method] / spec.trials,
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
    if design.kind == "orthonormal":
        fs = gen_orthonormal_design(n, design.p, spec.base_seed)
    elif design.kind == "uniform_corr":
        fs = gen_uniform_corr_design(n, design.p, design.alpha, spec.base_seed)
    else:
        fs, _ = gen_incoherent_design(n, design.p, spec.base_seed)
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
    return ",".join(_fmt(c) for c in cols) + f",{rec.wall_ms:.3f}"


def row_without_wall_ms(row: str) -> str:
    return row.rsplit(",", 1)[0]


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_recovery_outputs(spec: ExperimentSpec, report: RecoveryReport) -> None:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trials.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(TRIALS_CSV_HEADER + "\n")
        for rec in report.records:
            fh.write(trial_csv_row(rec) + "\n")
    _write_json(
        out / "summary.json",
        {
            "kind": spec.kind,
            "rejected": report.rejected,
            "summary": asdict(report.summary),
        },
    )
    if spec.verified_mode:
        trace_dir = out / "trace"
        trace_dir.mkdir(exist_ok=True)
        for rec in report.records:
            if rec.trace_json is not None:
                _write_json(trace_dir / f"{rec.trial}.json", rec.trace_json)


def write_heuristic_outputs(spec: ExperimentSpec, report: HeuristicReport) -> None:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "heuristic_trials.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(HEURISTIC_CSV_HEADER + "\n")
        for r in report.rows:
            cols = [
                r.trial,
                r.seed,
                r.full_match,
                r.first_match,
                r.degenerate,
                r.excluded,
                r.delta_pw,
                r.min_gap,
                r.gap_threshold,
                r.inverse_err,
            ]
            fh.write(",".join(_fmt(c) for c in cols) + "\n")
    payload = asdict(report)
    payload.pop("rows")
    _write_json(out / "heuristic_summary.json", payload)


def write_baseline_outputs(spec: ExperimentSpec, report: BaselineReport) -> None:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "baselines.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(BASELINES_CSV_HEADER + "\n")
        for c in report.cells:
            cols = [c.sigma, c.method, c.trials, c.exact_count, c.exact_rate, c.mean_f1]
            fh.write(",".join(_fmt(x) for x in cols) + "\n")
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


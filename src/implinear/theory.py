"""Executable forms of the recovery guarantees.

The orthogonal nullspace property check, the per-round recoverability
certificate, the two sample-size bounds (support recovery and max-noise
concentration), the noise projector (1/n) Sigma^+ Phi^T behind the
concentration bound, and the Monte Carlo summary with its exact binomial
interval.  Logs are natural throughout.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import FeatureSet
from .linalg import CovMatrix, SymEig, pseudo_inverse, sym_eig


@dataclass(frozen=True)
class OnpReport:
    """Outcome of the orthogonal nullspace property check.

    holds is True exactly when the largest inner product between the
    orthonormal nullspace basis and the cone generators is at most the
    tolerance.  vacuous flags an empty support with a nontrivial nullspace,
    where the check passes with nothing to test.
    """

    holds: bool
    null_dim: int
    max_violation: float
    vacuous: bool


@dataclass(frozen=True)
class BoundInputs:
    """Quantities the sample-size bounds depend on.

    margin is the magnitude floor gamma for the recovery bound and the
    exceedance level epsilon for the concentration bound.  sigma = 0 is
    allowed (noiseless experiments); everything else must be positive.
    """

    sigma: float
    margin: float
    lambda_min_nz: float
    p: int
    delta: float

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.margin <= 0.0:
            raise ValueError("margin must be positive")
        if self.lambda_min_nz <= 0.0:
            raise ValueError("lambda_min_nz must be positive")
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


class RecoveryCheck(NamedTuple):
    ok: np.ndarray
    residual: np.ndarray


@dataclass(frozen=True)
class McSummary:
    """Aggregated Monte Carlo verdict against a failure budget delta."""

    trials: int
    failure_counts: dict[str, int]
    failure_rate: float
    ci_low: float
    ci_high: float
    delta: float
    passed: bool


def exact_binomial_ci(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Clopper-Pearson interval for k successes out of n.

    With alpha = (1 - confidence) / 2, the lower end solves
    P(X >= k | p) = alpha and the upper end P(X <= k | p) = alpha, for
    X ~ Binomial(n, p); the ends are exactly 0.0 at k = 0 and 1.0 at k = n.
    Each tail is monotone in p, so bisection on the tail, summed in log
    space, finds each end to the last bit of a double.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need n >= 1 and 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    log_alpha = math.log((1.0 - confidence) / 2.0)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_choose = log_fact[n] - log_fact - log_fact[::-1]
    successes = np.arange(n + 1)

    def solve(x: np.ndarray, rising: bool) -> float:
        """The p where log P(X in x | p) crosses log_alpha; rising: the tail grows with p."""
        lo, hi = 0.0, 1.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            terms = log_choose[x] + x * math.log(mid) + (n - x) * math.log1p(-mid)
            top = float(terms.max())
            below = top + math.log(float(np.exp(terms - top).sum())) < log_alpha
            lo, hi = (mid, hi) if below == rising else (lo, mid)

    low = 0.0 if k == 0 else solve(successes[k:], rising=True)
    high = 1.0 if k == n else solve(successes[: k + 1], rising=False)
    return low, high


def make_mc_summary(
    trials: int, failure_counts: dict[str, int], overall_failures: int, delta: float
) -> McSummary:
    rate = overall_failures / trials
    lo, hi = exact_binomial_ci(overall_failures, trials)
    return McSummary(
        trials=trials,
        failure_counts=dict(failure_counts),
        failure_rate=rate,
        ci_low=lo,
        ci_high=hi,
        delta=float(delta),
        passed=rate <= delta,
    )


def _cone_generators(p: int, support: np.ndarray) -> np.ndarray:
    """Columns spanning the cone of vectors whose l1 mass concentrates on S.

    The span is generated by e_i for i in S together with e_i + e_j and
    e_i - e_j for i in S, j outside S, which keeps the orthogonality check
    finite.  `check_onp` uses a closed form instead; this dense
    p x k(2(p-k)+1) matrix is the tests' oracle for it.
    """
    comp = np.setdiff1d(np.arange(p), support)
    cols = []
    eye = np.eye(p)
    for i in support:
        cols.append(eye[:, i])
        for j in comp:
            cols.append(eye[:, i] + eye[:, j])
            cols.append(eye[:, i] - eye[:, j])
    if not cols:
        return np.zeros((p, 0))
    return np.stack(cols, axis=1)


def check_onp(eig: SymEig, support, tol: float = 1e-10) -> OnpReport:
    """Orthogonal nullspace property of the covariance with respect to S.

    `eig` is the covariance's eigendecomposition; its rank tolerance sets
    the numerical nullspace.

    Every numerical nullspace direction must be orthogonal (inner products
    at most tol) to every cone generator.  Full-rank covariances hold
    trivially; a nonempty S with a nontrivial nullspace fails whenever any
    generator leaks into the nullspace.  For a direction v the largest
    inner product is max_{i in S} |v_i| + max_{j not in S} |v_j|, since
    |<v, e_i +- e_j>| peaks at |v_i| + |v_j| (just the first term when S is
    everything), so `_cone_generators` is never built.
    """
    support = np.asarray(sorted(set(int(i) for i in np.atleast_1d(support))), dtype=int)
    if support.size and (support[0] < 0 or support[-1] >= eig.p):
        raise ValueError("support indices out of range")
    null = eig.null_basis()
    k = support.size
    max_violation = 0.0
    if null.shape[1] and k:
        mag = np.abs(null)
        worst = mag[support].max(axis=0)
        if k < eig.p:
            worst = worst + np.delete(mag, support, axis=0).max(axis=0)
        max_violation = float(worst.max())
    return OnpReport(
        holds=max_violation <= tol,
        null_dim=int(null.shape[1]),
        max_violation=max_violation,
        vacuous=bool(support.size == 0 and null.shape[1] > 0),
    )


def check_recoverable(
    cov: np.ndarray,
    signal: np.ndarray,
    active: np.ndarray,
    factors: Sequence,
    tol: float = 1e-10,
) -> RecoveryCheck:
    """Does each restricted signal of a stack survive projection onto range(Ups)?

    `cov` holds T covariance entries (T, p, p), `signal` the T full-length
    signals (T, p) and `active` one index set per slice (T, m).  Per slice,
    Ups = Sigma_A is the principal submatrix on the active indices and s_A
    the matching entries of the signal; residual = ||Ups^+ Ups s_A - s_A||_inf,
    ok when it is at most tol.  The pruning guarantee needs this to hold at
    every round.  Ups^+ comes from the slice's entry of `factors`, as a round
    of `run_imp` trains with it: a SymEig of Ups, or its precomputed
    (pseudo-)inverse; a (T, m, m) array of inverses is used as it is.  ok and
    residual are length-T arrays.
    """
    entries = np.asarray(cov)
    signal = np.asarray(signal, dtype=float)
    active = np.asarray(active, dtype=int)
    if signal.shape != entries.shape[:-1]:
        raise ValueError("signal length must match the covariance dimension")
    if len(factors) != active.shape[0]:
        raise ValueError("pass exactly one factorization per slice")
    p = entries.shape[-1]
    t = np.arange(active.shape[0])[:, None]
    s_active = signal[t, active]
    # one flat index gathers the stack faster than three broadcast ones
    rows = (t * p + active) * p
    sub = np.ravel(entries).take(rows[:, :, None] + active[:, None, :])
    inverse = factors if isinstance(factors, np.ndarray) else np.stack(
        [pseudo_inverse(f) if isinstance(f, SymEig) else f for f in factors])
    projected = (inverse @ (sub @ s_active[..., None]))[..., 0]
    residual = np.max(np.abs(projected - s_active), axis=-1, initial=0.0)
    return RecoveryCheck(ok=residual <= tol, residual=residual)


def recovery_sample_size_raw(b: BoundInputs) -> float:
    """Pre-ceiling recovery sample size (8 sigma^2 / (margin^2 lambda)) ln(2p/delta)."""
    return (8.0 * b.sigma**2) / (b.margin**2 * b.lambda_min_nz) * math.log(2.0 * b.p / b.delta)


def recovery_sample_size(b: BoundInputs) -> int:
    """Samples sufficient for no false exclusion above the margin, whp."""
    return max(1, math.ceil(recovery_sample_size_raw(b)))


def concentration_sample_size_raw(b: BoundInputs) -> float:
    """Pre-ceiling concentration sample size (2 sigma^2 / (margin^2 lambda)) ln(2p/delta)."""
    return (2.0 * b.sigma**2) / (b.margin**2 * b.lambda_min_nz) * math.log(2.0 * b.p / b.delta)


def concentration_sample_size(b: BoundInputs) -> int:
    """Samples sufficient for max_j |(1/n)(Sigma^+ Phi^T xi)_j| < margin, whp."""
    return max(1, math.ceil(concentration_sample_size_raw(b)))


def noise_projector(features: FeatureSet) -> np.ndarray:
    """(1/n) Sigma^+ Phi^T, the map from a noise vector xi to the trained-weight
    perturbation it causes; the concentration event bounds its sup norm."""
    pinv = pseudo_inverse(sym_eig(features.covariance))
    return pinv @ features.phi.T / features.n

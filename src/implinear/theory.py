"""Executable forms of the recovery guarantees.

The orthogonal nullspace property check, the per-round recoverability
certificate, the two sample-size bounds (support recovery and max-noise
concentration), the noise projector (1/n) Sigma^+ Phi^T behind the
concentration bound, and the Monte Carlo summary with its exact binomial
interval.  Logs are natural throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .designs import FeatureSet
from .flow import INFINITE, closed_form_weights
from .linalg import SymEig, pseudo_inverse, sym_eig


class BoundInputs:
    """Quantities the sample-size bounds depend on.

    margin is the magnitude floor gamma for the recovery bound and the
    exceedance level epsilon for the concentration bound.  sigma = 0 is
    allowed (noiseless experiments); everything else must be positive.
    """

    __slots__ = ("sigma", "margin", "lambda_min_nz", "p", "delta")

    def __init__(self, sigma: float, margin: float, lambda_min_nz: float, p: int,
                 delta: float) -> None:
        if sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if margin <= 0.0:
            raise ValueError("margin must be positive")
        if lambda_min_nz <= 0.0:
            raise ValueError("lambda_min_nz must be positive")
        if p < 1:
            raise ValueError("p must be a positive integer")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self.sigma, self.margin, self.lambda_min_nz = sigma, margin, lambda_min_nz
        self.p, self.delta = p, delta


class McSummary(NamedTuple):
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


# The orthogonal nullspace property holds when check_onp's violation is at most this.
ONP_TOL = 1e-8


def check_onp(eig: SymEig, support) -> float:
    """Violation of the orthogonal nullspace property of the covariance w.r.t. S.

    `eig` is the covariance's eigendecomposition; its rank tolerance sets
    the numerical nullspace.

    The property holds when every numerical nullspace direction is
    orthogonal (inner products at most ONP_TOL) to every cone generator;
    the violation is the largest such inner product.  It is 0.0 for a
    full-rank covariance or an empty S.  For a direction v the largest
    inner product is max_{i in S} |v_i| + max_{j not in S} |v_j|, since
    |<v, e_i +- e_j>| peaks at |v_i| + |v_j| (just the first term when S is
    everything), so `_cone_generators` is never built.
    """
    support = np.asarray(sorted(set(int(i) for i in np.atleast_1d(support))), dtype=int)
    if support.size and (support[0] < 0 or support[-1] >= eig.p):
        raise ValueError("support indices out of range")
    null = eig.null_basis()
    if not (null.shape[1] and support.size):
        return 0.0
    mag = np.abs(null)
    worst = mag[support].max(axis=0)
    if support.size < eig.p:
        worst = worst + np.delete(mag, support, axis=0).max(axis=0)
    return float(worst.max())


def check_recoverable(eig: SymEig, cov_signal: np.ndarray, signal: np.ndarray) -> float:
    """How far does a restricted signal move under projection onto range(Ups)?

    With A the active indices in some order and Ups = Sigma_A the principal
    submatrix on them: `eig` is the eigendecomposition of Ups, rows in the
    order of A, `signal` holds s_A and `cov_signal` holds Ups s_A, each of
    length eig.p.  The result is residual = ||Ups^+ Ups s_A - s_A||_inf,
    with Ups^+ applied in the eigenbasis as V (Lambda^+ (V^T u)), the
    least-squares fit `closed_form_weights` trains to at the infinite
    horizon.  The pruning guarantee needs it to vanish at every round.
    """
    if np.shape(cov_signal) != (eig.p,) or np.shape(signal) != (eig.p,):
        raise ValueError(f"cov_signal and signal must have length eig.p = {eig.p}")
    fit = closed_form_weights(eig, cov_signal, np.zeros(eig.p), INFINITE)
    return float(np.max(np.abs(fit - signal), initial=0.0))


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

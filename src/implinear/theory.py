"""Executable forms of the recovery guarantees.

The orthogonal nullspace property check, the per-round recoverability
certificate, the two sample-size bounds (support recovery and max-noise
concentration), the noise functional (1/n) Sigma^+ Phi^T xi, and a Monte
Carlo estimator of how often that functional's sup norm exceeds a level.
Logs are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import stats

from .designs import FeatureSet, sample_noise
from .linalg import CovMatrix, pseudo_inverse, sym_eig


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
    generators_checked: int
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
    ok: bool
    residual: float


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
    """Clopper-Pearson interval for k successes out of n."""
    res = stats.binomtest(k, n).proportion_ci(confidence_level=confidence, method="exact")
    return float(res.low), float(res.high)


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
    finite.
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


def check_onp(
    cov: CovMatrix,
    support,
    tol: float = 1e-10,
    rank_tol: float | None = None,
) -> OnpReport:
    """Orthogonal nullspace property of the covariance with respect to S.

    Every numerical nullspace direction must be orthogonal (inner products
    at most tol) to every cone generator.  Full-rank covariances hold
    trivially; a nonempty S with a nontrivial nullspace fails whenever any
    generator leaks into the nullspace.
    """
    support = np.asarray(sorted(set(int(i) for i in np.atleast_1d(support))), dtype=int)
    if support.size and (support[0] < 0 or support[-1] >= cov.p):
        raise ValueError("support indices out of range")
    eig = sym_eig(cov, rank_tol)
    null = eig.null_basis()
    k = support.size
    max_violation = 0.0
    if null.shape[1] and k:  # build the generators only when there is a nullspace to test
        max_violation = float(np.max(np.abs(null.T @ _cone_generators(cov.p, support))))
    return OnpReport(
        holds=max_violation <= tol,
        null_dim=int(null.shape[1]),
        max_violation=max_violation,
        generators_checked=k * (2 * (cov.p - k) + 1),
        vacuous=bool(support.size == 0 and null.shape[1] > 0),
    )


def check_recoverable(
    cov_active: CovMatrix,
    s_active: np.ndarray,
    tol: float = 1e-10,
    rank_tol: float | None = None,
    eig=None,
    inverse: np.ndarray | None = None,
) -> RecoveryCheck:
    """Does the restricted signal survive projection onto range(Ups)?

    residual = ||Ups^+ Ups s_A - s_A||_inf; ok when it is at most tol.  The
    pruning guarantee needs this to hold at every round.  A precomputed
    eigendecomposition of cov_active, or its precomputed (pseudo-)inverse,
    may be passed to avoid refactorizing; the inverse takes precedence.
    """
    s_active = np.asarray(s_active, dtype=float)
    if s_active.shape != (cov_active.p,):
        raise ValueError("signal restriction must match the covariance dimension")
    if inverse is None:
        inverse = pseudo_inverse(eig if eig is not None else sym_eig(cov_active, rank_tol))
    projected = inverse @ (cov_active.entries @ s_active)
    residual = float(np.max(np.abs(projected - s_active))) if s_active.size else 0.0
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


def noise_functional(features: FeatureSet, xi: np.ndarray) -> np.ndarray:
    """(1/n) Sigma^+ Phi^T xi, the trained-weight perturbation due to noise."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (features.n,):
        raise ValueError("noise vector length must match the number of rows")
    pinv = pseudo_inverse(sym_eig(features.covariance))
    return pinv @ (features.phi.T @ xi) / features.n


def noise_exceedance_mc(
    features: FeatureSet,
    noise_kind: str,
    sigma: float,
    epsilon: float,
    trials: int,
    seed: int,
    delta: float = 1.0,
) -> McSummary:
    """Fraction of noise draws whose functional sup norm reaches epsilon.

    The design is held fixed; trial t draws noise with seed `seed + t`.  A
    trial fails when max_j |(1/n)(Sigma^+ Phi^T xi)_j| >= epsilon, the
    complement of the concentration event.  `delta` is the budget the
    summary is judged against (default 1.0: report only).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    pinv = pseudo_inverse(sym_eig(features.covariance))
    projector = pinv @ features.phi.T / features.n
    exceed = 0
    for t in range(trials):
        xi = sample_noise(noise_kind, sigma, features.n, seed + t)
        if float(np.max(np.abs(projector @ xi))) >= epsilon:
            exceed += 1
    return make_mc_summary(trials, {"exceedance": exceed}, exceed, delta)

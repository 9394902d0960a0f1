"""Pruning and sparse-estimation baselines to compare against IMP.

The alignment ordering ranks features by |phi_j^T y|, the projection of the
targets onto each feature.  Hard thresholding zeroes the least-squares
estimate below tau.  Iterative hard thresholding alternates a gradient step
on (1/2)||y - Phi s||^2 with the same thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import FeatureSet
# Not called here: benchmarks/tracing.py wraps both at this module's names,
# so they stay bound (tests/test_bench_contract.py).
from .linalg import pseudo_inverse, sym_eig  # noqa: F401

DIVERGENCE_LIMIT = 1e12


class IhtDivergenceError(RuntimeError):
    """Iterates blew up: the step size is too large for the design spectrum."""


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold tau, step size eta, and stopping rules for IHT."""

    tau: float
    eta: float = 1.0
    max_iters: int = 10_000
    convergence_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.convergence_tol < 0.0:
            raise ValueError("convergence_tol must be nonnegative")


class IhtResult(NamedTuple):
    estimate: np.ndarray
    iters_used: int
    converged: bool


def alignment_order(features: FeatureSet) -> np.ndarray:
    """Indices sorted by |phi_j^T y| ascending; ties go to the lowest index."""
    scores = np.abs(features.phi.T @ features.require_targets())
    return np.argsort(scores, kind="stable")


def hard_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Keep entries with |z| strictly above tau, zero the rest."""
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) > tau, v, 0.0)


def ht_estimator(features: FeatureSet, tau: float, pinv: np.ndarray) -> np.ndarray:
    """Least squares through `pinv`, the pseudo-inverse Sigma^+ of the
    design's covariance, then hard thresholding."""
    y = features.require_targets()
    s_hat = pinv @ (features.phi.T @ y) / features.n
    return hard_threshold(s_hat, tau)


def iht(features: FeatureSet, config: ThresholdConfig) -> IhtResult:
    """Iterative hard thresholding.

    Update: s <- H_tau(s + eta * Phi^T (y - Phi s)), stopping when the sup
    change drops to convergence_tol or max_iters is hit.  eta multiplies the
    raw gradient of (1/2)||y - Phi s||^2; eta = 1/n makes the inner step
    equal the gradient-flow step on the (1/2n)-scaled loss.  Iterates past
    1e12 in magnitude abort with IhtDivergenceError.
    """
    y = features.require_targets()
    phi = features.phi
    s = np.zeros(features.p)
    for it in range(1, config.max_iters + 1):
        step = s + config.eta * (phi.T @ (y - phi @ s))
        s_new = hard_threshold(step, config.tau)
        if np.max(np.abs(s_new)) > DIVERGENCE_LIMIT:
            raise IhtDivergenceError("step size too large for spectrum")
        if np.max(np.abs(s_new - s)) <= config.convergence_tol:
            return IhtResult(estimate=s_new, iters_used=it, converged=True)
        s = s_new
    return IhtResult(estimate=s, iters_used=config.max_iters, converged=False)

"""Pruning and sparse-estimation baselines to compare against IMP.

All three read the data as IMP does, through Sigma = Phi^T Phi / n and
b = Phi^T y / n, or through Phi^T y itself.  The alignment ordering ranks
features by |phi_j^T y|, the projection of the targets onto each feature.
Hard thresholding zeroes the least-squares estimate Sigma^+ b below tau.
Iterative hard thresholding alternates that thresholding with a gradient
step s + eta * (b - Sigma s) on the normal equations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Not called here: benchmarks/tracing.py wraps both at this module's names,
# so they stay bound (tests/test_bench_contract.py).
from .linalg import pseudo_inverse, sym_eig  # noqa: F401

DIVERGENCE_LIMIT = 1e12


class IhtDivergenceError(RuntimeError):
    """Iterates blew up: the step size is too large for the design spectrum."""


class ThresholdConfig:
    """Threshold tau, step size eta, and stopping rules for IHT."""

    __slots__ = ("tau", "eta", "max_iters", "convergence_tol")

    def __init__(self, tau: float, eta: float = 1.0, max_iters: int = 10_000,
                 convergence_tol: float = 1e-10) -> None:
        if tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if eta <= 0.0:
            raise ValueError("eta must be positive")
        if max_iters < 1:
            raise ValueError("max_iters must be positive")
        if convergence_tol < 0.0:
            raise ValueError("convergence_tol must be nonnegative")
        self.tau, self.eta, self.max_iters, self.convergence_tol = (
            tau, eta, max_iters, convergence_tol)


class IhtResult(NamedTuple):
    """(G, S, p) estimates of a stack; per run, its last iteration and
    convergence, (G, S)."""

    estimate: np.ndarray
    iters: np.ndarray
    converged: np.ndarray

    @property
    def iters_used(self) -> int:  # iterations of the stacked loop
        return int(self.iters.max(initial=0))


def alignment_order(xty: np.ndarray) -> np.ndarray:
    """Indices sorted by |phi_j^T y| ascending, given xty = Phi^T y; ties go
    to the lowest index."""
    return np.argsort(np.abs(xty), kind="stable")


def hard_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Keep entries with |z| strictly above tau, zero the rest."""
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) > tau, v, 0.0)


def ht_estimator(b: np.ndarray, tau: float, pinv: np.ndarray) -> np.ndarray:
    """H_tau(Sigma^+ b): least squares through `pinv`, the pseudo-inverse
    Sigma^+ of the design's covariance, then hard thresholding."""
    return hard_threshold(pinv @ b, tau)


def iht(cov: np.ndarray, b: np.ndarray, config: ThresholdConfig) -> IhtResult:
    """Iterative hard thresholding on a (G, p, p) stack of covariances
    Sigma = Phi^T Phi / n and the (G, S, p) stack b of Phi^T y / n: run (g, j)
    fits b[g, j] on cov[g], so the S runs of a group share one Sigma.

    Each run iterates s <- H_tau(s + eta * (b - Sigma s)) from s = 0 and stops
    at its own iteration, when the sup change drops to convergence_tol or at
    max_iters; eta is in units of the (1/n)-scaled step, so eta = 1 is the
    gradient-flow step.  A finished run is frozen in place while the others
    go on.  A single run is a stack of one.  An iterate of a running run past
    1e12 in magnitude aborts with IhtDivergenceError.
    """
    if b.ndim != 3 or cov.shape != (len(b),) + b.shape[-1:] * 2:
        raise ValueError(f"need cov of shape (G, p, p) and b of shape (G, S, p), got "
                         f"{cov.shape} and {b.shape}")
    s = np.zeros(b.shape)
    live = np.ones(b.shape[:-1], dtype=bool)
    iters, converged = np.full(live.shape, config.max_iters), np.zeros(live.shape, dtype=bool)
    for it in range(1, config.max_iters + 1):
        # Sigma s by broadcasting: one matrix-vector product per run, as unshared
        s_new = hard_threshold(s + config.eta * (b - (cov[:, None] @ s[..., None])[..., 0]),
                               config.tau)
        np.copyto(s_new, s, where=~live[..., None])  # finished runs stay frozen
        if (np.abs(s_new) > DIVERGENCE_LIMIT).any():
            raise IhtDivergenceError("step size too large for spectrum")
        done = np.max(np.abs(s_new - s), axis=-1) <= config.convergence_tol
        done &= live
        s = s_new
        if done.any():
            iters[done], converged[done] = it, True
            live &= ~done
            if not live.any():
                break
    return IhtResult(s, iters, converged)

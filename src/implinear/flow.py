"""Exact solutions of masked gradient flow on the mean-squared-error loss.

Training dynamics are w' = b - Ups w on the columns that survive the mask,
with Ups = (1/n) Phi_A^T Phi_A the restricted covariance and
b = (1/n) Phi_A^T y the data vector.  `closed_form_weights`, which the
engine trains every round with, solves them in the eigenbasis of Ups, where
every coordinate is an independent scalar ODE, so finite and infinite
horizons both have closed forms.  Its independent numerical oracle, a
classical RK4 integrator of the same ODE on the same inputs, is
`flow_rk4` in `tests/oracles.py`, outside the library.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SymEig
# Not called here: benchmarks/tracing.py wraps sym_eig at this module's name,
# so it stays bound (tests/test_bench_contract.py).
from .linalg import sym_eig  # noqa: F401


INFINITE = math.inf  # the horizon of training to convergence (t -> infinity)


def is_infinite(horizon) -> bool:
    return horizon == INFINITE


def normalize_horizon(horizon):
    """Validate a horizon: a positive finite float, or INFINITE."""
    if is_infinite(horizon):
        return INFINITE
    t = float(horizon)
    if not np.isfinite(t) or t <= 0.0:
        raise ValueError(f"horizon must be positive or INFINITE, got {horizon!r}")
    return t


def closed_form_weights(
    eig: SymEig, data_vec: np.ndarray, w0: np.ndarray, horizon
) -> np.ndarray:
    """Solve the flow in the eigenbasis of the restricted covariance.

    Modes with eigenvalue above the rank tolerance relax exponentially
    toward their least-squares value c/lambda; modes at or below it carry no
    gradient (the data vector lives in the range of the covariance) and
    keep their initial value at every horizon.  With w0 = 0 and an
    infinite horizon this is Ups^+ b, the minimum-norm least-squares solution.
    """
    v = eig.eigenvectors
    lam = eig.eigenvalues
    nz = eig.nonzero_mask()
    c = v.T @ data_vec
    w0_hat = v.T @ w0
    w_hat = w0_hat.copy()
    lam_nz = lam[nz]
    if is_infinite(horizon):
        w_hat[nz] = c[nz] / lam_nz
    else:
        stationary_part = c[nz] / lam_nz
        w_hat[nz] = stationary_part + np.exp(-lam_nz * float(horizon)) * (
            w0_hat[nz] - stationary_part
        )
    return v @ w_hat

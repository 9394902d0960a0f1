"""Exact solutions of masked gradient flow on the mean-squared-error loss.

Training dynamics are w' = b - Ups w on the columns that survive the mask,
with Ups = (1/n) Phi_A^T Phi_A the restricted covariance and
b = (1/n) Phi_A^T y the data vector.  `closed_form_weights`, which the
engine trains every round with, solves them in the eigenbasis of Ups, where
every coordinate is an independent scalar ODE, so finite and infinite
horizons both have closed forms.  `flow_rk4`, a classical fixed-step RK4
integrator of the same ODE on the same inputs, is its independent numerical
oracle.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import CovMatrix, SymEig, operator_norm, sym_eig


class _InfiniteHorizon:
    """Tag for training to convergence (t -> infinity)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _InfiniteHorizon()

Horizon = float | _InfiniteHorizon


class StabilityWarning(UserWarning):
    """Raised (as a warning) when an RK4 step exceeds the stable region."""


def is_infinite(horizon) -> bool:
    return isinstance(horizon, _InfiniteHorizon) or (
        isinstance(horizon, float) and np.isinf(horizon)
    )


def normalize_horizon(horizon):
    """Validate a horizon: positive finite float, or the INFINITE tag.

    float('inf') is accepted and normalized to the tag so callers never
    carry a sentinel float around.
    """
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


def flow_rk4(
    cov: CovMatrix, data_vec: np.ndarray, w0: np.ndarray, horizon: float, step_count: int
) -> np.ndarray:
    """Classical fixed-step RK4 integration of the training ODE w' = b - Ups w.

    The inputs are those of `closed_form_weights`, with the covariance Ups in
    place of its eigendecomposition.  The ODE is linear, so one RK4 step is
    the affine map w -> R w + r with R the degree-4 truncation of exp(-h*Ups)
    and r the matching polynomial applied to the data vector b; `step_count`
    steps are that map composed with itself, evaluated here by binary
    doubling.  The result is exactly the classical-RK4 iterate, independent
    of the eigendecomposition route used by the closed form.
    """
    if is_infinite(horizon):
        raise ValueError("RK4 oracle needs a finite horizon; use closed_form_weights")
    steps = int(step_count)
    if steps < 1:
        raise ValueError("step_count must be >= 1")
    h = float(normalize_horizon(horizon)) / steps

    lam_max = operator_norm(sym_eig(cov))
    if lam_max > 0.0 and h > 2.0 / lam_max:
        warnings.warn(
            f"RK4 step {h:.3g} exceeds 2/lambda_max = {2.0 / lam_max:.3g}; "
            "the integration may be unstable",
            StabilityWarning,
            stacklevel=2,
        )

    b = data_vec
    m_mat = h * cov.entries
    m2 = m_mat @ m_mat
    m3 = m2 @ m_mat
    m4 = m3 @ m_mat
    eye = np.eye(cov.p)
    r_step = eye - m_mat + m2 / 2.0 - m3 / 6.0 + m4 / 24.0
    s_step = h * (b - m_mat @ b / 2.0 + m2 @ b / 6.0 - m3 @ b / 24.0)

    # Compose the affine step map `steps` times by repeated squaring.
    acc_r, acc_s = eye, np.zeros(cov.p)
    pow_r, pow_s = r_step, s_step
    k = steps
    while k:
        if k & 1:
            acc_s = pow_r @ acc_s + pow_s
            acc_r = pow_r @ acc_r
        k >>= 1
        if k:
            pow_s = pow_r @ pow_s + pow_s
            pow_r = pow_r @ pow_r

    return acc_r @ w0 + acc_s

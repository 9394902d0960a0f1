"""Numerical oracles that the tests check the library against.

`flow_rk4` integrates the training ODE w' = b - Ups w by classical RK4, a
route independent of the eigenbasis solution `closed_form_weights` that the
engine trains with.  The package never calls it, so it lives here.  Pytest
does not collect this file; test modules import it by name.
"""

from __future__ import annotations

import warnings

import numpy as np

from implinear.flow import is_infinite, normalize_horizon
from implinear.linalg import CovMatrix, SymEig, sym_eig


class StabilityWarning(UserWarning):
    """Raised (as a warning) when an RK4 step exceeds the stable region."""


def operator_norm(eig: SymEig) -> float:
    """Spectral norm: largest eigenvalue magnitude."""
    if eig.eigenvalues.size == 0:
        return 0.0
    return float(np.max(np.abs(eig.eigenvalues)))


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

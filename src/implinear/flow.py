"""Exact solutions of masked gradient flow on the mean-squared-error loss.

Training dynamics are w' = -(1/n) Phi_A^T (Phi_A w - y) on the columns that
survive the mask.  In the eigenbasis of the restricted covariance every
coordinate is an independent scalar ODE, so finite and infinite horizons
both have closed forms.  A classical fixed-step RK4 integrator of the same
ODE serves as an independent numerical oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FlowProblem:
    """One training run: active feature columns, targets, start point, horizon."""

    features_active: np.ndarray  # (n, m)
    targets: np.ndarray  # (n,)
    w0_active: np.ndarray  # (m,)
    horizon: Horizon

    def __post_init__(self) -> None:
        phi = np.asarray(self.features_active, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        w0 = np.asarray(self.w0_active, dtype=float)
        if phi.ndim != 2 or phi.shape[1] < 1:
            raise ValueError(f"features_active must be n x m with m >= 1, got {phi.shape}")
        if y.ndim != 1 or y.shape[0] != phi.shape[0]:
            raise ValueError("targets length must match feature rows")
        if w0.ndim != 1 or w0.shape[0] != phi.shape[1]:
            raise ValueError("w0_active length must match feature columns")
        object.__setattr__(self, "features_active", phi)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "w0_active", w0)
        object.__setattr__(self, "horizon", normalize_horizon(self.horizon))

    @property
    def n(self) -> int:
        return self.features_active.shape[0]

    @property
    def m(self) -> int:
        return self.features_active.shape[1]

    def covariance(self) -> CovMatrix:
        c = self.features_active.T @ self.features_active
        return CovMatrix((c + c.T) / (2.0 * self.n))

    def data_vector(self) -> np.ndarray:
        """(1/n) Phi_A^T y, the constant term of the gradient."""
        return self.features_active.T @ self.targets / self.n


@dataclass(frozen=True)
class FlowSolution:
    weights_active: np.ndarray
    stationary: bool
    residual_norm: float


def quadratic_loss(features: np.ndarray, targets: np.ndarray, w: np.ndarray) -> float:
    """L(w) = (1/2n) ||Phi w - y||_2^2."""
    r = features @ w - targets
    return float(r @ r) / (2.0 * features.shape[0])


def closed_form_weights(
    eig: SymEig, data_vec: np.ndarray, w0: np.ndarray, horizon
) -> np.ndarray:
    """Solve the flow in the eigenbasis of the restricted covariance.

    Modes with eigenvalue above the rank tolerance relax exponentially
    toward their least-squares value c/lambda; modes at or below it carry no
    gradient (the data vector lives in the range of the covariance) and
    keep their initial value at every horizon.
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


def flow_closed_form(problem: FlowProblem, eig: SymEig | None = None) -> FlowSolution:
    """Exact weights at the problem's horizon.

    With w0 = 0 and an infinite horizon this is the pseudo-inverse
    least-squares solution (1/n) Ups^+ Phi_A^T y.  A precomputed `eig` of
    the restricted covariance may be supplied to avoid refactorizing.
    """
    if eig is None:
        eig = sym_eig(problem.covariance())
    elif eig.p != problem.m:
        raise ValueError("precomputed eigendecomposition has wrong dimension")
    w = closed_form_weights(eig, problem.data_vector(), problem.w0_active, problem.horizon)
    residual = float(np.linalg.norm(problem.features_active @ w - problem.targets))
    return FlowSolution(
        weights_active=w,
        stationary=is_infinite(problem.horizon),
        residual_norm=residual,
    )


def flow_rk4(problem: FlowProblem, step_count: int) -> FlowSolution:
    """Classical fixed-step RK4 integration of the training ODE.

    The ODE is linear, so one RK4 step is the affine map
    w -> R w + r with R the degree-4 truncation of exp(-h*Ups) and r the
    matching polynomial applied to the data vector; `step_count` steps are
    that map composed with itself, evaluated here by binary doubling.  The
    result is exactly the classical-RK4 iterate, independent of the
    eigendecomposition route used by the closed form.
    """
    if is_infinite(problem.horizon):
        raise ValueError("RK4 oracle needs a finite horizon; use flow_closed_form")
    steps = int(step_count)
    if steps < 1:
        raise ValueError("step_count must be >= 1")
    t_final = float(problem.horizon)
    h = t_final / steps

    cov = problem.covariance()
    ups = cov.entries
    b = problem.data_vector()
    lam_max = operator_norm(sym_eig(cov))
    if lam_max > 0.0 and h > 2.0 / lam_max:
        warnings.warn(
            f"RK4 step {h:.3g} exceeds 2/lambda_max = {2.0 / lam_max:.3g}; "
            "the integration may be unstable",
            StabilityWarning,
            stacklevel=2,
        )

    m_mat = h * ups
    m2 = m_mat @ m_mat
    m3 = m2 @ m_mat
    m4 = m3 @ m_mat
    eye = np.eye(problem.m)
    r_step = eye - m_mat + m2 / 2.0 - m3 / 6.0 + m4 / 24.0
    s_step = h * (b - m_mat @ b / 2.0 + m2 @ b / 6.0 - m3 @ b / 24.0)

    # Compose the affine step map `steps` times by repeated squaring.
    acc_r, acc_s = eye, np.zeros(problem.m)
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

    w = acc_r @ problem.w0_active + acc_s
    residual = float(np.linalg.norm(problem.features_active @ w - problem.targets))
    return FlowSolution(weights_active=w, stationary=False, residual_norm=residual)

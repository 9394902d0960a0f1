"""Numerical oracles that the tests check the library against.

`flow_rk4` integrates the training ODE w' = b - Ups w by classical RK4, a
route independent of the eigenbasis solution `closed_form_weights` that the
engine trains with.  `recover_failure_probability`,
`lemma1_exceedance_probability` and `ht_recovery_probability` are exact
probabilities on the orthonormal design with Gaussian noise, which no
simulation computes.  The package never calls any of them, so they live
here.  Pytest does not collect this file; test modules import it by name.
"""

from __future__ import annotations

import math
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


def recover_failure_probability(
    n: int, p: int, k: int, gamma: float, sigma: float, survivors: int
) -> float:
    """P(some support coordinate is pruned) for IMP on the orthonormal design
    with Gaussian noise and the constant amplitude law.

    There Sigma = I, so every round trains w_A proportional to b_A and prunes
    the smallest active |b_i|, with b ~ N(s, sigma^2 / n I).  A trial succeeds
    exactly when the k support coordinates are among the `survivors` largest
    |b_i| (m = p - q * per_round).  With F_0 and F_S the laws of |b_i| off and
    on the support, conditioning on the smallest support magnitude x gives
    (David & Nagaraja, Order Statistics, 3rd ed., 2003)

        P(success) = int k f_S(x) (1 - F_S(x))^(k-1) P(Bin(p-k, 1 - F_0(x)) <= m-k) dx.

    Integrated with scipy's `quad`, which the package does not load.
    """
    from scipy import integrate, stats

    tau = sigma / math.sqrt(n)
    norm = stats.norm(scale=tau)

    def density(x: float) -> float:
        f_s = norm.pdf(x - gamma) + norm.pdf(x + gamma)
        tail_s = norm.sf(x - gamma) + norm.cdf(-x - gamma)  # 1 - F_S(x)
        tail_0 = 2.0 * norm.sf(x)  # 1 - F_0(x)
        return k * f_s * tail_s ** (k - 1) * stats.binom.cdf(survivors - k, p - k, tail_0)

    lo, hi = max(0.0, gamma - 12.0 * tau), gamma + 12.0 * tau
    success, _ = integrate.quad(density, lo, hi, points=[gamma], epsabs=1e-13, epsrel=1e-10,
                                limit=200)
    return 1.0 - success


def _std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def lemma1_exceedance_probability(n: int, p: int, epsilon: float, sigma: float) -> float:
    """P(||(1/n) Sigma^+ Phi^T xi||_inf >= epsilon) on the orthonormal design
    with Gaussian noise.

    There (1/n) Sigma^+ Phi^T xi = Q^T xi / sqrt(n) ~ N(0, sigma^2 / n I), so
    its p coordinates are independent and, with N the standard normal
    distribution function,

        P(exceed) = 1 - (2 N(epsilon sqrt(n) / sigma) - 1)^p.
    """
    return 1.0 - math.erf(epsilon * math.sqrt(n) / (sigma * math.sqrt(2.0))) ** p


def ht_recovery_probability(
    n: int, p: int, k: int, gamma: float, sigma: float, tau: float
) -> float:
    """P(hard thresholding at tau recovers the support exactly) on the
    orthonormal design with Gaussian noise and the constant amplitude law.

    There Sigma^+ b = b ~ N(s, sigma^2 / n I), and the estimate keeps the
    coordinates with |b_i| > tau, so with F_0 and F_S the laws of |b_i| off
    and on the support

        P(exact) = (1 - F_S(tau))^k F_0(tau)^(p-k).
    """
    scale = sigma / math.sqrt(n)
    above_s = _std_normal_cdf((gamma - tau) / scale) + _std_normal_cdf((-gamma - tau) / scale)
    below_0 = math.erf(tau / (scale * math.sqrt(2.0)))
    return above_s ** k * below_0 ** (p - k)

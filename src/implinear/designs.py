"""Seeded generators for feature designs, sparse signals, and noise.

Every generator is a pure function of its parameters and a 64-bit seed.
Randomness comes from the counter-based Philox generator keyed by
(seed, stream), with one fixed stream id per purpose, so the same seed
always reproduces the same problem bit for bit and distinct purposes never
share a stream even when neighbouring seeds are used for neighbouring
trials.

The design generators return Phi with its covariance Sigma = Phi^T Phi / n.
`assemble_problem` adds a signal and noise and keeps what the layers after
it read: Sigma and b = Phi^T y / n, the normal equations of the
least-squares loss; Phi and y do not leave it.  On the orthonormal design
with Gaussian noise it draws them from their exact law with no Phi:
Sigma = I and b - s = Q^T xi / sqrt(n) ~ N(0, sigma^2 / n I).
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, NamedTuple

import numpy as np
# numpy loads numpy.random lazily; importing it here puts that cost in the
# import of implinear rather than in the first trial.
from numpy.random import Generator, Philox

from .linalg import CovMatrix, psd_sqrt, sym_eig

NOISE_KINDS = ("gaussian", "rademacher", "uniform")
AMPLITUDE_LAWS = ("constant", "uniform", "rademacher")
# The largest bound of a uniform law: each spans twice its bound, and
# Generator.uniform draws only from a range of finite width.
UNIFORM_MAX = sys.float_info.max / 2

STREAM_DESIGN = 0
STREAM_SIGNAL = 1
STREAM_NOISE = 2
STREAM_TARGETS = 3

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = STREAM_DESIGN) -> Generator:
    """Philox generator keyed by (seed, stream)."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))


class FeatureSet(NamedTuple):
    """Design matrix Phi (rows are examples) and its covariance Phi^T Phi / n."""

    phi: np.ndarray
    covariance: CovMatrix

    @classmethod
    def from_phi(cls, phi: np.ndarray) -> "FeatureSet":
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ValueError(f"phi must be n x p with n, p >= 1, got shape {phi.shape}")
        gram = phi.T @ phi
        return cls(phi=phi, covariance=CovMatrix((gram + gram.T) / (2.0 * phi.shape[0])))

    @property
    def n(self) -> int:
        return self.phi.shape[0]


class SparseProblem(NamedTuple):
    """A k-sparse ground truth s with observations y = Phi s + xi, kept as the
    normal equations: Sigma = Phi^T Phi / n and b = Phi^T y / n."""

    covariance: CovMatrix
    b: np.ndarray
    n: int
    signal: np.ndarray
    support: tuple[int, ...]
    gamma: float


def _orthonormal_columns(rng: Generator, n: int, p: int) -> np.ndarray:
    """QR-orthonormalized Gaussian matrix with a deterministic sign fix."""
    g = rng.standard_normal((n, p))
    q, r = np.linalg.qr(g)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs


def gen_orthonormal_design(n: int, p: int, seed: int) -> FeatureSet:
    """Design with covariance exactly the identity.

    Phi = sqrt(n) Q for Q with orthonormal columns, which needs n >= p.
    """
    check_design("orthonormal", p, n)
    rng = make_rng(seed, STREAM_DESIGN)
    q = _orthonormal_columns(rng, n, p)
    return FeatureSet.from_phi(np.sqrt(n) * q)


def gen_uniform_corr_design(n: int, p: int, alpha: float, seed: int) -> FeatureSet:
    """Design whose covariance is (1 - alpha) I + alpha 11^T, alpha in (0, 1)."""
    check_design("uniform_corr", p, n, alpha)
    rng = make_rng(seed, STREAM_DESIGN)
    q = _orthonormal_columns(rng, n, p)
    target = (1.0 - alpha) * np.eye(p) + alpha * np.ones((p, p))
    root = psd_sqrt(sym_eig(CovMatrix(target)))
    return FeatureSet.from_phi(np.sqrt(n) * q @ root)


def pairwise_incoherence(cov: CovMatrix) -> float:
    """max_{i,j} |Sigma_ij - 1{i=j}|, the entrywise distance from identity."""
    return float(np.max(np.abs(cov.entries - np.eye(cov.p))))


def gen_incoherent_design(n: int, p: int, seed: int) -> FeatureSet:
    """Gaussian design with columns rescaled to Sigma_ii = 1.

    A zero column has probability zero; it would make the covariance
    non-finite, which `CovMatrix` rejects.
    """
    check_design("incoherent", p, n)
    phi = make_rng(seed, STREAM_DESIGN).standard_normal((n, p))
    return FeatureSet.from_phi(phi * (np.sqrt(n) / np.linalg.norm(phi, axis=0)))


class DesignKind(NamedTuple):
    """What the experiments need to know about one covariance regime.

    `draw(n, p, seed, alpha)` returns the design.
    `min_eig(alpha)` is the smallest covariance eigenvalue in closed form,
    or None when it has to be measured on a draw.  `needs_alpha` and
    `full_rank` (n >= p) are the rules `check_design` enforces.
    """

    draw: Callable[[int, int, int, float | None], FeatureSet]
    min_eig: Callable[[float | None], float] | None
    needs_alpha: bool
    full_rank: bool


# The draws look their generator up by name when called, so a wrapper
# installed on this module's generator names sees every draw.
DESIGNS = {
    "orthonormal": DesignKind(
        draw=lambda n, p, seed, alpha: gen_orthonormal_design(n, p, seed),
        min_eig=lambda alpha: 1.0,
        needs_alpha=False,
        full_rank=True,
    ),
    "uniform_corr": DesignKind(
        draw=lambda n, p, seed, alpha: gen_uniform_corr_design(n, p, alpha, seed),
        min_eig=lambda alpha: 1.0 - alpha,
        needs_alpha=True,
        full_rank=True,
    ),
    "incoherent": DesignKind(
        draw=lambda n, p, seed, alpha: gen_incoherent_design(n, p, seed),
        min_eig=None,
        needs_alpha=False,
        full_rank=False,
    ),
}
DESIGN_KINDS = tuple(DESIGNS)


def check_design(
    kind: str, p: int, n: int | None = None, alpha: float | None = None
) -> DesignKind:
    """Raise ValueError unless the named design can be drawn at (n, p, alpha).

    n=None stands for a sample size still to be derived, which callers make
    at least p.
    """
    rule = DESIGNS.get(kind)
    if rule is None:
        raise ValueError(f"unknown design kind {kind!r}; expected one of {DESIGN_KINDS}")
    if p < 1 or (n is not None and n < 1):
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if rule.needs_alpha and (alpha is None or not 0.0 < alpha < 1.0):
        raise ValueError(f"{kind} design needs alpha in (0, 1), got {alpha}")
    if rule.full_rank and n is not None and n < p:
        raise ValueError(f"{kind} design needs n >= p, got n={n}, p={p}")
    return rule


def check_signal(p: int, k: int, gamma: float, amplitude_law: str) -> None:
    """Raise ValueError unless `gen_sparse_signal` accepts these parameters."""
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if amplitude_law not in AMPLITUDE_LAWS:
        raise ValueError(f"unknown amplitude_law {amplitude_law!r}")
    if amplitude_law == "uniform" and gamma > UNIFORM_MAX:
        raise ValueError(f"gamma must be at most {UNIFORM_MAX!r} under the uniform amplitude_law")


def check_noise(kind: str, sigma: float, name: str = "sigma") -> None:
    """Raise ValueError unless `sample_noise` accepts these parameters (sigma named `name`)."""
    if sigma < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if kind == "uniform" and sigma > UNIFORM_MAX:
        raise ValueError(f"{name} must be at most {UNIFORM_MAX!r} under uniform noise")


def gen_sparse_signal(
    p: int, k: int, gamma: float, amplitude_law: str, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """k-sparse signal with magnitude floor gamma on a uniform random support.

    Amplitude laws: "constant" puts gamma on every support coordinate,
    "uniform" draws from [gamma, 2*gamma], "rademacher" puts +/-gamma with
    fair signs.  Returns (signal, sorted support indices).
    """
    check_signal(p, k, gamma, amplitude_law)
    rng = make_rng(seed, STREAM_SIGNAL)
    support = np.sort(rng.choice(p, size=k, replace=False))
    s = np.zeros(p)
    if amplitude_law == "constant":
        s[support] = gamma
    elif amplitude_law == "uniform":
        s[support] = rng.uniform(gamma, 2.0 * gamma, size=k)
    else:
        s[support] = gamma * (2.0 * rng.integers(0, 2, size=k) - 1.0)
    return s, support


def sample_noise(kind: str, sigma: float, n: int, seed: int) -> np.ndarray:
    """Zero-mean noise with sub-Gaussian variance proxy at most sigma^2."""
    check_noise(kind, sigma)
    rng = make_rng(seed, STREAM_NOISE)
    if kind == "gaussian":
        return sigma * rng.standard_normal(n)
    if kind == "rademacher":
        return sigma * (2.0 * rng.integers(0, 2, size=n) - 1.0)
    return rng.uniform(-sigma, sigma, size=n)


def exact_law(design_kind: str, noise_kind: str) -> bool:
    """Does `assemble_problem` draw this problem's normal equations with no Phi?"""
    return design_kind == "orthonormal" and noise_kind == "gaussian"


@functools.lru_cache(maxsize=1)
def _identity(p: int) -> CovMatrix:
    """The p x p identity covariance, one object shared by the problems of a run."""
    return CovMatrix(np.eye(p))


def assemble_problem(
    design_kind: str,
    n: int,
    p: int,
    k: int,
    gamma: float,
    seed: int,
    alpha: float | None = None,
    amplitude_law: str = "constant",
    noise_kind: str = "gaussian",
    sigma: float = 0.0,
    features: FeatureSet | None = None,
) -> SparseProblem:
    """Compose design, signal, and noise into one reproducible problem.

    The design, signal, and noise draws use disjoint Philox streams of the
    same seed, so the composite is a pure function of its arguments.
    `features`, when given, is the design already drawn from these
    arguments; it is used in place of a second draw.  The problem keeps the
    design's covariance object and b, not Phi or y.  Without `features`, an
    `exact_law` problem draws no design: it keeps the shared identity and
    b = s + (sigma / sqrt(n)) z, z the first p normals of the noise stream.
    """
    if k < 1:
        raise ValueError("the support must be nonempty (k >= 1)")
    if features is None and exact_law(design_kind, noise_kind):
        check_design(design_kind, p, n)
        check_noise(noise_kind, sigma)
        signal, support = gen_sparse_signal(p, k, gamma, amplitude_law, seed)
        z = make_rng(seed, STREAM_NOISE).standard_normal(p)
        cov, b = _identity(p), signal + (sigma / np.sqrt(n)) * z
    else:
        if features is None:
            features = check_design(design_kind, p, n, alpha).draw(n, p, seed, alpha)
        elif features.phi.shape != (n, p):
            raise ValueError(f"features must be {n} x {p}, got {features.phi.shape}")
        signal, support = gen_sparse_signal(p, k, gamma, amplitude_law, seed)
        y = features.phi @ signal + sample_noise(noise_kind, sigma, n, seed)
        cov, b = features.covariance, features.phi.T @ y / n
    return SparseProblem(
        covariance=cov,
        b=b,
        n=n,
        signal=signal,
        support=tuple(int(i) for i in support),
        gamma=float(gamma),
    )

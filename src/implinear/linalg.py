"""Dense symmetric linear algebra used by every other module.

Everything is built around one eigendecomposition convention: eigenvalues
ascending, orthonormal eigenvector columns with a deterministic sign fix
(first entry of nonnegligible magnitude is positive), and a configurable
rank tolerance below which an eigenvalue counts as zero.  The pseudo-inverse
inverts the spectrum above that tolerance and zeroes it below, in the same
basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def default_rank_tol(eigenvalues: np.ndarray, p: int, source_n: int) -> float:
    """Eigenvalues at or below 1e-10 * max(p, n) * lambda_max count as zero."""
    lam_max = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return 1e-10 * max(p, source_n) * lam_max


@dataclass(frozen=True)
class CovMatrix:
    """A p x p empirical covariance (1/n) Phi^T Phi.

    `source_n` is the number of rows of the data matrix that produced it;
    it feeds the default rank tolerance.  Construction rejects non-square,
    non-finite, or non-symmetric (beyond 1e-12) input.
    """

    entries: np.ndarray
    source_n: int

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"covariance must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariance has non-finite entries")
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric: max |A - A^T| = {asym:.3e}")
        if int(self.source_n) < 1:
            raise ValueError("source_n must be a positive integer")
        object.__setattr__(self, "entries", _as_readonly(a))
        object.__setattr__(self, "source_n", int(self.source_n))

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def restrict(self, indices: np.ndarray) -> "CovMatrix":
        """Principal submatrix on the given coordinates (same source_n)."""
        idx = np.asarray(indices)
        return CovMatrix(self.entries[np.ix_(idx, idx)], self.source_n)


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are ascending; eigenvector column i pairs with eigenvalue i.
    Columns are orthonormal with the sign convention that the first entry of
    magnitude above 1e-12 is positive, so repeated decompositions of the
    same bits reproduce identical traces.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank_tol: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _as_readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _as_readonly(self.eigenvectors))
        object.__setattr__(self, "rank_tol", float(self.rank_tol))

    @property
    def p(self) -> int:
        return self.eigenvalues.shape[0]

    def nonzero_mask(self) -> np.ndarray:
        return self.eigenvalues > self.rank_tol

    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of the numerical nullspace (p x null_dim)."""
        return self.eigenvectors[:, ~self.nonzero_mask()]

    def range_projector(self) -> np.ndarray:
        v = self.eigenvectors[:, self.nonzero_mask()]
        return v @ v.T


def sym_eig(cov: CovMatrix, rank_tol: float | None = None) -> SymEig:
    """Eigendecompose a covariance with the deterministic sign convention."""
    lam, vec = np.linalg.eigh(cov.entries)
    if vec.size:
        big = np.abs(vec) > 1e-12
        first = np.argmax(big, axis=0)
        cols = np.arange(vec.shape[1])
        flip = big[first, cols] & (vec[first, cols] < 0.0)
        vec[:, flip] = -vec[:, flip]
    if rank_tol is None:
        rank_tol = default_rank_tol(lam, cov.p, cov.source_n)
    if rank_tol < 0.0:
        raise ValueError("rank_tol must be nonnegative")
    return SymEig(eigenvalues=lam, eigenvectors=vec, rank_tol=rank_tol)


def pseudo_inverse(eig: SymEig) -> np.ndarray:
    """Moore-Penrose pseudo-inverse in the eigenbasis.

    Spectrum maps to 1/lambda above rank_tol and to 0 at or below it; the
    result is symmetrized to kill accumulation error.
    """
    gamma = np.where(eig.nonzero_mask(), 1.0, 0.0)
    lam_safe = np.where(eig.nonzero_mask(), eig.eigenvalues, 1.0)
    gamma = gamma / lam_safe
    m = (eig.eigenvectors * gamma) @ eig.eigenvectors.T
    return (m + m.T) / 2.0


def min_nonzero_eig(eig: SymEig) -> float:
    """Smallest eigenvalue strictly above rank_tol.

    Raises ValueError when the matrix is numerically zero, in which case the
    quantity is undefined.
    """
    mask = eig.nonzero_mask()
    if not mask.any():
        raise ValueError(
            "zero matrix: smallest non-zero eigenvalue is undefined"
        )
    return float(eig.eigenvalues[mask][0])


def operator_norm(eig: SymEig) -> float:
    """Spectral norm: largest eigenvalue magnitude."""
    if eig.eigenvalues.size == 0:
        return 0.0
    return float(np.max(np.abs(eig.eigenvalues)))


def psd_sqrt(eig: SymEig) -> np.ndarray:
    """Symmetric square root of a PSD matrix (negative fuzz clipped at 0)."""
    root = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    m = (eig.eigenvectors * root) @ eig.eigenvectors.T
    return (m + m.T) / 2.0

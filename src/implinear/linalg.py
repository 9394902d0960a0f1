"""Dense symmetric linear algebra used by every other module.

Everything is built around one eigendecomposition convention: eigenvalues
ascending, orthonormal eigenvector columns with a deterministic sign fix
(first entry of nonnegligible magnitude is positive), and a rank tolerance,
set by the matrix alone, at or below which an eigenvalue counts as zero.
The pseudo-inverse inverts the spectrum above that tolerance and zeroes it
below, in the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def default_rank_tol(eigenvalues: np.ndarray) -> float:
    """Eigenvalues at or below 1e-10 * p * lambda_max count as zero.

    Roundoff null eigenvalues sit near eps * lambda_max, far below this.
    """
    lam_max = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return 1e-10 * eigenvalues.size * lam_max


@dataclass(frozen=True)
class CovMatrix:
    """A p x p empirical covariance (1/n) Phi^T Phi.

    Construction rejects non-square, non-finite, or non-symmetric (beyond
    1e-12) input.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"covariance must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariance has non-finite entries")
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric: max |A - A^T| = {asym:.3e}")
        object.__setattr__(self, "entries", _as_readonly(a))

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def restrict(self, indices: np.ndarray) -> "CovMatrix":
        """Principal submatrix on the given coordinates.

        A principal submatrix of a validated covariance is square, finite and
        symmetric, so it is not validated again.
        """
        idx = np.asarray(indices)
        sub = self.entries[np.ix_(idx, idx)]
        sub.setflags(write=False)
        out = object.__new__(CovMatrix)
        object.__setattr__(out, "entries", sub)
        return out


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


def sym_eig(cov: CovMatrix) -> SymEig:
    """Eigendecompose a covariance with the deterministic sign convention."""
    lam, vec = np.linalg.eigh(cov.entries)
    if vec.size:
        big = np.abs(vec) > 1e-12
        first = np.argmax(big, axis=0)
        cols = np.arange(vec.shape[1])
        flip = big[first, cols] & (vec[first, cols] < 0.0)
        vec[:, flip] = -vec[:, flip]
    return SymEig(eigenvalues=lam, eigenvectors=vec, rank_tol=default_rank_tol(lam))


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

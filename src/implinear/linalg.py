"""Dense symmetric linear algebra used by every other module.

Everything is built around one eigendecomposition convention: eigenvalues
ascending, orthonormal eigenvector columns as LAPACK returns them, and a
rank tolerance, set by the matrix alone, at or below which an eigenvalue
counts as zero.  No consumer reads a column's sign: each reads a column
through products in which its sign cancels, or through its magnitude
(`tests/test_linalg.py::TestEigenvectorSigns`).
The pseudo-inverse inverts the spectrum above that tolerance and zeroes it
below, in the same basis.  A `CovMatrix` checks and copies its entries; a
`SymEig` is a plain record of read-only views that `sym_eig` builds.  The
spectral norm, which only the RK4 oracle's stability check needs, is
`operator_norm` in `tests/oracles.py`, outside the library.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def default_rank_tol(eigenvalues: np.ndarray) -> np.ndarray:
    """Eigenvalues at or below 1e-10 * p * lambda_max count as zero.

    Roundoff null eigenvalues sit near eps * lambda_max, far below this.
    One tolerance per spectrum along the last axis, so a stack of spectra
    gets one each.
    """
    lam_max = np.max(np.abs(eigenvalues), axis=-1, initial=0.0)
    return 1e-10 * eigenvalues.shape[-1] * lam_max


class CovMatrix:
    """A p x p empirical covariance (1/n) Phi^T Phi.

    Construction rejects non-square, non-finite, or non-symmetric (beyond
    1e-12) input.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray) -> None:
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"covariance must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariance has non-finite entries")
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric: max |A - A^T| = {asym:.3e}")
        self.entries = _as_readonly(a)

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
        out.entries = sub
        return out


class SymEig(NamedTuple):
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are ascending; eigenvector column i pairs with eigenvalue i.
    Columns are orthonormal, with whatever sign LAPACK gives them; the same
    bits decompose to the same bits.  From `sym_eig`, both arrays are
    read-only views of its output stack.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank_tol: float

    @property
    def p(self) -> int:
        return self.eigenvalues.shape[0]

    def nonzero_mask(self) -> np.ndarray:
        return self.eigenvalues > self.rank_tol

    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of the numerical nullspace (p x null_dim)."""
        return self.eigenvectors[:, ~self.nonzero_mask()]


def sym_eig(cov: CovMatrix | np.ndarray) -> SymEig | list[SymEig]:
    """Eigendecompose a symmetric matrix, or a stack of them.

    `cov` is a CovMatrix, or a (T, m, m) array stacking the entries of T
    covariances, which gives a list of T SymEig.  A stack is factorized by
    one `np.linalg.eigh` call, which runs LAPACK on each slice as on a matrix
    of its own, so every slice has the bits of a one-matrix call.  Each
    SymEig is a read-only view of its slice, so the stack lives as long as
    any one of them: the engine drops a round's SymEig together, and copies
    would double the peak memory of a stacked round.  A CovMatrix is the
    stack of one.
    """
    single = isinstance(cov, CovMatrix)
    stack = cov.entries[None] if single else np.asarray(cov, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"need a CovMatrix or a (T, m, m) stack, got shape {stack.shape}")
    lam, vec = np.linalg.eigh(stack)
    lam.setflags(write=False)
    vec.setflags(write=False)
    eigs = list(map(SymEig, lam, vec, default_rank_tol(lam).tolist()))
    return eigs[0] if single else eigs


def pseudo_inverse(eig: SymEig | Sequence[SymEig]) -> np.ndarray:
    """Moore-Penrose pseudo-inverse in the eigenbasis.

    Spectrum maps to 1/lambda above rank_tol and to 0 at or below it; the
    result is symmetrized to kill accumulation error, so its bits are
    exactly symmetric.  A sequence of T SymEig of one size gives the
    (T, m, m) stack of their pseudo-inverses, each written in place with
    the bits of its own call, so the stack is the only (T, m, m) array it
    allocates.
    """
    single = isinstance(eig, SymEig)
    eigs = [eig] if single else eig
    m = eigs[0].p
    out = np.empty((len(eigs), m, m))
    for e, o in zip(eigs, out):
        nonzero = e.nonzero_mask()
        gamma = np.where(nonzero, 1.0, 0.0) / np.where(nonzero, e.eigenvalues, 1.0)
        np.matmul(e.eigenvectors * gamma, e.eigenvectors.T, out=o)
        np.add(o, o.T, out=o)  # ufuncs buffer overlapping operands
        o /= 2.0
    return out[0] if single else out


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


def psd_sqrt(eig: SymEig) -> np.ndarray:
    """Symmetric square root of a PSD matrix (negative fuzz clipped at 0)."""
    root = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    m = (eig.eigenvectors * root) @ eig.eigenvectors.T
    return (m + m.T) / 2.0

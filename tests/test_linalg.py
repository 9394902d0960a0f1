import numpy as np
import pytest

from implinear.linalg import (
    CovMatrix,
    default_rank_tol,
    min_nonzero_eig,
    operator_norm,
    pseudo_inverse,
    psd_sqrt,
    sym_eig,
)


def random_psd(rng, p, rank=None):
    rank = p if rank is None else rank
    x = rng.standard_normal((p, rank))
    a = x @ x.T / rank
    return CovMatrix((a + a.T) / 2.0, p)


class TestCovMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CovMatrix(np.zeros((2, 3)), 5)

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix(a, 5)

    def test_rejects_non_finite(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            CovMatrix(a, 5)

    def test_rejects_bad_source_n(self):
        with pytest.raises(ValueError, match="source_n"):
            CovMatrix(np.eye(2), 0)

    def test_entries_read_only(self):
        cov = CovMatrix(np.eye(2), 4)
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 3.0


class TestSymEig:
    def test_already_diagonal(self):
        eig = sym_eig(CovMatrix(np.diag([2.0, 0.0, 0.5]), 3))
        assert np.allclose(eig.eigenvalues, [0.0, 0.5, 2.0])
        # eigenvectors are a permutation of identity columns
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_rank_one(self):
        eig = sym_eig(CovMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), 2))
        assert np.allclose(eig.eigenvalues, [0.0, 2.0])
        root2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(eig.eigenvectors[:, 0]), [root2, root2])
        assert np.allclose(eig.eigenvectors[:, 1], [root2, root2])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((20, 8))
        cov = CovMatrix(phi.T @ phi / 20.0, 20)
        eig = sym_eig(cov)
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        scale = max(1.0, np.max(np.abs(cov.entries)))
        assert np.max(np.abs(recon - cov.entries)) <= 1e-9 * scale

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(9)
        eig = sym_eig(random_psd(rng, 10))
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(10))) <= 1e-9

    def test_ascending(self):
        rng = np.random.default_rng(10)
        eig = sym_eig(random_psd(rng, 12))
        assert np.all(np.diff(eig.eigenvalues) >= 0.0)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(11)
        cov = random_psd(rng, 7)
        e1 = sym_eig(cov)
        e2 = sym_eig(CovMatrix(cov.entries.copy(), cov.source_n))
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        for j in range(7):
            col = e1.eigenvectors[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0.0

    def test_sign_fix_matches_column_loop(self):
        # reference: flip each column whose first entry above 1e-12 is negative
        rng = np.random.default_rng(12)
        for p, rank in ((1, 1), (6, 6), (9, 4), (15, 15), (12, 1)):
            cov = random_psd(rng, p, rank)
            lam, vec = np.linalg.eigh(cov.entries)
            for j in range(p):
                nz = np.flatnonzero(np.abs(vec[:, j]) > 1e-12)
                if nz.size and vec[nz[0], j] < 0.0:
                    vec[:, j] = -vec[:, j]
            eig = sym_eig(cov)
            assert np.array_equal(eig.eigenvalues, lam)
            assert np.array_equal(eig.eigenvectors, vec)

    def test_rank_tol_default_scales_with_spectrum(self):
        eig = sym_eig(CovMatrix(np.diag([4.0, 0.0]), 10))
        assert eig.rank_tol == pytest.approx(default_rank_tol(np.array([4.0]), 2, 10))

    def test_negative_rank_tol_rejected(self):
        with pytest.raises(ValueError, match="rank_tol"):
            sym_eig(CovMatrix(np.eye(2), 2), rank_tol=-1.0)


class TestPseudoInverse:
    def test_diagonal(self):
        eig = sym_eig(CovMatrix(np.diag([2.0, 0.0]), 2))
        assert np.allclose(pseudo_inverse(eig), np.diag([0.5, 0.0]))

    def test_identity(self):
        eig = sym_eig(CovMatrix(np.eye(3), 3))
        assert np.allclose(pseudo_inverse(eig), np.eye(3))

    def test_rank_one(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        pinv = pseudo_inverse(sym_eig(CovMatrix(a, 2)))
        assert np.allclose(pinv, np.full((2, 2), 0.25))
        # Penrose: pinv A pinv = pinv
        assert np.allclose(pinv @ a @ pinv, pinv)

    def test_projector_onto_range(self):
        rng = np.random.default_rng(12)
        cov = random_psd(rng, 9, rank=5)
        eig = sym_eig(cov)
        proj = pseudo_inverse(eig) @ cov.entries
        # a projector is idempotent and acts as identity on the range
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
        assert np.max(np.abs(proj @ cov.entries - cov.entries)) <= 1e-8

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = int(rng.integers(2, 12))
            rank = int(rng.integers(1, p + 1))
            cov = random_psd(rng, p, rank=rank)
            a = cov.entries
            pinv = pseudo_inverse(sym_eig(cov))
            assert np.max(np.abs(a @ pinv @ a - a)) <= 1e-8
            assert np.max(np.abs(pinv @ a @ pinv - pinv)) <= 1e-8
            assert np.max(np.abs(pinv - pinv.T)) <= 1e-12

    def test_matches_direct_solve_when_invertible(self):
        rng = np.random.default_rng(14)
        cov = random_psd(rng, 6)
        pinv = pseudo_inverse(sym_eig(cov))
        direct = np.linalg.solve(cov.entries, np.eye(6))
        assert np.max(np.abs(pinv - direct)) <= 1e-8


class TestSpectralQueries:
    def test_min_nonzero_eig_diagonal(self):
        assert min_nonzero_eig(sym_eig(CovMatrix(np.diag([2.0, 0.0, 0.5]), 3))) == 0.5

    def test_min_nonzero_eig_identity(self):
        assert min_nonzero_eig(sym_eig(CovMatrix(np.eye(4), 4))) == 1.0

    def test_min_nonzero_eig_uniform_corr(self):
        # (1 - a) I + a 11^T has eigenvalues 1 - a (twice) and 1 + (p-1) a
        a = 0.5
        sigma = (1 - a) * np.eye(3) + a * np.ones((3, 3))
        assert min_nonzero_eig(sym_eig(CovMatrix(sigma, 3))) == pytest.approx(0.5)

    def test_min_nonzero_eig_zero_matrix(self):
        with pytest.raises(ValueError, match="undefined"):
            min_nonzero_eig(sym_eig(CovMatrix(np.zeros((3, 3)), 3)))

    def test_operator_norm(self):
        assert operator_norm(sym_eig(CovMatrix(np.diag([2.0, 0.0, 0.5]), 3))) == 2.0
        assert operator_norm(sym_eig(CovMatrix(np.zeros((2, 2)), 2))) == 0.0
        a = 0.5
        sigma = (1 - a) * np.eye(3) + a * np.ones((3, 3))
        assert operator_norm(sym_eig(CovMatrix(sigma, 3))) == pytest.approx(2.0)

    def test_interlacing_full_rank(self):
        # smallest eigenvalue of a principal submatrix dominates the full one
        rng = np.random.default_rng(15)
        for _ in range(20):
            p = int(rng.integers(3, 10))
            cov = random_psd(rng, p)
            lam_full = min_nonzero_eig(sym_eig(cov))
            keep = np.sort(rng.choice(p, size=int(rng.integers(1, p)), replace=False))
            lam_sub = min_nonzero_eig(sym_eig(cov.restrict(keep)))
            assert lam_sub >= lam_full - 1e-12


class TestPsdSqrt:
    def test_squares_back(self):
        rng = np.random.default_rng(16)
        cov = random_psd(rng, 6, rank=4)
        root = psd_sqrt(sym_eig(cov))
        assert np.max(np.abs(root @ root - cov.entries)) <= 1e-10
        assert np.max(np.abs(root - root.T)) <= 1e-12

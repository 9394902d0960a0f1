import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implinear.baselines import ht_estimator
from implinear.flow import INFINITE, closed_form_weights
from implinear.linalg import (
    CovMatrix,
    SymEig,
    default_rank_tol,
    min_nonzero_eig,
    pseudo_inverse,
    psd_sqrt,
    sym_eig,
)
from implinear.theory import check_onp, check_recoverable
from oracles import operator_norm


def random_psd(rng, p, rank=None):
    rank = p if rank is None else rank
    x = rng.standard_normal((p, rank))
    a = x @ x.T / rank
    return CovMatrix((a + a.T) / 2.0)


class TestCovMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CovMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix(a)

    def test_rejects_non_finite(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            CovMatrix(a)

    def test_entries_read_only(self):
        cov = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 3.0


class TestSymEig:
    def test_already_diagonal(self):
        eig = sym_eig(CovMatrix(np.diag([2.0, 0.0, 0.5])))
        assert np.allclose(eig.eigenvalues, [0.0, 0.5, 2.0])
        # eigenvectors are a permutation of identity columns
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_rank_one(self):
        eig = sym_eig(CovMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
        assert np.allclose(eig.eigenvalues, [0.0, 2.0])
        root2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(eig.eigenvectors[:, 0]), [root2, root2])
        # +-(1, 1) / sqrt(2): no sign is promised
        top = eig.eigenvectors[:, 1]
        assert np.allclose(np.copysign(1.0, top[0]) * top, [root2, root2])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((20, 8))
        cov = CovMatrix(phi.T @ phi / 20.0)
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

    def test_same_bits_decompose_to_same_bits(self):
        rng = np.random.default_rng(11)
        cov = random_psd(rng, 7)
        e1 = sym_eig(cov)
        e2 = sym_eig(CovMatrix(cov.entries.copy()))
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)

    def test_rank_tol_default_scales_with_spectrum(self):
        eig = sym_eig(CovMatrix(np.diag([4.0, 0.0])))
        assert eig.rank_tol == default_rank_tol(eig.eigenvalues) == pytest.approx(1e-10 * 2 * 4.0)


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def one_at_a_time(a):
    """A one-matrix eigendecomposition with the tolerance
    1e-10 * m * max|lambda|: the unstacked form of `sym_eig`."""
    lam, vec = np.linalg.eigh(a)
    lam_max = float(np.max(np.abs(lam))) if lam.size else 0.0
    return lam, vec, 1e-10 * lam.size * lam_max


def stack_slice(rng, m, kind):
    """An m x m symmetric PSD matrix: full rank, of rank below m (zero
    included), with a repeated eigenvalue, or a diagonal with repeats."""
    if kind == "diagonal":
        return np.diag(rng.choice([0.0, 0.5, 2.0], size=m))
    if kind == "repeated":
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = np.repeat(rng.uniform(0.1, 3.0, size=2), (m + 1) // 2)[:m]
        a = (q * lam) @ q.T
    else:
        rank = m if kind == "full" else int(rng.integers(0, m))
        x = rng.standard_normal((m, rank))
        a = x @ x.T
    return (a + a.T) / 2.0


class TestStackedSymEig:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 12),
        kinds=st.lists(st.sampled_from(("full", "rank", "repeated", "diagonal")),
                       min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_slice_is_its_own_decomposition(self, m, kinds, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([stack_slice(rng, m, kind) for kind in kinds])
        eigs = sym_eig(stack.copy())
        assert len(eigs) == len(kinds)
        for a, eig in zip(stack, eigs):
            lam, vec, tol = one_at_a_time(a)
            single = sym_eig(CovMatrix(a))
            for got in (eig, single):
                assert same_bits(got.eigenvalues, lam) and same_bits(got.eigenvectors, vec)
                assert got.rank_tol == tol
                assert not (got.eigenvalues.flags.writeable or got.eigenvectors.flags.writeable)
        # each slice is a read-only view of one output stack, nothing copied
        assert len({id(eig.eigenvectors.base) for eig in eigs}) == 1

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (1, 2, 2, 2)])
    def test_rejects_what_is_not_a_stack_of_square_matrices(self, shape):
        with pytest.raises(ValueError, match="stack"):
            sym_eig(np.zeros(shape))

    def test_pseudo_inverse_is_a_pure_exactly_symmetric_function(self):
        # the engine's downdate relies on inverses that enter it being
        # symmetric bit for bit
        rng = np.random.default_rng(14)
        eig = sym_eig(random_psd(rng, 9, rank=5))
        pinv = pseudo_inverse(eig)
        assert same_bits(pseudo_inverse(eig), pinv) and same_bits(pinv, pinv.T)
        fresh = SymEig(eig.eigenvalues.copy(), eig.eigenvectors.copy(), eig.rank_tol)
        assert same_bits(pseudo_inverse(fresh), pinv)


class TestPseudoInverse:
    def test_diagonal(self):
        eig = sym_eig(CovMatrix(np.diag([2.0, 0.0])))
        assert np.allclose(pseudo_inverse(eig), np.diag([0.5, 0.0]))

    def test_identity(self):
        eig = sym_eig(CovMatrix(np.eye(3)))
        assert np.allclose(pseudo_inverse(eig), np.eye(3))

    def test_rank_one(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        pinv = pseudo_inverse(sym_eig(CovMatrix(a)))
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
        assert min_nonzero_eig(sym_eig(CovMatrix(np.diag([2.0, 0.0, 0.5])))) == 0.5

    def test_min_nonzero_eig_identity(self):
        assert min_nonzero_eig(sym_eig(CovMatrix(np.eye(4)))) == 1.0

    def test_min_nonzero_eig_uniform_corr(self):
        # (1 - a) I + a 11^T has eigenvalues 1 - a (twice) and 1 + (p-1) a
        a = 0.5
        sigma = (1 - a) * np.eye(3) + a * np.ones((3, 3))
        assert min_nonzero_eig(sym_eig(CovMatrix(sigma))) == pytest.approx(0.5)

    def test_min_nonzero_eig_zero_matrix(self):
        with pytest.raises(ValueError, match="undefined"):
            min_nonzero_eig(sym_eig(CovMatrix(np.zeros((3, 3)))))

    def test_operator_norm(self):
        assert operator_norm(sym_eig(CovMatrix(np.diag([2.0, 0.0, 0.5])))) == 2.0
        assert operator_norm(sym_eig(CovMatrix(np.zeros((2, 2))))) == 0.0
        a = 0.5
        sigma = (1 - a) * np.eye(3) + a * np.ones((3, 3))
        assert operator_norm(sym_eig(CovMatrix(sigma))) == pytest.approx(2.0)

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


class TestEigenvectorSigns:
    # sym_eig keeps the signs LAPACK gives its columns, which no consumer
    # reads: IEEE negation is exact, and each consumer reads a column through
    # products in which its sign cancels (flow, pseudo-inverse, square root,
    # recoverability, HT) or through its magnitude (ONP)
    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 12),
        kind=st.sampled_from(("full", "rank", "repeated", "diagonal")),
        flips=st.lists(st.booleans(), min_size=12, max_size=12),
        horizon=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_negated_columns_give_the_same_bits(self, m, kind, flips, horizon, seed):
        rng = np.random.default_rng(seed)
        cov = CovMatrix(stack_slice(rng, m, kind))
        eig = sym_eig(cov)
        negated = SymEig(eig.eigenvalues, eig.eigenvectors * np.where(flips[:m], -1.0, 1.0),
                         eig.rank_tol)
        b, w0, signal = rng.standard_normal((3, m))
        support = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)

        def results(e):
            weights = [closed_form_weights(e, b, init, h)
                       for init in (np.zeros(m), w0) for h in (INFINITE, horizon)]
            return weights + [
                pseudo_inverse(e),
                psd_sqrt(e),
                check_onp(e, support),
                check_recoverable((cov.entries @ signal)[None], signal[None], [e]),
                ht_estimator(b, 0.5, e),
            ]

        for got, want in zip(results(negated), results(eig), strict=True):
            assert same_bits(got, want)

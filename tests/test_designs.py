import numpy as np
import pytest
from scipy import stats

from implinear.designs import (
    FeatureSet,
    assemble_problem,
    gen_incoherent_design,
    gen_orthonormal_design,
    gen_sparse_signal,
    gen_uniform_corr_design,
    make_rng,
    pairwise_incoherence,
    sample_noise,
)
from implinear.linalg import min_nonzero_eig, sym_eig


class TestFeatureSet:
    def test_covariance_cached_correctly(self):
        rng = make_rng(1)
        phi = rng.standard_normal((9, 4))
        fs = FeatureSet.from_phi(phi)
        assert np.max(np.abs(fs.covariance.entries - phi.T @ phi / 9.0)) <= 1e-10

    def test_phi_shape_checked(self):
        with pytest.raises(ValueError, match="phi must be n x p"):
            FeatureSet.from_phi(np.zeros(3))
        with pytest.raises(ValueError, match="features must be 12 x 5"):
            assemble_problem("orthonormal", n=12, p=5, k=2, gamma=1.0, seed=23,
                             features=FeatureSet.from_phi(np.eye(5)))


class TestOrthonormalDesign:
    def test_scalar_design_is_unit(self):
        fs = gen_orthonormal_design(1, 1, seed=3)
        assert fs.phi[0, 0] in (1.0, -1.0)

    def test_identity_covariance(self):
        fs = gen_orthonormal_design(8, 4, seed=4)
        assert np.max(np.abs(fs.covariance.entries - np.eye(4))) <= 1e-10

    def test_seed_determinism(self):
        a = gen_orthonormal_design(10, 5, seed=5)
        b = gen_orthonormal_design(10, 5, seed=5)
        assert np.array_equal(a.phi, b.phi)
        c = gen_orthonormal_design(10, 5, seed=6)
        assert not np.array_equal(a.phi, c.phi)

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="n >= p"):
            gen_orthonormal_design(3, 4, seed=1)


class TestUniformCorrDesign:
    def test_two_by_two_entries(self):
        fs = gen_uniform_corr_design(6, 2, alpha=0.5, seed=7)
        expected = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.max(np.abs(fs.covariance.entries - expected)) <= 1e-8

    def test_spectrum(self):
        # eigenvalues of (1-a) I + a 11^T: 1-a (x p-1) and 1 + (p-1) a
        fs = gen_uniform_corr_design(9, 3, alpha=0.5, seed=8)
        lam = np.sort(np.linalg.eigvalsh(fs.covariance.entries))
        assert np.allclose(lam, [0.5, 0.5, 2.0], atol=1e-8)

    def test_numerical_inverse(self):
        fs = gen_uniform_corr_design(20, 6, alpha=0.3, seed=9)
        sig = fs.covariance.entries
        inv = np.linalg.solve(sig, np.eye(6))
        assert np.max(np.abs(sig @ inv - np.eye(6))) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            gen_uniform_corr_design(8, 3, alpha=alpha, seed=10)


class TestIncoherentDesign:
    def test_orthonormal_piped_through(self):
        fs = gen_orthonormal_design(16, 6, seed=11)
        assert pairwise_incoherence(fs.covariance) <= 1e-10

    def test_identical_columns_fully_coherent(self):
        col = np.array([1.0, 1.0, -1.0, 1.0])
        fs = FeatureSet.from_phi(np.column_stack([col, col]))
        assert pairwise_incoherence(fs.covariance) == pytest.approx(1.0)

    def test_normalized_diagonal_and_measured_delta(self):
        fs = gen_incoherent_design(2000, 20, seed=12)
        assert np.max(np.abs(np.diag(fs.covariance.entries) - 1.0)) <= 1e-8
        delta = pairwise_incoherence(fs.covariance)
        # recorded, not asserted against a threshold: typical values are small
        assert 0.0 < delta < 0.5

    def test_seed_determinism(self):
        a = gen_incoherent_design(50, 5, seed=13)
        b = gen_incoherent_design(50, 5, seed=13)
        assert np.array_equal(a.phi, b.phi)


class TestSparseSignal:
    def test_full_support(self):
        s, support = gen_sparse_signal(5, 5, gamma=0.25, amplitude_law="uniform", seed=14)
        assert np.all(s != 0.0) and len(support) == 5

    def test_constant_law_magnitudes(self):
        s, support = gen_sparse_signal(8, 3, gamma=1.0, amplitude_law="constant", seed=15)
        assert np.all(np.isin(s[support], [-1.0, 1.0]))

    def test_magnitude_floor(self):
        for law in ("constant", "uniform", "rademacher"):
            s, support = gen_sparse_signal(10, 4, gamma=0.5, amplitude_law=law, seed=16)
            assert np.all(np.abs(s[support]) >= 0.5)
            off = np.setdiff1d(np.arange(10), support)
            assert np.all(s[off] == 0.0)

    def test_rademacher_signs(self):
        s, support = gen_sparse_signal(40, 30, gamma=2.0, amplitude_law="rademacher", seed=17)
        values = set(np.unique(s[support]))
        assert values == {-2.0, 2.0}

    def test_support_uniformity_chi2(self):
        p, k, reps = 6, 2, 10_000
        counts = np.zeros(p)
        for seed in range(reps):
            _, support = gen_sparse_signal(p, k, gamma=1.0, amplitude_law="constant",
                                           seed=seed)
            counts[support] += 1
        expected = np.full(p, reps * k / p)
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_sparse_signal(5, 0, gamma=1.0, amplitude_law="constant", seed=1)
        with pytest.raises(ValueError):
            gen_sparse_signal(5, 2, gamma=0.0, amplitude_law="constant", seed=1)
        with pytest.raises(ValueError, match="amplitude_law"):
            gen_sparse_signal(5, 2, gamma=1.0, amplitude_law="cauchy", seed=1)


class TestSampleNoise:
    def test_sigma_zero(self):
        for kind in ("gaussian", "rademacher", "uniform"):
            assert np.array_equal(sample_noise(kind, 0.0, 8, seed=18), np.zeros(8))

    def test_rademacher_values(self):
        xi = sample_noise("rademacher", 2.0, 100, seed=19)
        assert set(np.unique(xi)) == {-2.0, 2.0}

    def test_uniform_bounded(self):
        xi = sample_noise("uniform", 1.5, 1000, seed=20)
        assert np.all(np.abs(xi) <= 1.5)

    def test_gaussian_mean_clt(self):
        sigma = 0.7
        xi = sample_noise("gaussian", sigma, 10**6, seed=21)
        assert abs(xi.mean()) <= 5.0 * sigma / 10**3

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="noise kind"):
            sample_noise("cauchy", 1.0, 4, seed=22)


class TestAssembleProblem:
    def test_noiseless_targets_exact(self):
        prob = assemble_problem("orthonormal", n=12, p=5, k=2, gamma=1.0, seed=23,
                                sigma=0.0)
        phi = gen_orthonormal_design(12, 5, seed=23).phi
        assert np.array_equal(prob.b, phi.T @ (phi @ prob.signal) / 12)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            assemble_problem("orthonormal", n=12, p=5, k=0, gamma=1.0, seed=24)

    def test_seed_determinism(self):
        kwargs = dict(n=20, p=6, k=3, gamma=0.5, seed=25, noise_kind="uniform", sigma=0.3)
        a = assemble_problem("incoherent", **kwargs)
        b = assemble_problem("incoherent", **kwargs)
        assert np.array_equal(a.covariance.entries, b.covariance.entries)
        assert np.array_equal(a.b, b.b)
        assert a.support == b.support

    def test_uniform_corr_requires_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            assemble_problem("uniform_corr", n=10, p=4, k=2, gamma=1.0, seed=26)

    def test_signal_invariant(self):
        prob = assemble_problem("uniform_corr", n=15, p=6, k=3, gamma=0.5, seed=27,
                                alpha=0.2, sigma=0.1)
        on = np.array(prob.support)
        off = np.setdiff1d(np.arange(6), on)
        assert np.all(prob.signal[off] == 0.0) and np.all(prob.signal[on] != 0.0)


class TestGeneratorInvariants:
    def test_psd_and_normalized(self):
        designs = [
            gen_orthonormal_design(12, 6, seed=28),
            gen_uniform_corr_design(12, 6, alpha=0.4, seed=29),
            gen_incoherent_design(12, 6, seed=30),
        ]
        for fs in designs:
            assert np.max(np.abs(np.diag(fs.covariance.entries) - 1.0)) <= 1e-8
            assert min_nonzero_eig(sym_eig(fs.covariance)) > 0.0
            lam = np.linalg.eigvalsh(fs.covariance.entries)
            assert lam.min() >= -1e-10


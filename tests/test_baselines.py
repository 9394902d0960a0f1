import numpy as np
import pytest

from implinear.baselines import (
    IhtDivergenceError,
    ThresholdConfig,
    alignment_order,
    hard_threshold,
    ht_estimator,
    iht,
)
from implinear.designs import FeatureSet, gen_orthonormal_design, gen_sparse_signal, make_rng
from implinear.engine import ImpConfig, run_imp
from implinear.linalg import pseudo_inverse, sym_eig


def features_with_scores(scores):
    """Identity design whose alignment scores are exactly `scores`."""
    y = np.asarray(scores, dtype=float)
    return FeatureSet.from_phi(np.eye(len(y)), y)


class TestAlignmentOrder:
    def test_sorts_by_magnitude(self):
        fs = features_with_scores([0.5, -2.0, 1.0])
        assert list(alignment_order(fs)) == [0, 2, 1]

    def test_all_equal_scores_tie_to_lowest_index(self):
        fs = features_with_scores([1.0, 1.0, 1.0, 1.0])
        assert list(alignment_order(fs)) == [0, 1, 2, 3]

    def test_zero_targets(self):
        fs = FeatureSet.from_phi(np.eye(3), np.zeros(3))
        assert list(alignment_order(fs)) == [0, 1, 2]

    def test_invariant_under_positive_rescaling(self):
        rng = make_rng(50)
        phi = rng.standard_normal((10, 6))
        y = rng.standard_normal(10)
        a = alignment_order(FeatureSet.from_phi(phi, y))
        b = alignment_order(FeatureSet.from_phi(phi, 7.5 * y))
        assert np.array_equal(a, b)


class TestHardThreshold:
    def test_strict_inequality(self):
        v = np.array([0.5, -2.0, 1.0])
        # |1| > 1 is false, so the third entry is zeroed
        assert np.array_equal(hard_threshold(v, 1.0), [0.0, -2.0, 0.0])

    def test_tau_zero_keeps_nonzeros(self):
        v = np.array([0.0, -0.3, 2.0])
        assert np.array_equal(hard_threshold(v, 0.0), [0.0, -0.3, 2.0])

    def test_idempotent(self):
        rng = make_rng(51)
        v = rng.standard_normal(20)
        once = hard_threshold(v, 0.7)
        assert np.array_equal(hard_threshold(once, 0.7), once)

    def test_support_shrinks(self):
        rng = make_rng(52)
        v = rng.standard_normal(20)
        out = hard_threshold(v, 0.4)
        assert set(np.flatnonzero(out)) <= set(np.flatnonzero(v))


def sigma_pinv(fs):
    return pseudo_inverse(sym_eig(fs.covariance))


class TestHtEstimator:
    def test_orthonormal_noiseless_exact(self):
        fs = gen_orthonormal_design(20, 8, seed=77)
        s, _ = gen_sparse_signal(8, 3, gamma=1.0, amplitude_law="uniform", seed=78)
        fs = fs.with_targets(fs.phi @ s)
        est = ht_estimator(fs, tau=0.5, pinv=sigma_pinv(fs))
        assert np.allclose(est, s, atol=1e-10)

    def test_huge_tau_returns_zero(self):
        fs = gen_orthonormal_design(12, 5, seed=79)
        fs = fs.with_targets(make_rng(80).standard_normal(12))
        big = 1.0 + np.max(np.abs(fs.phi.T @ fs.targets))
        assert np.array_equal(ht_estimator(fs, tau=big, pinv=sigma_pinv(fs)), np.zeros(5))

    def test_tau_zero_is_least_squares(self):
        rng = make_rng(81)
        phi = rng.standard_normal((15, 6))
        y = rng.standard_normal(15)
        fs = FeatureSet.from_phi(phi, y)
        ls, *_ = np.linalg.lstsq(phi, y, rcond=None)
        assert np.allclose(ht_estimator(fs, tau=0.0, pinv=sigma_pinv(fs)), ls, atol=1e-8)


class TestIht:
    def test_orthonormal_columns_one_update(self):
        # Psi^T Psi = I, eta = 1: the first update already lands on s
        rng = make_rng(82)
        q, _ = np.linalg.qr(rng.standard_normal((14, 6)))
        s = np.zeros(6)
        s[[1, 4]] = [1.5, -2.0]
        fs = FeatureSet.from_phi(q, q @ s)
        res = iht(fs, ThresholdConfig(tau=0.5, eta=1.0))
        assert res.converged and res.iters_used <= 2
        assert np.allclose(res.estimate, s, atol=1e-12)
        first = hard_threshold(q.T @ (q @ s), 0.5)
        assert np.allclose(res.estimate, first, atol=1e-12)

    def test_zero_targets(self):
        fs = FeatureSet.from_phi(np.eye(4), np.zeros(4))
        res = iht(fs, ThresholdConfig(tau=0.1, eta=0.5))
        assert res.converged
        assert np.array_equal(res.estimate, np.zeros(4))

    def test_divergence_detected(self):
        # Phi^T Phi = n I with eta = 1 oscillates with ratio n - 1 > 1
        fs = gen_orthonormal_design(20, 4, seed=84)
        s, _ = gen_sparse_signal(4, 2, gamma=1.0, amplitude_law="constant", seed=85)
        fs = fs.with_targets(fs.phi @ s)
        with pytest.raises(IhtDivergenceError, match="step size"):
            iht(fs, ThresholdConfig(tau=0.5, eta=1.0))

    def test_matched_step_converges(self):
        # eta = 1/n is the gradient-flow-matched step for the same design
        fs = gen_orthonormal_design(20, 4, seed=84)
        s, _ = gen_sparse_signal(4, 2, gamma=1.0, amplitude_law="constant", seed=85)
        fs = fs.with_targets(fs.phi @ s)
        res = iht(fs, ThresholdConfig(tau=0.5, eta=1.0 / 20))
        assert res.converged
        assert np.allclose(res.estimate, s, atol=1e-9)

    def test_support_bounded_by_threshold_survivors(self):
        rng = make_rng(86)
        phi = rng.standard_normal((18, 8)) / 4.0
        y = rng.standard_normal(18)
        fs = FeatureSet.from_phi(phi, y)
        res = iht(fs, ThresholdConfig(tau=0.3, eta=0.05, max_iters=50))
        assert np.all(np.abs(res.estimate[res.estimate != 0.0]) > 0.3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(tau=-1.0)
        with pytest.raises(ValueError):
            ThresholdConfig(tau=0.0, eta=0.0)


class TestMethodAgreement:
    def test_support_agreement_orthonormal_noiseless(self):
        # all three estimators pick the same support on clean orthonormal data
        for seed in range(8):
            p = 4 + seed
            k = 2 + seed % 3
            n = 3 * p
            fs = gen_orthonormal_design(n, p, seed=900 + seed)
            s, support = gen_sparse_signal(p, k, gamma=1.0, amplitude_law="uniform",
                                           seed=950 + seed)
            fs = fs.with_targets(fs.phi @ s)
            truth = set(int(i) for i in support)

            trace = run_imp([fs], ImpConfig(prune_rounds=p - k))[0]
            imp_support = set(np.flatnonzero(trace.final_weights != 0.0).tolist())
            ht_estimate = ht_estimator(fs, tau=0.5, pinv=sigma_pinv(fs))
            ht_support = set(np.flatnonzero(ht_estimate != 0.0).tolist())
            iht_support = set(
                np.flatnonzero(
                    iht(fs, ThresholdConfig(tau=0.5, eta=1.0 / n)).estimate != 0.0
                ).tolist()
            )
            assert imp_support == ht_support == iht_support == truth

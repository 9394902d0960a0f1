from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implinear.baselines import (
    DIVERGENCE_LIMIT,
    IhtDivergenceError,
    ThresholdConfig,
    alignment_order,
    hard_threshold,
    ht_estimator,
    iht,
)
from implinear.designs import FeatureSet, gen_orthonormal_design, gen_sparse_signal, make_rng
from implinear.engine import ImpConfig, run_imp
from implinear.linalg import CovMatrix, pseudo_inverse, sym_eig


class Data(NamedTuple):
    """A design and its targets, with the normal equations (Sigma, b) the
    estimators read."""

    phi: np.ndarray
    targets: np.ndarray
    covariance: CovMatrix
    b: np.ndarray

    @property
    def n(self):
        return self.phi.shape[0]


def with_targets(fs, y):
    y = np.asarray(y, dtype=float)
    return Data(fs.phi, y, fs.covariance, fs.phi.T @ y / fs.n)


def from_phi(phi, y):
    return with_targets(FeatureSet.from_phi(phi), y)


class TestAlignmentOrder:
    def test_sorts_by_magnitude(self):
        assert list(alignment_order(np.array([0.5, -2.0, 1.0]))) == [0, 2, 1]

    def test_all_equal_scores_tie_to_lowest_index(self):
        assert list(alignment_order(np.ones(4))) == [0, 1, 2, 3]

    def test_zero_targets(self):
        assert list(alignment_order(np.zeros(3))) == [0, 1, 2]

    def test_invariant_under_positive_rescaling(self):
        rng = make_rng(50)
        phi = rng.standard_normal((10, 6))
        y = rng.standard_normal(10)
        assert np.array_equal(alignment_order(phi.T @ y), alignment_order(phi.T @ (7.5 * y)))


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
        fs = with_targets(fs, fs.phi @ s)
        est = ht_estimator(fs.b, tau=0.5, pinv=sigma_pinv(fs))
        assert np.allclose(est, s, atol=1e-10)

    def test_huge_tau_returns_zero(self):
        fs = gen_orthonormal_design(12, 5, seed=79)
        fs = with_targets(fs, make_rng(80).standard_normal(12))
        big = 1.0 + np.max(np.abs(fs.phi.T @ fs.targets))
        assert np.array_equal(ht_estimator(fs.b, tau=big, pinv=sigma_pinv(fs)), np.zeros(5))

    def test_tau_zero_is_least_squares(self):
        rng = make_rng(81)
        phi = rng.standard_normal((15, 6))
        y = rng.standard_normal(15)
        fs = from_phi(phi, y)
        ls, *_ = np.linalg.lstsq(phi, y, rcond=None)
        assert np.allclose(ht_estimator(fs.b, tau=0.0, pinv=sigma_pinv(fs)), ls, atol=1e-8)


def normal_equations(*features):
    """The (T, p, p) covariance and (T, p) Phi^T y / n stacks of the runs."""
    return (np.stack([fs.covariance.entries for fs in features]),
            np.stack([fs.b for fs in features]))


def iht_one(fs, config):
    """iht on a stack of one: (estimate, iters, converged) of the run."""
    res = iht(*normal_equations(fs), config)
    return res.estimate[0], int(res.iters[0]), bool(res.converged[0])


def iht_phi(fs, config):
    """Oracle: the serial loop on Phi itself, s <- H_tau(s + (eta/n) Phi^T (y - Phi s))."""
    y, phi = fs.targets, fs.phi
    s = np.zeros(phi.shape[1])
    for it in range(1, config.max_iters + 1):
        s_new = hard_threshold(s + config.eta / fs.n * (phi.T @ (y - phi @ s)), config.tau)
        if np.max(np.abs(s_new)) > DIVERGENCE_LIMIT:
            raise IhtDivergenceError("step size too large for spectrum")
        if np.max(np.abs(s_new - s)) <= config.convergence_tol:
            return s_new, it, True
        s = s_new
    return s, config.max_iters, False


def assert_matches_oracle(features, config):
    res = iht(*normal_equations(*features), config)
    for t, fs in enumerate(features):
        estimate, iters, converged = iht_phi(fs, config)
        assert np.array_equal(res.estimate[t] != 0.0, estimate != 0.0)
        assert (res.iters[t], res.converged[t]) == (iters, converged)
        assert np.allclose(res.estimate[t], estimate, rtol=0.0, atol=1e-10)
        # a run's result does not depend on the rest of its stack
        alone, *rest = iht_one(fs, config)
        assert np.array_equal(res.estimate[t], alone) and rest == [iters, converged]
    assert res.iters_used == max(res.iters)
    return res


def noisy_design(rng, n, p, k, scale=1.0):
    """Gaussian design with columns scaled by `scale`, k-sparse signal, noisy targets."""
    phi = rng.standard_normal((n, p)) * scale
    s = np.zeros(p)
    s[rng.choice(p, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k) * (1 + rng.random(k))
    return from_phi(phi, phi @ s + 0.3 * rng.standard_normal(n))


def scaled_orthonormal(scales, signal, seed, n=30):
    """Orthonormal design with columns scaled by `scales` (Sigma = diag(scales^2)),
    noiseless targets of `signal`."""
    fs = gen_orthonormal_design(n, len(signal), seed=seed)
    phi = fs.phi * scales
    return from_phi(phi, phi @ signal)


class TestIht:
    def test_orthonormal_columns_one_update(self):
        # Psi^T Psi = I, eta = n (the raw step 1): the first update already lands on s
        rng = make_rng(82)
        q, _ = np.linalg.qr(rng.standard_normal((14, 6)))
        s = np.zeros(6)
        s[[1, 4]] = [1.5, -2.0]
        fs = from_phi(q, q @ s)
        estimate, iters, converged = iht_one(fs, ThresholdConfig(tau=0.5, eta=14.0))
        assert converged and iters <= 2
        assert np.allclose(estimate, s, atol=1e-12)
        first = hard_threshold(q.T @ (q @ s), 0.5)
        assert np.allclose(estimate, first, atol=1e-12)

    def test_zero_targets(self):
        fs = from_phi(np.eye(4), np.zeros(4))
        estimate, _, converged = iht_one(fs, ThresholdConfig(tau=0.1, eta=2.0))
        assert converged
        assert np.array_equal(estimate, np.zeros(4))

    def test_divergence_detected(self):
        # Sigma = I with eta = n = 20 oscillates with ratio n - 1 > 1
        fs = gen_orthonormal_design(20, 4, seed=84)
        s, _ = gen_sparse_signal(4, 2, gamma=1.0, amplitude_law="constant", seed=85)
        fs = with_targets(fs, fs.phi @ s)
        with pytest.raises(IhtDivergenceError, match="step size"):
            iht_one(fs, ThresholdConfig(tau=0.5, eta=20.0))

    def test_matched_step_converges(self):
        # eta = 1 is the gradient-flow-matched step for the same design
        fs = gen_orthonormal_design(20, 4, seed=84)
        s, _ = gen_sparse_signal(4, 2, gamma=1.0, amplitude_law="constant", seed=85)
        fs = with_targets(fs, fs.phi @ s)
        estimate, _, converged = iht_one(fs, ThresholdConfig(tau=0.5, eta=1.0))
        assert converged
        assert np.allclose(estimate, s, atol=1e-9)

    def test_support_bounded_by_threshold_survivors(self):
        rng = make_rng(86)
        phi = rng.standard_normal((18, 8)) / 4.0
        y = rng.standard_normal(18)
        fs = from_phi(phi, y)
        estimate, _, _ = iht_one(fs, ThresholdConfig(tau=0.3, eta=0.9, max_iters=50))
        assert np.all(np.abs(estimate[estimate != 0.0]) > 0.3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(tau=-1.0)
        with pytest.raises(ValueError):
            ThresholdConfig(tau=0.0, eta=0.0)


class TestIhtStackMatchesPhiLoop:
    """The stacked loop on (Sigma, b) against the serial loop on Phi."""

    @settings(max_examples=40, deadline=None)
    @given(
        stack=st.integers(1, 12),
        n=st.integers(2, 300),
        p=st.integers(1, 60),
        step=st.floats(0.1, 1.0),
        tau=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_stacks(self, stack, n, p, step, tau, seed):
        rng = make_rng(seed)
        features = [noisy_design(rng, n, p, rng.integers(0, p + 1), rng.uniform(0.2, 2.0))
                    for _ in range(stack)]
        # eta * lambda_max(Sigma) <= 1 for every run: each one contracts
        lam = max(np.linalg.eigvalsh(fs.covariance.entries)[-1] for fs in features)
        assert_matches_oracle(features, ThresholdConfig(tau=tau, eta=step / lam, max_iters=300))

    def test_runs_stop_at_their_own_iteration(self):
        # Sigma = c^2 I at eta = 1 contracts the error by |1 - c^2| per step
        features = [scaled_orthonormal(c, 3.0 * np.ones(5), seed) for seed, c in
                    enumerate((1.0, 0.9, 0.7, 0.5))]
        res = assert_matches_oracle(features, ThresholdConfig(tau=0.5, eta=1.0))
        assert res.converged.all() and len(set(res.iters.tolist())) == 4

    def test_unconverged_run_beside_converged_ones(self):
        # the middle run's second coordinate closes its error by 1% a step
        signal = np.array([0.0, 50.0, 0.0, 2.0])
        features = [scaled_orthonormal(1.0, signal, 89),
                    scaled_orthonormal(np.array([1.0, 0.1, 1.0, 1.0]), signal, 90),
                    scaled_orthonormal(0.9, signal, 91)]
        res = assert_matches_oracle(features, ThresholdConfig(tau=0.1, eta=1.0, max_iters=40))
        assert res.converged.tolist() == [True, False, True]
        assert res.iters_used == 40

    def test_one_diverging_run_raises_for_the_stack(self):
        good = gen_orthonormal_design(20, 4, seed=84)
        s, _ = gen_sparse_signal(4, 2, gamma=1.0, amplitude_law="constant", seed=85)
        good = with_targets(good, good.phi @ s)
        # Sigma = 9 I at eta = 1 multiplies the iterate by -8 each step
        bad = from_phi(3.0 * good.phi, good.targets)
        config = ThresholdConfig(tau=0.5, eta=1.0)
        with pytest.raises(IhtDivergenceError) as oracle:
            iht_phi(bad, config)
        for stack in ([good, bad], [bad, good, good]):
            with pytest.raises(IhtDivergenceError) as stacked:
                iht(*normal_equations(*stack), config)
            assert str(stacked.value) == str(oracle.value)


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
            fs = with_targets(fs, fs.phi @ s)
            truth = set(int(i) for i in support)

            trace = run_imp([fs.covariance], fs.b[None], ImpConfig(prune_rounds=p - k))[0]
            imp_support = set(np.flatnonzero(trace.final_weights != 0.0).tolist())
            ht_estimate = ht_estimator(fs.b, tau=0.5, pinv=sigma_pinv(fs))
            ht_support = set(np.flatnonzero(ht_estimate != 0.0).tolist())
            iht_estimate, _, _ = iht_one(fs, ThresholdConfig(tau=0.5, eta=1.0))
            iht_support = set(np.flatnonzero(iht_estimate != 0.0).tolist())
            assert imp_support == ht_support == iht_support == truth

import math

import numpy as np
import pytest

from implinear import theory as theory_module
from implinear.designs import (
    gen_incoherent_design,
    gen_orthonormal_design,
    gen_uniform_corr_design,
    sample_noise,
)
from implinear.linalg import CovMatrix
from implinear.theory import (
    BoundInputs,
    OnpReport,
    check_onp,
    check_recoverable,
    concentration_sample_size,
    concentration_sample_size_raw,
    exact_binomial_ci,
    make_mc_summary,
    noise_exceedance_mc,
    noise_functional,
    recovery_sample_size,
    recovery_sample_size_raw,
)

RANK_ONE = CovMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), 2)


class TestCheckOnp:
    def test_full_rank_holds(self):
        rep = check_onp(CovMatrix(np.eye(4), 4), [0, 2])
        assert rep.holds and rep.null_dim == 0 and not rep.vacuous
        assert rep.max_violation == 0.0

    def test_rank_one_fails(self):
        rep = check_onp(RANK_ONE, [0])
        assert not rep.holds and rep.null_dim == 1
        # the null direction (1,-1)/sqrt(2) hits e0 at 1/sqrt(2) and the
        # generator e0 - e1 at sqrt(2), the reported maximum
        null = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(null @ np.array([1.0, 0.0])) == pytest.approx(1 / np.sqrt(2))
        assert rep.max_violation == pytest.approx(np.sqrt(2.0))

    def test_diag_with_null_fails_via_mixed_generator(self):
        # null = span{e1}: orthogonal to e0 but not to e0 + e1
        rep = check_onp(CovMatrix(np.diag([1.0, 0.0]), 2), [0])
        assert not rep.holds
        assert rep.max_violation == pytest.approx(1.0)
        assert rep.generators_checked == 3  # e0, e0+e1, e0-e1

    def test_empty_support_vacuous(self):
        rep = check_onp(CovMatrix(np.diag([1.0, 0.0]), 2), [])
        assert rep.holds and rep.vacuous and rep.generators_checked == 0
        rep_full = check_onp(CovMatrix(np.eye(2), 2), [])
        assert rep_full.holds and not rep_full.vacuous

    def test_support_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            check_onp(CovMatrix(np.eye(2), 2), [5])

    def test_full_rank_counts_generators_without_building_them(self, monkeypatch):
        build = theory_module._cone_generators

        def forbidden(*args):
            raise AssertionError("generators built for an empty nullspace")

        monkeypatch.setattr(theory_module, "_cone_generators", forbidden)
        for p, support in ((6, [1, 4]), (5, []), (3, [0, 1, 2])):
            rep = check_onp(CovMatrix(np.eye(p), p), support)
            gens = build(p, np.asarray(support, dtype=int))
            assert rep == OnpReport(holds=True, null_dim=0, max_violation=0.0,
                                    generators_checked=gens.shape[1], vacuous=False)

    def test_generator_count_matches_the_generator_matrix(self):
        cov = CovMatrix(np.diag([1.0, 0.0, 2.0, 3.0, 0.5]), 5)  # null_dim 1
        for support in ([0], [0, 2], [0, 2, 3, 4], []):
            rep = check_onp(cov, support)
            gens = theory_module._cone_generators(5, np.asarray(support, dtype=int))
            assert rep.generators_checked == gens.shape[1]
            assert rep.null_dim == 1


class TestCheckRecoverable:
    def test_full_rank_always_passes(self):
        rng = np.random.default_rng(60)
        phi = rng.standard_normal((12, 5))
        cov = CovMatrix(phi.T @ phi / 12.0, 12)
        chk = check_recoverable(cov, rng.standard_normal(5))
        assert chk.ok and chk.residual <= 1e-10

    def test_signal_in_range(self):
        chk = check_recoverable(RANK_ONE, np.array([1.0, 1.0]))
        assert chk.ok and chk.residual <= 1e-12

    def test_signal_in_null(self):
        # (1,-1) projects to zero, so the sup-norm residual is 1
        chk = check_recoverable(RANK_ONE, np.array([1.0, -1.0]))
        assert not chk.ok
        assert chk.residual == pytest.approx(1.0)

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            check_recoverable(RANK_ONE, np.zeros(3))


class TestSampleBounds:
    def test_recovery_bound_reference_value(self):
        b = BoundInputs(sigma=1.0, margin=0.5, lambda_min_nz=1.0, p=50, delta=0.1)
        assert recovery_sample_size_raw(b) == pytest.approx(32.0 * math.log(1000.0))
        assert recovery_sample_size(b) == 222

    def test_concentration_bound_reference_value(self):
        b = BoundInputs(sigma=1.0, margin=0.25, lambda_min_nz=1.0, p=50, delta=0.1)
        assert concentration_sample_size_raw(b) == pytest.approx(32.0 * math.log(1000.0))
        assert concentration_sample_size(b) == 222

    def test_sigma_doubling_quadruples_raw(self):
        b1 = BoundInputs(sigma=1.3, margin=0.5, lambda_min_nz=0.7, p=20, delta=0.05)
        b2 = BoundInputs(sigma=2.6, margin=0.5, lambda_min_nz=0.7, p=20, delta=0.05)
        assert recovery_sample_size_raw(b2) == 4.0 * recovery_sample_size_raw(b1)

    def test_margin_doubling_quarters_raw(self):
        b1 = BoundInputs(sigma=1.0, margin=0.5, lambda_min_nz=0.7, p=20, delta=0.05)
        b2 = BoundInputs(sigma=1.0, margin=1.0, lambda_min_nz=0.7, p=20, delta=0.05)
        assert recovery_sample_size_raw(b1) == 4.0 * recovery_sample_size_raw(b2)

    def test_consistency_between_bounds(self):
        # halving the margin in the concentration bound gives the recovery bound
        for gamma in (0.5, 0.3, 1.7):
            b_rec = BoundInputs(sigma=1.1, margin=gamma, lambda_min_nz=0.9, p=33, delta=0.2)
            b_con = BoundInputs(sigma=1.1, margin=gamma / 2.0, lambda_min_nz=0.9, p=33,
                                delta=0.2)
            assert recovery_sample_size_raw(b_rec) == concentration_sample_size_raw(b_con)

    def test_monotonicity(self):
        base = dict(sigma=1.0, margin=0.5, lambda_min_nz=1.0, p=50, delta=0.1)
        raw = recovery_sample_size_raw(BoundInputs(**base))
        assert recovery_sample_size_raw(BoundInputs(**{**base, "sigma": 2.0})) > raw
        assert recovery_sample_size_raw(BoundInputs(**{**base, "margin": 1.0})) < raw
        assert recovery_sample_size_raw(BoundInputs(**{**base, "p": 500})) > raw
        assert recovery_sample_size_raw(BoundInputs(**{**base, "delta": 0.01})) > raw
        assert recovery_sample_size_raw(BoundInputs(**{**base, "lambda_min_nz": 2.0})) < raw

    def test_sigma_zero_gives_minimum_size(self):
        b = BoundInputs(sigma=0.0, margin=0.5, lambda_min_nz=1.0, p=10, delta=0.1)
        assert recovery_sample_size(b) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(sigma=-1.0, margin=0.5, lambda_min_nz=1.0, p=10, delta=0.1)
        with pytest.raises(ValueError):
            BoundInputs(sigma=1.0, margin=0.0, lambda_min_nz=1.0, p=10, delta=0.1)
        with pytest.raises(ValueError):
            BoundInputs(sigma=1.0, margin=0.5, lambda_min_nz=0.0, p=10, delta=0.1)
        with pytest.raises(ValueError):
            BoundInputs(sigma=1.0, margin=0.5, lambda_min_nz=1.0, p=10, delta=1.0)


class TestNoiseFunctional:
    def test_zero_noise(self):
        fs = gen_orthonormal_design(10, 4, seed=61)
        assert np.array_equal(noise_functional(fs, np.zeros(10)), np.zeros(4))

    def test_orthonormal_reduces_to_projection(self):
        fs = gen_orthonormal_design(10, 4, seed=62)
        xi = sample_noise("gaussian", 1.0, 10, seed=63)
        expected = fs.phi.T @ xi / 10.0
        assert np.allclose(noise_functional(fs, xi), expected, atol=1e-10)

    def test_matches_svd_pseudo_inverse_chain(self):
        # independent recomputation through numpy's SVD-based pinv
        fs, _ = gen_incoherent_design(8, 12, seed=64)  # rank-deficient on purpose
        xi = sample_noise("uniform", 2.0, 8, seed=65)
        expected = np.linalg.pinv(fs.covariance.entries) @ fs.phi.T @ xi / 8.0
        assert np.allclose(noise_functional(fs, xi), expected, atol=1e-8)

    def test_length_checked(self):
        fs = gen_orthonormal_design(10, 4, seed=66)
        with pytest.raises(ValueError, match="length"):
            noise_functional(fs, np.zeros(9))


class TestNoiseExceedanceMc:
    def test_sigma_zero_never_exceeds(self):
        fs = gen_orthonormal_design(12, 4, seed=67)
        summary = noise_exceedance_mc(fs, "gaussian", 0.0, 0.1, trials=50, seed=1)
        assert summary.failure_rate == 0.0

    def test_epsilon_zero_always_exceeds(self):
        fs = gen_orthonormal_design(12, 4, seed=68)
        summary = noise_exceedance_mc(fs, "gaussian", 1.0, 0.0, trials=50, seed=2)
        assert summary.failure_rate == 1.0

    def test_at_the_bound_rate_is_within_budget(self):
        delta, sigma, eps, p = 0.1, 1.0, 0.25, 20
        n = concentration_sample_size(
            BoundInputs(sigma=sigma, margin=eps, lambda_min_nz=0.9, p=p, delta=delta)
        )
        fs = gen_uniform_corr_design(n, p, alpha=0.1, seed=69)
        summary = noise_exceedance_mc(fs, "gaussian", sigma, eps, trials=800, seed=3,
                                      delta=delta)
        assert summary.passed
        assert summary.failure_rate <= delta

    def test_trial_count_validated(self):
        fs = gen_orthonormal_design(12, 4, seed=70)
        with pytest.raises(ValueError, match="trials"):
            noise_exceedance_mc(fs, "gaussian", 1.0, 0.1, trials=0, seed=4)


class TestMcSummary:
    def test_exact_ci_brackets_rate(self):
        lo, hi = exact_binomial_ci(3, 100)
        assert lo < 0.03 < hi
        assert exact_binomial_ci(0, 50)[0] == 0.0
        assert exact_binomial_ci(50, 50)[1] == 1.0

    def test_summary_fields(self):
        s = make_mc_summary(200, {"a": 4, "b": 1}, overall_failures=5, delta=0.1)
        assert s.trials == 200
        assert s.failure_rate == pytest.approx(0.025)
        assert s.ci_low < s.failure_rate < s.ci_high
        assert s.passed
        s_fail = make_mc_summary(200, {"a": 50}, overall_failures=50, delta=0.1)
        assert not s_fail.passed

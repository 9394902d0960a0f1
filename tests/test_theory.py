import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implinear import theory as theory_module
from implinear.designs import (
    gen_incoherent_design,
    gen_orthonormal_design,
    sample_noise,
)
from implinear.harness import (
    ConfigError,
    DesignSpec,
    ExperimentSpec,
    NoiseSpec,
    SignalSpec,
    run_concentration_check,
    validate_spec,
)
from implinear.linalg import CovMatrix, pseudo_inverse, sym_eig
from implinear.theory import (
    BoundInputs,
    ONP_TOL,
    check_onp,
    check_recoverable,
    concentration_sample_size,
    concentration_sample_size_raw,
    exact_binomial_ci,
    make_mc_summary,
    noise_projector,
    recovery_sample_size,
    recovery_sample_size_raw,
)

RANK_ONE = CovMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestCheckOnp:
    def test_full_rank_holds(self):
        eig = sym_eig(CovMatrix(np.eye(4)))
        violation = check_onp(eig, [0, 2])
        assert violation <= ONP_TOL and eig.null_basis().shape[1] == 0
        assert violation == 0.0

    def test_rank_one_fails(self):
        eig = sym_eig(RANK_ONE)
        violation = check_onp(eig, [0])
        assert violation > ONP_TOL and eig.null_basis().shape[1] == 1
        # the null direction (1,-1)/sqrt(2) hits e0 at 1/sqrt(2) and the
        # generator e0 - e1 at sqrt(2), the reported maximum
        null = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(null @ np.array([1.0, 0.0])) == pytest.approx(1 / np.sqrt(2))
        assert violation == pytest.approx(np.sqrt(2.0))

    def test_diag_with_null_fails_via_mixed_generator(self):
        # null = span{e1}: orthogonal to e0 but not to e0 + e1
        violation = check_onp(sym_eig(CovMatrix(np.diag([1.0, 0.0]))), [0])
        assert violation > ONP_TOL
        assert violation == pytest.approx(1.0)

    def test_empty_support_vacuous(self):
        assert check_onp(sym_eig(CovMatrix(np.diag([1.0, 0.0]))), []) <= ONP_TOL
        assert check_onp(sym_eig(CovMatrix(np.eye(2))), []) <= ONP_TOL

    def test_support_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            check_onp(sym_eig(CovMatrix(np.eye(2))), [5])

    def test_full_rank_holds_without_building_generators(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("generators built for an empty nullspace")

        monkeypatch.setattr(theory_module, "_cone_generators", forbidden)
        for p, support in ((6, [1, 4]), (5, []), (3, [0, 1, 2])):
            eig = sym_eig(CovMatrix(np.eye(p)))
            assert check_onp(eig, support) == 0.0 and eig.null_basis().shape[1] == 0

    def test_closed_form_equals_the_generator_matrix(self, monkeypatch):
        build = theory_module._cone_generators

        def forbidden(*args):
            raise AssertionError("generator matrix built")

        monkeypatch.setattr(theory_module, "_cone_generators", forbidden)
        rng = np.random.default_rng(61)
        for case in range(150):
            p = int(rng.integers(2, 10))
            n = int(rng.integers(1, p))  # n < p: a nontrivial nullspace
            phi = rng.standard_normal((n, p))
            gram = phi.T @ phi
            cov = CovMatrix((gram + gram.T) / (2.0 * n))
            k = (0, 1, p, int(rng.integers(1, p + 1)))[case % 4]
            support = np.sort(rng.choice(p, size=k, replace=False))
            eig = sym_eig(cov)
            null = eig.null_basis()
            oracle = float(np.max(np.abs(null.T @ build(p, support)), initial=0.0))
            assert null.shape[1] > 0
            assert check_onp(eig, support) == oracle


def cov_signal(cov, signal, active):
    """Sigma_A s_A as the recover audit forms it: Sigma times the signal with
    its entries off A zeroed, gathered on A."""
    s = np.zeros_like(signal)
    s[active] = signal[active]
    return (cov @ s)[active]


def check_one(cov, signal, active, eig):
    """check_recoverable on Sigma_A s_A and s_A, with `eig` the
    eigendecomposition of Sigma_A."""
    signal, active = np.asarray(signal, dtype=float), np.asarray(active)
    residual = check_recoverable(eig, cov_signal(cov.entries, signal, active), signal[active])
    assert type(residual) is float
    return residual


class TestCheckRecoverable:
    def test_full_rank_always_passes(self):
        rng = np.random.default_rng(60)
        phi = rng.standard_normal((12, 5))
        cov = CovMatrix(phi.T @ phi / 12.0)
        residual = check_one(cov, rng.standard_normal(5), np.arange(5), sym_eig(cov))
        assert residual <= 1e-10

    def test_signal_in_range(self):
        residual = check_one(RANK_ONE, [1.0, 1.0], [0, 1], sym_eig(RANK_ONE))
        assert residual <= 1e-12

    def test_signal_in_null(self):
        # (1,-1) projects to zero, so the sup-norm residual is 1
        residual = check_one(RANK_ONE, [1.0, -1.0], [0, 1], sym_eig(RANK_ONE))
        assert residual == pytest.approx(1.0)

    def test_dimension_checked(self):
        # either vector's length must be eig.p; a length-1 signal would
        # otherwise broadcast against the fit
        eig = sym_eig(RANK_ONE)
        ok = np.ones(2)
        for bad in (np.ones(1), np.ones(3), np.ones((1, 2)), np.ones((2, 1)), np.float64(1.0)):
            for u, s in ((bad, ok), (ok, bad)):
                with pytest.raises(ValueError, match="length eig.p = 2"):
                    check_recoverable(eig, u, s)
        assert check_recoverable(eig, ok, ok) == check_recoverable(eig, [1.0, 1.0], [1.0, 1.0])

    def test_exactly_one_factorization(self):
        # the one eigendecomposition passed must be of Sigma_A itself: an
        # (m', m') one with m' != m is refused, however the vectors look
        for p in (0, 1, 3):
            eig = sym_eig(CovMatrix(np.eye(p)))
            with pytest.raises(ValueError, match=f"length eig.p = {p}"):
                check_recoverable(eig, np.ones(2), np.ones(2))

    def test_empty_and_zero_sigma(self):
        # no active coordinate moves nothing; a zero Sigma_A fits zero, so
        # the residual is the signal's largest magnitude
        empty = sym_eig(CovMatrix(np.zeros((0, 0))))
        assert check_recoverable(empty, np.zeros(0), np.zeros(0)) == 0.0
        zero = sym_eig(CovMatrix(np.zeros((3, 3))))
        assert check_recoverable(zero, np.zeros(3), np.array([0.5, -2.0, 1.0])) == 2.0

    def test_active_subset_equals_the_explicit_submatrix(self):
        # rank 3 < |A| = 5: Sigma_A is singular and the residual is nonzero
        rng = np.random.default_rng(62)
        phi = rng.standard_normal((3, 8))
        cov = CovMatrix(phi.T @ phi / 3.0)
        signal = rng.standard_normal(8)
        active = np.array([0, 2, 3, 5, 7])
        sub = cov.entries[np.ix_(active, active)].copy()
        eig = sym_eig(CovMatrix(sub))
        projected = pseudo_inverse(eig) @ (sub @ signal[active])
        expected = float(np.max(np.abs(projected - signal[active])))
        assert expected > 1e-3
        assert check_one(cov, signal, active, eig) == pytest.approx(expected, abs=1e-12)


def full_gather_residual(cov, signal, active, inverse):
    """The residual with every entry of Sigma_A gathered, the product
    Sigma_A s_A summed over A alone: the form `check_recoverable` computed
    before it read Sigma_A s_A from Sigma s."""
    t = np.arange(active.shape[0])[:, None]
    s_active = signal[t, active]
    sub = cov[t[:, :, None], active[:, :, None], active[:, None, :]]
    projected = (inverse @ (sub @ s_active[..., None]))[..., 0]
    return np.max(np.abs(projected - s_active), axis=-1, initial=0.0)


def summation_bound(cov, signal, active, eigs, oracle):
    """How far the residual may move between `check_recoverable`, which sums
    Sigma_A s_A over all p columns of Sigma (signal zeroed off A) and
    applies Sigma_A^+ = V Lambda^+ V^T as V (Lambda^+ (V^T u)), and the full
    gather, which sums over A's m and multiplies by the pseudo-inverse
    matrix C.

    With gamma_n = n eps / (1 - n eps) and M = |V| |Lambda^+| |V^T|, which
    bounds |C| entrywise: the two sums each lie within gamma_p |Sigma| |s|
    and gamma_m |Sigma_A| |s_A| of the exact product; the eigenbasis
    product lies within gamma_{2m+1} M |u| of V Lambda^+ V^T u; C lies
    within gamma_{m+2} M of it (a product of m terms, halved and
    symmetrized) and C u within gamma_m |C| |u| of that.  So the
    projections differ by at most (gamma_p + 5 gamma_m + gamma_3 + O(eps^2))
    M |Sigma| |s|; the subtraction of s_A rounds each once more.  Per
    slice: (p + 5m + 5) eps (max M |Sigma| |s| + max |s_A| + residual).
    """
    eps = np.finfo(float).eps
    out = []
    for c, s, a, eig, r in zip(cov, signal, active, eigs, oracle):
        masked = np.zeros_like(s)
        masked[a] = s[a]
        v = np.abs(eig.eigenvectors)
        nonzero = eig.nonzero_mask()
        lam = np.where(nonzero, 1.0, 0.0) / np.abs(np.where(nonzero, eig.eigenvalues, 1.0))
        scale = np.max(v @ (lam * (v.T @ (np.abs(c) @ np.abs(masked))[a])), initial=0.0)
        scale += np.max(np.abs(s[a]), initial=0.0) + r
        out.append((len(s) + 5 * len(a) + 5) * eps * scale)
    return np.array(out)


class TestCovSignal:
    """Sigma_A s_A read as (Sigma (s * 1_A))_A, the form the recover audit keeps."""

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(2, 10),
        slices=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_slices_and_the_full_gather(self, p, slices, data, seed):
        """Signals with support coordinates off A (a pruned support, the
        audit's recompute) and -0.0 entries, on rank-deficient and not
        exactly symmetric covariances, A in any order: each slice's residual
        stays within the summation bound of the full gather."""
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(1, p), label="m")
        covs, signals, actives = [], [], []
        for _ in range(slices):
            n = data.draw(st.integers(1, 2 * p), label="n")  # n < p: singular
            phi = rng.standard_normal((n, p))
            skew = rng.standard_normal((p, p)) * 1e-14  # within CovMatrix's 1e-12
            covs.append(CovMatrix(phi.T @ phi / n + skew - skew.T).entries)
            signal = np.where(rng.random(p) < 0.5, 0.0, rng.standard_normal(p))
            signal[rng.random(p) < 0.25] = -0.0
            signals.append(signal)
            actives.append(rng.choice(p, m, replace=False))
        cov, signal, active = np.stack(covs), np.stack(signals), np.stack(actives)
        eigs = [sym_eig(CovMatrix(c).restrict(a)) for c, a in zip(cov, active)]
        residual = np.array([check_recoverable(eig, cov_signal(c, s, a), s[a])
                             for c, s, a, eig in zip(cov, signal, active, eigs)])
        oracle = full_gather_residual(cov, signal, active, pseudo_inverse(eigs))
        bound = summation_bound(cov, signal, active, eigs, oracle)
        assert np.all(np.abs(residual - oracle) <= bound)

    def test_a_signal_that_vanishes_off_a_needs_no_mask(self):
        # Sigma s itself, gathered on A, once s is zero (or -0.0) off A
        rng = np.random.default_rng(64)
        phi = rng.standard_normal((20, 9))
        cov = CovMatrix(phi.T @ phi / 20.0)
        active = np.array([7, 1, 4, 0, 8])
        signal = np.zeros(9)
        signal[[1, 8]] = rng.standard_normal(2)
        signal[3] = -0.0
        assert np.array_equal(cov_signal(cov.entries, signal, active),
                              (cov.entries @ signal)[active])
        eig = sym_eig(cov.restrict(active))
        [oracle] = full_gather_residual(cov.entries[None], signal[None], active[None],
                                        pseudo_inverse(eig)[None])
        assert check_one(cov, signal, active, eig) == pytest.approx(oracle, abs=1e-14)


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
        with pytest.raises(ValueError, match="p must be a positive integer"):
            BoundInputs(sigma=1.0, margin=0.5, lambda_min_nz=1.0, p=0, delta=0.1)
        with pytest.raises(ValueError):
            BoundInputs(sigma=1.0, margin=0.5, lambda_min_nz=1.0, p=10, delta=1.0)


class TestNoiseFunctional:
    """(1/n) Sigma^+ Phi^T xi, formed through `noise_projector`."""

    def test_zero_noise(self):
        fs = gen_orthonormal_design(10, 4, seed=61)
        assert np.array_equal(noise_projector(fs) @ np.zeros(10), np.zeros(4))

    def test_orthonormal_reduces_to_projection(self):
        fs = gen_orthonormal_design(10, 4, seed=62)
        xi = sample_noise("gaussian", 1.0, 10, seed=63)
        expected = fs.phi.T @ xi / 10.0
        assert np.allclose(noise_projector(fs) @ xi, expected, atol=1e-10)

    def test_matches_svd_pseudo_inverse_chain(self):
        # independent recomputation through numpy's SVD-based pinv
        fs = gen_incoherent_design(8, 12, seed=64)  # rank-deficient on purpose
        xi = sample_noise("uniform", 2.0, 8, seed=65)
        expected = np.linalg.pinv(fs.covariance.entries) @ fs.phi.T @ xi / 8.0
        assert np.allclose(noise_projector(fs) @ xi, expected, atol=1e-8)

    def test_length_checked(self):
        # p x n: it takes only noise of one entry per row of the design
        fs = gen_orthonormal_design(10, 4, seed=66)
        projector = noise_projector(fs)
        assert projector.shape == (4, 10)
        with pytest.raises(ValueError):
            projector @ np.zeros(9)


def lemma1_spec(kind, p, n=None, alpha=None, sigma=1.0, epsilon=None, trials=50,
                base_seed=0, delta=0.1):
    return ExperimentSpec(
        kind="lemma1_check",
        design=DesignSpec(kind=kind, p=p, n=n, alpha=alpha),
        trials=trials,
        base_seed=base_seed,
        delta=delta,
        signal=SignalSpec(k=3, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=sigma),
        epsilon=epsilon,
    )


class TestNoiseExceedanceMc:
    """The exceedance Monte Carlo of the lemma1 run, on a fixed design."""

    def test_sigma_zero_never_exceeds(self):
        spec = lemma1_spec("orthonormal", 4, n=12, sigma=0.0, epsilon=0.1)
        assert run_concentration_check(spec).summary.failure_rate == 0.0

    def test_epsilon_zero_always_exceeds(self):
        # epsilon must be positive; 1e-12 is far below any sup norm of the draws
        spec = lemma1_spec("orthonormal", 4, n=12, epsilon=1e-12)
        assert run_concentration_check(spec).summary.failure_rate == 1.0

    def test_at_the_bound_rate_is_within_budget(self):
        delta, sigma, eps, p = 0.1, 1.0, 0.25, 20
        spec = lemma1_spec("uniform_corr", p, alpha=0.1, sigma=sigma, epsilon=eps,
                           trials=800, base_seed=3, delta=delta)
        report = run_concentration_check(spec)
        assert report.n == concentration_sample_size(
            BoundInputs(sigma=sigma, margin=eps, lambda_min_nz=0.9, p=p, delta=delta)
        )
        assert report.summary.passed
        assert report.summary.failure_rate <= delta

    def test_trial_count_validated(self):
        with pytest.raises(ConfigError, match="trials"):
            validate_spec(lemma1_spec("orthonormal", 4, n=12, trials=0))


class TestMcSummary:
    def test_exact_ci_brackets_rate(self):
        lo, hi = exact_binomial_ci(3, 100)
        assert lo < 0.03 < hi
        assert exact_binomial_ci(0, 50)[0] == 0.0
        assert exact_binomial_ci(50, 50)[1] == 1.0

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 1000, 10000])
    def test_exact_ci_matches_scipy(self, n, confidence):
        from scipy import stats  # the oracle only; implinear does not use scipy

        for k in sorted({0, 1, n // 2, n - 1, n}):
            lo, hi = exact_binomial_ci(k, n, confidence)
            ref = stats.binomtest(k, n).proportion_ci(confidence_level=confidence,
                                                      method="exact")
            assert abs(lo - ref.low) <= 1e-12 and abs(hi - ref.high) <= 1e-12
            assert (lo == 0.0) == (k == 0) and (hi == 1.0) == (k == n)
            assert 0.0 <= lo < hi <= 1.0

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_exact_ci_closed_forms(self, n):
        # at k = 0 and k = n one tail is a single term: (1 - p)^n or p^n = alpha
        alpha = 0.05 / 2.0
        assert exact_binomial_ci(0, n)[1] == pytest.approx(1.0 - alpha ** (1.0 / n), abs=1e-15)
        assert exact_binomial_ci(n, n)[0] == pytest.approx(alpha ** (1.0 / n), abs=1e-15)

    @pytest.mark.parametrize("k, n, confidence", [
        (-1, 10, 0.95), (11, 10, 0.95), (0, 0, 0.95), (1, -3, 0.95),
        (3, 10, 0.0), (3, 10, 1.0), (3, 10, 1.5), (3, 10, -0.1),
    ])
    def test_exact_ci_rejects_bad_input(self, k, n, confidence):
        with pytest.raises(ValueError):
            exact_binomial_ci(k, n, confidence)

    def test_summary_fields(self):
        s = make_mc_summary(200, {"a": 4, "b": 1}, overall_failures=5, delta=0.1)
        assert s.trials == 200
        assert s.failure_rate == pytest.approx(0.025)
        assert s.ci_low < s.failure_rate < s.ci_high
        assert s.passed
        s_fail = make_mc_summary(200, {"a": 50}, overall_failures=50, delta=0.1)
        assert not s_fail.passed

    def test_a_failure_rate_equal_to_delta_passes(self):
        # the gate's edge: 1 failure in 10 trials is a rate of exactly 0.1
        s = make_mc_summary(10, {"a": 1}, overall_failures=1, delta=0.1)
        assert s.failure_rate == s.delta and s.passed

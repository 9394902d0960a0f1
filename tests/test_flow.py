import numpy as np
import pytest

from implinear.designs import FeatureSet
from implinear.flow import INFINITE, closed_form_weights, is_infinite, normalize_horizon
from implinear.linalg import min_nonzero_eig, pseudo_inverse, sym_eig
from oracles import StabilityWarning, flow_rk4


def flow_inputs(phi, y):
    """The covariance and the data vector (1/n) Phi^T y of a design and targets."""
    fs = FeatureSet.from_phi(phi)
    return fs.covariance, fs.phi.T @ y / fs.n


def random_problem(rng, n_max=20, m_max=12):
    """(covariance, data vector, start point) of a random n x m design."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    cov, b = flow_inputs(rng.standard_normal((n, m)), rng.standard_normal(n))
    return cov, b, rng.standard_normal(m)


def rk4_reference(cov, b, w0, horizon, steps):
    """Literal four-stage RK4 loop, the textbook form of the oracle."""
    h = horizon / steps
    w = w0.copy()

    def f(v):
        return b - cov.entries @ v

    for _ in range(steps):
        k1 = f(w)
        k2 = f(w + 0.5 * h * k1)
        k3 = f(w + 0.5 * h * k2)
        k4 = f(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


class TestHorizon:
    def test_normalize(self):
        assert normalize_horizon(INFINITE) is INFINITE
        assert normalize_horizon(float("inf")) is INFINITE
        assert normalize_horizon(1.5) == 1.5
        assert is_infinite(INFINITE) and not is_infinite(2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("-inf")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="horizon"):
            normalize_horizon(bad)


class TestClosedForm:
    def test_one_dimensional_least_squares(self):
        phi, y = np.array([[1.0]]), np.array([2.0])
        cov, b = flow_inputs(phi, y)
        w = closed_form_weights(sym_eig(cov), b, np.zeros(1), INFINITE)
        assert np.allclose(w, [2.0])
        assert np.linalg.norm(phi @ w - y) <= 1e-12

    def test_scalar_finite_horizon(self):
        # w' = -(w - 1) from 0 has solution 1 - e^{-t}; at t = ln 2 that is 1/2
        cov, b = flow_inputs(np.array([[1.0]]), np.array([1.0]))
        w = closed_form_weights(sym_eig(cov), b, np.zeros(1), np.log(2.0))
        assert w[0] == pytest.approx(0.5, abs=1e-12)

    def test_identity_two_rows(self):
        # Ups = I/2 so the infinite-horizon weights are exactly y
        cov, b = flow_inputs(np.eye(2), np.array([1.0, -3.0]))
        w = closed_form_weights(sym_eig(cov), b, np.zeros(2), INFINITE)
        assert np.allclose(w, [1.0, -3.0], atol=1e-12)

    def test_zero_start_converges_to_the_pseudo_inverse_solution(self):
        # rank-deficient designs (n < m) included: Ups^+ b is the minimum-norm
        # least-squares solution
        rng = np.random.default_rng(20)
        for n, m in ((12, 5), (4, 9)):
            phi, y = rng.standard_normal((n, m)), rng.standard_normal(n)
            cov, b = flow_inputs(phi, y)
            eig = sym_eig(cov)
            w = closed_form_weights(eig, b, np.zeros(m), INFINITE)
            assert np.allclose(w, pseudo_inverse(eig) @ b, atol=1e-10)
            assert np.allclose(w, np.linalg.lstsq(phi, y, rcond=None)[0], atol=1e-8)

    def test_stationary_gradient_vanishes_on_range(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            cov, b, w0 = random_problem(rng, n_max=10, m_max=14)
            eig = sym_eig(cov)
            grad = cov.entries @ closed_form_weights(eig, b, w0, INFINITE) - b
            range_basis = eig.eigenvectors[:, eig.nonzero_mask()]
            assert np.linalg.norm(range_basis.T @ grad) <= 1e-8

    def test_null_space_freeze(self):
        # rank-1 design: the w0 component in the nullspace never moves
        rng = np.random.default_rng(22)
        cov, b = flow_inputs(np.outer(rng.standard_normal(6), np.ones(3)),
                             rng.standard_normal(6))
        w0 = rng.standard_normal(3)
        eig = sym_eig(cov)
        null = eig.null_basis()
        for horizon in (0.5, 3.0, INFINITE):
            w = closed_form_weights(eig, b, w0, horizon)
            assert np.max(np.abs(null.T @ (w - w0))) <= 1e-10

    def test_monotone_loss(self):
        rng = np.random.default_rng(23)
        phi, y = rng.standard_normal((15, 6)), rng.standard_normal(15)
        cov, b = flow_inputs(phi, y)
        eig, w0 = sym_eig(cov), rng.standard_normal(6)
        horizons = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
        # the training loss (1/2n) ||Phi w - y||^2
        losses = [0.5 * np.mean((phi @ closed_form_weights(eig, b, w0, t) - y) ** 2)
                  for t in horizons]
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_infinite_horizon_limit_rate(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            cov, b = flow_inputs(rng.standard_normal((16, 5)), rng.standard_normal(16))
            w0 = rng.standard_normal(5)
            eig = sym_eig(cov)
            w_inf = closed_form_weights(eig, b, w0, INFINITE)
            lam = min_nonzero_eig(eig)
            for t in (0.5, 2.0, 8.0):
                w_t = closed_form_weights(eig, b, w0, t)
                bound = np.exp(-lam * t) * np.linalg.norm(w0 - w_inf) + 1e-9
                assert np.linalg.norm(w_t - w_inf) <= bound


class TestRk4:
    def test_scalar_against_analytic(self):
        cov, b = flow_inputs(np.array([[1.0]]), np.array([1.0]))
        w = flow_rk4(cov, b, np.zeros(1), np.log(2.0), 1000)
        assert w[0] == pytest.approx(0.5, abs=1e-8)

    def test_stationary_start_is_fixed(self):
        rng = np.random.default_rng(25)
        phi = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        w_star, *_ = np.linalg.lstsq(phi, y, rcond=None)
        cov, b = flow_inputs(phi, y)
        w = flow_rk4(cov, b, w_star, 3.0, 500)
        assert np.max(np.abs(w - w_star)) <= 1e-10

    def test_matches_closed_form_random(self):
        rng = np.random.default_rng(26)
        cov, b = flow_inputs(rng.standard_normal((10, 6)), rng.standard_normal(10))
        w0 = rng.standard_normal(6)
        wc = closed_form_weights(sym_eig(cov), b, w0, 5.0)
        wr = flow_rk4(cov, b, w0, 5.0, 20_000)
        assert np.max(np.abs(wc - wr)) <= 1e-6 * (1.0 + np.max(np.abs(wc)))

    def test_matches_literal_stage_loop(self):
        # the production integrator is the same affine recursion as the
        # textbook four-stage loop, just evaluated by doubling
        rng = np.random.default_rng(27)
        for steps in (1, 7, 64, 501):
            cov, b, w0 = random_problem(rng, n_max=10, m_max=6)
            fast = flow_rk4(cov, b, w0, 0.8, steps)
            slow = rk4_reference(cov, b, w0, 0.8, steps)
            assert np.max(np.abs(fast - slow)) <= 1e-11 * (1.0 + np.max(np.abs(slow)))

    def test_rejects_infinite_horizon(self):
        cov, b = flow_inputs(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            flow_rk4(cov, b, np.zeros(2), INFINITE, 10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_horizon(self, bad):
        cov, b = flow_inputs(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="horizon"):
            flow_rk4(cov, b, np.zeros(2), bad, 10)

    def test_rejects_bad_step_count(self):
        cov, b = flow_inputs(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="step_count"):
            flow_rk4(cov, b, np.zeros(2), 1.0, 0)

    def test_unstable_step_warns(self):
        cov, b = flow_inputs(np.eye(2) * 4.0, np.zeros(2))
        with pytest.warns(StabilityWarning):
            flow_rk4(cov, b, np.ones(2), 10.0, 2)

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(28)
        cov, b, w0 = random_problem(rng, n_max=8, m_max=4)
        exact = closed_form_weights(sym_eig(cov), b, w0, 2.0)
        err_coarse = np.max(np.abs(flow_rk4(cov, b, w0, 2.0, 8) - exact))
        err_fine = np.max(np.abs(flow_rk4(cov, b, w0, 2.0, 16) - exact))
        if err_fine > 1e-13:
            assert 8.0 < err_coarse / err_fine < 40.0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implinear import engine as engine_module
from implinear.baselines import alignment_order
from implinear.designs import (
    STREAM_TARGETS,
    FeatureSet,
    gen_incoherent_design,
    gen_orthonormal_design,
    gen_uniform_corr_design,
    make_rng,
)
from implinear.engine import (
    TIE_BREAK_RULES,
    ImpConfig,
    PruneMask,
    imp_prune_order,
    run_imp,
    trace_from_dict,
    trace_to_dict,
)
from implinear.flow import INFINITE, closed_form_weights
from implinear.linalg import sym_eig


def identity_features(y=(3.0, -1.0, 2.0)):
    y = np.asarray(y, dtype=float)
    return FeatureSet.from_phi(np.eye(len(y)), y)


def random_features(seed, n=12, p=6):
    rng = make_rng(seed)
    phi = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return FeatureSet.from_phi(phi, y)


class TestPruneMask:
    def test_accounting(self):
        mask = PruneMask.full(4)
        assert mask.n_active == 4 and mask.prune_order == ()
        mask = mask.prune([2]).prune([0])
        assert mask.prune_order == (2, 0)
        assert list(mask.active_indices()) == [1, 3]

    def test_double_prune_rejected(self):
        mask = PruneMask.full(3).prune([1])
        with pytest.raises(ValueError, match="already pruned"):
            mask.prune([1])

    def test_inconsistent_mask_rejected(self):
        with pytest.raises(ValueError):
            PruneMask(active=np.array([True, True]), prune_order=(0,))


class TestRunImp:
    def test_identity_example(self):
        # round 0 trains to w = y, so |−1| then |2| are the successive minima
        trace = run_imp(identity_features(), ImpConfig(prune_rounds=2))
        assert trace.prune_order[:2] == (1, 2)
        assert trace.prune_order == (1, 2, 0)
        assert np.allclose(trace.final_weights, [3.0, 0.0, 0.0], atol=1e-12)

    def test_each_round_restricted_least_squares(self):
        # hand-solve the restricted problems of the identity example
        trace = run_imp(identity_features(), ImpConfig(prune_rounds=2))
        assert np.allclose(trace.rounds[0].weights, [3.0, -1.0, 2.0], atol=1e-12)
        assert np.allclose(trace.rounds[1].weights, [3.0, 0.0, 2.0], atol=1e-12)
        assert np.allclose(trace.rounds[2].weights, [3.0, 0.0, 0.0], atol=1e-12)

    def test_q_zero_dense_solution(self):
        fs = random_features(31)
        trace = run_imp(fs, ImpConfig(prune_rounds=0))
        dense, *_ = np.linalg.lstsq(fs.phi, fs.targets, rcond=None)
        assert np.allclose(trace.final_weights, dense, atol=1e-8)
        assert len(trace.prune_order) == 1  # the loop body still prunes once

    def test_final_round_matches_direct_solve(self):
        # full-rank covariance: the active weights equal the normal-equation solve
        fs = random_features(32, n=30, p=8)
        trace = run_imp(fs, ImpConfig(prune_rounds=4))
        active = trace.rounds[-1].mask.active_indices()
        phi_a = fs.phi[:, active]
        direct = np.linalg.solve(phi_a.T @ phi_a, phi_a.T @ fs.targets)
        assert np.allclose(trace.final_weights[active], direct, atol=1e-8)

    def test_inactive_coordinates_exactly_zero(self):
        fs = random_features(33, n=20, p=10)
        trace = run_imp(fs, ImpConfig(prune_rounds=6))
        for k, rec in enumerate(trace.rounds):
            assert np.all(rec.weights[~rec.mask.active] == 0.0)
            assert rec.mask.p - rec.mask.n_active == k

    def test_sparsity_guarantee(self):
        for seed in range(5):
            fs = random_features(40 + seed, n=18, p=9)
            q = 5
            trace = run_imp(fs, ImpConfig(prune_rounds=q))
            assert int(np.sum(trace.final_weights == 0.0)) >= q

    def test_prune_choice_is_minimal(self):
        fs = random_features(34, n=25, p=12)
        trace = run_imp(fs, ImpConfig(prune_rounds=8))
        for rec in trace.rounds:
            survivors = rec.mask.active.copy()
            survivors[list(rec.pruned)] = False
            if survivors.any():
                assert max(rec.pruned_magnitudes) <= np.min(np.abs(rec.weights[survivors]))

    def test_reset_semantics(self):
        fs = random_features(35, n=15, p=7)
        w_init = make_rng(99).standard_normal(7)
        seen = []
        run_imp(
            fs,
            ImpConfig(prune_rounds=4, w_init=w_init, horizon=2.0),
            init_hook=lambda k, idx, w0: seen.append((k, idx.copy(), w0.copy())),
        )
        assert [k for k, _, _ in seen] == [0, 1, 2, 3, 4]
        for _, idx, w0 in seen:
            assert np.array_equal(w0, w_init[idx])

    def test_determinism_bit_identical(self):
        fs = random_features(36, n=22, p=10)
        t1 = run_imp(fs, ImpConfig(prune_rounds=7))
        t2 = run_imp(fs, ImpConfig(prune_rounds=7))
        assert t1.prune_order == t2.prune_order
        assert np.array_equal(t1.final_weights, t2.final_weights)
        for r1, r2 in zip(t1.rounds, t2.rounds):
            assert np.array_equal(r1.weights, r2.weights)

    def test_per_round_batch_pruning(self):
        fs = random_features(37, n=20, p=9)
        trace = run_imp(fs, ImpConfig(prune_rounds=2, per_round=3))
        assert all(len(rec.pruned) == 3 for rec in trace.rounds)
        assert int(np.sum(trace.final_weights == 0.0)) >= 6

    def test_per_round_budget_enforced(self):
        fs = random_features(38, n=10, p=5)
        with pytest.raises(ValueError, match="exceeds p"):
            run_imp(fs, ImpConfig(prune_rounds=2, per_round=2))

    def test_tie_break_rules(self):
        fs = identity_features([2.0, -2.0, 5.0])
        low = run_imp(fs, ImpConfig(prune_rounds=0))
        assert low.rounds[0].pruned == (0,)
        high = run_imp(fs, ImpConfig(prune_rounds=0, tie_break="highest_index"))
        assert high.rounds[0].pruned == (1,)

    def test_unknown_tie_break_rejected(self):
        with pytest.raises(ValueError, match="tie_break"):
            ImpConfig(tie_break="coin_flip")

    def test_missing_targets_rejected(self):
        fs = FeatureSet.from_phi(np.eye(3))
        with pytest.raises(ValueError, match="targets"):
            run_imp(fs, ImpConfig())

    def test_w_init_length_checked(self):
        with pytest.raises(ValueError, match="w_init"):
            run_imp(identity_features(), ImpConfig(w_init=np.zeros(2)))


class TestPruneOrder:
    def test_identity_full_ranking(self):
        assert list(imp_prune_order(identity_features())) == [1, 2, 0]

    def test_single_coordinate(self):
        fs = FeatureSet.from_phi(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]))
        assert list(imp_prune_order(fs)) == [0]

    def test_orthonormal_matches_alignment(self):
        for seed in range(10):
            fs = gen_orthonormal_design(16, 8, seed=700 + seed)
            y = make_rng(800 + seed).standard_normal(16)
            fs = fs.with_targets(y)
            assert np.array_equal(imp_prune_order(fs), alignment_order(fs))


class TestTraceSerialization:
    def test_round_trip(self):
        fs = random_features(39, n=14, p=6)
        trace = run_imp(fs, ImpConfig(prune_rounds=3))
        back = trace_from_dict(trace_to_dict(trace))
        assert back.prune_order == trace.prune_order
        assert np.array_equal(back.final_weights, trace.final_weights)
        for a, b in zip(back.rounds, trace.rounds):
            assert np.array_equal(a.mask.active, b.mask.active)
            assert np.array_equal(a.weights, b.weights)
            assert a.pruned == b.pruned


# ---------------------------------------------------------------------------
# Downdate path against the per-round eigendecomposition oracle
# ---------------------------------------------------------------------------

DIFF_P = 50
DIFF_DESIGNS = (
    ("orthonormal", 200, None),
    ("incoherent", 55, None),
    ("incoherent", 60, None),
    ("incoherent", 200, None),
    ("uniform_corr", 200, 0.99),
    ("uniform_corr", 200, 0.9999),
)


def design_features(kind, n, alpha, seed, p=DIFF_P):
    if kind == "orthonormal":
        fs = gen_orthonormal_design(n, p, seed)
    elif kind == "uniform_corr":
        fs = gen_uniform_corr_design(n, p, alpha, seed)
    else:
        fs, _ = gen_incoherent_design(n, p, seed)
    return fs.with_targets(make_rng(seed, STREAM_TARGETS).standard_normal(n))


def oracle_imp(features, config):
    """Per round: active indices, trained weights, pruned indices, and the
    condition number of Sigma_A.

    Every round is factorized afresh and solved in its own eigenbasis; the
    tie rule is spelled out with a sort key rather than taken from the
    engine.
    """
    y = features.require_targets()
    b = features.phi.T @ y / features.n
    w_init = config.w_init if config.w_init is not None else np.zeros(features.p)
    sign = 1 if config.tie_break == "lowest_index" else -1
    active = list(range(features.p))
    out = []
    for _ in range(config.prune_rounds + 1):
        idx = np.asarray(active)
        eig = sym_eig(features.covariance.restrict(idx), config.rank_tol)
        w = closed_form_weights(eig, b[idx], w_init[idx], config.horizon)
        ranked = sorted(range(idx.size), key=lambda i: (abs(w[i]), sign * i))
        pruned = [int(idx[i]) for i in ranked[: config.per_round]]
        kappa = eig.eigenvalues[-1] / eig.eigenvalues[0] if eig.eigenvalues[0] > 0 else np.inf
        out.append((idx, w, pruned, kappa))
        active = [i for i in active if i not in pruned]
    return out


def count_sym_eig(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].p)
        return sym_eig(*args, **kwargs)

    monkeypatch.setattr(engine_module, "sym_eig", counted)
    return calls


def assert_matches_oracle(features, config):
    trace = run_imp(features, config)
    oracle = oracle_imp(features, config)
    assert len(trace.rounds) == len(oracle)
    for rec, (idx, w, pruned, kappa) in zip(trace.rounds, oracle):
        assert np.array_equal(rec.mask.active_indices(), idx)
        # Both paths are backward stable, so each sits within a few
        # kappa * eps of the exact solution: 1e-10 relative up to kappa ~ 1e4,
        # and kappa-proportional beyond (uniform_corr at alpha = 0.9999 has
        # kappa ~ 5e5, where the oracle itself is ~1e-10 off).
        rel = max(1e-10, 10.0 * kappa * np.finfo(float).eps)
        scale = max(float(np.max(np.abs(w))), 1e-300)
        assert np.max(np.abs(rec.weights[idx] - w)) <= rel * scale
        assert list(rec.pruned) == pruned
    return trace


class TestDowndatePath:
    @settings(max_examples=30, deadline=None)
    @given(
        design=st.sampled_from(DIFF_DESIGNS),
        seed=st.integers(0, 10_000),
        per_round=st.sampled_from((1, 3)),
        tie_break=st.sampled_from(TIE_BREAK_RULES),
    )
    def test_matches_eigendecomposition_oracle(self, design, seed, per_round, tie_break):
        fs = design_features(*design, seed)
        q = DIFF_P // per_round - 1
        trace = assert_matches_oracle(
            fs, ImpConfig(prune_rounds=q, per_round=per_round, tie_break=tie_break)
        )
        # a nonsingular design: every later round is downdated
        assert trace.rounds[0].eig is not None and trace.rounds[0].inverse is None
        assert all(rec.inverse is not None for rec in trace.rounds[1:])

    def test_one_factorization_when_nonsingular(self, monkeypatch):
        calls = count_sym_eig(monkeypatch)
        fs = design_features("incoherent", 200, None, seed=3)
        run_imp(fs, ImpConfig(prune_rounds=45))
        assert calls == [DIFF_P]

    @pytest.mark.parametrize("horizon", [0.5, 20.0])
    def test_finite_horizon_factorizes_every_round(self, monkeypatch, horizon):
        calls = count_sym_eig(monkeypatch)
        fs = design_features("incoherent", 200, None, seed=4)
        trace = run_imp(fs, ImpConfig(prune_rounds=20, horizon=horizon))
        assert len(calls) == 21
        assert all(rec.eig is None and rec.inverse is None for rec in trace.rounds)

    def test_rank_deficient_factorizes_every_round(self, monkeypatch):
        calls = count_sym_eig(monkeypatch)
        fs = design_features("incoherent", 40, None, seed=5)  # n < p: singular
        trace = run_imp(fs, ImpConfig(prune_rounds=45))
        assert len(calls) == 46
        assert all(rec.eig is None and rec.inverse is None for rec in trace.rounds)

    def test_configured_rank_tol_above_spectrum_keeps_eigh_path(self, monkeypatch):
        calls = count_sym_eig(monkeypatch)
        fs = design_features("orthonormal", 200, None, seed=6)
        run_imp(fs, ImpConfig(prune_rounds=10, rank_tol=2.0))
        assert len(calls) == 11

    def test_drift_falls_back_to_one_refactorization(self, monkeypatch):
        fs = design_features("uniform_corr", 200, 0.99, seed=7)
        config = ImpConfig(prune_rounds=30)
        calls = count_sym_eig(monkeypatch)
        real = engine_module._downdate
        seen = []

        def fail_third(*args):
            seen.append(None)
            return None if len(seen) == 3 else real(*args)

        monkeypatch.setattr(engine_module, "_downdate", fail_third)
        trace = assert_matches_oracle(fs, config)
        assert calls == [DIFF_P, DIFF_P - 3]  # round 0, then round 3 refactorized
        assert trace.rounds[3].eig is not None and trace.rounds[3].inverse is None
        assert all(rec.inverse is not None for k, rec in enumerate(trace.rounds) if k not in (0, 3))

    def test_non_positive_pivot_rejected(self):
        inverse = np.array([[2.0, 0.5], [0.5, -1.0]])
        assert engine_module._downdate(inverse, np.ones(2), np.array([1])) is None
        assert engine_module._downdate(inverse, np.ones(2), np.array([0])) is not None
        nan = np.full((2, 2), np.nan)
        assert engine_module._downdate(nan, np.ones(2), np.array([0])) is None

    def test_downdated_inverse_is_the_restricted_inverse(self):
        fs = design_features("incoherent", 60, None, seed=8)
        trace = run_imp(fs, ImpConfig(prune_rounds=20, per_round=2))
        for rec in trace.rounds[1:]:
            sub = fs.covariance.restrict(rec.mask.active_indices()).entries
            assert np.array_equal(rec.inverse, rec.inverse.T)
            assert np.allclose(rec.inverse @ sub, np.eye(sub.shape[0]), atol=1e-9)
        assert "inverse" not in trace_to_dict(trace)["rounds"][1]

    @pytest.mark.parametrize("horizon", [INFINITE, 3.0])
    def test_init_hook_fires_every_round_on_both_paths(self, horizon):
        fs = design_features("orthonormal", 200, None, seed=9)
        w_init = make_rng(10).standard_normal(DIFF_P)
        seen = []
        run_imp(
            fs,
            ImpConfig(prune_rounds=12, w_init=w_init, horizon=horizon),
            init_hook=lambda k, idx, w0: seen.append((k, idx.copy(), w0.copy())),
        )
        assert [k for k, _, _ in seen] == list(range(13))
        for _, idx, w0 in seen:
            assert np.array_equal(w0, w_init[idx])

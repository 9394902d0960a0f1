import hashlib
import json
import tracemalloc
from contextlib import nullcontext
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    imp_prune_order,
    run_imp,
    trace_to_dict,
)
from implinear.flow import INFINITE, closed_form_weights, is_infinite
from implinear.linalg import CovMatrix, SymEig, pseudo_inverse, sym_eig


class Data(NamedTuple):
    """A design and its targets, with the normal equations (Sigma, b) IMP reads."""

    phi: np.ndarray
    targets: np.ndarray
    covariance: CovMatrix
    b: np.ndarray


def with_targets(fs, y):
    y = np.asarray(y, dtype=float)
    return Data(fs.phi, y, fs.covariance, fs.phi.T @ y / fs.n)


def from_phi(phi, y):
    return with_targets(FeatureSet.from_phi(phi), y)


def run(stack, config, on_round=None):
    """run_imp on the normal equations of a stack of Data."""
    return run_imp([d.covariance for d in stack], np.stack([d.b for d in stack]), config,
                   on_round)


def prune_order(stack, config=None):
    return imp_prune_order([d.covariance for d in stack], np.stack([d.b for d in stack]), config)


def identity_features(y=(3.0, -1.0, 2.0)):
    return from_phi(np.eye(len(y)), y)


def random_features(seed, n=12, p=6):
    rng = make_rng(seed)
    phi = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return from_phi(phi, y)


class TestRunImp:
    def test_per_round_prunes_a_block(self):
        # w = y on the identity design: |0.5| and |-1| go first, then |2|, |3|
        [trace] = run([identity_features((3.0, -1.0, 2.0, 0.5))],
                          ImpConfig(prune_rounds=1, per_round=2))
        assert trace.pruned.ravel().tolist() == [3, 1, 2, 0]
        assert list(np.flatnonzero(trace.active[1])) == [0, 2]

    def test_identity_example(self):
        # round 0 trains to w = y, so |−1| then |2| are the successive minima
        trace = run([identity_features()], ImpConfig(prune_rounds=2))[0]
        assert trace.pruned.ravel().tolist() == [1, 2, 0]
        assert np.allclose(trace.final_weights, [3.0, 0.0, 0.0], atol=1e-12)

    def test_each_round_restricted_least_squares(self):
        # hand-solve the restricted problems of the identity example
        trace = run([identity_features()], ImpConfig(prune_rounds=2))[0]
        assert np.allclose(trace.weights, [[3.0, -1.0, 2.0], [3.0, 0.0, 2.0], [3.0, 0.0, 0.0]],
                           atol=1e-12)

    def test_q_zero_dense_solution(self):
        fs = random_features(31)
        trace = run([fs], ImpConfig(prune_rounds=0))[0]
        dense, *_ = np.linalg.lstsq(fs.phi, fs.targets, rcond=None)
        assert np.allclose(trace.final_weights, dense, atol=1e-8)
        assert trace.pruned.shape == (1, 1)  # the loop body still prunes once

    def test_final_round_matches_direct_solve(self):
        # full-rank covariance: the active weights equal the normal-equation solve
        fs = random_features(32, n=30, p=8)
        trace = run([fs], ImpConfig(prune_rounds=4))[0]
        active = np.flatnonzero(trace.active[-1])
        phi_a = fs.phi[:, active]
        direct = np.linalg.solve(phi_a.T @ phi_a, phi_a.T @ fs.targets)
        assert np.allclose(trace.final_weights[active], direct, atol=1e-8)

    def test_inactive_coordinates_exactly_zero(self):
        fs = random_features(33, n=20, p=10)
        trace = run([fs], ImpConfig(prune_rounds=6))[0]
        for k, (active, weights) in enumerate(zip(trace.active, trace.weights)):
            assert np.all(weights[~active] == 0.0)
            assert np.count_nonzero(~active) == k

    def test_sparsity_guarantee(self):
        for seed in range(5):
            fs = random_features(40 + seed, n=18, p=9)
            q = 5
            trace = run([fs], ImpConfig(prune_rounds=q))[0]
            assert int(np.sum(trace.final_weights == 0.0)) >= q

    def test_prune_choice_is_minimal(self):
        fs = random_features(34, n=25, p=12)
        trace = run([fs], ImpConfig(prune_rounds=8))[0]
        for active, weights, pruned in zip(trace.active, trace.weights, trace.pruned):
            survivors = active.copy()
            survivors[pruned] = False
            if survivors.any():
                assert np.max(np.abs(weights[pruned])) <= np.min(np.abs(weights[survivors]))

    def test_reset_semantics(self):
        # Every round restarts its survivors from w_init, as the oracle does
        # by construction.  At a finite horizon w_init shows in the trained
        # weights (wholly so on the nullspace of a singular Sigma_A), so a
        # round started anywhere else would differ.  Both factorize every
        # round alike, so they agree bit for bit.
        w_init = make_rng(99).standard_normal(DIFF_P)
        for n in (200, 40):  # nonsingular, then n < p
            fs = design_features("incoherent", n, None, seed=35)
            config = ImpConfig(prune_rounds=30, w_init=w_init, horizon=2.0)
            trace = run([fs], config)[0]
            oracle = oracle_imp(fs, config)
            assert len(trace.weights) == len(oracle)
            for k, (idx, w, pruned, _) in enumerate(oracle):
                assert np.array_equal(np.flatnonzero(trace.active[k]), idx)
                assert np.array_equal(trace.weights[k, idx], w)
                assert trace.pruned[k].tolist() == pruned

    def test_determinism_bit_identical(self):
        fs = random_features(36, n=22, p=10)
        t1 = run([fs], ImpConfig(prune_rounds=7))[0]
        t2 = run([fs], ImpConfig(prune_rounds=7))[0]
        assert np.array_equal(t1.pruned, t2.pruned)
        assert np.array_equal(t1.final_weights, t2.final_weights)
        assert np.array_equal(t1.weights, t2.weights)

    def test_per_round_batch_pruning(self):
        fs = random_features(37, n=20, p=9)
        trace = run([fs], ImpConfig(prune_rounds=2, per_round=3))[0]
        assert trace.pruned.shape == (3, 3)
        assert int(np.sum(trace.final_weights == 0.0)) >= 6

    def test_per_round_budget_enforced(self):
        fs = random_features(38, n=10, p=5)
        with pytest.raises(ValueError, match="exceeds p"):
            run([fs], ImpConfig(prune_rounds=2, per_round=2))

    def test_tie_break_rules(self):
        fs = identity_features([2.0, -2.0, 5.0])
        low = run([fs], ImpConfig(prune_rounds=0))[0]
        assert low.pruned.tolist() == [[0]]
        high = run([fs], ImpConfig(prune_rounds=0, tie_break="highest_index"))[0]
        assert high.pruned.tolist() == [[1]]

    def test_tie_rule_reads_coordinates_not_positions(self):
        # rows permuted as a downdated run's are: ties still go to the lower
        # (or higher) coordinate
        magnitudes = np.array([[1.0, 1.0, 2.0, 1.0]])
        active = np.array([[5, 2, 9, 7]])
        select = engine_module._select_prune
        assert select(magnitudes, active, 2, "lowest_index").tolist() == [[1, 0]]
        assert select(magnitudes, active, 2, "highest_index").tolist() == [[3, 0]]

    def test_unknown_tie_break_rejected(self):
        with pytest.raises(ValueError, match="tie_break"):
            ImpConfig(tie_break="coin_flip")

    def test_negative_prune_rounds_rejected(self):
        with pytest.raises(ValueError, match="prune_rounds must be nonnegative"):
            ImpConfig(prune_rounds=-1)

    def test_b_shape_checked(self):
        fs = identity_features()
        with pytest.raises(ValueError, match="b of shape"):
            run_imp([fs.covariance], fs.b, ImpConfig())
        with pytest.raises(ValueError, match="b of shape"):
            run_imp([fs.covariance, from_phi(np.eye(2), [1.0, 2.0]).covariance],
                    np.stack([fs.b, fs.b]), ImpConfig())
        for run_stack in (run_imp, imp_prune_order):  # an empty stack
            with pytest.raises(ValueError, match="at least one covariance"):
                run_stack([], np.zeros((0, 3)), ImpConfig())

    def test_w_init_length_checked(self):
        with pytest.raises(ValueError, match="w_init"):
            run([identity_features()], ImpConfig(w_init=np.zeros(2)))


class TestPruneOrder:
    def test_identity_full_ranking(self):
        assert prune_order([identity_features()]).tolist() == [[1, 2, 0]]

    def test_single_coordinate(self):
        fs = from_phi(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]))
        assert prune_order([fs]).tolist() == [[0]]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        p=st.integers(2, 12),
        extra=st.integers(0, 8),
        tie_break=st.sampled_from(TIE_BREAK_RULES),
    )
    def test_orthonormal_matches_alignment(self, seed, p, extra, tie_break):
        n = p + extra
        fs = with_targets(gen_orthonormal_design(n, p, seed=seed),
                          make_rng(seed, STREAM_TARGETS).standard_normal(n))
        xty = fs.phi.T @ fs.targets
        # Sigma = I only up to roundoff, so only a clear gap fixes the order.
        mags = np.sort(np.abs(xty))
        assume(np.all(np.diff(mags) > 1e-8 * mags[-1]))
        [order] = prune_order([fs], ImpConfig(tie_break=tie_break))
        assert np.array_equal(order, alignment_order(xty))


class TestTraceSerialization:
    def test_round_trip(self):
        # every field of the trace comes back from its JSON text bit for bit
        fs = random_features(39, n=14, p=6)
        trace = run([fs], ImpConfig(prune_rounds=3))[0]
        back = json.loads(json.dumps(trace_to_dict(trace)))
        assert back["final_weights"] == trace.final_weights.tolist()
        assert len(back["rounds"]) == len(trace.weights)
        for d, active, weights, pruned in zip(back["rounds"], trace.active, trace.weights,
                                              trace.pruned):
            assert d["active"] == active.tolist()
            assert d["weights"] == weights.tolist()
            assert d["pruned"] == pruned.tolist()
            assert d["pruned_magnitudes"] == [float(abs(weights[i])) for i in pruned]


class TestTraceArrays:
    def test_rounds_are_rows_of_read_only_arrays(self):
        # one stack of a nonsingular, a singular (n < p) and an identity run
        stack = [random_features(41, n=20, p=8), random_features(42, n=6, p=8),
                 from_phi(np.eye(8), np.arange(1.0, 9.0))]
        traces = run(stack, ImpConfig(prune_rounds=2, per_round=2))
        for trace in traces:
            assert trace.weights.shape == trace.active.shape == (3, 8)
            assert trace.pruned.shape == (3, 2)
            assert trace.pruned.dtype.kind == "i"
            # row k is round k: what no earlier round pruned, zero off it
            alive = np.ones(8, dtype=bool)
            for active, weights, pruned in zip(trace.active, trace.weights, trace.pruned):
                assert not (active.flags.writeable or weights.flags.writeable
                            or pruned.flags.writeable)
                assert np.array_equal(active, alive) and alive[pruned].all()
                assert np.all(weights[~active] == 0.0)
                alive[pruned] = False
            assert np.array_equal(trace.final_weights, trace.weights[-1])

    def test_no_trace_writes_into_another_runs_rows(self):
        stack = [random_features(43 + t, n=15, p=6) for t in range(3)]
        traces = run(stack, ImpConfig(prune_rounds=4))
        before = [(t.weights.copy(), t.active.copy(), t.pruned.copy()) for t in traces]
        for trace in traces:
            for a in (trace.weights, trace.active, trace.pruned, trace.final_weights):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a.setflags(write=True)  # a view of a read-only stack array
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 1
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for name in ("weights", "active", "pruned"):
                assert not np.shares_memory(getattr(traces[i], name), getattr(traces[j], name))
        for trace, (w, a, i) in zip(traces, before):
            assert np.array_equal(trace.weights, w) and np.array_equal(trace.active, a)
            assert np.array_equal(trace.pruned, i)


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
        fs = gen_incoherent_design(n, p, seed)
    return with_targets(fs, make_rng(seed, STREAM_TARGETS).standard_normal(n))


def oracle_imp(features, config):
    """Per round: active indices, trained weights, pruned indices, and the
    condition number of Sigma_A.

    Every round is factorized afresh and solved in its own eigenbasis; the
    tie rule is spelled out with a sort key rather than taken from the
    engine.
    """
    b, p = features.b, features.covariance.p
    w_init = config.w_init if config.w_init is not None else np.zeros(p)
    sign = 1 if config.tie_break == "lowest_index" else -1
    active = list(range(p))
    out = []
    for _ in range(config.prune_rounds + 1):
        idx = np.asarray(active)
        eig = sym_eig(features.covariance.restrict(idx))
        w = closed_form_weights(eig, b[idx], w_init[idx], config.horizon)
        ranked = sorted(range(idx.size), key=lambda i: (abs(w[i]), sign * i))
        pruned = [int(idx[i]) for i in ranked[: config.per_round]]
        kappa = eig.eigenvalues[-1] / eig.eigenvalues[0] if eig.eigenvalues[0] > 0 else np.inf
        out.append((idx, w, pruned, kappa))
        active = [i for i in active if i not in pruned]
    return out


def observed(factors, t):
    """Run t's factorization in a round: its SymEig if the round factorized
    it, else a copy of its slice of the downdate's inverse stack, which the
    engine overwrites after the call.  A run factorized and downdated in one
    round (round 0) has a slice that is its SymEig's pseudo-inverse bit for
    bit."""
    slot = factors.slot[t]
    if t not in factors.eigs:
        assert slot >= 0
        return factors.inverse[slot].copy()
    if slot >= 0:
        assert_same_bits(factors.inverse[slot], pseudo_inverse(factors.eigs[t]))
    return factors.eigs[t]


def run_observed(features, config):
    """A one-element run and, per round, the factorization the observer saw."""
    seen = []
    [trace] = run([features], config,
                  on_round=lambda k, active, weights, factors: seen.append(observed(factors, 0)))
    return trace, seen


def factorized(seen):
    """Per round: True where the run was factorized, False where downdated."""
    assert all(isinstance(f, (SymEig, np.ndarray)) for f in seen)
    return [isinstance(f, SymEig) for f in seen]


def assert_matches_oracle(features, config):
    trace, seen = run_observed(features, config)
    oracle = oracle_imp(features, config)
    assert len(trace.weights) == len(seen) == len(oracle)
    for active, weights, got, (idx, w, pruned, kappa) in zip(trace.active, trace.weights,
                                                             trace.pruned, oracle):
        assert np.array_equal(np.flatnonzero(active), idx)
        # Both paths are backward stable, so each sits within a few
        # kappa * eps of the exact solution: 1e-10 relative up to kappa ~ 1e4,
        # and kappa-proportional beyond (uniform_corr at alpha = 0.9999 has
        # kappa ~ 5e5, where the oracle itself is ~1e-10 off).
        rel = max(1e-10, 10.0 * kappa * np.finfo(float).eps)
        scale = max(float(np.max(np.abs(w))), 1e-300)
        assert np.max(np.abs(weights[idx] - w)) <= rel * scale
        assert got.tolist() == pruned
    return trace, seen


def assert_same_factor(a, b):
    if isinstance(a, SymEig):
        assert isinstance(b, SymEig)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert a.rank_tol == b.rank_tol
    else:
        assert np.array_equal(a, b)


def assert_same_run(trace, seen, solo_trace, solo_seen):
    """A slice of a stacked run is bit-equal to its one-element run."""
    assert len(trace.weights) == len(solo_trace.weights) == len(seen) == len(solo_seen)
    assert np.array_equal(trace.active, solo_trace.active)
    assert np.array_equal(trace.weights, solo_trace.weights)
    assert np.array_equal(trace.pruned, solo_trace.pruned)
    for a, b in zip(seen, solo_seen):
        assert_same_factor(a, b)


def run_stack_observed(stack, config):
    """A stacked run and, per slice, the factorizations the observer saw."""
    seen = [[] for _ in stack]

    def observe(k, active, weights, factors):
        assert active.shape == weights.shape == (len(stack), DIFF_P - k * config.per_round)
        for t, per_slice in enumerate(seen):
            per_slice.append(observed(factors, t))

    return run(stack, config, on_round=observe), seen


# Designs of one p whose runs take different paths: nonsingular, singular
# (n < p) and nearly singular (kappa ~ 5e5).
STACK_DESIGNS = (
    ("orthonormal", 200, None),
    ("incoherent", 60, None),
    ("incoherent", 40, None),
    ("uniform_corr", 200, 0.9999),
)


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
        _, seen = assert_matches_oracle(
            fs, ImpConfig(prune_rounds=q, per_round=per_round, tie_break=tie_break)
        )
        # a nonsingular design: every later round is downdated
        assert factorized(seen) == [True] + [False] * q

    @settings(max_examples=20, deadline=None)
    @given(
        designs=st.lists(st.sampled_from(STACK_DESIGNS), min_size=2, max_size=4),
        seed=st.integers(0, 10_000),
        per_round=st.sampled_from((1, 3)),
        tie_break=st.sampled_from(TIE_BREAK_RULES),
        horizon=st.sampled_from((INFINITE, 3.0)),
    )
    @example(designs=list(STACK_DESIGNS[:3]), seed=0, per_round=3, tie_break="lowest_index",
             horizon=INFINITE)
    def test_stack_matches_one_element_runs(self, designs, seed, per_round, tie_break,
                                            horizon):
        stack = [design_features(*d, seed + i) for i, d in enumerate(designs)]
        config = ImpConfig(prune_rounds=DIFF_P // per_round - 1, per_round=per_round,
                           tie_break=tie_break, horizon=horizon)
        traces, seen = run_stack_observed(stack, config)
        assert len(traces) == len(stack)
        for fs, trace, slice_seen in zip(stack, traces, seen):
            assert_same_run(trace, slice_seen, *run_observed(fs, config))
            # each round's active array is read-only, is what no earlier round
            # pruned, and carries every nonzero weight
            alive = np.ones(DIFF_P, dtype=bool)
            for active, weights, pruned in zip(trace.active, trace.weights, trace.pruned):
                assert not active.flags.writeable
                assert np.array_equal(active, alive)
                assert np.all(weights[~active] == 0.0)
                alive[pruned] = False

    def test_drift_in_one_slice_leaves_the_others_on_the_downdate(self, monkeypatch):
        stack = [design_features("uniform_corr", 200, 0.99, seed=7),
                 design_features("orthonormal", 200, None, seed=8),
                 design_features("incoherent", 200, None, seed=9)]
        config = ImpConfig(prune_rounds=30)
        solo = [run_observed(fs, config) for fs in stack]
        real = engine_module._downdate
        calls = []

        def fail_slice_1_third(inverse, weights, *args):
            calls.append(len(weights))
            weights, ok = real(inverse, weights, *args)
            if len(calls) == 3:
                ok = ok.copy()
                ok[1] = False
            return weights, ok

        monkeypatch.setattr(engine_module, "_downdate", fail_slice_1_third)
        traces, seen = run_stack_observed(stack, config)
        assert calls[:4] == [3, 3, 3, 2]  # slice 1 leaves the downdate for good
        assert factorized(seen[1]) == [k == 0 or k >= 3 for k in range(31)]
        for i in (0, 2):
            assert factorized(seen[i]) == [True] + [False] * 30
            assert_same_run(traces[i], seen[i], *solo[i])
        # the refactorized slice still trains every round correctly
        oracle = oracle_imp(stack[1], config)
        for weights, got, (idx, w, pruned, _) in zip(traces[1].weights, traces[1].pruned,
                                                     oracle):
            assert np.max(np.abs(weights[idx] - w)) <= 1e-10 * np.max(np.abs(w))
            assert got.tolist() == pruned

    def test_blocks_of_ten_at_p200_prune_as_the_eigendecomposition_path(self):
        fs = design_features("incoherent", 400, None, seed=17, p=200)
        _, seen = assert_matches_oracle(fs, ImpConfig(prune_rounds=19, per_round=10))
        assert factorized(seen) == [True] + [False] * 19

    def test_one_factorization_when_nonsingular(self, count_sym_eig):
        calls = count_sym_eig(engine_module)
        fs = design_features("incoherent", 200, None, seed=3)
        run([fs], ImpConfig(prune_rounds=45))
        assert calls == [("engine", DIFF_P)]

    @pytest.mark.parametrize("horizon", [0.5, 20.0])
    def test_finite_horizon_factorizes_every_round(self, count_sym_eig, horizon):
        calls = count_sym_eig(engine_module)
        fs = design_features("incoherent", 200, None, seed=4)
        _, seen = run_observed(fs, ImpConfig(prune_rounds=20, horizon=horizon))
        assert len(calls) == 21
        assert all(factorized(seen))

    def test_rank_deficient_factorizes_every_round(self, count_sym_eig):
        calls = count_sym_eig(engine_module)
        fs = design_features("incoherent", 40, None, seed=5)  # n < p: singular
        _, seen = run_observed(fs, ImpConfig(prune_rounds=45))
        assert len(calls) == 46
        assert all(factorized(seen))

    def test_drift_leaves_the_downdate_for_good(self, monkeypatch, count_sym_eig):
        fs = design_features("uniform_corr", 200, 0.99, seed=7)
        config = ImpConfig(prune_rounds=30)
        calls = count_sym_eig(engine_module)
        real = engine_module._downdate
        seen = []

        def fail_third(*args):
            seen.append(None)
            weights, ok = real(*args)
            return weights, ok & (len(seen) != 3)

        monkeypatch.setattr(engine_module, "_downdate", fail_third)
        _, factors = assert_matches_oracle(fs, config)
        # round 0, then every round from round 3 on
        assert calls == [("engine", DIFF_P)] + [("engine", DIFF_P - k) for k in range(3, 31)]
        assert factorized(factors) == [k == 0 or k >= 3 for k in range(31)]

    def test_non_positive_pivot_rejected(self):
        def ok(inverse, drop):
            return engine_module._downdate(inverse[None].copy(), np.ones((1, inverse.shape[0])),
                                           np.array([drop]))[1][0]

        inverse = np.array([[2.0, 0.5], [0.5, -1.0]])
        assert not ok(inverse, [1])
        assert ok(inverse, [0])
        assert not ok(np.full((2, 2), np.nan), [0])
        block = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert not ok(block, [0, 1])
        assert ok(np.eye(3), [0, 1])
        # cholesky returns a NaN factor of a NaN block without raising
        assert not ok(np.full((3, 3), np.nan), [0, 1])
        for entry in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            one_nan = np.eye(3)
            one_nan[entry] = np.nan
            assert not ok(one_nan, [0, 1])

    @pytest.mark.parametrize("drop", [[[1], [0]], [[0, 1], [1, 0]]], ids=["r1", "r2"])
    def test_rejected_slice_leaves_its_stack_mates(self, drop):
        # slice 0's pivot block is indefinite; slice 1 is downdated as if alone
        rng = make_rng(12)
        a = rng.standard_normal((8, 3))
        good = np.linalg.inv(a.T @ a)
        good = (good + good.T) / 2.0
        bad = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        weights = rng.standard_normal((2, 3))
        drop = np.array(drop)
        inverse, alone = np.stack([bad, good]), good[None].copy()
        w, ok = engine_module._downdate(inverse, weights.copy(), drop)
        assert list(ok) == [False, True]
        w_alone, _ = engine_module._downdate(alone, weights[1:].copy(), drop[1:])
        assert np.array_equal(inverse[1], alone[0]) and np.array_equal(w[1], w_alone[0])

    def test_downdated_inverse_is_the_restricted_inverse(self):
        # in the order of the round's active indices, which the swap-remove
        # permutes: the trace's masks alone would not say which row is which
        fs = design_features("incoherent", 60, None, seed=8)
        seen = []
        [trace] = run([fs], ImpConfig(prune_rounds=20, per_round=2),
                      lambda k, active, weights, factors: seen.append(
                          (active[0].copy(), observed(factors, 0))))
        assert any(np.any(np.diff(active) < 0) for active, _ in seen)
        for (active, inverse), mask in zip(seen[1:], trace.active[1:]):
            assert np.array_equal(np.sort(active), np.flatnonzero(mask))
            sub = fs.covariance.restrict(active).entries
            assert np.array_equal(inverse, inverse.T)
            assert np.allclose(inverse @ sub, np.eye(sub.shape[0]), atol=1e-9)
        assert "inverse" not in trace_to_dict(trace)["rounds"][1]

    @pytest.mark.parametrize("horizon", [INFINITE, 3.0], ids=["horizon0", "3.0"])
    def test_init_hook_fires_every_round_on_both_paths(self, monkeypatch, horizon):
        # The initialization is observed where the engine uses it: every
        # closed-form solve must start its survivors from w_init.  A
        # downdated round solves nothing from an initialization, and its
        # weights still match the oracle, which restarts every round from
        # w_init.
        fs = design_features("orthonormal", 200, None, seed=9)
        w_init = make_rng(10).standard_normal(DIFF_P)
        seen = []

        def recorded(eig, data_vec, w0, horizon):
            seen.append(w0.copy())
            return closed_form_weights(eig, data_vec, w0, horizon)

        monkeypatch.setattr(engine_module, "closed_form_weights", recorded)
        trace, factors = assert_matches_oracle(
            fs, ImpConfig(prune_rounds=12, w_init=w_init, horizon=horizon)
        )
        solved = [active for active, f in zip(trace.active, factorized(factors)) if f]
        assert len(solved) == (1 if is_infinite(horizon) else 13)
        assert len(seen) == len(solved)
        for active, w0 in zip(solved, seen):
            assert np.array_equal(w0, w_init[np.flatnonzero(active)])

    def test_full_ranking_keeps_no_factorization(self):
        # The trace holds O(q p) numbers.  Kept per round, the inverses alone
        # would be sum m^2 ~ 2.7M doubles (21 MB) at p = 200.
        fs = design_features("orthonormal", 400, None, seed=11, p=200)
        tracemalloc.start()
        try:
            [order] = prune_order([fs])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(order) == list(range(200))
        assert peak <= 4 * 2**20


PERM_P = 16


class TestPermutationEquivariance:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        per_round=st.sampled_from((1, 3)),
        horizon=st.sampled_from((INFINITE, 5.0)),
        perm=st.permutations(range(PERM_P)),
    )
    def test_permuted_columns_permute_the_run(self, seed, per_round, horizon, perm):
        fs = design_features("incoherent", 60, None, seed, p=PERM_P)
        perm = np.asarray(perm)
        config = ImpConfig(prune_rounds=PERM_P // per_round - 1, per_round=per_round,
                           horizon=horizon)
        trace = run([fs], config)[0]
        # Reordering changes the roundoff, so only a clear gap fixes the order.
        for active, weights in zip(trace.active, trace.weights):
            mags = np.sort(np.abs(weights[active]))
            assume(np.all(np.diff(mags) > 1e-8 * mags[-1]))
        permuted, seen = run_observed(from_phi(fs.phi[:, perm], fs.targets), config)
        assert factorized(seen)[-1] != is_infinite(horizon)  # downdated
        assert np.array_equal(perm[permuted.pruned], trace.pruned)
        for a, b in zip(permuted.weights, trace.weights):
            scale = float(np.max(np.abs(b)))
            assert np.max(np.abs(a - b[perm])) <= 1e-10 * scale


def symmetrizing_downdate(inverse, weights, drop):
    """The one-coordinate downdate as `engine._downdate` computed it before it
    relied on symmetry: G^T G by matmul, then the (S + S^T) / 2 pass."""
    d, m = weights.shape
    rows = np.arange(d)[:, None, None]
    keep = (np.arange(m) != drop[:, :, None]).all(axis=1)
    kept = np.nonzero(keep)[1].reshape(d, -1)
    pivot = inverse[rows, drop[:, :, None], drop[:, None, :]]
    rhs = np.concatenate((inverse[rows, drop[:, :, None], kept[:, None, :]],
                          weights[rows[:, 0], drop][:, :, None]), axis=2)
    ok = pivot[:, 0, 0] > 0.0
    g = rhs / np.sqrt(np.where(ok[:, None, None], pivot, 1.0))
    g_t, g_c, g_w = g[:, :, :-1].transpose(0, 2, 1), g[:, :, :-1], g[:, :, -1:]
    smaller = inverse[keep[:, :, None] & keep[:, None, :]].reshape(d, m - 1, m - 1) - g_t @ g_c
    smaller = (smaller + smaller.transpose(0, 2, 1)) / 2.0
    return smaller, weights[keep].reshape(d, m - 1) - (g_t @ g_w)[:, :, 0], ok


def spd_inverses(seed, d, m, log_conds):
    """A (d, m, m) stack of Sigma^{-1} as the engine's round 0 makes them, by
    `pseudo_inverse`, from random covariances of condition 10^log_cond."""
    rng = make_rng(seed)
    out = []
    for log_cond in log_conds[:d]:
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        a = (q * np.logspace(0.0, -log_cond, m)) @ q.T
        out.append(pseudo_inverse(sym_eig(CovMatrix((a + a.T) / 2.0))))
    return np.stack(out)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def swap_order(drop, m):
    """The kept positions of a row of width m, in the order the swap-remove
    leaves them: the kept positions among the last r fill the dropped ones
    before them, both taken in ascending order."""
    r = len(drop)
    holes = sorted(j for j in drop if j < m - r)
    tails = sorted(x for x in range(m - r, m) if x not in drop)
    order = list(range(m - r))
    for hole, tail in zip(holes, tails):
        order[hole] = tail
    return order


def compacted(drop, m):
    """Per slice, where each kept position of the swap-remove sits in the
    compaction, which keeps positions in ascending order."""
    out = []
    for row in drop.tolist():
        rank = {x: i for i, x in enumerate(x for x in range(m) if x not in row)}
        out.append([rank[x] for x in swap_order(row, m)])
    return np.array(out)


class TestSymmetricDowndate:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 4),
        m=st.integers(2, 14),
        log_conds=st.lists(st.floats(0.0, 8.0), min_size=4, max_size=4),
    )
    def test_scalar_downdate_is_the_symmetrizing_formula(self, seed, d, m, log_conds):
        inverse = spd_inverses(seed, d, m, log_conds)
        assert np.array_equal(inverse, inverse.transpose(0, 2, 1))
        rng = make_rng(seed, 1)
        weights = rng.standard_normal((d, m))
        drop = rng.integers(0, m, size=(d, 1))
        want_inverse, want_weights, want_ok = symmetrizing_downdate(inverse, weights, drop)
        got_weights, got_ok = engine_module._downdate(inverse, weights, drop)
        assert_same_bits(got_ok, want_ok)
        for i, idx in enumerate(compacted(drop, m)):
            assert_same_bits(inverse[i, :m - 1, :m - 1], want_inverse[i][np.ix_(idx, idx)])
            assert_same_bits(got_weights[i], want_weights[i, idx])

    def test_a_45_round_chain_stays_exactly_symmetric(self):
        # p = 50 down to 5, as a recover-p50 run: well-conditioned, moderately
        # and badly conditioned slices side by side.  Each slice's rows carry
        # coordinate labels, permuted by the swap-remove and ascending in the
        # formula's compaction.
        inverse = spd_inverses(13, 3, 50, [0.0, 4.0, 8.0, 0.0])
        weights = make_rng(14).standard_normal((3, 50))
        ref_inverse, ref_weights = inverse.copy(), weights.copy()
        labels = np.tile(np.arange(50), (3, 1))
        rng = make_rng(15)
        for m in range(50, 5, -1):
            drop = rng.integers(0, m, size=(3, 1))  # positions in the compaction
            coords = np.sort(labels, axis=1)[np.arange(3)[:, None], drop]
            local = np.argmax(labels == coords, axis=1)[:, None]
            weights, ok = engine_module._downdate(inverse, weights, local)
            ref_inverse, ref_weights, _ = symmetrizing_downdate(ref_inverse, ref_weights, drop)
            labels = np.array([row[swap_order([j], m)] for row, [j] in zip(labels, local)])
            assert ok.all()
            live = inverse[:, :m - 1, :m - 1]
            assert np.array_equal(live, live.transpose(0, 2, 1))
            for i, row in enumerate(labels):
                order = np.argsort(row)
                assert_same_bits(live[i][np.ix_(order, order)], ref_inverse[i])
                assert_same_bits(weights[i, order], ref_weights[i])
        assert inverse.shape == (3, 50, 50) and weights.shape == (3, 5)


def compaction_downdate(inverse, weights, drop):
    """The downdate out of place, in the engine's layout: the kept rows and
    columns gathered in `swap_order` into a new (G, m - r, m - r) stack, and
    a block's G^T G symmetrized before it is subtracted.  The oracle of the
    in-place swap-remove; one weight row per slice."""
    g_n, m = inverse.shape[:2]
    r = drop.shape[1]
    rows = np.arange(g_n)[:, None]
    kept = np.array([swap_order(row, m) for row in drop.tolist()]).reshape(g_n, m - r)
    smaller = inverse[rows[:, :, None], kept[:, :, None], kept[:, None, :]]
    w_kept = weights[rows, kept]
    w_drop = weights[rows, drop]
    if r == 1:
        t, j = rows[:, 0], drop[:, 0]
        pivot = inverse[t, j, j]
        ok = pivot > 0.0
        root = np.sqrt(np.where(ok, pivot, 1.0))[:, None]
        g = inverse[t, j][rows, kept] / root
        smaller -= g[:, :, None] * g[:, None, :]
        return smaller, w_kept - g * (w_drop / root), ok
    pivot = inverse[rows[:, :, None], drop[:, :, None], drop[:, None, :]]
    c_jk = inverse[rows[:, :, None], drop[:, :, None], kept[:, None, :]]
    ok = np.array([engine_module._positive_definite(a) for a in pivot])
    chol = np.linalg.cholesky(np.where(ok[:, None, None], pivot, np.eye(r)))
    g = np.linalg.solve(chol, np.concatenate((c_jk, w_drop[:, :, None]), axis=2))
    w_kept -= (g[:, :, :-1].transpose(0, 2, 1) @ g[:, :, -1:])[:, :, 0]
    gtg = g[:, :, :-1].transpose(0, 2, 1) @ g[:, :, :-1]
    smaller -= (gtg + gtg.transpose(0, 2, 1)) / 2.0
    return smaller, w_kept, ok


def compaction_imp(cov, b, config, plant=()):
    """One run at the infinite horizon, every downdate by
    `compaction_downdate`: active coordinates in swap-remove order, sorted
    before a factorized round's `restrict`, and a drifted run factorized
    in every later round.  At each round in `plant` the run must be on the
    downdate, and the pivot of its first pruned coordinate is set to -1
    first.  Returns the trace arrays (weights, active, pruned)."""
    p, q, r = cov.p, config.prune_rounds, config.per_round
    sign = 1 if config.tie_break == "lowest_index" else -1
    weights, masks = np.zeros((q + 1, p)), np.zeros((q + 1, p), dtype=bool)
    pruned = np.zeros((q + 1, r), dtype=int)
    active, inverse = np.arange(p), None
    for k in range(q + 1):
        if inverse is None:
            active = np.sort(active)
            eig = sym_eig(cov.restrict(active) if k else cov)
            w = closed_form_weights(eig, b[active], np.zeros(active.size), INFINITE)
            if k == 0 < q and eig.nonzero_mask().all():
                inverse = pseudo_inverse(eig)[None]
        drop = sorted(range(active.size), key=lambda i: (abs(w[i]), sign * active[i]))[:r]
        weights[k, active], masks[k, active], pruned[k] = w, True, active[drop]
        if k == q:
            break
        if k in plant:
            inverse[0, drop[0], drop[0]] = -1.0
        if inverse is not None:
            inverse, [w], [ok] = compaction_downdate(inverse, w[None], np.array([drop]))
            inverse = inverse if ok else None
        active = active[swap_order(drop, active.size)]
    return weights, masks, pruned


class TestSwapDowndate:
    """The in-place swap-remove downdate against an out-of-place reference in
    the same layout, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        g_n=st.integers(1, 3),
        m=st.integers(6, 14),
        r=st.sampled_from((2, 3, 5)),
        shared=st.booleans(),
        log_conds=st.lists(st.floats(0.0, 8.0), min_size=4, max_size=4),
    )
    def test_block_downdate_is_the_reference(self, seed, g_n, m, r, shared, log_conds):
        # with `shared`, slices serve several weight rows, as the sigma cells
        # of a baselines trial do
        inverse = spd_inverses(seed, g_n, m, log_conds)
        rng = make_rng(seed, 2)
        owner = np.arange(g_n)
        if shared:
            owner = np.sort(np.concatenate((owner, rng.integers(0, g_n, size=3))))
        drop = np.argsort(rng.random((g_n, m)), axis=1)[:, :r]  # any order, as prunes come
        weights = rng.standard_normal((len(owner), m))
        want_inverse, want_weights, want_ok = compaction_downdate(inverse[owner], weights,
                                                                  drop[owner])
        got_weights, got_ok = engine_module._downdate(inverse, weights.copy(), drop,
                                                      owner if shared else None)
        live = inverse[:, :m - r, :m - r]
        assert_same_bits(live, np.ascontiguousarray(live.transpose(0, 2, 1)))
        assert_same_bits(got_ok[owner], want_ok)
        assert_same_bits(got_weights, want_weights)
        for i, s in enumerate(owner):
            assert_same_bits(live[s], want_inverse[i])

    @settings(max_examples=30, deadline=None)
    @given(
        designs=st.lists(st.sampled_from(STACK_DESIGNS), min_size=1, max_size=3),
        cells=st.lists(st.sampled_from((0.0, 0.25, 1.0, None)), min_size=1, max_size=3),
        seed=st.integers(0, 10_000),
        per_round=st.sampled_from((1, 3)),
        tie_break=st.sampled_from(TIE_BREAK_RULES),
        plant=st.sets(st.integers(0, 12), max_size=2),
    )
    @example(designs=[STACK_DESIGNS[0], STACK_DESIGNS[2]], cells=[0.25, 1.0, None], seed=3,
             per_round=3, tie_break="highest_index", plant={0, 4})
    @example(designs=[STACK_DESIGNS[1]], cells=[0.0, None], seed=5, per_round=1,
             tie_break="lowest_index", plant={2})
    def test_traces_match_the_compaction_oracle(self, designs, cells, seed, per_round,
                                                tie_break, plant):
        # sigma cells on one CovMatrix share slices, and split where they
        # prune differently; at a planted round every slice whose runs agree
        # on their prunes gets a non-positive pivot and is factorized afresh
        covs, b = [], []
        for i, design in enumerate(designs):
            fs = design_features(*design, seed + i)
            for target in cell_targets(fs, cells, seed + i):
                covs.append(fs.covariance)
                b.append(target)
        config = ImpConfig(prune_rounds=DIFF_P // per_round - 1, per_round=per_round,
                           tie_break=tie_break)
        sign = 1 if tie_break == "lowest_index" else -1
        planted = [set() for _ in covs]
        refactorized = []

        def observe(k, active, weights, factors):
            refactorized.append(set(factors.eigs) if k else set())
            if k not in plant:
                return
            drops = [tuple(sorted(range(active.shape[1]),
                                  key=lambda i: (abs(w[i]), sign * a[i]))[:per_round])
                     for a, w in zip(active, weights)]
            for s in set(factors.slot.tolist()) - {-1}:
                runs = np.flatnonzero(factors.slot == s).tolist()
                if len({drops[t] for t in runs}) == 1:
                    j = drops[runs[0]][0]
                    factors.inverse[s][j, j] = -1.0  # the engine's own buffer
                    for t in runs:
                        planted[t].add(k)

        traces = run_imp(covs, np.stack(b), config, observe)
        for t, (cov, target, trace) in enumerate(zip(covs, b, traces)):
            weights, masks, pruned = compaction_imp(cov, target, config, planted[t])
            assert_same_bits(trace.weights, weights)  # -0.0 included
            assert_same_bits(trace.active, masks)
            assert_same_bits(trace.pruned, pruned)
            assert all(t in refactorized[k + 1] for k in planted[t])

    def test_observer_rows_follow_active(self):
        # round 0 hands out the pseudo-inverse of Sigma itself; every later
        # round a downdated inverse whose rows, and the weights, follow the
        # permuted active indices
        stack = [design_features(*d, seed=31 + i)
                 for i, d in enumerate([DIFF_DESIGNS[0], DIFF_DESIGNS[3], DIFF_DESIGNS[4]])]
        rounds = []

        def observe(k, active, weights, factors):
            for t, fs in enumerate(stack):
                inverse = factors.inverse[factors.slot[t]]
                if k == 0:
                    assert_same_bits(inverse, pseudo_inverse(sym_eig(fs.covariance)))
                sub = fs.covariance.restrict(active[t]).entries
                assert np.allclose(inverse @ sub, np.eye(len(sub)), atol=1e-8)
                assert np.allclose(weights[t], inverse @ fs.b[active[t]], atol=1e-10)
            rounds.append(bool(np.any(np.diff(active, axis=1) < 0)))

        for per_round in (1, 3):
            rounds.clear()
            run(stack, ImpConfig(prune_rounds=DIFF_P // per_round - 1, per_round=per_round),
                observe)
            assert not rounds[0] and any(rounds[1:])  # ascending at round 0 only for sure


def cell_targets(fs, cells, seed, k=3):
    """b of each cell on one design: a float is a noise level, and those
    cells share one sparse signal and one noise draw scaled by it, as the
    sigma cells of a baselines trial; None is an unrelated b."""
    rng = make_rng(seed, 3)
    n, p = fs.phi.shape
    signal = np.zeros(p)
    signal[rng.choice(p, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k)
    noise = rng.standard_normal(n)
    return [rng.standard_normal(p) if sigma is None
            else fs.phi.T @ (fs.phi @ signal + sigma * noise) / n for sigma in cells]


def drift_at_third_call(real):
    """`_downdate` that reports drift on its third call, on each slice whose
    [0, 0] entry has an even last bit: a property of the slice's bits, so a
    shared slice drifts exactly when each of its runs' own slices would."""
    calls = []

    def downdate(inverse, *args):
        calls.append(None)
        odd = inverse[:, 0, 0].view(np.int64) % 2 == 1  # read before it is overwritten
        w, ok = real(inverse, *args)
        if len(calls) == 3:
            ok = ok & odd
        return w, ok

    return downdate


def factor_digest(f):
    h = hashlib.sha256()
    if isinstance(f, SymEig):
        for a in (f.eigenvalues, f.eigenvectors, np.array(f.rank_tol)):
            h.update(a.tobytes())
    else:
        h.update(b"inverse" + np.ascontiguousarray(f).tobytes())
    return h.hexdigest()


def run_digested(covs, b, config, drift):
    """Traces, and per round the digest of each run's factorization and the
    number of inverse slices."""
    rounds = []

    def observe(k, active, weights, factors):
        assert len(factors.slot) == len(covs)
        rounds.append(([factor_digest(observed(factors, t)) for t in range(len(covs))],
                       len(factors.inverse)))

    patch = (mock.patch.object(engine_module, "_downdate", drift_at_third_call(
        engine_module._downdate)) if drift else nullcontext())
    with patch:
        return run_imp(covs, np.stack(b), config, observe), rounds


class TestSharedDowndate:
    """Runs on one CovMatrix object against the same runs on copies of it,
    one object and so one slice per run: bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        designs=st.lists(st.sampled_from(STACK_DESIGNS), min_size=1, max_size=3),
        cells=st.lists(st.sampled_from((0.0, 0.25, 1.0, 4.0, None)), min_size=2, max_size=4),
        seed=st.integers(0, 10_000),
        per_round=st.sampled_from((1, 2)),
        tie_break=st.sampled_from(TIE_BREAK_RULES),
        horizon=st.sampled_from((INFINITE, 3.0)),
        drift=st.booleans(),
    )
    @example(designs=[STACK_DESIGNS[0]], cells=[0.25, 1.0, None], seed=1, per_round=2,
             tie_break="highest_index", horizon=INFINITE, drift=True)
    def test_shared_runs_match_one_slice_per_run(self, designs, cells, seed, per_round,
                                                  tie_break, horizon, drift):
        covs, b = [], []
        for i, design in enumerate(designs):
            fs = design_features(*design, seed + i)
            for target in cell_targets(fs, cells, seed + i):
                covs.append(fs.covariance)
                b.append(target)
        copies = [CovMatrix(cov.entries.copy()) for cov in covs]
        config = ImpConfig(prune_rounds=DIFF_P // per_round - 1, per_round=per_round,
                           tie_break=tie_break, horizon=horizon)
        shared, shared_rounds = run_digested(covs, b, config, drift)
        alone, alone_rounds = run_digested(copies, b, config, drift)
        for a, c in zip(shared, alone):
            assert_same_bits(a.weights, c.weights)  # -0.0 included
            assert_same_bits(a.active, c.active)
            assert_same_bits(a.pruned, c.pruned)
        assert [digests for digests, _ in shared_rounds] == [d for d, _ in alone_rounds]
        # the shared stack never holds more slices than the copies' one per run
        assert all(len_s <= len_a for (_, len_s), (_, len_a) in zip(shared_rounds, alone_rounds))

    def test_cells_that_agree_share_one_slice_until_they_split(self):
        fs = design_features("orthonormal", 200, None, seed=21)
        b = cell_targets(fs, (0.25, 0.5, None), seed=21)
        slices = []
        run_imp([fs.covariance] * 3, np.stack(b), ImpConfig(prune_rounds=10),
                lambda k, active, weights, factors: slices.append(len(factors.inverse)))
        # round 0 factorizes once and the two noise cells' first prunes agree;
        # the unrelated run splits off at the first downdate
        assert slices[0] == 1 and slices[1] >= 2
        assert slices == sorted(slices)

    def test_round_factors_index_runs_into_the_shared_stack(self):
        fs = design_features("incoherent", 200, None, seed=22)
        b = cell_targets(fs, (0.1, 0.2), seed=22)
        checked = []

        def observe(k, active, weights, factors):  # its arrays are valid only now
            assert list(factors.slot) == [0, 0]  # both runs read the one slice
            assert factors.inverse.shape == (1, DIFF_P - k, DIFF_P - k)
            if k == 0:
                assert factors.eigs[0] is factors.eigs[1]
                assert_same_bits(factors.inverse[0], pseudo_inverse(factors.eigs[0]))
            else:
                assert factors.eigs == {}
            checked.append(k)

        run_imp([fs.covariance] * 2, np.stack(b), ImpConfig(prune_rounds=3), observe)
        assert checked == [0, 1, 2, 3]

    @pytest.mark.parametrize("horizon", [INFINITE, 3.0])
    def test_inverses_are_the_engines_stack_when_each_run_has_a_slice(self, horizon):
        # distinct covariances: one slice per run on the downdate, in the
        # runs' order, and none at a finite horizon, where every round
        # factorizes every run
        stack = [design_features("incoherent", 200, None, seed=23 + i) for i in range(3)]
        seen = []

        def observe(k, active, weights, factors):
            factorized = k == 0 or not is_infinite(horizon)
            assert sorted(factors.eigs) == ([0, 1, 2] if factorized else [])
            if is_infinite(horizon):
                assert list(factors.slot) == [0, 1, 2]
                for t in factors.eigs:
                    assert_same_bits(factors.inverse[t], pseudo_inverse(factors.eigs[t]))
            else:
                assert list(factors.slot) == [-1, -1, -1]
            seen.append(factors.inverse.shape)

        run(stack, ImpConfig(prune_rounds=4, horizon=horizon), on_round=observe)
        assert seen == ([(3, DIFF_P - k, DIFF_P - k) for k in range(5)] if is_infinite(horizon)
                        else [(0, DIFF_P - k, DIFF_P - k) for k in range(5)])

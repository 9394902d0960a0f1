"""Acceptance gate: every release criterion, one printed verdict per line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo budget is
dominated by the 1000-trial support-recovery run, which is shared across the
criteria that audit it.
"""

import math
import time

import numpy as np
import pytest

from implinear.designs import FeatureSet
from implinear.engine import ImpConfig, run_imp
from implinear.flow import closed_form_weights
from implinear.harness import (
    BaselineSpec,
    DesignSpec,
    ExperimentSpec,
    ImpSpec,
    NoiseSpec,
    SignalSpec,
    replay_trial,
    row_without_wall_ms,
    run_baseline_comparison,
    run_concentration_check,
    run_heuristic_equivalence,
    run_support_recovery,
)
from implinear.linalg import CovMatrix, pseudo_inverse, sym_eig
from implinear.theory import (
    BoundInputs,
    concentration_sample_size_raw,
    recovery_sample_size,
    recovery_sample_size_raw,
)
from oracles import flow_rk4


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def recovery_1000(tmp_path_factory):
    """The 1000-trial support-recovery run, shared by criteria 5, 7, and 10."""
    out = tmp_path_factory.mktemp("recovery1000")
    spec = ExperimentSpec(
        kind="support_recovery",
        design=DesignSpec(kind="orthonormal", p=50),
        trials=1000,
        base_seed=20_240_501,
        delta=0.1,
        signal=SignalSpec(k=5, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=1.0),
        imp=ImpSpec(q=45),
        out_dir=str(out),
        threads=1,
    )
    start = time.perf_counter()
    report = run_support_recovery(spec)
    elapsed = time.perf_counter() - start
    return spec, report, elapsed


def test_criterion_1_gradient_flow_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 13))
        fs = FeatureSet.from_phi(rng.standard_normal((n, m)))
        y = rng.standard_normal(n)
        w0 = rng.standard_normal(m)
        cov, b = fs.covariance, fs.phi.T @ y / n
        eig = sym_eig(cov)
        for horizon in (0.1, 1.0, 10.0):
            exact = closed_form_weights(eig, b, w0, horizon)
            numeric = flow_rk4(cov, b, w0, horizon, 10_000)
            err = np.max(np.abs(exact - numeric)) / (1.0 + np.max(np.abs(exact)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(
        "1 gradient-flow oracle equivalence",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_orthonormal_order_exactness():
    start = time.perf_counter()
    total_qualifying = 0
    all_exact = True
    for p, trials, seed in ((4, 125, 100), (8, 125, 200), (12, 125, 300), (16, 125, 400)):
        spec = ExperimentSpec(
            kind="heuristic_equivalence",
            design=DesignSpec(kind="orthonormal", p=p),
            trials=trials,
            base_seed=seed,
        )
        report = run_heuristic_equivalence(spec)
        total_qualifying += report.qualifying
        all_exact = all_exact and report.full_match_rate == 1.0
    elapsed = time.perf_counter() - start
    _report(
        "2 orthonormal-design order match",
        all_exact and total_qualifying >= 490 and elapsed < 30.0,
        f"{total_qualifying} qualifying of 500, {elapsed:.1f}s",
    )


def test_criterion_3_uniform_correlation_regime():
    spec = ExperimentSpec(
        kind="heuristic_equivalence",
        design=DesignSpec(kind="uniform_corr", p=10, alpha=0.01),
        trials=500,
        base_seed=9_000,
    )
    report = run_heuristic_equivalence(spec)
    ok = (
        report.full_match_rate == 1.0
        and report.qualifying >= 50
        and report.max_inverse_err <= 1e-8
    )
    _report(
        "3 uniform-correlation order match",
        ok,
        f"{report.qualifying} certified of 500 "
        f"(excluded {report.excluded}, degenerate {report.degenerate}), "
        f"inverse err {report.max_inverse_err:.2e}",
    )


def test_criterion_4_incoherent_first_prune():
    spec = ExperimentSpec(
        kind="heuristic_equivalence",
        design=DesignSpec(kind="incoherent", p=3, n=30_000),
        trials=500,
        base_seed=10_000,
    )
    report = run_heuristic_equivalence(spec)
    logged = all(
        np.isfinite(row.delta_pw) and np.isfinite(row.gap_threshold)
        for row in report.rows
    )
    gap_enforced = all(
        row.min_gap > row.gap_threshold for row in report.rows if not row.excluded
    )
    _report(
        "4 incoherent-design first prune",
        report.first_match_rate == 1.0
        and report.qualifying == 500
        and logged
        and gap_enforced,
        f"500 qualifying out of {report.attempts} attempts",
    )


def test_criterion_5_support_recovery_monte_carlo(recovery_1000):
    spec, report, elapsed = recovery_1000
    s = report.summary
    realized_n = {rec.n for rec in report.records}
    ok = (
        s.trials == 1000
        and realized_n == {222}
        and s.failure_rate <= spec.delta
        and elapsed < 300.0
    )
    _report(
        "5 support-recovery Monte Carlo",
        ok,
        f"n=222, failure rate {s.failure_rate:.4f} "
        f"(CI [{s.ci_low:.4f}, {s.ci_high:.4f}]) vs delta {spec.delta}, {elapsed:.0f}s",
    )


def test_criterion_6_noise_concentration_monte_carlo():
    gamma, sigma, delta, p = 0.5, 1.0, 0.1, 50
    worst = 0.0
    for kind, alpha in (("orthonormal", None), ("uniform_corr", 0.1), ("incoherent", None)):
        for noise_kind in ("gaussian", "rademacher", "uniform"):
            spec = ExperimentSpec(
                kind="lemma1_check",
                design=DesignSpec(kind=kind, p=p, alpha=alpha),
                trials=2000,
                base_seed=11_000,
                delta=delta,
                signal=SignalSpec(k=5, gamma=gamma),
                noise=NoiseSpec(kind=noise_kind, sigma=sigma),
            )
            report = run_concentration_check(spec)
            worst = max(worst, report.summary.failure_rate)
            assert report.summary.failure_rate <= delta, (kind, noise_kind)

    identity = all(
        recovery_sample_size_raw(
            BoundInputs(sigma=sigma, margin=g, lambda_min_nz=lam, p=p, delta=delta)
        )
        == concentration_sample_size_raw(
            BoundInputs(sigma=sigma, margin=g / 2.0, lambda_min_nz=lam, p=p, delta=delta)
        )
        for g in (0.5, 0.3, 2.0)
        for lam in (1.0, 0.9, 0.25)
    )
    _report(
        "6 noise-concentration Monte Carlo",
        worst <= delta and identity,
        f"worst exceedance {worst:.4f} across 9 regimes, bound identity exact",
    )


def test_criterion_7_sparsity_guarantee(recovery_1000):
    _, report, _ = recovery_1000
    violations = sum(not rec.sparsity_ok for rec in report.records)

    # independent sweep over designs, horizons, and batch sizes
    rng = np.random.default_rng(77)
    for _ in range(25):
        p = int(rng.integers(2, 12))
        n = int(rng.integers(p, 3 * p + 1))
        per_round = int(rng.integers(1, 3))
        q = int(rng.integers(0, p // per_round))
        phi = rng.standard_normal((n, p))
        y = rng.standard_normal(n)

        horizon = float(rng.uniform(0.5, 5.0)) if rng.random() < 0.5 else float("inf")
        [trace] = run_imp(
            [FeatureSet.from_phi(phi).covariance], (phi.T @ y / n)[None],
            ImpConfig(horizon=horizon, prune_rounds=q, per_round=per_round),
        )
        zeros = int(np.sum(trace.final_weights == 0.0))
        violations += int(zeros < q * per_round)
    _report(
        "7 sparsity guarantee",
        violations == 0,
        "final weights carry >= q * per_round zeros in every run",
    )


def test_criterion_8_baseline_sanity():
    spec = ExperimentSpec(
        kind="baseline_comparison",
        design=DesignSpec(kind="orthonormal", p=16, n=48),
        trials=100,
        base_seed=12_000,
        signal=SignalSpec(k=4, gamma=1.0),
        noise=NoiseSpec(kind="gaussian", sigma=0.0),
        baseline=BaselineSpec(tau=0.5, eta=1.0),
    )
    rates = {c.method: c.exact_rate for c in run_baseline_comparison(spec)}
    _report(
        "8 baseline sanity (noiseless)",
        rates == {"imp": 1.0, "ht": 1.0, "iht": 1.0},
        f"exact-recovery rates {rates}",
    )


def test_criterion_9_penrose_identities():
    # random PSD with nonzero spectrum in [0.25, 4] (exact zeros for the
    # rank-deficient half), so an absolute 1e-8 on both identities is a
    # statement about the pseudo-inverse and not about conditioning
    rng = np.random.default_rng(13_000)
    worst = 0.0
    for i in range(200):
        p = int(rng.integers(2, 25))
        rank = max(1, p // 2) if i % 2 == 0 else p
        basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
        lam = np.zeros(p)
        lam[:rank] = rng.uniform(0.25, 4.0, size=rank)
        a = (basis * lam) @ basis.T
        cov = CovMatrix((a + a.T) / 2.0)
        pinv = pseudo_inverse(sym_eig(cov))
        worst = max(
            worst,
            float(np.max(np.abs(cov.entries @ pinv @ cov.entries - cov.entries))),
            float(np.max(np.abs(pinv @ cov.entries @ pinv - pinv))),
        )
    _report(
        "9 Penrose identities",
        worst <= 1e-8,
        f"worst deviation {worst:.2e} over 200 matrices (half rank p/2)",
    )


def test_criterion_10_replay_determinism(recovery_1000, tmp_path):
    spec_big, report_big, _ = recovery_1000

    # replay a handful of stored trials from (config, seed) alone
    replay_ok = all(
        replay_trial(spec_big, t)[1] is True for t in (0, 137, 499, 999)
    )

    # a fresh pair of runs must agree byte for byte outside the wall clock
    small = ExperimentSpec(
        kind="support_recovery",
        design=DesignSpec(kind="orthonormal", p=16),
        trials=40,
        base_seed=14_000,
        delta=0.1,
        signal=SignalSpec(k=4, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=1.0),
    )
    run_a = run_support_recovery(small._replace(out_dir=str(tmp_path / "a")))
    run_b = run_support_recovery(small._replace(out_dir=str(tmp_path / "b"), threads=2))
    rows_a = (tmp_path / "a" / "trials.csv").read_text().splitlines()
    rows_b = (tmp_path / "b" / "trials.csv").read_text().splitlines()
    rows_match = len(rows_a) == len(rows_b) and all(
        row_without_wall_ms(x) == row_without_wall_ms(y)
        for x, y in zip(rows_a, rows_b)
    )
    summaries_match = run_a.summary == run_b.summary
    _report(
        "10 trial replay determinism",
        replay_ok and rows_match and summaries_match,
        "rows byte-identical up to the wall_ms column",
    )


def test_derived_sample_size_matches_formula():
    # the n = 222 used by criterion 5 comes straight out of the printed bound
    b = BoundInputs(sigma=1.0, margin=0.5, lambda_min_nz=1.0, p=50, delta=0.1)
    assert recovery_sample_size_raw(b) == pytest.approx(32.0 * math.log(1000.0))
    assert recovery_sample_size(b) == 222

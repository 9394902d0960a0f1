import json
from dataclasses import replace

import numpy as np
import pytest

from implinear import harness as harness_module
from implinear.engine import ImpConfig, run_imp
from implinear.harness import (
    RECOVERY_TOL,
    ConfigError,
    DesignSpec,
    ExperimentSpec,
    ImpSpec,
    NoiseSpec,
    SignalSpec,
    TRIALS_CSV_HEADER,
    load_spec,
    recovery_trial,
    replay_trial,
    resolve_sample_size,
    row_without_wall_ms,
    run_baseline_comparison,
    run_concentration_check,
    run_heuristic_equivalence,
    run_support_recovery,
    spec_from_dict,
    spec_to_dict,
    trial_csv_row,
    uniform_corr_separation_margin,
)
from implinear.linalg import sym_eig
from implinear.theory import check_recoverable, recovery_sample_size


def recovery_spec(**overrides):
    base = ExperimentSpec(
        kind="support_recovery",
        design=DesignSpec(kind="orthonormal", p=12),
        trials=12,
        base_seed=1234,
        delta=0.1,
        signal=SignalSpec(k=3, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=1.0),
    )
    return replace(base, **overrides)


def config_document():
    return {
        "kind": "support_recovery",
        "design": {"kind": "orthonormal", "p": 12, "n": None, "alpha": None},
        "signal": {"k": 3, "gamma": 0.5, "amplitude_law": "constant"},
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "imp": {"q": None, "per_round": 1, "horizon": "infinite",
                "tie_break": "lowest_index"},
        "baseline": None,
        "delta": 0.1,
        "trials": 12,
        "base_seed": 1234,
        "epsilon": None,
        "out_dir": None,
        "verified_mode": False,
        "threads": 1,
        "tie_tol": 1e-9,
        "separation_screen": True,
    }


class TestSpecParsing:
    def test_round_trip(self):
        spec = spec_from_dict(config_document())
        assert spec == spec_from_dict(spec_to_dict(spec))

    def test_unknown_top_level_key(self):
        doc = config_document()
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            spec_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = config_document()
        doc["design"]["rho"] = 0.5
        with pytest.raises(ConfigError, match="rho"):
            spec_from_dict(doc)

    def test_missing_required_key(self):
        doc = config_document()
        del doc["trials"]
        with pytest.raises(ConfigError, match="trials"):
            spec_from_dict(doc)

    def test_bad_kind(self):
        doc = config_document()
        doc["kind"] = "lottery"
        with pytest.raises(ConfigError, match="kind"):
            spec_from_dict(doc)

    def test_uniform_corr_needs_alpha(self):
        doc = config_document()
        doc["design"]["kind"] = "uniform_corr"
        with pytest.raises(ConfigError, match="alpha"):
            spec_from_dict(doc)

    def test_signal_required_for_recovery(self):
        doc = config_document()
        doc["signal"] = None
        with pytest.raises(ConfigError, match="signal"):
            spec_from_dict(doc)

    def test_load_spec_bad_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(path)


class TestSampleSizeResolution:
    def test_orthonormal_uses_analytic_lambda(self):
        spec = recovery_spec(design=DesignSpec(kind="orthonormal", p=50),
                             signal=SignalSpec(k=5, gamma=0.5))
        n, bound, lam = resolve_sample_size(spec, seed=1, margin=0.5,
                                            bound_fn=recovery_sample_size)
        assert (n, bound, lam) == (222, 222, 1.0)

    def test_explicit_n_wins(self):
        spec = recovery_spec(design=DesignSpec(kind="orthonormal", p=12, n=64))
        n, bound, _ = resolve_sample_size(spec, seed=1, margin=0.5,
                                          bound_fn=recovery_sample_size)
        assert n == 64 and bound > 0

    def test_noiseless_falls_back_to_p(self):
        spec = recovery_spec(noise=NoiseSpec(sigma=0.0))
        n, bound, _ = resolve_sample_size(spec, seed=1, margin=0.5,
                                          bound_fn=recovery_sample_size)
        assert bound == 1 and n == 12

    def test_incoherent_iterates_to_stability(self):
        spec = recovery_spec(design=DesignSpec(kind="incoherent", p=20))
        n, bound, lam = resolve_sample_size(spec, seed=7, margin=0.5,
                                            bound_fn=recovery_sample_size)
        assert n >= bound and 0.0 < lam <= 1.5


class TestSupportRecovery:
    def test_report_and_flags(self):
        report = run_support_recovery(recovery_spec())
        assert report.rejected == 0
        assert len(report.records) == 12
        assert report.summary.trials == 12
        for rec in report.records:
            assert rec.q == 12 - 3
            assert rec.seed == 1234 + rec.trial
            assert len(rec.round_min_eigs) == rec.q + 1
            assert len(rec.round_residuals) == rec.q + 1
            assert rec.max_recov_residual <= 1e-8

    def test_noiseless_never_fails(self):
        report = run_support_recovery(recovery_spec(noise=NoiseSpec(sigma=0.0)))
        assert report.summary.failure_rate == 0.0
        assert report.summary.passed

    def test_q_zero_dense(self):
        report = run_support_recovery(
            recovery_spec(imp=ImpSpec(q=0), noise=NoiseSpec(sigma=0.0), trials=4)
        )
        for rec in report.records:
            assert rec.q == 0 and rec.sparsity_ok and rec.no_false_exclusion

    def test_pool_matches_serial(self):
        serial = run_support_recovery(recovery_spec(trials=8))
        pooled = run_support_recovery(recovery_spec(trials=8, threads=2))
        for a, b in zip(serial.records, pooled.records):
            assert trial_csv_row(a).rsplit(",", 1)[0] == trial_csv_row(b).rsplit(",", 1)[0]

    def test_summary_permutation_invariant(self):
        # the summary only depends on the set of per-trial outcomes
        report = run_support_recovery(recovery_spec(trials=10))
        flags = sorted(
            (r.sparsity_ok, r.no_false_exclusion) for r in report.records
        )
        report2 = run_support_recovery(recovery_spec(trials=10, threads=3))
        flags2 = sorted(
            (r.sparsity_ok, r.no_false_exclusion) for r in report2.records
        )
        assert flags == flags2
        assert report.summary == report2.summary

    def test_onp_rejection_aborts(self):
        # n < p makes the covariance rank-deficient, so the property fails
        spec = recovery_spec(design=DesignSpec(kind="incoherent", p=12, n=6), trials=4)
        with pytest.raises(ConfigError, match="ONP"):
            run_support_recovery(spec)

    def test_verified_mode_does_not_change_outcomes(self):
        plain = run_support_recovery(recovery_spec(trials=6))
        verified = run_support_recovery(recovery_spec(trials=6, verified_mode=True))
        assert plain.summary == verified.summary
        for a, b in zip(plain.records, verified.records):
            assert (a.sparsity_ok, a.no_false_exclusion) == (b.sparsity_ok, b.no_false_exclusion)
            assert a.round_residuals == b.round_residuals
            assert a.trace_json is None and b.trace_json is not None

    def test_finite_horizon_config(self):
        assert ImpSpec(horizon=2.5).engine_horizon() == 2.5
        report = run_support_recovery(
            recovery_spec(imp=ImpSpec(horizon=50.0), noise=NoiseSpec(sigma=0.0), trials=3)
        )
        assert report.summary.failure_rate == 0.0

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        spec = recovery_spec(trials=5, out_dir=str(out), verified_mode=True)
        run_support_recovery(spec)
        lines = (out / "trials.csv").read_text().splitlines()
        assert lines[0] == TRIALS_CSV_HEADER
        assert len(lines) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary"]["trials"] == 5
        traces = sorted((out / "trace").glob("*.json"))
        assert len(traces) == 5
        trace0 = json.loads(traces[0].read_text())
        assert len(trace0["rounds"]) == spec.design.p - spec.signal.k + 1


NONSINGULAR_DESIGNS = (
    DesignSpec(kind="orthonormal", p=12),
    DesignSpec(kind="incoherent", p=12, n=14),
    DesignSpec(kind="incoherent", p=12, n=200),
    DesignSpec(kind="uniform_corr", p=12, n=48, alpha=0.99),
    DesignSpec(kind="uniform_corr", p=12, n=48, alpha=0.9999),
)


def problem_and_trace(spec, t):
    """Rebuild trial t's problem and IMP trace the way recovery_trial does."""
    seed = spec.base_seed + t
    n, _, _ = resolve_sample_size(spec, seed, spec.signal.gamma, recovery_sample_size)
    problem = harness_module._build_problem(spec, seed, n)
    config = ImpConfig(horizon=spec.imp.engine_horizon(),
                       prune_rounds=spec.design.p - spec.signal.k)
    return problem, run_imp(problem.features, config)


def count_audit_sym_eig(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].p)
        return sym_eig(*args, **kwargs)

    monkeypatch.setattr(harness_module, "sym_eig", counted)
    return calls


class TestAuditRounds:
    @pytest.mark.parametrize("design", NONSINGULAR_DESIGNS, ids=lambda d: f"{d.kind}-{d.n}-{d.alpha}")
    def test_min_eig_is_the_full_spectrum_minimum(self, design):
        spec = recovery_spec(design=design, trials=3)
        for t in range(3):
            rec = recovery_trial(spec, t)
            problem, trace = problem_and_trace(spec, t)
            full = sym_eig(problem.features.covariance)
            assert rec.min_nz_eig == full.eigenvalues[0]
            slack = 1e-12 * full.eigenvalues[-1]
            for rnd in trace.rounds:
                sub = problem.features.covariance.restrict(rnd.mask.active_indices())
                assert rec.min_nz_eig <= np.linalg.eigvalsh(sub.entries)[0] + slack

    @pytest.mark.parametrize("design", NONSINGULAR_DESIGNS, ids=lambda d: f"{d.kind}-{d.n}-{d.alpha}")
    def test_downdated_rounds_reuse_the_engine(self, monkeypatch, design):
        spec = recovery_spec(design=design)
        problem, trace = problem_and_trace(spec, 1)
        calls = count_audit_sym_eig(monkeypatch)
        eigs, residuals = harness_module._audit_rounds(problem, trace)
        assert calls == []
        assert len(eigs) == len(residuals) == len(trace.rounds)
        for rnd, residual in zip(trace.rounds, residuals):
            idx = rnd.mask.active_indices()
            fresh = check_recoverable(problem.features.covariance.restrict(idx),
                                      problem.signal[idx], tol=RECOVERY_TOL)
            assert residual <= RECOVERY_TOL
            assert residual == pytest.approx(fresh.residual, abs=1e-10)

    def test_finite_horizon_audit_refactorizes_every_round(self, monkeypatch):
        spec = recovery_spec(imp=ImpSpec(horizon=5.0))
        problem, trace = problem_and_trace(spec, 0)
        calls = count_audit_sym_eig(monkeypatch)
        eigs, _ = harness_module._audit_rounds(problem, trace)
        assert len(calls) == len(trace.rounds)
        assert min(eigs) == pytest.approx(1.0)


class TestReplay:
    def test_replay_matches(self, tmp_path):
        out = tmp_path / "run"
        spec = recovery_spec(trials=6, out_dir=str(out))
        run_support_recovery(spec)
        row, verdict = replay_trial(spec, 4)
        assert verdict is True
        assert row.startswith("4,1238,")

    def test_replay_detects_tampering(self, tmp_path):
        out = tmp_path / "run"
        spec = recovery_spec(trials=3, out_dir=str(out))
        run_support_recovery(spec)
        csv_path = out / "trials.csv"
        text = csv_path.read_text().replace("1,1", "1,0", 1)
        csv_path.write_text(text)
        verdicts = [replay_trial(spec, t)[1] for t in range(3)]
        assert False in verdicts

    def test_replay_without_outputs(self):
        row, verdict = replay_trial(recovery_spec(trials=3), 1)
        assert verdict is None and row.startswith("1,1235,")

    def test_replay_out_of_range(self):
        with pytest.raises(ConfigError, match="trial"):
            replay_trial(recovery_spec(trials=3), 7)

    def test_row_format(self):
        rec = recovery_trial(recovery_spec(), 2)
        row = trial_csv_row(rec)
        fields = row.split(",")
        assert len(fields) == len(TRIALS_CSV_HEADER.split(","))
        assert fields[0] == "2" and fields[1] == "1236"
        assert fields[9] in ("0", "1") and fields[10] in ("0", "1")
        assert row_without_wall_ms(row) == row.rsplit(",", 1)[0]


class TestHeuristic:
    def test_orthonormal_exact(self):
        spec = ExperimentSpec(
            kind="heuristic_equivalence",
            design=DesignSpec(kind="orthonormal", p=10),
            trials=40,
            base_seed=55,
        )
        report = run_heuristic_equivalence(spec)
        assert report.qualifying == 40
        assert report.full_match_rate == 1.0
        assert report.passed

    def test_uniform_corr_certified(self, tmp_path):
        spec = ExperimentSpec(
            kind="heuristic_equivalence",
            design=DesignSpec(kind="uniform_corr", p=10, alpha=0.01),
            trials=60,
            base_seed=56,
            out_dir=str(tmp_path / "h"),
        )
        report = run_heuristic_equivalence(spec)
        assert report.qualifying >= 5
        assert report.full_match_rate == 1.0
        assert report.max_inverse_err <= 1e-8
        assert report.passed
        lines = (tmp_path / "h" / "heuristic_trials.csv").read_text().splitlines()
        assert len(lines) == 61

    def test_incoherent_enforced_gap(self):
        spec = ExperimentSpec(
            kind="heuristic_equivalence",
            design=DesignSpec(kind="incoherent", p=3, n=20_000),
            trials=25,
            base_seed=57,
        )
        report = run_heuristic_equivalence(spec)
        assert report.qualifying == 25
        assert report.attempts >= 25
        assert report.first_match_rate == 1.0
        for row in report.rows:
            if not row.excluded:
                assert row.min_gap > row.gap_threshold

    def test_incoherent_requires_n(self):
        with pytest.raises(ConfigError, match="design.n"):
            spec_from_dict(
                {
                    "kind": "heuristic_equivalence",
                    "design": {"kind": "incoherent", "p": 3},
                    "trials": 5,
                    "base_seed": 1,
                }
            )

    def test_separation_margin_certifies(self):
        # a geometric score ladder is far from every tie: certificate positive
        scores = np.array([0.001, 1.0, 10.0, 100.0])
        assert uniform_corr_separation_margin(scores, alpha=0.001) > 0.0
        # near-tied scores of opposite sign: the shift can flip the argmin
        scores = np.array([1.0, -1.0000001, 50.0, -40.0])
        assert uniform_corr_separation_margin(scores, alpha=0.01) < 0.0


class TestBaselines:
    def test_noiseless_orthonormal_all_exact(self, tmp_path):
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="orthonormal", p=10, n=30),
            trials=20,
            base_seed=58,
            signal=SignalSpec(k=3, gamma=1.0),
            noise=NoiseSpec(kind="gaussian", sigma=0.0),
            out_dir=str(tmp_path / "b"),
        )
        report = run_baseline_comparison(spec)
        assert {c.method for c in report.cells} == {"imp", "ht", "iht"}
        for cell in report.cells:
            assert cell.exact_rate == 1.0
            assert cell.mean_f1 == 1.0
        lines = (tmp_path / "b" / "baselines.csv").read_text().splitlines()
        assert lines[0] == "sigma,method,trials,exact_count,exact_rate,mean_f1"
        assert len(lines) == 4

    def test_huge_tau_empty_support(self):
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="orthonormal", p=8, n=24),
            trials=5,
            base_seed=59,
            signal=SignalSpec(k=2, gamma=1.0),
            noise=NoiseSpec(sigma=0.0),
        )
        from implinear.harness import BaselineSpec

        spec = replace(spec, baseline=BaselineSpec(tau=1e6))
        report = run_baseline_comparison(spec)
        for cell in report.cells:
            if cell.method in ("ht", "iht"):
                assert cell.exact_rate == 0.0 and cell.mean_f1 == 0.0
            else:  # IMP keeps exactly k survivors regardless of tau
                assert cell.exact_rate == 1.0

    def test_sigma_sweep_keyed_rows(self):
        from implinear.harness import BaselineSpec

        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="orthonormal", p=8, n=40),
            trials=4,
            base_seed=60,
            signal=SignalSpec(k=2, gamma=1.0),
            noise=NoiseSpec(sigma=0.0),
            baseline=BaselineSpec(sigmas=(0.0, 0.5)),
        )
        report = run_baseline_comparison(spec)
        assert [(c.sigma, c.method) for c in report.cells] == [
            (0.0, "imp"), (0.0, "ht"), (0.0, "iht"),
            (0.5, "imp"), (0.5, "ht"), (0.5, "iht"),
        ]


class TestConcentration:
    def test_orthonormal_run(self, tmp_path):
        spec = ExperimentSpec(
            kind="lemma1_check",
            design=DesignSpec(kind="orthonormal", p=20),
            trials=300,
            base_seed=61,
            signal=SignalSpec(k=2, gamma=0.5),
            noise=NoiseSpec(kind="rademacher", sigma=1.0),
            out_dir=str(tmp_path / "c"),
        )
        report = run_concentration_check(spec)
        assert report.epsilon == 0.25
        assert report.n == report.bound_n
        assert report.summary.passed
        doc = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert doc["n"] == report.n

    def test_explicit_epsilon(self):
        spec = ExperimentSpec(
            kind="lemma1_check",
            design=DesignSpec(kind="orthonormal", p=10),
            trials=50,
            base_seed=62,
            signal=SignalSpec(k=2, gamma=0.5),
            noise=NoiseSpec(sigma=1.0),
            epsilon=0.4,
        )
        assert run_concentration_check(spec).epsilon == 0.4

    def test_exceedance_drops_with_oversampling(self):
        # statistical spot check: ten times the bound beats the bound itself
        base = ExperimentSpec(
            kind="lemma1_check",
            design=DesignSpec(kind="orthonormal", p=50),
            trials=1000,
            base_seed=63,
            signal=SignalSpec(k=5, gamma=0.5),
            noise=NoiseSpec(kind="gaussian", sigma=1.0),
        )
        at_bound = run_concentration_check(base)
        oversampled = run_concentration_check(
            replace(base, design=DesignSpec(kind="orthonormal", p=50,
                                            n=10 * at_bound.bound_n))
        )
        assert oversampled.summary.failure_rate < at_bound.summary.failure_rate

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="expected"):
            run_concentration_check(recovery_spec())

import concurrent.futures
import gc
import json
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from implinear import designs as designs_module
from implinear import engine as engine_module
from implinear import harness as harness_module
from implinear.baselines import alignment_order, hard_threshold
from implinear.cli import main
from implinear.designs import (
    DESIGNS,
    STREAM_TARGETS,
    SparseProblem,
    gen_uniform_corr_design,
    make_rng,
)
from implinear.engine import ImpConfig, run_imp, trace_to_dict
from implinear.flow import INFINITE
from implinear.harness import (
    BaselineSpec,
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
    trial_csv_row,
    uniform_corr_separation_margin,
    validate_spec,
)
from implinear.linalg import CovMatrix, min_nonzero_eig, pseudo_inverse, sym_eig
from implinear.theory import (
    ONP_TOL,
    check_onp,
    check_recoverable,
    concentration_sample_size,
    noise_projector,
    recovery_sample_size,
)


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
    return base._replace(**overrides)


def replay_first_trial(spec):
    return replay_trial(spec, 0)


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


def spec_document(spec) -> dict:
    """The config document of a spec, nested specs written as objects."""
    return {key: spec_document(value) if hasattr(value, "_fields") else value
            for key, value in spec._asdict().items()}


def row_values(row) -> str:
    """A heuristic row's fields in order, as text: nan compares equal."""
    return repr(tuple(row))


class TestSpecParsing:
    def test_round_trip(self):
        doc = config_document()
        doc["baseline"] = {"sigmas": [0.0, 0.5]}
        spec = spec_from_dict(doc)
        assert spec == spec_from_dict(json.loads(json.dumps(spec_document(spec))))

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
            validate_spec(spec_from_dict(doc))

    def test_uniform_corr_needs_alpha(self):
        doc = config_document()
        doc["design"]["kind"] = "uniform_corr"
        with pytest.raises(ConfigError, match="alpha"):
            validate_spec(spec_from_dict(doc))

    def test_signal_required_for_recovery(self):
        doc = config_document()
        doc["signal"] = None
        with pytest.raises(ConfigError, match="signal"):
            validate_spec(spec_from_dict(doc))

    @pytest.mark.parametrize("value, text", [([1.0], "[1.0]"), (True, "true")])
    def test_union_field_rejects_a_value_of_no_arm(self, value, text):
        doc = config_document()
        doc["imp"] = {"horizon": value}
        with pytest.raises(ConfigError) as err:
            spec_from_dict(doc)
        assert str(err.value) == f"imp.horizon must be a number or a string, got {text}"

    def test_uniform_noise_range_rule_names_the_baseline_sigma(self):
        doc = config_document()
        doc["kind"] = "baseline_comparison"
        doc["noise"]["kind"] = "uniform"
        doc["baseline"] = {"sigmas": [0.5, sys.float_info.max]}
        with pytest.raises(ConfigError, match=r"^baseline\.sigmas\[1\] must be at most"):
            validate_spec(spec_from_dict(doc))

    def test_integers_become_floats(self):
        doc = config_document()
        doc["signal"]["gamma"] = 1
        doc["baseline"] = {"sigmas": [0, 1]}
        spec = spec_from_dict(doc)
        assert type(spec.signal.gamma) is float
        assert spec.baseline.sigmas == (0.0, 1.0)
        assert all(type(s) is float for s in spec.baseline.sigmas)

    def test_load_spec_bad_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(path)

    @pytest.mark.parametrize("kind, run", [
        ("support_recovery", run_support_recovery),
        ("heuristic_equivalence", run_heuristic_equivalence),
        ("baseline_comparison", run_baseline_comparison),
        ("lemma1_check", run_concentration_check),
        ("support_recovery", replay_first_trial),
    ])
    def test_every_entry_point_rejects_zero_trials(self, kind, run):
        # a spec built in code skips spec_from_dict; the entry point checks
        # its kind and runs validate_spec on it, and reports their message,
        # before any trial
        spec = recovery_spec(kind=kind, design=DesignSpec(kind="orthonormal", p=4, n=12),
                             signal=SignalSpec(k=1, gamma=0.5))
        for bad, message in ((dict(trials=0), "trials must be >= 1"),
                             (dict(imp=ImpSpec(per_round=0)), "imp.per_round must be positive"),
                             (dict(noise=NoiseSpec(sigma=-1.0)), "sigma must be nonnegative")):
            with pytest.raises(ConfigError, match=message) as expected:
                validate_spec(spec._replace(**bad))
            with pytest.raises(ConfigError) as raised:
                run(spec._replace(**bad))
            assert str(raised.value) == str(expected.value)
        other = "lemma1_check" if kind != "lemma1_check" else "support_recovery"
        with pytest.raises(ConfigError) as raised:
            run(spec._replace(kind=other))
        assert str(raised.value) == f"expected a {kind} config, got {other!r}"

    @pytest.mark.parametrize("kind, run", [
        ("support_recovery", run_support_recovery),
        ("heuristic_equivalence", run_heuristic_equivalence),
        ("baseline_comparison", run_baseline_comparison),
        ("lemma1_check", run_concentration_check),
    ])
    def test_every_run_rejects_an_unwritable_out_dir(self, tmp_path, monkeypatch, kind, run):
        # found before any trial rather than by the writers after the last one
        monkeypatch.setattr(designs_module, "make_rng", None)  # any draw would raise
        (tmp_path / "file").write_text("")
        spec = recovery_spec(kind=kind, design=DesignSpec(kind="orthonormal", p=4, n=12),
                             signal=SignalSpec(k=1, gamma=0.5))
        for under in ("file", "file/out"):
            with pytest.raises(ConfigError, match="^cannot write outputs to "):
                run(spec._replace(out_dir=str(tmp_path / under)))
        assert (tmp_path / "file").read_text() == ""


class TestSampleSizeResolution:
    def test_orthonormal_uses_analytic_lambda(self):
        spec = recovery_spec(design=DesignSpec(kind="orthonormal", p=50),
                             signal=SignalSpec(k=5, gamma=0.5))
        n, bound, lam, drawn = resolve_sample_size(spec, seed=1, margin=0.5,
                                                   bound_fn=recovery_sample_size)
        assert (n, bound, lam, drawn) == (222, 222, 1.0, None)

    def test_explicit_n_wins(self):
        spec = recovery_spec(design=DesignSpec(kind="orthonormal", p=12, n=64))
        n, bound, _, _ = resolve_sample_size(spec, seed=1, margin=0.5,
                                             bound_fn=recovery_sample_size)
        assert n == 64 and bound > 0

    def test_noiseless_falls_back_to_p(self):
        spec = recovery_spec(noise=NoiseSpec(sigma=0.0))
        n, bound, _, _ = resolve_sample_size(spec, seed=1, margin=0.5,
                                             bound_fn=recovery_sample_size)
        assert bound == 1 and n == 12

    def test_incoherent_iterates_to_stability(self):
        spec = recovery_spec(design=DesignSpec(kind="incoherent", p=20))
        n, bound, lam, drawn = resolve_sample_size(spec, seed=7, margin=0.5,
                                                   bound_fn=recovery_sample_size)
        assert n >= bound and 0.0 < lam <= 1.5
        assert drawn.phi.shape == (n, 20)  # the design lambda was measured on

    def test_a_bound_that_keeps_growing_is_a_config_error(self, monkeypatch):
        # each measured eigenvalue 0.9 times the last: every bound outgrows its n
        measured = []

        def shrinking(eig):
            measured.append(eig)
            return 0.9 ** len(measured)

        monkeypatch.setattr(harness_module, "min_nonzero_eig", shrinking)
        spec = recovery_spec(design=DesignSpec(kind="incoherent", p=4))
        with pytest.raises(ConfigError, match="^sample size for the incoherent design did not "
                                              "stabilize$"):
            resolve_sample_size(spec, seed=7, margin=0.5, bound_fn=recovery_sample_size)
        assert len(measured) == 16


def count_design_draws(monkeypatch):
    """Record (n, p, seed) of every incoherent design drawn through the registry."""
    keys = []
    draw = designs_module.gen_incoherent_design

    def counted(n, p, seed):
        keys.append((n, p, seed))
        return draw(n, p, seed)

    monkeypatch.setattr(designs_module, "gen_incoherent_design", counted)
    return keys


class TestSupportRecovery:
    @pytest.mark.parametrize("n", [None, 30], ids=["derived-n", "explicit-n"])
    def test_incoherent_trial_draws_its_design_once(self, monkeypatch, n):
        spec = recovery_spec(design=DesignSpec(kind="incoherent", p=12, n=n))
        problem, _, _ = problem_and_trace(spec, 2)
        [fresh] = recovery_trial(spec, range(2, 3))
        draws = count_design_draws(monkeypatch)
        [rec] = recovery_trial(spec, range(2, 3))
        assert len(draws) == len(set(draws))
        assert draws[-1] == (rec.n, 12, 1236) and rec.n == problem.n
        assert csv_row(rec) == csv_row(fresh)

    def test_report_and_flags(self):
        report = run_support_recovery(recovery_spec())
        assert report.rejected == 0
        assert len(report.records) == 12
        assert report.summary.trials == 12
        for rec in report.records:
            assert rec.q == 12 - 3
            assert rec.seed == 1234 + rec.trial
            assert rec.min_nz_eig == pytest.approx(1.0)  # an orthonormal design's
            assert rec.max_recov_residual <= 1e-8
            assert rec.trace is None

    def test_noiseless_never_fails(self):
        report = run_support_recovery(recovery_spec(noise=NoiseSpec(sigma=0.0)))
        assert report.summary.failure_rate == 0.0
        assert report.summary.passed

    def test_round_zero_is_audited_on_the_engines_eigs(self, monkeypatch):
        # one check per trial, on the SymEig round 0 trained it with
        engine, seen = [], []
        audit_rounds = harness_module._audit_rounds

        def observing(problems, audit, k, active, weights, factors):
            if not k:
                engine.extend(factors.eigs[t] for t in range(len(problems)))
            audit_rounds(problems, audit, k, active, weights, factors)

        def recording(eig, cov_signal, signal):
            seen.append((eig, np.shape(cov_signal), np.shape(signal)))
            return check_recoverable(eig, cov_signal, signal)

        monkeypatch.setattr(harness_module, "_audit_rounds", observing)
        monkeypatch.setattr(harness_module, "check_recoverable", recording)
        run_support_recovery(recovery_spec(trials=3))
        assert len(engine) == 3 and [shapes for _, *shapes in seen] == [[(12,), (12,)]] * 3
        assert all(eig is round0 for (eig, _, _), round0 in zip(seen, engine, strict=True))

    def test_q_zero_dense(self):
        report = run_support_recovery(
            recovery_spec(imp=ImpSpec(q=0), noise=NoiseSpec(sigma=0.0), trials=4)
        )
        for rec in report.records:
            assert rec.q == 0 and rec.sparsity_ok and rec.no_false_exclusion

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

    def test_nearly_singular_uniform_corr_is_not_rejected(self):
        # derived n = 81881; a rank tolerance growing with n would pass
        # lambda_min = 1 - alpha and reject every trial by ONP
        spec = recovery_spec(design=DesignSpec(kind="uniform_corr", p=30, alpha=0.9999),
                             noise=NoiseSpec(sigma=0.2), trials=2)
        report = run_support_recovery(spec)
        assert report.rejected == 0 and len(report.records) == 2
        for rec in report.records:
            assert rec.n == 81881
            assert rec.min_nz_eig == pytest.approx(1e-4, rel=1e-9)
            assert rec.max_recov_residual <= 1e-8

    def test_verified_mode_does_not_change_outcomes(self):
        plain = run_support_recovery(recovery_spec(trials=6))
        verified = run_support_recovery(recovery_spec(trials=6, verified_mode=True))
        assert plain.summary == verified.summary
        for a, b in zip(plain.records, verified.records):
            assert csv_row(a) == csv_row(b)
            assert a.trace is None and b.trace is not None

    def test_verified_traces_survive_a_pool(self, tmp_path):
        # a pool worker pickles its records' trace views back: the traces
        # written and the records are those of the serial run
        runs = []
        for threads in (1, 2):
            out = tmp_path / str(threads)
            spec = recovery_spec(trials=6, threads=threads, out_dir=str(out), verified_mode=True)
            runs.append((run_support_recovery(spec), out / "trace"))
        (serial, serial_dir), (pooled, pooled_dir) = runs
        names = sorted(f.name for f in serial_dir.iterdir())
        assert len(names) == 6 and names == sorted(f.name for f in pooled_dir.iterdir())
        for name in names:
            assert (serial_dir / name).read_bytes() == (pooled_dir / name).read_bytes()
        for a, b in zip(serial.records, pooled.records, strict=True):
            assert csv_row(a) == csv_row(b)
            assert a.trace is not None and b.trace is not None

    def test_finite_horizon_config(self):
        assert ImpSpec(horizon=2.5).engine_horizon() == 2.5
        report = run_support_recovery(
            recovery_spec(imp=ImpSpec(horizon=50.0), noise=NoiseSpec(sigma=0.0), trials=3)
        )
        assert report.summary.failure_rate == 0.0

    @pytest.mark.parametrize("rerun", [{"verified_mode": False}, {"trials": 2, "base_seed": 50}],
                             ids=["then-plain", "then-fewer-trials"])
    def test_a_rerun_leaves_no_stale_traces(self, tmp_path, rerun):
        out = tmp_path / "run"
        spec = recovery_spec(trials=4, out_dir=str(out), verified_mode=True)
        run_support_recovery(spec)
        (out / "trace" / "notes.json").write_text("{}")  # not a trace: left alone
        report = run_support_recovery(spec._replace(**rerun))
        traces = {f"{r.trial}.json": r.trace for r in report.records if r.trace is not None}
        assert {f.name for f in (out / "trace").iterdir()} == {"notes.json", *traces}
        for name, trace in traces.items():
            assert json.loads((out / "trace" / name).read_text()) == trace_to_dict(trace)

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
    """Rebuild trial t's problem and IMP trace the way recovery_trial does,
    with the factorization of each round."""
    seed = spec.base_seed + t
    n, _, _, _ = resolve_sample_size(spec, seed, spec.signal.gamma, recovery_sample_size)
    problem = harness_module._build_problem(spec, seed, n)
    seen = []
    [trace] = run_imp([problem.covariance], problem.b[None], recovery_config(spec),
                      on_round=lambda k, active, weights, factors: seen.append(factors))
    return problem, trace, seen


def csv_row(rec):
    """A record's trials.csv row without wall_ms, as replay compares rows."""
    return row_without_wall_ms(trial_csv_row(rec))


def recovery_config(spec):
    return ImpConfig(horizon=spec.imp.engine_horizon(),
                     prune_rounds=spec.design.p - spec.signal.k)


def audit_stack(monkeypatch, problems, config):
    """The audit recovery_trial keeps for a stack of problems: one (onp,
    min_eig, residual) triple per problem.  Asserts that the audit made one
    `check_recoverable` call per problem, in order, each on the SymEig
    round 0 trained that problem with."""
    audit, engine, checked = [], [], []

    def recording(eig, cov_signal, signal):
        checked.append(eig)
        return check_recoverable(eig, cov_signal, signal)

    def observer(k, active, weights, factors):
        if not k:
            engine.extend(factors.eigs[t] for t in range(len(problems)))
        harness_module._audit_rounds(problems, audit, k, active, weights, factors)

    monkeypatch.setattr(harness_module, "check_recoverable", recording)
    run_imp([pr.covariance for pr in problems], np.stack([pr.b for pr in problems]), config,
            on_round=observer)
    assert len(engine) == len(problems)
    assert all(eig is round0 for eig, round0 in zip(checked, engine, strict=True))
    return audit


def fresh_residual(problem):
    """Round 0's recoverability residual of a problem, checked on its own."""
    s, cov = problem.signal, problem.covariance
    return check_recoverable(sym_eig(cov), cov.entries @ s, s)


def oracle_residual(problem):
    """Round 0's residual ||Sigma^+ (Sigma s) - s||_inf through the
    pseudo-inverse matrix, and how far rounding may move it from the
    eigenbasis form V (Lambda^+ (V^T u)): with M = |V| |Lambda^+| |V^T|,
    which bounds |Sigma^+| entrywise, both products lie within
    (2p + 1) eps M |u| and (2p + 2) eps M |u| of the exact one, and the
    subtraction of s rounds each once more, so they differ by at most
    (4p + 5) eps (max M |u| + max |s| + residual)."""
    s, cov = problem.signal, problem.covariance
    eig = sym_eig(cov)
    u = cov.entries @ s
    residual = float(np.max(np.abs(pseudo_inverse(eig) @ u - s)))
    v, nonzero = np.abs(eig.eigenvectors), eig.nonzero_mask()
    lam = np.where(nonzero, 1.0, 0.0) / np.abs(np.where(nonzero, eig.eigenvalues, 1.0))
    scale = np.max(v @ (lam * (v.T @ np.abs(u)))) + np.max(np.abs(s)) + residual
    return residual, (4 * cov.p + 5) * np.finfo(float).eps * scale


# every nonsingular design at an infinite and a finite horizon: the downdate
# and the eigendecomposition path
AUDITED = [pytest.param(recovery_spec(design=d, imp=ImpSpec(horizon=h), trials=3),
                        id=f"{d.kind}-{d.n}-{d.alpha}-{name}")
           for d in NONSINGULAR_DESIGNS for h, name in (("infinite", "inf"), (5.0, "T5"))]


class TestAuditRounds:
    @pytest.mark.parametrize("design", [
        DesignSpec(kind="orthonormal", p=12),
        DesignSpec(kind="uniform_corr", p=12, n=48, alpha=0.99),
        DesignSpec(kind="incoherent", p=12, n=200),
        DesignSpec(kind="incoherent", p=12, n=8),
    ], ids=lambda d: f"{d.kind}-{d.n}")
    def test_round_zero_is_the_onp_factorization(self, design):
        """ONP is read from round 0, so that round must factorize Sigma itself."""
        spec = recovery_spec(design=design)
        for t in range(3):
            problem, _, seen = problem_and_trace(spec, t)
            engine, full = seen[0].eigs[0], sym_eig(problem.covariance)
            assert np.array_equal(engine.eigenvalues, full.eigenvalues)
            assert np.array_equal(engine.eigenvectors, full.eigenvectors)
            assert engine.rank_tol == full.rank_tol
            assert check_onp(engine, problem.support) == check_onp(full, problem.support)

    @pytest.mark.parametrize("design", NONSINGULAR_DESIGNS, ids=lambda d: f"{d.kind}-{d.n}-{d.alpha}")
    def test_min_eig_is_the_full_spectrum_minimum(self, design):
        spec = recovery_spec(design=design, trials=3)
        for t, rec in enumerate(recovery_trial(spec, range(3))):
            problem, trace, _ = problem_and_trace(spec, t)
            full = sym_eig(problem.covariance)
            assert rec.min_nz_eig == full.eigenvalues[0]
            slack = 1e-12 * full.eigenvalues[-1]
            for active in trace.active:
                sub = problem.covariance.restrict(np.flatnonzero(active))
                assert rec.min_nz_eig <= np.linalg.eigvalsh(sub.entries)[0] + slack

    @pytest.mark.parametrize("design", NONSINGULAR_DESIGNS, ids=lambda d: f"{d.kind}-{d.n}-{d.alpha}")
    def test_downdated_rounds_reuse_the_engine(self, monkeypatch, count_sym_eig, design):
        # on the downdate only round 0 is factorized, and the audit reads that
        # round's factors: it factorizes nothing of its own
        spec = recovery_spec(design=design)
        problem, _, seen = problem_and_trace(spec, 1)
        assert seen[0].eigs and all(not f.eigs for f in seen[1:])  # downdated
        calls = count_sym_eig(harness_module)
        [(onp, min_eig, residual)] = audit_stack(monkeypatch, [problem], recovery_config(spec))
        assert calls == []
        eig = sym_eig(problem.covariance)
        assert onp and min_eig == min_nonzero_eig(eig)
        assert residual == fresh_residual(problem) and residual <= 1e-8

    @pytest.mark.parametrize("spec", AUDITED)
    def test_min_nz_eig_is_round_zeros(self, spec):
        for t, rec in enumerate(recovery_trial(spec, range(3))):
            problem = harness_module._recovery_problem(spec, spec.base_seed + t)
            assert rec.min_nz_eig == sym_eig(problem.covariance).eigenvalues[0]

    @pytest.mark.parametrize("spec", AUDITED)
    def test_residual_is_round_zeros_check(self, spec):
        # against the pseudo-inverse matrix, within the rounding of the two
        # products of one SymEig
        for t, rec in enumerate(recovery_trial(spec, range(3))):
            problem = harness_module._recovery_problem(spec, spec.base_seed + t)
            residual, bound = oracle_residual(problem)
            assert abs(rec.max_recov_residual - residual) <= bound

    @pytest.mark.parametrize("spec", AUDITED)
    def test_stacked_range_is_its_trials(self, spec):
        alone = [rec for t in range(3) for rec in recovery_trial(spec, range(t, t + 1))]
        assert list(map(csv_row, recovery_trial(spec, range(3)))) == list(map(csv_row, alone))

    @pytest.mark.parametrize("spec", AUDITED)
    def test_one_check_on_the_engines_stack(self, monkeypatch, count_sym_eig, spec):
        # one check per trial of the range, on the SymEig round 0 trained it
        # with, each with the bits of that trial's check on its own
        problems = [harness_module._recovery_problem(spec, spec.base_seed + t) for t in range(3)]
        calls = count_sym_eig(harness_module)
        audit = audit_stack(monkeypatch, problems, recovery_config(spec))
        assert calls == []  # nothing refactorized
        assert [residual for _, _, residual in audit] == list(map(fresh_residual, problems))

    @pytest.mark.parametrize("overrides", [
        {"imp": ImpSpec(horizon=5.0)},
        {"design": DesignSpec(kind="incoherent", p=12, n=8)},  # n < p: singular
    ], ids=["finite-horizon", "rank-deficient"])
    def test_factorized_rounds_reuse_the_engine(self, monkeypatch, count_sym_eig, overrides):
        spec = recovery_spec(**overrides)
        problem = harness_module._recovery_problem(spec, spec.base_seed)
        calls = count_sym_eig(harness_module)
        [(onp, min_eig, residual)] = audit_stack(monkeypatch, [problem], recovery_config(spec))
        assert calls == []
        eig = sym_eig(problem.covariance)
        assert onp == (check_onp(eig, problem.support) <= ONP_TOL)
        assert min_eig == min_nonzero_eig(eig) and residual == fresh_residual(problem)

    def test_stacked_audit_matches_one_trial_audits(self, monkeypatch):
        # a singular trial, factorized, beside nonsingular ones on the
        # downdate: every trial's audit is the audit of its one-trial run
        specs = [recovery_spec(design=DesignSpec(kind="incoherent", p=12, n=n))
                 for n in (8, 14, 200)]
        problems = [harness_module._recovery_problem(spec, spec.base_seed + t)
                    for t, spec in enumerate(specs)]
        config = recovery_config(specs[0])
        stacked = audit_stack(monkeypatch, problems, config)
        assert [onp for onp, _, _ in stacked] == [False, True, True]
        assert stacked == [audit_stack(monkeypatch, [pr], config)[0] for pr in problems]

    @pytest.mark.parametrize("horizon", [INFINITE, 5.0], ids=["infinite", "finite"])
    def test_a_zero_sigma_a_makes_the_minimum_nan(self, monkeypatch, horizon):
        # a zero Sigma has no nonzero eigenvalue, and range(Sigma) misses s
        problem = SparseProblem(covariance=CovMatrix(np.zeros((4, 4))), b=np.zeros(4), n=4,
                                signal=np.array([1.0, 0.0, 0.0, 0.0]), support=(0,), gamma=0.5)
        [(onp, min_eig, residual)] = audit_stack(monkeypatch, [problem],
                                                 ImpConfig(horizon=horizon, prune_rounds=3))
        assert not onp and np.isnan(min_eig) and residual == 1.0


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

    def test_replay_of_a_trial_missing_from_the_stored_rows(self, tmp_path):
        out = tmp_path / "run"
        spec = recovery_spec(trials=3, out_dir=str(out))
        run_support_recovery(spec)
        csv_path = out / "trials.csv"
        csv_path.write_text("".join(line for line in csv_path.read_text().splitlines(True)
                                    if not line.startswith("1,")))
        assert replay_trial(spec, 2)[1] is True
        with pytest.raises(ConfigError, match=f"^trial 1 not found in {re.escape(str(csv_path))}$"):
            replay_trial(spec, 1)

    def test_replay_out_of_range(self):
        with pytest.raises(ConfigError, match="trial"):
            replay_trial(recovery_spec(trials=3), 7)

    def test_row_format(self):
        [rec] = recovery_trial(recovery_spec(), range(2, 3))
        row = trial_csv_row(rec)
        fields = row.split(",")
        assert len(fields) == len(TRIALS_CSV_HEADER.split(","))
        assert fields[0] == "2" and fields[1] == "1236"
        assert fields[9] in ("0", "1") and fields[10] in ("0", "1")
        assert row_without_wall_ms(row) == row.rsplit(",", 1)[0]


class TestDecisionEdges:
    """Each gate comparison at its exact edge, where a strict and a non-strict
    test part; tests/mutation_probe.py flips each of them."""

    def test_an_onp_violation_equal_to_the_tolerance_admits_the_trial(self, monkeypatch):
        monkeypatch.setattr(harness_module, "check_onp", lambda eig, support: ONP_TOL)
        [rec] = recovery_trial(recovery_spec(), range(1))
        assert rec is not None

    def test_a_gap_equal_to_its_threshold_excludes_the_attempt(self, monkeypatch):
        spec = heuristic_spec(DesignSpec(kind="incoherent", p=3, n=300), base_seed=84)
        fs = DESIGNS["incoherent"].draw(300, 3, 84, None)
        mags = np.sort(np.abs(fs.phi.T @ make_rng(84, STREAM_TARGETS).standard_normal(300)))
        gap, top = mags[1] - mags[0], float(mags[-1])
        # the incoherence at which the threshold 10 p delta_pw max|phi_j^T y|
        # rounds to the gap itself, found within a few ulps of gap / (10 p top)
        delta_pw = gap / (30.0 * top)
        for _ in range(8):
            threshold = 10.0 * 3 * delta_pw * top  # as the screen computes it
            if threshold == gap:
                break
            delta_pw = np.nextafter(delta_pw, np.inf if threshold < gap else -np.inf)
        monkeypatch.setattr(harness_module, "pairwise_incoherence", lambda cov: delta_pw)
        [row] = harness_module._heuristic_trials(spec, range(1))
        assert row.min_gap == row.gap_threshold == gap and row.delta_pw <= 1.0 / 30.0
        assert not row.degenerate and row.excluded

    def test_a_separation_margin_equal_to_tie_tol_excludes_the_trial(self, monkeypatch):
        spec = heuristic_spec(DesignSpec(kind="uniform_corr", p=6, alpha=0.01), base_seed=56)
        monkeypatch.setattr(harness_module, "uniform_corr_separation_margin",
                            lambda scores, alpha: spec.tie_tol)
        [row] = harness_module._heuristic_trials(spec, range(1))
        assert not row.degenerate and row.min_gap == spec.tie_tol and row.excluded

    def test_a_gap_equal_to_tie_tol_is_not_degenerate(self):
        spec = heuristic_spec(DesignSpec(kind="orthonormal", p=6), base_seed=55)
        [row] = harness_module._heuristic_trials(spec, range(1))
        [edge] = harness_module._heuristic_trials(spec._replace(tie_tol=row.min_gap), range(1))
        assert edge.min_gap == row.min_gap > 0.0 and not edge.degenerate

    def test_one_mismatched_order_fails_the_heuristic_gate(self, monkeypatch):
        orders = []

        def first_one_reversed(xty):
            orders.append(alignment_order(xty))
            return orders[-1][::-1] if len(orders) == 1 else orders[-1]

        monkeypatch.setattr(harness_module, "alignment_order", first_one_reversed)
        spec = heuristic_spec(DesignSpec(kind="orthonormal", p=6), base_seed=55)
        report = run_heuristic_equivalence(spec._replace(trials=4))
        assert report.qualifying == 4 and report.full_match_rate == 0.75
        assert not report.passed

    def test_an_inverse_error_equal_to_its_tolerance_passes(self, monkeypatch):
        # the certified run of TestHeuristic, where some trials qualify
        spec = heuristic_spec(DesignSpec(kind="uniform_corr", p=10, alpha=0.01), base_seed=56)
        spec = spec._replace(trials=60)
        err = run_heuristic_equivalence(spec).max_inverse_err
        for tol, passed in ((err, True), (np.nextafter(err, 0.0), False)):
            monkeypatch.setattr(harness_module, "INVERSE_TOL", tol)
            report = run_heuristic_equivalence(spec)
            assert report.full_match_rate == 1.0 and report.passed == passed

    def test_a_design_at_the_size_limit_is_valid(self):
        # Phi (n x p) at exactly MAX_ENTRIES = 2^31 entries; one more row is too many
        validate_spec(recovery_spec(design=DesignSpec(kind="orthonormal", p=2**15, n=2**16)))
        with pytest.raises(ConfigError, match="the design is too large"):
            validate_spec(recovery_spec(design=DesignSpec(kind="orthonormal", p=2**15,
                                                          n=2**16 + 1)))


def heuristic_spec(design, base_seed):
    return ExperimentSpec(kind="heuristic_equivalence", design=design, trials=1,
                          base_seed=base_seed)


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

    @pytest.mark.parametrize("fails", ["raises", "nan"])
    def test_a_failed_inversion_fails_the_uniform_corr_gate(self, monkeypatch, fails):
        """The certified run above, with every Sigma's inversion failing: a
        singular one records inf, a non-finite result records nan, and the
        gate reads either, though every order still matches."""
        solve = np.linalg.solve

        def failing(a, b):
            if a.ndim > 2:  # the engine's stacked solves stay exact
                return solve(a, b)
            if fails == "raises":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan)

        monkeypatch.setattr(np.linalg, "solve", failing)
        report = run_heuristic_equivalence(ExperimentSpec(
            kind="heuristic_equivalence",
            design=DesignSpec(kind="uniform_corr", p=10, alpha=0.01),
            trials=60,
            base_seed=56,
        ))
        assert report.full_match_rate == 1.0 and not report.passed
        if fails == "raises":
            assert report.max_inverse_err == np.inf
        else:
            assert np.isnan(report.max_inverse_err)

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
        # every attempt up to the one that fills the quota, and none after it
        assert [r.trial for r in report.rows] == list(range(report.attempts))
        assert not report.rows[-1].excluded

    def test_which_excluded_rows_carry_measured_matches(self):
        # an excluded uniform_corr trial is still ranked, so its match columns
        # are measured; an excluded incoherent attempt is not ranked, so both read 0
        spec = heuristic_spec(DesignSpec(kind="uniform_corr", p=3, n=60, alpha=0.05), 5)
        excluded = [r for r in run_heuristic_equivalence(spec._replace(trials=200)).rows
                    if r.excluded and not r.degenerate]
        assert excluded and any(r.first_match for r in excluded)
        assert any(r.full_match for r in excluded)
        spec = heuristic_spec(DesignSpec(kind="incoherent", p=3, n=3000), 5)
        rows = run_heuristic_equivalence(spec._replace(trials=10)).rows
        assert any(r.excluded for r in rows)
        assert not any(r.full_match for r in rows)
        assert not any(r.first_match for r in rows if r.excluded)

    def test_incoherent_attempt_cap(self):
        spec = ExperimentSpec(
            kind="heuristic_equivalence",
            design=DesignSpec(kind="incoherent", p=6, n=60),
            trials=2,
            base_seed=5,
        )
        with pytest.raises(ConfigError, match=r"only 0/2 attempts .* after 800 draws"):
            run_heuristic_equivalence(spec)

    def test_incoherent_requires_n(self):
        with pytest.raises(ConfigError, match="design.n"):
            run_heuristic_equivalence(spec_from_dict(
                {
                    "kind": "heuristic_equivalence",
                    "design": {"kind": "incoherent", "p": 3},
                    "trials": 5,
                    "base_seed": 1,
                }
            ))

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
        cells = run_baseline_comparison(spec)
        assert {c.method for c in cells} == {"imp", "ht", "iht"}
        for cell in cells:
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
        spec = spec._replace(baseline=BaselineSpec(tau=1e6))
        for cell in run_baseline_comparison(spec):
            if cell.method in ("ht", "iht"):
                assert cell.exact_rate == 0.0 and cell.mean_f1 == 0.0
            else:  # IMP keeps exactly k survivors regardless of tau
                assert cell.exact_rate == 1.0

    def test_sigma_sweep_keyed_rows(self):
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="orthonormal", p=8, n=40),
            trials=4,
            base_seed=60,
            signal=SignalSpec(k=2, gamma=1.0),
            noise=NoiseSpec(sigma=0.0),
            baseline=BaselineSpec(sigmas=(0.0, 0.5)),
        )
        cells = run_baseline_comparison(spec)
        assert [(c.sigma, c.method) for c in cells] == [
            (0.0, "imp"), (0.0, "ht"), (0.0, "iht"),
            (0.5, "imp"), (0.5, "ht"), (0.5, "iht"),
        ]

    def test_sweep_draws_each_design_once(self, monkeypatch):
        draws = count_design_draws(monkeypatch)
        sigmas = (0.1, 0.4, 0.8)
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="incoherent", p=10, n=40),
            trials=4,
            base_seed=64,
            signal=SignalSpec(k=2, gamma=1.0, amplitude_law="uniform"),
            noise=NoiseSpec(sigma=0.0),
            baseline=BaselineSpec(eta=0.5, sigmas=sigmas),
        )
        cells = run_baseline_comparison(spec)
        # one draw per trial for all sigmas; trial 0 reuses the draw that measured lambda
        assert draws == [(40, 10, 64 + t) for t in range(4)]
        # the same cells as a separate run at each sigma, whose designs are fresh draws
        separate = [
            cell
            for sigma in sigmas
            for cell in run_baseline_comparison(
                spec._replace(baseline=BaselineSpec(eta=0.5, sigmas=(sigma,)))
            )
        ]
        assert cells == separate

    def test_imp_honours_the_horizon(self, monkeypatch):
        horizons = []

        def recording(covs, b, config, on_round=None):
            horizons.extend([(config.horizon, config.w_init)] * len(covs))
            return run_imp(covs, b, config, on_round)

        monkeypatch.setattr(harness_module, "run_imp", recording)
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="orthonormal", p=8, n=24),
            trials=2,
            base_seed=65,
            signal=SignalSpec(k=2, gamma=1.0),
            imp=ImpSpec(horizon=2.5),
            baseline=BaselineSpec(sigmas=(0.0, 0.5)),
        )
        run_baseline_comparison(spec)
        assert horizons == [(2.5, None)] * 4  # None: the zero initialization

    def test_sigma_cells_share_the_round_zero_factorization(self, count_sym_eig):
        # the cells of a trial carry one CovMatrix object, so on the downdate
        # path the engine factorizes once per trial, not once per (trial, sigma);
        # Rademacher noise keeps the design draw
        calls = count_sym_eig(engine_module)
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="orthonormal", p=8, n=24),
            trials=4,
            base_seed=66,
            signal=SignalSpec(k=2, gamma=1.0),
            noise=NoiseSpec(kind="rademacher"),
            baseline=BaselineSpec(sigmas=(0.0, 0.5, 1.0)),
        )
        run_baseline_comparison(spec)
        assert calls == [("engine", 8)] * 4

    def test_exact_law_range_factorizes_one_identity(self, count_sym_eig):
        # orthonormal Gaussian problems draw no design: every cell of the
        # range carries the one identity CovMatrix, factorized once
        calls = count_sym_eig(engine_module)
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="orthonormal", p=8, n=24),
            trials=4,
            base_seed=66,
            signal=SignalSpec(k=2, gamma=1.0),
            baseline=BaselineSpec(sigmas=(0.0, 0.5, 1.0)),
        )
        run_baseline_comparison(spec)
        assert calls == [("engine", 8)]

    def test_finite_horizon_exact_law_range_factorizes_one_identity(self, count_sym_eig):
        # recover-p50's config at n = 75 and horizon 0.5: the identity is
        # factorized at round 0 and every later round reads its weights
        # off round 0, where factorizing each round took 1 + 2 * 45 = 91
        calls = count_sym_eig(engine_module)
        spec = recovery_spec(design=DesignSpec(kind="orthonormal", p=50, n=75),
                             signal=SignalSpec(k=5, gamma=0.5), imp=ImpSpec(horizon=0.5),
                             trials=2)
        records = recovery_trial(spec, range(2))
        assert calls == [("engine", 50)]
        assert all(rec.q == 45 for rec in records)

    def test_a_range_factorizes_each_trial_once(self, monkeypatch, count_sym_eig):
        # IMP's round-0 eigendecomposition of a trial's Sigma serves its three
        # sigma cells, hard thresholding included, and its one pseudo-inverse
        # is the downdate's shared slice
        calls, pinvs = count_sym_eig(harness_module, engine_module), count_pinv(monkeypatch)
        sigmas = (0.1, 0.5, 1.0)
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="incoherent", p=10, n=40),
            trials=4,
            base_seed=68,
            signal=SignalSpec(k=2, gamma=1.0),
            baseline=BaselineSpec(eta=0.5, sigmas=sigmas),
        )
        outcomes = harness_module._baseline_trial(spec, range(1, 4), 40, None)
        assert calls == [("engine", 10)] * 3
        assert len(pinvs) == 3
        monkeypatch.undo()
        assert_ht_as_alone(spec, sigmas, range(1, 4), outcomes)

    def test_q_zero_hard_thresholds_with_each_cells_pseudo_inverse(self, monkeypatch):
        # with one round nothing joins the downdate, so no pseudo-inverse is
        # formed: hard thresholding reads IMP's round-0 SymEig
        pinvs = count_pinv(monkeypatch)
        sigmas = (0.1, 0.5, 1.0)
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=DesignSpec(kind="incoherent", p=10, n=40),
            trials=4,
            base_seed=68,
            signal=SignalSpec(k=2, gamma=1.0),
            imp=ImpSpec(q=0),
            baseline=BaselineSpec(eta=0.5, sigmas=sigmas),
        )
        outcomes = harness_module._baseline_trial(spec, range(4), 40, None)
        assert pinvs == []
        monkeypatch.undo()
        assert_ht_as_alone(spec, sigmas, range(4), outcomes)

    @pytest.mark.parametrize("design", [
        DesignSpec(kind="incoherent", p=10, n=40),
        DesignSpec(kind="uniform_corr", p=10, n=40, alpha=0.99),
    ], ids=lambda d: d.kind)
    def test_finite_horizon_hard_thresholds_the_least_squares_fit(self, design):
        # IMP trains round 0 only to the horizon, which on the nearly
        # singular uniform_corr design stops far from Sigma^+ b; hard
        # thresholding still thresholds the least-squares fit
        sigmas = (0.1, 0.5, 1.0)
        spec = ExperimentSpec(
            kind="baseline_comparison",
            design=design,
            trials=4,
            base_seed=68,
            signal=SignalSpec(k=2, gamma=1.0),
            imp=ImpSpec(horizon=20.0),
            baseline=BaselineSpec(eta=0.1, sigmas=sigmas),  # stable at lambda_max ~ 10
        )
        outcomes = harness_module._baseline_trial(spec, range(4), 40, None)
        assert_ht_as_alone(spec, sigmas, range(4), outcomes)


def count_pinv(monkeypatch):
    """The list of every pseudo-inverse the engine computes from now on."""
    pinvs = []

    def counted(eig):
        out = pseudo_inverse(eig)
        pinvs.extend([out] if out.ndim == 2 else out)  # a stack: one per SymEig
        return out

    monkeypatch.setattr(engine_module, "pseudo_inverse", counted)
    return pinvs


def assert_ht_as_alone(spec, sigmas, trials, outcomes):
    """Hard thresholding as H_tau(Sigma^+ b) with the pseudo-inverse matrix
    of each cell's own factorization."""
    for t, per_sigma in zip(trials, outcomes, strict=True):
        assert per_sigma.shape == (len(sigmas), 3, 2)
        for problem, (_, ht, _) in zip(
            harness_module._noise_sweep(spec, spec.base_seed + t, 40, sigmas), per_sigma
        ):
            pinv = pseudo_inverse(sym_eig(problem.covariance))
            est = hard_threshold(pinv @ problem.b, 0.5)  # tau = gamma / 2
            support = set(np.flatnonzero(est != 0.0).tolist())
            assert ht.tolist() == [support == set(problem.support),
                                   harness_module._support_f1(support, set(problem.support))]


def sigma_sweep_spec(**imp):
    return ExperimentSpec(
        kind="baseline_comparison",
        design=DesignSpec(kind="incoherent", p=10),
        trials=4,
        base_seed=67,
        signal=SignalSpec(k=2, gamma=1.0),
        imp=ImpSpec(**imp),
        baseline=BaselineSpec(eta=0.5, sigmas=(0.1, 0.5, 1.0)),
    )


def record_imp(monkeypatch):
    """Every trace a baselines run's IMP stacks return, in stack order."""
    traces = []

    def recording(*args, **kwargs):
        traces.extend(run_imp(*args, **kwargs))
        return traces[-len(args[0]):]

    monkeypatch.setattr(harness_module, "run_imp", recording)
    return traces


def distinct_cells(traces, trials, sigmas, ordered):
    """Per round k, the number of distinct (trial, coordinates pruned before
    round k) among a baselines run's (trial, sigma) cells: the sequence if
    `ordered` (one downdated inverse each), else the set (one Sigma_A each)."""
    pruned = np.array([trace.pruned.ravel() for trace in traces]).reshape(trials, sigmas, -1)
    key = tuple if ordered else frozenset
    return [len({(t, key(cell[:k])) for t in range(trials) for cell in pruned[t]})
            for k in range(pruned.shape[2])]


class TestSharedSigmaCells:
    def test_a_range_holds_one_inverse_slice_per_trial(self, monkeypatch):
        slices = []
        real = engine_module._downdate

        def counted(inverse, weights, *args):
            slices.append((len(inverse), len(weights)))
            return real(inverse, weights, *args)

        monkeypatch.setattr(engine_module, "_downdate", counted)
        traces = record_imp(monkeypatch)
        run_baseline_comparison(sigma_sweep_spec())
        # one range of 4 trials x 3 sigma cells whose prunes agree throughout:
        # each of the q = p - k = 8 downdates holds one slice per trial
        assert distinct_cells(traces, 4, 3, ordered=True) == [4] * 9
        assert slices == [(4, 12)] * 8

    def test_finite_horizon_cells_share_each_rounds_factorization(self, monkeypatch,
                                                                 count_sym_eig):
        calls = count_sym_eig(engine_module)
        traces = record_imp(monkeypatch)
        run_baseline_comparison(sigma_sweep_spec(horizon=20.0))
        # every round factorizes each distinct Sigma_A once: here one per
        # trial, where the 12 cells would take 12
        distinct = distinct_cells(traces, 4, 3, ordered=False)
        assert distinct == [4] * 9
        assert calls == [("engine", 10 - k) for k, count in enumerate(distinct)
                         for _ in range(count)]


@pytest.mark.parametrize("p, lengths", [(10, [20]), (50, [20]), (182, [1] * 20),
                                      (57, [20]), (58, [19, 1]), (181, [2] * 10)])
def test_stacked_ranges_hold_one_block_per_trial(p, lengths):
    # every trial function, a baselines one whatever its number of sigmas,
    # gets ranges of 2^16 // p^2 trials
    spec = sigma_sweep_spec()._replace(design=DesignSpec(kind="incoherent", p=p), trials=20)
    ranges = harness_module.map_trials(spec, lambda spec, trials: [len(trials)])
    assert ranges == lengths


def test_a_pool_gets_its_ranges_in_about_four_chunks_per_worker(monkeypatch):
    """From p = 182 on a range is one trial; a pool takes those ranges in
    chunks, so that a cheap trial does not pay one round trip per trial.  A
    stand-in pool records the chunk size and runs the ranges here."""
    chunks = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunks.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    spec = sigma_sweep_spec()._replace(design=DesignSpec(kind="incoherent", p=200),
                                       trials=40, threads=2)
    ranges = harness_module.map_trials(spec, lambda spec, trials: [len(trials)])
    assert ranges == [1] * 40 and chunks == [5]


def test_a_full_range_stays_within_its_memory_budget():
    """The footprint per trial that STACK_BUDGET assumes cannot grow
    unnoticed: a p = 50 recover range of STACK_BUDGET // p^2 trials (26),
    problem assembly, IMP, audit and trace included, peaks under
    4.5 * STACK_BUDGET doubles (3.75 measured at 2^16; 6.5 for the engine
    and audit this budget came with, whose factorizations were copied out
    and whose audit restacked every covariance)."""
    p = 50
    trials = harness_module.STACK_BUDGET // p**2
    spec = recovery_spec(design=DesignSpec(kind="orthonormal", p=p), trials=trials,
                         signal=SignalSpec(k=5, gamma=0.5))
    recovery_trial(spec, range(trials))  # first calls allocate caches of their own
    tracemalloc.start()
    try:
        records = recovery_trial(spec, range(trials))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trials == 26 and len(records) == trials
    assert peak <= 4.5 * 8 * harness_module.STACK_BUDGET


# One range each (13 trials at p = 50; 4 trials x 3 sigmas): (run, spec, IMP
# stack size, designs drawn).  The orthonormal Gaussian recover run draws no
# design; the incoherent baselines run sizes n on trial 0's design.
PHI_FREE_RANGES = {
    "recover": (run_support_recovery,
                recovery_spec(design=DesignSpec(kind="orthonormal", p=50), trials=13,
                              signal=SignalSpec(k=5, gamma=0.5)), 13, 0),
    "recover_incoherent": (run_support_recovery,
                           recovery_spec(design=DesignSpec(kind="incoherent", p=20, n=200),
                                         trials=13, signal=SignalSpec(k=2, gamma=1.0)), 13, 13),
    "baselines": (run_baseline_comparison,
                  ExperimentSpec(kind="baseline_comparison",
                                 design=DesignSpec(kind="incoherent", p=10, n=40), trials=4,
                                 base_seed=67, signal=SignalSpec(k=2, gamma=1.0),
                                 baseline=BaselineSpec(eta=0.5, sigmas=(0.1, 0.5, 1.0))), 12, 4),
}


@pytest.mark.parametrize("name", PHI_FREE_RANGES)
def test_phi_is_gone_before_imp_runs(monkeypatch, name):
    """After assembly a range holds (Sigma, b) only: every design matrix drawn
    for it, the sizing draw included, is freed before its IMP stack runs."""
    run, spec, stack, drawn = PHI_FREE_RANGES[name]
    phis, runs = [], []
    generator = f"gen_{spec.design.kind}_design"
    draw = getattr(designs_module, generator)

    def kept(*args):
        fs = draw(*args)
        phis.append(weakref.ref(fs.phi))
        return fs

    def checked(*args, **kwargs):
        gc.collect()
        assert [ref() is None for ref in phis] == [True] * len(phis)
        runs.append(len(args[0]))
        return run_imp(*args, **kwargs)

    monkeypatch.setattr(designs_module, generator, kept)
    monkeypatch.setattr(harness_module, "run_imp", checked)
    run(spec)
    assert runs == [stack] and len(phis) == drawn


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
            base._replace(design=DesignSpec(kind="orthonormal", p=50,
                                           n=10 * at_bound.bound_n))
        )
        assert oversampled.summary.failure_rate < at_bound.summary.failure_rate

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="expected"):
            run_concentration_check(recovery_spec())

    def test_nearly_singular_uniform_corr_keeps_every_mode(self, tmp_path):
        # derived n = 81881; lambda_min = 1 - alpha = 1e-4 has multiplicity
        # p - 1 and lies above the rank tolerance, so Sigma^+ inverts every
        # mode and the noise projector has rank p, not 1
        spec = ExperimentSpec(
            kind="lemma1_check",
            design=DesignSpec(kind="uniform_corr", p=30, alpha=0.9999),
            trials=100,
            base_seed=0,
            signal=SignalSpec(k=3, gamma=0.5),
            noise=NoiseSpec(sigma=0.2),
        )
        n, _, _, _ = resolve_sample_size(spec, 0, 0.25, concentration_sample_size)
        assert n == 81881
        fs = gen_uniform_corr_design(n, 30, 0.9999, seed=0)
        assert np.linalg.matrix_rank(noise_projector(fs)) == 30
        assert run_cli(tmp_path, spec, "lemma1") == 0


POOLED_RUNS = {
    "recover": ("recover", recovery_spec(trials=10)),
    # 29 attempts in 11 batches
    "heuristic-incoherent": ("heuristic", ExperimentSpec(
        kind="heuristic_equivalence",
        design=DesignSpec(kind="incoherent", p=3, n=2000),
        trials=5,
        base_seed=1,
    )),
    "heuristic-uniform_corr": ("heuristic", ExperimentSpec(
        kind="heuristic_equivalence",
        design=DesignSpec(kind="uniform_corr", p=10, alpha=0.01),
        trials=20,
        base_seed=56,
    )),
    "baselines": ("baselines", ExperimentSpec(
        kind="baseline_comparison",
        design=DesignSpec(kind="incoherent", p=10, n=40),
        trials=10,
        base_seed=60,
        signal=SignalSpec(k=2, gamma=1.0),
        noise=NoiseSpec(sigma=0.5),
        baseline=BaselineSpec(sigmas=(0.25, 1.0)),
    )),
    "lemma1": ("lemma1", ExperimentSpec(
        kind="lemma1_check",
        design=DesignSpec(kind="incoherent", p=10),
        trials=40,
        base_seed=64,
        signal=SignalSpec(k=2, gamma=0.5),
        noise=NoiseSpec(sigma=1.0),
    )),
}


def run_cli(tmp_path, spec, *args):
    """Exit code of the CLI subcommand `args` on `spec`, written as a config."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec_document(spec)))
    return main([*args, "--config", str(config)])


@pytest.mark.parametrize("name", POOLED_RUNS)
def test_pool_matches_serial(tmp_path, capsys, name):
    command, spec = POOLED_RUNS[name]
    outputs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        code = run_cli(tmp_path, spec, command, "--threads", str(threads), "--out", str(out))
        files = {path.name: path.read_text() for path in sorted(out.iterdir())}
        if "trials.csv" in files:
            files["trials.csv"] = [row_without_wall_ms(row)
                                   for row in files["trials.csv"].splitlines()]
        outputs.append((code, capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]


def count_pools(monkeypatch):
    """Worker counts of the process pools the harness opens from now on.

    The harness imports the pool class from concurrent.futures when it opens
    a pool, so the counting subclass replaces it there."""
    opened = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return opened


def test_multi_batch_run_opens_one_pool(monkeypatch):
    opened = count_pools(monkeypatch)
    spec = POOLED_RUNS["heuristic-incoherent"][1]
    serial = run_heuristic_equivalence(spec)
    pooled = run_heuristic_equivalence(spec._replace(threads=2))
    assert opened == [2]
    assert pooled.attempts > spec.trials  # more than one batch
    assert list(map(row_values, pooled.rows)) == list(map(row_values, serial.rows))


@pytest.mark.parametrize("design", [
    DesignSpec(kind="orthonormal", p=6),
    DesignSpec(kind="uniform_corr", p=10, alpha=0.01),
    DesignSpec(kind="incoherent", p=3, n=2000),
], ids=lambda d: d.kind)
def test_heuristic_rows_do_not_depend_on_range_size(monkeypatch, design):
    """One-trial ranges give the rows of the default ones, and an incoherent
    range runs its qualifying attempts' first prunes as one IMP stack."""
    spec = ExperimentSpec(kind="heuristic_equivalence", design=design, trials=20, base_seed=56)
    real_trials, real_imp = harness_module._heuristic_trials, harness_module.run_imp
    ranges, stacks = [], []

    def recording(spec, trials):
        rows = real_trials(spec, trials)
        ranges.append((len(trials), sum(not (r.degenerate or r.excluded) for r in rows)))
        return rows

    def counted(covs, *args):
        stacks.append(len(covs))
        return real_imp(covs, *args)

    monkeypatch.setattr(harness_module, "_heuristic_trials", recording)
    monkeypatch.setattr(harness_module, "run_imp", counted)
    rows = []
    for budget in (harness_module.STACK_BUDGET, 1):
        monkeypatch.setattr(harness_module, "STACK_BUDGET", budget)
        ranges.clear()
        stacks.clear()
        report = run_heuristic_equivalence(spec)
        rows.append(list(map(row_values, report.rows)))
        assert sum(size for size, _ in ranges) == report.attempts
        if budget == 1:
            assert {size for size, _ in ranges} == {1}
        if design.kind == "incoherent":
            assert stacks == [qualifying for _, qualifying in ranges if qualifying]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("kind", ["incoherent", "orthonormal"])
def test_lemma1_hands_its_ranges_no_projector(monkeypatch, kind):
    """Each process builds the (p, n) projector itself, so a range's arguments
    hold no array larger than p, and a serial run draws its design once."""
    seen, draws = [], []
    real_map = harness_module.map_trials

    def recording(spec, trial_fn, *args, **kwargs):
        seen.append(args)
        return real_map(spec, trial_fn, *args, **kwargs)

    generator = f"gen_{kind}_design"
    draw = getattr(designs_module, generator)

    def counted(n, p, seed):
        draws.append((n, p, seed))
        return draw(n, p, seed)

    monkeypatch.setattr(harness_module, "map_trials", recording)
    monkeypatch.setattr(designs_module, generator, counted)
    spec = POOLED_RUNS["lemma1"][1]._replace(design=DesignSpec(kind=kind, p=10))
    report = run_concentration_check(spec)
    [args] = seen
    assert all(np.asarray(a).size <= spec.design.p for a in args)
    assert draws.count((report.n, 10, spec.base_seed)) == 1
    assert harness_module._PROJECTOR == {}  # not kept after the run


def test_lemma1_draws_on_one_pool(monkeypatch):
    opened = count_pools(monkeypatch)
    spec = POOLED_RUNS["lemma1"][1]
    serial = run_concentration_check(spec)
    pooled = run_concentration_check(spec._replace(threads=2))
    assert opened == [2]
    assert pooled == serial

import concurrent.futures
import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import implinear
from implinear import designs, harness
from implinear.cli import build_parser, main
from implinear.harness import MAX_THREADS, ExperimentSpec


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def recovery_doc(**overrides):
    doc = {
        "kind": "support_recovery",
        "design": {"kind": "orthonormal", "p": 10},
        "signal": {"k": 3, "gamma": 0.5},
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "trials": 8,
        "base_seed": 777,
        "delta": 0.1,
    }
    doc.update(overrides)
    return doc


def baselines_doc(**overrides):
    doc = {
        "kind": "baseline_comparison",
        "design": {"kind": "orthonormal", "p": 8, "n": 24},
        "signal": {"k": 2, "gamma": 1.0},
        "noise": {"kind": "gaussian", "sigma": 0.0},
        "baseline": {"tau": 0.5, "eta": 1.0},
        "trials": 5,
        "base_seed": 6,
    }
    doc.update(overrides)
    return doc


def lemma1_doc(**overrides):
    doc = {
        "kind": "lemma1_check",
        "design": {"kind": "orthonormal", "p": 6},
        "signal": {"k": 2, "gamma": 0.5},
        "trials": 2,
        "base_seed": 7,
    }
    doc.update(overrides)
    return doc


DELETE = object()


class JsonLiteral(str):
    """A value written into the config file as this raw JSON text."""


def edited(doc, path, value):
    """A copy of doc with the field at the dotted path set to value (DELETE removes it)."""
    doc = copy.deepcopy(doc)
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


def test_recover_pass_and_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, recovery_doc())
    out = tmp_path / "out"
    rc = main(["recover", "--config", cfg, "--out", str(out), "--verified"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert (out / "trials.csv").exists()
    assert (out / "summary.json").exists()
    assert len(list((out / "trace").glob("*.json"))) == 8


def test_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, recovery_doc(trials=3, base_seed=1))
    out = tmp_path / "o2"
    rc = main(["recover", "--config", cfg, "--out", str(out),
               "--trials", "5", "--seed", "42", "--threads", "2"])
    assert rc == 0
    lines = (out / "trials.csv").read_text().splitlines()
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "42"
    # a flag replaces the file's value before the file is checked
    for trials in (DELETE, "x"):
        cfg = write_config(tmp_path, edited(recovery_doc(), "trials", trials))
        assert main(["recover", "--config", cfg, "--trials", "3"]) == 0


def test_every_common_flag_is_stored_under_a_spec_field():
    [subs] = [a for a in build_parser()._actions if a.dest == "command"]
    for sub in subs.choices.values():
        dests = {a.dest for a in sub._actions} - {"help", "config", "trial"}
        assert dests == {"base_seed", "trials", "out_dir", "threads", "verified_mode"}
        assert dests <= set(ExperimentSpec._fields)


def test_replay_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, recovery_doc())
    out = tmp_path / "out"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
    rc = main(["replay", "--config", cfg, "--out", str(out), "--trial", "2"])
    assert rc == 0
    assert "matches" in capsys.readouterr().out


def test_replay_flags_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, recovery_doc())
    out = tmp_path / "out"
    main(["recover", "--config", cfg, "--out", str(out)])
    csv_path = out / "trials.csv"
    lines = csv_path.read_text().splitlines()
    target = next(i for i, ln in enumerate(lines) if ln.startswith("2,"))
    cols = lines[target].split(",")
    cols[2] = "9999"  # corrupt the stored n
    lines[target] = ",".join(cols)
    csv_path.write_text("\n".join(lines) + "\n")
    rc = main(["replay", "--config", cfg, "--out", str(out), "--trial", "2"])
    assert rc == 1
    assert "DIFFERS" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    doc = recovery_doc()
    doc["not_a_field"] = True
    cfg = write_config(tmp_path, doc)
    assert main(["recover", "--config", cfg]) == 2
    assert "not_a_field" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["recover", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_kind_subcommand_mismatch(tmp_path, capsys):
    recover_cfg = write_config(tmp_path, recovery_doc(), "recover.json")
    lemma1_cfg = write_config(tmp_path, lemma1_doc(), "lemma1.json")
    for command in ("recover", "heuristic", "baselines", "lemma1", "replay"):
        cfg = lemma1_cfg if command in ("recover", "replay") else recover_cfg
        trial = ["--trial", "0"] if command == "replay" else []
        assert main([command, "--config", cfg, *trial]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("config error: expected a ") and err.count("\n") == 1, command


def test_heuristic_subcommand(tmp_path, capsys):
    doc = {
        "kind": "heuristic_equivalence",
        "design": {"kind": "orthonormal", "p": 8},
        "trials": 20,
        "base_seed": 5,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "h"
    rc = main(["heuristic", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert (out / "heuristic_summary.json").exists()
    assert (out / "heuristic_trials.csv").exists()


def test_baselines_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, baselines_doc())
    out = tmp_path / "b"
    rc = main(["baselines", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "sigma=0.0" in capsys.readouterr().out
    assert (out / "baselines.csv").exists()


def test_lemma1_subcommand(tmp_path, capsys):
    doc = {
        "kind": "lemma1_check",
        "design": {"kind": "orthonormal", "p": 12},
        "signal": {"k": 2, "gamma": 0.5},
        "noise": {"kind": "uniform", "sigma": 1.0},
        "trials": 100,
        "base_seed": 7,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "l"
    rc = main(["lemma1", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert (out / "summary.json").exists()


def test_gate_failure_exit_code(tmp_path, capsys):
    # epsilon far above the bound's level with a tiny delta: the gate fails
    doc = {
        "kind": "lemma1_check",
        "design": {"kind": "orthonormal", "p": 12, "n": 12},
        "signal": {"k": 2, "gamma": 0.5},
        "noise": {"kind": "gaussian", "sigma": 5.0},
        "epsilon": 0.01,
        "delta": 0.05,
        "trials": 60,
        "base_seed": 8,
    }
    cfg = write_config(tmp_path, doc)
    rc = main(["lemma1", "--config", cfg])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def uniform_corr_doc(screen):
    return {
        "kind": "heuristic_equivalence",
        "design": {"kind": "uniform_corr", "p": 20, "alpha": 0.5},
        "separation_screen": screen,
        "trials": 20,
        "base_seed": 5,
    }


def test_heuristic_with_no_qualifying_trial_exits_2(tmp_path, capsys):
    # the separation screen excludes every trial here: a gate with nothing to
    # test is a config error, as in recover when every trial is rejected
    out = tmp_path / "h"
    cfg = write_config(tmp_path, uniform_corr_doc(screen=True))
    assert main(["heuristic", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: no trial qualified (0 of 20 degenerate, 20 excluded "
                            "by the separation screen): the gate has nothing to test\n")
    assert not out.exists()


def test_heuristic_gate_fails_without_the_separation_screen(tmp_path, capsys):
    # the same trials, none screened out: the IMP order is not the alignment order
    out = tmp_path / "h"
    cfg = write_config(tmp_path, uniform_corr_doc(screen=False))
    assert main(["heuristic", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out.rstrip().endswith("FAIL")
    summary = json.loads((out / "heuristic_summary.json").read_text())
    assert summary["qualifying"] == 20 and summary["full_match_rate"] < 1.0


# alpha is the largest double below 1, which validation accepts: Sigma is
# singular in floating point
SINGULAR_UNIFORM_CORR = {
    "kind": "heuristic_equivalence",
    "design": {"kind": "uniform_corr", "p": 4, "alpha": 0.9999999999999999},
    "trials": 3,
    "base_seed": 1,
}


def test_singular_uniform_corr_heuristic_exits_2(tmp_path, capsys):
    # trial 2's Sigma does not invert; the separation screen excludes the others
    out = tmp_path / "h"
    cfg = write_config(tmp_path, SINGULAR_UNIFORM_CORR)
    assert main(["heuristic", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: no trial qualified (1 of 3 degenerate, 2 excluded "
                            "by the separation screen): the gate has nothing to test\n")
    assert not out.exists()


def test_singular_uniform_corr_heuristic_fails_its_gate(tmp_path, capsys):
    # unscreened, the run reaches its gate, which reads trial 2's failed inversion
    out = tmp_path / "h"
    cfg = write_config(tmp_path, dict(SINGULAR_UNIFORM_CORR, separation_screen=False))
    assert main(["heuristic", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert captured.out.rstrip().endswith("FAIL")
    assert '"max_inverse_err": Infinity' in (out / "heuristic_summary.json").read_text()
    with open(out / "heuristic_trials.csv", encoding="utf-8") as fh:
        assert [row["inverse_err"] for row in csv.DictReader(fh)][2] == "inf"


# recover-p50's design (orthonormal p=50, k=5, gamma 0.5, sigma 1, delta 0.1)
# with n forced to 55, about a quarter of the bound's 222
UNDERSIZED_P50 = recovery_doc(design={"kind": "orthonormal", "p": 50, "n": 55},
                              signal={"k": 5, "gamma": 0.5}, imp={"q": 45},
                              trials=40, base_seed=20_240_501)


def test_recover_gate_fails_far_below_the_bound(tmp_path, capsys):
    """The gate has power: at a quarter of the bound, noise excludes support
    coordinates in 16 of 40 trials, and failure_counts names that part."""
    out = tmp_path / "out"
    assert main(["recover", "--config", write_config(tmp_path, UNDERSIZED_P50),
                 "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["failure_counts"] == {"false_exclusion": 16, "onp_rejected": 0,
                                         "sparsity": 0}
    assert summary["failure_rate"] == 0.4 and not summary["passed"]


def test_replay_matches_false_exclusion_trials(tmp_path, capsys):
    """A trial that prunes a support coordinate has its Sigma s recomputed
    by the audit: replayed alone, each such trial of a stacked run still
    matches its row, max_recov_residual included."""
    cfg = write_config(tmp_path, UNDERSIZED_P50)
    out = tmp_path / "out"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
    with open(out / "trials.csv", encoding="utf-8") as fh:
        excluded = [row["trial"] for row in csv.DictReader(fh)
                    if row["no_false_exclusion"] == "0"]
    assert len(excluded) == 16
    capsys.readouterr()
    for trial in excluded[:4]:
        assert main(["replay", "--config", cfg, "--out", str(out), "--trial", trial]) == 0
    assert capsys.readouterr().out.count("matches") == 4


def test_partly_rejected_recover_run(tmp_path, capsys, monkeypatch):
    """Trials whose design fails the ONP precondition get no row: the summary
    counts them, and replaying one exits 2.  Half of the trials may be
    rejected; one more is a config error that writes nothing."""
    cfg = write_config(tmp_path, recovery_doc())
    spec = harness.load_spec(cfg)
    trial_of = {harness._recovery_problem(spec, spec.base_seed + t).support: t
                for t in range(spec.trials)}
    assert len(trial_of) == spec.trials  # each trial draws its own support
    rejected = {1, 2, 5, 6}
    monkeypatch.setattr(harness, "check_onp",
                        lambda eig, support: float(trial_of[tuple(support)] in rejected))

    out = tmp_path / "out"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "trials.csv", encoding="utf-8") as fh:
        assert [row["trial"] for row in csv.DictReader(fh)] == ["0", "3", "4", "7"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rejected"] == 4 and summary["summary"]["trials"] == 4
    assert summary["summary"]["failure_counts"]["onp_rejected"] == 4
    capsys.readouterr()
    assert main(["replay", "--config", cfg, "--out", str(out), "--trial", "2"]) == 2
    assert main(["replay", "--config", cfg, "--out", str(out), "--trial", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("config error: trial 2 was rejected by the ONP precondition; "
                            "it has no row\n")
    assert "matches" in captured.out

    rejected.add(0)
    refused = tmp_path / "refused"
    assert main(["recover", "--config", cfg, "--out", str(refused)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ONP rejection rate 5/8 exceeds 50%")
    assert not refused.exists()


def test_gates_fail_when_the_engine_prunes_the_largest(tmp_path, capsys, monkeypatch):
    """An engine mutant that prunes the largest magnitudes: a small recover
    (criterion 5's gate) and an orthonormal heuristic (criterion 2's) that
    pass with the real engine both fail."""
    from implinear import engine

    recover = write_config(tmp_path, recovery_doc(trials=10), "recover.json")
    heuristic = write_config(tmp_path, {"kind": "heuristic_equivalence", "trials": 20,
                                        "design": {"kind": "orthonormal", "p": 8},
                                        "base_seed": 5}, "heuristic.json")
    assert main(["recover", "--config", recover]) == 0
    assert main(["heuristic", "--config", heuristic]) == 0
    real = engine._select_prune
    monkeypatch.setattr(engine, "_select_prune",
                        lambda magnitudes, active, count, tie_break:
                        real(-magnitudes, active, count, tie_break))
    assert main(["recover", "--config", recover]) == 1
    assert main(["heuristic", "--config", heuristic]) == 1
    verdicts = [line.rsplit(" ", 1)[-1] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == ["PASS", "PASS", "FAIL", "FAIL"]


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


# (command, dotted field, bad value, fragment of the one-line error)
BAD_CONFIGS = {
    "design-without-p": ("recover", "design.p", DELETE, "missing required key 'p'"),
    "trials-string": ("recover", "trials", "x", "trials must be an integer"),
    "trials-bool": ("recover", "trials", True, "trials must be an integer"),
    "orthonormal-n-below-p": ("recover", "design.n", 5, "n >= p"),
    "q-exceeds-p": ("recover", "imp.q", 10, "exceeds design.p"),
    "horizon-word": ("recover", "imp.horizon", "forever", "imp.horizon must be a number"),
    "horizon-negative": ("recover", "imp.horizon", -1.0, "imp.horizon must be positive"),
    "noise-kind": ("recover", "noise.kind", "cauchy", "cauchy"),
    "noise-sigma-negative": ("recover", "noise.sigma", -1.0, "sigma"),
    "amplitude-law": ("recover", "signal.amplitude_law", "bogus", "bogus"),
    "tie-break": ("recover", "imp.tie_break", "random", "imp.tie_break must be one of"),
    "per-round-zero": ("recover", "imp.per_round", 0, "imp.per_round must be positive"),
    "q-negative": ("recover", "imp.q", -1, "imp.q must be nonnegative"),
    "uniform-corr-alpha": ("recover", "design",
                           {"kind": "uniform_corr", "p": 10, "alpha": 1.5}, "alpha"),
    "sigmas-empty": ("baselines", "baseline.sigmas", [], "baseline.sigmas"),
    "iht-diverges": ("baselines", "baseline.eta", 5.0, "baseline.eta"),
    "p-string": ("recover", "design.p", "10", "design.p must be an integer"),
    "delta-string": ("recover", "delta", "0.1", "delta must be a number"),
    "verified-string": ("recover", "verified_mode", "false", "verified_mode must be true or false"),
    "design-list": ("recover", "design", [1], "design must be an object"),
    "gamma-nan": ("recover", "signal.gamma", math.nan, "signal.gamma must be finite"),
    "sigma-infinity": ("recover", "noise.sigma", math.inf, "noise.sigma must be finite"),
    "epsilon-nan": ("lemma1", "epsilon", math.nan, "epsilon must be finite"),
    "tie-tol-nan": ("recover", "tie_tol", math.nan, "tie_tol must be finite"),
    "tie-tol-negative": ("recover", "tie_tol", -1.0, "tie_tol must be nonnegative"),
    # bounds that cannot be computed: the margin's square underflows to 0, or
    # the default epsilon = gamma / 2 rounds to 0
    "epsilon-squared-underflows": ("lemma1", "epsilon", 1e-200,
                                   "sample-size bound cannot be computed"),
    "gamma-squared-underflows": ("baselines", "signal.gamma", 1e-200,
                                 "sample-size bound cannot be computed"),
    "default-epsilon-rounds-to-0": ("lemma1", "signal.gamma", 5e-324,
                                    "sample-size bound cannot be computed"),
    "eta-nan": ("baselines", "baseline.eta", math.nan, "baseline.eta must be finite"),
    "delta-overflow": ("recover", "delta", 10**400, "delta overflows a float"),
    # past the 4300 digits Python converts from a string to an int
    "delta-4301-digits": ("recover", "delta", JsonLiteral("1" + "0" * 4300),
                          "cannot read config"),
    "horizon-infinity": ("recover", "imp.horizon", math.inf, "imp.horizon must be finite"),
    "horizon-overflow": ("recover", "imp.horizon", 10**400, "imp.horizon overflows a float"),
    # a baseline block is checked whether or not the config has a signal
    "heuristic-baseline-tau": ("heuristic", "baseline.tau", -1.0,
                               "baseline.tau must be nonnegative"),
    "heuristic-baseline-eta": ("heuristic", "baseline.eta", -1.0, "baseline.eta must be positive"),
    "heuristic-baseline-max-iters": ("heuristic", "baseline.max_iters", 0,
                                     "baseline.max_iters must be positive"),
    "heuristic-baseline-convergence-tol": ("heuristic", "baseline.convergence_tol", -1.0,
                                           "baseline.convergence_tol must be nonnegative"),
    "heuristic-baseline-sigmas": ("heuristic", "baseline.sigmas", [0.5, -1.0],
                                  "baseline.sigmas[1] must be nonnegative"),
}
BAD_CONFIG_BASES = {
    "recover": recovery_doc,
    "baselines": baselines_doc,
    "lemma1": lemma1_doc,
    "heuristic": lambda: {"kind": "heuristic_equivalence",
                          "design": {"kind": "orthonormal", "p": 5}, "trials": 2, "base_seed": 1},
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_bad_config_exits_2(tmp_path, capsys, case):
    command, path, value, message = BAD_CONFIGS[case]
    text = json.dumps(edited(BAD_CONFIG_BASES[command](), path, value))
    if isinstance(value, JsonLiteral):
        text = text.replace(json.dumps(value), value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


# Sizes past the size rule, given or derived: (subcommand, dotted field, value,
# fragment of the error) on recovery_doc's orthonormal p=10 config, or on an
# orthonormal heuristic whose n defaults to 4p (Phi 120000 x 30000).
OVERSIZED = {
    "p-huge": ("recover", "design.p", 10**400, "the design is too large"),
    "n-huge": ("recover", "design.n", 10**400, "the design is too large"),
    "sigma-overflows-the-bound": ("recover", "noise.sigma", 1e300, "sample-size bound overflows"),
    "gamma-underflows-the-bound": ("recover", "signal.gamma", 1e-200,
                                   "sample-size bound cannot be computed"),
    "sigma-derives-a-huge-n": ("recover", "noise.sigma", 1e100,
                               "the sample size the bound derives is too large"),
    "heuristic-default-n": ("heuristic", "design.p", 30000, "the design is too large"),
}
OVERSIZED_BASES = {
    "recover": recovery_doc,
    "heuristic": lambda: {"kind": "heuristic_equivalence", "design": {"kind": "orthonormal"},
                          "trials": 2, "base_seed": 1},
}


@pytest.mark.parametrize("case", OVERSIZED)
def test_oversized_size_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized run drew a design or opened a pool")

    for name in ("gen_orthonormal_design", "gen_uniform_corr_design", "gen_incoherent_design"):
        monkeypatch.setattr(designs, name, refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    command, path, value, message = OVERSIZED[case]
    cfg = write_config(tmp_path, edited(OVERSIZED_BASES[command](), path, value))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


def test_threads_are_bounded_by_the_cap_and_the_trials(tmp_path, capsys, monkeypatch):
    """No run asks for more than MAX_THREADS workers, and none gets more than it
    has trials.  A stand-in pool records its size and runs the ranges here,
    so no worker process is started."""
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    too_many = str(MAX_THREADS + 1)
    cfg = write_config(tmp_path, recovery_doc(trials=3))
    assert main(["recover", "--config", cfg, "--threads", too_many]) == 2
    assert main(["recover", "--config", write_config(
        tmp_path, recovery_doc(threads=MAX_THREADS + 1), "big.json")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"threads must lie in [1, {MAX_THREADS}]") == 2
    assert opened == []
    for command, doc in (("recover", recovery_doc(trials=3)),
                         ("baselines", baselines_doc(trials=3)),
                         ("lemma1", lemma1_doc(trials=3))):
        cfg = write_config(tmp_path, doc)
        outputs = [(main([command, "--config", cfg, "--threads", threads]),
                    capsys.readouterr().out) for threads in ("1", str(MAX_THREADS))]
        assert outputs[0] == outputs[1]
    assert opened == [3, 3, 3]


SMALL_CONFIGS = {
    "recover": recovery_doc(design={"kind": "uniform_corr", "p": 6, "alpha": 0.2}, trials=2),
    "heuristic": {"kind": "heuristic_equivalence", "design": {"kind": "orthonormal", "p": 6},
                  "trials": 2, "base_seed": 5},
    "baselines": baselines_doc(trials=2),
    "lemma1": lemma1_doc(),
}
# Every field but out_dir, whose string values would create directories.
FUZZED_FIELDS = (
    "kind", "trials", "base_seed", "delta", "epsilon", "verified_mode", "threads",
    "tie_tol", "separation_screen",
    "design", "design.kind", "design.p", "design.n", "design.alpha",
    "signal", "signal.k", "signal.gamma", "signal.amplitude_law",
    "noise", "noise.kind", "noise.sigma",
    "imp", "imp.q", "imp.per_round", "imp.horizon", "imp.tie_break",
    "baseline", "baseline.tau", "baseline.eta", "baseline.max_iters",
    "baseline.convergence_tol", "baseline.sigmas",
)
# Wrong JSON types, numbers that are not finite, and numbers at or below zero
# or past 1: out of range for most fields, and never a size large enough to
# make a run slow.
WRONG_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-3, 0),
    st.floats(-3.0, 0.0),
    st.just(1.5),
    st.lists(st.integers(-3, 0), max_size=2),
    st.dictionaries(st.sampled_from(["k", "x"]), st.integers(-3, 0), max_size=1),
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(SMALL_CONFIGS)), path=st.sampled_from(FUZZED_FIELDS),
       value=WRONG_VALUES)
@example(command="recover", path="signal.gamma", value=math.nan)
@example(command="baselines", path="noise.sigma", value=math.inf)
@example(command="lemma1", path="epsilon", value=math.nan)
def test_fuzzed_config_exit_code(tmp_path, command, path, value):
    cfg = write_config(tmp_path, edited(SMALL_CONFIGS[command], path, value))
    assert main([command, "--config", cfg]) in (0, 1, 2)


# Tiny configs with an explicit design.n, so that no value derives a large n;
# at these values the heuristic's trials pass the separation screen.
TINY_DESIGN = {"kind": "uniform_corr", "p": 4, "n": 16, "alpha": 0.01}
TINY_CONFIGS = {
    "recover": recovery_doc(design=TINY_DESIGN, signal={"k": 2, "gamma": 0.5}, trials=2),
    "lemma1": lemma1_doc(design=TINY_DESIGN, noise={"kind": "gaussian", "sigma": 1.0}),
    "baselines": baselines_doc(design=TINY_DESIGN, trials=2,
                               baseline={"tau": 0.5, "eta": 1.0, "max_iters": 100}),
    "heuristic": {"kind": "heuristic_equivalence", "design": TINY_DESIGN, "trials": 2,
                  "base_seed": 3},
}
NUMERIC_FIELDS = (
    "signal.gamma", "noise.sigma", "delta", "epsilon", "design.alpha", "imp.horizon",
    "baseline.tau", "baseline.eta", "baseline.convergence_tol", "tie_tol",
)
EXTREMES = (0, -0.0, 5e-324, 1e-300, 1e-200, 1e-160, 1e-8, 0.5, 1, 1.5, 1e8, 1e160, 1e300, -1)


@pytest.mark.parametrize("path", NUMERIC_FIELDS)
@pytest.mark.parametrize("command", sorted(TINY_CONFIGS))
def test_numeric_extremes_keep_the_exit_code_contract(tmp_path, capsys, command, path):
    # every numeric field, one at a time, at each extreme: a verdict or one
    # config error line, never a traceback
    for value in EXTREMES:
        cfg = write_config(tmp_path, edited(TINY_CONFIGS[command], path, value))
        code = main([command, "--config", cfg])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), value
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1, value


def test_bad_flag_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIGS["lemma1"])
    assert main(["lemma1", "--config", cfg, "--trials", "0"]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
@pytest.mark.parametrize("under", ["file", "file/out"])
def test_out_under_a_regular_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                         command, under):
    # an output directory that cannot be created is a config error, found
    # before any trial runs rather than by the writers after the last one
    monkeypatch.setattr(designs, "make_rng", None)  # any draw would raise
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, SMALL_CONFIGS[command])
    assert main([command, "--config", cfg, "--out", str(tmp_path / under)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write outputs to ")
    assert "Traceback" not in captured.err
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("under", ["file", "file/out"])
def test_replay_reads_past_an_unwritable_out(tmp_path, capsys, under):
    # replay only reads out_dir, so one it could not write is no error
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, recovery_doc())
    assert main(["replay", "--config", cfg, "--out", str(tmp_path / under), "--trial", "0"]) == 0
    row, verdict = capsys.readouterr().out.splitlines()
    assert row.startswith("0,") and verdict == "no stored trials.csv to compare against"


def modules_after_every_subcommand(tmp_path, package):
    """Run each subcommand's small config (threads 1) in one fresh interpreter;
    the sorted names of the loaded modules in `package`, a dotted prefix."""
    script = (
        "import sys\n"
        "from implinear.cli import main\n"
        "args = sys.argv[2:]\n"
        "print([main([cmd, '--config', cfg]) for cmd, cfg in zip(args[::2], args[1::2])])\n"
        "print(sorted(m for m in sys.modules if (m + '.').startswith(sys.argv[1] + '.')))\n"
    )
    args = [package]
    for command, doc in SMALL_CONFIGS.items():
        args += [command, write_config(tmp_path, doc, f"{command}.json")]
    src = str(Path(implinear.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    codes, loaded = run.stdout.splitlines()[-2:]
    assert codes == str([0] * len(SMALL_CONFIGS))
    return loaded


def test_no_subcommand_loads_scipy(tmp_path):
    # scipy is a test-only dependency; importing it would add about 1 s to every launch
    assert modules_after_every_subcommand(tmp_path, "scipy") == "[]"


def test_no_subcommand_loads_dataclasses(tmp_path):
    # the records are NamedTuples and small classes: a dataclass compiles its
    # methods at every launch, about 1 ms per class
    assert modules_after_every_subcommand(tmp_path, "dataclasses") == "[]"


def key_paths(doc, prefix=""):
    """Every object key of a JSON document as a dotted path, in file order;
    the items of a list share their list's prefix."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + key
            yield from key_paths(value, f"{prefix}{key}.")
    elif isinstance(doc, list):
        for value in doc:
            yield from key_paths(value, prefix)


MC_SUMMARY_KEYS = ("ci_high", "ci_low", "delta", "failure_counts", "failure_rate", "passed",
                   "trials")
BASELINE_CELL_KEYS = ("exact_count", "exact_rate", "mean_f1", "method", "sigma", "trials")


def mc_summary_paths(*counts):
    paths = ["summary"]
    for key in MC_SUMMARY_KEYS:
        paths.append(f"summary.{key}")
        if key == "failure_counts":
            paths += [f"summary.failure_counts.{c}" for c in counts]
    return paths


SUMMARY_LAYOUTS = {
    "recover": ("summary.json", ["kind", "rejected",
                                 *mc_summary_paths("false_exclusion", "onp_rejected", "sparsity")]),
    "lemma1": ("summary.json", ["bound_n", "epsilon", "kind", "lambda_min_nz", "n",
                                *mc_summary_paths("exceedance")]),
    "heuristic": ("heuristic_summary.json", [
        "attempts", "degenerate", "design_kind", "excluded", "first_match_rate",
        "full_match_rate", "max_inverse_err", "passed", "qualifying", "trials"]),
    "baselines": ("baselines_summary.json",
                  ["cells", *[f"cells.{key}" for key in BASELINE_CELL_KEYS] * 3]),
}


@pytest.mark.parametrize("command", sorted(SUMMARY_LAYOUTS))
def test_summary_file_layout(tmp_path, capsys, command):
    # keys sorted at every level, and every nested record an object, never a list
    name, paths = SUMMARY_LAYOUTS[command]
    cfg = write_config(tmp_path, SMALL_CONFIGS[command])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / name).read_text())
    assert list(key_paths(doc)) == paths


def test_threads_1_runs_skip_the_process_pool(tmp_path):
    # only a run with threads > 1 pays the ~15 ms import of the process pool
    assert all(doc.get("threads", 1) == 1 for doc in SMALL_CONFIGS.values())
    assert modules_after_every_subcommand(tmp_path, "concurrent.futures.process") == "[]"


def test_python_m_implinear(tmp_path):
    """`python -m implinear` is the CLI, exit codes included."""
    src = str(Path(implinear.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "implinear", *args], capture_output=True,
                              text=True, env=env, timeout=120)

    assert run("--help").returncode == 0
    bad = run("recover", "--config", write_config(tmp_path, dict(recovery_doc(), trials="x")))
    assert bad.returncode == 2
    assert bad.stderr.startswith("config error:") and "Traceback" not in bad.stderr

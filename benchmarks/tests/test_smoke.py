"""Tests of the benchmark itself (not of implinear).

    python3 -m pytest benchmarks/tests -q

The smoke run takes under a minute: every workload at a tiny size, in
both modes, checking that each metric named in BENCHMARK.json is emitted
with its unit and that the traced spans cover at least 90% of trial time on
recover-p50.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def test_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke passed")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "recover-p50", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checker_flags_a_flipped_trial(tmp_path):
    w = wl.WORKLOADS["recover-p50"]
    cfg = w.make_config(0, w.smoke_trials)
    checker = run.Checker(w, cfg, None)
    work = tmp_path / "work"
    work.mkdir()
    launch = run.launch_cli(checker, "clean", run.write_config(work / "config.json", cfg), work)
    assert checker.failed == 0, checker.errors
    assert launch["fields"]["pass_fail"]["sparsity_ok"] == "1" * w.smoke_trials

    ref = json.loads(json.dumps(launch["fields"]))
    ref["pass_fail"]["sparsity_ok"] = "0" + ref["pass_fail"]["sparsity_ok"][1:]
    bad, identical = wl.compare_reference(launch["fields"], ref)
    assert bad == ["pass_fail"] and identical is True

    trials_csv = work / "out" / "trials.csv"
    lines = trials_csv.read_text(encoding="utf-8").splitlines()
    cols = lines[1].split(",")
    cols[9] = "0"  # sparsity_ok of trial 0, while summary.json still counts no failure
    lines[1] = ",".join(cols)
    trials_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, errors = wl.summarize(w, cfg, work / "out", "", 0)
    assert any("sparsity" in e for e in errors)

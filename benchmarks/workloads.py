"""Workload definitions and output checks for the implinear benchmark.

A workload is one CLI experiment at a fixed size.  Its config is a pure
function of the benchmark seed: the seed only moves `base_seed`, so every
seed runs the same amount of work on different draws.

`summarize` reads what one run of the CLI left behind (exit code, stdout,
output files) and reduces it to the fields the correctness reference
stores: the verdict text, the failure counts, the per-trial pass/fail
columns and a SHA-256 of the outputs with `wall_ms` stripped.  It also
checks the outputs for internal consistency, which is the only check
available for a seed that has no stored reference.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

SEED_STRIDE = 1_000_000  # base_seed step between benchmark seeds; far above any trial count

REFS_DIR = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: dict  # experiment config without trials / base_seed
    base_seed: int  # base_seed at benchmark seed 0
    trials: int  # trials per CLI run
    traced_trials: int  # trials per in-process (traced and untraced) run
    smoke_trials: int
    why: str

    @property
    def sigmas(self) -> int:
        baseline = self.config.get("baseline") or {}
        return len(baseline.get("sigmas") or [None])

    def make_config(self, seed: int, trials: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["trials"] = trials
        cfg["base_seed"] = self.base_seed + SEED_STRIDE * seed
        return cfg

    def counted_trials(self, trials: int) -> int:
        """Trials as the experiment counts them (baselines: trials x sigmas)."""
        return trials * self.sigmas


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="recover-p50",
            command="recover",
            config={
                "kind": "support_recovery",
                "design": {"kind": "orthonormal", "p": 50, "n": None, "alpha": None},
                "signal": {"k": 5, "gamma": 0.5, "amplitude_law": "constant"},
                "noise": {"kind": "gaussian", "sigma": 1.0},
                "imp": {"q": 45, "per_round": 1, "horizon": "infinite",
                        "tie_break": "lowest_index"},
                "delta": 0.1,
                "threads": 1,
            },
            base_seed=20240501,
            trials=100,
            traced_trials=100,
            smoke_trials=4,
            why="criterion-5 headline run; small matrices, so sym_eig overhead and the "
            "duplicated audit dominate",
        ),
        Workload(
            name="recover-p400-finite",
            command="recover",
            config={
                "kind": "support_recovery",
                "design": {"kind": "incoherent", "p": 400, "n": 1600, "alpha": None},
                "signal": {"k": 10, "gamma": 0.5, "amplitude_law": "constant"},
                "noise": {"kind": "gaussian", "sigma": 0.5},
                "imp": {"q": 39, "per_round": 10, "horizon": 20.0,
                        "tie_break": "lowest_index"},
                "delta": 0.1,
                "threads": 2,
            },
            base_seed=4_000_000_000,
            trials=12,
            traced_trials=4,
            smoke_trials=2,
            why="large matrices and a finite horizon (no exact downdate); the only "
            "process-pool run; check_onp builds a 25 MB generator matrix",
        ),
        Workload(
            name="heuristic-incoherent",
            command="heuristic",
            config={
                "kind": "heuristic_equivalence",
                "design": {"kind": "incoherent", "p": 3, "n": 30000, "alpha": None},
            },
            base_seed=10000,
            trials=500,
            traced_trials=500,
            smoke_trials=10,
            why="criterion-4 rejection-sampling loop; design generation dominates, "
            "engine and linalg barely run",
        ),
        Workload(
            name="baselines-sweep",
            command="baselines",
            config={
                "kind": "baseline_comparison",
                "design": {"kind": "incoherent", "p": 50, "n": None, "alpha": None},
                "signal": {"k": 5, "gamma": 0.5, "amplitude_law": "constant"},
                "noise": {"kind": "gaussian", "sigma": 1.0},
                "imp": {"q": 45, "per_round": 1, "horizon": "infinite",
                        "tie_break": "lowest_index"},
                "baseline": {"eta": 0.5, "sigmas": [0.25, 0.5, 1.0]},
            },
            base_seed=12000,
            trials=20,
            traced_trials=20,
            smoke_trials=2,
            why="only caller of iht and ht_estimator; redraws the same design once "
            "per noise level",
        ),
    )
}


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------

_OUTPUT_FILES = {
    "recover": ("trials.csv", "summary.json"),
    "heuristic": ("heuristic_trials.csv", "heuristic_summary.json"),
    "baselines": ("baselines.csv", "baselines_summary.json"),
}


def _strip_wall_ms(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def output_digest(command: str, out_dir: Path, stdout: str) -> str:
    """SHA-256 over stdout and every output file, with wall_ms stripped."""
    h = hashlib.sha256()
    h.update(stdout.encode())
    for name in _OUTPUT_FILES[command]:
        text = (out_dir / name).read_text(encoding="utf-8")
        if name == "trials.csv":
            text = _strip_wall_ms(text)
        h.update(name.encode() + b"\0" + text.encode())
    return h.hexdigest()


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def _bits(rows: list[dict], column: str) -> str:
    return "".join(r[column] for r in rows)


def recovery_rows(out_dir: Path) -> dict[int, str]:
    """trials.csv rows keyed by trial, wall_ms stripped."""
    text = (out_dir / "trials.csv").read_text(encoding="utf-8")
    lines = _strip_wall_ms(text).splitlines()[1:]
    return {int(line.split(",", 1)[0]): line for line in lines}


def summarize(workload: Workload, cfg: dict, out_dir: Path, stdout: str,
              exit_code: int) -> tuple[dict, list[str]]:
    """Reduce one run's outputs to reference fields, plus consistency errors."""
    errors: list[str] = []
    command = workload.command
    missing = [n for n in _OUTPUT_FILES[command] if not (out_dir / n).is_file()]
    if missing:
        return {"exit_code": exit_code}, [f"missing outputs {missing}"]
    verdict = stdout.strip()
    trials = cfg["trials"]

    if command == "recover":
        rows = _rows(out_dir / "trials.csv")
        doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        summary = doc["summary"]
        counts = dict(summary["failure_counts"])
        counts["overall"] = round(summary["failure_rate"] * summary["trials"])
        pass_fail = {
            "trial": [int(r["trial"]) for r in rows],
            "sparsity_ok": _bits(rows, "sparsity_ok"),
            "no_false_exclusion": _bits(rows, "no_false_exclusion"),
        }
        if len(rows) + doc["rejected"] != trials or summary["trials"] != len(rows):
            errors.append("row count does not match trials - rejected")
        if counts["sparsity"] != pass_fail["sparsity_ok"].count("0"):
            errors.append("sparsity failure count does not match trials.csv")
        if counts["false_exclusion"] != pass_fail["no_false_exclusion"].count("0"):
            errors.append("false-exclusion failure count does not match trials.csv")
        passed = summary["passed"]
        if workload.config["design"]["kind"] == "orthonormal" and any(
            r["n"] != "222" for r in rows
        ):
            errors.append("realized n differs from the bound's 222")
    elif command == "heuristic":
        rows = _rows(out_dir / "heuristic_trials.csv")
        doc = json.loads((out_dir / "heuristic_summary.json").read_text(encoding="utf-8"))
        counts = {k: doc[k] for k in ("qualifying", "degenerate", "excluded", "attempts")}
        counts["first_match"] = round(doc["first_match_rate"] * doc["qualifying"])
        pass_fail = {c: _bits(rows, c) for c in ("first_match", "degenerate", "excluded")}
        if len(rows) != doc["attempts"] or doc["qualifying"] != trials:
            errors.append("attempt rows or qualifying count do not match")
        if pass_fail["excluded"].count("0") != doc["qualifying"]:
            errors.append("qualifying count does not match heuristic_trials.csv")
        if pass_fail["first_match"].count("1") != counts["first_match"]:
            errors.append("first-match count does not match heuristic_trials.csv")
        passed = doc["passed"]
    else:
        rows = _rows(out_dir / "baselines.csv")
        counts = {f"{r['sigma']}/{r['method']}": int(r["exact_count"]) for r in rows}
        pass_fail = {}
        if len(rows) != 3 * workload.sigmas or any(int(r["trials"]) != trials for r in rows):
            errors.append("baselines.csv does not hold one row per sigma and method")
        if any(not math.isfinite(float(r["mean_f1"])) for r in rows):
            errors.append("non-finite mean_f1")
        passed = True

    expected_exit = 0 if passed else 1
    if exit_code != expected_exit:
        errors.append(f"exit code {exit_code} but the summary says exit {expected_exit}")
    if command != "baselines" and verdict.endswith("PASS") != passed:
        errors.append("verdict line disagrees with the summary")
    fields = {
        "exit_code": exit_code,
        "verdict": verdict,
        "failure_counts": counts,
        "pass_fail": pass_fail,
        "digest": output_digest(command, out_dir, stdout),
    }
    return fields, errors


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

REFERENCE_FIELDS = ("exit_code", "verdict", "failure_counts", "pass_fail")


def load_reference(workload: Workload, seed: int) -> dict | None:
    path = REFS_DIR / f"{workload.name}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("trials") != workload.trials:
        return None
    return doc["seeds"].get(str(seed))


def compare_reference(fields: dict, ref: dict | None) -> tuple[list[str], bool | None]:
    """(mismatched reference fields, whether the stripped outputs are identical).

    Without a stored reference the expected exit code is 0 and the digest
    comparison is undefined (None).
    """
    if ref is None:
        bad = [] if fields.get("exit_code") == 0 else ["exit_code"]
        return bad, None
    bad = [f for f in REFERENCE_FIELDS if fields.get(f) != ref[f]]
    return bad, fields.get("digest") == ref["digest"]

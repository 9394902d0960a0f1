"""Mutation probe for the decision code and the exactly known laws: flips one
comparison, or changes one constant, at a time and runs tier-1 against it.

Each mutant is (name, file under src/implinear, old text, new text); the old
text must occur exactly once in the file.  A mutant is applied to a fresh
temporary copy of src/, never to the checkout, and the tests under tests/
run once per mutant with -x, PYTHONPATH set to that copy and an empty
hypothesis database of its own.  A failing run kills the mutant; one that
passes is a survivor, which a test at the decision's exact edge should kill.
Before the mutants, the unmutated copy must pass, and its `implinear` must
be the one imported.

Standard library only; pytest does not collect this file.  From the
repository root:

    python tests/mutation_probe.py              # every mutant, 5-35 s each on 2 cores
    python tests/mutation_probe.py degenerate   # mutants whose name has a word

It exits 1 if a mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = (
    # the gates' own comparisons
    ("sparsity rule >= made >", "harness.py",
     "sparsity_ok=int(np.sum(final == 0.0)) >= q", "sparsity_ok=int(np.sum(final == 0.0)) > q"),
    ("above mask >= made >", "harness.py",
     "above = np.abs(problem.signal) >= problem.gamma",
     "above = np.abs(problem.signal) > problem.gamma"),
    ("ONP rejection rule > made >=", "harness.py",
     "if rejected > spec.trials // 2:", "if rejected >= spec.trials // 2:"),
    ("separation margin factor 2 made 1", "harness.py",
     "worst = min(worst, gap - 2.0 * abs(beta))", "worst = min(worst, gap - 1.0 * abs(beta))"),
    ("drift check never fires", "engine.py",
     "if not ok.all():  # drift", "if False:  # drift"),
    ("check_onp without its off-support term", "theory.py",
     "worst = worst + np.delete(mag, support, axis=0).max(axis=0)", "pass"),
    ("MC gate rate <= delta made <", "theory.py",
     "passed=rate <= delta,", "passed=rate < delta,"),
    ("audit ONP check <= ONP_TOL made <", "harness.py",
     "pr.support) <= ONP_TOL", "pr.support) < ONP_TOL"),
    ("audit runs past round 0", "harness.py",
     "if k:\n        return\n    for t, pr in", "if k < 0:\n        return\n    for t, pr in"),
    ("recoverability residual drops the signal", "theory.py",
     "np.abs(fit - signal)", "np.abs(fit)"),
    ("HT thresholds IMP's round-0 trained weights", "harness.py",
     "ht_estimator(problem.b, threshold.tau, factors.eigs[t])",
     "ht_estimator(problem.b, np.inf, factors.eigs[t])"
     " + np.where(np.abs(weights[t]) > threshold.tau, weights[t], 0.0)"),
    ("incoherent screen gap > threshold made >=", "harness.py",
     "min_gap > gap_threshold", "min_gap >= gap_threshold"),
    ("uniform_corr screen margin <= tie_tol made <", "harness.py",
     "excluded = min_gap <= spec.tie_tol", "excluded = min_gap < spec.tie_tol"),
    ("degenerate gap < tie_tol made <=", "harness.py",
     "degenerate = min_gap < spec.tie_tol", "degenerate = min_gap <= spec.tie_tol"),
    # the engine's decisions
    ("tie rule ignores tie_break", "engine.py",
     'index = active if tie_break == "lowest_index" else -active', "index = active"),
    ("split skips its agreement check", "engine.py",
     "if (per_slice[owner] == drop).all():", "if True:"),
    ("round-0 path choice ignores the horizon", "engine.py",
     "if is_infinite(config.horizon):  # runs of one SymEig", "if True:  # runs of one SymEig"),
    ("off-diagonal check ignored", "engine.py",
     "diagonal = {key: np.count_nonzero(e) == np.count_nonzero(e.diagonal())",
     "diagonal = {key: True"),
    ("nonsingular check dropped", "engine.py",
     "fixed = np.array([t for t in nonsingular if", "fixed = np.array([t for t in todo if"),
    ("decoupled stack guard fixed.size == stack made fixed.size", "engine.py",
     "if fixed.size == stack:", "if fixed.size:"),
    ("decoupled mask rank >= made >", "engine.py",
     "np.greater_equal(rank", "np.greater(rank"),
    ("engine (q + 1) * per_round > p made >=", "engine.py",
     "if config.per_round * (q + 1) > p:", "if config.per_round * (q + 1) >= p:"),
    # the config rules and the heuristic gate
    ("size rule > MAX_ENTRIES made >=", "harness.py",
     "if max(n, p) * p > MAX_ENTRIES:", "if max(n, p) * p >= MAX_ENTRIES:"),
    ("config (q + 1) * per_round > p made >=", "harness.py",
     "(q + 1) * spec.imp.per_round > design.p:", "(q + 1) * spec.imp.per_round >= design.p:"),
    ("heuristic gate == 1.0 made >= 0.5", "harness.py",
     "passed = (first_rate if incoherent else full_rate) == 1.0",
     "passed = (first_rate if incoherent else full_rate) >= 0.5"),
    ("INVERSE_TOL <= made <", "harness.py",
     "max_inverse <= INVERSE_TOL", "max_inverse < INVERSE_TOL"),
    ("uniform noise bound compares sigma with the largest float", "designs.py",
     'if kind == "uniform" and sigma > UNIFORM_MAX:',
     'if kind == "uniform" and sigma > sys.float_info.max:'),
    ("uniform amplitude bound compares gamma with the largest float", "designs.py",
     'if amplitude_law == "uniform" and gamma > UNIFORM_MAX:',
     'if amplitude_law == "uniform" and gamma > sys.float_info.max:'),
    # the laws that tests/test_exact.py checks against closed forms
    ("lemma1 projected noise scaled by 1.1", "harness.py",
     "np.max(np.abs(projector @ xi))", "np.max(np.abs(1.1 * (projector @ xi)))"),
    ("hard thresholding default tau gamma / 2 made gamma / 3", "harness.py",
     "tau = base.tau if base.tau is not None else spec.signal.gamma / 2.0",
     "tau = base.tau if base.tau is not None else spec.signal.gamma / 3.0"),
)


def run_tests(src: Path) -> subprocess.CompletedProcess:
    """Tier-1 against the copy at `src`, with an empty hypothesis database
    beside it: an example stored under one mutant fails no later one."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(src.parent / "hypothesis"))
    args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    return subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m[0] for w in words)]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        env = dict(os.environ, PYTHONPATH=str(src))
        where = subprocess.run([sys.executable, "-c", "import implinear; print(implinear.__file__)"],
                               cwd=ROOT, env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            print(f"the tests would import implinear from {where.strip()!r}, not the copy")
            return 2
        if run_tests(src).returncode:
            print("tier-1 fails without a mutant; nothing to probe")
            return 2
    survivors = []
    for name, file, old, new in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_src(tmp) / "implinear" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {file}")
                return 2
            path.write_text(text.replace(old, new), encoding="utf-8")
            t0 = time.perf_counter()
            run = run_tests(path.parents[1])
        # the first test that failed, or errored in its set-up
        failed = [line for line in run.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        verdict = "killed" if run.returncode else "SURVIVED"
        print(f"{verdict:8} {time.perf_counter() - t0:5.1f} s  {name}"
              + (f"  [{failed[0]}]" if failed else ""), flush=True)
        if not run.returncode:
            survivors.append(name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

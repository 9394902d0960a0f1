"""Regenerate the correctness references in refs/ from the current sources.

    python3 benchmarks/make_refs.py [--seeds 0-19] [--workload NAME ...]

Run it only on a commit whose outputs are known to be right: each workload
is launched through the CLI once per seed, exactly as the benchmark does,
and the exit code, verdict, failure counts, per-trial pass/fail columns and
output digest are stored per seed.  Existing seeds of a workload are kept
unless regenerated.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", nargs="*", default=list(wl.WORKLOADS),
                        choices=list(wl.WORKLOADS))
    args = parser.parse_args()
    run.require_checkout()
    wl.REFS_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        w = wl.WORKLOADS[name]
        path = wl.REFS_DIR / f"{name}.json"
        doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        if doc.get("trials") != w.trials:
            doc = {"workload": name, "trials": w.trials, "seeds": {}}
        work = run.WORK / name
        work.mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cfg = w.make_config(seed, w.trials)
            checker = run.Checker(w, cfg, None)
            launch = run.launch_cli(checker, "reference", run.write_config(
                work / "config.json", cfg), work)
            if checker.errors:
                print(f"{name} seed {seed}: not stored: {checker.errors}", file=sys.stderr)
                return 1
            doc["seeds"][str(seed)] = launch["fields"]
            print(f"{name} seed {seed}: {launch['fields']['verdict'].splitlines()[0]}")
        doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

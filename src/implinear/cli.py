"""Command-line entry point.

Subcommands: recover, heuristic, baselines, lemma1, replay.  Each reads a
JSON config (see the README for the schema); the common flags --seed,
--trials, --out, --threads, and --verified replace the top-level fields
base_seed, trials, out_dir, threads and verified_mode before the config is
parsed.  The subcommand's harness entry point then checks the config's
kind, then its rules and, except for replay, which only reads, that its
output directory can be written, before any trial runs.  Exit codes: 0
when the run passes its gate, 1 when the gate fails, 2 on configuration
errors.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    load_spec,
    replay_trial,
    run_baseline_comparison,
    run_concentration_check,
    run_heuristic_equivalence,
    run_support_recovery,
)

EXIT_PASS = 0
EXIT_GATE_FAIL = 1
EXIT_CONFIG_ERROR = 2


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON experiment config")
    # the other flags' dests are the config fields they replace; None: not given
    sub.add_argument("--seed", dest="base_seed", type=int, help="override base_seed")
    sub.add_argument("--trials", type=int, help="override trial count")
    sub.add_argument("--out", dest="out_dir", help="override output directory")
    sub.add_argument("--threads", type=int, help="override worker count")
    sub.add_argument("--verified", dest="verified_mode", action="store_true", default=None,
                     help="write each trial's IMP trace (trace/<trial>.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implinear",
        description="Magnitude-pruning experiments on linear models",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("recover", "Monte Carlo verification of sparse support recovery"),
        ("heuristic", "pruning order vs. the alignment ordering"),
        ("baselines", "IMP vs. hard thresholding and IHT over a noise sweep"),
        ("lemma1", "exceedance rate of the noise functional at the bound"),
        ("replay", "recompute one recovery trial and compare to trials.csv"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _common_flags(sub)
        if name == "replay":
            sub.add_argument("--trial", type=int, required=True, help="trial index to replay")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("command", "config", "trial")}
        spec = load_spec(args.config, **flags)

        if args.command == "recover":
            report = run_support_recovery(spec)
            s = report.summary
            print(
                f"support recovery: {s.trials} trials, failure rate {s.failure_rate:.4f} "
                f"(95% CI [{s.ci_low:.4f}, {s.ci_high:.4f}]), delta {s.delta}, "
                f"rejected {report.rejected} -> {'PASS' if s.passed else 'FAIL'}"
            )
            return EXIT_PASS if s.passed else EXIT_GATE_FAIL

        if args.command == "heuristic":
            report = run_heuristic_equivalence(spec)
            print(
                f"heuristic equivalence ({report.design_kind}): "
                f"{report.qualifying} qualifying of {report.attempts} attempts, "
                f"full match {report.full_match_rate}, first match "
                f"{report.first_match_rate} -> {'PASS' if report.passed else 'FAIL'}"
            )
            return EXIT_PASS if report.passed else EXIT_GATE_FAIL

        if args.command == "baselines":
            report = run_baseline_comparison(spec)
            for c in report.cells:
                print(
                    f"sigma={c.sigma} method={c.method} exact={c.exact_rate:.3f} "
                    f"f1={c.mean_f1:.3f}"
                )
            return EXIT_PASS

        if args.command == "lemma1":
            report = run_concentration_check(spec)
            s = report.summary
            print(
                f"noise concentration: n={report.n} (bound {report.bound_n}), "
                f"exceedance {s.failure_rate:.4f} "
                f"(95% CI [{s.ci_low:.4f}, {s.ci_high:.4f}]), delta {s.delta} "
                f"-> {'PASS' if s.passed else 'FAIL'}"
            )
            return EXIT_PASS if s.passed else EXIT_GATE_FAIL

        # replay
        row, verdict = replay_trial(spec, args.trial)
        print(row)
        if verdict is None:
            print("no stored trials.csv to compare against")
            return EXIT_PASS
        if verdict:
            print("replay matches the stored row (wall_ms excluded)")
            return EXIT_PASS
        print("replay DIFFERS from the stored row")
        return EXIT_GATE_FAIL

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""The implinear benchmark: CLI workloads timed end to end, traced per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--trace 1]
    python3 benchmarks/run.py --smoke

Run from the root of a source checkout; the code under test is ./src.

--trace 0 launches the `implinear` CLI again and again, each time in a fresh
single-process interpreter (see launch.py), until S seconds have passed, and
reports the mean wall time, throughput and set-up time and the median peak
RSS.  The times are scaled by the machine's speed during the run, as timed
by a fixed reference job (calibrate.py) run between the launches.
--trace 1 launches the CLI once, then alternates untraced and traced runs of
the same experiment inside this process (tracing.py) and reports per-layer
costs.  Every run's outputs are checked: no traceback, the expected exit code,
internal consistency, and, for a seed with a stored reference (refs/), the
verdict, failure counts and per-trial pass/fail columns.  BLAS is pinned to
one thread in this process and in every process it launches.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every run was
correct.  A full record with the run manifest goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = BLAS_THREADS

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCH_TIMEOUT_S = 150.0
MIN_LAUNCHES = 2
MIN_COVERAGE_PCT = 90.0
CAL_EVERY_S = 5.0
CAL_REFERENCE_S = 2.0  # the reference job's time that the scaled times assume


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout with the implinear sources."""


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(trace: int) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench_spec()[key]}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    return env


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running the experiment and checking its outputs
# ---------------------------------------------------------------------------


class Checker:
    """Checks each run of one workload and config; counts attempts and failures."""

    def __init__(self, workload: wl.Workload, cfg: dict, ref: dict | None) -> None:
        self.workload = workload
        self.cfg = cfg
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.identical: list[bool] = []
        self.first: dict | None = None  # fields and rows of the first clean CLI run

    def check(self, label: str, cfg: dict, out_dir: Path, stdout: str, exit_code: int,
              trace_text: str) -> dict | None:
        self.attempted += 1
        problems: list[str] = []
        fields = None
        if "Traceback (most recent call last)" in trace_text:
            problems.append("traceback: " + trace_text.strip().splitlines()[-1])
        else:
            try:
                fields, problems = wl.summarize(self.workload, cfg, out_dir, stdout, exit_code)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
        if fields is not None and not problems:
            problems += self._compare(cfg, fields, out_dir)
        if problems:
            self.failed += 1
            self.errors += [f"{label}: {p}" for p in problems]
            return None
        return fields

    def _compare(self, cfg: dict, fields: dict, out_dir: Path) -> list[str]:
        if cfg == self.cfg:
            bad, identical = wl.compare_reference(fields, self.ref)
            if identical is not None:
                self.identical.append(identical)
            if bad:
                return [f"differs from the reference in {bad}"]
            if self.first is None:
                self.first = {"fields": fields,
                              "rows": wl.recovery_rows(out_dir)
                              if self.workload.command == "recover" else None}
                return []
            if fields["digest"] != self.first["fields"]["digest"]:
                return ["outputs differ from the first run of the same config"]
            return []
        if self.first is None:
            return []
        # a smaller or serial run of the same experiment: trial t is a pure
        # function of (config, t), so its rows must equal the full run's
        if self.workload.command == "recover":
            rows = wl.recovery_rows(out_dir)
            if any(self.first["rows"].get(t) != row for t, row in rows.items()):
                return ["rows differ from the CLI run's rows for the same trials"]
        elif cfg["trials"] == self.cfg["trials"] and (
            fields["digest"] != self.first["fields"]["digest"]
        ):
            return ["outputs differ from the CLI run of the same config"]
        return []


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def launch_cli(checker: Checker, label: str, cfg_path: Path, work: Path) -> dict:
    """One run of the CLI in a fresh interpreter; wall time and rusage from wait4."""
    w = checker.workload
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    times_path = work / "times.json"
    times_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(times_path), str(cfg_path),
           "--", w.command, "--config", str(cfg_path), "--out", str(out_dir)]
    with open(work / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(work / "stderr.txt", "w+", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    run = {"wall_s": wall, "exit_code": proc.returncode,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if times_path.is_file():
        stamps = json.loads(times_path.read_text(encoding="utf-8"))
        run["setup_s"] = stamps["ready"] - t0
        run["main_s"] = stamps["done"] - stamps["ready"]
        run["import_ms"] = 1e3 * (stamps["imported"] - stamps["start"])
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    run["fields"] = checker.check(label, cfg, out_dir, stdout, proc.returncode, stderr)
    return run


def run_in_process(checker: Checker, label: str, cfg_path: Path, work: Path,
                   tracer: tracing.Tracer | None) -> dict:
    """One run of the CLI entry point in this process, optionally traced."""
    from implinear import cli

    w = checker.workload
    out_dir = work / "out_inproc"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [w.command, "--config", str(cfg_path), "--out", str(out_dir)]
    buf = io.StringIO()
    trace_text = ""
    code = -1
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed run, not a crashed benchmark
        trace_text = traceback.format_exc()
    finally:
        main_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    checker.check(label, cfg, out_dir, buf.getvalue(), code, trace_text)
    return {"main_s": main_s}


def _median(runs: list[dict], key: str) -> float:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else 0.0


def _mean(runs: list[dict], key: str) -> float:
    values = [r[key] for r in runs if key in r]
    return statistics.fmean(values) if values else 0.0


def calibrate() -> float:
    """Wall time of one fresh run of calibrate.py, the machine-speed reference job."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, str(BENCH_DIR / "calibrate.py")], env=child_env(),
                   cwd=ROOT, check=True, timeout=LAUNCH_TIMEOUT_S)
    return time.monotonic() - t0


def end_to_end(checker: Checker, cfg_path: Path, work: Path, seconds: float,
               min_launches: int, runs: list[dict], cal: list[float]) -> dict[str, float]:
    """Launch the CLI until `seconds` have passed; `runs` receives every launch.

    The reference job (calibrate.py) runs before the first launch, before any
    launch that starts CAL_EVERY_S or more after the last reference run, and
    once after the last launch; `cal` receives its times.  The run's slowdown
    is their mean over CAL_REFERENCE_S.  Each time metric is the mean over
    the launches with the slowdown taken out: when the machine runs the fixed
    reference job slower by some factor, it runs the program slower by about
    that factor.  Means, not medians: the machine switches between a fast and
    a slow speed every few seconds, and a mean weighs the time spent in each
    where a median would snap to one of them.
    """
    trials = checker.workload.counted_trials(checker.cfg["trials"])
    start = time.monotonic()
    last_cal = -math.inf
    # stop once the next launch would end more than half a launch past the budget
    while len(runs) < min_launches or (
        time.monotonic() - start + 0.5 * _median(runs, "wall_s") < seconds
    ):
        if time.monotonic() - last_cal >= CAL_EVERY_S:
            last_cal = time.monotonic()
            cal.append(calibrate())
        runs.append(launch_cli(checker, f"launch {len(runs)}", cfg_path, work))
    cal.append(calibrate())
    slowdown = statistics.fmean(cal) / CAL_REFERENCE_S
    main_s = _mean(runs, "main_s")
    return {
        "wall_s": _mean(runs, "wall_s") / slowdown,
        "trials_per_s": trials * slowdown / main_s if main_s else 0.0,
        "setup_s": _mean(runs, "setup_s") / slowdown,
        "peak_rss_mb": _median(runs, "peak_rss_mb"),
    }


def per_layer(checker: Checker, cfg_path: Path, work: Path, seconds: float,
              traced_trials: int) -> dict[str, float]:
    w = checker.workload
    start = time.monotonic()
    launch = launch_cli(checker, "launch", cfg_path, work)

    serial = dict(checker.cfg, trials=traced_trials, threads=1)
    serial_path = write_config(work / "config_serial.json", serial)
    warm = dict(serial, trials=1)
    run_in_process(checker, "warm-up", write_config(work / "config_warm.json", warm), work, None)

    plain, traced, layers = [], [], []
    pair_s = 0.0
    while not traced or time.monotonic() - start + 0.5 * pair_s < seconds:
        t0 = time.monotonic()
        plain.append(run_in_process(checker, f"untraced {len(plain)}", serial_path, work, None))
        tracer = tracing.Tracer()
        traced.append(run_in_process(checker, f"traced {len(traced)}", serial_path, work, tracer))
        layers.append(tracing.layer_metrics(tracer.spans, w.command,
                                            w.counted_trials(traced_trials)))
        del tracer  # its spans would otherwise burden the next untraced run's GC
        pair_s = time.monotonic() - t0
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}

    untraced_s = _median(plain, "main_s")
    metrics["trace.overhead_pct"] = 100.0 * (_median(traced, "main_s") - untraced_s) / untraced_s
    metrics["cli.import_ms"] = launch.get("import_ms", 0.0)
    serial_s = untraced_s / traced_trials * checker.cfg["trials"]
    threads = checker.cfg.get("threads", 1)
    metrics["harness.parallel_efficiency"] = (
        serial_s / (threads * launch["main_s"]) if "main_s" in launch else 0.0
    )
    counts = (launch["fields"] or {}).get("failure_counts", {})
    if w.command == "heuristic" and counts:
        useful = counts["qualifying"] / counts["attempts"]
    elif w.command == "recover" and counts:
        useful = 1.0 - counts["onp_rejected"] / checker.cfg["trials"]
    else:
        useful = 1.0
    metrics["harness.heuristic.useful_ratio"] = useful
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def require_checkout() -> None:
    if not (SRC / "implinear" / "cli.py").is_file():
        raise CheckoutError(f"no implinear sources at {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    w = wl.WORKLOADS[name]
    trials = w.smoke_trials if smoke else w.trials
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    cfg = w.make_config(seed, trials)
    cfg_path = write_config(work / "config.json", cfg)
    checker = Checker(w, cfg, None if smoke else wl.load_reference(w, seed))
    launches: list[dict] = []
    cal: list[float] = []
    if trace:
        traced_trials = min(w.traced_trials, trials)
        metrics = per_layer(checker, cfg_path, work, seconds, traced_trials)
    else:
        metrics = end_to_end(checker, cfg_path, work, seconds, 1 if smoke else MIN_LAUNCHES,
                             launches, cal)

    units = metric_units(trace)
    if set(metrics) != set(units):
        checker.errors.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    result = {
        "correct": checker.failed == 0 and not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record = {
        "workload": name,
        "trace": trace,
        "manifest": manifest(seed),
        "config": cfg,
        "reference": checker.ref is not None,
        "outputs_identical": all(checker.identical) if checker.identical else None,
        "error_rate": checker.failed / checker.attempted,
        "errors": checker.errors,
        "launches": [{k: v for k, v in r.items() if k != "fields"} for r in launches],
        "calibration_s": cal,
        "unscaled": {k: _mean(launches, k) for k in ("wall_s", "main_s", "setup_s")}
        if launches else None,
        **result,
    }
    (WORK / f"BENCH_{name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"== {name} (seed {seed}, trace {trace}, {checker.attempted} runs)")
    for k, v in result["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    if launches:
        print(f"  {len(launches)} launches; unscaled means: " + ", ".join(
            f"{k} = {v:.6g} s" for k, v in record["unscaled"].items())
            + f"; reference job {statistics.fmean(cal):.4g} s (mean of {len(cal)})")
    print(f"  error_rate = {record['error_rate']:.6g} ratio")
    print(f"  outputs_identical = {json.dumps(record['outputs_identical'])}")
    for e in checker.errors:
        print(f"  ERROR {e}")
    print("  manifest " + json.dumps(record["manifest"], sort_keys=True))
    return result


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks metric names and coverage."""
    problems = []
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: incorrect")
            if set(result["metrics"]) != set(metric_units(trace)):
                problems.append(f"{name} trace {trace}: metric names differ")
            if trace and name == "recover-p50":
                cov = result["metrics"]["trace.coverage_pct"]["value"]
                if cov < MIN_COVERAGE_PCT:
                    problems.append(f"traced spans cover only {cov:.1f}% of trial time")
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, self-checks")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running CLI launch is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        require_checkout()
        if args.smoke:
            return smoke()
        seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        ok = True
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace)
            ok = ok and result["correct"]
            print(json.dumps(result))
        return 0 if ok else 1
    except (CheckoutError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the maxent-markov CLI: three workloads, each invocation in a fresh interpreter.

Usage (from the repository root):

    python3 perfbench/run.py --workload backtest-ternary --seed 1 --seconds 40 --trace 0

The seed makes the workload's inputs.  The run then starts one CLI
invocation after another, each a new ``python3 perfbench/child.py``
process, until ``--seconds`` have passed, and checks every invocation's
artifacts.  With ``--trace 0`` it reports the median end-to-end metrics
(run_s, setup_s, cpu_s, peak_rss_mb); with ``--trace 1`` it alternates
untraced and traced invocations and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  Human-readable lines come
first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
WORK_ROOT = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0
MIN_INVOCATIONS = 3

E2E_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# (metric, span, statistic, unit); statistic is calls, errors, self_s or total_s.
SPAN_METRICS = [
    ("solver.maxent_nstate.calls", "solver.maxent_nstate", "calls", "count"),
    ("solver.maxent_nstate.self_s", "solver.maxent_nstate", "self_s", "s"),
    ("solver.maxent_nstate.errors", "solver.maxent_nstate", "errors", "count"),
    ("solver.maxent_table.total_s", "solver.maxent_table", "total_s", "s"),
    ("forecast.step_distribution.calls", "forecast.step_distribution", "calls", "count"),
    ("forecast.step_distribution.self_s", "forecast.step_distribution", "self_s", "s"),
    ("forecast.tail_bins.calls", "forecast.tail_bins", "calls", "count"),
    ("forecast.tail_bins.self_s", "forecast.tail_bins", "self_s", "s"),
    ("forecast.backtest.self_s", "forecast.backtest", "self_s", "s"),
    ("estimators.maxent_estimate.calls", "estimators.maxent_estimate", "calls", "count"),
    ("estimators.maxent_estimate.self_s", "estimators.maxent_estimate", "self_s", "s"),
    ("estimators.frequency_estimate.calls", "estimators.frequency_estimate", "calls", "count"),
    ("estimators.frequency_estimate.self_s", "estimators.frequency_estimate", "self_s", "s"),
    ("ingest.load_states.self_s", "ingest.load_states", "self_s", "s"),
    ("ingest.load_prices.self_s", "ingest.load_prices", "self_s", "s"),
    ("ingest.discretize.self_s", "ingest.discretize", "self_s", "s"),
    ("estimators.sliding_window.self_s", "estimators.sliding_window", "self_s", "s"),
    ("chains.simulate_batch.calls", "chains.simulate_batch", "calls", "count"),
    ("chains.simulate_batch.self_s", "chains.simulate_batch", "self_s", "s"),
    ("accuracy.mu_curve.self_s", "accuracy.mu_curve", "self_s", "s"),
    ("nonstationary.generate_time_varying.self_s", "nonstationary.generate_time_varying", "self_s", "s"),
    ("nonstationary.tracking_experiment.self_s", "nonstationary.tracking_experiment", "self_s", "s"),
    ("chains.StochasticMatrix.constructions", "chains.StochasticMatrix", "calls", "count"),
    ("chains.StochasticMatrix.self_s", "chains.StochasticMatrix", "self_s", "s"),
    ("chains.stationary_distribution.calls", "chains.stationary_distribution", "calls", "count"),
    ("chains.stationary_distribution.self_s", "chains.stationary_distribution", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]
RATIO_METRICS = {
    "solver.maxent_nstate.distinct_frac": "ratio",
    "estimators.frequency_estimate.filled_row_frac": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _threads() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cap = str(_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def _invoke(job, trace_path, timeout: float) -> dict:
    """Run one invocation in a fresh interpreter; return its measurements."""
    for artifact in job.artifacts:
        artifact.unlink(missing_ok=True)
    spec = json.dumps({"commands": job.commands, "trace": str(trace_path) if trace_path else None})
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), spec],
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawned
    record["output_bytes"] = sum(a.stat().st_size for a in job.artifacts)
    return record


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(summaries, traced, overheads) -> dict:
    """Per-layer metrics: medians over the traced invocations."""

    def stat(summary, span, key):
        return summary["layers"].get(span, {}).get(key, 0)

    values = {
        metric: statistics.median([stat(s, span, key) for s in summaries])
        for metric, span, key, _ in SPAN_METRICS
    }
    values["solver.maxent_nstate.distinct_frac"] = statistics.median(
        [_share(s["solver_distinct_keys"], stat(s, "solver.maxent_nstate", "calls")) for s in summaries]
    )
    values["estimators.frequency_estimate.filled_row_frac"] = statistics.median(
        [_share(s["filled_rows"], s["estimated_rows"]) for s in summaries]
    )
    values["cli.output_bytes"] = statistics.median([r["output_bytes"] for r in traced])
    values["trace.overhead_frac"] = statistics.median(overheads)
    units = {m: unit for m, _, _, unit in SPAN_METRICS} | RATIO_METRICS
    return {m: {"value": values[m], "unit": units[m]} for m in units}


def _context(references: dict, job) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "src_lines": src_lines,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _threads(),
        "reference_seed": str(job.seed) in references.get(job.workload, {}),
    }


def run(args) -> int:
    from tracer import summarize
    from workloads import CheckError, check, load_references, observe, prepare

    started = time.monotonic()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        job = prepare(args.workload, work, args.seed)
        references = load_references()
        measuring = time.monotonic()
        untraced, traced, summaries = [], [], []
        # traced run_s / untraced run_s - 1 of each traced invocation and the
        # untraced one just before it, so that slow drift of the host cancels.
        overheads = []
        previous = None
        attempted = failed = 0
        last = 0.0
        while True:
            now = time.monotonic()
            elapsed = now - started
            enough = attempted >= (2 if args.trace else MIN_INVOCATIONS)
            # Start no invocation that would likely end after --seconds.
            if (enough and now - measuring + last > args.seconds) or elapsed + 1.5 * last > RUN_LIMIT_S:
                break
            use_trace = bool(args.trace) and attempted % 2 == 1
            trace_path = work / "spans.npz" if use_trace else None
            attempted += 1
            t0 = time.monotonic()
            try:
                record = _invoke(job, trace_path, timeout=max(5.0, RUN_LIMIT_S - elapsed))
                fails = check(job, observe(job), references)
                if use_trace:
                    summaries.append(summarize(trace_path))
            except (RuntimeError, CheckError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
                fails = [f"{type(exc).__name__}: {exc}"]
            last = time.monotonic() - t0
            if fails:
                failed += 1
                previous = None
                print(f"invocation {attempted} failed: " + "; ".join(fails[:5]), file=sys.stderr)
                continue
            if use_trace:
                traced.append(record)
                if previous is not None:
                    overheads.append(record["run_s"] / previous["run_s"] - 1.0)
                previous = None
            else:
                untraced.append(record)
                previous = record

        print("context " + json.dumps(_context(references, job)))
        print(
            f"workload {args.workload} seed {args.seed} trace {args.trace}: "
            f"{attempted} invocations, {failed} failed"
        )
        print(f"fail_frac = {failed / attempted!r} ratio ({failed}/{attempted})")
        metrics = {}
        if not args.trace:
            for name, unit in E2E_UNITS.items():
                values = [r[name] for r in untraced]
                if values:
                    metrics[name] = {"value": statistics.median(values), "unit": unit}
                    q1, _, q3 = _quartiles(values)
                    print(f"{name} = {metrics[name]['value']!r} {unit} "
                          f"(median of {len(values)}, quartiles {q1!r} .. {q3!r})")
        elif overheads:
            metrics = _layer_metrics(summaries, traced, overheads)
            for name, m in metrics.items():
                print(f"{name} = {m['value']!r} {m['unit']}")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def main(argv=None) -> int:
    if not (SRC / "maxent_markov" / "cli.py").is_file():
        print(f"error: no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

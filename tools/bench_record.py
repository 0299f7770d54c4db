"""Record a BENCH_<pr>.json: the benchmark's end-to-end numbers for a parent and a change checkout.

Usage (from the repository root, with the parent commit checked out elsewhere):

    python3 tools/bench_record.py --pr <pr> --seed <seed> ../parent .

For every workload that the change side's ``BENCHMARK.json`` declares, the
script runs ``<checkout>/perfbench/run.py --trace 0`` for that file's
``run_seconds``, once per side in each of ten rounds, one run at a time,
alternating which side goes first from round to round.
It keeps the medians and quartiles that ``run.py`` prints, its
``failed`` / ``attempted`` counts and its context line (which holds the
``src/`` line count), and writes ``BENCH_<pr>.json`` into the current
directory.  Under ``lower_in`` it records, per workload and metric, the
number of rounds whose change median is below the parent's; under
``ratio`` the median over rounds of the change median divided by the
parent's; and under ``shift`` the change of the median over rounds
(change minus parent, in the metric's unit) next to the interquartile
range of the parent's round medians.  A gain counts when the change is
lower in at least 9 of 10 rounds and its median is lower by more than
that range.  It prints all of them in one summary line per workload, then
one line per side with its ``src/`` line count and its failed / attempted
invocations over all runs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

# Alternating parent/change pairs per workload; a gain counts only if most pairs show it.
ROUNDS = 10

# "run_s = 0.0571 s (median of 312, quartiles 0.0552 .. 0.0598)", as run.py prints it
METRIC_LINE = re.compile(
    r"^(?P<name>\w+) = (?P<median>\S+) (?P<unit>\S+) "
    r"\(median of (?P<n>\d+), quartiles (?P<q1>\S+) \.\. (?P<q3>\S+)\)$"
)


def parse_run(stdout: str) -> dict:
    """The context, end-to-end metrics and failure counts of one ``run.py --trace 0`` output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    record = {"attempted": result["attempted"], "failed": result["failed"], "metrics": {}}
    for line in lines[:-1]:
        if line.startswith("context "):
            record["context"] = json.loads(line[len("context "):])
        elif match := METRIC_LINE.match(line):
            record["metrics"][match["name"]] = {
                "median": float(match["median"]),
                "q1": float(match["q1"]),
                "q3": float(match["q3"]),
                "n": int(match["n"]),
                "unit": match["unit"],
            }
    missing = set(result["metrics"]) - set(record["metrics"])
    if missing or "context" not in record:
        raise ValueError(f"unparsed run.py output (missing {sorted(missing) or 'context'})")
    return record


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def revision(checkout: Path) -> str | None:
    """The checkout's abbreviated commit, suffixed ``-dirty`` if tracked files changed; None outside git."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--exclude=*"],
        cwd=checkout, capture_output=True, text=True,
    )
    return proc.stdout.strip() or None


def lower_in(record: dict) -> dict[str, dict[str, int]]:
    """Per workload and metric: the rounds whose change median is below the parent's."""
    parent, change = (record["sides"][name]["workloads"] for name in ("parent", "change"))
    counts = {}
    for workload, runs in change.items():
        pairs = list(zip(parent[workload], runs))
        counts[workload] = {
            metric: sum(c["metrics"][metric]["median"] < p["metrics"][metric]["median"] for p, c in pairs)
            for metric in runs[0]["metrics"]
        }
    return counts


def ratio(record: dict) -> dict[str, dict[str, float]]:
    """Per workload and metric: the median over rounds of the change median divided by the parent's."""
    parent, change = (record["sides"][name]["workloads"] for name in ("parent", "change"))
    return {
        workload: {
            metric: statistics.median(
                c["metrics"][metric]["median"] / p["metrics"][metric]["median"]
                for p, c in zip(parent[workload], runs)
            )
            for metric in runs[0]["metrics"]
        }
        for workload, runs in change.items()
    }


def shift(record: dict) -> dict[str, dict[str, dict[str, float]]]:
    """Per workload and metric: the median over rounds, change minus parent, and the parent's IQR over rounds."""
    parent, change = (record["sides"][name]["workloads"] for name in ("parent", "change"))
    out = {}
    for workload, runs in change.items():
        out[workload] = {}
        for metric in runs[0]["metrics"]:
            before, after = ([r["metrics"][metric]["median"] for r in side] for side in (parent[workload], runs))
            q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
            out[workload][metric] = {"change": statistics.median(after) - statistics.median(before), "parent_iqr": q3 - q1}
    return out


def summary(record: dict) -> list[str]:
    """One line per workload: per metric, the rounds in which the change is lower, its ratio, shift and parent IQR."""
    lines = []
    for workload, counts in record["lower_in"].items():
        runs = record["sides"]["change"]["workloads"][workload]
        parts = []
        for metric, n in counts.items():
            unit, moved = runs[0]["metrics"][metric]["unit"], record["shift"][workload][metric]
            parts.append(
                f"{metric} {n}/{len(runs)} (x{record['ratio'][workload][metric]:.3f}, "
                f"{moved['change']:+.4g} {unit}, parent IQR {moved['parent_iqr']:.4g} {unit})"
            )
        lines.append(f"{workload}: change lower in {', '.join(parts)}")
    return lines


def side_totals(record: dict) -> list[str]:
    """One line per side: its ``src/`` line count and its failed / attempted invocations over all runs."""
    lines = []
    for name, side in record["sides"].items():
        runs = [run for workload in side["workloads"].values() for run in workload]
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        lines.append(f"{name}: src_lines {side['src_lines']}, {failed}/{attempted} invocations failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {
        "pr": args.pr,
        "seed": args.seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "sides": {name: {"revision": revision(path), "workloads": {}} for name, path in sides.items()},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for round_no in range(ROUNDS):
            for name in ("parent", "change") if round_no % 2 == 0 else ("change", "parent"):
                run = run_once(sides[name], workload, args.seed, seconds)
                side = record["sides"][name]
                side["src_lines"] = run["context"]["src_lines"]
                side["workloads"].setdefault(workload, []).append(run)
                print(f"{workload} round {round_no + 1} {name}: "
                      f"run_s {run['metrics']['run_s']['median']:.4f} s, "
                      f"{run['failed']}/{run['attempted']} failed", flush=True)
    record["lower_in"] = lower_in(record)
    record["ratio"] = ratio(record)
    record["shift"] = shift(record)
    for line in summary(record) + side_totals(record):
        print(line)
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs that the benchmark's exactness checks compare with.

Usage (from the repository root):

    python3 perfbench/make_reference.py

Runs every workload in-process through ``maxent_markov.cli.main`` at seeds
0 .. REFERENCE_SEEDS-1, requires every other output check to pass there,
and writes the deltas, MAEs and mu fractions to ``perfbench/reference.json``.  For
mucurve-ternary it also records the non-stratified (full population)
curve, which stratum 5 must equal.  Rerun only when a change is meant to
move these numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from maxent_markov.cli import main as cli_main  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_PATH,
    WORKLOADS,
    check,
    observe,
    prepare,
    read_columns,
)

# The benchmark's runs use seeds below this, so their exactness checks apply.
REFERENCE_SEEDS = 64


def _run(argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited with {code}")


def _reference(job, obs: dict, work: Path) -> dict:
    if job.workload == "backtest-ternary":
        return {"delta": obs["delta"]}
    if job.workload == "track-binary":
        return {"mae": obs["mae"]}
    full_csv = work / "full.csv"
    argv = [a for a in job.commands[0] if a != "--stratify"]
    argv[argv.index("--output") + 1] = str(full_csv)
    _run(argv)
    _, cols = read_columns(full_csv, ["stratum", "n", "mu"])
    return {"strata": obs["strata"], "full": [float(v) for v in cols["mu"]]}


def main() -> int:
    references = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS:
            references[workload] = {}
            for seed in range(REFERENCE_SEEDS):
                work = Path(tmp) / f"{workload}-{seed}"
                job = prepare(workload, work, seed)
                for argv in job.commands:
                    _run(argv)
                obs = observe(job)
                fails = check(job, obs, {})
                if fails:
                    print(f"{workload} seed {seed}: " + "; ".join(fails), file=sys.stderr)
                    return 1
                references[workload][str(seed)] = _reference(job, obs, work)
                print(f"{workload} seed {seed} recorded", flush=True)
    REFERENCE_PATH.write_text(_format(references))
    return 0


def _format(references: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for workload, seeds in references.items():
        lines = [f"  {json.dumps(seed)}: {json.dumps(ref)}" for seed, ref in seeds.items()]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())

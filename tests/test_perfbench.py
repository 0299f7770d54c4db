"""The benchmark runner, run as the benchmark declares it (read-only use of ``perfbench/``).

``run.py`` imports the package itself to prepare inputs, so anything the
package printed at exit, or through a logger, would land after the result
line that the benchmark reads as the last line of stdout.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((ROOT / "perfbench" / "reference.json").read_text())
REFERENCE_SEED = 2


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_a_short_run_ends_with_its_correct_result(workload):
    assert str(REFERENCE_SEED) in REFERENCES[workload]  # so the artifacts are checked against references
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", str(REFERENCE_SEED), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert not re.search(r"invocation \d+ failed", proc.stderr), proc.stderr

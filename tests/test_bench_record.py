"""tools/bench_record.py reads what perfbench/run.py prints."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_parses_a_real_run():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "track-binary",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = bench_record.parse_run(proc.stdout)
    assert record["failed"] == 0 and record["attempted"] >= 3
    assert set(record["metrics"]) == {"run_s", "setup_s", "cpu_s", "peak_rss_mb"}
    for m in record["metrics"].values():
        assert m["q1"] <= m["median"] <= m["q3"] and m["n"] == record["attempted"]
    assert isinstance(record["context"]["src_lines"], int)


def test_rejects_output_without_the_metric_lines():
    stdout = 'context {"src_lines": 1}\n{"attempted": 3, "failed": 0, "metrics": {"run_s": {}}}\n'
    with pytest.raises(ValueError, match="run_s"):
        bench_record.parse_run(stdout)


def test_revision_marks_a_changed_tree_dirty(tmp_path):
    assert bench_record.revision(tmp_path) is None
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    (tmp_path / "f").write_text("a\n")
    for cmd in (["init", "-q"], ["add", "f"], ["commit", "-q", "-m", "f"]):
        subprocess.run(git + cmd, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout
    clean = bench_record.revision(tmp_path)
    assert clean and head.startswith(clean)
    (tmp_path / "f").write_text("b\n")
    assert bench_record.revision(tmp_path) == clean + "-dirty"


def test_lower_in_counts_rounds_where_the_change_median_is_lower():
    def run(run_s, rss):
        return {"metrics": {"run_s": {"median": run_s}, "peak_rss_mb": {"median": rss}}}

    record = {"sides": {
        "parent": {"workloads": {"w": [run(1.0, 40.0), run(2.0, 40.0), run(3.0, 40.0)]}},
        "change": {"workloads": {"w": [run(0.5, 40.0), run(2.0, 39.0), run(1.0, 41.0)]}},
    }}
    # a tie is not lower; rounds pair by position, not by value
    assert bench_record.lower_in(record) == {"w": {"run_s": 2, "peak_rss_mb": 1}}


def test_ratio_is_the_median_over_rounds_of_change_over_parent():
    def run(run_s, rss):
        return {"metrics": {"run_s": {"median": run_s}, "peak_rss_mb": {"median": rss}}}

    record = {"sides": {
        "parent": {"workloads": {"w": [run(1.0, 40.0), run(2.0, 40.0), run(4.0, 40.0)]}},
        "change": {"workloads": {"w": [run(0.5, 40.0), run(3.0, 30.0), run(1.0, 50.0)]}},
    }}
    # per-round quotients 0.5, 1.5, 0.25: their median, not the quotient of the medians (2/2 = 1)
    assert bench_record.ratio(record) == {"w": {"run_s": 0.5, "peak_rss_mb": 1.0}}


def test_side_totals_give_src_lines_and_failures_over_all_runs():
    def run(failed, attempted):
        return {"failed": failed, "attempted": attempted}

    record = {"sides": {
        "parent": {"src_lines": 2429, "workloads": {"a": [run(0, 90), run(1, 88)], "b": [run(0, 40)]}},
        "change": {"src_lines": 2425, "workloads": {"a": [run(0, 91), run(0, 89)], "b": [run(2, 41)]}},
    }}
    assert bench_record.side_totals(record) == [
        "parent: src_lines 2429, 1/218 invocations failed",
        "change: src_lines 2425, 2/221 invocations failed",
    ]


def test_shift_is_the_change_of_the_round_median_next_to_the_parent_iqr():
    def run(run_s):
        return {"metrics": {"run_s": {"median": run_s, "unit": "s"}}}

    record = {"sides": {
        "parent": {"workloads": {"w": [run(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]}},
        "change": {"workloads": {"w": [run(v) for v in (0.5, 1.0, 1.5, 2.0, 9.0)]}},
    }}
    # medians 3.0 -> 1.5; the parent's round medians have quartiles 2.0 and 4.0
    assert bench_record.shift(record) == {"w": {"run_s": {"change": -1.5, "parent_iqr": 2.0}}}


def test_summary_reads_the_gate_off_one_line_per_workload():
    def run(run_s, rss):
        return {"metrics": {"run_s": {"median": run_s, "unit": "s"}, "peak_rss_mb": {"median": rss, "unit": "MB"}}}

    record = {"sides": {
        "parent": {"workloads": {"w": [run(0.2, 40.0), run(0.3, 40.0), run(0.4, 41.0)]}},
        "change": {"workloads": {"w": [run(0.1, 41.5), run(0.2, 41.0), run(0.2, 42.0)]}},
    }}
    for key in ("lower_in", "ratio", "shift"):
        record[key] = getattr(bench_record, key)(record)
    assert bench_record.summary(record) == [
        "w: change lower in run_s 3/3 (x0.500, -0.1 s, parent IQR 0.1 s), "
        "peak_rss_mb 0/3 (x1.025, +1.5 MB, parent IQR 0.5 MB)"
    ]

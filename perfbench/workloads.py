"""Workload inputs, CLI command lines and output checks.

Each workload turns a seed into input files and the CLI argument lists of
one invocation (``prepare``), reads the artifacts an invocation wrote
(``observe``) and checks them (``check``).  Checks compare with the
reference values in ``reference.json`` only at the seeds recorded there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from maxent_markov import (
    StateSpace,
    autocorrelation_cycle,
    generate_time_varying,
    toy_matrix,
    write_states,
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")
EXACT_RTOL = 1e-12

# backtest-ternary: a path of the criterion-7 process.  Criterion 7 claims
# maxent < naive for a ten-path mean; on one path the ordering reverses at
# n = 10 for some seeds at any length tried (10k to 30k steps), so it is
# checked from n = 20 on (see NOTES.md).
BT_LENGTH = 20_000
ORDER_MIN_N = 20
BT_SIZES = (10, 20, 30, 40)
BT_HORIZON = 8
BT_STRIDE = 25
BT_METHODS = ("maxent", "sampling", "naive")
PRICE_STEP = 0.01
START_PRICE = 100.0
START_EPOCH = 1_600_000_000
TICK_SECONDS = 60

TRACK_LENGTH = 5000
TRACK_PERIOD = 500
TRACK_WINDOW = 50
TRACK_SAMPLES = 20

MU_SIZES = (10, 20, 30, 40, 50)
# 128 matrices keep one invocation near the other workloads' ~5 s, so a
# 40 s run still holds six or more; the table build dominates at any size.
MU_SAMPLES = 128
MU_REPLICATES = 200
MU_STRATA = (1, 2, 3, 4, 5)


class CheckError(ValueError):
    """An artifact is missing or malformed."""


@dataclass
class Job:
    """Inputs of one workload at one seed, shared by all its invocations."""

    workload: str
    seed: int
    commands: list[list[str]]
    artifacts: list[Path]
    expected: dict = field(default_factory=dict)


def read_columns(path: Path, expected_header: list[str]) -> tuple[dict, dict[str, list[str]]]:
    """Metadata line and columns of a CLI CSV artifact, read as written."""
    if not path.is_file():
        raise CheckError(f"{path.name} was not written")
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0][2:]) if lines and lines[0].startswith("# ") else {}
    body = [line.split(",") for line in lines if line and not line.startswith("#")]
    if not body or body[0] != expected_header:
        raise CheckError(f"{path.name}: header {body[:1]}, expected {expected_header}")
    if any(len(row) != len(expected_header) for row in body[1:]):
        raise CheckError(f"{path.name}: ragged rows")
    return meta, {name: [row[i] for row in body[1:]] for i, name in enumerate(expected_header)}


def _close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * abs(b)


# --- backtest-ternary -------------------------------------------------------


def _prepare_backtest(work: Path, seed: int) -> Job:
    states = StateSpace.ternary()
    process = autocorrelation_cycle(states, period=500, amplitude=0.4)
    series = generate_time_varying(process, BT_LENGTH, seed=seed)
    values = series.values(states)
    state_csv = work / "states.csv"
    write_states(state_csv, series, states)
    price_csv = work / "prices.csv"
    price = START_PRICE
    lines = ["timestamp,price", f"{START_EPOCH},{price!r}"]
    for t, v in enumerate(values.tolist(), start=1):
        price = price * (1.0 + PRICE_STEP * v)
        lines.append(f"{START_EPOCH + TICK_SECONDS * t},{price!r}")
    price_csv.write_text("\n".join(lines) + "\n")
    discretized = work / "discretized.csv"
    report = work / "backtest.csv"
    commands = [
        ["discretize", "--input", str(price_csv), "--output", str(discretized)],
        [
            "backtest", "--input", str(state_csv),
            "--n", ",".join(map(str, BT_SIZES)),
            "--horizon", str(BT_HORIZON), "--stride", str(BT_STRIDE),
            "--output", str(report),
        ],
    ]
    return Job("backtest-ternary", seed, commands, [discretized, report], {"path": values})


def _observe_backtest(job: Job) -> dict:
    # The discretize artifact starts with its '# {...}' metadata line, which
    # load_states rejects; it is read here for the check only.
    _, disc = read_columns(job.artifacts[0], ["timestamp", "state"])
    _, cols = read_columns(job.artifacts[1], ["n", "method", "delta", "origins"])
    delta = {m: {} for m in BT_METHODS}
    origins = {}
    for n, m, d, o in zip(cols["n"], cols["method"], cols["delta"], cols["origins"]):
        if m not in delta:
            raise CheckError(f"backtest.csv: unknown method {m!r}")
        delta[m][int(n)] = float(d)
        origins[int(n)] = int(o)
    return {
        "path": np.array([float(v) for v in disc["state"]]),
        "delta": {m: [delta[m].get(n, math.nan) for n in BT_SIZES] for m in BT_METHODS},
        "origins": [origins.get(n, -1) for n in BT_SIZES],
    }


def _check_backtest(job: Job, obs: dict, ref: dict | None) -> list[str]:
    fails = []
    path = job.expected["path"]
    if obs["path"].shape != path.shape or not np.array_equal(obs["path"], path):
        fails.append("discretized path differs from the generated path")
    for i, n in enumerate(BT_SIZES):
        want = len(range(n - 1, BT_LENGTH - BT_HORIZON, BT_STRIDE))
        if obs["origins"][i] != want:
            fails.append(f"n={n}: {obs['origins'][i]} origins, expected {want}")
        row = {m: obs["delta"][m][i] for m in BT_METHODS}
        if not all(math.isfinite(d) for d in row.values()):
            fails.append(f"n={n}: non-finite delta {row}")
        elif n >= ORDER_MIN_N and not row["maxent"] < row["naive"]:
            fails.append(f"n={n}: maxent delta {row['maxent']} not below naive {row['naive']}")
        if ref is not None:
            for m in BT_METHODS:
                if not _close(row[m], ref["delta"][m][i]):
                    fails.append(f"n={n} {m}: delta {row[m]!r} != reference {ref['delta'][m][i]!r}")
    return fails


# --- track-binary -----------------------------------------------------------


def _prepare_track(work: Path, seed: int) -> Job:
    out = work / "track.csv"
    command = [
        "track", "--length", str(TRACK_LENGTH), "--period", str(TRACK_PERIOD),
        "--window", str(TRACK_WINDOW), "--samples", str(TRACK_SAMPLES),
        "--seed", str(seed), "--output", str(out),
    ]
    times = np.arange(TRACK_WINDOW - 1, TRACK_LENGTH)
    truth = np.array([toy_matrix(int(t), TRACK_PERIOD).entries[0, 0] for t in times])
    return Job("track-binary", seed, [command], [out], {"times": times, "truth": truth})


def _observe_track(job: Job) -> dict:
    meta, cols = read_columns(job.artifacts[0], ["t", "true_stay_down", "maxent", "sampling"])
    return {
        "times": np.array([int(t) for t in cols["t"]]),
        "truth": np.array([float(v) for v in cols["true_stay_down"]]),
        "mae": {m: float(meta.get(f"mae_{m}", math.nan)) for m in ("maxent", "sampling")},
    }


def _check_track(job: Job, obs: dict, ref: dict | None) -> list[str]:
    fails = []
    rows = TRACK_LENGTH - TRACK_WINDOW + 1
    if obs["times"].size != rows:
        fails.append(f"{obs['times'].size} rows, expected {rows}")
    elif not np.array_equal(obs["times"], job.expected["times"]):
        fails.append("t column is not the window end positions")
    elif not np.array_equal(obs["truth"], job.expected["truth"]):
        fails.append("true_stay_down differs from toy_matrix")
    if ref is not None:
        for m, want in ref["mae"].items():
            if not _close(obs["mae"][m], want):
                fails.append(f"mae_{m} {obs['mae'][m]!r} != reference {want!r}")
    return fails


# --- mucurve-ternary --------------------------------------------------------


def _prepare_mucurve(work: Path, seed: int) -> Job:
    out = work / "mucurve.csv"
    command = [
        "mucurve", "--k", "3", "--n", ",".join(map(str, MU_SIZES)), "--stratify",
        "--replicates", str(MU_REPLICATES), "--workers", "1",
        "--samples", str(MU_SAMPLES), "--seed", str(seed), "--output", str(out),
    ]
    return Job("mucurve-ternary", seed, [command], [out])


def _observe_mucurve(job: Job) -> dict:
    _, cols = read_columns(job.artifacts[0], ["stratum", "n", "mu"])
    table = {}
    for q, n, mu in zip(cols["stratum"], cols["n"], cols["mu"]):
        table[(int(q), int(n))] = float(mu)
    return {
        "strata": {str(q): [table.get((q, n), math.nan) for n in MU_SIZES] for q in MU_STRATA},
        "extra_rows": len(table) - len(MU_STRATA) * len(MU_SIZES),
    }


def _check_mucurve(job: Job, obs: dict, ref: dict | None) -> list[str]:
    fails = []
    if obs["extra_rows"]:
        fails.append("rows outside strata 1..5 x the requested sizes")
    tol = 1.0 / MU_SAMPLES
    for q, fractions in obs["strata"].items():
        if not all(0.0 <= f <= 1.0 for f in fractions):
            fails.append(f"stratum {q}: fraction outside [0, 1]: {fractions}")
        elif any(b > a for a, b in zip(fractions, fractions[1:])):
            fails.append(f"stratum {q}: fractions increase with n: {fractions}")
        if ref is not None and any(abs(f - r) > tol for f, r in zip(fractions, ref["strata"][q])):
            fails.append(f"stratum {q}: {fractions} differs from reference {ref['strata'][q]}")
    full = obs["strata"]["5"]
    counts = [f * MU_SAMPLES for f in full]
    if not all(abs(c - round(c)) < 1e-9 for c in counts):
        fails.append(f"stratum 5 fractions {full} are not shares of all {MU_SAMPLES} matrices")
    if ref is not None and any(abs(f - r) > tol for f, r in zip(full, ref["full"])):
        fails.append(f"stratum 5 {full} differs from the full population {ref['full']}")
    return fails


WORKLOADS = {
    "backtest-ternary": (_prepare_backtest, _observe_backtest, _check_backtest),
    "mucurve-ternary": (_prepare_mucurve, _observe_mucurve, _check_mucurve),
    "track-binary": (_prepare_track, _observe_track, _check_track),
}


def prepare(workload: str, work: Path, seed: int) -> Job:
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload][0](work, seed)


def observe(job: Job) -> dict:
    return WORKLOADS[job.workload][1](job)


def check(job: Job, obs: dict, references: dict) -> list[str]:
    ref = references.get(job.workload, {}).get(str(job.seed))
    return WORKLOADS[job.workload][2](job, obs, ref)


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}

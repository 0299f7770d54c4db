"""Time-varying chain generators and window-tracking experiments.

A smoothly drifting transition matrix is approximated locally in time by a
stationary chain estimated from a short trailing window.  This module
provides the oscillating two-state toy process used for the tracking
comparison, a generic generator for any time-varying matrix (including a
three-state family whose autocorrelation swings sinusoidally), and the
experiment that scores how well each window estimator follows the true
coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chains import (
    Distribution,
    StateSequence,
    StateSpace,
    StochasticMatrix,
    _stochastic_rows,
    _walk,
    stationary_distribution,
)
from .estimators import maxent_entries, transition_frequencies
from .solver import _maxent_batch, feasible_range

TRACKING_METHODS = ("maxent", "sampling")
# (seed, step) cells walked per block: bounds the rows and uniforms held at once.  Interleaved
# medians of the 20 x 5,000 walk: 6.8 ms at 8,192 cells, 7.8 ms at 32,768, 8.3 ms at 65,536.
_BLOCK_CELLS = 8192


@dataclass(frozen=True)
class TimeVaryingMatrix:
    """A transition matrix indexed by integer time.

    ``table`` maps an array of ``T`` times to their entries, shape
    ``(T, K, K)``; ``entries`` checks them as ``StochasticMatrix`` does.
    """

    table: Callable[[np.ndarray], np.ndarray]
    states: StateSpace

    def entries(self, times) -> np.ndarray:
        times = np.asarray(times)
        return _stochastic_rows(self.table(times), (times.size,) + (self.states.size,) * 2)

    def at(self, t: int) -> StochasticMatrix:
        return StochasticMatrix(self.entries([t])[0], self.states)


@dataclass(frozen=True)
class TrackingReport:
    """Window estimates of the low-state stay probability against the truth.

    Traces are aligned on ``times`` (window end positions); estimate
    traces and mean absolute errors are averaged over seeds, with the
    per-seed errors kept for significance checks.
    """

    times: np.ndarray
    true_coefficient: np.ndarray
    estimates: dict[str, np.ndarray]
    mae: dict[str, float]
    per_seed_mae: dict[str, np.ndarray]


def _toy_entries(times: np.ndarray, period: float) -> np.ndarray:
    if not 0.0 < period < math.inf:  # also false for NaN
        raise ValueError(f"period must be a positive finite number, got {period!r}")
    t = np.asarray(times, dtype=float)
    stay_down = 0.6 + 0.1 * np.sin(2.0 * np.pi * t / period)
    stay_up = 0.6 + 0.1 * np.sin(2.0 * np.pi * t / (1.2 * period))
    return np.stack([stay_down, 1.0 - stay_down, 1.0 - stay_up, stay_up], axis=-1).reshape(-1, 2, 2)


def toy_matrix(t: float, period: float) -> StochasticMatrix:
    """Two-state matrix whose rows oscillate out of phase.

    The low-state row follows ``0.6 + 0.1 sin(2 pi t / period)`` and the
    high-state row ``0.6 + 0.1 sin(2 pi t / (1.2 period))`` on the
    diagonal, so all entries stay inside [0.3, 0.7] and rows sum to one
    exactly.
    """
    return StochasticMatrix(_toy_entries([t], period)[0], StateSpace.binary())


def toy_process(period: float) -> TimeVaryingMatrix:
    return TimeVaryingMatrix(lambda times: _toy_entries(times, period), StateSpace.binary())


def autocorrelation_cycle(
    states: StateSpace,
    period: float,
    amplitude: float,
    center: float = 0.0,
) -> TimeVaryingMatrix:
    """Detailed-balance matrices whose autocorrelation swings sinusoidally.

    At every time the matrix is the maximum-entropy chain with
    autocorrelation ``center + amplitude * sin(2 pi t / period)``; the
    swing must stay strictly inside the feasible range.  Used to build
    synthetic slowly-varying corpora for backtests.  With an integer
    period each phase is solved once, when first requested; otherwise the
    phase never repeats and every requested time is solved afresh.
    """
    bounds = feasible_range(states)
    if not (bounds.contains(center - abs(amplitude)) and bounds.contains(center + abs(amplitude))):
        raise ValueError("autocorrelation swing leaves the feasible range")
    k = states.size

    def solve(times) -> np.ndarray:
        targets = [center + amplitude * math.sin(2.0 * math.pi * t / period) for t in times]
        return _maxent_batch(states, targets)[0]

    if not float(period).is_integer():
        return TimeVaryingMatrix(lambda times: solve(times.tolist()), states)
    cycle = np.full((int(period), k, k), np.nan)  # one cycle, solved phase by phase

    def table(times: np.ndarray) -> np.ndarray:
        phases = times % int(period)
        todo = np.unique(phases[np.isnan(cycle[phases, 0, 0])])
        cycle[todo] = solve(todo.tolist())
        return cycle[phases]

    return TimeVaryingMatrix(table, states)


def _paths(
    process: TimeVaryingMatrix,
    length: int,
    seeds,
    start: Distribution | None = None,
) -> np.ndarray:
    """Paths of ``process``, one row per seed, walked together: shape ``(R, length)``.

    Row ``i`` is the path that ``generate_time_varying`` samples for
    ``seeds[i]``: each seed's generator draws the start uniform, then one
    uniform per step.  Blocks of at most ``_BLOCK_CELLS`` (seed, step)
    cells are walked at once, with their uniforms drawn per block; each
    block starts every row from the state the previous block ended in.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if length < 1:
        raise ValueError("length must be >= 1")
    if start is None:
        start = stationary_distribution(process.at(0))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    steps = max(min(_BLOCK_CELLS // len(rngs), length - 1), 1)
    paths = np.empty((len(rngs), length), dtype=np.int64)
    u = np.empty((len(rngs), steps + 1))
    u[:, 0] = [rng.random() for rng in rngs]  # later blocks start from a point mass: any u draws it
    mass = start.mass
    for a in range(0, max(length - 1, 1), steps):
        b = min(a + steps, length - 1)
        for row, rng in zip(u, rngs):
            rng.random(out=row[1 : b - a + 1])
        paths[:, a : b + 1] = _walk(process.entries(np.arange(a, b)), mass, u[:, : b - a + 1])
        mass = np.eye(process.states.size)[paths[:, b]]
    return paths


def generate_time_varying(
    process: TimeVaryingMatrix,
    length: int,
    seed: int,
    start: Distribution | None = None,
) -> StateSequence:
    """Sample a path whose step at time ``t`` uses the matrix at ``t``.

    The initial state is drawn from ``start`` (default: the stationary
    distribution of the matrix at time zero, which removes the transient).
    """
    return StateSequence(_paths(process, length, [seed], start)[0], process.states.size)


def generate_nonstationary(period: float, length: int, seed: int) -> StateSequence:
    """Realization of the oscillating two-state toy process."""
    return generate_time_varying(toy_process(period), length, seed)


def tracking_experiment(
    period: float, length: int, window: int, seeds
) -> TrackingReport:
    """Score window estimators of the drifting low-state stay probability.

    Every seed's realization comes from one stacked walk; estimates at
    time ``t`` use the trailing window ending at ``t`` (causal alignment),
    equal to those ``sliding_window`` gives, and are compared with the
    instantaneous true coefficient.  Mean absolute errors are reported per
    seed and pooled.

    Only the reported coefficient is estimated.  A window of ``w`` states
    +-1 with ``s`` stays has pair sum ``2 s - (w - 1)``, so the maxent
    trace reads one closed-form solve per stay count, made once per run;
    the sampling trace needs only the low state's row, from prefix counts
    of its stays and departures.
    """
    if window < 2:
        raise ValueError("window must be >= 2 to observe transitions")
    if length <= window:
        raise ValueError("length must exceed the window")
    process = toy_process(period)
    times = np.arange(window - 1, length)
    truth = process.entries(times)[:, 0, 0]
    paths = _paths(process, length, seeds)
    lattice = maxent_entries(process.states, 2 * np.arange(window) - (window - 1), window - 1)[:, 0, 0]

    sums = {m: np.zeros(times.size) for m in TRACKING_METHODS}
    seed_mae = {m: np.empty(len(paths)) for m in TRACKING_METHODS}
    prefix = np.zeros((length, 3), dtype=np.int64)  # row t: stays, 0 -> 0 and 0 -> 1 arriving by t
    counts = np.empty((times.size, 3), dtype=np.int64)  # row i: the same inside the window ending at times[i]
    for i, path in enumerate(paths):
        prior, after = path[:-1], path[1:]
        stay = prior == after
        np.cumsum(stay, out=prefix[1:, 0])
        np.cumsum(stay & (prior == 0), out=prefix[1:, 1])
        np.cumsum(after > prior, out=prefix[1:, 2])  # on indices 0 and 1, only 0 -> 1
        np.subtract(prefix[window - 1 :], prefix[: times.size], out=counts)
        traces = {
            "maxent": lattice.take(counts[:, 0]),
            "sampling": transition_frequencies(counts[:, None, 1:])[:, 0, 0],
        }
        for method in TRACKING_METHODS:
            sums[method] += traces[method]
            seed_mae[method][i] = float(np.abs(traces[method] - truth).mean())

    estimates = {m: sums[m] / len(paths) for m in TRACKING_METHODS}
    mae = {m: float(seed_mae[m].mean()) for m in TRACKING_METHODS}
    return TrackingReport(times, truth, estimates, mae, seed_mae)

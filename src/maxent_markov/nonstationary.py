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

from .chains import Distribution, StateSequence, StateSpace, StochasticMatrix, stationary_distribution
from .estimators import sliding_window
from .solver import feasible_range, maxent_nstate

TRACKING_METHODS = ("maxent", "sampling")


@dataclass(frozen=True)
class TimeVaryingMatrix:
    """A transition matrix indexed by time, with its nominal period."""

    generator: Callable[[int], StochasticMatrix]
    period: float
    states: StateSpace

    def at(self, t: int) -> StochasticMatrix:
        return self.generator(t)


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


def toy_matrix(t: float, period: float) -> StochasticMatrix:
    """Two-state matrix whose rows oscillate out of phase.

    The low-state row follows ``0.6 + 0.1 sin(2 pi t / period)`` and the
    high-state row ``0.6 + 0.1 sin(2 pi t / (1.2 period))`` on the
    diagonal, so all entries stay inside [0.3, 0.7] and rows sum to one
    exactly.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    stay_down = 0.6 + 0.1 * math.sin(2.0 * math.pi * t / period)
    stay_up = 0.6 + 0.1 * math.sin(2.0 * math.pi * t / (1.2 * period))
    entries = np.array([[stay_down, 1.0 - stay_down], [1.0 - stay_up, stay_up]])
    return StochasticMatrix(entries, StateSpace.binary())


def toy_process(period: float) -> TimeVaryingMatrix:
    return TimeVaryingMatrix(lambda t: toy_matrix(t, period), period, StateSpace.binary())


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
    period the matrices of one cycle are cached; otherwise the phase never
    repeats and every call solves afresh.
    """
    bounds = feasible_range(states)
    if not (bounds.contains(center - abs(amplitude)) and bounds.contains(center + abs(amplitude))):
        raise ValueError("autocorrelation swing leaves the feasible range")

    def solve(t: int) -> StochasticMatrix:
        target = center + amplitude * math.sin(2.0 * math.pi * t / period)
        return maxent_nstate(states, target).matrix

    if not float(period).is_integer():
        return TimeVaryingMatrix(solve, period, states)
    cache: dict[float, StochasticMatrix] = {}

    def generator(t: int) -> StochasticMatrix:
        phase = t % period
        if phase not in cache:
            cache[phase] = solve(t)
        return cache[phase]

    return TimeVaryingMatrix(generator, period, states)


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
    if length < 1:
        raise ValueError("length must be >= 1")
    k = process.states.size
    if start is None:
        start = stationary_distribution(process.at(0))
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    path = np.empty(length, dtype=np.int64)
    state = min(int(np.searchsorted(np.cumsum(start.mass), u[0], side="right")), k - 1)
    path[0] = state
    for t in range(length - 1):
        row_cum = np.cumsum(process.at(t).entries[state])
        state = min(int(np.searchsorted(row_cum, u[t + 1], side="right")), k - 1)
        path[t + 1] = state
    return StateSequence(path, k)


def generate_nonstationary(period: float, length: int, seed: int) -> StateSequence:
    """Realization of the oscillating two-state toy process."""
    return generate_time_varying(toy_process(period), length, seed)


def tracking_experiment(
    period: float, length: int, window: int, seeds
) -> TrackingReport:
    """Score window estimators of the drifting low-state stay probability.

    For every seed a fresh realization is generated; estimates at time
    ``t`` use the trailing window ending at ``t`` (causal alignment) and
    are compared with the instantaneous true coefficient.  Mean absolute
    errors are reported per seed and pooled.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if length <= window:
        raise ValueError("length must exceed the window")
    states = StateSpace.binary()
    times = np.arange(window - 1, length)
    truth = np.array([toy_matrix(int(t), period).entries[0, 0] for t in times])

    sums = {m: np.zeros(times.size) for m in TRACKING_METHODS}
    seed_mae = {m: np.empty(len(seeds)) for m in TRACKING_METHODS}
    for i, seed in enumerate(seeds):
        series = generate_nonstationary(period, length, seed)
        for method in TRACKING_METHODS:
            estimate = sliding_window(series, window, method, states)
            trace = estimate.entries[:, 0, 0]
            sums[method] += trace
            seed_mae[method][i] = float(np.abs(trace - truth).mean())

    estimates = {m: sums[m] / len(seeds) for m in TRACKING_METHODS}
    mae = {m: float(seed_mae[m].mean()) for m in TRACKING_METHODS}
    return TrackingReport(times, truth, estimates, mae, seed_mae)

"""Transition-matrix estimators driven by observed state sequences.

Two single-shot estimators (transition-frequency counting and the
maximum-entropy fit to the sample autocorrelation) plus a sliding-window
driver that applies either of them, or a naive equiprobable guess, along a
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import StateSequence, StateSpace, StochasticMatrix
from .solver import MaxEntSolution, _binary_entries, _maxent_batch, feasible_range, maxent_2state, maxent_nstate

CLAMP_MARGIN = 1e-6

METHODS = ("maxent", "sampling", "naive")


@dataclass(frozen=True)
class SampleAutocorrelation:
    """Mean product of consecutive state values over a sample of length ``n``."""

    value: float
    n: int


@dataclass(frozen=True)
class WindowEstimate:
    """Per-time estimates from a trailing window slid along a series.

    ``times[i]`` is the 0-based index of the last observation inside the
    window that produced ``entries[i]``.
    """

    times: np.ndarray
    entries: np.ndarray  # (len(times), K, K)
    method: str
    states: StateSpace


def sample_autocorrelation(
    series: StateSequence, states: StateSpace
) -> SampleAutocorrelation:
    """Uncentered, unnormalized lag-1 autocorrelation of the value series.

    Averages ``x_t * x_(t+1)`` over the ``n - 1`` consecutive pairs of a
    length-``n`` sample.
    """
    if len(series) < 2:
        raise ValueError("need at least two observations")
    x = series.values(states)
    return SampleAutocorrelation(float((x[:-1] * x[1:]).mean()), len(series))


def transition_counts(paths: np.ndarray, k: int) -> np.ndarray:
    """Counts of i -> j transitions along each index path ``(..., n)``, shape ``(..., K, K)``."""
    lead = paths.shape[:-1]
    m = math.prod(lead)
    codes = paths[..., :-1] * k + paths[..., 1:] + (np.arange(m) * (k * k)).reshape(lead + (1,))
    return np.bincount(codes.ravel(order="K"), minlength=m * k * k).reshape(lead + (k, k)).astype(float)


def transition_frequencies(counts: np.ndarray) -> np.ndarray:
    """Counts of i -> j over departures from i, for any stack ``(..., K, K)`` of integer counts.

    Rows with no departures carry no evidence and are filled with ``1/K``.
    Departures are summed column by column: on a large stack that is over
    10x faster than ``sum(axis=-1)``, which reduces each short row on its
    own, and equal to it for integer counts (the sums are exact) and for
    any stack with ``K <= 5`` (numpy adds short rows in order).
    """
    departures = counts[..., :1] + counts[..., 1:2]
    for j in range(2, counts.shape[-1]):
        departures += counts[..., j : j + 1]
    return np.where(departures > 0, counts / np.maximum(departures, 1.0), 1.0 / counts.shape[-1])


def frequency_estimate(series: StateSequence, states: StateSpace | None = None) -> StochasticMatrix:
    """Transition frequencies, labelled ``states`` (default ``StateSpace.default``).

    Rows for states never departed from carry no evidence; they are
    filled uniformly and reported in ``filled_rows``.
    """
    if len(series) < 2:
        raise ValueError("need at least two observations")
    if states is None:
        states = StateSpace.default(series.n_states)
    if states.size != series.n_states:
        raise ValueError("state space size does not match the sequence")
    counts = transition_counts(series.indices, series.n_states)
    filled = tuple(int(i) for i in np.flatnonzero(counts.sum(axis=1) == 0))
    return StochasticMatrix(transition_frequencies(counts), states, filled_rows=filled)


def maxent_estimate(series: StateSequence, states: StateSpace) -> MaxEntSolution:
    """Maximum-entropy fit to the sample autocorrelation of a series.

    The sample value is clamped into the interior of the feasible range
    (margin 1e-6) so that degenerate windows, e.g. constant series, yield
    a near-deterministic matrix instead of an error.
    """
    sample = sample_autocorrelation(series, states)
    target = feasible_range(states).clamp(sample.value, CLAMP_MARGIN)
    if states.values == (-1.0, 1.0):
        return maxent_2state(target)
    return maxent_nstate(states, target)


def maxent_entries(states: StateSpace, pair_sums, n_pairs) -> np.ndarray:
    """Maximum-entropy matrices for a batch of windows, shape (len(pair_sums), K, K).

    Window ``i`` has sample autocorrelation ``pair_sums[i] / n_pairs`` (a
    scalar, or one pair count per window), clamped like ``maxent_estimate``.
    The distinct targets are solved once, as one batch, and their entries are
    shared by every window that has them; on integer state values the
    targets lie on a lattice, so a long series needs few solves.  Entries
    equal those of per-window ``maxent_estimate`` bit for bit.
    """
    rows, which = _maxent_rows(states, pair_sums, n_pairs)
    return rows.take(which, axis=0)  # a faster gather than rows[which] on small matrices


def _maxent_rows(states: StateSpace, pair_sums, n_pairs) -> tuple[np.ndarray, np.ndarray]:
    """The solved distinct clamped targets ``(D, K, K)`` of ``maxent_entries`` and each window's row."""
    bounds = feasible_range(states)
    targets = np.clip(
        np.asarray(pair_sums, dtype=float) / n_pairs,
        bounds.lower + CLAMP_MARGIN,
        bounds.upper - CLAMP_MARGIN,
    )
    distinct, inverse = np.unique(targets, return_inverse=True)
    if states.values == (-1.0, 1.0):
        solved = _binary_entries(distinct)
    else:
        solved = _maxent_batch(states, distinct)[0]
    return solved.reshape(-1, states.size, states.size), inverse


def _window_rows(
    series: StateSequence, states: StateSpace, method: str, ends, windows
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates from the trailing windows ending at ``ends``: ``rows`` (D, K, K) and ``which`` (len(ends),).

    The window ending at ``t`` (0-based) holds the observations
    ``t - windows + 1 .. t``; ``windows`` is one length or one per end, and
    the estimate of window ``i`` is ``rows[which[i]]``.  maxent rows are the
    solved distinct targets (one ``maxent_entries`` batch), naive has one
    row, and sampling one row per window (its matrices rarely repeat).
    Counts and pair sums are differences of cumulative sums over the
    series.  The windows overlap, so prefix sums cost O(T K^2) where
    counting each window's path with ``transition_counts`` would cost O(T w).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if states.size != series.n_states:
        raise ValueError("state space size does not match the sequence")
    if np.min(windows) < 2:
        raise ValueError("window must be >= 2 to observe transitions")
    k = states.size
    ends = np.asarray(ends, dtype=np.int64)
    if method == "naive":
        return np.full((1, k, k), 1.0 / k), np.zeros(ends.size, dtype=np.intp)
    starts = ends - windows + 1
    if method == "sampling":
        idx = series.indices
        cum = np.zeros((len(series), k * k))  # row t counts the transitions arriving by t
        cum[np.arange(1, len(series)), idx[:-1] * k + idx[1:]] = 1.0
        np.cumsum(cum, axis=0, out=cum)
        window_counts = cum.take(ends, axis=0) - cum.take(starts, axis=0)  # take: ~2x faster than cum[ends]
        return transition_frequencies(window_counts.reshape(-1, k, k)), np.arange(ends.size)
    x = series.values(states)
    cz = np.concatenate([[0.0], np.cumsum(x[:-1] * x[1:])])
    return _maxent_rows(states, cz[ends] - cz[starts], np.asarray(windows) - 1)


def _window_entries(series: StateSequence, states: StateSpace, method: str, ends, windows) -> np.ndarray:
    """The estimates of ``_window_rows``, one per window, shape (len(ends), K, K)."""
    rows, which = _window_rows(series, states, method, ends, windows)
    return rows.take(which, axis=0)


def sliding_window(
    series: StateSequence, window: int, method: str, states: StateSpace
) -> WindowEstimate:
    """Estimate a matrix from the trailing window ending at every time step.

    The estimate at time ``t`` (0-based) uses exactly the observations
    ``t - window + 1 .. t``; windows advance one step at a time.
    """
    if len(series) < window:
        raise ValueError(f"series of length {len(series)} is shorter than the window {window}")
    times = np.arange(window - 1, len(series))
    return WindowEstimate(times, _window_entries(series, states, method, times, window), method, states)

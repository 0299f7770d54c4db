"""Multi-step tail forecasting and rolling backtests.

From an estimated transition matrix, the exact distribution of the sum of
the next ``s`` discretized states is computed by dynamic programming over
(current state, partial sum).  Its ten symmetrized tail centiles (the
k-th lowest and k-th highest percent of predicted mass, aggregated) are
compared with the fraction of realizations that actually land in each
centile, giving the tail error used to rank estimators in a rolling
backtest.

Centiles of a lattice-valued distribution are built by fractional mass
splitting: boundary atoms are divided so every one-sided centile holds
exactly one percent of the predicted mass, and realized sums landing on a
split atom inherit the same fractional weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .chains import StateSequence, StateSpace, StochasticMatrix
from .estimators import frequency_estimate, maxent_entries

N_TAIL_BINS = 10
BACKTEST_METHODS = ("maxent", "sampling", "naive")
_DUST = 1e-18


@dataclass(frozen=True)
class StepDistribution:
    """Distribution of the sum of the next ``horizon`` state values.

    Support is the full integer lattice reachable in ``horizon`` steps of
    the most extreme states; atoms the matrix cannot reach carry zero
    probability.
    """

    horizon: int
    origin_state: int
    support: np.ndarray
    probabilities: np.ndarray

    @property
    def mass(self) -> dict[int, float]:
        return {int(k): float(p) for k, p in zip(self.support, self.probabilities)}

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


@dataclass(frozen=True)
class TailCentiles:
    """Symmetrized tail masses ``pi_k``, k = 1..10.

    Predicted centiles are 0.02 each by construction; realized fractions
    deviate.  ``skipped`` counts origins dropped for lack of future data
    when the values come from realizations.
    """

    pi: np.ndarray
    skipped: int = 0

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (N_TAIL_BINS,):
            raise ValueError(f"pi must have {N_TAIL_BINS} entries")
        if np.any(pi < -1e-12):
            raise ValueError("tail masses must be nonnegative")
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True)
class TailBins:
    """Fractional assignment of predicted mass to the ten tail centiles.

    ``lower[i, k]`` is the predicted mass of atom ``i`` allotted to the
    k-th lowest centile (``upper`` counts from the top); each one-sided
    centile holds exactly one percent of the predicted mass.
    """

    support: np.ndarray
    probabilities: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    target: float


@dataclass(frozen=True)
class BacktestReport:
    """Average tail errors per estimation method and window size."""

    sample_sizes: np.ndarray
    delta: dict[str, np.ndarray]
    origin_counts: np.ndarray
    horizon: int
    stride: int


def step_distribution(w: StochasticMatrix, origin: int, horizon: int) -> StepDistribution:
    """Exact ``horizon``-step sum distribution from ``origin``.

    Dynamic programming over (state, partial sum); equals the explicit
    sum over all ``K**horizon`` transition paths.  State values must be
    integers so the sums live on a lattice.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= origin < w.size:
        raise ValueError(f"origin state {origin} out of range")
    x = w.states.as_array()
    x_int = np.rint(x).astype(np.int64)
    if np.any(x_int != x):
        raise ValueError("step distributions need integer state values")

    span = int(horizon * np.abs(x_int).max())
    width = 2 * span + 1
    table = np.zeros((w.size, width))
    table[origin, span] = 1.0
    entries = w.entries
    for _ in range(horizon):
        new = np.zeros_like(table)
        arrivals = table.T @ entries  # (width, K): mass arriving at state j per sum
        for j in range(w.size):
            shift = int(x_int[j])
            if shift == 0:
                new[j] += arrivals[:, j]
            elif shift > 0:
                new[j, shift:] += arrivals[:-shift, j]
            else:
                new[j, :shift] += arrivals[-shift:, j]
        table = new
    return StepDistribution(
        horizon, origin, np.arange(-span, span + 1), table.sum(axis=0)
    )


def _split_one_side(mass: np.ndarray, order: Iterable[int], target: float) -> np.ndarray:
    """Walk atoms in ``order`` filling ten bins of exactly ``target`` each."""
    out = np.zeros((mass.size, N_TAIL_BINS))
    bin_idx = 0
    room = target
    for i in order:
        remaining = mass[i]
        while remaining > _DUST and bin_idx < N_TAIL_BINS:
            take = min(remaining, room)
            out[i, bin_idx] += take
            remaining -= take
            room -= take
            if room <= 1e-15 * target:
                bin_idx += 1
                room = target
        if bin_idx >= N_TAIL_BINS:
            break
    return out


def tail_bins(q: StepDistribution) -> TailBins:
    """Centile cut structure of a predicted distribution.

    The k-th lower bin collects predicted mass from the bottom of the
    support, the k-th upper bin from the top, splitting boundary atoms so
    each bin holds exactly one percent of the total mass.
    """
    mass = q.probabilities
    target = q.total / 100.0
    if target <= 0:
        raise ValueError("distribution carries no mass")
    n = mass.size
    lower = _split_one_side(mass, range(n), target)
    upper = _split_one_side(mass, range(n - 1, -1, -1), target)
    return TailBins(q.support, mass, lower, upper, target)


def symmetrized_centiles(q: StepDistribution) -> TailCentiles:
    """Predicted symmetrized tail centiles (k-th lowest plus k-th highest)."""
    bins = tail_bins(q)
    return TailCentiles(bins.lower.sum(axis=0) + bins.upper.sum(axis=0))


def _assign(value: int, bins: TailBins) -> np.ndarray:
    """Per-bin weights credited when a realized sum equals ``value``.

    Sums on a predicted atom inherit its fractional split; sums the
    prediction gave zero mass are placed by their cumulative position
    (more extreme than all predicted mass lands in the outermost bin).
    """
    idx = int(np.searchsorted(bins.support, value))
    if (
        idx < bins.support.size
        and bins.support[idx] == value
        and bins.probabilities[idx] > 0.0
    ):
        atom = bins.probabilities[idx]
        return (bins.lower[idx] + bins.upper[idx]) / atom
    weights = np.zeros(N_TAIL_BINS)
    below = float(bins.probabilities[:idx].sum())
    above = float(bins.probabilities.sum()) - below
    if below < N_TAIL_BINS * bins.target:
        weights[min(int(below / bins.target), N_TAIL_BINS - 1)] += 1.0
    if above < N_TAIL_BINS * bins.target:
        weights[min(int(above / bins.target), N_TAIL_BINS - 1)] += 1.0
    return weights


def realized_centile_fractions(
    series: StateSequence,
    states: StateSpace,
    origins: Sequence[int],
    horizon: int,
    bins: TailBins | Sequence[TailBins],
) -> TailCentiles:
    """Average realized tail-bin occupation over forecast origins.

    ``bins`` gives the predicted centile structure, either one shared
    instance or one per origin.  Origins without ``horizon`` future
    observations are skipped and counted.
    """
    if isinstance(bins, TailBins):
        bins_per_origin: Sequence[TailBins] = [bins] * len(origins)
    else:
        bins_per_origin = list(bins)
        if len(bins_per_origin) != len(origins):
            raise ValueError("need exactly one bin structure per origin")
    x = np.rint(series.values(states)).astype(np.int64)

    acc = np.zeros(N_TAIL_BINS)
    used = 0
    skipped = 0
    for origin, b in zip(origins, bins_per_origin):
        if origin < 0 or origin + horizon >= len(series):
            skipped += 1
            continue
        realized = int(x[origin + 1 : origin + horizon + 1].sum())
        acc += _assign(realized, b)
        used += 1
    if used == 0:
        raise ValueError("no origin had enough future data")
    return TailCentiles(acc / used, skipped=skipped)


def tail_error(predicted: TailCentiles, realized: TailCentiles) -> float:
    """Sum of relative tail-mass errors, ``sum_k |pi_k - pihat_k| / pi_k``."""
    if np.any(predicted.pi <= 0):
        raise ValueError("relative error undefined: a predicted centile has zero mass")
    return float((np.abs(predicted.pi - realized.pi) / predicted.pi).sum())


def _estimate_entries(
    window: StateSequence, states: StateSpace, method: str
) -> np.ndarray:
    if method == "sampling":
        return frequency_estimate(window, states).entries
    if method == "naive":
        return np.full((states.size, states.size), 1.0 / states.size)
    raise ValueError(f"method must be one of {BACKTEST_METHODS}, got {method!r}")


def backtest(
    series: StateSequence,
    states: StateSpace,
    sample_sizes: Sequence[int],
    horizon: int = 8,
    methods: Sequence[str] = BACKTEST_METHODS,
    stride: int = 1,
) -> BacktestReport:
    """Roll forecast origins through a series and score each estimator.

    For every window size ``n`` and method, the matrix is re-estimated
    from the trailing ``n`` observations at each origin, the tail
    centiles of its ``horizon``-step sum forecast are predicted, and the
    realized sums are pooled into the predicted bins before the tail
    error is taken.  The maxent matrices of all window sizes and origins
    come from one ``maxent_entries`` batch.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    methods = tuple(methods)
    for m in methods:
        if m not in BACKTEST_METHODS:
            raise ValueError(f"unknown method {m!r}")
    sizes = np.asarray([int(n) for n in sample_sizes], dtype=int)
    if sizes.min() < 2:
        raise ValueError("window sizes must be >= 2")
    if len(series) < sizes.max() + horizon:
        raise ValueError("series too short for the largest window plus horizon")

    x = np.rint(series.values(states)).astype(np.int64)
    origins = [np.arange(n - 1, len(series) - horizon, stride) for n in sizes]
    if "maxent" in methods:
        cz = np.concatenate([[0], np.cumsum(x[:-1] * x[1:])])
        pair_sums = np.concatenate([cz[o] - cz[o - n + 1] for n, o in zip(sizes, origins)])
        per_size = [o.size for o in origins]
        flat = maxent_entries(states, pair_sums, np.repeat(sizes - 1, per_size))
        maxent = np.split(flat, np.cumsum(per_size)[:-1])
    delta = {m: np.empty(sizes.size) for m in methods}
    counts = np.empty(sizes.size, dtype=int)
    for si, n in enumerate(sizes):
        pred_acc = {m: np.zeros(N_TAIL_BINS) for m in methods}
        real_acc = {m: np.zeros(N_TAIL_BINS) for m in methods}
        used = 0
        for oi, t in enumerate(origins[si].tolist()):
            window = series.slice(t - int(n) + 1, t + 1)
            realized = int(x[t + 1 : t + horizon + 1].sum())
            origin_state = int(series.indices[t])
            for m in methods:
                if m == "maxent":
                    entries = maxent[si][oi]
                else:
                    entries = _estimate_entries(window, states, m)
                q = step_distribution(
                    StochasticMatrix(entries, states), origin_state, horizon
                )
                bins = tail_bins(q)
                pred_acc[m] += bins.lower.sum(axis=0) + bins.upper.sum(axis=0)
                real_acc[m] += _assign(realized, bins)
            used += 1
        counts[si] = used
        for m in methods:
            predicted = TailCentiles(pred_acc[m] / used)
            realized_tc = TailCentiles(real_acc[m] / used)
            delta[m][si] = tail_error(predicted, realized_tc)
    return BacktestReport(sizes, delta, counts, horizon, stride)

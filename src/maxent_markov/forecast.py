"""Multi-step tail forecasting and rolling backtests.

From an estimated transition matrix, the exact distribution of the sum of
the next ``s`` discretized states is computed by dynamic programming over
(current state, partial sum).  Its ten symmetrized tail centiles (the
k-th lowest and k-th highest percent of predicted mass, aggregated) are
compared with the fraction of realizations that actually land in each
centile, giving the tail error used to rank estimators in a rolling
backtest.

Centiles of a lattice-valued distribution are shares of cumulative mass:
an atom of mass ``p`` whose cumulative mass reaches ``C`` spans
``[C - p, C)``, and each one-sided centile, the span ``[k, k + 1)`` percent
of the total counted from the bottom or the top, takes the share of that
span lying in it.  So every one-sided centile holds exactly one percent of
the predicted mass, a realized sum weighs each centile by its atom's share,
and a sum the forecast gave zero mass counts in the centile holding its
cumulative position: the nonrandomized PIT for discrete forecasts (Czado,
Gneiting and Held, "Predictive model assessment for count data",
Biometrics 65(4), 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import StateSequence, StateSpace, StochasticMatrix, _stochastic_rows
from .estimators import METHODS, _window_rows

N_TAIL_BINS = 10
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
class BacktestReport:
    """Average tail errors per estimation method and window size."""

    sample_sizes: np.ndarray
    delta: dict[str, np.ndarray]
    origin_counts: np.ndarray
    horizon: int
    stride: int


def _step_masses(
    states: StateSpace, entries: np.ndarray, origins: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Support and ``horizon``-step sum masses of a stack, shape ``(B, width)``.

    ``entries`` is ``(B, K, K)``, one matrix per origin state in ``origins``.
    Dynamic programming over (state, partial sum), one batched product per
    step.  State values must be integers so the sums live on a lattice.
    """
    x = states.as_array()
    x_int = np.rint(x).astype(np.int64)
    if np.any(x_int != x):
        raise ValueError("step distributions need integer state values")
    span = int(horizon * np.abs(x_int).max())
    width = 2 * span + 1
    table = np.zeros((len(origins), states.size, width))
    table[np.arange(len(origins)), origins, span] = 1.0
    for _ in range(horizon):
        arrivals = table.transpose(0, 2, 1) @ entries  # (B, width, K): mass arriving at j per sum
        table = np.zeros_like(table)
        # state j moves each sum up by its value; sums reachable within the
        # horizon stay inside the support, so the ends shifted out hold zeros
        for j, shift in enumerate(x_int):
            lo, hi = max(shift, 0), width + min(shift, 0)
            table[:, j, lo:hi] = arrivals[:, lo - shift : hi - shift, j]
    return np.arange(-span, span + 1), table.sum(axis=1)


def step_distribution(w: StochasticMatrix, origin: int, horizon: int) -> StepDistribution:
    """Exact ``horizon``-step sum distribution from ``origin``.

    Equals the explicit sum over all ``K**horizon`` transition paths.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= origin < w.size:
        raise ValueError(f"origin state {origin} out of range")
    support, masses = _step_masses(w.states, w.entries[None], np.array([origin]), horizon)
    return StepDistribution(horizon, origin, support, masses[0])


def _shares(start: np.ndarray, width: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Share of the cumulative-mass span ``[start, start + width)`` in each bin, ``(..., 10)``.

    The bins are ``[k target, (k + 1) target)``, k = 0..9, with ``target``
    broadcast against ``start``; a zero-width span counts wholly in the
    bin that holds ``start``, and spans past the tenth bin get no share.
    """
    gap = np.arange(N_TAIL_BINS + 1) * target[..., None] - start[..., None]
    wide = width[..., None] > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        filled = np.where(wide, np.clip(gap / width[..., None], 0.0, 1.0), gap > 0.0)
    return np.diff(filled, axis=-1)


def _weights(mass: np.ndarray, target: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Per-bin weights of a realized sum on atom ``at[b]`` of each row of ``mass``, ``(B, 10)``.

    The atom's share of each lower bin plus its share of each upper bin, so
    an atom the prediction split inherits its split and a zero-mass atom
    counts once on each side where its cumulative position falls.  A sum on
    an atom of positive mass at most ``_DUST`` gets no weight.
    """
    rows = np.arange(mass.shape[0])
    atom = mass[rows, at]
    below = np.cumsum(mass, axis=1)[rows, at] - atom
    above = np.cumsum(mass[:, ::-1], axis=1)[rows, mass.shape[1] - 1 - at] - atom
    weights = _shares(below, atom, target) + _shares(above, atom, target)
    return np.where(((atom == 0.0) | (atom > _DUST))[:, None], weights, 0.0)


def symmetrized_centiles(q: StepDistribution) -> TailCentiles:
    """Predicted symmetrized tail centiles (k-th lowest plus k-th highest).

    Each one-sided centile holds one percent of the forecast's mass, so
    each symmetrized centile is two percent of it.
    """
    if q.total <= 0:
        raise ValueError("distribution carries no mass")
    return TailCentiles(np.full(N_TAIL_BINS, 2 * (q.total / 100.0)))


def _realized_weights(support: np.ndarray, masses: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Per-bin weights of each realized ``sums[b]`` under the forecast ``masses[b]`` on ``support``, ``(B, 10)``.

    A sum off the support counts as a zero-mass atom inserted where it
    sorts; ``_weights`` gives the rule.
    """
    total = masses.sum(axis=1)
    if np.any(total <= 0):
        raise ValueError("distribution carries no mass")
    lattice, inverse = np.unique(np.concatenate([support, sums]), return_inverse=True)
    placed = np.zeros((masses.shape[0], lattice.size))
    placed[:, inverse[: support.size]] = masses
    return _weights(placed, total / 100.0, inverse[support.size :])


def realized_centile_fractions(
    series: StateSequence,
    states: StateSpace,
    origins: Sequence[int],
    horizon: int,
    forecasts: StepDistribution | Sequence[StepDistribution],
) -> TailCentiles:
    """Average realized tail-bin occupation over forecast origins.

    ``forecasts`` is the predicted sum distribution, one shared instance or
    one per origin, and the forecasts at scored origins share one support.
    Origins without ``horizon`` future observations are skipped and counted.
    """
    starts = np.asarray(origins)
    if starts.size and not np.issubdtype(starts.dtype, np.integer):
        raise ValueError("origins must be integers")
    if isinstance(forecasts, StepDistribution):
        forecasts = [forecasts] * starts.size
    elif len(forecasts) != starts.size:
        raise ValueError("need exactly one forecast per origin")
    scored = (starts >= 0) & (starts + horizon < len(series))
    rows = [q for q, keep in zip(forecasts, scored) if keep]
    if not rows:
        raise ValueError("no origin had enough future data")
    support = rows[0].support
    if any(q.support is not support and not np.array_equal(q.support, support) for q in rows):
        raise ValueError("the forecasts at scored origins must share one support")
    at = starts[scored]
    cx = np.cumsum(np.rint(series.values(states)).astype(np.int64))
    weights = _realized_weights(support, np.stack([q.probabilities for q in rows]), cx[at + horizon] - cx[at])
    # rows add in origin order, as a running sum over the origins does
    return TailCentiles(np.add.reduce(weights, axis=0) / at.size, skipped=int(starts.size - at.size))


def tail_error(predicted: TailCentiles, realized: TailCentiles) -> float:
    """Sum of relative tail-mass errors, ``sum_k |pi_k - pihat_k| / pi_k``."""
    if np.any(predicted.pi <= 0):
        raise ValueError("relative error undefined: a predicted centile has zero mass")
    return float((np.abs(predicted.pi - realized.pi) / predicted.pi).sum())


def backtest(
    series: StateSequence,
    states: StateSpace,
    sample_sizes: Sequence[int],
    horizon: int = 8,
    methods: Sequence[str] = METHODS,
    stride: int = 1,
) -> BacktestReport:
    """Roll forecast origins through a series and score each estimator.

    For every window size ``n`` and method, the matrix is re-estimated
    from the trailing ``n`` observations at each origin, the tail
    centiles of its ``horizon``-step sum forecast are predicted, and the
    realized sums are pooled into the predicted bins before the tail
    error is taken.  Each method estimates the windows of all sizes and
    origins in one batch (one ``maxent_entries`` solve for maxent), and
    each (size, method) is scored as one stack.  Windows share matrices
    (maxent targets lie on a lattice, naive has one matrix), so each
    distinct (matrix, origin state) pair of a stack is forecast once and
    its masses are gathered back per origin.  Sampling has one matrix per
    window, so its stacks gain nothing and only pay for the ``np.unique``.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    methods = tuple(methods)
    if not methods:
        raise ValueError("methods must not be empty")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods must not repeat, got {methods}")
    sizes = np.asarray([int(n) for n in sample_sizes], dtype=int)
    if sizes.size == 0:
        raise ValueError("sample_sizes must not be empty")
    if sizes.min() < 2:
        raise ValueError("window sizes must be >= 2")
    if len(series) < sizes.max() + horizon:
        raise ValueError("series too short for the largest window plus horizon")

    cx = np.concatenate([[0], np.cumsum(np.rint(series.values(states)).astype(np.int64))])
    origins = [np.arange(n - 1, len(series) - horizon, stride) for n in sizes]
    counts = np.array([o.size for o in origins])
    ends = np.concatenate(origins)
    k = states.size
    delta = {m: np.empty(sizes.size) for m in methods}
    for m in methods:
        rows, which = _window_rows(series, states, m, ends, np.repeat(sizes, counts))
        rows = _stochastic_rows(rows, rows.shape)
        for si, (o, picked) in enumerate(zip(origins, np.split(which, np.cumsum(counts)[:-1]))):
            # each distinct (matrix, origin state) is forecast once; origins gather its masses
            keys, inverse = np.unique(picked * k + series.indices[o], return_inverse=True)
            support, distinct = _step_masses(states, rows.take(keys // k, axis=0), keys % k, horizon)
            masses = distinct.take(inverse, axis=0)
            target = masses.sum(axis=1) / 100.0
            realized = cx[o + horizon + 1] - cx[o + 1]
            # each forecast predicts 2 target per centile; both sums add forecast after forecast
            pred = np.full(N_TAIL_BINS, np.cumsum(2 * target)[-1])
            real = np.add.reduce(_weights(masses, target, realized - support[0]), axis=0)
            delta[m][si] = tail_error(TailCentiles(pred / o.size), TailCentiles(real / o.size))
    return BacktestReport(sizes, delta, counts, horizon, stride)

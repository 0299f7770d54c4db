"""Expected-error analysis: when does the maximum-entropy estimator beat counting?

For two-state chains the expected absolute estimation error of both
estimators is available in closed form: the sample autocorrelation of a
length-``n`` sample is treated as normal with variance ``1/n``, so the
absolute error of each estimated coefficient follows a folded normal
distribution.  Comparing the two estimators' expected errors yields a
per-coefficient accuracy gain, the critical sample size ``n_c`` below
which the maximum-entropy estimate is more accurate, and maps of the
favorable region of matrix space.  Three-state chains get the same
treatment by Monte-Carlo simulation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chains import (
    Distribution,
    StateSpace,
    StochasticMatrix,
    entropy_rate,
    matrix_autocorrelation,
    simulate_batch,
    stationary_distribution,
)
from .estimators import maxent_entries, transition_counts, transition_frequencies
from .solver import maxent_2state

DEFAULT_CAP = 500
DEFAULT_REPLICATES = 200


@dataclass(frozen=True)
class FoldedNormalStats:
    """Mean and standard deviation of ``|X|`` for a normal ``X``."""

    mean: float
    std: float


@dataclass(frozen=True)
class ErrorStats:
    """Per-coefficient expected absolute error of an estimator at sample size ``n``.

    ``bias`` holds the underlying error means (zero for the unbiased
    sampling estimator); ``means``/``stds`` are the folded-normal moments.
    """

    estimator: str
    n: int
    means: np.ndarray
    stds: np.ndarray
    bias: np.ndarray

    def coefficient(self, i: int, j: int) -> FoldedNormalStats:
        return FoldedNormalStats(float(self.means[i, j]), float(self.stds[i, j]))


@dataclass(frozen=True)
class CriticalSampleSize:
    """Largest sample sizes at which the maximum-entropy estimator still wins.

    ``weighted`` aggregates the per-coefficient values with stationary row
    weights normalized to sum to one.
    """

    per_coefficient: np.ndarray
    weighted: float
    cap: int


@dataclass(frozen=True)
class MuCurve:
    """Fraction of matrix space favorable to maximum entropy vs. sample size.

    ``stratum`` tags curves restricted to the matrices in the top
    ``stratum`` entropy-rate quintiles (``None`` for the full population);
    fractions are non-increasing in ``n`` because the favorable sets are
    nested.
    """

    sample_sizes: np.ndarray
    fractions: np.ndarray
    stratum: int | None = None


def _folded_mean(mu_abs: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Vectorized folded-normal mean ``E|N(mu, sigma^2)|``."""
    # imported here: only the 2-state analytic path needs scipy, and at
    # module level it would double the start-up time of every CLI command
    from scipy.special import ndtr

    return sigma * np.sqrt(2.0 / np.pi) * np.exp(-(mu_abs**2) / (2.0 * sigma**2)) + mu_abs * (
        1.0 - 2.0 * ndtr(-mu_abs / sigma)
    )


def folded_normal_stats(mu: float, variance: float) -> FoldedNormalStats:
    """Moments of the absolute value of ``N(mu, variance)``.

    mean = sigma*sqrt(2/pi)*exp(-mu^2/(2 sigma^2)) + mu*(1 - 2*Phi(-mu/sigma))
    std  = sqrt(mu^2 + sigma^2 - mean^2)
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    sigma = math.sqrt(variance)
    # the expression is even in mu, so the absolute value loses nothing
    mean = float(_folded_mean(np.float64(abs(mu)), np.float64(sigma)))
    spread = mu * mu + variance - mean * mean
    return FoldedNormalStats(mean, math.sqrt(max(spread, 0.0)))


def _require_two_states(w: StochasticMatrix, what: str) -> None:
    if w.states != StateSpace.binary():
        raise ValueError(
            f"{what} is analytic for 2-state chains on the states (-1, +1) only; "
            "use the Monte-Carlo sweep for other state spaces"
        )


def maxent_error_stats(w_true: StochasticMatrix, n: int) -> ErrorStats:
    """Folded-normal error statistics of the maximum-entropy estimator.

    The estimator sees a sample autocorrelation that is normal around the
    true autocorrelation with variance ``1/n``; each estimated coefficient
    is then normal with variance ``1/(4n)`` around the maximum-entropy
    matrix of the true autocorrelation, so its bias is the structural
    mismatch between that matrix and ``w_true``.
    """
    _require_two_states(w_true, "maxent_error_stats")
    if n < 1:
        raise ValueError("n must be >= 1")
    p = stationary_distribution(w_true)
    a_true = matrix_autocorrelation(p, w_true)
    compatible = maxent_2state(a_true).matrix.entries
    bias = compatible - w_true.entries
    sigma = 1.0 / (2.0 * math.sqrt(n))
    means = _folded_mean(np.abs(bias), np.float64(sigma))
    stds = np.sqrt(np.maximum(bias**2 + sigma**2 - means**2, 0.0))
    return ErrorStats("maxent", n, means, stds, bias)


def sampling_error_stats(w_true: StochasticMatrix, n: int) -> ErrorStats:
    """Folded-normal error statistics of the frequency-sampling estimator.

    Each coefficient estimated from a window of size ``n`` is treated as
    normal and unbiased with variance ``W_ij (1 - W_ij) / (n p_i)`` where
    ``p`` is the stationary distribution, giving

        mean = sqrt(2 W_ij (1 - W_ij) / (pi n p_i))
        std  = sqrt((1 - 2/pi) W_ij (1 - W_ij) / (n p_i))
    """
    _require_two_states(w_true, "sampling_error_stats")
    if n < 1:
        raise ValueError("n must be >= 1")
    p = stationary_distribution(w_true).mass
    w = w_true.entries
    variance = w * (1.0 - w) / (n * p[:, None])
    means = np.sqrt(2.0 * variance / np.pi)
    stds = np.sqrt((1.0 - 2.0 / np.pi) * variance)
    return ErrorStats("sampling", n, means, stds, np.zeros_like(w))


def accuracy_gain(w_true: StochasticMatrix, n: int) -> np.ndarray:
    """Sampling expected error minus maximum-entropy expected error.

    Positive entries mean the maximum-entropy estimate of that coefficient
    is more accurate at sample size ``n``.
    """
    return sampling_error_stats(w_true, n).means - maxent_error_stats(w_true, n).means


def _largest_favorable_size(samp_unit: np.ndarray, bias_abs: np.ndarray, cap: int) -> np.ndarray:
    """Largest ``n`` in ``1..cap`` with nonnegative gain, elementwise (0 if none).

    ``samp_unit`` is the sampling error mean times ``sqrt(n)`` and
    ``bias_abs`` the maxent bias magnitude, which does not depend on ``n``.
    """
    best = np.zeros_like(samp_unit)
    for n in range(1, cap + 1):
        sigma = 1.0 / (2.0 * math.sqrt(n))
        gain = samp_unit / math.sqrt(n) - _folded_mean(bias_abs, np.float64(sigma))
        best = np.where(gain >= 0, float(n), best)
    return best


def critical_sample_size(w_true: StochasticMatrix, cap: int = DEFAULT_CAP) -> CriticalSampleSize:
    """Largest ``n <= cap`` with nonnegative gain, per coefficient.

    Scanned over the integers ``1..cap`` (the gain need not be monotone
    when the structural bias is near zero); coefficients never favorable
    get zero.  The aggregate weighs coefficient ``(i, j)`` by the
    stationary probability of its source state, normalized over the
    ``K^2`` coefficients.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    p = stationary_distribution(w_true).mass
    me = maxent_error_stats(w_true, 1)  # validates inputs; bias is n-free
    bias_abs = np.abs(me.bias)
    w = w_true.entries
    samp_unit = np.sqrt(2.0 * w * (1.0 - w) / (np.pi * p[:, None]))  # mean * sqrt(n)
    best = _largest_favorable_size(samp_unit, bias_abs, cap)
    weighted = float((p[:, None] * best).sum() / w_true.size)
    return CriticalSampleSize(best, weighted, cap)


@dataclass(frozen=True)
class CriticalSizeMap:
    """Weighted critical sample size over the (stay_down, stay_up) square.

    Two-state matrices are parametrized by their diagonal: ``stay_down``
    is the self-transition probability of the low state, ``stay_up`` of
    the high state.  The grid is open (half-step offset from 0 and 1).
    """

    stay_down: np.ndarray
    stay_up: np.ndarray
    weighted: np.ndarray
    nc_down_row: np.ndarray
    nc_up_row: np.ndarray
    cap: int


def critical_size_map(resolution: int = 100, cap: int = DEFAULT_CAP) -> CriticalSizeMap:
    """Vectorized critical-sample-size sweep over all 2-state matrices.

    Within a row both coefficients share the same expected errors (their
    biases are opposite and their sampling variances equal), so the map
    records one value per row.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    grid = (np.arange(resolution) + 0.5) / resolution
    a, d = np.meshgrid(grid, grid, indexing="ij")  # stay_down, stay_up
    p_down = (1.0 - d) / (2.0 - a - d)
    p_up = 1.0 - p_down
    acf = p_down * (2.0 * a - 1.0) + p_up * (2.0 * d - 1.0)
    bias_down = np.abs((1.0 + acf) / 2.0 - a)
    bias_up = np.abs((1.0 + acf) / 2.0 - d)
    samp_down = np.sqrt(2.0 * a * (1.0 - a) / (np.pi * p_down))
    samp_up = np.sqrt(2.0 * d * (1.0 - d) / (np.pi * p_up))
    nc_down, nc_up = _largest_favorable_size(
        np.stack([samp_down, samp_up]), np.stack([bias_down, bias_up]), cap
    )
    weighted = p_down * nc_down + p_up * nc_up  # row values repeat across the row
    return CriticalSizeMap(a, d, weighted, nc_down, nc_up, cap)


def _empirical_weighted_gain(
    entries: np.ndarray, p: np.ndarray, n: int, replicates: int, rng: np.random.Generator, lattice: np.ndarray
) -> float:
    """Stationary-weighted mean error gain of maxent over sampling at size ``n``, on 3 states.

    ``lattice[S + n - 1]`` is the maxent matrix of pair-sum ``S``; a path's
    pair-sum is ``sum_ij counts_ij x_i x_j``, exact on the integer states.
    """
    k = entries.shape[0]
    counts = transition_counts(simulate_batch(entries, p, n, replicates, rng), k)
    x = StateSpace.ternary().as_array()
    pair_sums = (counts * np.outer(x, x)).sum(axis=(1, 2)).astype(np.int64)
    err_me = np.abs(lattice[pair_sums + n - 1] - entries).mean(axis=0)
    err_samp = np.abs(transition_frequencies(counts) - entries).mean(axis=0)
    return float((p[:, None] * (err_samp - err_me)).sum() / k)


def _judge_matrix(seed, sizes: np.ndarray, replicates: int, lattices: list) -> tuple[float, float]:
    """Empirical critical size and entropy rate of the random 3-state matrix drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    matrix = StochasticMatrix(rng.dirichlet(np.ones(3), size=3), StateSpace.ternary())
    p = stationary_distribution(matrix)
    best = 0.0
    for n, lattice in zip(sizes, lattices):
        if _empirical_weighted_gain(matrix.entries, p.mass, int(n), replicates, rng, lattice) >= 0:
            best = float(n)
    return best, entropy_rate(p, matrix)


def mu_curve(
    n_states: int,
    sample_sizes,
    *,
    grid: int = 100,
    samples: int = 2000,
    replicates: int = DEFAULT_REPLICATES,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    stratify: bool = False,
    workers: int = 1,
) -> list[MuCurve]:
    """Favorable-fraction curves ``mu(n)`` over the space of stochastic matrices.

    Two states: deterministic sweep of the open ``grid x grid`` diagonal
    parametrization using the analytic error formulas.  Three states:
    ``samples`` matrices drawn row-wise flat on the simplex, each judged
    by ``replicates`` simulated estimation runs per scanned size; the
    critical size of a matrix is the largest scanned ``n`` at which the
    stationary-weighted mean error gain is still nonnegative.  Each matrix
    draws from its own spawned seed, so ``workers`` processes, which take
    the matrices in chunks of ``ceil(samples / workers)``, give the serial
    result.

    With ``stratify`` (three states only) one curve is emitted per
    cumulated entropy-rate quintile: stratum ``q`` covers the matrices in
    the top ``q`` quintiles, so stratum 5 is the full population.
    """
    sizes = np.asarray(sorted(set(int(n) for n in sample_sizes)), dtype=int)
    if sizes.size == 0 or sizes.min() < 1:
        raise ValueError("sample sizes must be positive integers")
    if cap < sizes.max():
        raise ValueError("cap must be at least the largest requested sample size")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")

    if n_states == 2:
        if stratify:
            raise ValueError("stratification applies to the 3-state Monte-Carlo sweep")
        ncs, rates = critical_size_map(grid, cap).weighted.ravel(), None
    elif n_states == 3:
        if sizes.min() < 2:
            raise ValueError("the Monte-Carlo sweep needs sample sizes >= 2")
        # sample autocorrelations of length-n paths are S / (n - 1) for the
        # integer pair-sums S in [-(n - 1), n - 1]: one exact solve per distinct
        # lattice point, shared by every size whose lattice holds it
        points = 2 * sizes - 1
        pair_sums = np.concatenate([np.arange(-(n - 1), n) for n in sizes])
        flat = maxent_entries(StateSpace.ternary(), pair_sums, np.repeat(sizes - 1, points))
        lattices = np.split(flat, np.cumsum(points)[:-1])
        judge = functools.partial(_judge_matrix, sizes=sizes, replicates=replicates, lattices=lattices)
        seeds = np.random.SeedSequence(seed).spawn(samples)
        if workers > 1:
            # imported here: it pulls in multiprocessing, which one worker never needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                judged = list(pool.map(judge, seeds, chunksize=math.ceil(samples / workers)))
        else:
            judged = list(map(judge, seeds))
        ncs, rates = np.array(judged).T
    else:
        raise ValueError("mu_curve supports 2 or 3 states")

    curves = []
    ranked = np.sort(rates) if stratify else None
    for q in range(1, 6) if stratify else [None]:
        # rates at or above the linear (1 - q/5)-quantile of the N rates, which lies between
        # order statistics floor and ceil of (N - 1)(5 - q)/5; stratum 5, like the unstratified
        # curve, is the whole population (np.quantile would import numpy.ma)
        members = ncs[rates >= ranked[-(-(rates.size - 1) * (5 - q) // 5)]] if q and q < 5 else ncs
        curves.append(MuCurve(sizes, np.array([np.mean(members >= n) for n in sizes]), q))
    return curves

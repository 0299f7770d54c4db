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
    StateSpace,
    StochasticMatrix,
    _entropy_rates,
    _lockstep_walk,
    _stationary_masses,
    _stochastic_rows,
    stationary_distribution,
)
from .estimators import maxent_entries, transition_counts, transition_frequencies

DEFAULT_CAP = 500
DEFAULT_REPLICATES = 200
_BLOCK_CELLS = 150_000  # (path, step) cells over all sizes per block: its uniform buffer sets the sweep's peak memory


@dataclass(frozen=True)
class FoldedNormalStats:
    """Mean and standard deviation of ``|X|`` for a normal ``X``."""

    mean: float
    std: float


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class CriticalSampleSize:
    """Largest sample sizes at which the maximum-entropy estimator still wins.

    ``weighted`` aggregates the per-coefficient values with stationary row
    weights normalized to sum to one.
    """

    per_coefficient: np.ndarray
    weighted: float
    cap: int


@dataclass(frozen=True, eq=False)
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


def _two_state_errors(stay: np.ndarray, leave: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maxent bias and unit sampling error mean of each row of 2-state chains on the states (-1, +1).

    ``stay``, ``leave`` and ``p`` hold ``W_ii``, ``W_ij`` (``j != i``) and
    the stationary mass ``p_i``, stacked by row ``i`` on axis 0 over any
    trailing shape.  The maximum-entropy chain of the autocorrelation
    ``A = p_0 (2 W_00 - 1) + p_1 (2 W_11 - 1)`` stays with probability
    ``(1 + A) / 2``, so ``W_ii`` has the signed bias ``(1 + A) / 2 - W_ii``
    and ``W_ij`` its negative.  Both sampled coefficients of row ``i``
    have the error mean ``sqrt(2 W_ii W_ij / (pi n p_i))``, returned at
    ``n = 1``.
    """
    acf = p[0] * (2.0 * stay[0] - 1.0) + p[1] * (2.0 * stay[1] - 1.0)
    return (1.0 + acf) / 2.0 - stay, np.sqrt(2.0 * stay * leave / (np.pi * p))


def _critical_sizes(stay: np.ndarray, leave: np.ndarray, p: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the largest ``n`` in ``1..cap`` with nonnegative gain (0 if none), and their ``p``-weighted sum.

    Rows are stacked as for ``_two_state_errors``.  Every integer is
    scanned: the gain need not be monotone when the bias is near zero.
    """
    bias, unit = _two_state_errors(stay, leave, p)
    bias_abs = np.abs(bias)
    best = np.zeros_like(unit)
    for n in range(1, cap + 1):
        sigma = 1.0 / (2.0 * math.sqrt(n))
        gain = unit / math.sqrt(n) - _folded_mean(bias_abs, np.float64(sigma))
        best = np.where(gain >= 0, float(n), best)
    return best, p[0] * best[0] + p[1] * best[1]


def _chain_rows(w: StochasticMatrix, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(stay, leave, p)`` of one chain by row: its diagonal, its stored off-diagonal and its stationary masses."""
    if w.states != StateSpace.binary():
        raise ValueError(
            f"{what} is analytic for 2-state chains on the states (-1, +1) only; "
            "use the Monte-Carlo sweep for other state spaces"
        )
    return np.diag(w.entries), w.entries[[0, 1], [1, 0]], stationary_distribution(w).mass


def maxent_error_stats(w_true: StochasticMatrix, n: int) -> ErrorStats:
    """Folded-normal error statistics of the maximum-entropy estimator.

    The estimator sees a sample autocorrelation that is normal around the
    true autocorrelation with variance ``1/n``; each estimated coefficient
    is then normal with variance ``1/(4n)`` around the maximum-entropy
    matrix of the true autocorrelation, so its bias is the structural
    mismatch between that matrix and ``w_true``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    row_bias = _two_state_errors(*_chain_rows(w_true, "maxent_error_stats"))[0]
    bias = row_bias[:, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])  # W_ij's bias is minus W_ii's
    sigma = 1.0 / (2.0 * math.sqrt(n))
    means = _folded_mean(np.abs(bias), np.float64(sigma))
    stds = np.sqrt(np.maximum(bias**2 + sigma**2 - means**2, 0.0))
    return ErrorStats("maxent", n, means, stds, bias)


def sampling_error_stats(w_true: StochasticMatrix, n: int) -> ErrorStats:
    """Folded-normal error statistics of the frequency-sampling estimator.

    Each coefficient estimated from a window of size ``n`` is treated as
    normal and unbiased with variance ``W_ii W_ij / (n p_i)`` (``j != i``)
    where ``p`` is the stationary distribution, giving

        mean = sqrt(2 W_ii W_ij / (pi n p_i))
        std  = sqrt(pi/2 - 1) * mean
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    unit = _two_state_errors(*_chain_rows(w_true, "sampling_error_stats"))[1]
    means = np.repeat(unit, 2).reshape(2, 2) / math.sqrt(n)
    return ErrorStats("sampling", n, means, math.sqrt(np.pi / 2.0 - 1.0) * means, np.zeros_like(means))


def accuracy_gain(w_true: StochasticMatrix, n: int) -> np.ndarray:
    """Sampling expected error minus maximum-entropy expected error.

    Positive entries mean the maximum-entropy estimate of that coefficient
    is more accurate at sample size ``n``.
    """
    return sampling_error_stats(w_true, n).means - maxent_error_stats(w_true, n).means


def critical_sample_size(w_true: StochasticMatrix, cap: int = DEFAULT_CAP) -> CriticalSampleSize:
    """Largest ``n <= cap`` with nonnegative gain, per coefficient.

    Both coefficients of a row share it; coefficients never favorable get
    zero.  The aggregate weighs each row by the stationary probability of
    its state.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    best, weighted = _critical_sizes(*_chain_rows(w_true, "critical_sample_size"), cap)
    return CriticalSampleSize(np.repeat(best, 2).reshape(2, 2), float(weighted), cap)


@dataclass(frozen=True, eq=False)
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
    if cap < 1:
        raise ValueError("cap must be >= 1")
    grid = (np.arange(resolution) + 0.5) / resolution
    a, d = np.meshgrid(grid, grid, indexing="ij")  # stay_down, stay_up
    p_down = (1.0 - d) / (2.0 - a - d)
    stay = np.stack([a, d])
    (nc_down, nc_up), weighted = _critical_sizes(stay, 1.0 - stay, np.stack([p_down, 1.0 - p_down]), cap)
    return CriticalSizeMap(a, d, weighted, nc_down, nc_up, cap)


def _weighted_gains(entries: np.ndarray, p: np.ndarray, counts: np.ndarray, lattice: np.ndarray, zero) -> np.ndarray:
    """Stationary-weighted mean error gain of maxent over sampling, one per 3-state matrix.

    ``counts`` ``(M, R, K, K)`` holds the transition counts of each matrix's
    ``R`` paths, and each path is scored by its own estimates.
    ``lattice[zero + S]`` is the maxent matrix of pair-sum ``S`` (``zero`` is
    one row or one per matrix); a path's pair-sum is ``sum_ij counts_ij x_i x_j``,
    exact on the integer states.  Counts run ``(K * K, M, R)``, not copied
    when laid out so in memory, and errors ``(R, M, K * K)``.
    """
    m, r, k, _ = counts.shape
    x = StateSpace.ternary().as_array()
    counts, freq = (
        np.moveaxis(c, (-2, -1), (0, 1)).reshape(k * k, m, r) for c in (counts, transition_frequencies(counts))
    )
    pair_sums = (np.outer(x, x).ravel() @ counts.reshape(k * k, -1)).astype(np.int64).reshape(m, r)
    maxent = lattice.reshape(-1, k * k).take((pair_sums + np.reshape(zero, (-1, 1))).T, axis=0)
    truth = entries.reshape(m, k * k)
    # the sum over the outer axis R adds the paths in order, as one matrix's mean over its paths does
    err = [np.add.reduce(np.abs(e, out=e), axis=0) / r for e in (np.subtract(freq.T, truth, order="C"), maxent - truth)]
    # each matrix's K * K weighted gains summed in one row, as one matrix alone sums them
    return (np.repeat(p, k, axis=1) * (err[0] - err[1])).sum(axis=1) / k


def _judge_block(seeds, sizes: np.ndarray, replicates: int, lattice: np.ndarray) -> np.ndarray:
    """Empirical critical sizes and entropy rates of the random 3-state matrices drawn from ``seeds``, shape ``(2, M)``.

    Each matrix's generator draws its Dirichlet rows, then, size by size,
    the start and step uniforms of its ``replicates`` paths into one
    ``(step, path)`` buffer whose paths run largest size first.  One
    lock-step walk takes every path; they are counted size by size and
    scored together.  ``lattice`` holds, size by size, the maxent matrices
    of the pair sums ``-(n - 1) .. n - 1``.
    """
    m, r, s = len(seeds), replicates, sizes.size
    u = np.empty((sizes[-1], s, m, r))  # the layout the walk reads, so it copies nothing
    rows = []
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rows.append(rng.dirichlet(np.ones(3), size=3))
        for j, n in enumerate(sizes):
            rng.random(out=u[0, s - 1 - j, i])
            u[1:n, s - 1 - j, i] = rng.random((r, n - 1)).T
    entries = _stochastic_rows(np.stack(rows), (m, 3, 3))
    p = _stationary_masses(entries)
    owner = np.tile(np.repeat(np.arange(m), r), s)
    walked = _lockstep_walk(entries, p, owner, u.reshape(sizes[-1], -1).T, np.repeat(sizes[::-1], m * r))
    del u  # the uniforms are spent: free them before the counts
    counts, paths = np.empty((3, 3, s, m, r)), walked.reshape(s, m, r, -1)  # counts coefficient first, as scored
    for g, n in enumerate(sizes[::-1]):
        counts[:, :, g] = np.moveaxis(transition_counts(paths[g, ..., :n], 3), (-2, -1), (0, 1))
    zero = np.repeat((np.cumsum(2 * sizes - 1) - sizes)[::-1], m)  # each size's pair-sum 0 in the flat lattice
    stacked = np.tile(entries, (s, 1, 1)), np.tile(p, (s, 1)), np.moveaxis(counts, (0, 1), (3, 4)).reshape(-1, r, 3, 3)
    gains = _weighted_gains(*stacked, lattice, zero).reshape(s, m)
    best = (sizes[::-1, None] * (gains >= 0)).max(axis=0)
    return np.stack([best, _entropy_rates(p, entries)])


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
    draws from its own spawned seed.  The matrices are judged in blocks of
    at most ``_BLOCK_CELLS`` (path, step) cells over all sizes, one walk and
    one scoring call each; ``workers`` processes, which take the blocks in
    chunks of ``ceil(blocks / workers)``, give the serial result.

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
    if replicates < 1:
        raise ValueError("replicates must be >= 1")

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
        pair_sums = np.concatenate([np.arange(-(n - 1), n) for n in sizes])
        lattice = maxent_entries(StateSpace.ternary(), pair_sums, np.repeat(sizes - 1, 2 * sizes - 1))
        judge = functools.partial(_judge_block, sizes=sizes, replicates=replicates, lattice=lattice)
        seeds = np.random.SeedSequence(seed).spawn(samples)
        step = max(_BLOCK_CELLS // (replicates * int(sizes.sum())), 1)
        blocks = [seeds[i : i + step] for i in range(0, samples, step)]
        if workers > 1:
            # imported here: it pulls in multiprocessing, which one worker never needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                judged = list(pool.map(judge, blocks, chunksize=math.ceil(len(blocks) / workers)))
        else:
            judged = list(map(judge, blocks))
        ncs, rates = np.concatenate(judged, axis=1)
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

"""Finite-state Markov chain primitives.

Value types for state spaces, distributions, row-stochastic transition
matrices and realized state sequences, plus the basic chain quantities the
rest of the package is built on: stationary distributions, entropy rate,
one-step autocorrelation, detailed-balance violation and seeded simulation.

All values are immutable after construction and safe to share across
threads; ``simulate`` is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads its random module lazily on first attribute access; import it
# here so that cost stays in start-up instead of the first seeded draw
import numpy.random  # noqa: F401

ROW_SUM_TOL = 1e-12


class ReducibleChainError(ValueError):
    """The chain has no unique stationary distribution (not irreducible)."""


def _stochastic_rows(entries, shape: tuple[int, ...]) -> np.ndarray:
    """Probabilities checked in [0, 1] with unit sums along the last axis, then clipped.

    Serves distributions ``(K,)``, matrices ``(K, K)`` and stacks ``(T, K, K)``.
    """
    entries = np.asarray(entries, dtype=float)
    if entries.shape != shape:
        raise ValueError(f"expected shape {shape} to match the state space, got {entries.shape}")
    # each test states what must hold, so a NaN (every comparison False) fails it
    if not np.all((entries >= -ROW_SUM_TOL) & (entries <= 1 + ROW_SUM_TOL)):
        raise ValueError("probabilities must lie in [0, 1]")
    row_sums = entries.sum(axis=-1)
    if not np.all(np.abs(row_sums - 1.0) <= ROW_SUM_TOL):
        raise ValueError(f"rows must sum to 1, got {row_sums}")
    out = np.clip(entries, 0.0, 1.0)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StateSpace:
    """Ordered numeric state values, e.g. ``(-1, 1)`` or ``(-1, 0, 1)``.

    Values must be strictly increasing and there must be at least two of
    them.  Indices elsewhere in the package refer to positions in this
    tuple.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise ValueError("a state space needs at least two states")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("state values must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values)

    @classmethod
    def binary(cls) -> "StateSpace":
        """Two states encoded as -1 and +1."""
        return cls((-1.0, 1.0))

    @classmethod
    def ternary(cls) -> "StateSpace":
        """Three states encoded as -1, 0 and +1 (down / flat / up)."""
        return cls((-1.0, 0.0, 1.0))

    @classmethod
    def default(cls, n_states: int) -> "StateSpace":
        """Symmetric integer codes: (-1,+1) for 2 states, (-1,0,+1) for 3.

        Larger spaces get symmetric integer ladders (consecutive integers
        when ``n_states`` is odd, odd integers when it is even).
        """
        if n_states < 2:
            raise ValueError("n_states must be >= 2")
        if n_states % 2 == 1:
            half = n_states // 2
            return cls(tuple(float(v) for v in range(-half, half + 1)))
        return cls(tuple(float(2 * i - (n_states - 1)) for i in range(n_states)))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass over the states of a chain (sums to one)."""

    mass: np.ndarray

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=float)
        if mass.ndim != 1 or mass.size < 1:
            raise ValueError("mass must be a 1-D vector")
        object.__setattr__(self, "mass", _stochastic_rows(mass, mass.shape))

    @property
    def size(self) -> int:
        return self.mass.size

    @classmethod
    def uniform(cls, n_states: int) -> "Distribution":
        return cls(np.full(n_states, 1.0 / n_states))

    @classmethod
    def point(cls, n_states: int, state: int) -> "Distribution":
        mass = np.zeros(n_states)
        mass[state] = 1.0
        return cls(mass)


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic transition matrix labelled with its state values.

    ``filled_rows`` marks rows that carry no observed evidence and were
    filled uniformly by an estimator (empty for exact constructions).
    """

    entries: np.ndarray
    states: StateSpace
    filled_rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        k = self.states.size
        object.__setattr__(self, "entries", _stochastic_rows(self.entries, (k, k)))
        object.__setattr__(self, "filled_rows", tuple(self.filled_rows))

    @property
    def size(self) -> int:
        return self.states.size

    @classmethod
    def uniform(cls, states: StateSpace) -> "StochasticMatrix":
        k = states.size
        return cls(np.full((k, k), 1.0 / k), states)


@dataclass(frozen=True, eq=False)
class StateSequence:
    """A realized path of the chain, stored as indices into a state space."""

    indices: np.ndarray
    n_states: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices)
        if idx.ndim != 1:
            raise ValueError("indices must be a 1-D sequence")
        if not np.issubdtype(idx.dtype, np.integer):
            as_int = idx.astype(np.int64)
            if np.any(as_int != idx):
                raise ValueError("state indices must be integers")
            idx = as_int
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_states):
            raise ValueError(f"state indices must lie in [0, {self.n_states})")
        idx = np.array(idx, dtype=np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def values(self, states: StateSpace) -> np.ndarray:
        """Map indices to the numeric state values."""
        if states.size != self.n_states:
            raise ValueError("state space size does not match the sequence")
        return states.as_array()[self.indices]


def _require_consistent(p: Distribution, w: StochasticMatrix) -> None:
    if p.size != w.size:
        raise ValueError(f"distribution has {p.size} states, matrix has {w.size}")


def _irreducible(entries: np.ndarray) -> np.ndarray:
    """``is_irreducible`` for each matrix of a stack ``(..., K, K)``, by batched integer matmuls."""
    step = (entries > 0).astype(np.int64)
    reach = step
    for _ in range(entries.shape[-1] - 1):
        reach = np.minimum(reach + reach @ step, 1)
    return reach.all(axis=(-2, -1))


def is_irreducible(w: StochasticMatrix) -> bool:
    """Exact reachability on the integer zero pattern of ``W`` (float powers underflow)."""
    return bool(_irreducible(w.entries))


def _stationary_masses(entries: np.ndarray) -> np.ndarray:
    """``stationary_distribution``'s masses ``(..., K)`` of a stack ``(..., K, K)``, as each matrix alone gets them."""
    if not np.all(_irreducible(entries)):
        raise ReducibleChainError("transition matrix is reducible: no unique stationary distribution")
    a = np.array(entries, dtype=float)
    p = np.ones(a.shape[:-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for n in range(a.shape[-1] - 1, 0, -1):
            a[..., :n, n] /= a[..., n, :n].sum(axis=-1, keepdims=True)
            a[..., :n, :n] += a[..., :n, n, None] * a[..., n, None, :n]
        for n in range(1, a.shape[-1]):
            p[..., n] = (p[..., None, :n] @ a[..., :n, n : n + 1])[..., 0, 0]  # batched: each dot as one matrix
        p /= p.sum(axis=-1, keepdims=True)
    wide = ~np.all(np.isfinite(p), axis=-1)  # masses whose ratios overflow a double: those matrices in logarithms
    if np.any(wide):
        p[wide] = _log_masses(np.asarray(entries, dtype=float)[wide])
    return p


def _log_masses(entries: np.ndarray) -> np.ndarray:
    """``_stationary_masses`` by the same reduction on the logarithms of a stack ``(..., K, K)``.

    Every quantity stays finite however widely the masses spread, and the
    masses below the smallest double come out 0; each logarithmic addition
    costs some relative accuracy, so this serves only the matrices whose
    plain reduction overflows.
    """
    with np.errstate(divide="ignore"):
        a = np.log(entries)
    for n in range(a.shape[-1] - 1, 0, -1):
        a[..., :n, n] -= np.logaddexp.reduce(a[..., n, :n], axis=-1, keepdims=True)
        a[..., :n, :n] = np.logaddexp(a[..., :n, :n], a[..., :n, n, None] + a[..., n, None, :n])
    p = np.zeros(a.shape[:-1])
    for n in range(1, a.shape[-1]):
        p[..., n] = np.logaddexp.reduce(p[..., :n] + a[..., :n, n], axis=-1)
    return np.exp(p - np.logaddexp.reduce(p, axis=-1, keepdims=True))


def stationary_distribution(w: StochasticMatrix) -> Distribution:
    """Unique stationary distribution ``p`` with ``p @ W == p``.

    Solved by Grassmann-Taksar-Heyman state reduction (Operations Research
    33(5), 1985): censor the states from the last down to the first, then
    back-substitute.  It only adds, multiplies and divides nonnegative
    numbers, so every component keeps full relative accuracy, also on
    nearly reducible chains.  A chain whose masses span more than a double's
    range (the back-substitution overflows) is reduced on logarithms
    instead: relative accuracy about 1e-13, masses below the smallest
    double 0.

    Raises:
        ReducibleChainError: if the chain is not irreducible (no unique
            stationary distribution).
    """
    return Distribution(_stationary_masses(w.entries))


def _entropy_rates(mass: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """``-sum_ij p_i W_ij ln W_ij`` of masses ``(..., K)`` and matrices ``(..., K, K)``, summed as for one matrix."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(entries > 0, entries * np.log(np.where(entries > 0, entries, 1.0)), 0.0)
    return -(mass[..., :, None] * plogp).reshape(mass.shape[:-1] + (-1,)).sum(axis=-1)


def entropy_rate(p: Distribution, w: StochasticMatrix) -> float:
    """Expected per-step entropy ``-sum_ij p_i W_ij ln W_ij`` in nats.

    Uses the convention ``0 * ln 0 = 0`` so deterministic rows contribute
    nothing.  With the stationary distribution this is the entropy rate of
    the chain; any other distribution gives the generalized objective with
    a free marginal.
    """
    _require_consistent(p, w)
    return float(_entropy_rates(p.mass, w.entries))


def matrix_autocorrelation(p: Distribution, w: StochasticMatrix) -> float:
    """One-step autocorrelation ``sum_ij x_i x_j p_i W_ij``.

    No centering and no variance normalization: for symmetric +-1 states
    at stationarity this is ``E[x_t x_(t+1)]`` and lies in [-1, 1].
    """
    _require_consistent(p, w)
    x = w.states.as_array()
    return float(np.einsum("i,j,i,ij->", x, x, p.mass, w.entries))


def detailed_balance_residual(p: Distribution, w: StochasticMatrix) -> float:
    """Largest violation ``max_ij |p_i W_ij - p_j W_ji|`` of reversibility."""
    _require_consistent(p, w)
    flux = p.mass[:, None] * w.entries
    return float(np.abs(flux - flux.T).max())


def _cdf(mass: np.ndarray) -> np.ndarray:
    """Cumulative sums, set to 1 where they reach their total: no ``u < 1`` draws past the mass."""
    cum = np.cumsum(mass, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    return cum


def _walk(rows: np.ndarray, start: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF paths, one per row of the uniforms ``u``, shape ``u.shape``.

    ``rows`` is one ``(K, K)`` matrix for every step or one per step,
    ``(n - 1, K, K)``.  ``start`` is one ``(K,)`` mass for every path or
    one per path, ``(R, K)``.  A uniform draws the number of cumulative
    entries ``<= u``, capped at ``K - 1`` by counting only the first
    ``K - 1``.  Vectorized comparisons build every step's next-state
    table; the loop over time is one gather per step.
    """
    r, n = u.shape
    k = start.shape[-1]
    offsets = np.arange(r) * k  # states as flat indices replicate * K + state
    cum = _cdf(rows).reshape(-1, k, k).transpose(1, 2, 0)[:, :, None]  # (from, to, 1, step)
    counts = np.zeros((k, r, n - 1), dtype=np.int64)
    for j in range(k - 1):
        counts += cum[:, j] <= u[:, 1:]
    table = np.add(counts.transpose(2, 1, 0), offsets[:, None], order="C")
    flat = np.empty((n, r), dtype=np.int64)
    flat[0] = cur = offsets + (_cdf(start)[..., :-1] <= u[:, :1]).sum(axis=1)
    for t, step in enumerate(table.reshape(n - 1, r * k), 1):
        flat[t] = cur = step[cur]
    flat -= offsets
    return np.ascontiguousarray(flat.T)


def simulate(
    w: StochasticMatrix, start: Distribution, n: int, seed: int
) -> StateSequence:
    """Sample a length-``n`` path, deterministically for a given seed."""
    _require_consistent(start, w)
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.random.default_rng(seed).random(n)
    return StateSequence(_walk(w.entries, start.mass, u[None])[0], w.size)


def _lockstep_walk(rows: np.ndarray, start: np.ndarray, owner: np.ndarray, u: np.ndarray, lengths) -> np.ndarray:
    """Inverse-CDF paths over a stack of matrices, one per row of ``u``: ``uint8``, shape ``u.shape``.

    Path ``r`` walks ``rows[owner[r]]`` (``rows`` is ``(M, K, K)``) from the
    mass ``start[owner[r]]`` (``start`` is ``(M, K)``), by ``_walk``'s draw
    rule, for ``lengths[r]`` steps (it holds 0 past them); ``K`` is at most
    256.  ``lengths`` must not increase, so the paths still walking at a
    step are a prefix, and all of them take the step together: it gathers
    the first ``K - 1`` cumulative entries of each one's current row and
    counts those ``<= u``.  No next-state table is built, so every per-step
    array has one entry per path.  ``_walk`` stays the walk of per-step
    rows: on one matrix and long paths its table is the faster loop, but
    over many matrices the table's memory traffic costs more than it saves.
    """
    r, n = u.shape
    k = start.shape[-1]
    cum = _cdf(rows)[..., :-1].reshape(-1, k - 1).T.copy()  # cum[j, matrix * K + state]: entry j of that row
    base = owner * k
    ut = np.ascontiguousarray(u.T)  # one step's uniforms per row
    path = np.zeros((n, r), dtype=np.uint8)
    path[0] = (_cdf(start)[owner, :-1] <= ut[0, :, None]).sum(axis=1)
    walking = np.searchsorted(-np.asarray(lengths), -np.arange(1, n))  # the paths longer than t
    flat = np.empty(r, dtype=np.intp)
    for t, a in enumerate(walking, 1):
        np.add(base[:a], path[t - 1, :a], out=flat[:a])
        hits = np.less_equal(cum.take(flat[:a], axis=1, mode="clip"), ut[t, :a])  # flat is in range: no check
        np.add.reduce(hits.view(np.uint8), axis=0, out=path[t, :a])
    return path.T


def simulate_batch(
    entries: np.ndarray, start: np.ndarray, n: int, replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized Monte-Carlo sampler: ``replicates`` independent paths of length ``n`` of one matrix.

    Returns an int64 array of shape ``(replicates, n)``.  Draws the start
    uniforms, then the steps, and walks all paths in lock-step: it is the
    one-matrix call of ``_lockstep_walk``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.column_stack([rng.random(replicates), rng.random((replicates, n - 1))])
    owner, lengths = np.zeros(replicates, dtype=np.intp), np.full(replicates, n)
    paths = _lockstep_walk(np.asarray(entries)[None], np.asarray(start)[None], owner, u, lengths)
    return paths.astype(np.int64, order="C")

"""Shared test helpers: independent constructions used as oracles."""

import numpy as np
import pytest

from maxent_markov import Distribution, StateSequence, StateSpace, StochasticMatrix


def power_iteration_stationary(entries: np.ndarray, iters: int = 200_000, tol: float = 1e-14):
    """Left power iteration on the lazy chain; independent of the library path."""
    k = entries.shape[0]
    lazy = 0.5 * (np.eye(k) + entries)
    p = np.full(k, 1.0 / k)
    for _ in range(iters):
        p_next = p @ lazy
        if np.abs(p_next - p).max() < tol:
            return p_next / p_next.sum()
        p = p_next
    return p / p.sum()


def sliced(series: StateSequence, start: int, stop: int) -> StateSequence:
    """The observations ``start:stop`` of ``series`` as a sequence of their own."""
    return StateSequence(series.indices[start:stop], series.n_states)


def random_irreducible(rng: np.random.Generator, k: int) -> StochasticMatrix:
    """Strictly positive rows drawn flat on the simplex (irreducible a.s.)."""
    entries = rng.dirichlet(np.ones(k), size=k)
    entries = np.maximum(entries, 1e-9)
    entries = entries / entries.sum(axis=1, keepdims=True)
    return StochasticMatrix(entries, StateSpace.default(k))


def detailed_balance_pair(rng: np.random.Generator, states: StateSpace, target: float):
    """Random reversible chain with the exact target autocorrelation.

    Draws a random symmetric joint matrix and mixes it linearly with an
    extremal one; the autocorrelation is linear in the joint matrix, so
    the mixing weight is exact.  Returns (matrix, stationary) or None when
    the draw cannot reach the target with an interior mixture.
    """
    k = states.size
    x = states.as_array()
    raw = rng.random((k, k))
    joint = raw + raw.T
    joint = joint / joint.sum()
    a_rand = float((np.outer(x, x) * joint).sum())

    extreme = np.zeros((k, k))
    if target >= a_rand:
        i = int(np.argmax(x**2))
        extreme[i, i] = 1.0  # parked at the extreme state
    else:
        extreme[0, k - 1] = extreme[k - 1, 0] = 0.5  # alternating extremes
    a_ext = float((np.outer(x, x) * extreme).sum())
    if abs(a_ext - a_rand) < 1e-12:
        return None
    theta = (target - a_rand) / (a_ext - a_rand)
    if not 0.0 <= theta < 0.999:
        return None
    mixed = (1.0 - theta) * joint + theta * extreme
    p = mixed.sum(axis=1)
    if p.min() <= 1e-12:
        return None
    entries = mixed / p[:, None]
    return StochasticMatrix(entries, states), Distribution(p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

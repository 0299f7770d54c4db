import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxent_markov as mm
from maxent_markov import (
    Distribution,
    ReducibleChainError,
    StateSequence,
    StateSpace,
    StochasticMatrix,
    detailed_balance_residual,
    entropy_rate,
    is_irreducible,
    matrix_autocorrelation,
    simulate,
    stationary_distribution,
)
from maxent_markov.chains import _entropy_rates, _irreducible, _lockstep_walk, _stationary_masses, _walk, simulate_batch
from maxent_markov.nonstationary import TimeVaryingMatrix, generate_time_varying

from conftest import power_iteration_stationary, random_irreducible


def mat2(a, b, c, d):
    return StochasticMatrix(np.array([[a, b], [c, d]]), StateSpace.binary())


class TestTypes:
    def test_state_space_requires_increasing(self):
        with pytest.raises(ValueError):
            StateSpace((1.0, -1.0))
        with pytest.raises(ValueError):
            StateSpace((0.0, 0.0))
        with pytest.raises(ValueError):
            StateSpace((1.0,))

    def test_default_state_codes(self):
        assert StateSpace.default(2).values == (-1.0, 1.0)
        assert StateSpace.default(3).values == (-1.0, 0.0, 1.0)
        assert StateSpace.default(5).values == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert StateSpace.default(4).values == (-3.0, -1.0, 1.0, 3.0)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Distribution(np.array([1.2, -0.2]))
        d = Distribution(np.array([0.25, 0.75]))
        assert d.mass.flags.writeable is False

    def test_matrix_row_sum_tolerance(self):
        with pytest.raises(ValueError):
            mat2(0.6, 0.5, 0.4, 0.6)
        w = mat2(0.6, 0.4, 0.4, 0.6)
        assert w.entries.flags.writeable is False
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[1.0, 0.0]]), StateSpace.binary())

    def test_nan_is_rejected(self):
        # every comparison with NaN is False, so only tests that must hold catch it
        with pytest.raises(ValueError):
            mat2(np.nan, np.nan, 0.5, 0.5)
        with pytest.raises(ValueError):
            Distribution(np.array([np.nan, np.nan]))
        stack = TimeVaryingMatrix(lambda t: np.full((t.size, 2, 2), np.nan), StateSpace.binary())
        with pytest.raises(ValueError):
            stack.entries(np.arange(3))

    def test_uniform_rows_sum_to_one(self):
        for k in (2, 3, 5):
            w = StochasticMatrix.uniform(StateSpace.default(k))
            assert np.abs(w.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_state_sequence_bounds(self):
        with pytest.raises(ValueError):
            StateSequence(np.array([0, 2]), 2)
        with pytest.raises(ValueError):
            StateSequence(np.array([0.5]), 2)
        s = StateSequence(np.array([0, 1, 0]), 2)
        assert len(s) == 3
        assert list(s.values(StateSpace.binary())) == [-1.0, 1.0, -1.0]


class TestStationary:
    def test_symmetric_matrix_is_uniform(self):
        p = stationary_distribution(mat2(0.6, 0.4, 0.4, 0.6))
        np.testing.assert_allclose(p.mass, [0.5, 0.5], atol=1e-12)

    def test_asymmetric_matches_closed_form_and_power_iteration(self):
        w = mat2(0.7, 0.3, 0.5, 0.5)
        p = stationary_distribution(w)
        # closed form for two states: p_low = (1 - stay_high) / (2 - stay_low - stay_high)
        assert p.mass[0] == pytest.approx(0.625, abs=1e-12)
        oracle = power_iteration_stationary(w.entries)
        np.testing.assert_allclose(p.mass, oracle, atol=1e-10)

    def test_identity_is_rejected(self):
        with pytest.raises(ReducibleChainError):
            stationary_distribution(mat2(1.0, 0.0, 0.0, 1.0))

    def test_absorbing_chain_is_rejected(self):
        with pytest.raises(ReducibleChainError):
            stationary_distribution(mat2(1.0, 0.0, 0.5, 0.5))

    def test_periodic_chain_has_uniform_stationary(self):
        p = stationary_distribution(mat2(0.0, 1.0, 1.0, 0.0))
        np.testing.assert_allclose(p.mass, [0.5, 0.5], atol=1e-12)

    def test_random_matrices_satisfy_fixed_point(self, rng):
        for _ in range(1000):
            k = int(rng.integers(2, 4))
            w = random_irreducible(rng, k)
            p = stationary_distribution(w)
            assert np.abs(p.mass @ w.entries - p.mass).max() <= 1e-14

    def test_irreducibility_detector(self):
        assert is_irreducible(mat2(0.5, 0.5, 0.5, 0.5))
        assert not is_irreducible(mat2(1.0, 0.0, 0.0, 1.0))

    def test_near_identity_chain_is_exact(self):
        # two-state closed form: p = (W_10, W_01) / (W_01 + W_10) = (1/3, 2/3)
        p = stationary_distribution(mat2(1 - 1e-12, 1e-12, 5e-13, 1 - 5e-13))
        np.testing.assert_allclose(p.mass, [1 / 3, 2 / 3], rtol=0, atol=1e-15)

    def test_birth_death_chains_match_detailed_balance_product(self, rng):
        # a birth-death chain is reversible: p_(i+1) / p_i = W_(i,i+1) / W_(i+1,i)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            rates = 10.0 ** rng.uniform(-12, np.log10(0.5), size=(2, k - 1))
            entries = np.diag(rates[0], 1) + np.diag(rates[1], -1)
            entries += np.diag(1.0 - entries.sum(axis=1))
            w = StochasticMatrix(entries, StateSpace.default(k))
            up, down = np.diag(w.entries, 1), np.diag(w.entries, -1)
            expected = np.concatenate([[1.0], np.cumprod(up / down)])
            expected /= expected.sum()
            np.testing.assert_allclose(stationary_distribution(w).mass, expected, rtol=1e-13, atol=0)

    def test_tiny_cycle_is_irreducible_and_uniform(self):
        # 1e-170 cubed underflows, so floating-point powers of W lose the cycle
        entries = np.eye(3) * (1 - 1e-170) + np.roll(np.eye(3), 1, axis=1) * 1e-170
        w = StochasticMatrix(entries, StateSpace.ternary())
        assert is_irreducible(w)
        np.testing.assert_allclose(stationary_distribution(w).mass, 1 / 3, rtol=1e-15, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_irreducible_chains_with_tiny_entries_solve(self, data):
        k = data.draw(st.integers(2, 6))
        entry = st.one_of(st.just(0.0), st.floats(-12, 0).map(lambda e: 10.0**e))
        raw = np.array(data.draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
        # a positive k-cycle through a drawn ordering makes every chain irreducible
        order = data.draw(st.permutations(range(k)))
        cycle = (np.array(order), np.roll(order, -1))
        raw[cycle] = np.maximum(raw[cycle], 1e-12)
        w = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True), StateSpace.default(k))
        p = stationary_distribution(w).mass
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.abs(p @ w.entries - p).max() <= 1e-14


class TestEntropyRate:
    def test_uniform_two_state_is_log2(self):
        h = entropy_rate(Distribution.uniform(2), mat2(0.5, 0.5, 0.5, 0.5))
        assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_chain_is_zero(self):
        w = mat2(1.0, 0.0, 0.0, 1.0)
        assert entropy_rate(Distribution.uniform(2), w) == 0.0
        assert entropy_rate(Distribution(np.array([0.3, 0.7])), w) == 0.0

    def test_direct_summation_oracle(self):
        # -(0.6 ln 0.6 + 0.4 ln 0.4), summed by hand
        expected = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4))
        assert expected == pytest.approx(0.6730116670092565, abs=1e-12)
        h = entropy_rate(Distribution.uniform(2), mat2(0.6, 0.4, 0.4, 0.6))
        assert h == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_log_k(self, rng):
        for k in (2, 3):
            for _ in range(50):
                w = random_irreducible(rng, k)
                p = stationary_distribution(w)
                h = entropy_rate(p, w)
                assert -1e-12 <= h <= math.log(k) + 1e-12

    def test_permutation_invariance(self, rng):
        w = random_irreducible(rng, 3)
        p = stationary_distribution(w)
        perm = np.array([2, 0, 1])
        w_perm = StochasticMatrix(w.entries[np.ix_(perm, perm)], w.states)
        p_perm = Distribution(p.mass[perm])
        assert entropy_rate(p, w) == pytest.approx(entropy_rate(p_perm, w_perm), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            entropy_rate(Distribution.uniform(3), mat2(0.5, 0.5, 0.5, 0.5))


class TestAutocorrelation:
    def test_maxent_form_roundtrip(self):
        # stay probability (1+A)/2 with uniform stationary gives back A
        a = 0.2
        w = mat2((1 + a) / 2, (1 - a) / 2, (1 - a) / 2, (1 + a) / 2)
        p = stationary_distribution(w)
        assert matrix_autocorrelation(p, w) == pytest.approx(a, abs=1e-12)

    def test_identity_is_one(self):
        w = mat2(1.0, 0.0, 0.0, 1.0)
        assert matrix_autocorrelation(Distribution.uniform(2), w) == pytest.approx(1.0)

    def test_uniform_ternary_is_zero(self):
        w = StochasticMatrix.uniform(StateSpace.ternary())
        assert matrix_autocorrelation(Distribution.uniform(3), w) == pytest.approx(0.0, abs=1e-12)

    def test_plus_minus_one_range(self, rng):
        for _ in range(100):
            w = random_irreducible(rng, 2)
            p = stationary_distribution(w)
            assert -1 - 1e-12 <= matrix_autocorrelation(p, w) <= 1 + 1e-12

    def test_time_reversal_invariance_under_detailed_balance(self, rng):
        from conftest import detailed_balance_pair

        pair = None
        while pair is None:
            pair = detailed_balance_pair(rng, StateSpace.ternary(), 0.25)
        w, p = pair
        reversed_entries = (p.mass[:, None] * w.entries).T / p.mass[:, None]
        w_rev = StochasticMatrix(reversed_entries, w.states)
        assert matrix_autocorrelation(p, w) == pytest.approx(
            matrix_autocorrelation(p, w_rev), abs=1e-12
        )


class TestDetailedBalance:
    def test_symmetric_uniform_is_zero(self):
        assert detailed_balance_residual(Distribution.uniform(2), mat2(0.6, 0.4, 0.4, 0.6)) == 0.0

    def test_maxent_form_satisfies_balance(self):
        a = 0.2
        w = mat2((1 + a) / 2, (1 - a) / 2, (1 - a) / 2, (1 + a) / 2)
        p = stationary_distribution(w)
        assert detailed_balance_residual(p, w) <= 1e-15

    def test_hand_evaluation(self):
        # |0.5 * 0.1 - 0.5 * 0.5| = 0.2
        w = mat2(0.9, 0.1, 0.5, 0.5)
        assert detailed_balance_residual(Distribution.uniform(2), w) == pytest.approx(0.2)


class TestSimulate:
    def test_identity_stays_put(self):
        w = mat2(1.0, 0.0, 0.0, 1.0)
        seq = simulate(w, Distribution.point(2, 0), 5, seed=1)
        assert list(seq.indices) == [0, 0, 0, 0, 0]

    def test_uniform_chain_autocorrelation_vanishes(self):
        w = mat2(0.5, 0.5, 0.5, 0.5)
        n = 100_000
        seq = simulate(w, Distribution.uniform(2), n, seed=7)
        x = seq.values(StateSpace.binary())
        acf = (x[:-1] * x[1:]).mean()
        assert abs(acf) < 0.02  # ~3 sigma at this length

    def test_same_seed_reproduces(self):
        w = mat2(0.7, 0.3, 0.2, 0.8)
        a = simulate(w, Distribution.uniform(2), 500, seed=42)
        b = simulate(w, Distribution.uniform(2), 500, seed=42)
        assert np.array_equal(a.indices, b.indices)
        c = simulate(w, Distribution.uniform(2), 500, seed=43)
        assert not np.array_equal(a.indices, c.indices)

    def test_empirical_frequencies_converge(self, rng):
        w = random_irreducible(rng, 3)
        seq = simulate(w, Distribution.uniform(3), 200_000, seed=3)
        idx = seq.indices
        counts = np.zeros((3, 3))
        np.add.at(counts, (idx[:-1], idx[1:]), 1.0)
        freq = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(freq - w.entries).max() < 0.02

    def test_batch_matches_marginals(self, rng):
        w = mat2(0.7, 0.3, 0.4, 0.6)
        p = stationary_distribution(w)
        paths = simulate_batch(w.entries, p.mass, 50, 4000, rng)
        assert paths.shape == (4000, 50) and paths.dtype == np.int64
        occupancy = (paths == 0).mean()
        assert abs(occupancy - p.mass[0]) < 0.02

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            simulate(mat2(0.5, 0.5, 0.5, 0.5), Distribution.uniform(2), 0, seed=0)

    @pytest.mark.parametrize("n", [0, -4])
    def test_batch_rejects_bad_length(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            simulate_batch(np.full((2, 2), 0.5), np.full(2, 0.5), n, 3, np.random.default_rng(0))


def gth_one_matrix(entries):
    """Grassmann-Taksar-Heyman reduction of one matrix, entry by entry: outer-product updates, 1-D dot products."""
    a = entries.copy()
    k = len(a)
    for n in range(k - 1, 0, -1):
        a[:n, n] /= a[n, :n].sum()
        a[:n, :n] += np.outer(a[:n, n], a[n, :n])
    p = np.ones(k)
    for n in range(1, k):
        p[n] = p[:n] @ a[:n, n]
    return p / p.sum()


def gth_exact(entries):
    """The stationary masses of a float matrix in exact rational arithmetic, each rounded once to a float."""
    a = [[Fraction(x) for x in row] for row in entries.tolist()]
    k = len(a)
    for n in range(k - 1, 0, -1):
        departures = sum(a[n][:n])
        for i in range(n):
            a[i][n] /= departures
        for i in range(n):
            for j in range(n):
                a[i][j] += a[i][n] * a[n][j]
    p = [Fraction(1)]
    for n in range(1, k):
        p.append(sum(p[i] * a[i][n] for i in range(n)))
    total = sum(p)
    return np.array([float(x / total) for x in p])


@st.composite
def irreducible_stacks(draw):
    """``(M, K, K)`` irreducible matrices with exact zeros and entries down to 1e-12 (near-reducible rows)."""
    k, m = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0.0), st.floats(-12, 0).map(lambda e: 10.0**e), st.floats(0.0, 1.0))
    raw = np.array(draw(st.lists(entry, min_size=m * k * k, max_size=m * k * k))).reshape(m, k, k)
    for block in raw:  # a positive k-cycle through a drawn ordering makes each matrix irreducible
        order = draw(st.permutations(range(k)))
        cycle = (np.array(order), np.roll(order, -1))
        block[cycle] = np.maximum(block[cycle], draw(st.sampled_from([1e-12, 0.5])))
    return raw / raw.sum(axis=-1, keepdims=True)


class TestStackedChainQuantities:
    @settings(max_examples=200, deadline=None)
    @given(irreducible_stacks())
    def test_stacked_results_equal_each_matrix_alone(self, stack):
        k = stack.shape[-1]
        masses, rates = _stationary_masses(stack), _entropy_rates(_stationary_masses(stack), stack)
        assert np.all(_irreducible(stack))
        for entries, mass, rate in zip(stack, masses, rates):
            w = StochasticMatrix(entries, StateSpace.default(k))
            p = stationary_distribution(w)
            assert mass.tolist() == p.mass.tolist() == gth_one_matrix(w.entries).tolist()
            assert rate == entropy_rate(p, w)

    @settings(max_examples=100, deadline=None)
    @given(irreducible_stacks(), st.data())
    def test_one_reducible_matrix_fails_the_stack(self, stack, data):
        k = stack.shape[-1]
        reducible = np.full((k, k), 1.0 / k)
        reducible[0] = np.eye(k)[0]  # state 0 absorbs: no other state is reachable from it
        at = data.draw(st.integers(0, len(stack)))
        mixed = np.insert(stack, at, reducible, axis=0)
        expected = [is_irreducible(StochasticMatrix(e, StateSpace.default(k))) for e in mixed]
        assert _irreducible(mixed).tolist() == expected == [i != at for i in range(len(mixed))]
        with pytest.raises(ReducibleChainError):
            _stationary_masses(mixed)

    # irreducible, with stationary masses from ~1 down to ~3e-401: the unscaled
    # back-substitution overflows (3e300 * 1e100) and its masses come out [0, 0, 0, nan, nan]
    WIDE = [[1e-300, 1, 1e-200, 1e-300, 0], [0, 1e-100, 0, 1, 0], [1e-300, 1, 0, 0, 0],
            [0, 1e-300, 1e-300, 1, 1e-300], [0, 1, 0, 0, 1e-200]]

    def test_masses_wider_than_a_double_stay_finite(self):
        w = StochasticMatrix(np.array(self.WIDE), StateSpace.default(5))
        exact = gth_exact(w.entries)
        assert exact[0] == 0.0 and exact[3] == pytest.approx(1.0)
        np.testing.assert_allclose(stationary_distribution(w).mass, exact, rtol=1e-12, atol=0)
        ordinary = np.full((5, 5), 0.2)
        masses = _stationary_masses(np.stack([w.entries, ordinary]))
        np.testing.assert_allclose(masses[0], exact, rtol=1e-12, atol=0)
        assert masses[1].tolist() == gth_one_matrix(ordinary).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_wide_masses_are_finite_and_finite_ones_unchanged(self, k, data):
        # entries down to 1e-300: some reductions overflow (or divide by an underflowed 0)
        entry = st.one_of(st.just(0.0), st.floats(-300, 0).map(lambda e: 10.0**e))
        raw = np.array(data.draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
        cycle = (np.arange(k), np.roll(np.arange(k), -1))
        raw[cycle] = np.maximum(raw[cycle], data.draw(st.floats(-300, 0).map(lambda e: 10.0**e)))
        entries = raw / raw.sum(axis=-1, keepdims=True)
        mass = _stationary_masses(entries)
        assert np.all(np.isfinite(mass)) and np.all(mass >= 0) and abs(mass.sum() - 1.0) <= 1e-12
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            unscaled = gth_one_matrix(entries)
        if np.all(np.isfinite(unscaled)):
            assert mass.tolist() == unscaled.tolist()
        else:  # the logarithmic reduction: ~1e-16 per addition of logarithms up to ~700
            np.testing.assert_allclose(mass, gth_exact(entries), rtol=1e-12, atol=1e-300)

    def test_entropy_rates_take_the_stack_shape(self):
        stack = np.array([[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]])
        rates = _entropy_rates(np.full((2, 2), 0.5), stack)
        assert rates.shape == (2,) and rates[0] == pytest.approx(math.log(2)) and rates[1] == 0.0


def oracle_walk(rows, start, u):
    """Per-step inverse CDF: ``searchsorted(cumsum(row), u, side="right")``.

    A uniform beyond the accumulated mass (a row summing to just under
    one) falls to the row's last state with positive probability.
    """
    def draw(mass, v):
        last = int(np.flatnonzero(mass > 0)[-1])
        return min(int(np.searchsorted(np.cumsum(mass), v, side="right")), last)

    path = [draw(start, u[0])]
    for t in range(1, len(u)):
        row = rows[path[-1]] if rows.ndim == 2 else rows[t - 1][path[-1]]
        path.append(draw(row, u[t]))
    return np.array(path)


@st.composite
def masses(draw, k, count):
    """``count`` probability vectors over ``k`` states with exact zeros."""
    out = []
    for _ in range(count):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
        if sum(weights) == 0:
            weights[draw(st.integers(0, k - 1))] = 1
        w = np.array(weights, dtype=float)
        out.append(w / w.sum())
    return np.array(out)


@st.composite
def walks(draw):
    """Transition rows (constant or per step), a start mass and uniforms.

    Uniforms include 0, the largest double below 1 and the cumulative
    entries themselves, where the tie rule decides.
    """
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 25))
    r = draw(st.integers(1, 4))
    per_step = draw(st.booleans())
    rows = draw(masses(k, k * (n - 1 if per_step else 1))).reshape(-1, k, k)
    rows = rows if per_step else rows[0]
    start = draw(masses(k, 1))[0]
    ties = np.unique(np.concatenate([np.cumsum(rows, axis=-1).ravel(), np.cumsum(start)]))
    ties = ties[ties < 1.0].tolist() + [0.0, 1.0 - 2.0**-53]
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(ties))
    u = np.array(draw(st.lists(uniform, min_size=r * n, max_size=r * n))).reshape(r, n)
    return rows, start, u


@st.composite
def lockstep_walks(draw):
    """A stack of matrices, their start masses, interleaved path owners and uniforms.

    Some uniforms are set to 0, the largest double below 1 or a cumulative
    entry, where the tie rule decides.
    """
    k = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 50]))
    rows = draw(masses(k, m * k)).reshape(m, k, k)
    starts = draw(masses(k, m))
    owner = np.array(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8)))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((owner.size, n))
    ties = np.unique(np.concatenate([np.cumsum(rows, axis=-1).ravel(), np.cumsum(starts, axis=-1).ravel()]))
    ties = ties[ties < 1.0].tolist() + [0.0, 1.0 - 2.0**-53]
    cell = st.tuples(st.integers(0, owner.size - 1), st.integers(0, n - 1), st.sampled_from(ties))
    for r, t, v in draw(st.lists(cell, max_size=3 * n)):
        u[r, t] = v
    return rows, starts, owner, u


class TestSamplerCore:
    @settings(max_examples=150, deadline=None)
    @given(lockstep_walks())
    def test_lockstep_walk_equals_per_path_walks(self, case):
        rows, starts, owner, u = case
        paths = _lockstep_walk(rows, starts, owner, u, np.full(owner.size, u.shape[1]))
        assert paths.shape == u.shape
        for path, m, uniforms in zip(paths, owner, u):
            np.testing.assert_array_equal(path, _walk(rows[m], starts[m], uniforms[None])[0])
            np.testing.assert_array_equal(path, oracle_walk(rows[m], starts[m], uniforms))

    @settings(max_examples=150, deadline=None)
    @given(lockstep_walks(), st.data())
    def test_mixed_lengths_equal_one_walk_per_length(self, case, data):
        rows, starts, owner, u = case
        n = u.shape[1]
        length = st.one_of(st.sampled_from([1, min(2, n)]), st.integers(1, n))
        lengths = np.array(sorted(data.draw(st.lists(length, min_size=owner.size, max_size=owner.size)), reverse=True))
        paths = _lockstep_walk(rows, starts, owner, u, lengths)
        assert paths.dtype == np.uint8 and paths.shape == u.shape
        for size in np.unique(lengths):
            mine = lengths == size
            alone = _lockstep_walk(rows, starts, owner[mine], u[mine, :size], np.full(mine.sum(), size))
            np.testing.assert_array_equal(paths[mine, :size], alone)
            assert not paths[mine, size:].any()

    def test_batch_output_is_pinned(self):
        rng = np.random.default_rng(11)
        entries = rng.dirichlet(np.ones(3), size=3)
        paths = simulate_batch(entries, np.array([0.2, 0.5, 0.3]), 40, 25, rng)
        assert paths.dtype == np.int64 and paths.shape == (25, 40) and paths.flags.c_contiguous
        digest = "130436539865f7da83e2ba1ffe577a8e3180911dec15f338bf53cb34d0243577"
        assert hashlib.sha256(paths.tobytes()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(walks())
    def test_matches_per_step_searchsorted(self, case):
        rows, start, u = case
        paths = _walk(rows, start, u)
        assert paths.shape == u.shape
        for path, uniforms in zip(paths, u):
            np.testing.assert_array_equal(path, oracle_walk(rows, start, uniforms))

    @settings(max_examples=150, deadline=None)
    @given(walks())
    def test_never_draws_a_zero_probability_state(self, case):
        rows, start, u = case
        paths = _walk(rows, start, u)
        assert np.all(start[paths[:, 0]] > 0)
        steps = np.arange(u.shape[1] - 1)
        per_step = rows if rows.ndim == 3 else np.broadcast_to(rows, (steps.size,) + rows.shape)
        assert np.all(per_step[steps, paths[:, :-1], paths[:, 1:]] > 0)

    @settings(max_examples=100, deadline=None)
    @given(walks(), st.data())
    def test_per_row_starts_match_per_step_searchsorted(self, case, data):
        rows, _, u = case
        starts = data.draw(masses(rows.shape[-1], u.shape[0]))
        paths = _walk(rows, starts, u)
        assert paths.shape == u.shape
        for path, start, uniforms in zip(paths, starts, u):
            np.testing.assert_array_equal(path, oracle_walk(rows, start, uniforms))

    @settings(max_examples=100, deadline=None)
    @given(walks())
    def test_batch_rows_equal_single_walks(self, case):
        rows, start, u = case
        paths = _walk(rows, start, u)
        for i in range(u.shape[0]):
            np.testing.assert_array_equal(paths[i], _walk(rows, start, u[i : i + 1])[0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(2, 6).flatmap(lambda k: masses(k, k + 1)),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
    )
    def test_constant_time_varying_process_equals_simulate(self, mass, n, seed):
        k = mass.shape[1]
        states = StateSpace.default(k)
        w = StochasticMatrix(mass[:k], states)
        start = Distribution(mass[k])
        process = TimeVaryingMatrix(lambda times: np.broadcast_to(w.entries, (times.size, k, k)), states)
        a = generate_time_varying(process, n, seed, start=start)
        b = simulate(w, start, n, seed)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_uniform_past_a_short_row_sum_stays_on_its_mass(self):
        # (1, 4, 1, 0) / 6 accumulates to just under one: a uniform at that
        # sum must not fall through to the zero-probability last state
        mass = np.array([1.0, 4.0, 1.0, 0.0]) / 6.0
        end = float(np.cumsum(mass)[-1])
        assert end < 1.0
        u = np.array([[end, end, 1.0 - 2.0**-53]])
        rows = np.tile(mass, (4, 1))
        np.testing.assert_array_equal(_walk(rows, mass, u), [[2, 2, 2]])
        np.testing.assert_array_equal(oracle_walk(rows, mass, u[0]), [2, 2, 2])

    def test_batch_draws_start_uniforms_then_steps(self):
        w = mat2(0.7, 0.3, 0.4, 0.6)
        start = np.array([0.25, 0.75])
        paths = simulate_batch(w.entries, start, 30, 5, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        u = np.column_stack([rng.random(5), rng.random((5, 29))])
        for path, uniforms in zip(paths, u):
            np.testing.assert_array_equal(path, oracle_walk(w.entries, start, uniforms))



def _records():
    """Every record type of the package by name, each with a function that builds a fresh one."""
    binary, seq = StateSpace.binary(), StateSequence(np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1]), 2)
    w = mat2(0.6, 0.4, 0.3, 0.7)
    q = lambda: mm.step_distribution(w, 0, 2)
    prices = lambda: mm.PriceSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.5, 1.2]))
    return {
        "StateSpace": StateSpace.binary,
        "Distribution": lambda: Distribution.uniform(2),
        "StochasticMatrix": lambda: StochasticMatrix.uniform(binary),
        "StateSequence": lambda: StateSequence(np.array([0, 1, 0]), 2),
        "SampleAutocorrelation": lambda: mm.sample_autocorrelation(seq, binary),
        "WindowEstimate": lambda: mm.sliding_window(seq, 4, "sampling", binary),
        "FoldedNormalStats": lambda: mm.folded_normal_stats(0.1, 0.2),
        "ErrorStats": lambda: mm.maxent_error_stats(w, 10),
        "CriticalSampleSize": lambda: mm.critical_sample_size(w, cap=5),
        "MuCurve": lambda: mm.mu_curve(2, [2], grid=2, cap=2)[0],
        "CriticalSizeMap": lambda: mm.critical_size_map(2, 2),
        "FeasibleRange": lambda: mm.feasible_range(binary),
        "MaxEntSolution": lambda: mm.maxent_2state(0.2),
        "LagrangeResiduals": lambda: mm.lagrange_residuals(mm.maxent_2state(0.2), binary),
        "PriceSeries": prices,
        "ReturnSeries": lambda: mm.to_returns(prices()),
        "TimeVaryingMatrix": lambda: TimeVaryingMatrix(np.ones, binary),
        "TrackingReport": lambda: mm.tracking_experiment(20.0, 30, 5, [0]),
        "StepDistribution": q,
        "TailCentiles": lambda: mm.symmetrized_centiles(q()),
        "BacktestReport": lambda: mm.backtest(seq, binary, [3], horizon=2, methods=("naive",)),
    }


# records without arrays compare by value; the ones holding arrays by identity
VALUE_RECORDS = {"StateSpace", "SampleAutocorrelation", "FoldedNormalStats", "FeasibleRange",
                 "LagrangeResiduals", "TimeVaryingMatrix"}


def test_every_record_compares_to_a_bool_and_hashes():
    records = _records()
    modules = [mm.chains, mm.estimators, mm.accuracy, mm.solver, mm.ingest, mm.nonstationary, mm.forecast]
    defined = {name for m in modules for name, obj in vars(m).items()
               if dataclasses.is_dataclass(obj) and obj.__module__ == m.__name__}
    assert defined == set(records)
    for name, make in records.items():
        a, b = make(), make()
        assert type(a).__name__ == name
        assert (a == b) is (name in VALUE_RECORDS) and (a != b) is (name not in VALUE_RECORDS), name
        assert (a == a) is True and isinstance(hash(a), int), name

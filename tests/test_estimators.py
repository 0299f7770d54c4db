import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_markov import (
    Distribution,
    StateSequence,
    StateSpace,
    feasible_range,
    frequency_estimate,
    matrix_autocorrelation,
    maxent_2state,
    maxent_entries,
    maxent_estimate,
    maxent_nstate,
    sample_autocorrelation,
    simulate,
    sliding_window,
    stationary_distribution,
)
from maxent_markov import estimators
from maxent_markov.estimators import CLAMP_MARGIN

from conftest import random_irreducible, sliced

BINARY = StateSpace.binary()
TERNARY = StateSpace.ternary()
SKEWED = StateSpace((0.0, 1.0, 3.0))


def seq(values, states=BINARY):
    lookup = {v: i for i, v in enumerate(states.values)}
    return StateSequence(np.array([lookup[float(v)] for v in values]), states.size)


class TestSampleAutocorrelation:
    def test_constant_series(self):
        assert sample_autocorrelation(seq([1] * 10), BINARY).value == 1.0

    def test_alternating_series(self):
        assert sample_autocorrelation(seq([1, -1] * 5), BINARY).value == -1.0

    def test_hand_enumeration(self):
        # pairs of (+1,+1,-1,+1): products 1, -1, -1 -> mean -1/3
        s = seq([1, 1, -1, 1])
        result = sample_autocorrelation(s, BINARY)
        assert result.value == pytest.approx(-1 / 3, abs=1e-15)
        assert result.n == 4

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            sample_autocorrelation(seq([1]), BINARY)

    def test_matches_matrix_autocorrelation_in_the_limit(self):
        stay = 0.65
        w = maxent_2state(2 * stay - 1).matrix
        n = 100_000
        series = simulate(w, Distribution.uniform(2), n, seed=11)
        sample = sample_autocorrelation(series, BINARY).value
        empirical_w = frequency_estimate(series)
        empirical_p = np.bincount(series.indices, minlength=2) / n
        model = matrix_autocorrelation(Distribution(empirical_p), empirical_w)
        assert abs(sample - model) < 0.02


class TestFrequencyEstimate:
    def test_hand_transition_count(self):
        # (-1,-1,+1,-1): from -1 twice (to -1, to +1), from +1 once (to -1)
        w = frequency_estimate(seq([-1, -1, 1, -1]))
        np.testing.assert_allclose(w.entries, [[0.5, 0.5], [1.0, 0.0]])
        assert w.filled_rows == ()

    def test_constant_series_flags_unvisited_row(self):
        w = frequency_estimate(seq([1, 1, 1, 1]))
        np.testing.assert_allclose(w.entries, [[0.5, 0.5], [0.0, 1.0]])
        assert w.filled_rows == (0,)

    def test_rows_always_sum_to_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            indices = rng.integers(0, 3, size=n)
            w = frequency_estimate(StateSequence(indices, 3))
            assert np.abs(w.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_law_of_large_numbers(self, rng):
        w_true = random_irreducible(rng, 2)
        series = simulate(w_true, Distribution.uniform(2), 1_000_000, seed=5)
        w_hat = frequency_estimate(series)
        assert np.abs(w_hat.entries - w_true.entries).max() < 0.01

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            frequency_estimate(seq([1]))

    def test_keeps_the_given_state_values(self):
        series = StateSequence([0, 1, 2, 2, 0], 3)
        w = frequency_estimate(series, SKEWED)
        assert w.states == SKEWED
        np.testing.assert_array_equal(w.entries[2], [0.5, 0.0, 0.5])

    def test_default_labels_are_the_symmetric_codes(self):
        assert frequency_estimate(seq([1, -1, 1])).states == BINARY

    def test_rejects_a_state_space_of_another_size(self):
        with pytest.raises(ValueError):
            frequency_estimate(StateSequence([0, 1, 2, 1], 3), BINARY)

    def test_stacked_counts_equal_per_path_counts(self, rng):
        paths = rng.integers(0, 4, size=(3, 5, 20))
        counts = estimators.transition_counts(paths, 4)
        assert counts.shape == (3, 5, 4, 4)
        for i, j in np.ndindex(3, 5):
            single = np.zeros((4, 4))
            np.add.at(single, (paths[i, j, :-1], paths[i, j, 1:]), 1.0)
            np.testing.assert_array_equal(counts[i, j], single)


def summed_frequencies(counts):
    """``transition_frequencies`` with departures from ``sum(axis=-1)``, the reference form."""
    departures = counts.sum(axis=-1, keepdims=True)
    return np.where(departures > 0, counts / np.maximum(departures, 1.0), 1.0 / counts.shape[-1])


@st.composite
def count_stacks(draw, k_values, cell):
    k = draw(k_values)
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    cells = draw(st.lists(cell, min_size=math.prod(lead) * k * k, max_size=math.prod(lead) * k * k))
    counts = np.array(cells, dtype=float).reshape(lead + (k, k))
    empty = draw(st.lists(st.booleans(), min_size=math.prod(lead) * k, max_size=math.prod(lead) * k))
    counts[np.array(empty, dtype=bool).reshape(lead + (k,))] = 0.0  # rows with no departures
    return counts


class TestTransitionFrequencies:
    @settings(max_examples=300, deadline=None)
    @given(count_stacks(st.integers(2, 9), st.integers(0, 2**40)))
    def test_integer_counts_equal_summed_rows(self, counts):
        assert estimators.transition_frequencies(counts).tolist() == summed_frequencies(counts).tolist()

    @settings(max_examples=300, deadline=None)
    @given(count_stacks(st.integers(2, 5), st.floats(0.0, 1e300, allow_subnormal=True)))
    def test_short_float_rows_equal_summed_rows(self, counts):
        assert estimators.transition_frequencies(counts).tolist() == summed_frequencies(counts).tolist()

    def test_window_stack_equals_summed_rows(self, rng):
        series = StateSequence(rng.integers(0, 3, size=5000), 3)
        rows, _ = estimators._window_rows(series, TERNARY, "sampling", np.arange(49, 5000), 50)
        idx = series.indices
        counts = np.stack([
            np.bincount(idx[t - 49 : t] * 3 + idx[t - 48 : t + 1], minlength=9).reshape(3, 3)
            for t in range(49, 5000)
        ]).astype(float)
        assert rows.tolist() == summed_frequencies(counts).tolist()


class TestMaxEntEstimate:
    def test_exact_fifth_autocorrelation(self):
        # five pair products 1,1,1,-1,-1 -> sample value exactly 0.2
        series = seq([1, 1, 1, 1, -1, 1])
        assert sample_autocorrelation(series, BINARY).value == pytest.approx(0.2)
        sol = maxent_estimate(series, BINARY)
        np.testing.assert_allclose(sol.matrix.entries, [[0.6, 0.4], [0.4, 0.6]], atol=1e-12)

    def test_zero_autocorrelation_gives_uniform(self):
        series = seq([1, -1, -1, 1])  # products -1, 1, -1 ... mean -1/3, adjust
        series = seq([1, 1, -1, -1, 1])  # products 1, -1, 1, -1 -> 0
        assert sample_autocorrelation(series, BINARY).value == 0.0
        sol = maxent_estimate(series, BINARY)
        np.testing.assert_allclose(sol.matrix.entries, 0.25 + 0.25, atol=1e-12)

    def test_constant_series_is_clamped(self):
        sol = maxent_estimate(seq([1] * 20), BINARY)
        assert sol.target_autocorrelation == pytest.approx(1 - 1e-6)
        # near-deterministic but valid: both stay probabilities (1 + A)/2
        assert sol.matrix.entries[0, 0] == pytest.approx(1 - 0.5e-6)
        assert sol.matrix.entries[1, 1] == pytest.approx(1 - 0.5e-6)
        assert sol.matrix.entries[0, 1] == pytest.approx(0.5e-6, rel=1e-9)

    def test_time_origin_invariance(self):
        # same multiset of consecutive pairs, different order
        a = seq([1, -1, 1, -1, 1])
        b = seq([-1, 1, -1, 1, -1])
        wa = maxent_estimate(a, BINARY).matrix.entries
        wb = maxent_estimate(b, BINARY).matrix.entries
        np.testing.assert_allclose(wa, wb, atol=1e-12)

    def test_ternary_series(self):
        series = seq([-1, 0, 1, 0, -1, 0, 1], TERNARY)
        sol = maxent_estimate(series, TERNARY)
        assert sol.residual <= 1e-8
        expected = sample_autocorrelation(series, TERNARY).value
        assert sol.target_autocorrelation == pytest.approx(expected)


@st.composite
def windowed_series(draw):
    """A series on a random integer state space (K <= 4, values in -2..2) and a window.

    Integer values make every window's pair-sum exact, so the sliding
    estimate and the estimate from the window alone see the same target.
    """
    values = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=4, unique=True))
    states = StateSpace(tuple(sorted(values)))
    indices = draw(st.lists(st.integers(0, states.size - 1), min_size=2, max_size=30))
    window = draw(st.integers(2, len(indices)))
    return states, StateSequence(np.array(indices), states.size), window


class TestSlidingWindow:
    def test_naive_is_constant(self):
        series = seq([1, -1, 1, 1, -1, -1, 1])
        est = sliding_window(series, 3, "naive", BINARY)
        assert np.all(est.entries == 0.5)
        assert list(est.times) == [2, 3, 4, 5, 6]

    def test_full_window_matches_single_estimate(self, rng):
        w = random_irreducible(rng, 2)
        series = simulate(w, Distribution.uniform(2), 200, seed=9)
        est = sliding_window(series, 200, "sampling", BINARY)
        assert est.entries.shape == (1, 2, 2)
        np.testing.assert_allclose(
            est.entries[0], frequency_estimate(series).entries, atol=1e-12
        )

    def test_window_content_matches_slice_estimates(self, rng):
        w = random_irreducible(rng, 2)
        series = simulate(w, Distribution.uniform(2), 60, seed=13)
        window = 10
        est_samp = sliding_window(series, window, "sampling", BINARY)
        est_max = sliding_window(series, window, "maxent", BINARY)
        for pos, t in enumerate(est_samp.times):
            piece = sliced(series, t - window + 1, t + 1)
            np.testing.assert_allclose(
                est_samp.entries[pos], frequency_estimate(piece).entries, atol=1e-12
            )
            np.testing.assert_allclose(
                est_max.entries[pos],
                maxent_estimate(piece, BINARY).matrix.entries,
                atol=1e-12,
            )

    def test_ternary_maxent_windows_match_slices(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 40, seed=17)
        window = 12
        est = sliding_window(series, window, "maxent", TERNARY)
        for pos, t in enumerate(est.times[:5]):
            piece = sliced(series, t - window + 1, t + 1)
            np.testing.assert_allclose(
                est.entries[pos],
                maxent_estimate(piece, TERNARY).matrix.entries,
                atol=1e-10,
            )

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            sliding_window(seq([1, -1]), 5, "sampling", BINARY)

    @pytest.mark.parametrize("method", ["maxent", "sampling", "naive"])
    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_two_rejected(self, method, window):
        # a window of 0 would report estimates at times -1 .. len - 1
        with pytest.raises(ValueError, match="window must be >= 2"):
            sliding_window(seq([1, -1, 1, 1, -1]), window, method, BINARY)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sliding_window(seq([1, -1, 1]), 2, "bogus", BINARY)

    def test_window_entries_are_row_stochastic(self):
        series = seq([1, -1, 1, 1, -1])
        est = sliding_window(series, 2, "maxent", BINARY)
        assert len(est.entries) == len(est.times)
        assert np.abs(est.entries.sum(axis=-1) - 1.0).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(windowed_series(), st.sampled_from(["maxent", "sampling", "naive"]))
    def test_every_window_equals_its_own_estimate(self, case, method):
        states, series, window = case
        est = sliding_window(series, window, method, states)
        for pos, t in enumerate(est.times.tolist()):
            piece = sliced(series, t - window + 1, t + 1)
            if method == "maxent":
                expected = maxent_estimate(piece, states).matrix.entries
            elif method == "sampling":
                expected = frequency_estimate(piece, states).entries
            else:
                expected = np.full((states.size, states.size), 1.0 / states.size)
            assert np.array_equal(est.entries[pos], expected)


def exact_entries(states, target):
    if states.values == (-1.0, 1.0):
        return maxent_2state(target).matrix.entries
    return maxent_nstate(states, target).matrix.entries


@st.composite
def lattice_batches(draw):
    """Integer pair-sums with a shared pair count or one count per window.

    Every batch also holds the two extreme pair-sums, whose targets sit on
    the boundary of the feasible range and are clamped.
    """
    states = draw(st.sampled_from([BINARY, TERNARY, SKEWED]))
    bounds = feasible_range(states)
    lower, upper = int(bounds.lower), int(bounds.upper)
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    shared = draw(st.booleans())
    if shared:
        counts = [counts[0]] * len(counts)
    sums = [draw(st.integers(lower * m, upper * m)) for m in counts]
    sums += [lower * counts[0], upper * counts[0]]
    counts += [counts[0]] * 2
    return states, np.array(sums), counts[0] if shared else np.array(counts)


class TestMaxEntEntries:
    @settings(max_examples=60, deadline=None)
    @given(lattice_batches())
    def test_equals_per_target_solves(self, batch):
        states, sums, n_pairs = batch
        counts = np.broadcast_to(n_pairs, sums.shape)
        clamp = feasible_range(states).clamp
        expected = np.stack(
            [
                exact_entries(states, clamp(s / m, CLAMP_MARGIN))
                for s, m in zip(sums.tolist(), counts.tolist())
            ]
        )
        assert np.array_equal(maxent_entries(states, sums, n_pairs), expected)

    def test_one_solve_per_distinct_target(self, monkeypatch):
        calls = []
        batch = estimators._maxent_batch

        def counting(states, targets):
            calls.append(list(targets))
            return batch(states, targets)

        monkeypatch.setattr(estimators, "_maxent_batch", counting)
        # 2/9 appears three times; 9/9 and 10/9 clamp to the same target
        entries = maxent_entries(TERNARY, np.array([2, 2, -1, 9, 2, 10]), 9)
        assert entries.shape == (6, 3, 3)
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == 3
        assert np.array_equal(entries[0], entries[4])
        assert np.array_equal(entries[3], entries[5])

    def test_empty_batch(self):
        assert maxent_entries(TERNARY, np.array([], dtype=int), 9).shape == (0, 3, 3)


@st.composite
def windows_per_end(draw):
    """A ``windowed_series`` case with trailing windows of mixed lengths, one per end."""
    states, series, _ = draw(windowed_series())
    ends = draw(st.lists(st.integers(1, len(series) - 1), min_size=1, max_size=12))
    windows = [draw(st.integers(2, t + 1)) for t in ends]
    return states, series, np.array(ends), np.array(windows)


class TestWindowRows:
    @settings(max_examples=60, deadline=None)
    @given(windows_per_end(), st.sampled_from(["maxent", "sampling", "naive"]))
    def test_gathered_rows_equal_the_per_window_estimators(self, case, method):
        states, series, ends, windows = case
        rows, which = estimators._window_rows(series, states, method, ends, windows)
        assert np.issubdtype(which.dtype, np.integer)
        assert which.shape == ends.shape
        if method == "naive":
            assert rows.shape[0] == 1
        elif method == "sampling":
            assert which.tolist() == list(range(ends.size))
        for i, (t, w) in enumerate(zip(ends.tolist(), windows.tolist())):
            piece = sliced(series, t - w + 1, t + 1)
            if method == "maxent":
                expected = maxent_estimate(piece, states).matrix.entries
            elif method == "sampling":
                expected = frequency_estimate(piece, states).entries
            else:
                expected = np.full((states.size, states.size), 1.0 / states.size)
            assert np.array_equal(rows[which[i]], expected)
        assert np.array_equal(estimators._window_entries(series, states, method, ends, windows), rows[which])

    @settings(max_examples=40, deadline=None)
    @given(windows_per_end())
    def test_maxent_has_one_row_per_distinct_clamped_target(self, case):
        states, series, ends, windows = case
        x = series.values(states)
        clamp = feasible_range(states).clamp
        targets = {
            clamp(float((x[t - w + 1 : t] * x[t - w + 2 : t + 1]).sum()) / (w - 1), CLAMP_MARGIN)
            for t, w in zip(ends.tolist(), windows.tolist())
        }
        rows, which = estimators._window_rows(series, states, "maxent", ends, windows)
        assert rows.shape == (len(targets), states.size, states.size)
        assert np.array_equal(np.unique(which), np.arange(len(targets)))

    # sha256 of the mu(n) sweep's lattice batch (every pair-sum of sizes 2..50)
    # as the batched solve gave it before maxent_entries became a gather; an
    # ulp-level change to the solver moves these on purpose
    LATTICE_SHA256 = {
        (-1.0, 0.0, 1.0): "dc3481dd7ef8ddd609b591f9997de2b3548055751973906fcd14e98b65bf9c44",
        (-1.0, 1.0): "8e05b8b1db0df2b7d64223aef253e53b197ab6d74422b102cefe26a2522ec62c",
        (0.0, 1.0, 3.0): "57ff673d16752c84b1937a25cc66e3bcc7e484d59c902d5672f76190bb80fee3",
    }

    @pytest.mark.parametrize("states", [TERNARY, BINARY, SKEWED], ids=["ternary", "binary", "skewed"])
    def test_maxent_entries_are_bit_identical_to_pinned(self, states):
        sizes = np.arange(2, 51)
        pair_sums = np.concatenate([np.arange(-(n - 1), n) for n in sizes])
        flat = maxent_entries(states, pair_sums, np.repeat(sizes - 1, 2 * sizes - 1))
        assert flat.shape == (pair_sums.size, states.size, states.size) and flat.dtype == np.float64
        assert hashlib.sha256(np.ascontiguousarray(flat).tobytes()).hexdigest() == self.LATTICE_SHA256[states.values]

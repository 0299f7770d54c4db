import itertools
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_markov import (
    Distribution,
    StateSequence,
    StateSpace,
    StochasticMatrix,
    backtest,
    frequency_estimate,
    maxent_estimate,
    realized_centile_fractions,
    simulate,
    step_distribution,
    symmetrized_centiles,
    tail_error,
)
from maxent_markov import forecast
from maxent_markov.estimators import METHODS, _window_entries
from maxent_markov.forecast import (
    N_TAIL_BINS,
    StepDistribution,
    TailCentiles,
    _assign,
    _step_masses,
    _weights,
)
from maxent_markov.nonstationary import autocorrelation_cycle, generate_time_varying

from conftest import random_irreducible

TERNARY = StateSpace.ternary()

# predicted mass of each atom in the ten lower and ten upper bins, ``(width, 10)`` each
WalkedBins = namedtuple("WalkedBins", "support probabilities lower upper target")


def split_one_side(mass, order, target):
    """Scalar reference splitter: walk atoms in ``order`` filling ten bins of ``target``."""
    out = np.zeros((mass.size, N_TAIL_BINS))
    bin_idx = 0
    room = target
    for i in order:
        remaining = mass[i]
        while remaining > forecast._DUST and bin_idx < N_TAIL_BINS:
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


def scalar_bins(q):
    """Tail bins of one forecast from the walked splitter."""
    target = q.total / 100.0
    n = q.probabilities.size
    lower = split_one_side(q.probabilities, range(n), target)
    upper = split_one_side(q.probabilities, range(n - 1, -1, -1), target)
    return WalkedBins(q.support, q.probabilities, lower, upper, target)


def walked_assign(value, bins):
    """The walked rule for a realized sum: its atom's split, or its cumulative position if unseen."""
    idx = int(np.searchsorted(bins.support, value))
    if idx < bins.support.size and bins.support[idx] == value and bins.probabilities[idx] > 0.0:
        return (bins.lower[idx] + bins.upper[idx]) / bins.probabilities[idx]
    weights = np.zeros(N_TAIL_BINS)
    below = float(bins.probabilities[:idx].sum())
    above = float(bins.probabilities.sum()) - below
    if below < N_TAIL_BINS * bins.target:
        weights[min(int(below / bins.target), N_TAIL_BINS - 1)] += 1.0
    if above < N_TAIL_BINS * bins.target:
        weights[min(int(above / bins.target), N_TAIL_BINS - 1)] += 1.0
    return weights


def walked_backtest(series, states, sizes, horizon, stride):
    """Backtest deltas under the walked rules: ``split_one_side`` bins and ``walked_assign``."""
    x = np.rint(series.values(states)).astype(int)
    delta = {}
    for m in METHODS:
        delta[m] = []
        for n in sizes:
            origins = np.arange(n - 1, len(series) - horizon, stride)
            entries = _window_entries(series, states, m, origins, np.full(origins.size, n))
            starts = series.indices[origins]
            support, masses = _step_masses(states, entries, starts, horizon)
            pred = np.zeros(N_TAIL_BINS)
            real = np.zeros(N_TAIL_BINS)
            for t, start, mass in zip(origins, starts, masses):
                bins = scalar_bins(StepDistribution(horizon, int(start), support, mass))
                pred += bins.lower.sum(axis=0) + bins.upper.sum(axis=0)
                real += walked_assign(int(x[t + 1 : t + horizon + 1].sum()), bins)
            delta[m].append(tail_error(TailCentiles(pred / origins.size), TailCentiles(real / origins.size)))
    return delta


def per_origin_backtest(series, states, sizes, horizon, methods, stride):
    """Reference backtest: one matrix, forecast and realized weight per origin and method."""
    k = states.size
    x = np.rint(series.values(states)).astype(int)
    delta = {m: [] for m in methods}
    for n in sizes:
        origins = range(n - 1, len(series) - horizon, stride)
        for m in methods:
            pred = np.zeros(N_TAIL_BINS)
            real = np.zeros(N_TAIL_BINS)
            for t in origins:
                window = series.slice(t - n + 1, t + 1)
                if m == "maxent":
                    entries = maxent_estimate(window, states).matrix.entries
                elif m == "sampling":
                    entries = frequency_estimate(window, states).entries
                else:
                    entries = np.full((k, k), 1.0 / k)
                q = step_distribution(StochasticMatrix(entries, states), int(series.indices[t]), horizon)
                pred += symmetrized_centiles(q).pi
                real += _assign(int(x[t + 1 : t + horizon + 1].sum()), q)
            used = len(origins)
            delta[m].append(tail_error(TailCentiles(pred / used), TailCentiles(real / used)))
    return delta


@st.composite
def integer_spaces(draw, bound=3):
    """Integer state spaces with K <= 5 and values within ``bound``, or the skewed (0, 1, 3)."""
    drawn = draw(st.lists(st.integers(-bound, bound), min_size=2, max_size=5, unique=True))
    return StateSpace(draw(st.sampled_from([(0, 1, 3), tuple(sorted(drawn))])))


def matrices_with_zeros(rng, k, count):
    """Row-stochastic stack whose entries are exactly zero about a third of the time."""
    entries = rng.dirichlet(np.ones(k), size=(count, k))
    entries[rng.random((count, k, k)) < 0.35] = 0.0
    entries[..., 0] += entries.sum(axis=-1) == 0.0  # no empty row
    return entries / entries.sum(axis=-1, keepdims=True)


def step_rows_with_zeros(rng, states, horizon, count):
    """Step-sum rows of matrices with exact zeros, and as many raw rows with zero atoms."""
    entries = matrices_with_zeros(rng, states.size, count)
    _, masses = _step_masses(states, entries, rng.integers(states.size, size=count), horizon)
    raw = rng.dirichlet(np.ones(masses.shape[1]), size=count) * (rng.random((count, 1)) + 0.5)
    raw[rng.random(raw.shape) < 0.3] = 0.0
    raw[:, 0] += raw.sum(axis=1) == 0.0
    return masses, raw


def enumerable_horizon(k, horizon):
    """Cap ``horizon`` so that path enumeration stays within 4096 paths."""
    return min(horizon, int(math.log(4096) / math.log(k)))


def enumerate_paths(entries, x_values, origin, horizon):
    """Brute-force oracle: sum the probability of every K**horizon path."""
    k = entries.shape[0]
    sums = {}
    for path in itertools.product(range(k), repeat=horizon):
        prob = 1.0
        current = origin
        total = 0
        for nxt in path:
            prob *= entries[current, nxt]
            total += int(x_values[nxt])
            current = nxt
        sums[total] = sums.get(total, 0.0) + prob
    return sums


class TestStepDistribution:
    def test_one_step_is_the_transition_row(self, rng):
        w = random_irreducible(rng, 3)
        for origin in range(3):
            q = step_distribution(w, origin, 1)
            assert q.mass[-1] == pytest.approx(w.entries[origin, 0])
            assert q.mass[0] == pytest.approx(w.entries[origin, 1])
            assert q.mass[1] == pytest.approx(w.entries[origin, 2])

    def test_two_steps_uniform(self):
        w = StochasticMatrix.uniform(TERNARY)
        q = step_distribution(w, 0, 2)
        expected = {-2: 1 / 9, -1: 2 / 9, 0: 3 / 9, 1: 2 / 9, 2: 1 / 9}
        for k, v in expected.items():
            assert q.mass[k] == pytest.approx(v, abs=1e-15)

    def test_path_enumeration_oracle(self, rng):
        for _ in range(10):
            w = random_irreducible(rng, 3)
            origin = int(rng.integers(3))
            q = step_distribution(w, origin, 5)
            oracle = enumerate_paths(w.entries, TERNARY.as_array(), origin, 5)
            for total, prob in oracle.items():
                assert q.mass[total] == pytest.approx(prob, abs=1e-12)
            assert q.total == pytest.approx(1.0, abs=1e-12)

    def test_composition_consistency(self, rng):
        # stepping s times must equal convolving the one-step kernel s times
        w = random_irreducible(rng, 3)
        s = 6
        direct = step_distribution(w, 1, s)
        state_mass = {1: {0: 1.0}}  # state -> {sum: prob}
        dist = {(1, 0): 1.0}
        for _ in range(s):
            nxt = {}
            for (state, total), prob in dist.items():
                for j in range(3):
                    key = (j, total + int(TERNARY.values[j]))
                    nxt[key] = nxt.get(key, 0.0) + prob * w.entries[state, j]
            dist = nxt
        sums = {}
        for (state, total), prob in dist.items():
            sums[total] = sums.get(total, 0.0) + prob
        for total, prob in sums.items():
            assert direct.mass[total] == pytest.approx(prob, abs=1e-12)

    def test_mass_conservation_long_horizons(self, rng):
        w = random_irreducible(rng, 3)
        for s in (1, 4, 8, 12):
            q = step_distribution(w, 2, s)
            assert q.total == pytest.approx(1.0, abs=1e-12)

    def test_non_integer_states_rejected(self):
        w = StochasticMatrix.uniform(StateSpace((-0.5, 0.5)))
        with pytest.raises(ValueError):
            step_distribution(w, 0, 2)

    def test_bad_arguments(self, rng):
        w = random_irreducible(rng, 3)
        with pytest.raises(ValueError):
            step_distribution(w, 0, 0)
        with pytest.raises(ValueError):
            step_distribution(w, 5, 2)


class TestBatchedCore:
    @settings(max_examples=60, deadline=None)
    @given(integer_spaces(), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_step_masses_match_path_enumeration(self, states, horizon, count, seed):
        rng = np.random.default_rng(seed)
        horizon = enumerable_horizon(states.size, horizon)
        entries = matrices_with_zeros(rng, states.size, count)
        origins = rng.integers(states.size, size=count)
        support, masses = _step_masses(states, entries, origins, horizon)
        x = states.as_array()
        for b in range(count):
            oracle = enumerate_paths(entries[b], x, int(origins[b]), horizon)
            mass = dict(zip(support.tolist(), masses[b]))
            assert set(oracle) <= set(mass)
            for total, prob in mass.items():
                assert prob == pytest.approx(oracle.get(total, 0.0), abs=1e-12)
            assert masses[b].sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(integer_spaces(), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_splitter_equals_scalar_reference(self, states, horizon, count, seed):
        # an atom's mass times its realized weights is its split over both sides
        for mass in step_rows_with_zeros(np.random.default_rng(seed), states, horizon, count):
            target = mass.sum(axis=1) / 100.0
            width = mass.shape[1]
            for b in range(count):
                weights = _weights(np.tile(mass[b], (width, 1)), np.full(width, target[b]), np.arange(width))
                walked = split_one_side(mass[b], range(width), target[b])
                walked += split_one_side(mass[b], range(width - 1, -1, -1), target[b])
                # the closed form and the walk round differently: 1e-13 of a bin apart
                np.testing.assert_allclose(mass[b][:, None] * weights, walked, rtol=0, atol=1e-13 * target[b])

    @settings(max_examples=60, deadline=None)
    @given(integer_spaces(), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_weighted_realized_atoms_fill_each_centile_with_two_targets(self, states, horizon, count, seed):
        # sum_i mass_i weights_i = 2 target in every bin: why each predicted centile is 2 target
        for mass in step_rows_with_zeros(np.random.default_rng(seed), states, horizon, count):
            width = mass.shape[1]
            for row in mass:
                target = row.sum() / 100.0
                weights = _weights(np.tile(row, (width, 1)), np.full(width, target), np.arange(width))
                np.testing.assert_allclose(row @ weights, 2 * target, rtol=1e-13, atol=0)
                q = StepDistribution(horizon, 0, np.arange(width), row)
                assert symmetrized_centiles(q).pi.tolist() == [2 * target] * N_TAIL_BINS

    # values within 2: (-3, -2, 0, 2, 3) and (-3, -2, 1, 2, 3) raise ConvergenceError at the clamped upper end
    @settings(max_examples=40, deadline=None)
    @given(
        integer_spaces(bound=2),
        st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True),
        st.integers(1, 8),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_backtest_equals_per_origin_loop(self, states, sizes, horizon, stride, seed):
        rng = np.random.default_rng(seed)
        w = StochasticMatrix(matrices_with_zeros(rng, states.size, 1)[0], states)
        series = simulate(w, Distribution.uniform(states.size), 60, seed=seed)
        report = backtest(series, states, sizes, horizon=horizon, stride=stride)
        expected = per_origin_backtest(series, states, sizes, horizon, report.delta, stride)
        for m, deltas in expected.items():
            assert report.delta[m].tolist() == deltas

    def test_zero_mass_realizations_take_the_assign_rule(self):
        # sampling windows of 3 give zero mass to many realized sums
        w = StochasticMatrix(matrices_with_zeros(np.random.default_rng(5), 3, 1)[0], TERNARY)
        series = simulate(w, Distribution.uniform(3), 300, seed=5)
        x = np.rint(series.values(TERNARY)).astype(int)
        unseen = [
            t for t in range(2, len(series) - 5, 2)
            if step_distribution(frequency_estimate(series.slice(t - 2, t + 1), TERNARY), int(series.indices[t]), 5)
            .mass.get(int(x[t + 1 : t + 6].sum()), 0.0) == 0.0
        ]
        assert unseen
        report = backtest(series, TERNARY, [3, 7], horizon=5, methods=("sampling",), stride=2)
        expected = per_origin_backtest(series, TERNARY, [3, 7], 5, ("sampling",), 2)
        assert report.delta["sampling"].tolist() == expected["sampling"]

    def test_backtest_is_within_1e_12_of_the_walked_rules(self):
        # criterion-7 paths; a zero-mass atom tied with a bin edge may fall either side, so no random draws
        process = autocorrelation_cycle(TERNARY, period=500, amplitude=0.4)
        sizes = (10, 20, 30, 40)
        for seed in (0, 1):
            series = generate_time_varying(process, 50_000, seed=seed)
            report = backtest(series, TERNARY, sizes, horizon=8, stride=25)
            walked = walked_backtest(series, TERNARY, sizes, 8, 25)
            for m in METHODS:
                np.testing.assert_allclose(report.delta[m], walked[m], rtol=1e-12)


class TestCumulativeShares:
    def test_atom_inside_one_bin_weighs_exactly_one(self, rng):
        # a lower-tail atom whose cumulative span lies inside one bin credits it 1.0, not 1 - ulp
        hits = 0
        for _ in range(200):
            mass = rng.dirichlet(np.full(9, 0.3)) * rng.uniform(0.5, 1.5)
            mass[rng.random(9) < 0.3] *= 1e-9  # tiny atoms, where an overlap difference loses digits
            q = StepDistribution(4, 0, np.arange(-4, 5), mass)
            target = q.total / 100.0
            ends = np.cumsum(mass) / target
            starts = ends - mass / target
            inside = (np.floor(starts + 1e-6) == np.floor(ends - 1e-6)) & (ends < N_TAIL_BINS - 1e-6)
            far = ends[-1] - ends >= N_TAIL_BINS + 1e-6  # the mass above starts past the upper bins
            for i in np.flatnonzero(inside & far & (mass > 0)):
                expected = np.zeros(N_TAIL_BINS)
                expected[int(starts[i] + 1e-6)] = 1.0
                assert np.array_equal(_assign(i - 4, q), expected)
                hits += 1
        assert hits > 50

    def test_unseen_sum_past_the_tenth_bin_gets_nothing_from_that_side(self):
        q = StepDistribution(1, 0, np.array([-1, 0, 1]), np.array([0.05, 0.0, 0.95]))
        weights = _assign(0, q)
        # 5 % below: the sixth lower bin; 95 % above: past the ten upper bins
        assert weights.tolist() == [0.0] * 5 + [1.0] + [0.0] * 4
        q = StepDistribution(1, 0, np.array([-1, 0, 1]), np.array([0.5, 0.0, 0.5]))
        assert _assign(0, q).tolist() == [0.0] * N_TAIL_BINS

    @pytest.mark.xfail(strict=True, reason="a sum on an atom of mass at most _DUST gets weight 0 (ROADMAP item 5)")
    def test_sum_on_a_dust_atom_counts_like_an_unseen_sum(self):
        # today such an origin is dropped from the pooled fractions but still counted
        support = np.array([-1, 0, 1])
        dust = StepDistribution(1, 0, support, np.array([0.05, 1e-19, 0.95]))
        unseen = StepDistribution(1, 0, support, np.array([0.05, 0.0, 0.95]))
        assert _assign(0, dust).sum() == _assign(0, unseen).sum() == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sum_on_a_subnormal_atom_warns_nothing(self):
        # dividing the bin gaps by a subnormal width overflows; the clip and the dust rule give 0 anyway
        weights = _weights(np.array([[0.3, 1e-310, 0.7]]), np.array([0.01]), np.array([1]))
        assert weights.tolist() == [[0.0] * N_TAIL_BINS]

    def test_off_support_values_follow_the_walked_rule(self, rng):
        for _ in range(50):
            mass = rng.dirichlet(np.ones(4)) * rng.uniform(0.5, 1.5)
            mass[rng.random(4) < 0.3] = 0.0
            mass[0] += mass.sum() == 0.0
            q = StepDistribution(1, 0, np.array([-3, -1, 2, 4]), mass)
            for value in (-5, -2, 0, 1, 3, 6):
                assert np.array_equal(_assign(value, q), walked_assign(value, scalar_bins(q)))


class TestSymmetrizedCentiles:
    def test_total_tail_mass_is_fifth(self, rng):
        for _ in range(20):
            w = random_irreducible(rng, 3)
            q = step_distribution(w, int(rng.integers(3)), int(rng.integers(1, 9)))
            pi = symmetrized_centiles(q)
            assert pi.pi.sum() == pytest.approx(0.2, abs=1e-12)

    def test_each_centile_is_two_percent(self, rng):
        w = random_irreducible(rng, 3)
        q = step_distribution(w, 0, 6)
        np.testing.assert_allclose(symmetrized_centiles(q).pi, 0.02, atol=1e-12)

    def test_massless_distribution_rejected(self):
        q = StepDistribution(1, 0, np.array([-1, 0, 1]), np.zeros(3))
        with pytest.raises(ValueError, match="no mass"):
            symmetrized_centiles(q)
        with pytest.raises(ValueError, match="no mass"):
            _assign(0, q)

    def test_symmetric_distribution_splits_evenly(self):
        w = StochasticMatrix.uniform(TERNARY)
        q = step_distribution(w, 1, 2)
        np.testing.assert_allclose(symmetrized_centiles(q).pi, 0.02, atol=1e-15)
        # mirror symmetry of the atom split, q(k) = q(-k): a sum and its negation weigh the same
        for k in (0, 1, 2):
            np.testing.assert_allclose(_assign(k, q), _assign(-k, q), atol=1e-15)

    def test_five_atom_hand_quantile_oracle(self):
        # uniform two-step distribution: masses (1/9, 2/9, 3/9, 2/9, 1/9) on
        # sums -2..2; ten lower centiles of 0.01 each all fit inside the
        # lowest atom (mass 1/9 > 0.1), likewise the upper ones in the top atom,
        # so a realized -2 or 2 weighs each centile 0.01 / (1/9) and the rest nothing
        w = StochasticMatrix.uniform(TERNARY)
        q = step_distribution(w, 1, 2)
        np.testing.assert_allclose(_assign(-2, q), 0.09, atol=1e-14)
        np.testing.assert_allclose(_assign(2, q), 0.09, atol=1e-14)
        for value in (-1, 0, 1):
            np.testing.assert_allclose(_assign(value, q), 0.0, atol=1e-14)

    def test_atom_straddling_a_boundary_is_split(self):
        # masses (0.015, 0.985): the first atom fills lower centile 1 and half of 2;
        # the second fills the other half and the rest, and all ten upper centiles
        q = StepDistribution(1, 0, np.array([-1, 1]), np.array([0.015, 0.985]))
        split = q.probabilities[:, None] * np.array([_assign(-1, q), _assign(1, q)])
        np.testing.assert_allclose(split[0], [0.01, 0.005] + [0.0] * 8, rtol=0, atol=1e-15)
        np.testing.assert_allclose(split[1], [0.01, 0.015] + [0.02] * 8, rtol=0, atol=1e-15)


class TestTailError:
    def test_zero_when_equal(self):
        pi = TailCentiles(np.full(10, 0.02))
        assert tail_error(pi, pi) == 0.0

    def test_doubling_every_bin_gives_ten(self):
        pi = TailCentiles(np.full(10, 0.02))
        hat = TailCentiles(np.full(10, 0.04))
        assert tail_error(pi, hat) == pytest.approx(10.0)

    def test_single_doubled_bin_gives_one(self):
        pi = TailCentiles(np.full(10, 0.02))
        values = np.full(10, 0.02)
        values[0] = 0.04
        assert tail_error(pi, TailCentiles(values)) == pytest.approx(1.0)

    def test_rejects_zero_predicted_mass(self):
        bad = TailCentiles(np.concatenate([[0.0], np.full(9, 0.02)]))
        good = TailCentiles(np.full(10, 0.02))
        with pytest.raises(ValueError):
            tail_error(bad, good)

    def test_nonnegative_and_faithful(self, rng):
        pi = TailCentiles(np.full(10, 0.02))
        hat = TailCentiles(np.abs(rng.normal(0.02, 0.01, size=10)))
        err = tail_error(pi, hat)
        assert err >= 0
        assert (err == 0) == bool(np.all(hat.pi == pi.pi))


class TestRealizedFractions:
    def test_single_origin_in_lowest_centile(self, rng):
        # predicted distribution whose lowest atom has < 1% mass: a realized
        # sum there lies strictly inside the lowest centile
        q = StepDistribution(2, 0, np.array([-2, -1, 0, 1, 2]),
                             np.array([0.005, 0.095, 0.8, 0.095, 0.005]))
        series = StateSequence(np.array([0, 0, 0]), 3)  # sums to -2 after origin 0
        result = realized_centile_fractions(series, TERNARY, [0], 2, q)
        assert result.pi[0] == pytest.approx(1.0)
        np.testing.assert_allclose(result.pi[1:], 0.0, atol=1e-15)

    def test_split_atom_inherits_weights(self):
        q = StepDistribution(1, 0, np.array([-1, 1]), np.array([0.015, 0.985]))
        weights = _assign(-1, q)
        # the atom's mass 0.015 was split 0.01 / 0.005 between bins 1 and 2
        assert weights[0] == pytest.approx(0.01 / 0.015)
        assert weights[1] == pytest.approx(0.005 / 0.015)

    def test_skipped_origins_are_counted(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 30, seed=1)
        q = step_distribution(w, 0, 8)
        result = realized_centile_fractions(series, TERNARY, [0, 5, 28], 8, q)
        assert result.skipped == 1  # origin 28 has no 8-step future

    def test_self_consistency_monte_carlo(self, rng):
        # realizations drawn from the predicted chain itself: fractions must
        # converge to the predicted centile masses within binomial noise
        w = random_irreducible(rng, 3)
        horizon = 6
        series = simulate(w, Distribution.uniform(3), 120_000, seed=21)
        origin_state = 1
        origins = []
        last = -horizon - 1
        for t in range(len(series) - horizon):
            if series.indices[t] == origin_state and t >= last + horizon:
                origins.append(t)
                last = t
        origins = origins[:8000]
        q = step_distribution(w, origin_state, horizon)
        result = realized_centile_fractions(series, TERNARY, origins, horizon, q)
        n = len(origins)
        se = math.sqrt(0.02 * 0.98 / n)
        assert np.abs(result.pi - 0.02).max() < 3 * se + 1e-12

    def test_mismatched_bins_rejected(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 50, seed=2)
        q = step_distribution(w, 0, 4)
        with pytest.raises(ValueError):
            realized_centile_fractions(series, TERNARY, [0, 1], 4, [q])


class TestBacktest:
    def test_known_chain_oracle_prediction_converges(self, rng):
        # predictions from the true matrix: pooled tail error shrinks with
        # the number of origins (binomial averaging)
        w = random_irreducible(rng, 3)
        horizon = 5
        series = simulate(w, Distribution.uniform(3), 60_000, seed=3)
        by_state = {s: step_distribution(w, s, horizon) for s in range(3)}

        def delta_over(origins):
            forecasts = [by_state[int(series.indices[t])] for t in origins]
            realized = realized_centile_fractions(series, TERNARY, origins, horizon, forecasts)
            return tail_error(TailCentiles(np.full(10, 0.02)), realized)

        few = delta_over(list(range(0, 1000, horizon)))
        many = delta_over(list(range(0, 59_000, horizon)))
        assert many < few
        assert many < 0.6

    def test_report_shape_and_reproducibility(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 600, seed=4)
        report = backtest(series, TERNARY, [10, 20], horizon=4, stride=7)
        again = backtest(series, TERNARY, [10, 20], horizon=4, stride=7)
        for m in ("maxent", "sampling", "naive"):
            np.testing.assert_array_equal(report.delta[m], again.delta[m])
            assert report.delta[m].shape == (2,)
            assert np.all(report.delta[m] >= 0)

    def test_maxent_deltas_match_per_origin_estimates(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 400, seed=12)
        sizes, horizon, stride = [3, 10, 20], 4, 3
        report = backtest(series, TERNARY, sizes, horizon=horizon, methods=("maxent",), stride=stride)
        x = np.rint(series.values(TERNARY)).astype(int)
        for si, n in enumerate(sizes):
            pred = np.zeros(10)
            real = np.zeros(10)
            origins = range(n - 1, len(series) - horizon, stride)
            for t in origins:
                fitted = maxent_estimate(series.slice(t - n + 1, t + 1), TERNARY).matrix
                q = step_distribution(fitted, int(series.indices[t]), horizon)
                pred += symmetrized_centiles(q).pi
                real += _assign(int(x[t + 1 : t + horizon + 1].sum()), q)
            used = len(origins)
            expected = tail_error(TailCentiles(pred / used), TailCentiles(real / used))
            assert report.delta["maxent"][si] == expected
            assert report.origin_counts[si] == used

    def test_stride_reduces_origins(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 500, seed=6)
        dense = backtest(series, TERNARY, [10], horizon=4, stride=1)
        sparse = backtest(series, TERNARY, [10], horizon=4, stride=9)
        assert sparse.origin_counts[0] < dense.origin_counts[0]

    def test_rejects_short_series(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 20, seed=7)
        with pytest.raises(ValueError):
            backtest(series, TERNARY, [30], horizon=4)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"sample_sizes": []}, "sample_sizes"),
            ({"methods": ()}, "methods"),
            ({"methods": ("maxent", "sampling", "maxent")}, "methods"),
        ],
    )
    def test_rejects_empty_or_repeated_arguments(self, rng, kwargs, name):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 100, seed=8)
        kwargs = {"sample_sizes": [10], **kwargs}
        with pytest.raises(ValueError, match=name):
            backtest(series, TERNARY, **kwargs)

    def test_rejects_unknown_method(self, rng):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 100, seed=8)
        with pytest.raises(ValueError):
            backtest(series, TERNARY, [10], methods=("bogus",))

    def test_rejects_nan_window_estimates(self, rng, monkeypatch):
        w = random_irreducible(rng, 3)
        series = simulate(w, Distribution.uniform(3), 100, seed=8)
        nan_entries = lambda series, states, method, ends, windows: np.full((ends.size, 3, 3), np.nan)
        monkeypatch.setattr(forecast, "_window_entries", nan_entries)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            backtest(series, TERNARY, [10], methods=("sampling",))

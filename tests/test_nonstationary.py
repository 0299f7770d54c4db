import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxent_markov import nonstationary
from maxent_markov.chains import _walk
from maxent_markov.estimators import CLAMP_MARGIN
from maxent_markov import (
    Distribution,
    StateSpace,
    autocorrelation_cycle,
    generate_nonstationary,
    generate_time_varying,
    maxent_entries,
    matrix_autocorrelation,
    sliding_window,
    stationary_distribution,
    toy_matrix,
    toy_process,
    tracking_experiment,
)

# a ternary cycle with a short integer period: every phase is solved once
_SMALL_CYCLE = autocorrelation_cycle(StateSpace.ternary(), period=7, amplitude=0.4)


def per_seed_reference(period, length, window, seeds):
    """Each seed's own path through ``sliding_window``: stay-down traces per method, seed by seed."""
    process = nonstationary.toy_process(period)
    traces = {m: [] for m in ("maxent", "sampling")}
    for seed in seeds:
        series = generate_time_varying(process, length, seed)
        for method in traces:
            traces[method].append(sliding_window(series, window, method, process.states).entries[:, 0, 0])
    return traces


def block_straddling_lengths(block):
    """Path lengths around the first block boundary and just past the second."""
    return st.sampled_from([block - 1, block, block + 1, 2 * block + 1])


class TestToyMatrix:
    def test_phase_zero(self):
        w = toy_matrix(0, 500)
        np.testing.assert_allclose(w.entries, [[0.6, 0.4], [0.4, 0.6]], atol=1e-15)

    def test_quarter_period(self):
        # sin(pi/2) = 1 for the first row; sin(pi/2.4) = sin 75 deg for the second
        w = toy_matrix(125, 500)
        assert w.entries[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert w.entries[0, 1] == pytest.approx(0.3, abs=1e-12)
        s = math.sin(math.pi / 2.4)
        assert s == pytest.approx(0.965926, abs=1e-6)
        assert w.entries[1, 0] == pytest.approx(0.4 - 0.1 * s, abs=1e-12)
        assert w.entries[1, 1] == pytest.approx(0.6 + 0.1 * s, abs=1e-12)

    def test_half_period(self):
        # first row back at sin = 0; second row at sin(pi/1.2) = 0.5
        w = toy_matrix(250, 500)
        np.testing.assert_allclose(w.entries[0], [0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(w.entries[1], [0.35, 0.65], atol=1e-12)

    def test_rows_sum_exactly(self):
        for t in range(0, 3000, 37):
            w = toy_matrix(t, 500)
            np.testing.assert_allclose(w.entries.sum(axis=1), 1.0, atol=1e-15)
            assert w.entries.min() >= 0.3 - 1e-12
            assert w.entries.max() <= 0.7 + 1e-12

    def test_common_period_is_six_cycles(self):
        # the two rows oscillate with periods T and 1.2 T; both repeat after 6 T
        t_base = 123
        a = toy_matrix(t_base, 500).entries
        b = toy_matrix(t_base + 6 * 500, 500).entries
        np.testing.assert_allclose(a, b, atol=1e-12)
        c = toy_matrix(t_base + 500, 500).entries
        assert np.abs(a - c).max() > 1e-3  # one cycle is not enough

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            toy_matrix(0, 0)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_period(self, period):
        match = "period must be a positive finite number"
        with pytest.raises(ValueError, match=match):
            toy_matrix(0, period)
        with pytest.raises(ValueError, match=match):
            generate_nonstationary(period, 10, seed=0)
        with pytest.raises(ValueError, match=match):
            tracking_experiment(period, 100, 10, seeds=[0])


class TestGeneration:
    def test_same_seed_reproduces(self):
        a = generate_nonstationary(500, 1000, seed=4)
        b = generate_nonstationary(500, 1000, seed=4)
        assert np.array_equal(a.indices, b.indices)

    def test_windowed_occupancy_stays_in_band(self):
        series = generate_nonstationary(500, 100_000, seed=2)
        x = series.values(StateSpace.binary())
        # the stay probabilities never leave [0.3, 0.7]: both states recur
        assert (x == -1).mean() > 0.25
        assert (x == 1).mean() > 0.25
        quarter = x[:125_00]
        assert np.abs(quarter).max() == 1

    def test_windowed_empirical_coefficient_tracks_range(self):
        series = generate_nonstationary(500, 100_000, seed=8)
        idx = series.indices
        stays = []
        for start in range(0, 100_000 - 125, 125):
            win = idx[start : start + 125]
            from_low = win[:-1] == 0
            if from_low.sum() > 10:
                stays.append((win[1:][from_low] == 0).mean())
        stays = np.array(stays)
        assert stays.min() > 0.3 and stays.max() < 0.9
        assert (stays > 0.5).any() and (stays < 0.7).any()

    @pytest.mark.parametrize("ternary", [False, True])
    def test_block_walk_equals_one_walk(self, ternary):
        # paths ending just before, at and just after block boundaries, for
        # one seed and for three stacked seeds (blocks of cells // 3 steps)
        if ternary:
            process = autocorrelation_cycle(StateSpace.ternary(), period=40, amplitude=0.4)
        else:
            process = toy_process(333.3)
        start = stationary_distribution(process.at(0))
        block = nonstationary._BLOCK_CELLS
        for length in (1, 2, block, block + 1, block + 2, 2 * block + 1, 2 * block + 2):
            u = np.random.default_rng(length).random((1, length))
            expected = _walk(process.entries(np.arange(length - 1)), start.mass, u)[0]
            path = generate_time_varying(process, length, seed=length)
            assert np.array_equal(path.indices, expected)
        seeds = [4, 5, 6]
        block = nonstationary._BLOCK_CELLS // len(seeds)
        for length in (block, block + 1, block + 2, 2 * block + 1, 2 * block + 2):
            rows = process.entries(np.arange(length - 1))
            paths = nonstationary._paths(process, length, seeds)
            for seed, path in zip(seeds, paths):
                u = np.random.default_rng(seed).random((1, length))
                assert np.array_equal(path, _walk(rows, start.mass, u)[0])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 25).flatmap(
            lambda r: st.tuples(
                st.lists(st.integers(0, 2**32 - 1), min_size=r, max_size=r),
                block_straddling_lengths(nonstationary._BLOCK_CELLS // r),
            )
        ),
        st.booleans(),
        st.booleans(),
    )
    def test_stacked_rows_equal_whole_length_walks(self, case, ternary, stationary):
        seeds, length = case
        process = _SMALL_CYCLE if ternary else toy_process(97.0)
        k = process.states.size
        start = stationary_distribution(process.at(0)) if stationary else Distribution.point(k, k - 1)
        paths = nonstationary._paths(process, length, seeds, None if stationary else start)
        assert paths.shape == (len(seeds), length) and paths.dtype == np.int64
        rows = process.entries(np.arange(length - 1))
        for seed, path in zip(seeds, paths):
            u = np.random.default_rng(seed).random((1, length))
            np.testing.assert_array_equal(path, _walk(rows, start.mass, u)[0])

    def test_long_path_memory_is_bounded(self):
        # one 200k-step path: about 40 MB if every step's rows were held at once
        process = autocorrelation_cycle(StateSpace.ternary(), period=500, amplitude=0.4)
        process.entries(np.arange(500))  # solve the cycle outside the traced walk
        tracemalloc.start()
        try:
            generate_time_varying(process, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_generic_generator_matches_toy(self):
        process = toy_process(500.0)
        a = generate_time_varying(process, 800, seed=3)
        b = generate_nonstationary(500.0, 800, seed=3)
        assert np.array_equal(a.indices, b.indices)


class TestAutocorrelationCycle:
    def test_matrices_follow_target(self):
        states = StateSpace.ternary()
        process = autocorrelation_cycle(states, period=400, amplitude=0.35)
        for t in (0, 57, 100, 399):
            w = process.at(t)
            p = stationary_distribution(w)
            target = 0.35 * math.sin(2 * math.pi * t / 400)
            assert matrix_autocorrelation(p, w) == pytest.approx(target, abs=1e-8)

    def test_cache_is_periodic(self):
        process = autocorrelation_cycle(StateSpace.binary(), period=100, amplitude=0.3)
        np.testing.assert_allclose(
            process.at(13).entries, process.at(113).entries, atol=1e-15
        )

    def test_non_integer_period_keeps_no_per_step_cache(self):
        # t % period never repeats for a fractional period, so a cache keyed
        # by phase would hold one matrix per step of the series
        process = autocorrelation_cycle(StateSpace.ternary(), period=500.5, amplitude=0.3)
        process.entries(np.arange(1200))
        w = process.at(1199)
        target = 0.3 * math.sin(2 * math.pi * 1199 / 500.5)
        assert matrix_autocorrelation(stationary_distribution(w), w) == pytest.approx(
            target, abs=1e-8
        )
        held = [c.cell_contents for c in process.table.__closure__ or ()]
        cached = sum(len(v) for v in held if isinstance(v, (dict, list, np.ndarray)))
        assert cached <= 501

    def test_rejects_infeasible_swing(self):
        with pytest.raises(ValueError):
            autocorrelation_cycle(StateSpace.binary(), period=100, amplitude=1.2)


class TestTrackingExperiment:
    def test_report_alignment_and_bounds(self):
        report = tracking_experiment(500, 1500, 50, seeds=[0, 1])
        assert report.times.size == 1500 - 49
        assert report.true_coefficient.size == report.times.size
        for method in ("maxent", "sampling"):
            trace = report.estimates[method]
            assert trace.size == report.times.size
            assert trace.min() >= 0.0 and trace.max() <= 1.0
        assert report.per_seed_mae["maxent"].shape == (2,)

    def test_reproducible_given_seed_list(self):
        a = tracking_experiment(500, 1200, 50, seeds=[5, 6, 7])
        b = tracking_experiment(500, 1200, 50, seeds=[5, 6, 7])
        np.testing.assert_array_equal(a.estimates["maxent"], b.estimates["maxent"])
        assert a.mae == b.mae

    def test_single_window_degenerate_case(self):
        report = tracking_experiment(10_000, 301, 300, seeds=[1])
        assert report.times.size == 2
        for method in ("maxent", "sampling"):
            assert np.all(np.isfinite(report.estimates[method]))

    def test_maxent_tracks_better_on_the_toy_process(self):
        report = tracking_experiment(500, 5000, 50, seeds=range(4))
        assert report.mae["maxent"] < report.mae["sampling"]

    def test_over_averaged_windows_go_flat(self):
        # a window ten times the period cannot follow the oscillation: the
        # estimate trace collapses to the time average while the truth keeps
        # swinging
        report = tracking_experiment(500, 11_000, 5000, seeds=[0])
        truth_spread = report.true_coefficient.std()
        for method in ("maxent", "sampling"):
            trace = report.estimates[method]
            assert trace.std() < 0.25 * truth_spread
            assert np.abs(trace - 0.6).max() < 0.08

    @pytest.mark.parametrize("seeds", [[4], [0, 7, 2], list(range(3, 28))])
    def test_equals_per_seed_sliding_windows(self, seeds):
        # the reference: each seed's own path through sliding_window, accumulated in seed order
        period, length, window = 120, 700, 40
        report = tracking_experiment(period, length, window, seeds)
        process = nonstationary.toy_process(period)
        sums = {m: np.zeros(length - window + 1) for m in ("maxent", "sampling")}
        per_seed = {m: [] for m in sums}
        for seed in seeds:
            series = generate_time_varying(process, length, seed)
            for method in sums:
                trace = sliding_window(series, window, method, process.states).entries[:, 0, 0]
                sums[method] += trace
                per_seed[method].append(float(np.abs(trace - report.true_coefficient).mean()))
        for method in sums:
            assert report.estimates[method].tolist() == (sums[method] / len(seeds)).tolist()
            assert report.per_seed_mae[method].tolist() == per_seed[method]
            assert report.mae[method] == float(np.mean(per_seed[method]))

    @settings(max_examples=60, deadline=None)
    @given(
        period=st.floats(1.0, 2000.0),
        length=st.integers(3, 400),
        window_choice=st.integers(0, 2**16),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    )
    @example(period=37.5, length=300, window_choice=0, seeds=[9, 10, 11])  # fills and both lattice ends
    def test_traces_equal_per_seed_sliding_windows(self, period, length, window_choice, seeds):
        window = 2 + window_choice % (length - 2)  # 2 .. length - 1
        report = tracking_experiment(period, length, window, seeds)
        traces = per_seed_reference(period, length, window, seeds)
        for method, per_seed in traces.items():
            total = np.zeros(length - window + 1)
            for trace in per_seed:  # accumulated in seed order
                total += trace
            maes = [float(np.abs(trace - report.true_coefficient).mean()) for trace in per_seed]
            assert report.estimates[method].tolist() == (total / len(seeds)).tolist()
            assert report.per_seed_mae[method].tolist() == maes
            assert report.mae[method] == float(np.mean(maes))

    @pytest.mark.parametrize("window", [2, 3])
    def test_fills_and_lattice_ends_reach_the_report(self, window):
        # windows that never leave the low state carry no evidence for its row (1/2);
        # constant and alternating windows sit at the two clamped ends of the lattice
        period, length, seed = 37.5, 300, 9
        report = tracking_experiment(period, length, window, [seed])
        path = generate_time_varying(nonstationary.toy_process(period), length, seed).indices
        windows = np.lib.stride_tricks.sliding_window_view(path, window)
        unfilled = (windows[:, :-1] == 0).any(axis=1)
        constant = (windows[:, 1:] == windows[:, :-1]).all(axis=1)
        alternating = (windows[:, 1:] != windows[:, :-1]).all(axis=1)
        assert (~unfilled).any() and constant.any() and alternating.any()
        assert (report.estimates["sampling"][~unfilled] == 0.5).all()
        ends = maxent_entries(StateSpace.binary(), [window - 1, 1 - window], window - 1)[:, 0, 0]
        assert ends.tolist() == [(1.0 + (1.0 - CLAMP_MARGIN)) / 2.0, (1.0 + (CLAMP_MARGIN - 1.0)) / 2.0]
        assert (report.estimates["maxent"][constant] == ends[0]).all()
        assert (report.estimates["maxent"][alternating] == ends[1]).all()

    def test_rejects_window_below_two(self):
        for window in (1, 0):
            with pytest.raises(ValueError, match="window must be >= 2"):
                tracking_experiment(500, 100, window, seeds=[0])

    def test_needs_length_beyond_window(self):
        with pytest.raises(ValueError):
            tracking_experiment(500, 50, 50, seeds=[0])

    def test_needs_seeds(self):
        with pytest.raises(ValueError):
            tracking_experiment(500, 100, 50, seeds=[])

import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from maxent_markov import (
    StateSequence,
    StateSpace,
    StochasticMatrix,
    accuracy,
    accuracy_gain,
    critical_sample_size,
    critical_size_map,
    entropy_rate,
    feasible_range,
    folded_normal_stats,
    frequency_estimate,
    matrix_autocorrelation,
    maxent_entries,
    maxent_error_stats,
    maxent_estimate,
    maxent_nstate,
    mu_curve,
    sampling_error_stats,
    stationary_distribution,
)
from maxent_markov.chains import simulate_batch
from maxent_markov.estimators import transition_counts, transition_frequencies

BINARY = StateSpace.binary()
TERNARY = StateSpace.ternary()


def mat2(a, d):
    return StochasticMatrix(np.array([[a, 1 - a], [1 - d, d]]), BINARY)


def matrix_gain(entries, p, counts, lattice, n):
    """One matrix's weighted gain from its ``(R, K, K)`` counts, replicate means along axis 0."""
    x = TERNARY.as_array()
    pair_sums = (counts * np.outer(x, x)).sum(axis=(1, 2)).astype(np.int64)
    err_me = np.abs(lattice[pair_sums + n - 1] - entries).mean(axis=0)
    err_samp = np.abs(transition_frequencies(counts) - entries).mean(axis=0)
    return float((p[:, None] * (err_samp - err_me)).sum() / 3)


def judge_matrix(seed, sizes, replicates, lattices):
    """One matrix alone: one ``simulate_batch`` walk and one ``matrix_gain`` per size."""
    rng = np.random.default_rng(seed)
    w = StochasticMatrix(rng.dirichlet(np.ones(3), size=3), TERNARY)
    p = stationary_distribution(w)
    best = 0.0
    for n, lattice in zip(sizes, lattices):
        counts = transition_counts(simulate_batch(w.entries, p.mass, n, replicates, rng), 3)
        if matrix_gain(w.entries, p.mass, counts, lattice, n) >= 0:
            best = float(n)
    return best, entropy_rate(p, w)


def reference_mean(mu, n):
    """Independently coded closed form with variance 1/(4n) substituted."""
    return math.exp(-2 * n * mu * mu) / math.sqrt(2 * math.pi * n) + mu * (
        1 - 2 * norm.cdf(-2 * math.sqrt(n) * mu)
    )


def reference_std(mu, n):
    mean = reference_mean(mu, n)
    return math.sqrt(mu * mu + 1 / (4 * n) - mean * mean)


class TestFoldedNormal:
    def test_half_normal(self):
        stats = folded_normal_stats(0.0, 1.0)
        assert stats.mean == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)
        assert stats.std == pytest.approx(math.sqrt(1 - 2 / math.pi), abs=1e-12)
        assert stats.mean == pytest.approx(0.797885, abs=1e-6)
        assert stats.std == pytest.approx(0.602810, abs=1e-6)

    def test_far_from_fold(self):
        stats = folded_normal_stats(10.0, 1.0)
        assert abs(stats.mean - 10.0) < 1e-6
        assert abs(stats.std - 1.0) < 1e-6

    def test_negative_mean_symmetric(self):
        a = folded_normal_stats(-0.3, 0.04)
        b = folded_normal_stats(0.3, 0.04)
        assert a.mean == b.mean
        assert a.std == b.std

    def test_mean_dominates_absolute_mu(self):
        for mu in (-0.5, 0.0, 0.2, 1.5):
            stats = folded_normal_stats(mu, 0.3)
            assert stats.mean >= abs(mu)

    def test_monte_carlo_grid(self, rng):
        draws = 100_000
        for mu in (-0.2, 0.0, 0.1, 0.5, 2.0):
            for sigma in (0.05, 0.1, 0.5, 1.0, 3.0):
                sample = np.abs(rng.normal(mu, sigma, size=draws))
                stats = folded_normal_stats(mu, sigma * sigma)
                se_mean = sample.std() / math.sqrt(draws)
                assert abs(stats.mean - sample.mean()) < 3 * se_mean
                # std of the sample std is ~ sigma/sqrt(2 draws); allow 4x for kurtosis
                assert abs(stats.std - sample.std()) < 4 * sigma / math.sqrt(draws)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            folded_normal_stats(0.1, 0.0)
        with pytest.raises(ValueError):
            folded_normal_stats(0.1, -1.0)

    def test_quarter_inverse_n_special_case(self):
        # the package formula at variance 1/(4n) must reproduce the
        # independently coded expressions to machine precision
        for mu in (-0.12, 0.0, 0.05, 0.3):
            for n in (1, 10, 100, 2500):
                stats = folded_normal_stats(mu, 1 / (4 * n))
                assert stats.mean == pytest.approx(reference_mean(abs(mu), n), abs=1e-12)
                assert stats.std == pytest.approx(reference_std(abs(mu), n), abs=1e-12)


class TestMaxEntErrorStats:
    def test_compatible_matrix_has_zero_bias(self):
        w = mat2(0.6, 0.6)  # the A = 0.2 maximum-entropy matrix
        stats = maxent_error_stats(w, 100)
        np.testing.assert_allclose(stats.bias, 0.0, atol=1e-14)
        expected = 1 / math.sqrt(2 * math.pi * 100)
        assert expected == pytest.approx(0.039894, abs=1e-6)
        np.testing.assert_allclose(stats.means, expected, atol=1e-12)

    def test_bias_floor_at_large_n(self):
        w = mat2(0.9, 0.2)
        p = stationary_distribution(w)
        a = matrix_autocorrelation(p, w)
        bias = abs((1 + a) / 2 - 0.9)
        stats = maxent_error_stats(w, 10_000_000)
        assert stats.means[0, 0] == pytest.approx(bias, rel=1e-3)

    def test_coefficient_accessor(self):
        stats = maxent_error_stats(mat2(0.6, 0.6), 25)
        fns = stats.coefficient(0, 1)
        assert fns.mean == stats.means[0, 1]

    def test_three_states_unsupported(self):
        w = StochasticMatrix.uniform(StateSpace.ternary())
        with pytest.raises(ValueError, match="2-state"):
            maxent_error_stats(w, 10)

    @pytest.mark.parametrize("values", [(0.0, 1.0), (-2.0, 3.0)])
    @pytest.mark.parametrize(
        "analytic",
        [
            lambda w: maxent_error_stats(w, 10),
            lambda w: sampling_error_stats(w, 10),
            lambda w: critical_sample_size(w, cap=20),
        ],
        ids=["maxent_error_stats", "sampling_error_stats", "critical_sample_size"],
    )
    def test_two_states_other_than_plus_minus_one_unsupported(self, values, analytic):
        # the closed forms assume x = -1, +1 (A = 2 W_00 - 1 on the diagonal family)
        w = StochasticMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), StateSpace(values))
        with pytest.raises(ValueError, match="2-state"):
            analytic(w)


class TestSamplingErrorStats:
    def test_symmetric_half_chain(self):
        # all entries 0.5: mean = sqrt(0.5 / (pi n p)) with p = 0.5
        stats = sampling_error_stats(mat2(0.5, 0.5), 100)
        expected = math.sqrt(0.5 / (math.pi * 100 * 0.5))
        assert expected == pytest.approx(0.056419, abs=1e-6)
        np.testing.assert_allclose(stats.means, expected, atol=1e-12)

    def test_deterministic_coefficients_have_no_error(self):
        w = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), BINARY)
        stats = sampling_error_stats(w, 50)
        np.testing.assert_allclose(stats.means, 0.0, atol=1e-15)
        np.testing.assert_allclose(stats.stds, 0.0, atol=1e-15)

    def test_inverse_sqrt_scaling(self):
        base = sampling_error_stats(mat2(0.7, 0.4), 25)
        quad = sampling_error_stats(mat2(0.7, 0.4), 100)
        np.testing.assert_allclose(base.means, 2 * quad.means, atol=1e-14)

    def test_reducible_rejected(self):
        from maxent_markov import ReducibleChainError

        with pytest.raises(ReducibleChainError):
            sampling_error_stats(mat2(1.0, 1.0), 10)


class TestAccuracyGain:
    def test_compatible_matrix_always_wins(self):
        w = mat2(0.6, 0.6)
        for n in (1, 10, 100, 1000):
            assert np.all(accuracy_gain(w, n) > 0)

    def test_remote_from_diagonal_eventually_loses(self):
        w = mat2(0.9, 0.2)
        gain = accuracy_gain(w, 5000)
        assert gain[0, 0] < 0

    def test_limit_is_negative_bias(self):
        w = mat2(0.8, 0.3)
        bias = maxent_error_stats(w, 1).bias
        gain = accuracy_gain(w, 50_000_000)
        np.testing.assert_allclose(gain, -np.abs(bias), atol=1e-3)


class TestCriticalSampleSize:
    def test_compatible_matrix_saturates_cap(self):
        result = critical_sample_size(mat2(0.6, 0.6), cap=200)
        assert np.all(result.per_coefficient == 200)
        assert result.weighted == pytest.approx(200.0)

    def test_far_asymmetric_matrix_is_small(self):
        result = critical_sample_size(mat2(0.95, 0.4), cap=500)
        assert result.weighted < 50

    def test_diagonal_beats_asymmetric(self):
        near = critical_sample_size(mat2(0.6, 0.6), cap=500).weighted
        far = critical_sample_size(mat2(0.9, 0.2), cap=500).weighted
        assert near > far

    def test_scan_matches_direct_gain_evaluation(self):
        w = mat2(0.72, 0.55)
        result = critical_sample_size(w, cap=120)
        for i in range(2):
            for j in range(2):
                nc = int(result.per_coefficient[i, j])
                if nc > 0 and nc < 120:
                    assert accuracy_gain(w, nc)[i, j] >= 0
                    # no larger favorable n exists
                    later = [accuracy_gain(w, m)[i, j] for m in range(nc + 1, 121)]
                    assert max(later) < 0

    def test_weighted_uses_normalized_row_weights(self):
        w = mat2(0.8, 0.51)
        result = critical_sample_size(w, cap=100)
        p = stationary_distribution(w).mass
        expected = float((p[:, None] * result.per_coefficient).sum() / 2)
        assert result.weighted == pytest.approx(expected)


class TestCriticalSizeMap:
    def test_grid_is_open(self):
        m = critical_size_map(resolution=10, cap=30)
        assert m.stay_down.min() > 0 and m.stay_down.max() < 1

    def test_matches_single_matrix_scan(self):
        m = critical_size_map(resolution=10, cap=60)
        for i, j in [(2, 7), (5, 5), (8, 1)]:
            w = mat2(float(m.stay_down[i, j]), float(m.stay_up[i, j]))
            single = critical_sample_size(w, cap=60)
            assert m.weighted[i, j] == pytest.approx(single.weighted, abs=1e-9)


class TestMuCurve:
    def test_two_state_nonincreasing(self):
        (curve,) = mu_curve(2, [1, 5, 10, 25, 50], grid=40, cap=60)
        assert np.all(np.diff(curve.fractions) <= 0)
        assert curve.fractions[0] >= curve.fractions[-1]

    def test_two_state_rejects_stratify(self):
        with pytest.raises(ValueError):
            mu_curve(2, [10], stratify=True)

    def test_cap_must_cover_sizes(self):
        with pytest.raises(ValueError):
            mu_curve(2, [100], cap=50)

    def test_unsupported_state_count(self):
        with pytest.raises(ValueError):
            mu_curve(4, [10])

    @pytest.mark.parametrize("n_states", [2, 3, 4])
    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_worker_counts_below_one(self, n_states, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            mu_curve(n_states, [5], grid=6, cap=10, samples=4, replicates=5, workers=workers)

    @pytest.mark.parametrize(
        "sweep, name",
        [
            pytest.param(lambda: mu_curve(3, [5], cap=10, samples=0, replicates=5), "samples", id="0"),
            pytest.param(lambda: mu_curve(3, [5], cap=10, samples=-2, replicates=5), "samples", id="-2"),
            pytest.param(lambda: mu_curve(3, [5, 8], samples=4, replicates=0), "replicates", id="replicates-0"),
            pytest.param(lambda: critical_size_map(8, cap=0), "cap", id="map-cap-0"),
        ],
    )
    def test_rejects_sample_counts_below_one(self, sweep, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            sweep()

    def test_three_state_reproducible_and_nonincreasing(self):
        kwargs = dict(samples=32, replicates=40, seed=123)
        (a,) = mu_curve(3, [5, 10, 20], **kwargs)
        (b,) = mu_curve(3, [5, 10, 20], **kwargs)
        np.testing.assert_array_equal(a.fractions, b.fractions)
        assert np.all(np.diff(a.fractions) <= 0)

    def test_three_state_worker_count_does_not_change_results(self, monkeypatch):
        # one matrix per block: 25 blocks split into uneven chunks (13 + 12, 9 + 9 + 7)
        monkeypatch.setattr(accuracy, "_BLOCK_CELLS", 30 * 10)
        for samples, workers in [(24, 2), (25, 2), (25, 3)]:
            kwargs = dict(samples=samples, replicates=30, seed=7)
            (serial,) = mu_curve(3, [5, 10], workers=1, **kwargs)
            (parallel,) = mu_curve(3, [5, 10], workers=workers, **kwargs)
            np.testing.assert_array_equal(serial.fractions, parallel.fractions)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(1, 15),
        replicates=st.integers(1, 10),
        sizes=st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True),
        per_block=st.sampled_from([1, 7, None]),
        workers=st.sampled_from([1, 2]),
    )
    def test_blocks_and_workers_give_the_per_matrix_judgements(
        self, seed, samples, replicates, sizes, per_block, workers
    ):
        sizes = sorted(sizes)
        lattices = [maxent_entries(TERNARY, np.arange(-(n - 1), n), n - 1) for n in sizes]
        seeds = np.random.SeedSequence(seed).spawn(samples)
        expected = np.array([judge_matrix(s, sizes, replicates, lattices) for s in seeds]).T
        kwargs = dict(samples=samples, replicates=replicates, seed=seed, stratify=True)
        judged, judge = [], accuracy._judge_block

        def spy(seeds, **kw):
            judged.append(judge(seeds, **kw))
            return judged[-1]

        cells = accuracy._BLOCK_CELLS if per_block is None else per_block * replicates * sum(sizes)
        with mock.patch.object(accuracy, "_BLOCK_CELLS", cells):
            if workers == 1:
                with mock.patch.object(accuracy, "_judge_block", spy):
                    curves = mu_curve(3, sizes, **kwargs)
                assert np.array_equal(np.concatenate(judged, axis=1), expected)  # ncs and rates
            else:
                curves = mu_curve(3, sizes, workers=workers, **kwargs)
        stub = lambda seeds, **_: expected[:, [s.spawn_key[-1] for s in seeds]]
        with mock.patch.object(accuracy, "_judge_block", stub):
            reference = mu_curve(3, sizes, **kwargs)
        assert [c.fractions.tolist() for c in curves] == [c.fractions.tolist() for c in reference]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), replicates=st.integers(1, 60), n=st.integers(2, 40))
    def test_stacked_gains_equal_each_matrix_alone(self, seed, m, replicates, n):
        rng = np.random.default_rng(seed)
        entries = rng.dirichlet(np.ones(3), size=(m, 3))
        p = np.stack([stationary_distribution(StochasticMatrix(e, TERNARY)).mass for e in entries])
        counts = np.stack([transition_counts(simulate_batch(e, q, n, replicates, rng), 3) for e, q in zip(entries, p)])
        lattice = maxent_entries(TERNARY, np.arange(-(n - 1), n), n - 1)
        gains = accuracy._weighted_gains(entries, p, counts, lattice, n - 1)
        assert gains.tolist() == [matrix_gain(*args, lattice, n) for args in zip(entries, p, counts)]

    def test_stratified_curves(self):
        curves = mu_curve(3, [5, 10], samples=60, replicates=30, seed=5, stratify=True)
        assert [c.stratum for c in curves] == [1, 2, 3, 4, 5]
        full = curves[-1]
        (unstratified,) = mu_curve(3, [5, 10], samples=60, replicates=30, seed=5)
        np.testing.assert_array_equal(full.fractions, unstratified.fractions)

    @pytest.mark.parametrize("ties", [False, True])
    def test_strata_are_the_rates_at_or_above_each_quintile(self, monkeypatch, ties):
        # distinct critical sizes 2..N+1, all scanned: a stratum's curve pins down its member set
        rng = np.random.default_rng(11)
        for count in (5, 6, 11, 16, 23, 40):
            rates = rng.integers(0, 4, count) * 0.1 if ties else rng.random(count)
            ncs = rng.permutation(count) + 2.0
            # matrix i from seed i
            judged = lambda seeds, **_: np.array([[ncs[s.spawn_key[-1]], rates[s.spawn_key[-1]]] for s in seeds]).T
            monkeypatch.setattr(accuracy, "_judge_block", judged)
            sizes = np.arange(2, count + 2)
            curves = mu_curve(3, sizes, samples=count, cap=count + 1, stratify=True)
            for curve in curves[:4]:
                members = ncs[rates >= np.quantile(rates, 1.0 - 0.2 * curve.stratum)]
                assert curve.fractions.tolist() == [np.mean(members >= n) for n in sizes]

    def test_stratified_curves_leave_numpy_ma_out(self):
        code = (
            "import sys; from maxent_markov import mu_curve; "
            "mu_curve(3, [5, 10], samples=8, replicates=10, stratify=True); print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_lattice_entries_are_exact_solves_at_every_pair_sum(self, monkeypatch):
        seen = []
        judge = accuracy._judge_block

        def spy(seeds, sizes, replicates, lattices):
            seen.append(lattices)
            return judge(seeds, sizes, replicates, lattices)

        monkeypatch.setattr(accuracy, "_judge_block", spy)
        monkeypatch.setattr(accuracy, "_BLOCK_CELLS", 2 * 5 * (5 + 12))  # two matrices per block
        sizes = [5, 12]
        mu_curve(3, sizes, samples=5, replicates=5, seed=1)
        # one task per block, all sharing the lattices solved once
        assert len(seen) == 3
        assert all(lattices is seen[0] for lattices in seen)
        bounds = feasible_range(TERNARY)
        for n, lattice in zip(sizes, seen[0]):
            assert lattice.shape == (2 * n - 1, 3, 3)
            for s in range(-(n - 1), n):
                exact = maxent_nstate(TERNARY, bounds.clamp(s / (n - 1), 1e-6)).matrix.entries
                assert np.array_equal(lattice[s + n - 1], exact)

    def test_empirical_gain_scores_each_replicate_by_its_own_estimates(self):
        replicates = 25
        entries = np.random.default_rng(4).dirichlet(np.ones(3), size=3)
        p = stationary_distribution(StochasticMatrix(entries, TERNARY)).mass
        for n in [2, 8, 50]:
            lattice = maxent_entries(TERNARY, np.arange(-(n - 1), n), n - 1)
            paths = simulate_batch(entries, p, n, replicates, np.random.default_rng(9))
            (gain,) = accuracy._weighted_gains(entries[None], p[None], transition_counts(paths, 3)[None], lattice, n - 1)
            windows = [StateSequence(path, 3) for path in paths]
            me = np.stack([maxent_estimate(w, TERNARY).matrix.entries for w in windows])
            samp = np.stack([frequency_estimate(w).entries for w in windows])
            err = np.abs(samp - entries).mean(axis=0) - np.abs(me - entries).mean(axis=0)
            assert gain == pytest.approx(float((p[:, None] * err).sum() / 3), abs=1e-12), n

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_markov import (
    PriceDataError,
    PriceSeries,
    StateSequence,
    StateSpace,
    discretize,
    ingest,
    load_prices,
    load_states,
    resample,
    to_returns,
    write_states,
)
from maxent_markov.ingest import ReturnSeries


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPrices:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n100,1.25\n200,1.30\n")
        series = load_prices(path)
        assert len(series) == 2
        np.testing.assert_allclose(series.timestamps, [100.0, 200.0])
        np.testing.assert_allclose(series.prices, [1.25, 1.30])

    def test_iso_timestamps_detected(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,price\n2009-01-01T00:00:00+00:00,1.40\n2009-01-01T00:15:00+00:00,1.41\n",
        )
        series = load_prices(path)
        assert series.timestamps[1] - series.timestamps[0] == pytest.approx(900.0)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n200,1.0\n100,1.1\n")
        with pytest.raises(PriceDataError, match=":3"):
            load_prices(path)

    def test_zero_price_rejected(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n100,0\n200,1.0\n")
        with pytest.raises(PriceDataError, match="positive"):
            load_prices(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n100,1.0\n150,not_a_number\n")
        with pytest.raises(PriceDataError, match=":3"):
            load_prices(path)

    def test_missing_header_rejected(self, tmp_path):
        path = write(tmp_path, "time,px\n100,1.0\n")
        with pytest.raises(PriceDataError, match="header"):
            load_prices(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(PriceDataError):
            load_prices(path)

    def test_blank_and_whitespace_only_lines_skipped(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n\n100,1.0\n   \n\t\n200,1.5\n\n")
        series = load_prices(path)
        assert series.timestamps.tolist() == [100.0, 200.0]
        assert series.prices.tolist() == [1.0, 1.5]

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"timestamp,price\r\n100,1.0\r\n200,1.5\r\n")
        assert load_prices(path).prices.tolist() == [1.0, 1.5]

    def test_quoted_and_padded_fields(self, tmp_path):
        path = write(tmp_path, 'timestamp,price\n1,100\n2,"101"\n"3", 102 \n')
        series = load_prices(path)
        assert series.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert series.prices.tolist() == [100.0, 101.0, 102.0]

    def test_extra_trailing_columns_ignored(self, tmp_path):
        path = write(tmp_path, "timestamp,price,volume\n100,1.0,5\n200,1.5,x,y\n300,1.25\n")
        assert load_prices(path).prices.tolist() == [1.0, 1.5, 1.25]

    def test_header_without_data_rows_rejected_without_warning(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n\n  \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PriceDataError, match="no data rows"):
                load_prices(path)

    @pytest.mark.parametrize("row", ["2,nan", "4,inf", "nan,102", "5,-inf", "inf,102"])
    def test_non_finite_values_rejected_with_line(self, tmp_path, row):
        path = write(tmp_path, f"timestamp,price\n1,100\n\n{row}\n9,103\n")
        with pytest.raises(PriceDataError, match=":4: .*finite"):
            load_prices(path)

    def test_malformed_row_after_blank_lines_reports_line(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n100,1.0\n\n   \n150,x\n")
        with pytest.raises(PriceDataError, match=":5:"):
            load_prices(path)

    def test_short_row_reports_line(self, tmp_path):
        path = write(tmp_path, "timestamp,price\n100,1.0\n150\n200,1.1\n")
        with pytest.raises(PriceDataError, match=":3:"):
            load_prices(path)

    def test_malformed_iso_timestamp_reports_line(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,price\n2009-01-01T00:00:00,1.40\n\n2009-13-01T00:00:00,1.41\n",
        )
        with pytest.raises(PriceDataError, match=":4:"):
            load_prices(path)

    def test_first_bad_line_wins_across_checks(self, tmp_path):
        # line 4 breaks the timestamp order before line 5's zero price
        path = write(tmp_path, "timestamp,price\n1,1.0\n3,1.0\n2,1.0\n4,0\n")
        with pytest.raises(PriceDataError, match=":4: timestamps must be strictly increasing"):
            load_prices(path)
        path = write(tmp_path, "timestamp,price\n1,1.0\n2,-1.0\n1,1.0\n")
        with pytest.raises(PriceDataError, match=":3: .*positive"):
            load_prices(path)

    @pytest.mark.parametrize("row", ["200,1_000", "200,1.5e-0_1", "200,\u0661\u0662", '""'])
    def test_inputs_outside_the_c_grammar_rejected(self, tmp_path, row):
        # float() reads digit-group underscores and non-ASCII digits, and the
        # csv module read a lone quoted empty field as a blank line; the C
        # parser accepts none of them
        path = write(tmp_path, f"timestamp,price\n100,1.0\n{row}\n300,1.1\n")
        with pytest.raises(PriceDataError, match=":3: malformed row"):
            load_prices(path)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=4e9, allow_nan=False),
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda row: row[0],
        )
    )
    def test_repr_round_trip_is_bit_exact(self, tmp_path_factory, rows):
        rows = sorted(rows)
        path = tmp_path_factory.mktemp("rt") / "prices.csv"
        path.write_text("timestamp,price\n" + "".join(f"{t!r},{p!r}\n" for t, p in rows))
        series = load_prices(path)
        assert series.timestamps.tobytes() == np.array([float(repr(t)) for t, _ in rows]).tobytes()
        assert series.prices.tobytes() == np.array([float(repr(p)) for _, p in rows]).tobytes()


class TestPriceSeries:
    @pytest.mark.parametrize(
        "timestamps, prices",
        [([0.0, 1.0], [1.0, np.nan]), ([0.0, np.inf], [1.0, 2.0]), ([np.nan, 1.0], [1.0, 2.0])],
    )
    def test_non_finite_values_rejected(self, timestamps, prices):
        with pytest.raises(PriceDataError, match="finite"):
            PriceSeries(np.array(timestamps), np.array(prices))


class TestResample:
    def test_on_grid_series_unchanged(self):
        series = PriceSeries(np.array([0.0, 900.0, 1800.0]), np.array([1.0, 2.0, 3.0]))
        out = resample(series, 900)
        np.testing.assert_allclose(out.timestamps, series.timestamps)
        np.testing.assert_allclose(out.prices, series.prices)

    def test_last_observation_carried_forward_brute_force(self, rng):
        ts = np.sort(rng.uniform(0, 50_000, size=400))
        ts += np.arange(400) * 1e-6  # force strict increase
        px = rng.uniform(1.0, 2.0, size=400)
        series = PriceSeries(ts, px)
        out = resample(series, 900)
        for b, p in zip(out.timestamps, out.prices):
            older = np.flatnonzero(ts <= b)
            assert older.size > 0
            assert p == px[older[-1]]
        assert np.all(np.diff(out.timestamps) == 900)

    def test_gap_is_filled_forward(self):
        series = PriceSeries(np.array([0.0, 100.0, 5000.0]), np.array([1.0, 1.5, 2.0]))
        out = resample(series, 900)
        # boundaries 0, 900, 1800, 2700, 3600, 4500: all but the first carry 1.5
        np.testing.assert_allclose(out.prices, [1.0, 1.5, 1.5, 1.5, 1.5, 1.5])

    def test_leading_boundaries_omitted(self):
        series = PriceSeries(np.array([950.0, 2000.0]), np.array([1.0, 2.0]))
        out = resample(series, 900)
        assert out.timestamps[0] == 1800.0

    def test_idempotent(self, rng):
        ts = np.sort(rng.uniform(0, 30_000, size=200))
        ts += np.arange(200) * 1e-6
        series = PriceSeries(ts, rng.uniform(1, 2, size=200))
        once = resample(series, 600)
        twice = resample(once, 600)
        np.testing.assert_array_equal(once.timestamps, twice.timestamps)
        np.testing.assert_array_equal(once.prices, twice.prices)

    def test_bad_interval(self):
        series = PriceSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            resample(series, 0)

    @pytest.mark.parametrize("interval", [np.nan, np.inf, -np.inf])
    def test_non_finite_interval(self, interval):
        series = PriceSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="interval must be a positive finite number"):
                resample(series, interval)


class TestToReturns:
    def test_basic_values(self):
        series = PriceSeries(np.array([0.0, 1.0, 2.0]), np.array([100.0, 101.0, 99.99]))
        returns = to_returns(series)
        assert returns.values[0] == pytest.approx(0.01)
        assert returns.values[1] == pytest.approx((99.99 - 101.0) / 101.0)
        np.testing.assert_allclose(returns.timestamps, [1.0, 2.0])

    def test_down_move(self):
        series = PriceSeries(np.array([0.0, 1.0]), np.array([100.0, 99.0]))
        assert to_returns(series).values[0] == pytest.approx(-0.01)

    def test_constant_prices_are_zero(self):
        series = PriceSeries(np.arange(5.0), np.full(5, 3.3))
        np.testing.assert_allclose(to_returns(series).values, 0.0)

    def test_single_point_rejected(self):
        with pytest.raises(PriceDataError):
            to_returns(PriceSeries(np.array([0.0]), np.array([1.0])))


class TestDiscretize:
    def test_threshold_crossings(self):
        returns = ReturnSeries(np.arange(3.0), np.array([2e-4, -5e-5, -2e-3]))
        seq = discretize(returns)
        assert list(seq.values(StateSpace.ternary())) == [1.0, 0.0, -1.0]

    def test_exact_threshold_maps_to_flat(self):
        returns = ReturnSeries(np.arange(2.0), np.array([1e-4, -1e-4]))
        seq = discretize(returns)
        assert list(seq.values(StateSpace.ternary())) == [0.0, 0.0]

    def test_scale_invariance_of_pipeline(self, rng):
        px = np.cumprod(1 + rng.normal(0, 3e-4, size=300))
        ts = np.arange(300.0)
        base = discretize(to_returns(PriceSeries(ts, px)))
        scaled = discretize(to_returns(PriceSeries(ts, 1234.5 * px)))
        assert np.array_equal(base.indices, scaled.indices)

    def test_round_trip_of_engineered_labels(self):
        # returns built to straddle the threshold reproduce their labels
        target = np.array([1, -1, 0, 1, 0, -1, -1, 1, 0])
        r = np.where(target == 1, 5e-4, np.where(target == -1, -5e-4, 0.0))
        seq = discretize(ReturnSeries(np.arange(float(r.size)), r))
        values = seq.values(StateSpace.ternary())
        assert np.array_equal(values.astype(int), target)

    def test_bad_threshold(self):
        returns = ReturnSeries(np.arange(2.0), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            discretize(returns, threshold=0.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold(self, threshold):
        returns = ReturnSeries(np.arange(2.0), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="threshold must be a positive finite number"):
            discretize(returns, threshold=threshold)


class TestStateCsvRoundTrip:
    def test_write_and_load(self, tmp_path, rng):
        seq = StateSequence(rng.integers(0, 3, size=40), 3)
        path = tmp_path / "states.csv"
        write_states(path, seq, StateSpace.ternary())
        loaded, space = load_states(path)
        assert space.values == (-1.0, 0.0, 1.0)
        assert np.array_equal(loaded.indices, seq.indices)

    def test_write_with_timestamps(self, tmp_path):
        seq = StateSequence(np.array([0, 1, 1]), 2)
        path = tmp_path / "states.csv"
        write_states(path, seq, StateSpace.binary(), timestamps=np.array([1.0, 2.0, 3.0]))
        loaded, space = load_states(path)
        assert space.values == (-1.0, 1.0)
        assert np.array_equal(loaded.indices, seq.indices)

    def test_binary_inferred_without_zero(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("state\n1\n-1\n1\n")
        loaded, space = load_states(path)
        assert space.size == 2

    def test_forced_state_count(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("state\n1\n-1\n1\n")
        loaded, space = load_states(path, n_states=3)
        assert space.size == 3
        assert list(loaded.indices) == [2, 0, 2]

    def test_unknown_alphabet_rejected(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("state\n1\n7\n")
        with pytest.raises(PriceDataError):
            load_states(path)

    def test_forced_space_rejects_value_outside_it(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("state\n1\n0\n-1\n")
        with pytest.raises(PriceDataError, match=r"state value 0\.0 not in \(-1\.0, 1\.0\)"):
            load_states(path, n_states=2)

    @pytest.mark.parametrize("comments", ["", "# seed 3\n", "# a\n# b\n"])
    def test_timestamp_state_columns(self, tmp_path, comments):
        path = tmp_path / "states.csv"
        path.write_text(comments + "timestamp,state\n1.0,1\n\n2.0,0\r\n3.0,\"-1\"\n")
        loaded, space = load_states(path)
        assert space.size == 3
        assert list(loaded.indices) == [2, 1, 0]

    @pytest.mark.parametrize(
        "rows, match",
        [
            ("x,1\nnan,0\n5,-1\n1,1\n", ":3: malformed row 'x,1'"),
            ("1,1\nnan,0\n5,-1\n", ":4: timestamps must be finite"),
            ("1,1\n\ninf,0\n", ":5: timestamps must be finite"),
            ("1,1\n5,-1\n\n4,1\n", ":6: timestamps must be strictly increasing"),
            ("1,1\n1,0\n", ":4: timestamps must be strictly increasing"),
        ],
    )
    def test_bad_timestamps_rejected_with_line(self, tmp_path, rows, match):
        path = tmp_path / "states.csv"
        path.write_text("# meta\ntimestamp,state\n" + rows)
        with pytest.raises(PriceDataError, match=match):
            load_states(path)

    def test_iso_timestamps_checked(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("timestamp,state\n2024-01-01T00:00:00,1\n2024-01-01T00:01:00,0\n")
        assert list(load_states(path)[0].indices) == [2, 1]
        path.write_text("timestamp,state\n2024-01-01T00:01:00,1\n2024-01-01T00:00:00,0\n")
        with pytest.raises(PriceDataError, match=":3: timestamps must be strictly increasing"):
            load_states(path)

    def test_state_only_file_parses_one_column(self, tmp_path, monkeypatch):
        usecols = []
        loadtxt = ingest._loadtxt

        def spy(*args, **kwargs):
            usecols.append(kwargs["usecols"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(ingest, "_loadtxt", spy)
        path = tmp_path / "states.csv"
        path.write_text("state\n1\n0\n-1\n")
        assert list(load_states(path)[0].indices) == [2, 1, 0]
        assert usecols == [[0]]

    def test_state_column_found_by_name(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("state,timestamp,note\n-1,1.0,a\n1,2.0\n")
        loaded, space = load_states(path)
        assert list(loaded.indices) == [0, 1]

    def test_malformed_value_after_comments_and_blank_line(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("# a\n# b\nstate\n1\n\n0\nx\n-1\n")
        with pytest.raises(PriceDataError, match=":7:"):
            load_states(path)

    def test_short_row_lacking_state_column(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("# meta\ntimestamp,state\n1,1\n\n2\n3,0\n")
        with pytest.raises(PriceDataError, match=":5:"):
            load_states(path)

    @pytest.mark.parametrize("text", ["state\n", "# meta\nstate\n\n   \n", "timestamp,state\n"])
    def test_header_without_data_rows(self, tmp_path, text):
        path = tmp_path / "states.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PriceDataError, match="no data rows"):
                load_states(path)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=3).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=60),
                st.booleans(),
            )
        )
    )
    def test_write_states_round_trip(self, tmp_path_factory, case):
        k, indices, stamped = case
        seq = StateSequence(np.array(indices), k)
        path = tmp_path_factory.mktemp("rt") / "states.csv"
        timestamps = 1.6e9 + 60.5 * np.arange(len(indices)) if stamped else None
        write_states(path, seq, StateSpace.default(k), timestamps=timestamps)
        loaded, space = load_states(path, n_states=k)
        assert space == StateSpace.default(k)
        assert loaded.indices.tolist() == indices

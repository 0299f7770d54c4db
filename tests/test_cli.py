import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from maxent_markov import Distribution, StateSpace, StochasticMatrix, cli, simulate
from maxent_markov.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _build_parser, main
from maxent_markov.ingest import write_states

from conftest import sliced


def read_artifact(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    metadata = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return metadata, columns, rows


def write_states_csv(tmp_path, values, name="states.csv"):
    path = tmp_path / name
    path.write_text("state\n" + "\n".join(str(v) for v in values) + "\n")
    return path


class TestEstimate:
    def test_maxent_reproduces_closed_form(self, tmp_path):
        # five pair products summing to 1 -> sample autocorrelation 0.2
        inp = write_states_csv(tmp_path, [1, 1, 1, 1, -1, 1])
        out = tmp_path / "matrix.csv"
        code = main(["estimate", "--input", str(inp), "--method", "maxent",
                     "--output", str(out)])
        assert code == EXIT_OK
        metadata, columns, rows = read_artifact(out)
        assert columns == ["from_state", "to_state", "probability"]
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("-1.0", "-1.0")] == pytest.approx(0.6)
        assert table[("-1.0", "1.0")] == pytest.approx(0.4)
        assert table[("1.0", "1.0")] == pytest.approx(0.6)
        assert metadata["command"] == "estimate"
        assert metadata["sample_autocorrelation"] == pytest.approx(0.2)

    def test_sampling_method(self, tmp_path):
        inp = write_states_csv(tmp_path, [-1, -1, 1, -1])
        out = tmp_path / "matrix.csv"
        assert main(["estimate", "--input", str(inp), "--method", "sampling",
                     "--output", str(out)]) == EXIT_OK
        _, _, rows = read_artifact(out)
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("-1.0", "-1.0")] == pytest.approx(0.5)
        assert table[("1.0", "-1.0")] == pytest.approx(1.0)

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv")]) == EXIT_DATA

    def test_json_format(self, tmp_path):
        inp = write_states_csv(tmp_path, [1, -1, 1, -1])
        out = tmp_path / "matrix.json"
        assert main(["estimate", "--input", str(inp), "--format", "json",
                     "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["from_state", "to_state", "probability"]
        assert doc["metadata"]["command"] == "estimate"
        assert len(doc["rows"]) == 4


class TestDiscretize:
    def test_three_row_example(self, tmp_path):
        inp = tmp_path / "prices.csv"
        inp.write_text("timestamp,price\n0,100\n900,100.02\n1800,99.97\n")
        out = tmp_path / "states.csv"
        assert main(["discretize", "--input", str(inp), "--output", str(out)]) == EXIT_OK
        _, columns, rows = read_artifact(out)
        assert columns == ["timestamp", "state"]
        assert [r[1] for r in rows] == ["1", "-1"]

    def test_resample_option(self, tmp_path):
        inp = tmp_path / "prices.csv"
        inp.write_text(
            "timestamp,price\n0,100\n60,100.5\n900,100.02\n1700,99.5\n1800,99.97\n"
        )
        out = tmp_path / "states.csv"
        assert main(["discretize", "--input", str(inp), "--interval", "900",
                     "--output", str(out)]) == EXIT_OK
        _, _, rows = read_artifact(out)
        assert [r[1] for r in rows] == ["1", "-1"]

    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_rejects_nonpositive_interval(self, tmp_path, capsys, interval):
        inp = tmp_path / "prices.csv"
        inp.write_text("timestamp,price\n0,100\n900,100.02\n1800,99.97\n")
        out = tmp_path / "states.csv"
        assert main(["discretize", "--input", str(inp), "--interval", interval,
                     "--output", str(out)]) == EXIT_DATA
        assert "interval must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--threshold", "--interval"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_options(self, tmp_path, capsys, flag, value):
        inp = tmp_path / "prices.csv"
        inp.write_text("timestamp,price\n0,100\n900,100.02\n1800,99.97\n")
        out = tmp_path / "states.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["discretize", "--input", str(inp), f"{flag}={value}", "--output", str(out)])
        assert code == EXIT_DATA
        assert f"{flag[2:]} must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_an_interval_too_fine_for_the_data(self, tmp_path, capsys):
        # 300 one-minute rows at 1e-9 s would be ~1.8e13 grid points: refused before any allocation
        inp = tmp_path / "prices.csv"
        inp.write_text("timestamp,price\n" + "".join(f"{60 * t},{100 + t % 7}\n" for t in range(300)))
        out = tmp_path / "states.csv"
        assert main(["discretize", "--input", str(inp), "--interval", "1e-9", "--output", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "interval 1e-09" in err and "1.794e+13 steps" in err
        assert not out.exists()

    def test_validation_error_writes_nothing(self, tmp_path):
        inp = tmp_path / "prices.csv"
        inp.write_text("timestamp,price\n100,1.0\n50,2.0\n")
        out = tmp_path / "states.csv"
        assert main(["discretize", "--input", str(inp), "--output", str(out)]) == EXIT_DATA
        assert not out.exists()

    def test_artifact_feeds_estimate_and_backtest(self, tmp_path, rng):
        moves = rng.choice([-1, 0, 1], size=80)
        prices = 100.0 * np.cumprod(1.0 + 0.01 * moves)
        inp = tmp_path / "prices.csv"
        inp.write_text(
            "timestamp,price\n0,100.0\n"
            + "".join(f"{60 * (t + 1)},{p!r}\n" for t, p in enumerate(prices.tolist()))
        )
        states = tmp_path / "states.csv"
        assert main(["discretize", "--input", str(inp), "--output", str(states)]) == EXIT_OK
        assert states.read_text().startswith("# ")

        matrix = tmp_path / "matrix.csv"
        assert main(["estimate", "--input", str(states), "--output", str(matrix)]) == EXIT_OK
        meta, _, rows = read_artifact(matrix)
        assert meta["k"] == 3 and len(rows) == 9
        pairs = moves[:-1] * moves[1:]
        assert meta["sample_autocorrelation"] == pytest.approx(pairs.mean(), abs=1e-15)

        report = tmp_path / "backtest.csv"
        assert main(["backtest", "--input", str(states), "--n", "10", "--horizon", "4",
                     "--output", str(report)]) == EXIT_OK
        _, _, rows = read_artifact(report)
        assert {r[1] for r in rows} == {"maxent", "sampling", "naive"}


class TestSweeps:
    def test_ncmap_small_grid(self, tmp_path):
        out = tmp_path / "ncmap.csv"
        assert main(["ncmap", "--grid", "8", "--cap", "40", "--output", str(out)]) == EXIT_OK
        metadata, columns, rows = read_artifact(out)
        assert columns == ["stay_down", "stay_up", "nc_weighted", "nc_down_row", "nc_up_row"]
        assert len(rows) == 64
        weighted = np.array([float(r[2]) for r in rows])
        assert weighted.max() <= 40

    def test_mucurve_two_state(self, tmp_path):
        out = tmp_path / "mu.csv"
        assert main(["mucurve", "--k", "2", "--n", "5,25", "--grid", "20",
                     "--cap", "30", "--output", str(out)]) == EXIT_OK
        metadata, columns, rows = read_artifact(out)
        assert columns == ["stratum", "n", "mu"]
        mus = {int(r[1]): float(r[2]) for r in rows}
        assert mus[5] >= mus[25]
        assert metadata["seed"] == 0  # defaulted, then recorded

    def test_mucurve_three_state_stratified(self, tmp_path):
        out = tmp_path / "mu3.csv"
        assert main(["mucurve", "--k", "3", "--n", "5,10", "--samples", "24",
                     "--replicates", "20", "--seed", "9", "--stratify",
                     "--output", str(out)]) == EXIT_OK
        _, _, rows = read_artifact(out)
        strata = {int(r[0]) for r in rows}
        assert strata == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_mucurve_rejects_worker_counts_below_one(self, tmp_path, workers):
        out = tmp_path / "never.csv"
        assert main(["mucurve", "--k", "2", "--n", "5", "--grid", "6", "--cap", "10",
                     "--workers", workers, "--output", str(out)]) == EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            pytest.param(["mucurve", "--k", "3", "--n", "5", "--samples", "0"], "samples", id="0"),
            pytest.param(["mucurve", "--k", "3", "--n", "5", "--samples", "-2"], "samples", id="-2"),
            pytest.param(["mucurve", "--k", "3", "--n", "5,8", "--samples", "4", "--replicates", "0"],
                         "replicates", id="replicates-0"),
            pytest.param(["ncmap", "--grid", "8", "--cap", "0"], "cap", id="ncmap-cap-0"),
        ],
    )
    def test_mucurve_rejects_sample_counts_below_one(self, tmp_path, capsys, argv, name):
        out = tmp_path / "never.csv"
        assert main([*argv, "--output", str(out)]) == EXIT_DATA
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_on_bad_n(self, tmp_path):
        assert main(["mucurve", "--k", "2", "--n", "abc"]) == EXIT_USAGE

    def test_mucurve_full_grid_matches_known_fraction(self, tmp_path):
        # the flagship two-state number: mu(50) = 0.15 +- 0.05 at grid 100
        out = tmp_path / "mu50.csv"
        assert main(["mucurve", "--k", "2", "--n", "50", "--grid", "100",
                     "--output", str(out)]) == EXIT_OK
        _, _, rows = read_artifact(out)
        assert len(rows) == 1
        assert abs(float(rows[0][2]) - 0.15) <= 0.05


def test_cli_start_up_loads_neither_scipy_nor_multiprocessing(tmp_path):
    # scipy is needed only on the 2-state analytic path, so it loads on the
    # first such call; numpy.random must load with the package, not mid-run
    code = f"""
import sys
import maxent_markov.cli as cli
assert "scipy" not in sys.modules, "scipy imported at start-up"
assert "multiprocessing" not in sys.modules, "multiprocessing imported at start-up"
assert "numpy.random" in sys.modules, "numpy.random not imported at start-up"
assert cli.main(["ncmap", "--grid", "4", "--output", {str(tmp_path / "nc.csv")!r}]) == 0
assert "scipy.special" in sys.modules, "ncmap ran without scipy.special"
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_blas_worker_threads_do_not_spin_after_import():
    # an OpenBLAS worker busy-waits ~0.1 s after numpy's import unless its
    # thread timeout is short; that spin would land in the first command
    code = """
import time
import maxent_markov.cli
time.sleep(0.3)
print(time.process_time() - time.thread_time())
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert float(out.stdout) < 0.05


class TestSimulateAndTrack:
    def test_simulate_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            assert main(["simulate", "--length", "200", "--period", "100",
                         "--seed", "3", "--output", str(target)]) == EXIT_OK
        assert a.read_text() == b.read_text()
        _, columns, rows = read_artifact(a)
        assert columns == ["t", "state"]
        assert len(rows) == 200
        assert {r[1] for r in rows} <= {"-1", "1"}

    def test_track_emits_traces_and_maes(self, tmp_path):
        out = tmp_path / "track.csv"
        assert main(["track", "--length", "400", "--period", "100", "--window", "30",
                     "--samples", "2", "--output", str(out)]) == EXIT_OK
        metadata, columns, rows = read_artifact(out)
        assert columns == ["t", "true_stay_down", "maxent", "sampling"]
        assert len(rows) == 400 - 29
        assert metadata["mae_maxent"] > 0
        assert metadata["mae_sampling"] > 0
        assert metadata["seeds"] == [0, 1]

    @pytest.mark.parametrize("command", [["track", "--length", "100", "--window", "10"],
                                         ["simulate", "--length", "100"]])
    @pytest.mark.parametrize("period", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_period(self, tmp_path, capsys, command, period):
        out = tmp_path / "out.csv"
        assert main([*command, f"--period={period}", "--output", str(out)]) == EXIT_DATA
        assert "period must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    # sha256 of the artifact body (every line after the metadata line) and the
    # metadata's MAEs; the two long tracks cross stacked-walk block boundaries
    # (three seeds at 2,730 steps, 25 seeds at 327) and the long simulate
    # crosses two 8,192-step ones; "{input}" is a 1,500-step ternary path
    # written by ``pinned_input``, "{prices}" a 300-row price file with
    # fractional timestamps written by ``pinned_prices``
    PINNED = [
        (["track", "--length", "400", "--samples", "3", "--seed", "5"],
         "274b76ec7f3f1c70648b12eeb2b0faab1aa5a4f3a723014acb0b052110eeab74",
         (0.06069566641730489, 0.08920967420485582)),
        (["track", "--length", "3000", "--samples", "3", "--seed", "5", "--window", "40"],
         "109f1050177f14d04250bd233bdfe55ce94e69586c524f8a3d34e18e7c0c1324",
         (0.0759668972772549, 0.08856753444455014)),
        (["track", "--length", "1000", "--samples", "25", "--seed", "0", "--period", "120"],
         "b8572eca36d4ad9651e6d5e85e590ac13deceb988b7b0c3d1e5d121f279298de",
         (0.0889207387812652, 0.10818186425353968)),
        (["simulate", "--length", "300", "--seed", "4"],
         "8f6e4e17cad2ee88a1e881adc82605cf9d1e69bd0471624dc9f2db1ae25fc0f2", None),
        (["simulate", "--length", "20000", "--seed", "2", "--period", "333.3"],
         "7b7ded04305922dc5343ed0b7359b0635c24746ccac33fe6ebfc4cf800ff0ca1", None),
        (["backtest", "--input", "{input}", "--n", "10,20,40", "--horizon", "8"],
         "bbc9432e81d01b88185df2bfb37fc75afdafc1b7b92f072c9c2d10cc2c0d8577", None),
        (["forecast", "--input", "{input}", "--method", "maxent", "--window", "60", "--horizon", "8"],
         "c1cbef48759428fe64372fdeae5a972f42e51ce3806b36ab3786948da8820f1d", None),
        (["forecast", "--input", "{input}", "--method", "naive", "--window", "60", "--horizon", "8"],
         "e9ca3d452bb0315c2f1e30874c0909f8f570dcc4b136956322088ca6310e9f03", None),
        (["forecast", "--input", "{input}", "--method", "sampling", "--window", "60", "--horizon", "8"],
         "2cb63de9758cab9fe13bac7f8acd9aba72480019e5e7fed6346fce733fc50ce0", None),
        (["forecast", "--input", "{input}", "--method", "maxent", "--window", "2", "--horizon", "8"],
         "ed9c6c62bd5766734a3a4f9ecf92a345b94f0d610ed0b5e8adb0bafa0c4c23b9", None),
        (["discretize", "--input", "{prices}"],
         "25a590753e17a2332c51173336d093f315e77aa1f03435c6a055a37c37078f69", None),
        (["ncmap", "--grid", "20", "--cap", "60"],
         "c412a6391454e50a84aaec043a35e6edf26a6d95a984ca4f5fb2dadea93359c6", None),
        (["mucurve", "--k", "3", "--n", "5,10,20", "--samples", "12", "--replicates", "30",
          "--seed", "4", "--stratify"],
         "58bd7aef4671b8fcf8c7154135304f309318db00423b6c34c2b10cee1e851c84", None),
        (["mucurve", "--k", "2", "--n", "10,25,50", "--grid", "20", "--cap", "60"],
         "bc31a5a575f9cd5fdda3a90199e9be8ef1e56514466b76624ae91c935b3b4891", None),
        (["estimate", "--input", "{input}", "--method", "maxent"],
         "f59a8bf764e005d98f3365ed5fcb0a418b5ec2eefdea710d4a0e9f2e849b868a", None),
        (["estimate", "--input", "{input}", "--method", "sampling"],
         "5d1d9d2934e8257c677112edb408c06da3803af361eccf39952599cfdf4c694b", None),
        (["estimate", "--input", "{input}", "--method", "naive"],
         "0800e01f1ca51c76356ff38e3ce7813ef505adb295274dddba9a9bd0f86d6a51", None),
        # JSON: the body is the document after its opening brace, metadata included
        (["track", "--length", "600", "--samples", "4", "--seed", "9", "--window", "30", "--format", "json"],
         "05f4c36f8eb05e2ff24b1cd007c2938f5dbd2facce59a6ae39c3ac39e1686d82", None),
    ]

    @staticmethod
    def pinned_input(tmp_path):
        states = StateSpace.ternary()
        w = StochasticMatrix(np.array([[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.2, 0.3, 0.5]]), states)
        path = tmp_path / "in.csv"
        write_states(path, simulate(w, Distribution.uniform(3), 1500, seed=11), states)
        return path

    @staticmethod
    def pinned_prices(tmp_path):
        moves = np.random.default_rng(3).choice([-1, 0, 1], size=300)
        prices = 100.0 * np.cumprod(1.0 + 0.001 * moves)
        path = tmp_path / "prices.csv"
        path.write_text(
            "timestamp,price\n" + "".join(f"{60.5 * t!r},{p!r}\n" for t, p in enumerate(prices.tolist()))
        )
        return path

    @pytest.mark.parametrize(
        "argv, body_sha256, maes", PINNED,
        ids=["track-400x3", "track-3000x3", "track-1000x25", "simulate-300", "simulate-20000",
             "backtest-1500", "forecast-maxent", "forecast-naive", "forecast-sampling",
             "forecast-maxent-w2", "discretize-300", "ncmap-20",
             "mucurve-3state", "mucurve-2state", "estimate-maxent", "estimate-sampling", "estimate-naive", "track-json"],
    )
    def test_artifacts_are_byte_identical_to_pinned(self, tmp_path, argv, body_sha256, maes):
        out = tmp_path / "out.csv"
        if "{input}" in argv:
            argv = [str(self.pinned_input(tmp_path)) if a == "{input}" else a for a in argv]
        if "{prices}" in argv:
            argv = [str(self.pinned_prices(tmp_path)) if a == "{prices}" else a for a in argv]
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        head, body = out.read_bytes().split(b"\n", 1)
        assert hashlib.sha256(body).hexdigest() == body_sha256
        if maes is not None:
            metadata = json.loads(head[2:])
            assert (metadata["mae_maxent"], metadata["mae_sampling"]) == maes


_NAN_PAYLOAD = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(np.float64)


class TestWriterCells:
    """Each CSV cell is the ``str`` of its column's Python scalar."""

    TABLES = {
        "signed-zeros": {"x": np.array([0.0, -0.0, 0.0, -0.0]), "y": np.array([-0.0, -0.0, 0.0, 1.0])},
        "non-finite": {"v": np.concatenate([[np.nan, np.inf, -np.inf, np.nan, 1.0, -np.inf], _NAN_PAYLOAD])},
        "repeated": {
            "v": np.random.default_rng(0).permutation(np.repeat([0.1, 1 / 3, 2.5e-310, 1e300, -7.0], 40)),
            "w": np.repeat([0.3, 0.2, 0.3, 0.2], 50),
            "s": np.tile([-1, 0, 1, 1, -1], 40),
        },
        "int64-extremes": {"n": np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max, 0, -1])},
        "one-row": {"a": np.array([1.5]), "b": ["s"], "c": np.array([7])},
        "string-lists": {
            "kind": ["mass", "mass", "tail", "mass"], "k": [0, 3, 0, 3], "v": np.array([0.1, 0.2, 0.1, -0.0]),
        },
        "strided": {"x": np.array([[0.0, -0.0], [1.0, 2.0], [3.0, -0.0]])[:, 1], "t": np.arange(3)[::-1]},
    }

    @pytest.mark.parametrize("name", list(TABLES))
    def test_each_cell_is_str_of_its_scalar(self, tmp_path, name):
        table = self.TABLES[name]
        out = tmp_path / "table.csv"
        cli._write_artifact(argparse.Namespace(format="csv", output=str(out)), {"command": "test"}, table)
        lines = out.read_text().split("\n")
        assert lines[0].startswith("# ") and lines[1] == ",".join(table) and lines[-1] == ""
        scalars = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
        assert [line.split(",") for line in lines[2:-1]] == [list(map(str, row)) for row in zip(*scalars)]

    def test_signed_zeros_and_nans_keep_their_cells(self, tmp_path):
        out = tmp_path / "table.csv"
        cli._write_artifact(argparse.Namespace(format="csv", output=str(out)), {}, self.TABLES["signed-zeros"])
        assert out.read_text().splitlines()[2:] == ["0.0,-0.0", "-0.0,-0.0", "0.0,0.0", "-0.0,1.0"]

    @pytest.mark.parametrize("argv", [
        ["track", "--length", "40", "--window", "50"],
        ["mucurve", "--k", "3", "--n", "5", "--samples", "0"],
    ])
    def test_a_failing_command_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == EXIT_DATA
        assert not out.exists()


class TestForecastAndBacktest:
    def test_forecast_outputs_mass_and_tails(self, tmp_path, rng):
        values = rng.choice([-1, 0, 1], size=120)
        inp = write_states_csv(tmp_path, values)
        out = tmp_path / "forecast.csv"
        assert main(["forecast", "--input", str(inp), "--window", "60",
                     "--horizon", "4", "--output", str(out)]) == EXIT_OK
        _, columns, rows = read_artifact(out)
        assert columns == ["kind", "k", "value"]
        mass = [float(r[2]) for r in rows if r[0] == "mass"]
        tails = [float(r[2]) for r in rows if r[0] == "tail_centile"]
        assert len(mass) == 9  # sums -4..4
        assert sum(mass) == pytest.approx(1.0, abs=1e-12)
        assert len(tails) == 10
        assert sum(tails) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("method", ["maxent", "sampling", "naive"])
    def test_forecast_rejects_window_below_two(self, tmp_path, capsys, method):
        inp = write_states_csv(tmp_path, [1, -1, 0, 1, 1])
        out = tmp_path / "f.csv"
        for window in ("0", "1", "-3"):
            code = main(["forecast", "--input", str(inp), f"--window={window}", "--method", method,
                         "--horizon", "2", "--output", str(out)])
            assert code == EXIT_DATA
            assert "window must be >= 2 to observe transitions" in capsys.readouterr().err
            assert not out.exists()

    def test_forecast_refuses_a_horizon_above_the_cap(self, tmp_path, capsys):
        # refused before the DP allocates: a ternary horizon of 1e9 would ask for ~48 GB
        inp = write_states_csv(tmp_path, [1, -1, 0, 1, 1])
        out = tmp_path / "f.csv"
        assert main(["forecast", "--input", str(inp), "--window", "4", "--horizon", "1000000000",
                     "--output", str(out)]) == EXIT_DATA
        assert "horizon must be between 1 and 10000" in capsys.readouterr().err
        assert not out.exists()

    def test_backtest_table(self, tmp_path, rng):
        values = rng.choice([-1, 0, 1], size=400)
        inp = write_states_csv(tmp_path, values)
        out = tmp_path / "backtest.csv"
        assert main(["backtest", "--input", str(inp), "--n", "10,20",
                     "--horizon", "4", "--stride", "11", "--output", str(out)]) == EXIT_OK
        _, columns, rows = read_artifact(out)
        assert columns == ["n", "method", "delta", "origins"]
        methods = {r[1] for r in rows}
        assert methods == {"maxent", "sampling", "naive"}
        assert all(float(r[2]) >= 0 for r in rows)

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--n", ","], "sample_sizes"),
            (["--n", "10", "--methods", ""], "methods"),
            (["--n", "10", "--methods", "maxent,maxent"], "methods"),
        ],
    )
    def test_backtest_rejects_empty_or_repeated_lists(self, tmp_path, rng, capsys, flags, name):
        inp = write_states_csv(tmp_path, rng.choice([-1, 0, 1], size=100))
        out = tmp_path / "backtest.csv"
        assert main(["backtest", "--input", str(inp), *flags, "--output", str(out)]) == EXIT_DATA
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["maxent", "sampling", "naive"])
    def test_forecast_uses_the_trailing_window_estimate(self, tmp_path, rng, method):
        from maxent_markov import StateSpace, StochasticMatrix, ingest, step_distribution
        from maxent_markov.estimators import frequency_estimate, maxent_estimate

        inp = write_states_csv(tmp_path, rng.choice([-1, 0, 1], size=80))
        out = tmp_path / "forecast.csv"
        assert main(["forecast", "--input", str(inp), "--window", "30", "--method", method,
                     "--horizon", "5", "--output", str(out)]) == EXIT_OK
        series, states = ingest.load_states(inp)
        window = sliced(series, 50, 80)
        if method == "maxent":
            entries = maxent_estimate(window, states).matrix.entries
        elif method == "sampling":
            entries = frequency_estimate(window, states).entries
        else:
            entries = np.full((3, 3), 1.0 / 3.0)
        q = step_distribution(StochasticMatrix(entries, states), int(series.indices[-1]), 5)
        _, _, rows = read_artifact(out)
        assert [r[2] for r in rows if r[0] == "mass"] == [repr(float(p)) for p in q.probabilities]


    @pytest.mark.parametrize("method", ["maxent", "sampling", "naive"])
    @pytest.mark.parametrize("window", [2, 37, 500])
    def test_forecast_estimates_its_trailing_window_alone(self, tmp_path, rng, monkeypatch, method, window):
        from maxent_markov import ingest

        inp = write_states_csv(tmp_path, rng.choice([-1, 0, 1], size=500))
        seen = {}

        def spy(name):
            real = getattr(cli, name)

            def call(series, *args):
                seen.setdefault(name, []).append(series.indices.copy())
                return real(series, *args)

            monkeypatch.setattr(cli, name, call)

        for name in ("_estimate", "maxent_estimate", "frequency_estimate"):
            spy(name)
        assert main(["forecast", "--input", str(inp), "--window", str(window), "--method", method,
                     "--horizon", "3", "--output", str(tmp_path / "f.csv")]) == EXIT_OK
        trailing = ingest.load_states(inp)[0].indices[-window:]
        estimator = {"maxent": "maxent_estimate", "sampling": "frequency_estimate"}.get(method)
        assert sorted(seen) == sorted({"_estimate", estimator} - {None})
        for calls in seen.values():
            assert len(calls) == 1 and calls[0].size == window
            assert np.array_equal(calls[0], trailing)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_bad_flag_value_is_usage_error(self):
        assert main(["ncmap", "--grid", "not_a_number"]) == EXIT_USAGE

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_nonconvergence_maps_to_exit_three(self, tmp_path, monkeypatch):
        from maxent_markov import ConvergenceError
        from maxent_markov import cli as cli_module

        def explode(*args, **kwargs):
            raise ConvergenceError("forced", 1.0)

        monkeypatch.setattr(cli_module, "maxent_estimate", explode)
        inp = write_states_csv(tmp_path, [1, -1, 1, -1])
        out = tmp_path / "never.csv"
        assert main(["estimate", "--input", str(inp), "--output", str(out)]) == EXIT_NUMERIC
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["frobnicate"], ["--k", "3", "mucurve"]])
    def test_only_a_leading_known_command_narrows_the_parser(self, monkeypatch, argv):
        built, full = [], cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or full(command))
        main(argv)
        assert built == [None]
        main(["ncmap", "--grid", "x"])
        assert built == [None, "ncmap"]

    def test_stdout_when_no_output(self, tmp_path, capsys):
        inp = write_states_csv(tmp_path, [1, -1, 1, -1])
        assert main(["estimate", "--input", str(inp)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("# {")


@pytest.mark.parametrize("flags", [["--help"], ["--bogus"], ["--format", "xml"], ["--output"]])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_subcommand_parser_prints_and_exits_as_the_full_one(monkeypatch, capsys, command, flags):
    def outcome():
        code = main([command, *flags])
        return code, *capsys.readouterr()

    narrow = outcome()
    assert narrow[0] == (EXIT_OK if flags == ["--help"] else EXIT_USAGE)
    assert list(next(a for a in _build_parser(command)._actions
                     if isinstance(a, argparse._SubParsersAction)).choices) == [command]
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert outcome() == narrow


ONE_TABLE_ARGV = {
    "estimate": ["estimate", "--input", "states.csv", "--method", "sampling"],
    "ncmap": ["ncmap", "--grid", "5", "--cap", "30"],
    "mucurve": ["mucurve", "--k", "3", "--n", "5,8", "--samples", "8", "--replicates", "10",
                "--stratify"],
    "simulate": ["simulate", "--length", "60", "--period", "20"],
    "track": ["track", "--length", "80", "--period", "40", "--window", "20"],
    "forecast": ["forecast", "--input", "states.csv", "--window", "30", "--horizon", "3"],
    "backtest": ["backtest", "--input", "states.csv", "--n", "10,20", "--horizon", "3",
                 "--stride", "5"],
    "discretize": ["discretize", "--input", "prices.csv"],
}


@pytest.mark.parametrize("command", list(ONE_TABLE_ARGV))
def test_csv_and_json_carry_one_table(tmp_path, rng, command):
    write_states_csv(tmp_path, rng.choice([-1, 0, 1], size=80))
    prices = 100.0 * np.cumprod(1.0 + 0.001 * rng.choice([-1, 0, 1], size=40))
    (tmp_path / "prices.csv").write_text(
        "timestamp,price\n" + "".join(f"{60.5 * t!r},{p!r}\n" for t, p in enumerate(prices.tolist()))
    )
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in ONE_TABLE_ARGV[command]]
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([*argv, "--output", str(csv_out)]) == EXIT_OK
    assert main([*argv, "--format", "json", "--output", str(json_out)]) == EXIT_OK

    doc = json.loads(json_out.read_text())
    lines = csv_out.read_text().splitlines()
    assert list(json.loads(lines[0][2:]).items()) == list(doc["metadata"].items())
    assert lines[1].split(",") == doc["columns"]
    assert doc["rows"]
    assert lines[2:] == [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in doc["rows"]
    ]
    if command == "discretize":
        assert all(isinstance(row[0], str) for row in doc["rows"])
    # the --help column list is a second copy of the table keys: tie them
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    description = subparsers.choices[command].description
    assert description.startswith("Output columns: ")
    assert lines[1] == description.removeprefix("Output columns: ").split(" (")[0]

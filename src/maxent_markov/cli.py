"""Command-line front end.

One binary with subcommands for estimation (``estimate``), parameter-space
sweeps (``ncmap``, ``mucurve``), time-varying simulations and tracking
(``simulate``, ``track``), tail forecasting (``forecast``, ``backtest``)
and price discretization (``discretize``).  Outputs are plot-ready tables:
CSV with a ``#``-prefixed JSON metadata line, or a single JSON document
with ``--format json``.  Artifacts are reproducible from the metadata
record, which always carries the resolved seed.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .accuracy import critical_size_map, mu_curve
from .chains import ReducibleChainError, StateSpace, StochasticMatrix
from .estimators import METHODS, _window_entries, frequency_estimate, maxent_estimate, sample_autocorrelation
from .forecast import backtest, step_distribution, symmetrized_centiles
from .ingest import PriceDataError, discretize, load_prices, load_states, resample, to_returns
from .nonstationary import generate_nonstationary, tracking_experiment
from .solver import ConvergenceError, InfeasibleTargetError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_M_TOP_PAD = -2  # mallopt parameter number in glibc's <malloc.h>
_HEAP_TOP_PAD = 4 << 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 on bad flags, not argparse's 2
        raise _UsageError(message)


def _int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _build_parser(command: str | None = None) -> _Parser:
    """The CLI parser: every subcommand, or with ``command`` that subcommand alone."""
    parser = _Parser(prog="maxent-markov", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, description: str) -> _Parser | None:
        return sub.add_parser(name, help=help, description=description) if command in (None, name) else None

    def common(p: _Parser) -> None:
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    if p := add(
        "estimate",
        help="estimate a transition matrix from a state CSV",
        description="Output columns: from_state,to_state,probability",
    ):
        p.add_argument("--input", required=True)
        p.add_argument("--method", choices=METHODS, default="maxent")
        p.add_argument("--k", type=int, choices=(2, 3), help="force the state-space size")
        common(p)

    if p := add(
        "ncmap",
        help="weighted critical-sample-size map of 2-state matrices",
        description="Output columns: stay_down,stay_up,nc_weighted,nc_down_row,nc_up_row",
    ):
        p.add_argument("--grid", type=int, default=100)
        p.add_argument("--cap", type=int, default=500)
        common(p)

    if p := add(
        "mucurve",
        help="favorable fraction mu(n) curves",
        description="Output columns: stratum,n,mu (stratum 0 = full population)",
    ):
        p.add_argument("--k", type=int, choices=(2, 3), required=True)
        p.add_argument("--n", type=_int_list, required=True, help="sample sizes, e.g. 10,25,50")
        p.add_argument("--grid", type=int, default=100)
        p.add_argument("--samples", type=int, default=2000)
        p.add_argument("--replicates", type=int, default=200)
        p.add_argument("--cap", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stratify", action="store_true")
        p.add_argument("--workers", type=int, default=1)
        common(p)

    if p := add(
        "simulate",
        help="realize the oscillating 2-state toy process",
        description="Output columns: t,state",
    ):
        p.add_argument("--length", type=int, required=True)
        p.add_argument("--period", type=float, default=500.0)
        p.add_argument("--seed", type=int, default=0)
        common(p)

    if p := add(
        "track",
        help="window-tracking comparison on the toy process",
        description="Output columns: t,true_stay_down,maxent,sampling",
    ):
        p.add_argument("--length", type=int, required=True)
        p.add_argument("--period", type=float, default=500.0)
        p.add_argument("--window", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=1, help="number of seeds averaged")
        common(p)

    if p := add(
        "forecast",
        help="multi-step tail forecast from the end of a series",
        description="Output columns: kind,k,value (kind is mass or tail_centile)",
    ):
        p.add_argument("--input", required=True)
        p.add_argument("--method", choices=METHODS, default="maxent")
        p.add_argument("--k", type=int, choices=(2, 3))
        p.add_argument("--window", type=int, required=True)
        p.add_argument("--horizon", type=int, default=8)
        common(p)

    if p := add(
        "backtest",
        help="rolling tail-error comparison of estimators",
        description="Output columns: n,method,delta,origins",
    ):
        p.add_argument("--input", required=True)
        p.add_argument("--k", type=int, choices=(2, 3))
        p.add_argument("--n", type=_int_list, required=True)
        p.add_argument("--horizon", type=int, default=8)
        p.add_argument("--methods", default=",".join(METHODS))
        p.add_argument("--stride", type=int, default=1)
        common(p)

    if p := add(
        "discretize",
        help="price CSV to down/flat/up state CSV",
        description="Output columns: timestamp,state",
    ):
        p.add_argument("--input", required=True)
        p.add_argument("--threshold", type=float, default=1e-4)
        p.add_argument("--interval", type=float, help="resample interval in seconds")
        common(p)

    return parser


def _write_artifact(args, metadata: dict, table: dict) -> None:
    """Emit a fully built table; nothing is written until the data exists.

    ``table`` maps each column name to its column, a numpy array or a list.
    A CSV cell is the ``str`` of its Python scalar, which for a float is its
    shortest round-trip ``repr``; ``_cells`` formats each distinct number of
    an array column once, and the body is one ``%``-format of all the cells.
    """
    metadata = {"artifact_version": __version__, **metadata}
    if args.format == "json":
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
        doc = {"metadata": metadata, "columns": list(table), "rows": list(zip(*columns))}
        parts = [json.dumps(doc, indent=2) + "\n"]
    else:
        grid = np.empty((len(next(iter(table.values()))), len(table)), dtype=object)  # row-major, as the body reads
        for j, column in enumerate(table.values()):
            grid[:, j] = _cells(column)
        rows, cells = len(grid), tuple(grid.ravel().tolist())
        del grid  # while the body is built, only the cells, the format and the text are held
        line = ",".join(["%s"] * len(table)) + "\n"
        parts = ["# " + json.dumps(metadata) + "\n" + ",".join(table) + "\n", line * rows % cells]
        del cells  # the cells' strings are not held while the text is encoded and written
    if args.output:
        with open(args.output, "w") as out:
            out.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _cells(column) -> np.ndarray | list[str]:
    """The CSV cells of one column, the ``str`` of each value: once per distinct number of an array.

    Integers whose range is shorter than the column are looked up in a table
    of that range.  Floats are grouped by ``np.unique`` on their values,
    which uses the float sort the estimators already load (an ``int64`` sort
    pages in another ~0.25 MB of numpy's code); ``-0.0 == 0.0``, so each
    zero then gets the cell of its own sign, and every NaN formats as ``nan``.
    """
    if not isinstance(column, np.ndarray):
        return list(map(str, column))
    if column.dtype.kind in "iu" and column.size and int(column.max()) - int(column.min()) < column.size:
        low = int(column.min())
        return np.array(list(map(str, range(low, int(column.max()) + 1))), dtype=object).take(column - low)
    if column.dtype != np.float64:
        return list(map(str, column.tolist()))
    distinct, inverse = np.unique(column, return_inverse=True)
    cells = np.array(list(map(str, distinct.tolist())), dtype=object).take(inverse)
    zeros = column == 0.0
    cells[zeros] = "0.0"
    cells[zeros & np.signbit(column)] = "-0.0"
    return cells


def _config(args, **extra) -> dict:
    skip = {"output", "format", "command"}
    resolved = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    resolved.update(extra)
    return {"command": args.command, **resolved}


def _cmd_estimate(args) -> tuple[dict, dict]:
    series, states = load_states(args.input, n_states=args.k)
    extra = {"k": states.size, "states": list(states.values)}
    if args.method == "maxent":
        solution = maxent_estimate(series, states)
        entries = solution.matrix.entries
        extra.update(
            multiplier=solution.multiplier,
            residual=solution.residual,
            target_autocorrelation=solution.target_autocorrelation,
            sample_autocorrelation=sample_autocorrelation(series, states).value,
        )
    elif args.method == "sampling":
        matrix = frequency_estimate(series, states)
        entries = matrix.entries
        extra.update(filled_rows=list(matrix.filled_rows))
    else:
        entries = np.full((states.size, states.size), 1.0 / states.size)
    values = states.as_array()
    return extra, {
        "from_state": np.repeat(values, states.size),
        "to_state": np.tile(values, states.size),
        "probability": entries.ravel(),
    }


def _cmd_ncmap(args) -> tuple[dict, dict]:
    grid_map = critical_size_map(resolution=args.grid, cap=args.cap)
    return {}, {
        "stay_down": grid_map.stay_down.ravel(),
        "stay_up": grid_map.stay_up.ravel(),
        "nc_weighted": grid_map.weighted.ravel(),
        "nc_down_row": grid_map.nc_down_row.ravel(),
        "nc_up_row": grid_map.nc_up_row.ravel(),
    }


def _cmd_mucurve(args) -> tuple[dict, dict]:
    curves = mu_curve(
        args.k, args.n, grid=args.grid, samples=args.samples, replicates=args.replicates,
        cap=args.cap, seed=args.seed, stratify=args.stratify, workers=args.workers,
    )
    return {}, {
        "stratum": [0 if c.stratum is None else c.stratum for c in curves for _ in c.sample_sizes],
        "n": np.concatenate([c.sample_sizes for c in curves]),
        "mu": np.concatenate([c.fractions for c in curves]),
    }


def _cmd_simulate(args) -> tuple[dict, dict]:
    series = generate_nonstationary(args.period, args.length, args.seed)
    values = series.values(StateSpace.binary())
    return {}, {"t": np.arange(values.size), "state": values.astype(int)}


def _cmd_track(args) -> tuple[dict, dict]:
    seeds = [args.seed + i for i in range(args.samples)]
    report = tracking_experiment(args.period, args.length, args.window, seeds)
    extra = {"seeds": seeds, "mae_maxent": report.mae["maxent"], "mae_sampling": report.mae["sampling"]}
    return extra, {
        "t": report.times,
        "true_stay_down": report.true_coefficient,
        "maxent": report.estimates["maxent"],
        "sampling": report.estimates["sampling"],
    }


def _cmd_forecast(args) -> tuple[dict, dict]:
    series, states = load_states(args.input, n_states=args.k)
    if len(series) < args.window:
        raise PriceDataError("series shorter than the requested window")
    entries = _window_entries(series, states, args.method, [len(series) - 1], args.window)[0]
    origin = int(series.indices[-1])
    q = step_distribution(StochasticMatrix(entries, states), origin, args.horizon)
    pi = symmetrized_centiles(q).pi
    return {"origin_state": origin, "k": states.size}, {
        "kind": ["mass"] * q.support.size + ["tail_centile"] * pi.size,
        "k": np.concatenate([q.support, np.arange(1, pi.size + 1)]),
        "value": np.concatenate([q.probabilities, pi]),
    }


def _cmd_backtest(args) -> tuple[dict, dict]:
    series, states = load_states(args.input, n_states=args.k)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    report = backtest(series, states, args.n, horizon=args.horizon, methods=methods, stride=args.stride)
    return {"k": states.size}, {
        "n": np.repeat(report.sample_sizes, len(methods)),
        "method": list(methods) * report.sample_sizes.size,
        "delta": np.stack([report.delta[m] for m in methods], axis=1).ravel(),
        "origins": np.repeat(report.origin_counts, len(methods)),
    }


def _cmd_discretize(args) -> tuple[dict, dict]:
    prices = load_prices(args.input)
    if args.interval is not None:
        prices = resample(prices, args.interval)
    returns = to_returns(prices)
    series = discretize(returns, threshold=args.threshold)
    return {}, {
        # strings, so JSON keeps the timestamps exactly as the CSV writes them
        "timestamp": list(map(repr, returns.timestamps.tolist())),
        "state": series.values(StateSpace.ternary()).astype(int),
    }


# each subcommand maps its arguments to (extra metadata, table of columns)
_COMMANDS = {
    "estimate": _cmd_estimate,
    "ncmap": _cmd_ncmap,
    "mucurve": _cmd_mucurve,
    "simulate": _cmd_simulate,
    "track": _cmd_track,
    "forecast": _cmd_forecast,
    "backtest": _cmd_backtest,
    "discretize": _cmd_discretize,
}


def run(argv) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    # only the invoked subcommand's parser; help, --version and unknown commands need them all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        extra, table = _COMMANDS[args.command](args)
        _write_artifact(args, _config(args, **extra), table)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PriceDataError, ReducibleChainError, InfeasibleTargetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _pad_heap_top() -> None:
    """Keep up to ``_HEAP_TOP_PAD`` bytes of freed heap mapped for the rest of the run.

    glibc returns free memory at the top of the heap to the kernel once it
    exceeds a small threshold, so loops that allocate and free ~1 MB of
    arrays per pass (the 3-state ``mucurve`` sweep) fault the same pages
    back in on every pass.  A no-op off Linux or without ``mallopt``.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def main(argv=None) -> int:
    _pad_heap_top()
    try:
        code = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --version/--help
        return int(exc.code or 0)
    return code


if __name__ == "__main__":
    sys.exit(main())

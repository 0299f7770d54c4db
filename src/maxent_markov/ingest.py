"""Price series loading, resampling, returns and three-state discretization.

Both CSV loaders parse their data rows in one ``np.loadtxt`` call (comma
separated, fields optionally double-quoted, blank lines skipped, extra
columns ignored) and name a bad row by its line.  Price files have a
``timestamp,price`` header and finite prices; state files may have a
``timestamp`` column.  Timestamps are ISO-8601 or epoch seconds (detected
once per file), finite and strictly increasing.  Resampling carries the
last price forward onto a fixed-interval grid, simple returns are taken,
and returns map to down / flat / up by a symmetric threshold (strict
inequalities: values exactly at the threshold count as flat).
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .chains import StateSequence, StateSpace

DEFAULT_THRESHOLD = 1e-4


class PriceDataError(ValueError):
    """Malformed or inconsistent market data input."""


@dataclass(frozen=True)
class PriceSeries:
    """Strictly increasing, finite timestamps (epoch seconds) with finite positive prices."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        px = np.asarray(self.prices, dtype=float)
        if ts.shape != px.shape or ts.ndim != 1:
            raise PriceDataError("timestamps and prices must be aligned 1-D arrays")
        if ts.size == 0:
            raise PriceDataError("empty price series")
        _validate(ts, px, lambda i: f"point {i}")
        for name, arr in (("timestamps", ts), ("prices", px)):
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.timestamps.size)


def _validate(ts: np.ndarray, px: np.ndarray, where) -> None:
    """Raise at the first point that breaks the series invariants; ``where(i)`` names point i."""
    finite = np.isfinite(ts) & np.isfinite(px)
    bad = np.flatnonzero(~finite | (px <= 0) | np.r_[False, np.diff(ts) <= 0])
    if bad.size:
        i = int(bad[0])
        reason = ("timestamps must be finite" if not np.isfinite(ts[i])
                  else "prices must be finite" if not finite[i]
                  else f"prices must be positive, got {float(px[i])!r}" if px[i] <= 0
                  else "timestamps must be strictly increasing")
        raise PriceDataError(f"{where(i)}: {reason}")


@dataclass(frozen=True)
class ReturnSeries:
    """Simple returns, stamped with the time of the later price."""

    timestamps: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.size)


def _parse_timestamp_iso(raw: str) -> float:
    dt = datetime.fromisoformat(raw.strip())
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


_loadtxt = functools.partial(np.loadtxt, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _header(path: Path, line: str) -> tuple[list[str], list[str]]:
    if not line:
        raise PriceDataError(f"{path}: empty file")
    header = next(csv.reader([line]))
    return header, [c.strip().lower() for c in header]


def _data_lines(fh, skip: int):
    """``(line number, text)`` of the non-blank lines after the first ``skip``."""
    fh.seek(0)
    return ((n, line) for n, line in enumerate(fh, start=1) if n > skip and line.strip())


def _file_line(path: Path, fh, skip: int):
    """``where(i)`` for ``_validate``: data row ``i`` named as ``path:line``."""
    return lambda i: f"{path}:{next(itertools.islice(_data_lines(fh, skip), i, None))[0]}"


def _read_columns(path: Path, fh, skip: int, usecols: list[int], iso_column: int | None = None):
    """Columns ``usecols`` of the non-blank lines after the first ``skip``, in one C parse.

    ISO-8601 ``iso_column`` values are detected from the first data row.  numpy's
    row counts skip blank lines, so a bad line is found by re-parsing, on error only.
    """
    lines = filter(str.strip, fh)
    first = next(lines, None)
    if first is None:
        raise PriceDataError(f"{path}: no data rows")
    converters = None
    if iso_column is not None:
        try:
            _loadtxt([first], usecols=[iso_column])
        except ValueError:
            converters = {iso_column: _parse_timestamp_iso}
    try:
        return _loadtxt(itertools.chain([first], lines), usecols=usecols, converters=converters)
    except ValueError:
        for line_no, line in _data_lines(fh, skip):
            try:
                _loadtxt([line], usecols=usecols, converters=converters)
            except ValueError:
                raise PriceDataError(f"{path}:{line_no}: malformed row {line.strip()!r}") from None
        raise


def load_prices(path: str | Path) -> PriceSeries:
    """Read a ``timestamp,price`` CSV into a validated series.

    Malformed rows, and the first row that breaks the ``PriceSeries``
    invariants, are reported with their line number.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        header, names = _header(path, fh.readline())
        if names[:2] != ["timestamp", "price"]:
            raise PriceDataError(f"{path}: expected header 'timestamp,price', got {header}")
        ts, px = _read_columns(path, fh, 1, [0, 1], iso_column=0).T
        _validate(ts, px, _file_line(path, fh, 1))
    return PriceSeries(ts, px)


def resample(prices: PriceSeries, interval: float) -> PriceSeries:
    """Last-observation-carried-forward prices on a fixed-interval grid.

    One point per grid boundary (multiples of ``interval``) covered by
    the data; boundaries before the first observation produce nothing,
    gaps carry the previous price forward.
    """
    if not 0.0 < interval < np.inf:  # also false for NaN
        raise ValueError(f"interval must be a positive finite number, got {interval!r}")
    ts = prices.timestamps
    first = np.ceil(ts[0] / interval) * interval
    last = np.floor(ts[-1] / interval) * interval
    if last < first:
        raise PriceDataError("data covers no grid boundary at this interval")
    boundaries = np.arange(first, last + interval / 2, interval)
    idx = np.searchsorted(ts, boundaries, side="right") - 1
    return PriceSeries(boundaries, prices.prices[idx])


def to_returns(prices: PriceSeries) -> ReturnSeries:
    """Simple returns ``(p_t - p_(t-1)) / p_(t-1)``."""
    if len(prices) < 2:
        raise PriceDataError("need at least two prices to form returns")
    px = prices.prices
    return ReturnSeries(prices.timestamps[1:], np.diff(px) / px[:-1])


def discretize(returns: ReturnSeries, threshold: float = DEFAULT_THRESHOLD) -> StateSequence:
    """Map returns to the down / flat / up alphabet.

    Down for ``r < -threshold``, up for ``r > threshold``, flat otherwise;
    returns exactly at the threshold are flat (strict inequalities).
    """
    if not 0.0 < threshold < np.inf:  # also false for NaN
        raise ValueError(f"threshold must be a positive finite number, got {threshold!r}")
    r = returns.values
    indices = np.ones(r.size, dtype=np.int64)  # flat
    indices[r < -threshold] = 0
    indices[r > threshold] = 2
    return StateSequence(indices, 3)


def write_states(
    path: str | Path,
    series: StateSequence,
    states: StateSpace,
    timestamps: np.ndarray | None = None,
) -> None:
    """Write a state sequence as CSV of state values, optionally timestamped."""
    path = Path(path)
    values = series.values(states)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if timestamps is not None:
            if len(timestamps) != len(series):
                raise ValueError("timestamps and states must be aligned")
            writer.writerow(["timestamp", "state"])
            for ts, v in zip(timestamps, values):
                writer.writerow([repr(float(ts)), _format_state(v)])
        else:
            writer.writerow(["state"])
            for v in values:
                writer.writerow([_format_state(v)])


def _format_state(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def load_states(path: str | Path, n_states: int | None = None) -> tuple[StateSequence, StateSpace]:
    """Read a state-value CSV back into a sequence plus its state space.

    Accepts a single ``state`` column or ``timestamp,state``, after any
    leading ``#`` lines (such as the CLI's metadata line, so ``discretize``
    artifacts load as written).  Timestamps are checked as in ``load_prices``.
    The state space defaults to the symmetric codes implied by the values
    (any zero present means three states); pass ``n_states`` to force it.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        skip, line = 1, fh.readline()
        while line.startswith("#"):
            skip, line = skip + 1, fh.readline()
        header, names = _header(path, line)
        if "state" not in names:
            raise PriceDataError(f"{path}: no 'state' column in header {header}")
        cols = [names.index(name) for name in ("state", "timestamp") if name in names]
        data = _read_columns(path, fh, skip, cols, iso_column=cols[1] if len(cols) > 1 else None)
        if len(cols) > 1:
            _validate(data[:, 1], np.ones(len(data)), _file_line(path, fh, skip))
    values = data[:, 0]
    forced = n_states is not None
    if not forced:
        n_states = 3 if np.any(values == 0) else 2
    space = StateSpace.default(n_states)
    grid = space.as_array()
    indices = np.minimum(np.searchsorted(grid, values), grid.size - 1)
    missing = np.flatnonzero(grid[indices] != values)
    if missing.size and forced:
        raise PriceDataError(f"{path}: state value {float(values[missing[0]])!r} not in {space.values}")
    if missing.size:
        raise PriceDataError(f"{path}: state values {sorted(set(values.tolist()))} are not in the "
                             "-1/0/+1 alphabet; pass n_states explicitly")
    return StateSequence(indices, n_states), space

"""Price series loading, resampling, returns and three-state discretization.

Input files are two-column CSVs with a ``timestamp,price`` header;
timestamps are ISO-8601 or epoch seconds (detected once per file).
Resampling carries the last observed price forward onto a fixed-interval
grid, simple returns are taken, and returns are mapped to the down / flat
/ up alphabet by a symmetric threshold (strict inequalities: values
exactly at the threshold count as flat).
"""

from __future__ import annotations

import csv
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
    """Strictly increasing timestamps (epoch seconds) with positive prices."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        px = np.asarray(self.prices, dtype=float)
        if ts.shape != px.shape or ts.ndim != 1:
            raise PriceDataError("timestamps and prices must be aligned 1-D arrays")
        if ts.size == 0:
            raise PriceDataError("empty price series")
        if np.any(np.diff(ts) <= 0):
            raise PriceDataError("timestamps must be strictly increasing")
        if np.any(px <= 0):
            raise PriceDataError("prices must be positive")
        for name, arr in (("timestamps", ts), ("prices", px)):
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass(frozen=True)
class ReturnSeries:
    """Simple returns, stamped with the time of the later price."""

    timestamps: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.size)


def _parse_timestamp_epoch(raw: str) -> float:
    return float(raw)


def _parse_timestamp_iso(raw: str) -> float:
    dt = datetime.fromisoformat(raw.strip())
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def load_prices(path: str | Path) -> PriceSeries:
    """Read a ``timestamp,price`` CSV into a validated series.

    The timestamp format (epoch seconds or ISO-8601) is detected from the
    first data row and applied to the whole file; malformed rows are
    reported with their line number.
    """
    path = Path(path)
    timestamps: list[float] = []
    prices: list[float] = []
    parse = None
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise PriceDataError(f"{path}: empty file")
        names = [c.strip().lower() for c in header]
        if names[:2] != ["timestamp", "price"]:
            raise PriceDataError(f"{path}: expected header 'timestamp,price', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise PriceDataError(f"{path}:{line_no}: expected two columns, got {row}")
            if parse is None:
                try:
                    _parse_timestamp_epoch(row[0])
                    parse = _parse_timestamp_epoch
                except ValueError:
                    parse = _parse_timestamp_iso
            try:
                ts = parse(row[0])
                price = float(row[1])
            except ValueError as exc:
                raise PriceDataError(f"{path}:{line_no}: malformed row: {exc}") from exc
            if price <= 0:
                raise PriceDataError(f"{path}:{line_no}: price must be positive, got {price}")
            if timestamps and ts <= timestamps[-1]:
                raise PriceDataError(
                    f"{path}:{line_no}: timestamps must be strictly increasing"
                )
            timestamps.append(ts)
            prices.append(price)
    if not timestamps:
        raise PriceDataError(f"{path}: no data rows")
    return PriceSeries(np.array(timestamps), np.array(prices))


def resample(prices: PriceSeries, interval: float) -> PriceSeries:
    """Last-observation-carried-forward prices on a fixed-interval grid.

    One point per grid boundary (multiples of ``interval``) covered by
    the data; boundaries before the first observation produce nothing,
    gaps carry the previous price forward.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
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
    if threshold <= 0:
        raise ValueError("threshold must be positive")
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
    artifacts load as written).  The state space defaults to the symmetric
    codes implied by the values (any zero present means three states);
    pass ``n_states`` to force it.
    """
    path = Path(path)
    values: list[float] = []
    with path.open(newline="") as fh:
        comments = 0
        line = fh.readline()
        while line.startswith("#"):
            comments += 1
            line = fh.readline()
        if not line:
            raise PriceDataError(f"{path}: empty file")
        reader = csv.reader(itertools.chain([line], fh))
        header = next(reader)
        names = [c.strip().lower() for c in header]
        try:
            col = names.index("state")
        except ValueError:
            raise PriceDataError(f"{path}: no 'state' column in header {header}") from None
        for line_no, row in enumerate(reader, start=comments + 2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values.append(float(row[col]))
            except (ValueError, IndexError) as exc:
                raise PriceDataError(f"{path}:{line_no}: malformed row: {exc}") from exc
    if not values:
        raise PriceDataError(f"{path}: no data rows")
    arr = np.array(values)
    if n_states is None:
        distinct = set(arr.tolist())
        if not distinct <= {-1.0, 0.0, 1.0}:
            raise PriceDataError(
                f"{path}: state values {sorted(distinct)} are not in the -1/0/+1 alphabet; "
                "pass n_states explicitly"
            )
        n_states = 3 if 0.0 in distinct else 2
    space = StateSpace.default(n_states)
    lookup = {v: i for i, v in enumerate(space.values)}
    try:
        indices = np.array([lookup[v] for v in arr.tolist()], dtype=np.int64)
    except KeyError as exc:
        raise PriceDataError(f"{path}: state value {exc} not in {space.values}") from exc
    return StateSequence(indices, n_states), space

"""Dated price series: ingestion, train/test splitting, and the MAPE objective.

A series is an ordered list of (calendar day, price) observations with
strictly ascending dates and strictly positive, finite values.  Both
are enforced at construction so MAPE (which divides by the target
values) is total and finite everywhere else.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class TimeSeries:
    """Immutable (date, value) observations, ascending, positive and finite."""

    dates: tuple[date, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise ValueError(
                f"dates ({len(self.dates)}) and values ({len(self.values)}) differ in length"
            )
        if len(self.dates) < 1:
            raise ValueError("a time series needs at least one observation")
        for i, v in enumerate(self.values):
            if not 0 < v < math.inf:
                raise ValueError(f"non-positive or non-finite value {v!r} at position {i}")
        for i in range(1, len(self.dates)):
            if self.dates[i] <= self.dates[i - 1]:
                raise ValueError(
                    f"dates not strictly ascending at position {i}: "
                    f"{self.dates[i - 1]} then {self.dates[i]}"
                )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def start(self) -> date:
        return self.dates[0]

    @property
    def end(self) -> date:
        return self.dates[-1]

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class SplitSpec:
    """Boundary for a train/test split: last day included in training."""

    boundary: date


def load_csv(path: str | Path) -> TimeSeries:
    """Read `date,value` rows (ISO dates, optional one-line header).

    Rows may arrive unsorted; the result is sorted ascending by date.
    Raises FileNotFoundError for a missing file and ValueError (with the
    offending line number) for malformed rows, non-positive or non-finite
    values, or duplicate dates.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")

    rows: list[tuple[date, float]] = []
    with path.open(newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue  # blank line
            if len(record) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'date,value', got {len(record)} fields")
            raw_date, raw_value = record[0].strip(), record[1].strip()
            if lineno == 1 and not _is_number(raw_value):
                continue  # header line, e.g. "date,close"
            try:
                d = date.fromisoformat(raw_date)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad date {raw_date!r} (want ISO-8601)") from None
            try:
                v = float(raw_value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value {raw_value!r}") from None
            if not 0 < v < math.inf:
                raise ValueError(f"{path}:{lineno}: non-positive or non-finite value {raw_value}")
            rows.append((d, v))

    if not rows:
        raise ValueError(f"{path}: no observations")
    rows.sort(key=lambda r: r[0])
    for i in range(1, len(rows)):
        if rows[i][0] == rows[i - 1][0]:
            raise ValueError(f"{path}: duplicate date {rows[i][0]}")
    return TimeSeries(tuple(r[0] for r in rows), tuple(r[1] for r in rows))


def save_csv(ts: TimeSeries, path: str | Path) -> None:
    """Write a series in the same `date,value` format load_csv reads."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("date,value\n")
        for d, v in zip(ts.dates, ts.values):
            fh.write(f"{d.isoformat()},{v!r}\n")


def split(ts: TimeSeries, spec: SplitSpec) -> tuple[TimeSeries, TimeSeries]:
    """Partition into (train, test): train holds dates <= boundary.

    The boundary must lie strictly inside the date range so both parts
    are non-empty; it need not be an observation date itself.
    """
    if spec.boundary < ts.start:
        raise ValueError(f"split boundary {spec.boundary} precedes the series (starts {ts.start})")
    if spec.boundary >= ts.end:
        raise ValueError(f"split boundary {spec.boundary} leaves the test part empty (ends {ts.end})")
    k = sum(1 for d in ts.dates if d <= spec.boundary)
    train = TimeSeries(ts.dates[:k], ts.values[:k])
    test = TimeSeries(ts.dates[k:], ts.values[k:])
    return train, test


def mape(actual: TimeSeries, predicted: TimeSeries) -> float:
    """Mean absolute percentage error of `predicted` against `actual`.

    (1/N) * sum(|actual_i - predicted_i| / actual_i), as a fraction.
    The two series must cover exactly the same dates.
    """
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: actual {len(actual)} vs predicted {len(predicted)}")
    if actual.dates != predicted.dates:
        for i, (a, p) in enumerate(zip(actual.dates, predicted.dates)):
            if a != p:
                raise ValueError(f"date mismatch at row {i}: actual {a} vs predicted {p}")
    return float(mape_rows(actual, predicted.values_array()))


def mape_rows(actual: TimeSeries, predicted: np.ndarray) -> np.ndarray:
    """MAPE against `actual` of every row of `predicted`, an array shaped (..., len(actual))."""
    x = actual.values_array()
    return np.mean(np.abs(x - predicted) / x, axis=-1)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False

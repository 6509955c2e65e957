"""Dated price series, train/test splitting, the MAPE objective, and file I/O.

A series is an ordered list of (calendar day, price) observations with
strictly ascending dates and positive, finite, normal (not subnormal)
values.  Both are enforced at construction so MAPE (which divides by the
target values) is total and finite everywhere else, and any value can
start a simulation.

The module owns the package's file I/O: dated CSVs, JSON files, the
readers that check each JSON field, and the atomic write every output
goes through (write_atomically).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def value_fault(value: float) -> str | None:
    """Why `value` cannot be a series value, or None: it must be positive, finite and normal.

    The reason is a str.format template: the caller fills in {value}, the
    value as it was given, and {where}, its position of it (may be empty).
    """
    if not 0 < value < math.inf:
        return "non-positive or non-finite value {value}{where}"
    if value < sys.float_info.min:
        return "subnormal value {value}{where} (below " + repr(sys.float_info.min) + ")"
    return None


@dataclass(frozen=True)
class TimeSeries:
    """Immutable (date, value) observations, ascending, positive, finite and normal."""

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
            fault = value_fault(v)
            if fault:
                raise ValueError(fault.format(value=repr(v), where=f" at position {i}"))
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


def parse_date(text: str) -> date:
    """The date written as exactly `YYYY-MM-DD` in ASCII digits.

    date.fromisoformat alone also takes `20090102` and `2009-W01-5` from
    Python 3.11 on, so the same file would load on one Python and not on
    another.
    """
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"bad date {text!r} (want YYYY-MM-DD, e.g. 2008-12-31)")
    try:
        return date.fromisoformat(text)
    except ValueError as err:  # e.g. 2009-02-30
        raise ValueError(f"bad date {text!r} ({err})") from None


def load_csv(path: str | Path) -> TimeSeries:
    """Read `date,value` rows (YYYY-MM-DD dates; line 1 is a header when neither of its fields parses).

    Rows may arrive unsorted; the result is sorted ascending by date.
    Raises FileNotFoundError for a missing file and ValueError (with the
    offending line number) for malformed rows, non-positive, subnormal or
    non-finite values, or duplicate dates.
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
            try:
                v = float(raw_value)
            except ValueError:
                v = None
            try:
                d = parse_date(raw_date)
            except ValueError as err:
                if lineno == 1 and v is None:
                    continue  # header line, e.g. "date,close"
                raise ValueError(f"{path}:{lineno}: {err}") from None
            if v is None:
                raise ValueError(f"{path}:{lineno}: bad value {raw_value!r}")
            fault = value_fault(v)
            if fault:
                raise ValueError(f"{path}:{lineno}: " + fault.format(value=raw_value, where=""))
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
    write_dated_csv(path, "date,value", ts.dates, ts.values)


def write_dated_csv(path: str | Path, header: str, dates: Sequence[date], *columns: Sequence[float]) -> None:
    """Write `header`, then per date its ISO date and each column's value as repr (see write_atomically)."""
    rows = "".join(",".join([d.isoformat(), *map(repr, values)]) + "\n" for d, *values in zip(dates, *columns))
    write_atomically(Path(path), header + "\n" + rows)


def write_atomically(path: Path, text: str) -> None:
    """Replace `path` with `text` in one step.

    The text goes to `.<name>.<pid>.tmp` beside `path`, which os.replace
    then renames over it, so a failed write leaves the old file as it was
    and removes the partial one.  The file is created like any other, so
    the output gets the usual permissions.  An OSError names `path`.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as err:
        raise OSError(err.errno, err.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)  # gone already once renamed


def read_json(path: str | Path, what: str):
    """The JSON value in `path`; `what` (the file's role) and `path` are named in every error."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as err:  # JSONDecodeError, or bytes that are not text
        raise ValueError(f"{what} {path} is not valid JSON: {err}") from None


def json_number(value, field: str) -> float:
    """A JSON number as a float; null, bools, strings and the rest raise naming `field`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def json_integer(value, field: str) -> int:
    """A JSON integer; null, bools, floats, strings and the rest raise naming `field`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def json_boolean(value, field: str) -> bool:
    """A JSON true or false; anything else (the string "false" included) raises naming `field`."""
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be true or false, got {value!r}")
    return value


def known_keys(data: dict, known: Iterable[str], what: str) -> None:
    """Raise naming every key of `data` not in `known`: a misspelt key would silently take its default."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {unknown}")


def parsed_fields(cls, data: dict, prefix: str) -> dict:
    """Each field of `cls` annotated float, int or bool, read from `data` by that annotation string.

    One with a default may be absent (KeyError if not); errors name it `prefix` + its name.
    """
    readers = {"float": json_number, "int": json_integer, "bool": json_boolean}
    return {f.name: readers[f.type](data[f.name], prefix + f.name) for f in fields(cls)
            if f.type in readers and (f.name in data or f.default is MISSING)}


def write_json(path: str | Path, payload) -> None:
    """Write `payload` as indented JSON plus a final newline (see write_atomically)."""
    write_atomically(Path(path), json.dumps(payload, indent=2) + "\n")


def split(ts: TimeSeries, boundary: date) -> tuple[TimeSeries, TimeSeries]:
    """Partition into (train, test): `boundary` is the last training day, so train holds dates <= boundary.

    The boundary must lie strictly inside the date range so both parts
    are non-empty; it need not be an observation date itself.
    """
    if boundary < ts.start:
        raise ValueError(f"split boundary {boundary} precedes the series (starts {ts.start})")
    if boundary >= ts.end:
        raise ValueError(f"split boundary {boundary} leaves the test part empty (ends {ts.end})")
    k = sum(1 for d in ts.dates if d <= boundary)
    train = TimeSeries(ts.dates[:k], ts.values[:k])
    test = TimeSeries(ts.dates[k:], ts.values[k:])
    return train, test


def mape(actual: TimeSeries, predicted: TimeSeries) -> float:
    """Mean absolute percentage error of `predicted` against `actual`.

    (1/N) * sum(|actual_i - predicted_i| / actual_i), as a fraction.
    The two series must cover exactly the same dates (see check_aligned).
    """
    check_aligned(actual, predicted)
    return float(mape_rows(actual, predicted.values_array()))


def check_aligned(actual: TimeSeries, predicted: TimeSeries) -> None:
    """Raise unless the two series cover exactly the same dates, naming the first difference."""
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: actual {len(actual)} vs predicted {len(predicted)}")
    for i, (a, p) in enumerate(zip(actual.dates, predicted.dates)):
        if a != p:
            raise ValueError(f"date mismatch at row {i}: actual {a} vs predicted {p}")


def mape_rows(actual: TimeSeries, predicted: np.ndarray) -> np.ndarray:
    """MAPE against `actual` of every row of `predicted`, an array shaped (..., len(actual))."""
    x = actual.values_array()
    return np.mean(np.abs(x - predicted) / x, axis=-1)

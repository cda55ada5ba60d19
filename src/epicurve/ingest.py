"""Parsing and validation of raw case counts and unit metadata.

Input files are plain CSV:

* cases:    header ``unit_id,date,count``, ``YYYY-MM-DD`` dates, one row per unit-day
* metadata: header ``unit_id,city_code,district_letter,age_group,population,region,status``

A gap in the day axis of a unit is a hard error, never an implicit zero,
because silent zero-fill would distort crossing times downstream.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import operator
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DataError

REGIONS = ("North", "South")
STATUSES = ("Urban", "Suburban")


@dataclass(frozen=True)
class UnitMeta:
    """Static attributes of one unit (district or district-age-group)."""

    unit_id: str
    city_code: str
    district_letter: str
    population: int
    region: str
    status: str
    age_group: Optional[int] = None

    def __post_init__(self):
        if self.population <= 0:
            raise DataError(f"{self.unit_id}: population must be positive")
        if self.population > 2**63 - 1:  # populations become an int64 array
            raise DataError(f"{self.unit_id}: population too large")
        if self.region not in REGIONS:
            raise DataError(f"{self.unit_id}: region must be one of {REGIONS}")
        if self.status not in STATUSES:
            raise DataError(f"{self.unit_id}: status must be one of {STATUSES}")
        if self.age_group is not None and self.age_group not in (1, 2, 3, 4):
            raise DataError(f"{self.unit_id}: age_group must be in 1..4")


@dataclass(frozen=True)
class RateSeries:
    """Daily infection rates (cases per `scale` persons per day) for one unit."""

    unit_id: str
    start_date: dt.date
    rates: tuple[float, ...]


@contextlib.contextmanager
def _open_input(path):
    """Open a UTF-8 CSV input; a file that cannot be opened, decoded or split
    into CSV fields is a DataError, as a malformed one is."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def iso_date(text: str) -> dt.date:
    """The date of ``YYYY-MM-DD`` text, on every Python version (from 3.11
    ``date.fromisoformat`` also reads ``20220325`` and ``2022-W12-5``)."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


CASE_COLUMNS = ("unit_id", "date", "count")
META_COLUMNS = ("unit_id", "city_code", "district_letter", "age_group",
                "population", "region", "status")


class CaseCounts(NamedTuple):
    """Daily case counts of the units of a case CSV, in first-appearance order."""

    unit_ids: list[str]
    start_ordinals: np.ndarray  # day ordinal of each unit's first day
    lengths: np.ndarray  # days of data of each unit
    counts: np.ndarray  # units × max(lengths), int64; 0 past a unit's last day

    def values(self):
        """Per unit, an object whose ``counts`` are its days, as in a
        ``{unit: series}`` mapping; bench/tracer.py counts rows through it."""
        return (SimpleNamespace(counts=row[:n])
                for row, n in zip(self.counts, self.lengths.tolist()))


def _drain(codes: list[int]) -> np.ndarray:
    """``codes`` as an int64 array, emptied to free its memory."""
    out = np.array(codes, dtype=np.int64)
    codes.clear()
    return out


def _duplicate(unit_ids: list[str], units, days) -> Optional[DataError]:
    """The error of the first row, in file order, whose unit and day an
    earlier row has, or None."""
    u, d = np.asarray(units, dtype=np.int64), np.asarray(days, dtype=np.int64)
    key = u * (d.max(initial=0) + 1) + d
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if not repeats.size:
        return None
    i = repeats.min()
    return DataError(f"row {i + 2}: duplicate ({unit_ids[u[i]]}, "
                     f"{dt.date.fromordinal(int(d[i]))})")


def parse_case_series(path) -> CaseCounts:
    """Read a case CSV into one units × days count matrix.

    One csv.reader pass keeps the unit, day ordinal and count of each row,
    looked up by raw cell text, so each distinct text is parsed and checked
    once; array code then finds duplicates and gaps. Rows may come in any
    order but must cover each unit's consecutive days once. Errors are
    those of a row-by-row check, naming the first bad row (blank lines are
    not numbered); gaps come last, by unit in first-appearance order.
    """
    names: dict[str, int] = {}  # stripped unit id -> code, in first-appearance order
    unit_of, day_of, count_of = {}, {}, {}  # raw cell text -> code
    units, days, counts = [], [], []  # the unit, day and count of each row kept

    def fail(message: str) -> DataError:
        """The error of the row after those kept, unless one of those repeats."""
        return (_duplicate(list(names), units, days)
                or DataError(f"row {len(units) + 2}: {message}"))

    def first_sight(row: list[str]) -> tuple[int, int, int]:
        """Codes of a row holding a cell text not seen before."""
        if len(row) < width:
            raise fail("missing " + ", ".join(c for c in CASE_COLUMNS
                                              if index[c] >= len(row)))
        unit, date, count = row[i_unit], row[i_date], row[i_count]
        if unit not in unit_of:
            if not unit.strip():
                raise fail("empty unit_id")
            unit_of[unit] = names.setdefault(unit.strip(), len(names))
        if date not in day_of:
            try:
                day_of[date] = iso_date(date.strip()).toordinal()
            except ValueError as exc:
                raise fail(f"unparseable date {date.strip()!r}") from exc
        if count not in count_of:
            try:
                count_of[count] = int(count)
            except ValueError as exc:
                raise fail(f"unparseable count {count!r}") from exc
            if count_of[count] < 0:
                raise fail(f"negative count for {unit.strip()}")
            if count_of[count] > 2**63 - 1:  # the count matrix is int64
                raise fail("count too large")
        return unit_of[unit], day_of[date], count_of[count]

    with _open_input(path) as fh:
        reader = csv.reader(fh)
        # a repeated column name resolves to its last copy, as in csv.DictReader
        index = {name: i for i, name in enumerate(next(reader, None) or ())}
        if not index.keys() >= set(CASE_COLUMNS):
            raise DataError(f"{path}: expected header unit_id,date,count")
        i_unit, i_date, i_count = (index[c] for c in CASE_COLUMNS)
        width = max(i_unit, i_date, i_count) + 1
        add_unit, add_day, add_count = units.append, days.append, counts.append
        for row in reader:
            if row:
                try:
                    u, d, c = unit_of[row[i_unit]], day_of[row[i_date]], count_of[row[i_count]]
                except (IndexError, KeyError):
                    u, d, c = first_sight(row)
                add_unit(u)
                add_day(d)
                add_count(c)

    unit_ids = list(names)
    u, d, c = map(_drain, (units, days, counts))  # one list at a time
    span = d.max(initial=0) + 1
    keys = np.sort(u * span + d)  # by unit, then day
    if (keys[1:] == keys[:-1]).any():
        raise _duplicate(unit_ids, u, d)
    lengths = np.bincount(u, minlength=len(unit_ids))
    ends = np.cumsum(lengths)
    starts, lasts = keys[ends - lengths] % span, keys[ends - 1] % span
    gaps = np.flatnonzero(lasts - starts + 1 != lengths).tolist()
    if gaps:
        raise DataError(f"{unit_ids[gaps[0]]}: gap in day axis between "
                        f"{dt.date.fromordinal(starts[gaps[0]])} and "
                        f"{dt.date.fromordinal(lasts[gaps[0]])}")
    del keys  # so it is not live at the matrix fill, the parse's peak memory
    d -= starts[u]  # each row's column in the matrix
    matrix = np.zeros((len(unit_ids), lengths.max(initial=0)), dtype=np.int64)
    matrix[u, d] = c
    return CaseCounts(unit_ids, starts, lengths, matrix)


def parse_unit_metadata(path) -> dict[str, UnitMeta]:
    """Read the metadata CSV into a registry keyed by unit_id. Blank lines are
    skipped and not numbered; a repeated column name resolves to its last copy."""
    out: dict[str, UnitMeta] = {}
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader, None) or ())}
        if not index.keys() >= set(META_COLUMNS):
            raise DataError(f"{path}: unexpected metadata header")
        at = [index[c] for c in META_COLUMNS]
        cells = operator.itemgetter(*at)
        for row_no, row in enumerate(filter(None, reader), start=2):
            if len(row) <= max(at):
                missing = [c for c, i in zip(META_COLUMNS, at) if i >= len(row)]
                raise DataError(f"row {row_no}: missing {', '.join(missing)}")
            unit, city, letter, age_raw, pop_raw, region, status = cells(row)
            unit, age_raw = unit.strip(), age_raw.strip()
            if unit in out:
                raise DataError(f"row {row_no}: duplicate unit {unit!r}")
            try:
                age = int(age_raw) if age_raw else None
            except ValueError as exc:
                raise DataError(f"row {row_no}: bad age_group {age_raw!r}") from exc
            try:
                population = int(pop_raw)
            except ValueError as exc:
                raise DataError(f"row {row_no}: bad population {pop_raw!r}") from exc
            try:
                out[unit] = UnitMeta(unit, city.strip(), letter.strip(), population,
                                     region.strip(), status.strip(), age)
            except DataError as exc:
                raise DataError(f"row {row_no}: {exc}") from exc
    return out


"""Parsing and validation of raw case counts and unit metadata.

Input files are plain CSV:

* cases:    header ``unit_id,date,count``, ISO dates, one row per unit-day
* metadata: header ``unit_id,city_code,district_letter,age_group,population,region,status``

A gap in the day axis of a unit is a hard error, never an implicit zero,
because silent zero-fill would distort crossing times downstream.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
from dataclasses import dataclass
from typing import Optional

from .errors import DataError

REGIONS = ("North", "South")
STATUSES = ("Urban", "Suburban")

@dataclass(frozen=True)
class RawSeries:
    """Consecutive daily case counts for one unit."""

    unit_id: str
    start_date: dt.date
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) < 1:
            raise DataError(f"{self.unit_id}: empty count series")
        if min(self.counts) < 0:
            raise DataError(f"{self.unit_id}: negative count")

    @property
    def end_date(self) -> dt.date:
        return self.start_date + dt.timedelta(days=len(self.counts) - 1)


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

    @property
    def end_date(self) -> dt.date:
        return self.start_date + dt.timedelta(days=len(self.rates) - 1)


@contextlib.contextmanager
def _open_input(path):
    """Open a UTF-8 CSV input; a file that cannot be opened or decoded is a
    DataError, as a malformed one is."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _parse_date(text: str, row_no: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"row {row_no}: unparseable date {text!r}") from exc


CASE_COLUMNS = ("unit_id", "date", "count")
META_COLUMNS = ("unit_id", "city_code", "district_letter", "age_group",
                "population", "region", "status")


def parse_case_series(path) -> dict[str, RawSeries]:
    """Read a case CSV into one RawSeries per unit.

    Rows for a unit may appear in any order but must cover consecutive
    days exactly once. Errors report the offending row number; blank
    lines are skipped and not numbered.
    """
    per_unit: dict[str, dict[int, int]] = {}
    # Cells are looked up by their raw text, so each distinct unit and
    # date text is stripped and parsed once.
    units: dict[str, dict[int, int]] = {}
    ordinals: dict[str, int] = {}
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        # a repeated column name resolves to its last copy, as in csv.DictReader
        index = {name: i for i, name in enumerate(next(reader, None) or ())}
        if not index.keys() >= set(CASE_COLUMNS):
            raise DataError(f"{path}: expected header unit_id,date,count")
        i_unit, i_date, i_count = (index[c] for c in CASE_COLUMNS)
        width = max(i_unit, i_date, i_count) + 1
        row_no = 1
        for row in reader:
            if not row:
                continue
            row_no += 1
            if len(row) < width:
                missing = [c for c in CASE_COLUMNS if index[c] >= len(row)]
                raise DataError(f"row {row_no}: missing {', '.join(missing)}")
            days = units.get(row[i_unit])
            if days is None:
                unit = row[i_unit].strip()
                if not unit:
                    raise DataError(f"row {row_no}: empty unit_id")
                days = units[row[i_unit]] = per_unit.setdefault(unit, {})
            day = ordinals.get(row[i_date])
            if day is None:
                day = _parse_date(row[i_date].strip(), row_no).toordinal()
                ordinals[row[i_date]] = day
            try:
                count = int(row[i_count])
            except ValueError as exc:
                raise DataError(
                    f"row {row_no}: unparseable count {row[i_count]!r}"
                ) from exc
            if count < 0:
                raise DataError(f"row {row_no}: negative count for {row[i_unit].strip()}")
            if day in days:
                raise DataError(f"row {row_no}: duplicate ({row[i_unit].strip()}, "
                                f"{dt.date.fromordinal(day)})")
            days[day] = count

    out: dict[str, RawSeries] = {}
    for unit, days in per_unit.items():
        first, last = min(days), max(days)
        start = dt.date.fromordinal(first)
        if last - first + 1 != len(days):
            raise DataError(f"{unit}: gap in day axis between {start} "
                            f"and {dt.date.fromordinal(last)}")
        counts = tuple(map(days.__getitem__, range(first, last + 1)))
        out[unit] = RawSeries(unit_id=unit, start_date=start, counts=counts)
    return out


def parse_unit_metadata(path) -> dict[str, UnitMeta]:
    """Read the metadata CSV into a registry keyed by unit_id."""
    out: dict[str, UnitMeta] = {}
    with _open_input(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(META_COLUMNS).issubset(reader.fieldnames):
            raise DataError(f"{path}: unexpected metadata header")
        for row_no, row in enumerate(reader, start=2):
            missing = [c for c in META_COLUMNS if row[c] is None]
            if missing:
                raise DataError(f"row {row_no}: missing {', '.join(missing)}")
            unit = row["unit_id"].strip()
            if unit in out:
                raise DataError(f"row {row_no}: duplicate unit {unit!r}")
            age_raw = (row["age_group"] or "").strip()
            try:
                age = int(age_raw) if age_raw else None
            except ValueError as exc:
                raise DataError(f"row {row_no}: bad age_group {age_raw!r}") from exc
            try:
                population = int(row["population"])
            except ValueError as exc:
                raise DataError(
                    f"row {row_no}: bad population {row['population']!r}"
                ) from exc
            try:
                out[unit] = UnitMeta(
                    unit_id=unit,
                    city_code=row["city_code"].strip(),
                    district_letter=row["district_letter"].strip(),
                    population=population,
                    region=row["region"].strip(),
                    status=row["status"].strip(),
                    age_group=age,
                )
            except DataError as exc:
                raise DataError(f"row {row_no}: {exc}") from exc
    return out


def window_slice(series, start: dt.date, end: dt.date) -> slice:
    """Index range of the days [start, end] in a RawSeries or RateSeries."""
    if start > end:
        raise DataError(f"window start {start} after end {end}")
    if start < series.start_date or end > series.end_date:
        raise DataError(
            f"{series.unit_id}: window [{start}, {end}] outside data "
            f"[{series.start_date}, {series.end_date}]"
        )
    i = (start - series.start_date).days
    return slice(i, i + (end - start).days + 1)


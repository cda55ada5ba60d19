"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import io
import math
import os
import re
import tempfile
import warnings

import numpy as np

from epicurve.curve_features import (
    FEATURE_ALPHAS,
    FEATURE_COLUMNS,
    CurveFeatures,
    find_peak,
)
from epicurve.errors import ComputationError, DataError
from epicurve.infotheory import (
    COLS_GIVEN_ROWS,
    ROWS_GIVEN_COLS,
    ContingencyTable,
    _conditional_entropies,
    _grouped_entropy,
    entropy,
    rescaled_ce,
)
from epicurve.ingest import META_COLUMNS, CaseCounts, RateSeries, UnitMeta, _open_input
from epicurve.major_factor import NullDropStats, _encode, _marginal_entropy

START = dt.date(2022, 3, 25)
END = dt.date(2022, 8, 19)


@dataclasses.dataclass(frozen=True)
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


def end_date(series) -> dt.date:
    """Last day of a RawSeries or RateSeries."""
    days = series.rates if isinstance(series, RateSeries) else series.counts
    return series.start_date + dt.timedelta(days=len(days) - 1)


def case_series(parsed: CaseCounts) -> dict[str, RawSeries]:
    """``{unit: RawSeries}`` of a parse_case_series result, units in its order."""
    return {unit: RawSeries(unit, dt.date.fromordinal(int(start)), tuple(row[:n].tolist()))
            for unit, start, n, row in zip(*parsed)}


def window_slice(series, start: dt.date, end: dt.date) -> slice:
    """Index range of the days [start, end] in a RawSeries or RateSeries."""
    if start > end:
        raise DataError(f"window start {start} after end {end}")
    if start < series.start_date or end > end_date(series):
        raise DataError(
            f"{series.unit_id}: window [{start}, {end}] outside data "
            f"[{series.start_date}, {end_date(series)}]"
        )
    i = (start - series.start_date).days
    return slice(i, i + (end - start).days + 1)


def write_case_series(path, series: dict[str, RawSeries]) -> None:
    """Serialize a RawSeries set back to the CSV wire format (round-trippable)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "date", "count"])
        for unit in sorted(series):
            s = series[unit]
            for i, c in enumerate(s.counts):
                writer.writerow([unit, (s.start_date + dt.timedelta(days=i)).isoformat(), c])


def compute_daily_rates(
    series: RawSeries, meta: UnitMeta, scale: float = 100_000.0
) -> RateSeries:
    """Convert counts to rates: counts[t] / population * scale."""
    if series.unit_id != meta.unit_id:
        raise DataError(
            f"unit_id mismatch: series {series.unit_id!r} vs meta {meta.unit_id!r}"
        )
    rates = tuple(c / meta.population * scale for c in series.counts)
    return RateSeries(unit_id=series.unit_id, start_date=series.start_date, rates=rates)


def window_clip(series: RateSeries, start: dt.date, end: dt.date) -> RateSeries:
    """Return the sub-series covering exactly [start, end]."""
    return RateSeries(unit_id=series.unit_id, start_date=start,
                      rates=series.rates[window_slice(series, start, end)])


def contingency(x, y) -> ContingencyTable:
    """Cross-tabulate two categorical columns; labels are the sorted
    distinct observed categories (0 included when present)."""
    x = np.asarray(x, dtype=int)
    y = np.asarray(y, dtype=int)
    if x.shape != y.shape:
        raise ComputationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size == 0:
        raise ComputationError("empty columns")
    row_labels, xi = np.unique(x, return_inverse=True)
    col_labels, yi = np.unique(y, return_inverse=True)
    shape = (row_labels.size, col_labels.size)
    counts = np.bincount(xi.reshape(-1) * shape[1] + yi.reshape(-1),
                         minlength=shape[0] * shape[1]).reshape(shape)
    return ContingencyTable(tuple(row_labels.tolist()), tuple(col_labels.tolist()),
                            counts)


def mutual_ce(t: ContingencyTable) -> float:
    """Symmetric association: mean of the two directional re-scaled CEs."""
    return 0.5 * (rescaled_ce(t, COLS_GIVEN_ROWS) + rescaled_ce(t, ROWS_GIVEN_COLS))


def triangle(pad: int, rise: int, decline: int, peak: float, total: int) -> np.ndarray:
    """Zero-padded rise/decline triangle of length ``total``."""
    curve = np.zeros(total)
    for d in range(rise + 1):
        curve[pad + d] = peak * d / rise
    for d in range(1, decline + 1):
        t = pad + rise + d
        if t < total:
            curve[t] = max(0.0, peak * (1 - d / decline))
    return curve


def geography_series(n_per_side: int = 42, seed: int = 123):
    """Two groups of rate curves: steep growth (North) vs shallow (South),
    with matched decline. Returns (series list, {unit_id: region})."""
    rng = np.random.default_rng(seed)
    total = (END - START).days + 1
    series, regions = [], {}
    for i in range(2 * n_per_side):
        north = i < n_per_side
        rise = int(rng.integers(16, 24)) if north else int(rng.integers(50, 62))
        decline = int(rng.integers(62, 70))
        peak = 80.0 * float(1 + 0.08 * rng.standard_normal())
        curve = triangle(pad=12, rise=rise, decline=decline, peak=peak, total=total)
        unit = f"{'NO' if north else 'SO'}{i:03d}"
        series.append(RateSeries(unit_id=unit, start_date=START, rates=tuple(curve)))
        regions[unit] = "North" if north else "South"
    return series, regions


def write_synthetic_inputs(dirpath, n_units: int = 20, seed: int = 7):
    """Write cases.csv and meta.csv for a small varied synthetic cohort.

    Half the units get steep growth and are tagged North/Urban, the other
    half shallow growth, South/Suburban. Returns (cases_path, meta_path).
    """
    rng = np.random.default_rng(seed)
    total = (END - START).days + 1
    cases_path = dirpath / "cases.csv"
    meta_path = dirpath / "meta.csv"

    with open(cases_path, "w", newline="") as cfh, open(meta_path, "w", newline="") as mfh:
        cases = csv.writer(cfh)
        meta = csv.writer(mfh)
        cases.writerow(["unit_id", "date", "count"])
        meta.writerow(["unit_id", "city_code", "district_letter", "age_group",
                       "population", "region", "status"])
        for i in range(n_units):
            north = i < n_units // 2
            rise = int(rng.integers(15, 26)) if north else int(rng.integers(35, 46))
            decline = int(rng.integers(65, 86))
            peak = float(rng.integers(400, 650))
            curve = triangle(pad=5, rise=rise, decline=decline, peak=peak, total=total)
            noise = 1.0 + 0.08 * rng.standard_normal(total)
            counts = np.maximum(0, np.rint(curve * noise)).astype(int)
            unit = f"{'TP' if north else 'KS'}{chr(ord('a') + i % 12)}{i:02d}"
            for d, c in enumerate(counts):
                cases.writerow([unit, (START + dt.timedelta(days=d)).isoformat(), c])
            meta.writerow([
                unit, "TP" if north else "KS", chr(ord("a") + i % 12), "",
                100000 + 1000 * i,
                "North" if north else "South",
                "Urban" if north else "Suburban",
            ])
    return cases_path, meta_path


def base_config(dirpath, out_name: str = "out") -> dict:
    """Config mapping exercising every stage on the synthetic cohort."""
    return {
        "cases": "cases.csv",
        "metadata": "meta.csv",
        "output": out_name,
        "window": {"start": START, "end": END},
        "n_bins": 4,
        "thresholds": [0.6, 0.7],
        "fusions": [
            {"name": "left30to70",
             "columns": ["left30", "left40", "left50", "left60", "left70"],
             "k": 4, "seed": 11, "restarts": 20},
        ],
        "responses": [
            {"response": "region",
             "candidates": ["left30to70", "left80", "right50", "peakvalue"],
             "order": 2, "replicates": 50, "seed": 5, "top": 3, "bottom": 1},
        ],
        "clusterings": [
            {"name": "left",
             "columns": ["left90", "left80", "left70", "left60",
                         "left50", "left40", "left30", "left20"]},
        ],
    }


def config_to_dict(cfg) -> dict:
    """The plain mapping of a PipelineConfig that config_from_dict reads back."""
    data = dataclasses.asdict(cfg)
    data["window"] = {"start": data.pop("window_start"),
                      "end": data.pop("window_end")}
    return data


def random_merge_tree(n_leaves: int, rng: np.random.Generator):
    """Random agglomeration respecting the smaller-min-leaf-left rule."""
    from epicurve.cluster_fuse import HCTree

    active = list(range(n_leaves))
    min_leaf = {i: i for i in range(n_leaves)}
    merges = []
    height = 0.0
    node = n_leaves
    while len(active) > 1:
        i, j = rng.choice(len(active), size=2, replace=False)
        a, b = active[int(i)], active[int(j)]
        height += float(rng.random())
        left, right = (a, b) if min_leaf[a] <= min_leaf[b] else (b, a)
        merges.append((node, left, right, height))
        min_leaf[node] = min(min_leaf[a], min_leaf[b])
        active = [x for x in active if x not in (a, b)] + [node]
        node += 1
    labels = tuple(f"L{i}" for i in range(n_leaves))
    return HCTree(leaf_labels=labels, merges=tuple(merges))


def naive_ward_reference(x: np.ndarray):
    """Centroid-formula Ward.D2: merge distances computed directly as
    2|A||B|/(|A|+|B|) * ||centroid_A - centroid_B||^2, no Lance-Williams
    recursion. Same tie-break key as the production implementation."""
    n = x.shape[0]
    members = {i: [i] for i in range(n)}
    min_leaf = {i: i for i in range(n)}
    active = set(range(n))
    merges = []
    node = n
    while len(active) > 1:
        best_key, best = None, None
        for a in sorted(active):
            for b in sorted(active):
                if b <= a:
                    continue
                ca = x[members[a]].mean(axis=0)
                cb = x[members[b]].mean(axis=0)
                na, nb = len(members[a]), len(members[b])
                d2 = 2.0 * na * nb / (na + nb) * float(((ca - cb) ** 2).sum())
                lo, hi = sorted((min_leaf[a], min_leaf[b]))
                key = (d2, lo, hi)
                if best_key is None or key < best_key:
                    best_key, best = key, (a, b)
        a, b = best
        left, right = (a, b) if min_leaf[a] <= min_leaf[b] else (b, a)
        merges.append((node, left, right, float(np.sqrt(best_key[0]))))
        members[node] = members[a] + members[b]
        min_leaf[node] = min(min_leaf[a], min_leaf[b])
        active -= {a, b}
        active.add(node)
        node += 1
    return merges


def oracle_joint_conditional_entropy(y, cols) -> float:
    """H(Y | F) by a dict-of-dicts row loop: groups of F and the Y cells
    within a group are visited in first-occurrence order."""
    y = np.asarray(y, dtype=int)
    cols = [np.asarray(c, dtype=int) for c in cols]
    n = y.size
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for i in range(n):
        key = tuple(int(c[i]) for c in cols)
        cell = groups.setdefault(key, {})
        cell[int(y[i])] = cell.get(int(y[i]), 0) + 1
    h = 0.0
    for cell in groups.values():
        counts = list(cell.values())
        nk = sum(counts)
        h += (nk / n) * entropy(counts)
    return h


def oracle_batch_entropies(y: np.ndarray, keys: np.ndarray, first_seen: bool) -> np.ndarray:
    """H(Y | key) per row of ``keys`` (m, n), counting the cells with one
    ``np.unique`` sort of their ids and, with ``first_seen``, putting each
    group's cells in first-occurrence order by a lexsort."""
    m, n = keys.shape
    ny = int(y.max()) + 1
    span = int(keys.max()) + 1
    cell = ((np.arange(m)[:, None] * span + keys) * ny + y).reshape(-1)
    cell, first, counts = np.unique(cell, return_index=True, return_counts=True)
    group = cell // ny
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    if first_seen:
        group_first = np.minimum.reduceat(first, starts)
        rank = np.repeat(group_first, np.diff(np.r_[starts, cell.size]))
        order = np.lexsort((first, rank))
        counts, group = counts[order], group[order]
        starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    return _grouped_entropy(counts, starts, group[starts] // span, n)


def oracle_permutation_orders(seed: int, replicates: int, n: int) -> np.ndarray:
    """(replicates, n) null row orders of one seed, one ``default_rng([seed, r])``
    built per replicate, in the smallest unsigned dtype holding n - 1."""
    orders = np.empty((replicates, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    for r in range(replicates):
        orders[r] = np.random.default_rng([seed, r]).permutation(n)
    return orders


def oracle_noise_threshold(y, existing, candidate, replicates: int = 200,
                           seed: int = 0) -> NullDropStats:
    """Permutation-null stats for one candidate, drawing replicate r as
    ``default_rng([seed, r]).permutation`` of the column and counting all
    replicates in one kernel call."""
    if replicates < 1:
        raise ComputationError("replicates must be >= 1")
    y, columns = _encode(y, list(existing) + [candidate])
    e = len(columns) - 1
    base = (float(_conditional_entropies(y, columns, [range(e)])[0]) if e
            else _marginal_entropy(y))
    perms = [np.random.default_rng([seed, r]).permutation(columns[e])
             for r in range(replicates)]
    sets = np.column_stack([np.tile(np.arange(e), (replicates, 1)),
                            e + np.arange(replicates)])
    drops = base - _conditional_entropies(y, np.vstack([columns[:e], *perms]), sets)
    return NullDropStats(mean=float(drops.mean()), q95=float(np.percentile(drops, 95)))


def oracle_network_dot(names, matrix, tau: float, directed: bool, name: str) -> str:
    """DOT text of a threshold network by a nested loop over the matrix:
    an edge (names[i], names[j]) with weight 1 - entry wherever the entry
    is <= tau and i != j; an undirected network scans j > i only."""
    edges = []
    for i in range(len(names)):
        js = range(len(names)) if directed else range(i + 1, len(names))
        for j in js:
            if i != j and matrix[i, j] <= tau:
                edges.append((names[i], names[j], 1.0 - float(matrix[i, j])))
    kind = "digraph" if directed else "graph"
    arrow = "->" if directed else "--"
    lines = [f"{kind} {name} {{"]
    for node in names:
        lines.append(f'    "{node}";')
    for u, v, w in edges:
        lines.append(f'    "{u}" {arrow} "{v}" [weight={w:.6f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_contingency(x, y) -> ContingencyTable:
    """Cross-tabulation by a row loop over sorted distinct labels."""
    x = np.asarray(x, dtype=int)
    y = np.asarray(y, dtype=int)
    row_labels = tuple(int(v) for v in np.unique(x))
    col_labels = tuple(int(v) for v in np.unique(y))
    counts = np.zeros((len(row_labels), len(col_labels)), dtype=int)
    ri = {v: i for i, v in enumerate(row_labels)}
    ci = {v: i for i, v in enumerate(col_labels)}
    for a, b in zip(x, y):
        counts[ri[int(a)], ci[int(b)]] += 1
    return ContingencyTable(row_labels, col_labels, counts)


def oracle_conditional_entropy(t: ContingencyTable) -> float:
    """H(col | row) as a loop over rows in ascending label order."""
    n = t.counts.sum()
    h = 0.0
    for row in t.counts:
        nr = row.sum()
        if nr > 0:
            h += (nr / n) * entropy(row)
    return h


def oracle_left_crossing(s, alpha: float):
    """left_crossing as a scan over the days up to the peak."""
    t_max, peak = find_peak(s)
    threshold = (1.0 - alpha) * peak
    v = np.asarray(s.values)
    if v[0] >= threshold:
        return None
    for t in range(t_max + 1):
        if v[t] >= threshold:
            return t
    return t_max  # unreachable: v[t_max] == peak >= threshold


def oracle_right_crossing(s, alpha: float):
    """right_crossing from the running maximum of the days after the peak."""
    t_max, peak = find_peak(s)
    threshold = (1.0 - alpha) * peak
    v = np.asarray(s.values)
    if t_max == v.size - 1:
        return None
    # suffix running maximum over (t_max, end]
    tail = v[t_max + 1:]
    suffix_max = np.maximum.accumulate(tail[::-1])[::-1]
    below = suffix_max < threshold
    idx = np.nonzero(below)[0]
    if idx.size == 0:
        return None
    return t_max + 1 + int(idx[0])


def oracle_feature_line(f: CurveFeatures) -> str:
    """features.csv line of one unit, formatted value by value: NA empty,
    an integral value as an int, any other value to 6 decimals."""
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, int) or v == int(v):
            return str(int(v))
        return f"{v:.6f}"

    row = {"peakvalue": f.peakvalue, "peak": f.peak, "curvature": f.curvature}
    for a in FEATURE_ALPHAS:
        row[f"left{int(a * 100)}"] = f.left[a]
        row[f"right{int(a * 100)}"] = f.right[a]
    return ",".join([f.unit_id, f.peakdate.isoformat()]
                    + [fmt(row[c]) for c in FEATURE_COLUMNS[1:]])


def oracle_extract_features(s) -> CurveFeatures:
    """Features of one smoothed curve from find_peak and the scalar
    crossing oracles: one left/right crossing scan per alpha."""
    t_max, peak = find_peak(s)
    peakdate = s.start_date + dt.timedelta(days=t_max)
    n = len(s.values)

    if t_max < 6 or t_max > n - 7:  # a boundary peak: curvature-based features NA
        return CurveFeatures(
            unit_id=s.unit_id,
            peakdate=peakdate,
            peakvalue=peak,
            robust_peak=None,
            peak=None,
            curvature=None,
            left={a: None for a in FEATURE_ALPHAS},
            right={a: None for a in FEATURE_ALPHAS},
        )

    l01 = oracle_left_crossing(s, 0.1)
    r01 = oracle_right_crossing(s, 0.1)
    if l01 is None or r01 is None:
        raise ComputationError(
            f"{s.unit_id}: cannot center curve (a 90%-of-peak crossing is censored)"
        )
    t0 = (l01 + r01) // 2
    left, right = {}, {}
    for a in FEATURE_ALPHAS:
        la = oracle_left_crossing(s, a)
        ra = oracle_right_crossing(s, a)
        left[a] = None if la is None else t0 - la
        right[a] = None if ra is None else ra - t0

    return CurveFeatures(
        unit_id=s.unit_id,
        peakdate=peakdate,
        peakvalue=peak,
        robust_peak=t0,
        peak=t_max - t0,
        curvature=r01 - l01,
        left=left,
        right=right,
    )


def oracle_iso_date(text: str) -> dt.date:
    """The date of ``YYYY-MM-DD`` text, read field by field."""
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(text)
    return dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))


def oracle_parse_case_series(path) -> dict[str, RawSeries]:
    """Case CSV parse with csv.DictReader, one date parse and one
    date-keyed insert per row; rows must have every header cell."""
    per_unit: dict[str, dict[dt.date, int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"unit_id", "date", "count"}.issubset(
                reader.fieldnames):
            raise DataError(f"{path}: expected header unit_id,date,count")
        for row_no, row in enumerate(reader, start=2):
            unit = row["unit_id"].strip()
            if not unit:
                raise DataError(f"row {row_no}: empty unit_id")
            try:
                day = oracle_iso_date(row["date"].strip())
            except ValueError as exc:
                raise DataError(
                    f"row {row_no}: unparseable date {row['date'].strip()!r}") from exc
            try:
                count = int(row["count"])
            except ValueError as exc:
                raise DataError(
                    f"row {row_no}: unparseable count {row['count']!r}") from exc
            if count < 0:
                raise DataError(f"row {row_no}: negative count for {unit}")
            if count > 2**63 - 1:
                raise DataError(f"row {row_no}: count too large")
            days = per_unit.setdefault(unit, {})
            if day in days:
                raise DataError(f"row {row_no}: duplicate ({unit}, {day})")
            days[day] = count

    out: dict[str, RawSeries] = {}
    for unit, days in per_unit.items():
        ordered = sorted(days)
        start, end = ordered[0], ordered[-1]
        if (end - start).days + 1 != len(ordered):
            raise DataError(f"{unit}: gap in day axis between {start} and {end}")
        counts = tuple(days[start + dt.timedelta(days=i)] for i in range(len(ordered)))
        out[unit] = RawSeries(unit_id=unit, start_date=start, counts=counts)
    return out


def oracle_parse_unit_metadata(path) -> dict[str, UnitMeta]:
    """Metadata CSV parse with csv.DictReader, one dict per row."""
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


def oracle_read_table(path: str, columns, parse):
    """_read_table with one ``parse(column, text)`` call per cell, in row order."""
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        rows = [row for row in reader if row]
    missing = [c for c in ["unit_id", *(columns or ())] if c not in header]
    if missing:
        raise DataError(f"{path}: header lacks {', '.join(missing)}")
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {row_no} has {len(row)} cells, "
                            f"expected {len(header)}")
    index = {c: i for i, c in enumerate(header)}
    units = [row[index["unit_id"]] for row in rows]
    for row_no, unit in enumerate(units, start=2):
        if unit in units[:row_no - 2]:
            raise DataError(f"{path}: row {row_no}: duplicate unit {unit!r}")
    cols = [(c, index[c], []) for c in columns or index if c != "unit_id"]
    for row_no, row in enumerate(rows, start=2):
        for c, i, values in cols:
            try:
                values.append(parse(c, row[i]))
            except ValueError as exc:
                raise DataError(
                    f"{path}: row {row_no}: unparseable {c} {row[i]!r}") from exc
    return units, {c: np.array(values) for c, _, values in cols}


def oracle_discretize(values, n_bins: int = 4):
    """Quantile binning one element at a time: None and NaN are NA (0),
    present values are looked up in a dict of distinct values or compared
    with the edges one by one."""
    vals = [None if v is None or (isinstance(v, float) and math.isnan(v)) else float(v)
            for v in values]
    if not vals:
        raise ComputationError("empty column")
    present = np.array([v for v in vals if v is not None], dtype=float)
    if present.size == 0:
        raise ComputationError("column is all NA")

    distinct = np.unique(present)
    cats = np.zeros(len(vals), dtype=int)

    if distinct.size < n_bins:  # a degenerate column: distinct-value bins
        lookup = {v: i + 1 for i, v in enumerate(distinct)}
        for i, v in enumerate(vals):
            if v is not None:
                cats[i] = lookup[v]
        return cats, None

    qs = [100.0 * k / n_bins for k in range(1, n_bins)]
    edges = np.percentile(present, qs)
    for i, v in enumerate(vals):
        if v is not None:
            cats[i] = 1 + int(np.sum(v >= edges))
    return cats, edges


def oracle_hcluster_ward(matrix, leaf_labels):
    """Greedy Ward.D2 over a dict of squared distances keyed by node-id
    pairs: every merge scans the whole dict for the smallest key
    (d2, min leaf, max leaf) and rewrites the merged pair's entries."""
    from epicurve.cluster_fuse import HCTree

    matrix = np.asarray(matrix, dtype=float)
    labels = list(leaf_labels)
    complete = ~np.isnan(matrix).any(axis=1)
    excluded = [labels[i] for i in range(len(labels)) if not complete[i]]
    x = matrix[complete]
    kept = [labels[i] for i in range(len(labels)) if complete[i]]
    n = x.shape[0]
    if n < 2:
        raise ComputationError(f"need at least 2 complete rows, got {n}")

    diff = x[:, None, :] - x[None, :, :]
    d2_init = (diff ** 2).sum(axis=2)
    d2: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d2[(i, j)] = float(d2_init[i, j])

    size = {i: 1 for i in range(n)}
    min_leaf = {i: i for i in range(n)}
    active = set(range(n))
    merges = []
    for step in range(n - 1):
        node = n + step
        best_key = None
        best = None
        for (i, j), v in d2.items():
            a, b = sorted((min_leaf[i], min_leaf[j]))
            key = (v, a, b)
            if best_key is None or key < best_key:
                best_key, best = key, (i, j)
        i, j = best
        height = float(np.sqrt(d2[(i, j)]))
        left, right = (i, j) if min_leaf[i] <= min_leaf[j] else (j, i)
        merges.append((node, left, right, height))

        dij = d2.pop((i, j))
        ni, nj = size[i], size[j]
        for kx in list(active - {i, j}):
            nk = size[kx]
            dik = d2.pop(tuple(sorted((i, kx))))
            djk = d2.pop(tuple(sorted((j, kx))))
            dnew = ((ni + nk) * dik + (nj + nk) * djk - nk * dij) / (ni + nj + nk)
            d2[tuple(sorted((kx, node)))] = dnew
        active -= {i, j}
        active.add(node)
        size[node] = ni + nj
        min_leaf[node] = min(min_leaf[i], min_leaf[j])

    return HCTree(leaf_labels=tuple(kept), merges=tuple(merges)), excluded


def oracle_height_inversions(tree) -> list[tuple[int, float, float]]:
    """(step, height, highest earlier height) of each merge more than 1e-9
    below a merge before it; the first merge is compared with 0."""
    heights = [height for *_, height in tree.merges]
    out = []
    for step, height in enumerate(heights):
        highest = max([0.0] + heights[:step])
        if height < highest - 1e-9:
            out.append((step, height, highest))
    return out


def oracle_codes(tree) -> dict[int, str]:
    """{leaf: binary path code (left=0, right=1)} in left-to-right traversal
    order, by one stack traversal."""
    children = {node: (left, right) for node, left, right, _ in tree.merges}
    codes: dict[int, str] = {}
    stack = [(tree.merges[-1][0], "")]
    while stack:
        node, prefix = stack.pop()
        if node in children:
            left, right = children[node]
            # push right first so left is visited first
            stack.append((right, prefix + "1"))
            stack.append((left, prefix + "0"))
        else:
            codes[node] = prefix
    return codes


def oracle_leaf_codes(tree):
    """Leaf codes by one stack traversal, and their similarity by comparing
    the two codes of every pair character by character."""
    from epicurve.cluster_fuse import LeafCodes

    codes = oracle_codes(tree)
    n = len(tree.leaf_labels)
    code_list = tuple(codes[i] for i in range(n))
    sim = np.zeros((n, n), dtype=int)
    for u in range(n):
        sim[u, u] = len(code_list[u])
        for v in range(u + 1, n):
            a, b = code_list[u], code_list[v]
            m = 0
            for ca, cb in zip(a, b):
                if ca != cb:
                    break
                m += 1
            sim[u, v] = sim[v, u] = m
    return LeafCodes(similarity=sim, leaf_order=tuple(codes))


def oracle_root_partition(tree) -> tuple[set[int], set[int]]:
    """Leaf index sets of the two subtrees under the root, by recursion."""
    children = {node: (left, right) for node, left, right, _ in tree.merges}

    def leaves(node: int) -> set[int]:
        if node not in children:
            return {node}
        l, r = children[node]
        return leaves(l) | leaves(r)

    left, right = children[tree.merges[-1][0]]
    return leaves(left), leaves(right)


def leaf_ordered(leaf_labels, codes):
    """(labels, rows) of the similarity in tree leaf order, cell by cell: the
    arguments of ``cluster_fuse.similarity_svg``."""
    order = codes.leaf_order
    return ([leaf_labels[i] for i in order],
            [[int(codes.similarity[i, j]) for j in order] for i in order])


def oracle_similarity_csv(leaf_labels, codes) -> str:
    """Similarity CSV with one fancy-indexed matrix row per output row."""
    order = list(codes.leaf_order)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["unit"] + [leaf_labels[i] for i in order])
    writer.writerows([leaf_labels[i]] + codes.similarity[i, order].tolist()
                     for i in order)
    return buf.getvalue()


def oracle_tree_csv(tree) -> str:
    """Tree CSV with one formatted line per merge."""
    lines = ["node_id,left_child,right_child,height"]
    lines += [f"{node},{left},{right},{height:.9f}" for node, left, right, height in tree.merges]
    return "\n".join(lines) + "\n"


def stage_cluster_texts(tree) -> dict[str, str]:
    """{kind: text} of the tree CSV, similarity CSV and heatmap SVG that
    ``pipeline.stage_cluster`` writes when Ward returns ``tree``."""
    from unittest import mock

    from epicurve import cluster_fuse, pipeline

    with tempfile.TemporaryDirectory() as out:
        cfg = pipeline.PipelineConfig(
            cases="unused", metadata="unused", output=out,
            clusterings=(pipeline.ClusteringSpec("t", ("left30",)),))
        open(os.path.join(out, "features.csv"), "w").close()
        features = (list(tree.leaf_labels), {"left30": np.zeros(len(tree.leaf_labels))})
        with mock.patch.object(pipeline, "read_features_csv", return_value=features), \
                mock.patch.object(cluster_fuse, "hcluster_ward", return_value=(tree, [])), \
                warnings.catch_warnings():
            # heights of a made-up tree may fall; the render does not read them
            warnings.filterwarnings("ignore", "Ward.D2 height inversion")
            pipeline.stage_cluster(cfg)
        texts = {}
        for kind, name in (("tree", "tree_t.csv"), ("similarity", "similarity_t.csv"),
                           ("heatmap", "heatmap_t.svg")):
            with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
                texts[kind] = fh.read()
        return texts


def oracle_similarity_svg(leaf_labels, codes) -> str:
    """Heatmap SVG with one formatted ``<rect>`` per matrix cell."""
    from epicurve.cluster_fuse import _CELL, _LABEL_SPACE

    order = codes.leaf_order
    n = len(order)
    max_sim = max(1, int(codes.similarity.max()))
    width = _LABEL_SPACE + n * _CELL + 10
    height = _LABEL_SPACE + n * _CELL + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<style>text { font-family: monospace; font-size: 8px; }</style>',
    ]
    for r, i in enumerate(order):
        for c, j in enumerate(order):
            s = int(codes.similarity[i, j]) / max_sim
            shade = int(round(255 * (1.0 - s)))
            x = _LABEL_SPACE + c * _CELL
            y = _LABEL_SPACE + r * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="rgb({shade},{shade},{shade})"/>'
            )
    for r, i in enumerate(order):
        label = leaf_labels[i].replace("&", "&amp;").replace("<", "&lt;")
        label = label.replace(">", "&gt;")
        y = _LABEL_SPACE + r * _CELL + _CELL - 2
        parts.append(f'<text x="2" y="{y}">{label}</text>')
        x = _LABEL_SPACE + r * _CELL + 2
        parts.append(
            f'<text x="{x}" y="{_LABEL_SPACE - 4}" '
            f'transform="rotate(-90 {x} {_LABEL_SPACE - 4})">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def oracle_kmeans_fuse(matrix, column_names, name, k=4, seed=0, restarts=100):
    """K-means fusion one restart at a time: k-means++ seeding and Lloyd
    (at most ``cluster_fuse._MAX_ITER`` iterations) on the standardized
    complete rows, the best inertia winning, labels renumbered by first
    occurrence."""
    from epicurve import cluster_fuse

    def kmeans_pp_init(x, k, rng):
        n = x.shape[0]
        centroids = np.empty((k, x.shape[1]))
        centroids[0] = x[rng.integers(n)]
        d2 = np.sum((x - centroids[0]) ** 2, axis=1)
        for i in range(1, k):
            total = d2.sum()
            if total <= 0:
                centroids[i] = x[rng.integers(n)]
            else:
                centroids[i] = x[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, np.sum((x - centroids[i]) ** 2, axis=1))
        return centroids

    def lloyd(x, centroids):
        """(labels, centroids, inertia, whether the labels repeated)."""
        k = centroids.shape[0]
        labels = np.full(x.shape[0], -1)
        for _ in range(cluster_fuse._MAX_ITER):
            d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                mask = labels == c
                if mask.any():
                    centroids[c] = x[mask].mean(axis=0)
                else:
                    # re-seed an empty cluster at the point worst served so far
                    worst = int(np.argmax(d2[np.arange(len(labels)), labels]))
                    centroids[c] = x[worst]
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        final = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(len(final)), final].sum())
        return final, centroids, inertia, bool(np.array_equal(final, labels))

    matrix = np.asarray(matrix, dtype=float)
    complete = ~np.isnan(matrix).any(axis=1)
    x = matrix[complete]
    if x.shape[0] < k:
        raise ComputationError(f"{name}: only {x.shape[0]} complete rows for k={k}")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    xs = (x - mean) / sd

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        fit = lloyd(xs, kmeans_pp_init(xs, k, rng))
        if best is None or fit[2] < best[2] - 1e-12:
            best = fit
    labels, centroids, inertia, converged = best

    remap: dict[int, int] = {}
    for lab in labels:
        if int(lab) not in remap:
            remap[int(lab)] = len(remap) + 1
    for c in range(k):
        if c not in remap:
            remap[c] = len(remap) + 1
    full = np.zeros(matrix.shape[0], dtype=int)
    full[complete] = [remap[int(lab)] for lab in labels]
    return cluster_fuse.FusedFeature(
        source_columns=tuple(column_names), labels=full,
        centroids=centroids[sorted(range(k), key=lambda c: remap[c])], inertia=inertia,
        converged=converged)

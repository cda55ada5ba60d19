"""End-to-end pipeline: raw CSVs -> features -> associations -> scans ->
fusion -> clustering artifacts.

Every stage reads its inputs from the raw files or the previous stage's
artifacts in the output directory, so running stages individually in
order is byte-identical to running everything at once. ``report`` reads
what ``select`` reads and recomputes the order-1/2 scans, so it rewrites
the reports ``select`` wrote byte for byte; it never parses a scan CSV.
All randomness flows from seeds in the config; rerunning with identical
inputs and config reproduces every artifact bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import hashlib
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from . import cluster_fuse, curve_features, infotheory, ingest, major_factor
from .curve_features import FEATURE_COLUMNS, SHAPE_FEATURES
from .errors import ComputationError, ConfigError, DataError
from .ingest import REGIONS, STATUSES, _open_input, parse_case_series, parse_unit_metadata

#: Metadata-derived binary response columns and their category coding.
META_RESPONSES = {"region": REGIONS, "status": STATUSES}

NUMERIC_FEATURES = tuple(c for c in FEATURE_COLUMNS if c != "peakdate")


@dataclass(frozen=True)
class FusionSpec:
    name: str
    columns: tuple[str, ...]
    k: int = 4
    seed: int = 0
    restarts: int = 100


@dataclass(frozen=True)
class ResponseSpec:
    response: str
    candidates: tuple[str, ...]
    order: int = 2
    replicates: int = 200
    seed: int = 0
    top: int = 5
    bottom: int = 1


@dataclass(frozen=True)
class ClusteringSpec:
    name: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class PipelineConfig:
    cases: str
    metadata: str
    output: str
    window_start: dt.date = dt.date(2022, 3, 25)
    window_end: dt.date = dt.date(2022, 8, 19)
    rate_scale: float = 100_000.0  # cases per 100,000 persons per day
    n_bins: int = 4
    thresholds: tuple[float, ...] = (0.6, 0.7)
    fusions: tuple[FusionSpec, ...] = ()
    responses: tuple[ResponseSpec, ...] = ()
    clusterings: tuple[ClusteringSpec, ...] = ()


#: Fusion and clustering names end up in file names.
_SAFE_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def _check_names(kind: str, names: list[str], taken: frozenset = frozenset()) -> None:
    for i, name in enumerate(names):
        if not _SAFE_NAME.fullmatch(name):
            raise ConfigError(f"{kind} name {name!r} is not safe in a file name")
        if name in names[:i]:
            raise ConfigError(f"duplicate {kind} name {name!r}")
        if name in taken:
            raise ConfigError(f"{kind} name {name!r} collides with a data column")


def _field(section: str, mapping: dict, key: str, convert, default=dataclasses.MISSING):
    """``convert(mapping[key])``, or ``default`` when the key is absent; a
    missing required key or a value ``convert`` rejects is a ConfigError
    naming the section and the key."""
    if key not in mapping:
        if default is dataclasses.MISSING:
            raise ConfigError(f"{section}: missing {key!r}")
        return default
    try:
        return convert(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: bad {key} {mapping[key]!r}") from exc


def _int(value) -> int:
    """``int(value)``, refusing bools and floats with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _float(value) -> float:
    """``float(value)``, refusing bools."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _date(value) -> dt.date:
    """A plain date or its YYYY-MM-DD text, refusing timestamps."""
    return value if type(value) is dt.date else ingest.iso_date(str(value))


def _list_of(convert, least: int = 0, unique: bool = False):
    def convert_list(value):
        if not isinstance(value, (list, tuple)) or len(value) < least:
            raise TypeError("not a list of enough items")
        if unique and len(set(value)) < len(value):
            raise ValueError("repeated item")
        return tuple(convert(v) for v in value)
    return convert_list


#: Converter of a spec field by the text of its annotation (annotations are
#: postponed in this module); a list of column names is non-empty, no repeats.
_CONVERTERS = {"str": str, "int": _int, "tuple[str, ...]": _list_of(str, least=1, unique=True)}


def _known(section: str, mapping: dict, keys) -> None:
    """Refuse the first key of ``mapping`` not among ``keys``."""
    unknown = [key for key in mapping if key not in keys]
    if unknown:
        raise ConfigError(f"{section}: unknown key {unknown[0]!r}")


def _spec(cls, section: str, mapping: dict):
    """``cls`` built from ``mapping``, each field read through ``_field`` in
    declaration order: the annotation picks the converter, and the field's
    default, if it has one, is used when the key is absent. A key that is
    no field is refused."""
    _known(section, mapping, [f.name for f in dataclasses.fields(cls)])
    return cls(**{f.name: _field(section, mapping, f.name, _CONVERTERS[f.type], f.default)
                  for f in dataclasses.fields(cls)})


def _specs(cls, data: dict, key: str) -> tuple:
    """The ``cls`` spec of each entry listed under ``key``, each built by ``_spec``."""
    entries = data.get(key) or []
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{key} must be a list of mappings")
    return tuple(_spec(cls, f"{key}[{i}]", e) for i, e in enumerate(entries))


def config_from_dict(data: dict, base_dir: str = ".") -> PipelineConfig:
    """Build and validate a PipelineConfig from a plain mapping.

    Relative input/output paths are resolved against ``base_dir``, and
    absent keys take the defaults of PipelineConfig and its specs.
    Column references are checked here, before any computation.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    _known("config", data, {f.name for f in dataclasses.fields(PipelineConfig)}
           - {"window_start", "window_end"} | {"window"})
    cases, metadata, output = (_field("config", data, k, lambda p: os.path.join(base_dir, p))
                               for k in ("cases", "metadata", "output"))

    window = data.get("window", {}) or {}
    if not isinstance(window, dict):
        raise ConfigError("window must be a mapping with start and end")
    _known("window", window, ("start", "end"))
    start = _field("window", window, "start", _date, PipelineConfig.window_start)
    end = _field("window", window, "end", _date, PipelineConfig.window_end)
    if start >= end:
        raise ConfigError(f"window start {start} must precede end {end}")

    rate_scale = _field("config", data, "rate_scale", _float, PipelineConfig.rate_scale)
    if not (rate_scale > 0 and math.isfinite(rate_scale)):
        raise ConfigError(f"rate_scale must be finite and > 0, got {rate_scale}")

    thresholds = _field("config", data, "thresholds", _list_of(_float),
                        PipelineConfig.thresholds)
    for i, t in enumerate(thresholds):
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"threshold {t} outside [0, 1]")
        same = [u for u in thresholds[:i] if f"{u:g}" == f"{t:g}"]
        if same:
            raise ConfigError(f"thresholds {same[0]} and {t} both name "
                              f"network_<kind>_{t:g}.dot")

    n_bins = _field("config", data, "n_bins", _int, PipelineConfig.n_bins)
    if n_bins < 2:
        raise ConfigError("n_bins must be >= 2")

    fusions = _specs(FusionSpec, data, "fusions")
    for spec in fusions:
        if spec.k < 1 or spec.restarts < 1:
            raise ConfigError(f"fusion {spec.name}: k and restarts must be >= 1")
        if spec.seed < 0:
            raise ConfigError(f"fusion {spec.name}: seed must be >= 0")
        for c in spec.columns:
            if c not in NUMERIC_FEATURES:
                raise ConfigError(f"fusion {spec.name}: unknown column {c!r}")
    _check_names("fusion", [f.name for f in fusions],
                 frozenset(FEATURE_COLUMNS) | {"unit_id"} | set(META_RESPONSES))
    fusion_names = {f.name for f in fusions}

    categorical_names = set(("peakdate",) + SHAPE_FEATURES) | fusion_names
    responses = _specs(ResponseSpec, data, "responses")
    for spec in responses:
        if spec.order not in (1, 2, 3):
            raise ConfigError(
                f"response {spec.response}: scan order must be 1, 2 or 3"
            )
        if spec.replicates < 1 or spec.top < 0 or spec.bottom < 0:
            raise ConfigError(f"response {spec.response}: replicates must be >= 1 "
                              "and top, bottom >= 0")
        if spec.seed < 0:
            raise ConfigError(f"response {spec.response}: seed must be >= 0")
        if spec.response not in categorical_names | set(META_RESPONSES):
            raise ConfigError(f"unknown response column {spec.response!r}")
        for c in spec.candidates:
            if c not in categorical_names:
                raise ConfigError(
                    f"response {spec.response}: unknown candidate column {c!r}"
                )
        if spec.response in spec.candidates:
            raise ConfigError(f"response {spec.response}: a response cannot be "
                              "its own candidate")
    _check_names("response", [r.response for r in responses])

    clusterings = _specs(ClusteringSpec, data, "clusterings")
    for spec in clusterings:
        for col in spec.columns:
            if col not in NUMERIC_FEATURES:
                raise ConfigError(f"clustering {spec.name}: unknown column {col!r}")
    _check_names("clustering", [c.name for c in clusterings])

    return PipelineConfig(
        cases=cases,
        metadata=metadata,
        output=output,
        window_start=start,
        window_end=end,
        rate_scale=rate_scale,
        n_bins=n_bins,
        thresholds=thresholds,
        fusions=fusions,
        responses=responses,
        clusterings=clusterings,
    )


def load_config(path: str) -> PipelineConfig:
    """Load and validate a YAML pipeline config."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date like 2022-02-30
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# warning and artifact helpers

def _warn(category, what: str, names) -> None:
    """One warning of ``category``, ``what`` followed by every one of ``names``;
    none when ``names`` is empty."""
    if names:
        warnings.warn(f"{what}: {', '.join(names)}", category, stacklevel=2)


def _write(cfg: PipelineConfig, name: str, fill) -> None:
    """Write artifact ``name``: ``fill(fh)`` writes its text to a temp file, which
    then replaces the artifact, so a failed write keeps the earlier one. Only
    ``features`` makes the directory: every later stage has read from it."""
    path = os.path.join(cfg.output, name)
    tmp = os.path.join(cfg.output, f".{name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fill(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _require(cfg: PipelineConfig, name: str) -> str:
    """Path of artifact ``name``; a missing one names the stage that writes it."""
    path = os.path.join(cfg.output, name)
    if not os.path.exists(path):
        stage = next(stage for stage, artifact in _artifacts(cfg) if artifact == name)
        raise DataError(f"missing {name}; run `{stage}` first")
    return path


def _write_csv(cfg: PipelineConfig, name: str, header, rows) -> None:
    def fill(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    _write(cfg, name, fill)


def _write_table(cfg: PipelineConfig, name: str, units, columns: dict) -> None:
    """Write a ``{column: array}`` table as a CSV with one row per unit."""
    _write_csv(cfg, name, ["unit_id", *columns],
               zip(units, *(values.tolist() for values in columns.values())))


def _write_matrix(cfg: PipelineConfig, name: str, corner: str, header, labels,
                  matrix) -> None:
    """Write a labelled matrix as a CSV with one row per label: each value
    to 6 decimals, NaN as an empty cell."""
    rows = np.asarray(matrix, dtype=float).tolist()
    _write_csv(cfg, name, [corner, *header],
               ([label] + ["" if math.isnan(v) else f"{v:.6f}" for v in row]
                for label, row in zip(labels, rows)))


def _read_table(path: str, columns, parse):
    """(unit_ids, {column: array}) of a _write_table CSV, ``parse(column, text)``
    reading each distinct text of ``columns`` (None: every column but unit_id)
    once. The header must hold the columns, and every row its width and a unit
    id of its own; blank lines are skipped, and the first bad cell in row order
    is reported."""
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
    names = [c for c in columns or index if c != "unit_id"]
    cells = list(zip(*rows)) or [()] * len(header)
    seen = set()
    for row_no, unit in enumerate(cells[index["unit_id"]], start=2):
        if unit in seen:
            raise DataError(f"{path}: row {row_no}: duplicate unit {unit!r}")
        seen.add(unit)
    memos = {c: {} for c in names}
    bad = {}  # (column, text) -> the ValueError its parse raised
    for c, memo in memos.items():
        for text in set(cells[index[c]]):
            try:
                memo[text] = parse(c, text)
            except ValueError as exc:
                bad[c, text] = exc
    if bad:  # find the first bad cell in row order
        for row_no, row in enumerate(rows, start=2):
            for c in names:
                if (c, row[index[c]]) in bad:
                    raise DataError(f"{path}: row {row_no}: unparseable {c} "
                                    f"{row[index[c]]!r}") from bad[c, row[index[c]]]
    return list(cells[index["unit_id"]]), {
        c: np.array(list(map(memo.__getitem__, cells[index[c]])))
        for c, memo in memos.items()}


# ---------------------------------------------------------------------------
# stage: features

def _feature_cell(column: str, value: float) -> str:
    """features.csv cell of a table value; _feature_value reads it back."""
    if math.isnan(value):
        return ""
    if column == "peakdate":
        return dt.date.fromordinal(int(value)).isoformat()
    return str(int(value)) if value.is_integer() else f"{value:.6f}"


def _feature_cells(column: str, values: np.ndarray) -> np.ndarray:
    """_feature_cell of each value of a float64 column, called once per
    distinct value; values are told apart by their bits, so -0.0 and NaN
    keep their own cells."""
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    return np.array([_feature_cell(column, v) for v in values[first].tolist()],
                    dtype=object)[inverse]


def _feature_value(column: str, text: str) -> float:
    """Inverse of _feature_cell: an empty cell is NaN, any other must be finite."""
    if column == "peakdate":
        return float(ingest.iso_date(text).toordinal())
    value = float(text) if text else math.nan
    if text and not math.isfinite(value):  # NaN is kept for NA
        raise ValueError(text)
    return value


def stage_features(cfg: PipelineConfig) -> None:
    """Extract per-unit curve features from the raw CSVs.

    The window's counts of every unit, in sorted unit order, are gathered
    from the parsed count rows with one fancy index, so rates, smoothing
    and crossings run over whole arrays. The output directory is made first,
    so an unwritable one fails before any input is read.
    """
    try:
        os.makedirs(cfg.output, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {os.path.join(cfg.output, 'features.csv')}: "
                          f"{exc}") from exc
    unit_ids, starts, lengths, case_counts = parse_case_series(cfg.cases)
    meta = parse_unit_metadata(cfg.metadata)
    order = np.array(sorted(range(len(unit_ids)), key=unit_ids.__getitem__), dtype=np.intp)
    units = [unit_ids[i] for i in order]
    days = (cfg.window_end - cfg.window_start).days + 1
    offsets = cfg.window_start.toordinal() - starts[order]
    missing = np.array([unit not in meta for unit in units], dtype=bool)
    # the first unit lacking metadata or data over the window is reported,
    # its metadata first; a reversed window fails every unit
    bad = missing | (days < 1) | (offsets < 0) | (offsets + days > lengths[order])
    if bad.any():
        i = int(bad.argmax())
        if missing[i]:
            raise DataError(f"{units[i]}: case data without metadata")
        if days < 1:
            raise DataError(f"window start {cfg.window_start} after end {cfg.window_end}")
        first = dt.date.fromordinal(int(starts[order[i]]))
        last = first + dt.timedelta(days=int(lengths[order[i]]) - 1)
        raise DataError(f"{units[i]}: window [{cfg.window_start}, {cfg.window_end}] "
                        f"outside data [{first}, {last}]")
    first_row = (np.cumsum(lengths) - lengths)[order]
    counts = case_counts[(first_row + offsets)[:, None] + np.arange(max(days, 0))]
    population = np.array([meta[unit].population for unit in units], dtype=np.int64)
    with np.errstate(over="ignore"):
        rates = counts / population[:, None] * cfg.rate_scale
    finite = np.isfinite(rates).all(axis=1)
    if not finite.all():  # name the first overflowing unit in sorted order
        raise ComputationError(f"{units[int(finite.argmin())]}: daily rate overflows "
                               f"float64 at rate_scale {cfg.rate_scale}")
    smoothed = curve_features.smooth_rows(units, rates)
    table = curve_features.extract_features_batch(
        units, cfg.window_start + dt.timedelta(days=6), smoothed)
    # NaN curvature marks exactly the edge peaks: any other censored row raised
    _warn(curve_features.BoundaryPeakWarning, "peak within 6 days of the window edge, "
          "curvature-dependent features set to NA",
          [u for u, c in zip(units, table["curvature"].tolist()) if math.isnan(c)])
    _write_table(cfg, "features.csv", units,
                 {c: _feature_cells(c, values) for c, values in table.items()})


def read_features_csv(path: str):
    """Read features.csv into (unit_ids, {column: float64 array}), the table
    extract_features_batch returns."""
    return _read_table(path, FEATURE_COLUMNS, _feature_value)


# ---------------------------------------------------------------------------
# stage: associate

def stage_associate(cfg: PipelineConfig) -> None:
    """Discretize features and compute association matrices/networks."""
    units, features = read_features_csv(_require(cfg, "features.csv"))
    names = ("peakdate",) + SHAPE_FEATURES
    columns, edges = {}, {}
    for name in names:
        try:
            columns[name], edges[name] = infotheory.discretize(features[name], cfg.n_bins)
        except ComputationError as exc:
            raise ComputationError(f"feature {name!r}: {exc}") from exc
    _warn(infotheory.DegenerateColumnWarning,
          f"fewer than {cfg.n_bins} distinct values, distinct-value bins used",
          [name for name, e in edges.items() if e is None])

    _write_table(cfg, "categorical.csv", units, columns)
    _write_matrix(cfg, "bin_edges.csv", "feature", [f"edge{i}" for i in range(1, cfg.n_bins)],
                  names, [np.full(cfg.n_bins - 1, math.nan) if e is None else e
                          for e in edges.values()])
    matrices = dict(zip(("directed", "mutual"), infotheory.association_matrices(columns)))
    for kind, matrix in matrices.items():
        _write_matrix(cfg, f"association_{kind}.csv", "feature", names, names, matrix)

    for tau in cfg.thresholds:
        # an unquoted DOT ID holds only letters, digits and underscores
        graph_id = str(tau).replace(".", "_").replace("-", "_")
        for kind, matrix in matrices.items():
            dot = infotheory.threshold_network(names, matrix, tau, kind == "directed",
                                               f"{kind}_{graph_id}")
            _write(cfg, f"network_{kind}_{tau:g}.dot", lambda fh: fh.write(dot))


def _category_value(column: str, text: str) -> int:
    """A categorical.csv cell: an integer that fits the int64 codes of a scan."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(text)
    return value


def read_categorical_csv(path: str):
    """Read categorical.csv into (unit_ids, {column: int array})."""
    return _read_table(path, None, _category_value)


# ---------------------------------------------------------------------------
# stage: fuse

def stage_fuse(cfg: PipelineConfig) -> None:
    """K-means fuse feature blocks into categorical features."""
    units, columns = read_features_csv(_require(cfg, "features.csv"))
    fits = {}
    for spec in cfg.fusions:
        matrix = np.column_stack([columns[c] for c in spec.columns])
        fits[spec.name] = fused = cluster_fuse.kmeans_fuse(
            matrix, spec.columns, spec.name,
            k=spec.k, seed=spec.seed, restarts=spec.restarts,
        )
        _write_matrix(cfg, f"fusion_{spec.name}_centroids.csv", "cluster", spec.columns,
                      range(1, spec.k + 1), fused.centroids)
    if fits:  # no fusion, no fused.csv: nothing reads or lists it
        _write_table(cfg, "fused.csv", units, {name: f.labels for name, f in fits.items()})
    _warn(UserWarning, f"K-means stopped at {cluster_fuse._MAX_ITER} Lloyd iterations "
          "before its labels repeated", [name for name, f in fits.items() if not f.converged])


# ---------------------------------------------------------------------------
# stage: select

def _column(kind: str, name: str, cat_columns) -> np.ndarray:
    if name not in cat_columns:
        raise DataError(f"{kind} {name!r} not found; run `associate`/`fuse` first")
    return cat_columns[name]


def _response_column(name, units, cat_columns, meta) -> np.ndarray:
    if name not in META_RESPONSES:
        return _column("response", name, cat_columns)
    first = META_RESPONSES[name][0]
    out = []
    for unit in units:
        if unit not in meta:
            raise DataError(f"{unit}: no metadata for response {name!r}")
        out.append(1 if getattr(meta[unit], name) == first else 2)
    return np.array(out)


def _scan_inputs(cfg: PipelineConfig):
    """(spec, response codes, {candidate: codes}) of each configured response, the
    inputs select and report scan: categorical.csv, fused.csv when fusions are
    configured, and the metadata for a region or status response."""
    units, cat_columns = read_categorical_csv(_require(cfg, "categorical.csv"))
    if cfg.fusions:
        f_units, f_columns = read_categorical_csv(_require(cfg, "fused.csv"))
        if f_units != units:
            raise DataError("fused.csv and categorical.csv disagree on units")
        cat_columns.update(f_columns)

    meta = (parse_unit_metadata(cfg.metadata)
            if any(s.response in META_RESPONSES for s in cfg.responses) else {})
    for spec in cfg.responses:
        yield (spec, _response_column(spec.response, units, cat_columns, meta),
               {c: _column("candidate", c, cat_columns) for c in spec.candidates})


SCAN_COLUMNS = ("features", "ce", "rescaled_ce", "ce_drop", "sce_drop",
                "null_mean", "null_q95", "significant", "classification")


def _fixed(values: np.ndarray) -> list[str]:
    return [f"{v:.6f}" for v in values.tolist()]


def _scan_rows(levels, mean: np.ndarray, q95: np.ndarray):
    """scan CSV rows of every level in order, each level judged and formatted a
    column at a time. A single or a pair is significant when its SCE-drop beats
    the larger of its members' q95s (for a single, the CE-drop and its own q95);
    a single shows its own null, pair_classes classes a pair, and a triple is
    descriptive only and leaves the four null cells empty. ``mean`` and ``q95``
    are the nulls' arrays in candidate order."""
    at = np.argsort(levels[0].sets[:, 0])  # each candidate's row among the singles
    single_ce, single_drop = levels[0].ce[at], levels[0].sce_drop[at]
    names = np.array(levels[0].names, dtype=object)
    for level in levels:
        sets, blank = level.sets, [""] * len(level)
        cells = [["_".join(s) for s in names[sets].tolist()], *(
            _fixed(v) for v in (level.ce, level.rescaled_ce, level.ce_drop, level.sce_drop))]
        sig = level.sce_drop > q95[sets].max(axis=1) + major_factor.EPS
        flags = np.where(sig, "true", "false").tolist()
        if sets.shape[1] == 1:
            cells += [_fixed(mean[sets[:, 0]]), _fixed(q95[sets[:, 0]]), flags,
                      np.where(sig, major_factor.ORDER1, major_factor.INSIGNIFICANT).tolist()]
        elif sets.shape[1] == 2:
            cells += [blank, blank, flags, major_factor.pair_classes(
                level, single_ce[sets], single_drop[sets], q95[sets]).tolist()]
        else:
            cells += [blank] * 4
        yield from zip(*cells)


def stage_select(cfg: PipelineConfig) -> None:
    """Run major-factor scans for the configured responses."""
    orders = {}  # null row orders by (seed, replicates), held until the call returns
    for spec, y, candidates in _scan_inputs(cfg):
        levels = major_factor.scan(y, candidates, spec.order)
        mean, q95 = major_factor.noise_thresholds(  # seed + i draws sorted candidate i
            y, [], [candidates[c] for c in levels[0].names], spec.replicates,
            range(spec.seed, spec.seed + len(candidates)), orders)
        _write_csv(cfg, f"scan_{spec.response}.csv", SCAN_COLUMNS, _scan_rows(levels, mean, q95))
        _write_reports(cfg, spec.response, levels, spec.top, spec.bottom)


def _write_reports(cfg, response, scans, top, bottom) -> None:
    if len(scans) < 2 or not scans[1]:
        return
    rows = max(len(scans[0]), len(scans[1]))
    if top + bottom > rows:
        warnings.warn(f"report_{response}: top {top} + bottom {bottom} exceeds "
                      f"{rows} results; clamping")
    reports = major_factor.factor_report(scans[0], scans[1], top, bottom)
    for ext, report in zip(("txt", "md"), reports):
        _write(cfg, f"report_{response}.{ext}", lambda fh: fh.write(report))


# ---------------------------------------------------------------------------
# stage: cluster

def stage_cluster(cfg: PipelineConfig) -> None:
    """Build Ward.D2 trees, leaf codes, and similarity heatmaps."""
    units, columns = read_features_csv(_require(cfg, "features.csv"))
    for spec in cfg.clusterings:
        matrix = np.column_stack([columns[c] for c in spec.columns])
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                tree, excluded = cluster_fuse.hcluster_ward(matrix, units)
        except ComputationError as exc:
            raise ComputationError(f"{spec.name}: {exc}") from exc
        inverted, top = [], 0.0  # merges below the highest one before them
        for step, (*_, height) in enumerate(tree.merges):
            if not math.isfinite(height):
                raise ComputationError(f"{spec.name}: Ward distances overflow float64")
            if height < top - 1e-9:
                inverted.append(f"merge {step} ({height:.6g} < {top:.6g})")
            top = max(top, height)
        _warn(UserWarning, f"Ward.D2 height inversion in {spec.name}", inverted)
        # the similarity in tree leaf order, which the CSV and the heatmap share
        codes = cluster_fuse.leaf_codes(tree)
        labels = [tree.leaf_labels[i] for i in codes.leaf_order]
        rows = codes.similarity[np.ix_(codes.leaf_order, codes.leaf_order)].tolist()

        _write_csv(cfg, f"tree_{spec.name}.csv",
                   ("node_id", "left_child", "right_child", "height"),
                   ((node, left, right, f"{h:.9f}") for node, left, right, h in tree.merges))
        _write_csv(cfg, f"similarity_{spec.name}.csv", ["unit", *labels],
                   ([label, *row] for label, row in zip(labels, rows)))
        _write(cfg, f"heatmap_{spec.name}.svg",
               lambda fh: fh.write(cluster_fuse.similarity_svg(labels, rows)))
        _write(cfg, f"excluded_{spec.name}.txt",
               lambda fh: fh.writelines(f"{u}\n" for u in excluded))


# ---------------------------------------------------------------------------
# stage: report

def stage_report(cfg: PipelineConfig, top: Optional[int] = None,
                 bottom: Optional[int] = None) -> None:
    """Re-render ranked reports from the order-1/2 scans, recomputed from the
    inputs select reads; a report shows no null, so none is drawn. A
    manifest.txt already in the output directory is rewritten to match."""
    for spec, y, candidates in _scan_inputs(cfg):
        _write_reports(cfg, spec.response, major_factor.scan(y, candidates, min(spec.order, 2)),
                       spec.top if top is None else top,
                       spec.bottom if bottom is None else bottom)
    if os.path.exists(os.path.join(cfg.output, "manifest.txt")):
        write_manifest(cfg)


# ---------------------------------------------------------------------------
# artifact table, full run + manifest

def _artifacts(cfg: PipelineConfig):
    """(stage, name) of every artifact a run of ``cfg`` writes, in stage order."""
    yield "features", "features.csv"
    for name in ("categorical.csv", "bin_edges.csv", "association_directed.csv",
                 "association_mutual.csv"):
        yield "associate", name
    for tau in cfg.thresholds:
        for kind in ("directed", "mutual"):
            yield "associate", f"network_{kind}_{tau:g}.dot"
    for spec in cfg.fusions:
        yield "fuse", f"fusion_{spec.name}_centroids.csv"
    if cfg.fusions:
        yield "fuse", "fused.csv"
    for spec in cfg.responses:
        yield "select", f"scan_{spec.response}.csv"
        if spec.order > 1 and len(spec.candidates) > 1:
            yield "select", f"report_{spec.response}.txt"
            yield "select", f"report_{spec.response}.md"
    for spec in cfg.clusterings:
        for kind in ("tree_{}.csv", "similarity_{}.csv", "heatmap_{}.svg", "excluded_{}.txt"):
            yield "cluster", kind.format(spec.name)


#: Each stage's function by name, in run order.
STAGES = {"features": stage_features, "associate": stage_associate, "fuse": stage_fuse,
          "select": stage_select, "cluster": stage_cluster}


def write_manifest(cfg: PipelineConfig) -> None:
    """Digest every artifact a run of ``cfg`` writes, and nothing else in the
    output directory, into manifest.txt."""
    entries, chunk = [], bytearray(1 << 20)  # no artifact is held whole in memory
    for _stage, name in _artifacts(cfg):
        path, digest = _require(cfg, name), hashlib.sha256()
        try:
            with open(path, "rb") as fh:
                while size := fh.readinto(chunk):
                    digest.update(memoryview(chunk)[:size])
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        entries.append(f"{digest.hexdigest()}  {name}")
    _write(cfg, "manifest.txt", lambda fh: fh.write("\n".join(sorted(entries)) + "\n"))


def run_pipeline(cfg: PipelineConfig) -> None:
    """Run every stage and write the manifest.

    Only the stages that write an artifact of ``cfg`` run, in stage order."""
    for stage in dict.fromkeys(stage for stage, _name in _artifacts(cfg)):
        STAGES[stage](cfg)
    write_manifest(cfg)

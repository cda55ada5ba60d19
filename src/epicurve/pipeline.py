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
import io
import math
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from . import cluster_fuse, curve_features, infotheory, major_factor
from .curve_features import FEATURE_COLUMNS, SHAPE_FEATURES
from .errors import ComputationError, ConfigError, DataError
from .ingest import _open_input, parse_case_series, parse_unit_metadata, window_slice

#: Metadata-derived binary response columns and their category coding.
META_RESPONSES = {
    "region": ("North", "South"),
    "status": ("Urban", "Suburban"),
}

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


def _as_date(value, what: str) -> dt.date:
    if isinstance(value, dt.date):
        return value
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError as exc:
        raise ConfigError(f"bad {what} date: {value!r}") from exc


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


def _spec(cls, section: str, mapping: dict):
    """``cls`` built from ``mapping``, each field read through ``_field`` in
    declaration order: the annotation picks the converter, and the field's
    default, if it has one, is used when the key is absent."""
    return cls(**{f.name: _field(section, mapping, f.name, _CONVERTERS[f.type], f.default)
                  for f in dataclasses.fields(cls)})


def _entries(data: dict, key: str):
    """(section name, mapping) of each entry listed under ``key``."""
    entries = data.get(key) or []
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{key} must be a list of mappings")
    return [(f"{key}[{i}]", e) for i, e in enumerate(entries)]


def config_from_dict(data: dict, base_dir: str = ".") -> PipelineConfig:
    """Build and validate a PipelineConfig from a plain mapping.

    Relative input/output paths are resolved against ``base_dir``, and
    absent keys take the defaults of PipelineConfig and its specs.
    Column references are checked here, before any computation.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    for key in ("cases", "metadata", "output"):
        if key not in data:
            raise ConfigError(f"config is missing {key!r}")

    def resolve(p):
        p = str(p)
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    window = data.get("window", {}) or {}
    if not isinstance(window, dict):
        raise ConfigError("window must be a mapping with start and end")
    start = _as_date(window.get("start", PipelineConfig.window_start), "window start")
    end = _as_date(window.get("end", PipelineConfig.window_end), "window end")
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

    fusions = []
    for section, f in _entries(data, "fusions"):
        spec = _spec(FusionSpec, section, f)
        if spec.k < 1 or spec.restarts < 1:
            raise ConfigError(f"fusion {spec.name}: k and restarts must be >= 1")
        if spec.seed < 0:
            raise ConfigError(f"fusion {spec.name}: seed must be >= 0")
        for c in spec.columns:
            if c not in NUMERIC_FEATURES:
                raise ConfigError(f"fusion {spec.name}: unknown column {c!r}")
        fusions.append(spec)
    _check_names("fusion", [f.name for f in fusions],
                 frozenset(FEATURE_COLUMNS) | {"unit_id"} | set(META_RESPONSES))
    fusion_names = {f.name for f in fusions}

    categorical_names = set(("peakdate",) + SHAPE_FEATURES) | fusion_names
    responses = []
    for section, r in _entries(data, "responses"):
        spec = _spec(ResponseSpec, section, r)
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
        responses.append(spec)
    _check_names("response", [r.response for r in responses])

    clusterings = []
    for section, c in _entries(data, "clusterings"):
        spec = _spec(ClusteringSpec, section, c)
        for col in spec.columns:
            if col not in NUMERIC_FEATURES:
                raise ConfigError(f"clustering {spec.name}: unknown column {col!r}")
        clusterings.append(spec)
    _check_names("clustering", [c.name for c in clusterings])

    return PipelineConfig(
        cases=resolve(data["cases"]),
        metadata=resolve(data["metadata"]),
        output=resolve(data["output"]),
        window_start=start,
        window_end=end,
        rate_scale=rate_scale,
        n_bins=n_bins,
        thresholds=thresholds,
        fusions=tuple(fusions),
        responses=tuple(responses),
        clusterings=tuple(clusterings),
    )


def load_config(path: str) -> PipelineConfig:
    """Load and validate a YAML pipeline config."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# artifact helpers

def _write(cfg: PipelineConfig, name: str, text: str) -> str:
    path = os.path.join(cfg.output, name)
    tmp = os.path.join(cfg.output, f".{name}.tmp")
    try:
        os.makedirs(cfg.output, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def _require(cfg: PipelineConfig, name: str, stage: str) -> str:
    path = os.path.join(cfg.output, name)
    if not os.path.exists(path):
        raise DataError(f"missing {name}; run `{stage}` first")
    return path


def _write_csv(cfg: PipelineConfig, name: str, header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _write(cfg, name, buf.getvalue())


def _write_table(cfg: PipelineConfig, name: str, units, columns: dict,
                 cell=lambda column, value: value) -> str:
    """Write a ``{column: array}`` table as a CSV with one row per unit;
    ``cell(column, value)`` gives the cell of each value."""
    cells = [[cell(c, v) for v in values.tolist()] for c, values in columns.items()]
    return _write_csv(cfg, name, ["unit_id", *columns], zip(units, *cells))


def _write_matrix(cfg: PipelineConfig, name: str, corner: str, header, labels,
                  matrix) -> str:
    """Write a labelled matrix as a CSV with one row per label: each value
    to 6 decimals, NaN as an empty cell."""
    rows = np.asarray(matrix, dtype=float).tolist()
    return _write_csv(cfg, name, [corner, *header],
                      ([label] + ["" if math.isnan(v) else f"{v:.6f}" for v in row]
                       for label, row in zip(labels, rows)))


def _read_table(path: str, columns, parse):
    """(unit_ids, {column: array}) of a _write_table CSV, ``parse(column, text)``
    reading each cell of ``columns`` (None: every column but unit_id). The
    header must hold the columns and every row its width; blank lines are skipped."""
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
    cols = [(c, index[c], []) for c in columns or index if c != "unit_id"]
    units = []
    for row_no, row in enumerate(rows, start=2):
        units.append(row[index["unit_id"]])
        for c, i, values in cols:
            try:
                values.append(parse(c, row[i]))
            except ValueError as exc:
                raise DataError(
                    f"{path}: row {row_no}: unparseable {c} {row[i]!r}") from exc
    return units, {c: np.array(values) for c, _, values in cols}


# ---------------------------------------------------------------------------
# stage: features

def _feature_cell(column: str, value: float) -> str:
    """features.csv cell of a table value; _feature_value reads it back."""
    if math.isnan(value):
        return ""
    if column == "peakdate":
        return dt.date.fromordinal(int(value)).isoformat()
    return str(int(value)) if value.is_integer() else f"{value:.6f}"


def _feature_value(column: str, text: str) -> float:
    """Inverse of _feature_cell: an empty cell is NaN, any other must be finite."""
    if column == "peakdate":
        return float(dt.date.fromisoformat(text).toordinal())
    value = float(text) if text else math.nan
    if text and not math.isfinite(value):  # NaN is kept for NA
        raise ValueError(text)
    return value


def stage_features(cfg: PipelineConfig) -> str:
    """Parse raw inputs and write the per-unit feature CSV.

    The window's counts of every unit form one units × days matrix, so
    rates, smoothing and crossings run over whole arrays.
    """
    series = parse_case_series(cfg.cases)
    meta = parse_unit_metadata(cfg.metadata)
    units = sorted(series)
    days = (cfg.window_end - cfg.window_start).days + 1
    # a reversed window is reported by window_slice below
    counts = np.empty((len(units), max(days, 0)), dtype=np.int64)
    population = np.empty(len(units), dtype=np.int64)
    for i, unit in enumerate(units):
        if unit not in meta:
            raise DataError(f"{unit}: case data without metadata")
        s = series[unit]
        counts[i] = s.counts[window_slice(s, cfg.window_start, cfg.window_end)]
        population[i] = meta[unit].population
    rates = counts / population[:, None] * cfg.rate_scale
    smoothed = curve_features.smooth_rows(units, rates)
    table = curve_features.extract_features_batch(
        units, cfg.window_start + dt.timedelta(days=6), smoothed)
    return _write_table(cfg, "features.csv", units, table, _feature_cell)


def read_features_csv(path: str):
    """Read features.csv into (unit_ids, {column: float64 array}), the table
    extract_features_batch returns."""
    return _read_table(path, FEATURE_COLUMNS, _feature_value)


# ---------------------------------------------------------------------------
# stage: associate

def stage_associate(cfg: PipelineConfig) -> list[str]:
    """Discretize features and write association matrices and networks."""
    features_path = _require(cfg, "features.csv", "features")
    units, features = read_features_csv(features_path)
    names = ("peakdate",) + SHAPE_FEATURES
    columns, edges = {}, []
    for name in names:
        try:
            columns[name], e = infotheory.discretize(features[name], cfg.n_bins)
        except ComputationError as exc:
            raise ComputationError(f"feature {name!r}: {exc}") from exc
        edges.append(np.full(cfg.n_bins - 1, math.nan) if e is None else e)

    written = [
        _write_table(cfg, "categorical.csv", units, columns),
        _write_matrix(cfg, "bin_edges.csv", "feature",
                      [f"edge{i}" for i in range(1, cfg.n_bins)], names, edges),
    ]
    matrices = dict(zip(("directed", "mutual"), infotheory.association_matrices(columns)))
    for kind, matrix in matrices.items():
        written.append(_write_matrix(cfg, f"association_{kind}.csv", "feature",
                                     names, names, matrix))

    for tau in cfg.thresholds:
        # an unquoted DOT ID holds only letters, digits and underscores
        graph_id = str(tau).replace(".", "_").replace("-", "_")
        for kind, matrix in matrices.items():
            dot = infotheory.threshold_network(names, matrix, tau, kind == "directed",
                                               f"{kind}_{graph_id}")
            written.append(_write(cfg, f"network_{kind}_{tau:g}.dot", dot))
    return written


def read_categorical_csv(path: str):
    """Read categorical.csv into (unit_ids, {column: int array})."""
    return _read_table(path, None, lambda column, text: int(text))


# ---------------------------------------------------------------------------
# stage: fuse

def stage_fuse(cfg: PipelineConfig) -> list[str]:
    """K-means fuse feature blocks and write the fused label columns."""
    features_path = _require(cfg, "features.csv", "features")
    units, columns = read_features_csv(features_path)
    written = []
    fused_cols: dict[str, np.ndarray] = {}
    for spec in cfg.fusions:
        matrix = np.column_stack([columns[c] for c in spec.columns])
        fused = cluster_fuse.kmeans_fuse(
            matrix, spec.columns, spec.name,
            k=spec.k, seed=spec.seed, restarts=spec.restarts,
        )
        fused_cols[spec.name] = fused.labels

        written.append(_write_matrix(
            cfg, f"fusion_{spec.name}_centroids.csv", "cluster", spec.columns,
            range(1, spec.k + 1), fused.centroids))

    written.append(_write_table(cfg, "fused.csv", units, fused_cols))
    return written


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
    cat_path = _require(cfg, "categorical.csv", "associate")
    units, cat_columns = read_categorical_csv(cat_path)
    if cfg.fusions:
        fused_path = _require(cfg, "fused.csv", "fuse")
        f_units, f_columns = read_categorical_csv(fused_path)
        if f_units != units:
            raise DataError("fused.csv and categorical.csv disagree on units")
        cat_columns.update(f_columns)

    meta = (parse_unit_metadata(cfg.metadata)
            if any(s.response in META_RESPONSES for s in cfg.responses) else {})
    for spec in cfg.responses:
        yield (spec, _response_column(spec.response, units, cat_columns, meta),
               {c: _column("candidate", c, cat_columns) for c in spec.candidates})


def _scan_response(spec: ResponseSpec, y, candidates, orders: dict):
    """Run the order-1/2/3 scans plus nulls and classification for one response."""
    scan1, scan2, scan3 = (major_factor.scan(y, candidates, spec.order)
                           + [[]] * (3 - spec.order))
    names = sorted(candidates)
    nulls = dict(zip(names, major_factor.noise_thresholds(
        y, [], [candidates[c] for c in names], spec.replicates,
        range(spec.seed, spec.seed + len(names)), orders)))
    annotated1 = []
    for r in scan1:
        sig = r.ce_drop > nulls[r.feature_names[0]].q95 + major_factor.EPS
        annotated1.append(dataclasses.replace(
            r, significant=sig,
            classification=major_factor.ORDER1 if sig else major_factor.INSIGNIFICANT,
        ))

    annotated2 = []
    by_name = {r.feature_names[0]: r for r in annotated1}
    for r in scan2:
        a, b = r.feature_names
        annotated2.append(dataclasses.replace(
            r,
            significant=r.sce_drop > max(nulls[a].q95, nulls[b].q95) + major_factor.EPS,
            classification=major_factor.classify_pair(
                r, by_name[a], by_name[b], nulls[a], nulls[b]),
        ))

    return annotated1, annotated2, scan3, nulls


SCAN_COLUMNS = ("features", "ce", "rescaled_ce", "ce_drop", "sce_drop",
                "null_mean", "null_q95", "significant", "classification")


def _scan_rows(scans, nulls):
    for r in scans:
        null = nulls[r.feature_names[0]] if len(r.feature_names) == 1 else None
        yield [
            "_".join(r.feature_names),
            f"{r.ce:.6f}", f"{r.rescaled_ce:.6f}",
            f"{r.ce_drop:.6f}", f"{r.sce_drop:.6f}",
            f"{null.mean:.6f}" if null else "", f"{null.q95:.6f}" if null else "",
            "" if r.significant is None else str(bool(r.significant)).lower(),
            r.classification or "",
        ]


def stage_select(cfg: PipelineConfig) -> list[str]:
    """Run major-factor scans for each configured response."""
    # null row orders by (seed, replicates), each dropped after its last use
    last_use = {(spec.seed + i, spec.replicates): k for k, spec in enumerate(cfg.responses)
                for i in range(len(spec.candidates))}
    orders, written = {}, []
    for k, (spec, y, candidates) in enumerate(_scan_inputs(cfg)):
        scan1, scan2, scan3, nulls = _scan_response(spec, y, candidates, orders)
        orders = {key: v for key, v in orders.items() if last_use[key] > k}
        written.append(_write_csv(
            cfg, f"scan_{spec.response}.csv",
            SCAN_COLUMNS,
            _scan_rows(scan1 + scan2 + scan3, nulls)))
        written.extend(_write_reports(cfg, spec.response, scan1, scan2,
                                      spec.top, spec.bottom))
    return written


def _write_reports(cfg, response, scan1, scan2, top, bottom) -> list[str]:
    if not (scan1 and scan2):
        return []
    return [_write(cfg, f"report_{response}.{ext}",
                   major_factor.factor_report(scan1, scan2, top, bottom, markdown=md))
            for ext, md in (("txt", False), ("md", True))]


# ---------------------------------------------------------------------------
# stage: cluster

def stage_cluster(cfg: PipelineConfig) -> list[str]:
    """Build Ward.D2 trees, leaf codes, similarity matrices, and heatmaps."""
    features_path = _require(cfg, "features.csv", "features")
    units, columns = read_features_csv(features_path)
    written = []
    for spec in cfg.clusterings:
        matrix = np.column_stack([columns[c] for c in spec.columns])
        try:
            tree, excluded = cluster_fuse.hcluster_ward(matrix, units)
        except ComputationError as exc:
            raise ComputationError(f"{spec.name}: {exc}") from exc
        codes = cluster_fuse.leaf_codes(tree)

        written.append(_write(cfg, f"tree_{spec.name}.csv", cluster_fuse.tree_csv(tree)))
        written.append(_write(cfg, f"similarity_{spec.name}.csv",
                              cluster_fuse.similarity_csv(codes)))
        written.append(_write(cfg, f"heatmap_{spec.name}.svg",
                              cluster_fuse.similarity_svg(codes)))
        if excluded:
            written.append(_write(cfg, f"excluded_{spec.name}.txt",
                                  "\n".join(excluded) + "\n"))
    return written


# ---------------------------------------------------------------------------
# stage: report

def stage_report(cfg: PipelineConfig, top: Optional[int] = None,
                 bottom: Optional[int] = None) -> list[str]:
    """Re-render ranked reports from the order-1/2 scans, recomputed from the
    inputs select reads; a report shows no null, so none is drawn."""
    written = []
    for spec, y, candidates in _scan_inputs(cfg):
        scan1, scan2 = (major_factor.scan(y, candidates, min(spec.order, 2)) + [[]])[:2]
        written.extend(_write_reports(
            cfg, spec.response, scan1, scan2,
            spec.top if top is None else top,
            spec.bottom if bottom is None else bottom,
        ))
    return written


# ---------------------------------------------------------------------------
# full run + manifest

def write_manifest(cfg: PipelineConfig) -> str:
    """Digest every artifact in the output directory into manifest.txt."""
    entries = []
    for root, _dirs, files in os.walk(cfg.output):
        for fname in files:
            if fname == "manifest.txt":
                continue
            full = os.path.join(root, fname)
            rel = os.path.relpath(full, cfg.output)
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append(f"{digest}  {rel}")
    return _write(cfg, "manifest.txt", "\n".join(sorted(entries)) + "\n")


def run_pipeline(cfg: PipelineConfig) -> str:
    """Run every stage in order and write the artifact manifest."""
    stage_features(cfg)
    stage_associate(cfg)
    if cfg.fusions:
        stage_fuse(cfg)
    if cfg.responses:
        stage_select(cfg)
    if cfg.clusterings:
        stage_cluster(cfg)
    return write_manifest(cfg)

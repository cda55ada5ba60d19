"""Kernels return, stages report: only ``pipeline.py`` calls ``warnings.warn``,
and each stage issues one warning per cause, naming exactly the units,
columns, fusions, merges or reports that the oracles mark.
"""

import ast
import dataclasses
import datetime as dt
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import epicurve
from epicurve import cluster_fuse, pipeline
from epicurve.curve_features import FEATURE_COLUMNS, BoundaryPeakWarning, smooth
from epicurve.infotheory import DegenerateColumnWarning
from epicurve.ingest import parse_unit_metadata

from helpers import (
    START,
    RawSeries,
    base_config,
    compute_daily_rates,
    oracle_discretize,
    oracle_extract_features,
    oracle_hcluster_ward,
    oracle_height_inversions,
    oracle_kmeans_fuse,
    triangle,
    window_clip,
    write_case_series,
)


def warn_calls(tree: ast.Module):
    """Line of each ``warnings.warn(...)`` or ``warn(...)`` call in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr == "warn"
                 and isinstance(f.value, ast.Name) and f.value.id == "warnings")
                    or (isinstance(f, ast.Name) and f.id == "warn")):
                yield node.lineno


def test_only_the_pipeline_warns():
    sources = sorted(Path(epicurve.__file__).parent.glob("*.py"))
    assert "pipeline.py" in [p.name for p in sources]
    calls = [f"{p.name}:{line}" for p in sources if p.name != "pipeline.py"
             for line in warn_calls(ast.parse(p.read_text()))]
    assert calls == []


def warned(run, *args) -> list:
    """(category, message) of every warning one call issues."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        run(*args)
    return [(w.category, str(w.message)) for w in log]


#: Raw day of each unit's tent peak in a 90-day window. The smoothed curve
#: is 78 days long and starts on day 6; its peak is a boundary peak before
#: smoothed day 6 or after day 71: u1, u2 and u3 (a rise shorter than the
#: kernel moves the smoothed peak later).
PEAKS = {"u5": 40, "u1": 2, "u3": 10, "u0": 11, "u4": 77, "u2": 78, "u6": 60}
DAYS = 90


def write_cohort(d: Path):
    """(config, {unit: RawSeries}) of a run without fusions, scans or trees
    over one tent-shaped unit per entry of PEAKS, written to cases.csv and
    meta.csv."""
    series = {}
    for unit, at in PEAKS.items():
        curve = triangle(pad=max(0, at - 20), rise=min(at, 20), decline=20, peak=900.0,
                         total=DAYS)
        series[unit] = RawSeries(unit, START, tuple(int(c) + 1 for c in curve))
    write_case_series(d / "cases.csv", series)
    with open(d / "meta.csv", "w") as fh:
        fh.write("unit_id,city_code,district_letter,age_group,population,region,status\n")
        fh.writelines(f"{unit},TP,a,,100000,North,Urban\n" for unit in PEAKS)
    cfg = pipeline.PipelineConfig(
        cases=str(d / "cases.csv"), metadata=str(d / "meta.csv"), output=str(d / "out"),
        window_start=START, window_end=START + dt.timedelta(days=DAYS - 1))
    return cfg, series


def test_features_warns_once_naming_every_boundary_unit(tmp_path):
    cfg, series = write_cohort(tmp_path)
    log = warned(pipeline.stage_features, cfg)

    meta = parse_unit_metadata(cfg.metadata)
    boundary = [unit for unit in sorted(series)  # the order of features.csv
                if oracle_extract_features(smooth(window_clip(
                    compute_daily_rates(series[unit], meta[unit], cfg.rate_scale),
                    cfg.window_start, cfg.window_end))).curvature is None]
    assert boundary == ["u1", "u2", "u3"]
    assert log == [(BoundaryPeakWarning, "peak within 6 days of the window edge, "
                    "curvature-dependent features set to NA: u1, u2, u3")]


def test_associate_warns_once_naming_every_degenerate_column(tmp_path):
    cfg = dataclasses.replace(write_cohort(tmp_path)[0], n_bins=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryPeakWarning)
        pipeline.stage_features(cfg)
    log = warned(pipeline.stage_associate, cfg)

    _, features = pipeline.read_features_csv(os.path.join(cfg.output, "features.csv"))
    names = ("peakdate",) + tuple(c for c in FEATURE_COLUMNS
                                  if c not in ("peakdate", "curvature"))
    degenerate = [name for name in names
                  if oracle_discretize(features[name].tolist(), cfg.n_bins)[1] is None]
    assert 0 < len(degenerate) < len(names)
    assert log == [(DegenerateColumnWarning, "fewer than 5 distinct values, distinct-value "
                    "bins used: " + ", ".join(degenerate))]


def write_features(cfg, rows: dict) -> None:
    """features.csv holding each unit's ``{column: value}``; other cells NA."""
    os.makedirs(cfg.output, exist_ok=True)
    with open(os.path.join(cfg.output, "features.csv"), "w") as fh:
        fh.write(",".join(["unit_id", *FEATURE_COLUMNS]) + "\n")
        for unit, values in rows.items():
            cells = {"peakdate": "2022-04-01", **{c: repr(float(v)) for c, v in values.items()}}
            fh.write(",".join([unit, *(cells.get(c, "") for c in FEATURE_COLUMNS)]) + "\n")


def test_cluster_warns_once_per_tree_naming_its_inversions(tmp_path):
    # an equilateral triangle: the second merge is as high as the first in
    # exact arithmetic and lower after rounding; three points on a line are not
    s = 1.991e10
    matrices = {"tri": np.array([[0.0, 0.0], [s, 0.0], [s / 2, s * 3 ** 0.5 / 2]]),
                "line": np.array([[0.0], [1.0], [3.0]])}
    columns = {"tri": ("left90", "left80"), "line": ("right90",)}
    cfg = pipeline.PipelineConfig(
        cases="unused", metadata="unused", output=str(tmp_path),
        clusterings=tuple(pipeline.ClusteringSpec(name, columns[name]) for name in matrices))
    write_features(cfg, {unit: {c: m[i, j] for name, m in matrices.items()
                                for j, c in enumerate(columns[name])}
                         for i, unit in enumerate("abc")})
    log = warned(pipeline.stage_cluster, cfg)

    marked = {name: [f"merge {step} ({h:.6g} < {top:.6g})" for step, h, top in
                     oracle_height_inversions(oracle_hcluster_ward(m, list("abc"))[0])]
              for name, m in matrices.items()}
    assert marked == {"tri": ["merge 1 (1.991e+10 < 1.991e+10)"], "line": []}
    assert log == [(UserWarning, "Ward.D2 height inversion in tri: merge 1 "
                    "(1.991e+10 < 1.991e+10)")]


@pytest.mark.parametrize("max_iter", [1, 2, cluster_fuse._MAX_ITER])
def test_fuse_warns_once_naming_each_fusion_lloyd_stopped(tmp_path, monkeypatch, max_iter):
    # six clusters of 300 normal rows take Lloyd more than two iterations;
    # one cluster's labels repeat at the first check
    x = np.random.default_rng(9).standard_normal((300, 4))
    columns = ("left90", "left80", "left70", "left60")
    cfg = pipeline.PipelineConfig(cases="unused", metadata="unused", output=str(tmp_path),
                                  fusions=(pipeline.FusionSpec("six", columns,
                                                               k=6, seed=1, restarts=12),
                                           pipeline.FusionSpec("one", ("left90",), k=1)))
    write_features(cfg, {f"u{i:03d}": dict(zip(columns, row))
                         for i, row in enumerate(x.tolist())})
    monkeypatch.setattr(cluster_fuse, "_MAX_ITER", max_iter)
    log = warned(pipeline.stage_fuse, cfg)

    stopped = [spec.name for spec in cfg.fusions if not oracle_kmeans_fuse(
        x[:, :len(spec.columns)], spec.columns, spec.name, k=spec.k, seed=spec.seed,
        restarts=spec.restarts).converged]
    if max_iter < 3:
        assert stopped == ["six"]
        assert log == [(UserWarning, f"K-means stopped at {max_iter} Lloyd iterations "
                        "before its labels repeated: six")]
    else:
        assert stopped == log == []


def test_select_and_report_warn_once_per_clamped_response(synthetic_dir, tmp_path):
    data = base_config(synthetic_dir, str(tmp_path))
    data["responses"][0]["top"] = 6  # 6 + 1 rows asked of a 6-pair scan
    data["responses"].append({**data["responses"][0], "response": "status", "top": 5})
    cfg = pipeline.config_from_dict(data, str(synthetic_dir))
    for stage in ("features", "associate", "fuse"):
        pipeline.STAGES[stage](cfg)

    clamped = [(UserWarning, "report_region: top 6 + bottom 1 exceeds 6 results; clamping")]
    assert warned(pipeline.stage_select, cfg) == clamped
    assert warned(pipeline.stage_report, cfg) == clamped
    assert warned(pipeline.stage_report, cfg, 0, 9) == [
        (UserWarning, f"report_{r}: top 0 + bottom 9 exceeds 6 results; clamping")
        for r in ("region", "status")]

"""The batch feature kernel against the per-unit oracle loop.

``extract_features_batch`` must give, for every row, what
``oracle_extract_features`` gives for that row alone: peak values bit for
bit (``float.hex``), integer spans and NA patterns exactly, and the same
first error; neither issues a warning (the features stage reports boundary
peaks). ``left_crossing`` and ``right_crossing`` must match the scalar
crossing oracles the same way, and ``features.csv`` must read back as the
table the batch returned.
"""

import dataclasses
import datetime as dt
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicurve import curve_features, pipeline
from epicurve.curve_features import (
    FEATURE_ALPHAS,
    FEATURE_COLUMNS,
    SmoothedSeries,
    _features_row,
    extract_features,
    extract_features_batch,
    left_crossing,
    right_crossing,
    smooth,
    smooth_rows,
)
from epicurve.errors import ComputationError, DataError
from epicurve.ingest import RateSeries, parse_case_series, parse_unit_metadata

from helpers import (
    END,
    START,
    case_series,
    compute_daily_rates,
    oracle_extract_features,
    oracle_feature_line,
    oracle_left_crossing,
    oracle_right_crossing,
    window_clip,
)

D0 = dt.date(2022, 3, 31)
SETTINGS = settings(max_examples=300, deadline=None)


def key(f):
    """Everything a feature row holds, with the peak value as its bits."""
    spans = [f.robust_peak, f.peak, f.curvature] + [f.left[a] for a in FEATURE_ALPHAS] \
        + [f.right[a] for a in FEATURE_ALPHAS]
    assert all(v is None or type(v) is int for v in spans)
    assert type(f.peakvalue) is float
    return (f.unit_id, f.peakdate, f.peakvalue.hex(), spans)


def outcome(run):
    """(feature keys, (error class, message) or None, [(warning class, message)])."""
    feats, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run(feats)
        except ComputationError as exc:
            error = (type(exc), str(exc))
    return ([key(f) for f in feats], error,
            [(w.category, str(w.message)) for w in caught])


def assert_matches_oracle(matrix):
    matrix = np.asarray(matrix, dtype=float)
    units = [f"u{i:02d}" for i in range(matrix.shape[0])]

    def batch(feats):
        table = extract_features_batch(units, D0, matrix)
        feats.extend(_features_row(table, unit, D0, i) for i, unit in enumerate(units))

    def oracle(feats):
        for unit, row in zip(units, matrix):
            feats.append(oracle_extract_features(SmoothedSeries(unit, D0, tuple(row))))

    got, want = outcome(batch), outcome(oracle)
    assert got[2] == want[2] == []
    if want[1] is not None:
        # the batch raises before returning any row
        assert got == ([], want[1], [])
    else:
        assert got == want


def bump(days, peak_day, height, rise, fall, base, floor):
    """Rise from ``base`` to ``height`` at ``peak_day``, then fall to ``floor``."""
    t = np.arange(days, dtype=float)
    up = base + (height - base) * np.clip(1 - (peak_day - t) / rise, 0, 1)
    down = floor + (height - floor) * np.clip(1 - (t - peak_day) / fall, 0, 1)
    return np.where(t <= peak_day, up, down)


@st.composite
def curves(draw):
    """A units × days matrix mixing bumps (ties, plateaus, rebounds and
    censoring from integer noise), noisy curves and the odd all-zero row,
    on integer or scaled levels."""
    days = draw(st.integers(0, 12) | st.integers(13, 60))
    units = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 0.37, 1e-3, 7.25]))
    rows = []
    for _ in range(units):
        kind = draw(st.sampled_from(["bump"] * 8 + ["noise", "zero"]))
        if kind == "zero":
            row = np.zeros(days)
        elif kind == "noise":
            row = np.array(draw(st.lists(st.integers(0, 6), min_size=days,
                                         max_size=days)), dtype=float)
        else:
            height = draw(st.integers(10, 60))
            row = bump(days, draw(st.integers(-3, days + 3)), height,
                       draw(st.integers(1, 25)), draw(st.integers(1, 25)),
                       draw(st.integers(0, height)), draw(st.integers(0, height)))
            row += np.array(draw(st.lists(st.integers(0, 3), min_size=days,
                                          max_size=days)))
            row = np.round(row)
        rows.append(row * scale)
    return np.array(rows).reshape(units, days)


@SETTINGS
@given(curves())
def test_batch_matches_oracle(matrix):
    assert_matches_oracle(matrix)


@SETTINGS
@given(curves())
def test_extract_features_is_the_one_row_batch(matrix):
    for row in matrix:
        s = SmoothedSeries("u", D0, tuple(row))
        got = outcome(lambda feats: feats.append(extract_features(s)))
        assert got == outcome(lambda feats: feats.append(oracle_extract_features(s)))
        assert got[2] == []


RAMP = list(range(0, 21, 2)) + list(range(18, -1, -2))  # peak 20 on day 10

CASES = {
    # ties and plateaus at the peak: the earliest argmax is the peak day
    "tied_peaks": [RAMP[:8] + [20, 14, 20] + RAMP[11:]],
    "plateau": [[0, 2, 4, 6, 8, 10, 10, 10, 10, 10, 10, 8, 6, 4, 2, 0, 0, 0, 0]],
    # peaks on, or within 6 days of, either edge
    "peak_on_first_day": [[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0]],
    "peak_on_last_day": [[0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]],
    "peak_5_days_in": [[0, 2, 4, 6, 8, 10, 8, 6, 4, 2, 1, 0, 0, 0, 0, 0]],
    "peak_6_days_in": [[0, 2, 4, 6, 8, 9, 10, 8, 6, 4, 2, 1, 0, 0, 0, 0]],
    "peak_6_days_from_end": [[0, 0, 0, 0, 1, 2, 4, 6, 8, 9, 10, 8, 6, 4, 2, 1, 0]],
    "peak_5_days_from_end": [[0, 0, 0, 0, 1, 2, 4, 6, 8, 9, 10, 8, 6, 4, 2, 1]],
    # left and right censoring at each alpha: start or end at 15 % .. 85 %
    "left_censored": [[v] + RAMP[1:] for v in range(3, 18, 2)],
    "right_censored": [RAMP[:-1] + [v] for v in range(3, 18, 2)],
    # a rebound above the threshold after the peak delays the right crossing
    "rebound": [[0, 2, 4, 6, 8, 10, 12, 14, 20, 14, 8, 4, 9, 11, 3, 2, 1, 0, 0, 0]],
    # a row that cannot be centred, or all zero, after a boundary row fails the batch
    "cannot_center_after_boundary": [[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0],
                                     [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 19, 19,
                                      19, 19],
                                     RAMP[:15]],
    "all_zero_after_boundary": [[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9],
                                [0] * 15,
                                [9] + [0] * 14],
    # too short for any peak to be 6 days from both edges, and empty
    "too_short": [[0, 1, 5, 2, 0, 0, 0, 0, 0, 0, 0, 0], [3] * 12],
    "empty": [[], []],
}


@pytest.mark.parametrize("name", CASES)
def test_named_shapes_match_oracle(name):
    assert_matches_oracle(np.array(CASES[name], dtype=float).reshape(len(CASES[name]), -1))


def test_no_rows():
    for days in (30, 0):
        table = extract_features_batch([], D0, np.zeros((0, days)))
        assert list(table) == FEATURE_COLUMNS
        assert all(c.dtype == np.float64 and c.shape == (0,) for c in table.values())


def crossing_outcome(crossing, s, alpha):
    """(result and its type, (error class, message) or None, [(warning class, message)])."""
    result, error = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = crossing(s, alpha)
        except ComputationError as exc:
            error = (type(exc), str(exc))
    return (result, type(result)), error, [(w.category, str(w.message)) for w in caught]


def assert_crossings_match_oracles(matrix):
    for row in matrix:
        s = SmoothedSeries("u", D0, tuple(row))
        for alpha in (0.1,) + FEATURE_ALPHAS:
            assert crossing_outcome(left_crossing, s, alpha) == \
                crossing_outcome(oracle_left_crossing, s, alpha)
            assert crossing_outcome(right_crossing, s, alpha) == \
                crossing_outcome(oracle_right_crossing, s, alpha)


@SETTINGS
@given(curves())
def test_crossings_match_scalar_oracles(matrix):
    assert_crossings_match_oracles(matrix)


@pytest.mark.parametrize("name", CASES)
def test_named_shapes_crossings_match_scalar_oracles(name):
    assert_crossings_match_oracles(
        np.array(CASES[name], dtype=float).reshape(len(CASES[name]), -1))


@SETTINGS
@given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_smooth_rows_equals_smooth(days, units, seed):
    rates = np.random.default_rng(seed).random((units, days)) * 100
    ids = [f"u{i}" for i in range(units)]
    if days < 13:
        with pytest.raises(ComputationError, match="u0: series of length .* too short"):
            smooth_rows(ids, rates)
        return
    got = smooth_rows(ids, rates)
    for unit, row, out in zip(ids, rates, got):
        want = smooth(RateSeries(unit, D0, tuple(row))).values
        assert [float(v).hex() for v in out] == [float(v).hex() for v in want]


@pytest.mark.parametrize("trim", [0, 3])
def test_stage_features_matches_per_unit_path(synthetic_dir, tmp_path, monkeypatch,
                                             trim):
    """features.csv equals what rates, clipping, smoothing and the oracle
    give unit by unit, and the rate matrix equals compute_daily_rates bit
    for bit (cells are written to 6 decimals, so they would not show it)."""
    cfg = pipeline.load_config(str(synthetic_dir / "config.yaml"))
    cfg = dataclasses.replace(cfg, output=str(tmp_path), rate_scale=1e5 / 3,
                              window_start=cfg.window_start + dt.timedelta(days=trim),
                              window_end=cfg.window_end - dt.timedelta(days=trim))
    matrices = []
    monkeypatch.setattr(curve_features, "smooth_rows",
                        lambda units, rates: matrices.append(rates) or smooth_rows(units, rates))
    pipeline.stage_features(cfg)
    path = os.path.join(cfg.output, "features.csv")

    series = case_series(parse_case_series(cfg.cases))
    meta = parse_unit_metadata(cfg.metadata)
    lines = ["unit_id," + ",".join(FEATURE_COLUMNS)]
    for i, unit in enumerate(sorted(series)):
        rates = compute_daily_rates(series[unit], meta[unit], cfg.rate_scale)
        rates = window_clip(rates, cfg.window_start, cfg.window_end)
        assert [float(v).hex() for v in matrices[0][i]] == [v.hex() for v in rates.rates]
        lines.append(oracle_feature_line(oracle_extract_features(smooth(rates))))
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "\n".join(lines) + "\n"


def test_stage_features_reports_a_reversed_window(synthetic_dir, tmp_path):
    cfg = pipeline.load_config(str(synthetic_dir / "config.yaml"))
    cfg = dataclasses.replace(cfg, output=str(tmp_path), window_start=cfg.window_end,
                              window_end=cfg.window_start)
    with pytest.raises(DataError, match="^window start 2022-08-19 after end 2022-03-25$"):
        pipeline.stage_features(cfg)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blanks=st.integers(0, 6), trim=st.integers(0, 3))
def test_stage_features_ignores_row_order_and_blank_lines(synthetic_dir, tmp_path_factory,
                                                          seed, blanks, trim):
    """features.csv from a cases.csv whose data rows are shuffled, with
    blank lines added, has the bytes of the in-order file's, and so has one
    where a unit also has days outside the window, 3650 in all."""
    tmp = tmp_path_factory.mktemp("shuffled")
    cfg = pipeline.load_config(str(synthetic_dir / "config.yaml"))
    cfg = dataclasses.replace(cfg, window_start=cfg.window_start + dt.timedelta(days=trim))
    header, *rows = (synthetic_dir / "cases.csv").read_text().splitlines()
    rng = np.random.default_rng(seed)
    unit, total = rows[rng.integers(len(rows))].split(",")[0], (END - START).days + 1
    extra = [f"{unit},{START + dt.timedelta(days=d)},{d % 50}"
             for d in range(-1751, 3650 - 1751) if not 0 <= d < total]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for at in rng.integers(0, len(rows) + 1, blanks):
        rows.insert(at, "")
    (tmp / "cases.csv").write_text("\n".join([header, *rows]) + "\n")
    long_rows = rows + extra
    long_rows = [long_rows[i] for i in rng.permutation(len(long_rows))]
    (tmp / "long.csv").write_text("\n".join([header, *long_rows]) + "\n")
    written = {}
    for name, cases in (("in_order", cfg.cases), ("shuffled", str(tmp / "cases.csv")),
                        ("long", str(tmp / "long.csv"))):
        out = dataclasses.replace(cfg, cases=cases, output=str(tmp / name))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pipeline.stage_features(out)
            with open(os.path.join(out.output, "features.csv"), "rb") as fh:
                written[name] = fh.read()
    assert written["shuffled"] == written["long"] == written["in_order"]


#: Days of data of each unit (first day, last day), in file order: TPc is
#: first in the file and last in sorted order.
SPANS = {"TPc": ("2022-03-20", "2022-05-10"), "KSa": ("2022-03-20", "2022-05-10"),
         "NTb": ("2022-03-20", "2022-05-10")}


@pytest.mark.parametrize("spans, without_meta, window, message", [
    ({"NTb": ("2022-03-27", "2022-05-10")}, ["TPc"], None,
     r"NTb: window \[2022-03-25, 2022-04-30\] outside data \[2022-03-27, 2022-05-10\]"),
    ({"NTb": ("2022-03-20", "2022-04-29")}, ["KSa"], None,
     "KSa: case data without metadata"),
    ({"NTb": ("2022-03-20", "2022-04-29")}, ["NTb"], None, "NTb: case data without metadata"),
    ({"KSa": ("2022-03-20", "2022-04-29")}, ["NTb"], None,
     r"KSa: window \[2022-03-25, 2022-04-30\] outside data \[2022-03-20, 2022-04-29\]"),
    ({}, ["KSa"], ("2022-04-30", "2022-03-25"), "KSa: case data without metadata"),
    ({}, ["TPc"], ("2022-04-30", "2022-03-25"),
     "window start 2022-04-30 after end 2022-03-25"),
    ({"TPc": ("2022-03-26", "2022-04-30")}, [], ("2022-03-25", "2022-03-25"),
     r"TPc: window \[2022-03-25, 2022-03-25\] outside data \[2022-03-26, 2022-04-30\]"),
])
def test_stage_features_first_unit_error(tmp_path, spans, without_meta, window, message):
    """In sorted unit order, the first unit without metadata or without
    data over the window is reported; its metadata is checked first, and
    a reversed window fails every unit."""
    with open(tmp_path / "cases.csv", "w") as fh:
        fh.write("unit_id,date,count\n")
        for unit, (first, last) in {**SPANS, **spans}.items():
            day, last = dt.date.fromisoformat(first), dt.date.fromisoformat(last)
            while day <= last:
                fh.write(f"{unit},{day},1\n")
                day += dt.timedelta(days=1)
    with open(tmp_path / "meta.csv", "w") as fh:
        fh.write("unit_id,city_code,district_letter,age_group,population,region,status\n")
        fh.writelines(f"{unit},TP,a,,1000,North,Urban\n" for unit in SPANS
                      if unit not in without_meta)
    start, end = window or ("2022-03-25", "2022-04-30")
    cfg = pipeline.PipelineConfig(cases=str(tmp_path / "cases.csv"),
                                  metadata=str(tmp_path / "meta.csv"),
                                  output=str(tmp_path / "out"),
                                  window_start=dt.date.fromisoformat(start),
                                  window_end=dt.date.fromisoformat(end))
    with pytest.raises(DataError, match=f"^{message}$"):
        pipeline.stage_features(cfg)


@pytest.mark.parametrize("trim", [0, 40])  # 40: right crossings censored
def test_features_csv_reads_back_the_kernel_table(synthetic_dir, tmp_path, monkeypatch,
                                                  trim):
    """read_features_csv of features.csv gives back the table
    extract_features_batch returned: NaN in the same cells, peakdate and
    spans exactly, peakvalue to the 6 decimals it is written with."""
    cfg = pipeline.load_config(str(synthetic_dir / "config.yaml"))
    cfg = dataclasses.replace(cfg, output=str(tmp_path),
                              window_end=cfg.window_end - dt.timedelta(days=trim))
    tables = []
    monkeypatch.setattr(curve_features, "extract_features_batch",
                        lambda *args: tables.append(extract_features_batch(*args))
                        or tables[-1])
    pipeline.stage_features(cfg)
    units, table = pipeline.read_features_csv(os.path.join(cfg.output, "features.csv"))

    assert units == sorted(parse_case_series(cfg.cases).unit_ids)
    assert list(table) == list(tables[0]) == FEATURE_COLUMNS
    for c, want in tables[0].items():
        got = table[c]
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want)), c
        if c == "peakvalue":
            assert np.nanmax(np.abs(got - want), initial=0.0) <= 5e-7
        else:
            assert np.array_equal(got, want, equal_nan=True), c

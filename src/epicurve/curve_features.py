"""Smoothing and shape-feature extraction for daily infection-rate curves.

A rate series is smoothed with a centered 13-day triangular kernel
(weights (7-|d|)/49, identical to two passes of a centered 7-day simple
moving average). From the smoothed curve we locate the peak, the
threshold-crossing days on the growth and decline sides, and derive the
18 shape feature-variables plus peakdate, robust peak, and
curvature-at-peak.

Decline-side crossings use a tail condition: the crossing day is the
first day after the peak from which the curve stays strictly below the
threshold for the entire remaining window. A curve that never does so
within the window is right-censored and the feature is NA.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ComputationError
from .ingest import RateSeries

#: Triangular kernel, offsets -6..6, sums to exactly 1.
KERNEL = np.array([(7 - abs(d)) / 49.0 for d in range(-6, 7)])

#: Alpha levels whose left/right spans form shape features (0.1 is used
#: only for the robust peak and curvature).
FEATURE_ALPHAS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: Column order of the feature CSV.
FEATURE_COLUMNS = (
    ["peakdate", "peakvalue", "peak", "curvature"]
    + [f"left{int(a * 100)}" for a in reversed(FEATURE_ALPHAS)]
    + [f"right{int(a * 100)}" for a in reversed(FEATURE_ALPHAS)]
)

#: The 18 shape feature-variables (peakdate is the lone calendar feature).
SHAPE_FEATURES = tuple(c for c in FEATURE_COLUMNS if c not in ("peakdate", "curvature"))


class BoundaryPeakWarning(UserWarning):
    """Peak too close to the window edge for curvature-based features."""


@dataclass(frozen=True)
class SmoothedSeries:
    """Rate series after the 13-day weighted average; 6 days trimmed per side."""

    unit_id: str
    start_date: dt.date
    values: tuple[float, ...]


@dataclass(frozen=True)
class CurveFeatures:
    """Shape features of one smoothed curve; day spans are integer days.

    ``peak`` is the offset t_max - t0 between the raw argmax and the
    robust peak. Censored crossings propagate as None.
    """

    unit_id: str
    peakdate: dt.date
    peakvalue: float
    robust_peak: Optional[int]
    peak: Optional[int]
    curvature: Optional[int]
    left: dict[float, Optional[int]]
    right: dict[float, Optional[int]]


def smooth_rows(unit_ids: Sequence[str], rates: np.ndarray) -> np.ndarray:
    """Apply the 13-day triangular moving average to each row of a
    units × days rate matrix; the result is 12 days narrower.
    """
    units, days = rates.shape
    if days < 13 and units:
        raise ComputationError(
            f"{unit_ids[0]}: series of length {days} too short to smooth (need 13)"
        )
    out = np.empty((units, max(days - 12, 0)))
    for i, row in enumerate(rates):
        # row by row: a whole-matrix convolution rounds differently
        out[i] = np.convolve(row, KERNEL, mode="valid")
    return out


def smooth(series: RateSeries) -> SmoothedSeries:
    """Apply the 13-day triangular moving average.

    Output is 12 days shorter than the input and starts 6 days later.
    """
    x = np.asarray(series.rates, dtype=float)
    values = smooth_rows([series.unit_id], x[None, :])[0]
    return SmoothedSeries(
        unit_id=series.unit_id,
        start_date=series.start_date + dt.timedelta(days=6),
        values=tuple(values),
    )


def find_peak(s: SmoothedSeries) -> tuple[int, float]:
    """Earliest argmax of the smoothed curve and its value.

    All-zero curves carry no infection signal and are an error; a peak
    may sit on the first or last smoothed day.
    """
    v = np.asarray(s.values)
    if v.size == 0:
        raise ComputationError(f"{s.unit_id}: empty smoothed series")
    t_max = int(np.argmax(v))
    peak = float(v[t_max])
    if peak <= 0.0:
        raise ComputationError(f"{s.unit_id}: no infection signal (all-zero curve)")
    return t_max, peak


def _crossings(v: np.ndarray, suffix_max: np.ndarray, peak: np.ndarray,
               alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise left_crossing and right_crossing at ``alpha``; -1 marks a
    censored crossing.

    ``suffix_max[:, t]`` is the maximum of ``v[:, t:]``. It is at least the
    peak up to the peak day and falls monotonically after it, so the days
    on which it reaches the threshold are exactly those before the right
    crossing.
    """
    threshold = ((1.0 - alpha) * peak)[:, None]
    left = (v >= threshold).argmax(axis=1)
    right = (suffix_max >= threshold).sum(axis=1)
    return (np.where(left == 0, -1, left),
            np.where(right == v.shape[1], -1, right))


def _one_row_crossings(s: SmoothedSeries, alpha: float) -> list[Optional[int]]:
    """[left, right] crossing of one curve at ``alpha``, None if censored."""
    _, peak = find_peak(s)
    v = np.asarray(s.values, dtype=float)[None, :]
    suffix_max = np.maximum.accumulate(v[:, ::-1], axis=1)[:, ::-1]
    return [None if c[0] < 0 else int(c[0])
            for c in _crossings(v, suffix_max, np.array([peak]), alpha)]


def left_crossing(s: SmoothedSeries, alpha: float) -> Optional[int]:
    """First day at or before the peak with value >= (1-alpha)*peakvalue.

    Returns None when the series already meets the threshold on its very
    first smoothed day (left-censored).
    """
    return _one_row_crossings(s, alpha)[0]


def right_crossing(s: SmoothedSeries, alpha: float) -> Optional[int]:
    """First day after the peak from which the curve stays strictly below
    (1-alpha)*peakvalue through the end of the window; None if censored."""
    return _one_row_crossings(s, alpha)[1]


def extract_features_batch(unit_ids: Sequence[str], start_date: dt.date,
                           values: np.ndarray) -> dict[str, np.ndarray]:
    """extract_features of each row of a units × days matrix of smoothed
    curves that share ``start_date``, as one float64 column per
    FEATURE_COLUMNS entry: NA is NaN and peakdate its day ordinal.

    Values and errors are those of extract_features called row by row in
    order: every row is checked first, and the first failing one raises.
    """
    v = np.asarray(values, dtype=float)
    units, days = v.shape
    if days == 0:
        if units:
            raise ComputationError(f"{unit_ids[0]}: empty smoothed series")
        return {c: np.empty(0) for c in FEATURE_COLUMNS}
    t_max = v.argmax(axis=1)
    peak = v[np.arange(units), t_max]
    edge = (t_max < 6) | (t_max > days - 7)
    suffix_max = np.maximum.accumulate(v[:, ::-1], axis=1)[:, ::-1]
    l01, r01 = _crossings(v, suffix_max, peak, 0.1)
    failed = (peak <= 0.0) | (~edge & ((l01 < 0) | (r01 < 0)))
    if failed.any():
        i = int(failed.argmax())
        if peak[i] <= 0.0:
            raise ComputationError(f"{unit_ids[i]}: no infection signal (all-zero curve)")
        raise ComputationError(
            f"{unit_ids[i]}: cannot center curve (a 90%-of-peak crossing is censored)"
        )

    t0 = (l01 + r01) // 2
    table = {"peakdate": (start_date.toordinal() + t_max).astype(float),
             "peakvalue": peak,
             "peak": np.where(edge, np.nan, t_max - t0),
             "curvature": np.where(edge, np.nan, r01 - l01)}
    for a in FEATURE_ALPHAS:  # one alpha at a time keeps memory at units × days
        la, ra = _crossings(v, suffix_max, peak, a)
        table[f"left{int(a * 100)}"] = np.where(edge | (la < 0), np.nan, t0 - la)
        table[f"right{int(a * 100)}"] = np.where(edge | (ra < 0), np.nan, ra - t0)
    return {c: table[c] for c in FEATURE_COLUMNS}


def _features_row(table: dict[str, np.ndarray], unit_id: str, start_date: dt.date,
                  i: int) -> CurveFeatures:
    """Row ``i`` of an extract_features_batch table as a CurveFeatures."""
    span = {c: None if np.isnan(table[c][i]) else int(table[c][i])
            for c in FEATURE_COLUMNS if c != "peakvalue"}
    t_max = span["peakdate"] - start_date.toordinal()
    return CurveFeatures(
        unit_id=unit_id,
        peakdate=start_date + dt.timedelta(days=t_max),
        peakvalue=float(table["peakvalue"][i]),
        robust_peak=None if span["peak"] is None else t_max - span["peak"],
        peak=span["peak"],
        curvature=span["curvature"],
        left={a: span[f"left{int(a * 100)}"] for a in FEATURE_ALPHAS},
        right={a: span[f"right{int(a * 100)}"] for a in FEATURE_ALPHAS},
    )


def extract_features(s: SmoothedSeries) -> CurveFeatures:
    """Derive the full feature set of one smoothed curve.

    The robust peak t0 is the floored midpoint of the two 90%-of-peak
    crossings; all left/right spans are measured from t0. When the peak
    lies within 6 days of either window edge the curvature-dependent
    fields are NA instead of failing the unit; the features stage warns.
    """
    values = np.asarray(s.values, dtype=float)[None, :]
    table = extract_features_batch([s.unit_id], s.start_date, values)
    return _features_row(table, s.unit_id, s.start_date, 0)

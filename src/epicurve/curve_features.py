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
import warnings
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

ALL_ALPHAS = (0.1,) + FEATURE_ALPHAS

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

    def as_row(self) -> dict[str, object]:
        """Flatten to the feature-CSV column layout (NA as None)."""
        row: dict[str, object] = {
            "unit_id": self.unit_id,
            "peakdate": self.peakdate.isoformat(),
            "peakvalue": self.peakvalue,
            "peak": self.peak,
            "curvature": self.curvature,
        }
        for a in FEATURE_ALPHAS:
            row[f"left{int(a * 100)}"] = self.left.get(a)
            row[f"right{int(a * 100)}"] = self.right.get(a)
        return row


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
    sitting on the first or last smoothed day only warns.
    """
    v = np.asarray(s.values)
    if v.size == 0:
        raise ComputationError(f"{s.unit_id}: empty smoothed series")
    t_max = int(np.argmax(v))
    peak = float(v[t_max])
    if peak <= 0.0:
        raise ComputationError(f"{s.unit_id}: no infection signal (all-zero curve)")
    if t_max == 0 or t_max == v.size - 1:
        warnings.warn(
            f"{s.unit_id}: boundary peak at day {t_max}", BoundaryPeakWarning
        )
    return t_max, peak


def left_crossing(s: SmoothedSeries, alpha: float) -> Optional[int]:
    """First day at or before the peak with value >= (1-alpha)*peakvalue.

    Returns None when the series already meets the threshold on its very
    first smoothed day (left-censored).
    """
    t_max, peak = find_peak(s)
    threshold = (1.0 - alpha) * peak
    v = np.asarray(s.values)
    if v[0] >= threshold:
        return None
    for t in range(t_max + 1):
        if v[t] >= threshold:
            return t
    return t_max  # unreachable: v[t_max] == peak >= threshold


def right_crossing(s: SmoothedSeries, alpha: float) -> Optional[int]:
    """First day after the peak from which the curve stays strictly below
    (1-alpha)*peakvalue through the end of the window; None if censored."""
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


def extract_features_batch(unit_ids: Sequence[str], start_date: dt.date,
                           values: np.ndarray) -> list[CurveFeatures]:
    """extract_features for each row of a units × days matrix of smoothed
    curves that share ``start_date``.

    Results, warnings and errors are those of extract_features called row
    by row in order: the first failing row raises after the warnings of
    the rows before it.
    """
    v = np.asarray(values, dtype=float)
    units, days = v.shape
    if days == 0:
        if units:
            raise ComputationError(f"{unit_ids[0]}: empty smoothed series")
        return []
    t_max = v.argmax(axis=1)
    peak = v[np.arange(units), t_max]
    edge = (t_max < 6) | (t_max > days - 7)
    suffix_max = np.maximum.accumulate(v[:, ::-1], axis=1)[:, ::-1]
    l01, r01 = _crossings(v, suffix_max, peak, 0.1)
    failed = (peak <= 0.0) | (~edge & ((l01 < 0) | (r01 < 0)))
    stop = int(failed.argmax()) if failed.any() else units

    for i in range(stop):
        if edge[i]:
            if t_max[i] in (0, days - 1):
                warnings.warn(f"{unit_ids[i]}: boundary peak at day {t_max[i]}",
                              BoundaryPeakWarning)
            warnings.warn(
                f"{unit_ids[i]}: peak within 6 days of the window edge; "
                "curvature-dependent features set to NA",
                BoundaryPeakWarning,
            )
    if stop < units:
        if peak[stop] <= 0.0:
            raise ComputationError(
                f"{unit_ids[stop]}: no infection signal (all-zero curve)")
        raise ComputationError(
            f"{unit_ids[stop]}: cannot center curve (a 90%-of-peak crossing is censored)"
        )

    t0 = (l01 + r01) // 2
    left, right = {}, {}
    for a in FEATURE_ALPHAS:  # one alpha at a time keeps memory at units × days
        la, ra = _crossings(v, suffix_max, peak, a)
        left[a] = [None if c < 0 else s for c, s in zip(la.tolist(), (t0 - la).tolist())]
        right[a] = [None if c < 0 else s for c, s in zip(ra.tolist(), (ra - t0).tolist())]

    out = []
    for i, (unit, t, p, t0_i, c) in enumerate(zip(
            unit_ids, t_max.tolist(), peak.tolist(), t0.tolist(),
            (r01 - l01).tolist())):
        centered = not edge[i]
        out.append(CurveFeatures(
            unit_id=unit,
            peakdate=start_date + dt.timedelta(days=t),
            peakvalue=p,
            robust_peak=t0_i if centered else None,
            peak=t - t0_i if centered else None,
            curvature=c if centered else None,
            left={a: left[a][i] if centered else None for a in FEATURE_ALPHAS},
            right={a: right[a][i] if centered else None for a in FEATURE_ALPHAS},
        ))
    return out


def extract_features(s: SmoothedSeries) -> CurveFeatures:
    """Derive the full feature set of one smoothed curve.

    The robust peak t0 is the floored midpoint of the two 90%-of-peak
    crossings; all left/right spans are measured from t0. When the peak
    lies within 6 days of either window edge the curvature-dependent
    fields are NA (with a warning) instead of failing the unit.
    """
    values = np.asarray(s.values, dtype=float)[None, :]
    return extract_features_batch([s.unit_id], s.start_date, values)[0]

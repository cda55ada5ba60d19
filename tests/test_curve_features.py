import datetime as dt
import warnings

import numpy as np
import pytest

from epicurve.curve_features import (
    FEATURE_ALPHAS,
    KERNEL,
    SmoothedSeries,
    extract_features,
    find_peak,
    left_crossing,
    right_crossing,
    smooth,
)
from epicurve.errors import ComputationError
from epicurve.ingest import RateSeries

D0 = dt.date(2022, 3, 25)


def rate_series(values, unit="u"):
    return RateSeries(unit_id=unit, start_date=D0, rates=tuple(float(v) for v in values))


def smoothed(values, unit="u"):
    return SmoothedSeries(unit_id=unit, start_date=D0,
                          values=tuple(float(v) for v in values))


def seven_day_ma(x):
    """Independent oracle: centered 7-day simple moving average, valid part."""
    x = np.asarray(x, dtype=float)
    return np.convolve(x, np.ones(7) / 7.0, mode="valid")


# --- piecewise-linear test curve: slope 1 on [0,100], slope -0.5 on [100,300]
S_CURVE = smoothed([t if t <= 100 else 100 - 0.5 * (t - 100) for t in range(301)])


class TestSmooth:
    def test_kernel_sums_to_one_and_symmetric(self):
        assert KERNEL.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(KERNEL, KERNEL[::-1])

    def test_constant_series(self):
        out = smooth(rate_series([5.0] * 20))
        assert np.allclose(out.values, 5.0, atol=1e-12)
        assert len(out.values) == 8
        assert out.start_date == D0 + dt.timedelta(days=6)

    def test_impulse(self):
        x = [0.0] * 13
        x[6] = 49.0
        out = smooth(rate_series(x))
        # impulse spreads into the triangular weights; only the center day
        # survives the 6-day trim when length is exactly 13
        assert out.values == (7.0,)
        x = [0.0] * 25
        x[12] = 49.0
        out = smooth(rate_series(x))
        expected = [max(0.0, 7 - abs(d - 6)) for d in range(13)]
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_equals_double_moving_average(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.random(60) * 100
            ours = smooth(rate_series(x)).values
            oracle = seven_day_ma(seven_day_ma(x))
            assert np.allclose(ours, oracle, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ComputationError, match="too short"):
            smooth(rate_series([1.0] * 12))


class TestFindPeak:
    def test_simple(self):
        assert find_peak(smoothed([1, 3, 2])) == (1, 3.0)

    def test_earliest_argmax_on_tie(self):
        assert find_peak(smoothed([2, 5, 5, 1])) == (1, 5.0)

    def test_all_zero_errors(self):
        with pytest.raises(ComputationError, match="no infection signal"):
            find_peak(smoothed([0, 0, 0]))

    def test_boundary_peak_is_silent(self):
        # a peak on either edge is found without a warning: the features
        # stage reports boundary peaks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_peak(smoothed([5, 3, 1])) == (0, 5.0)
            assert find_peak(smoothed([1, 3, 5])) == (2, 5.0)


class TestCrossings:
    def test_left_alpha_05(self):
        assert left_crossing(S_CURVE, 0.5) == 50

    def test_left_alpha_01(self):
        assert left_crossing(S_CURVE, 0.1) == 90

    def test_left_censored(self):
        s = smoothed([95, 98, 100, 40, 30, 20, 10, 5, 2, 1])
        assert left_crossing(s, 0.1) is None

    def test_right_alpha_05(self):
        assert right_crossing(S_CURVE, 0.5) == 201

    def test_right_alpha_01(self):
        assert right_crossing(S_CURVE, 0.1) == 121

    def test_right_censored(self):
        # ends at 85% of peak: the 0.2 threshold (80%) is never left behind
        s = smoothed(list(range(0, 101, 10)) + [95, 90, 85])
        assert right_crossing(s, 0.2) is None

    def test_right_robust_to_rebound(self):
        # dips below 50% then rebounds above it; the crossing must wait out
        # the rebound
        s = smoothed([0, 50, 100, 40, 60, 30, 20, 10, 5, 2])
        assert right_crossing(s, 0.5) == 5

    def test_left_monotone_in_alpha(self):
        previous = None
        for a in sorted(FEATURE_ALPHAS):
            t = left_crossing(S_CURVE, a)
            if previous is not None:
                assert t <= previous
            previous = t


class TestExtractFeatures:
    def test_reference_curve_values(self):
        f = extract_features(S_CURVE)
        assert f.robust_peak == 105
        assert f.curvature == 31
        assert f.peak == -5
        assert f.left[0.5] == 55
        assert f.right[0.5] == 96
        assert f.peakvalue == 100.0
        assert f.peakdate == D0 + dt.timedelta(days=100)

    def test_symmetric_triangle(self):
        vals = list(range(0, 101)) + list(range(99, -1, -1))
        f = extract_features(smoothed(vals))
        assert abs(f.peak) <= 1
        for a in FEATURE_ALPHAS:
            assert abs(f.left[a] - f.right[a]) <= 1

    def test_cannot_center_when_right_censored(self):
        s = smoothed(list(np.linspace(0, 100, 11)) + [95.0] * 10)
        with pytest.raises(ComputationError, match="cannot center"):
            extract_features(s)

    def test_boundary_peak_gives_na_features(self):
        vals = [0, 1, 2, 3, 100, 50, 25, 12, 6, 3, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = extract_features(smoothed(vals))
        assert f.curvature is None
        assert f.robust_peak is None
        assert all(v is None for v in f.left.values())
        assert f.peakvalue == 100.0

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(1)
        base = np.concatenate([np.linspace(0, 80, 40), np.linspace(80, 2, 90)])
        base += rng.random(130)
        for c in (0.5, 3.0, 1000.0):
            f1 = extract_features(smoothed(base))
            f2 = extract_features(smoothed(base * c))
            assert f2.peakvalue == pytest.approx(c * f1.peakvalue, rel=1e-12)
            assert f2.robust_peak == f1.robust_peak
            assert f2.curvature == f1.curvature
            assert f2.left == f1.left
            assert f2.right == f1.right

    def test_time_shift_equivariance(self):
        base = list(np.concatenate([np.linspace(0, 80, 40), np.linspace(80, 2, 90)]))
        f1 = extract_features(smoothed(base))
        k = 9
        f2 = extract_features(smoothed([0.0] * k + base))
        assert (f2.peakdate - f1.peakdate).days == k
        assert f2.peak == f1.peak
        assert f2.curvature == f1.curvature
        assert f2.left == f1.left
        assert f2.right == f1.right

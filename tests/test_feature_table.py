"""The NaN-coded feature table and the two array kernels that read it,
against the per-element loops they replaced.

Heights are compared by ``float.hex`` and bin edges bit for bit: tied
Ward distances decide the merge order written to ``tree_*.csv``, so
"approximately equal" is not enough.
"""

import csv
import datetime as dt
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicurve import pipeline
from epicurve.cluster_fuse import hcluster_ward
from epicurve.curve_features import FEATURE_COLUMNS
from epicurve.errors import ComputationError
from epicurve.infotheory import discretize
from epicurve.pipeline import read_features_csv

from helpers import oracle_discretize, oracle_hcluster_ward

SETTINGS = settings(max_examples=150, deadline=None)
#: A quiet NaN with a payload.
NAN_BITS = 0x7FF8_0000_0000_0123


def failed(result):
    return isinstance(result[0], str)


def outcome(fn, *args):
    """(result or ("error", message), warnings) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except ComputationError as exc:
            result = ("error", str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def ward_outcome(fn, x, labels):
    result, caught = outcome(fn, x, labels)
    if failed(result):
        return result, caught
    tree, excluded = result
    merges = [(int(node), int(left), int(right), height.hex())
              for node, left, right, height in tree.merges]
    return (merges, tree.leaf_labels, excluded), caught


@st.composite
def tie_heavy_rows(draw):
    """Integer rows in 0..3, many of them duplicates, some with a NaN."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(2, 60))
    distinct = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                             min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    x = np.array([distinct[p] for p in picks], dtype=float)
    for row, col in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1)),
                                  max_size=n // 4 + 1)):
        x[row, col] = np.nan
    return x


class TestWard:
    @SETTINGS
    @given(tie_heavy_rows())
    def test_matches_dict_loop_oracle(self, x):
        labels = [f"u{i}" for i in range(x.shape[0])]
        assert ward_outcome(hcluster_ward, x, labels) == \
            ward_outcome(oracle_hcluster_ward, x, labels)

    @pytest.mark.parametrize("n", [64, 65, 128, 150])
    def test_matches_oracle_across_row_blocks(self, n):
        # d2 is built 64 rows at a time; these sizes end on, just past and
        # between block edges
        rng = np.random.default_rng(n)
        ties = rng.integers(0, 4, (n // 3, 8))[rng.integers(0, n // 3, n)].astype(float)
        wide = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-6, 7, 5)
        for x in (ties, wide):
            labels = [f"u{i}" for i in range(n)]
            assert ward_outcome(hcluster_ward, x, labels) == \
                ward_outcome(oracle_hcluster_ward, x, labels)

    def test_rounding_inversion_warns_as_the_oracle_does(self):
        # an equilateral triangle: the second merge is as high as the first
        # in exact arithmetic and lower after rounding
        s = 1.991e10
        x = np.array([[0.0, 0.0], [s, 0.0], [s / 2, s * 3 ** 0.5 / 2]])
        got = ward_outcome(hcluster_ward, x, list("abc"))
        assert got == ward_outcome(oracle_hcluster_ward, x, list("abc"))
        assert [message for _, message in got[1]] == [
            "Ward.D2 height inversion at merge 1: 1.991e+10 < 1.991e+10"]


    def test_infinitely_far_row_merges_last_as_the_oracle_does(self):
        for far in (np.inf, 1e300):  # 1e300 overflows to an inf squared distance
            x = np.array([[0.0], [1.0], [far], [3.0], [3.0]])
            got, _ = ward_outcome(hcluster_ward, x, list("abcde"))
            # numpy's invalid-value warnings from inf - inf are not compared
            assert got == ward_outcome(oracle_hcluster_ward, x, list("abcde"))[0]
            assert got[0][-1] == (8, 7, 2, "inf")

    def test_nan_distances_still_give_a_tree(self):
        # inf - inf makes NaN distances; each node must still merge once
        x = np.array([[0.0], [np.inf], [1.0], [np.inf], [3.0]])
        with np.errstate(invalid="ignore"):
            tree, _ = hcluster_ward(x, list("abcde"))
        children = sorted(c for _, left, right, _ in tree.merges for c in (left, right))
        assert children == list(range(2 * 5 - 2))


values = st.lists(st.one_of(
    st.none(),
    st.just(float("nan")),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 3, -7.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
), max_size=40)


class TestDiscretize:
    @SETTINGS
    @given(values, st.integers(2, 6))
    @example([], 4)
    @example([None, float("nan")], 3)
    @example([None, 3.0, float("nan"), 3.0], 2)
    @example([1.0, 1.0, 2.0, None], 3)
    def test_matches_element_loop_oracle(self, vals, n_bins):
        expected, expected_warnings = outcome(oracle_discretize, vals, n_bins)
        # the pipeline passes a float array with NaN for NA
        as_array = np.array([np.nan if v is None else v for v in vals], dtype=float)
        for given_values in (vals, as_array):
            got, got_warnings = outcome(discretize, given_values, n_bins)
            assert got_warnings == expected_warnings
            if failed(expected):
                assert got == expected
                continue
            (cats, edges), (want_cats, want_edges) = got, expected
            assert cats.dtype == want_cats.dtype
            assert np.array_equal(cats, want_cats)
            if want_edges is None:
                assert edges is None
            else:
                assert [e.hex() for e in edges.tolist()] == \
                    [e.hex() for e in want_edges.tolist()]


cells = st.one_of(
    st.just(""),
    st.integers(-200, 200).map(str),
    st.floats(-1e4, 1e4, allow_nan=False).map(lambda v: f"{v:.6f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


class TestReadFeaturesCsv:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.dates(dt.date(2020, 1, 1), dt.date(2024, 12, 31)),
                              st.lists(cells, min_size=len(FEATURE_COLUMNS) - 1,
                                       max_size=len(FEATURE_COLUMNS) - 1)),
                    min_size=1, max_size=12))
    def test_nan_exactly_where_a_cell_is_empty(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("features") / "features.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["unit_id"] + list(FEATURE_COLUMNS))
            writer.writerows([f"u{i}", day.isoformat()] + row
                             for i, (day, row) in enumerate(rows))
        units, columns = read_features_csv(str(path))
        assert units == [f"u{i}" for i in range(len(rows))]
        assert columns["peakdate"].tolist() == [float(day.toordinal()) for day, _ in rows]
        for j, name in enumerate(FEATURE_COLUMNS[1:]):
            col = columns[name]
            assert col.dtype == np.float64
            for value, (_, row) in zip(col.tolist(), rows):
                if row[j]:
                    assert value == float(row[j])
                else:
                    assert math.isnan(value)


class TestFeatureCells:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-7, np.inf, -np.inf, np.nan,
                                     -np.nan, struct.unpack("<d", struct.pack("<Q", NAN_BITS))[0]]),
                    max_size=30))
    def test_each_value_formats_as_itself(self, values):
        """Values that compare equal but differ in bits (0.0 and -0.0, NaN
        payloads) keep their own cells: the formatter sees each value's bits."""
        def cell(column, value):
            return f"{column}:{struct.pack('<d', value).hex()}"

        with mock.patch.object(pipeline, "_feature_cell", cell):
            got = pipeline._feature_cells("peak", np.array(values, dtype=float))
        assert got.tolist() == [cell("peak", v) for v in values]

"""The column-by-column artifact reader against the per-cell loop it
replaced: the same arrays, byte for byte, or the same error, and one parse
call per distinct cell."""

import csv
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicurve import pipeline
from epicurve.curve_features import FEATURE_COLUMNS
from epicurve.errors import DataError

from helpers import base_config, oracle_read_table, write_synthetic_inputs

PARSERS = {"feature": pipeline._feature_value, "category": pipeline._category_value}
#: Texts each parser reads, per column kind.
GOOD = {
    ("feature", "peakdate"): ["2022-04-01", "2020-02-29", "2022-08-19"],
    ("feature", "other"): ["", "0", "3", "-2", "1.500000", "0.000001", "1e-07", " 4"],
    ("category", "other"): ["0", "3", "-2", " 4", "+1", "1_0",
                            "9223372036854775807", "-9223372036854775808"],
}
#: Texts some parser or column rejects.
BAD = ["x", "inf", "nan", "", "1.5", "2022-13-45", "9223372036854775808",
       "-9223372036854775809", "99999999999999999999"]
NAMES = ["peakdate", "peakvalue", "left90", "unit_id"]


def arrays(units, table):
    return units, [(c, a.dtype.str, a.tobytes()) for c, a in table.items()]


def outcome(read, path, columns, parse):
    """``arrays`` of one read, or its message and the type of the error it
    was raised from."""
    try:
        return arrays(*read(str(path), columns, parse))
    except DataError as exc:
        return str(exc), type(exc.__cause__)


@st.composite
def tables(draw):
    """(kind, header, lines, columns): a header of unit_id and feature names,
    repeats among them, rows of texts the parser reads with a few bad or
    ragged ones, blank lines, and either every column or a few named."""
    kind = draw(st.sampled_from(sorted(PARSERS)))
    header = draw(st.permutations(
        ["unit_id"] + draw(st.lists(st.sampled_from(NAMES), max_size=4))))
    lines = []
    for i in range(draw(st.integers(0, 8))):
        row = [f"u{i}" if name == "unit_id" else draw(st.sampled_from(
            GOOD.get((kind, name), GOOD[kind, "other"]))) for name in header]
        for _ in range(draw(st.integers(0, 5)) // 2):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD))
        if not draw(st.integers(0, 39)):
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        lines.append(",".join(row))
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, "")
    columns = draw(st.one_of(st.none(), st.lists(st.sampled_from(NAMES[:3]),
                                                 min_size=1, max_size=3, unique=True)))
    return kind, header, lines, columns


class TestMatchesPerCellOracle:
    @settings(max_examples=400, deadline=None)
    @given(tables())
    def test_same_arrays_or_same_error(self, tmp_path_factory, table):
        kind, header, lines, columns = table
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_text("\n".join([",".join(header)] + lines) + "\n")
        args = (path, columns, PARSERS[kind])
        assert outcome(pipeline._read_table, *args) == outcome(oracle_read_table, *args)

    @pytest.mark.parametrize("columns, message", [
        (None, "row 3: unparseable peakvalue 'inf'"),
        (["left90", "peakvalue"], "row 3: unparseable left90 'x'"),
        (["peakdate", "left90"], "row 3: unparseable left90 'x'"),
        (["peakdate"], "row 4: unparseable peakdate '2022-13-45'"),
    ])
    def test_first_bad_cell_in_row_order_of_the_columns_read(self, tmp_path, columns,
                                                             message):
        path = tmp_path / "features.csv"
        path.write_text("unit_id,peakdate,peakvalue,left90\n"
                        "a,2022-04-01,1.5,2\n"
                        "b,2022-04-02,inf,x\n"
                        "c,2022-13-45,nan,3\n")
        args = (path, columns, pipeline._feature_value)
        got = outcome(pipeline._read_table, *args)
        assert got == outcome(oracle_read_table, *args) == (f"{path}: {message}", ValueError)

    def test_a_ragged_row_beats_an_earlier_bad_cell(self, tmp_path):
        path = tmp_path / "categorical.csv"
        path.write_text("unit_id,a,b\nu0,x,1\nu1,1,2\n\nu2,3\n")
        args = (path, None, pipeline._category_value)
        got = outcome(pipeline._read_table, *args)
        assert got == outcome(oracle_read_table, *args)
        assert got == (f"{path}: row 4 has 2 cells, expected 3", type(None))

    def test_a_repeated_unit_beats_an_earlier_bad_cell(self, tmp_path):
        path = tmp_path / "categorical.csv"
        path.write_text("unit_id,a\nu0,x\nu1,1\n\nu0,2\nu1,3\n")
        args = (path, None, pipeline._category_value)
        got = outcome(pipeline._read_table, *args)
        assert got == outcome(oracle_read_table, *args)
        assert got == (f"{path}: row 4: duplicate unit 'u0'", type(None))


@pytest.fixture(scope="module")
def cohort_artifacts(tmp_path_factory):
    """features.csv and categorical.csv of a 700-unit synthetic cohort, the
    size of the cohort-wide benchmark workload."""
    d = tmp_path_factory.mktemp("cohort")
    write_synthetic_inputs(d, n_units=700)
    cfg = pipeline.config_from_dict(base_config(d), base_dir=str(d))
    pipeline.stage_features(cfg)
    pipeline.stage_associate(cfg)
    return (os.path.join(cfg.output, "features.csv"),
            os.path.join(cfg.output, "categorical.csv"))


def distinct_cells(path, columns):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {(c, row[i]) for row in rows for i, c in enumerate(header) if c in columns}


@pytest.mark.parametrize("artifact, read, parse, columns", [
    (0, "read_features_csv", "_feature_value", FEATURE_COLUMNS),
    (1, "read_categorical_csv", "_category_value", None),
])
def test_each_distinct_cell_is_parsed_once(cohort_artifacts, artifact, read, parse,
                                           columns):
    path = cohort_artifacts[artifact]
    with mock.patch.object(pipeline, parse, wraps=getattr(pipeline, parse)) as calls:
        units, table = getattr(pipeline, read)(path)
    assert sorted(call.args for call in calls.call_args_list) == sorted(
        distinct_cells(path, table))
    assert len(units) == 700
    assert arrays(units, table) == outcome(oracle_read_table, path, columns,
                                           getattr(pipeline, parse))

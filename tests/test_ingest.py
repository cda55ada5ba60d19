import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicurve.errors import DataError
from epicurve.ingest import (META_COLUMNS, UnitMeta, iso_date, parse_case_series,
                             parse_unit_metadata)

from helpers import (
    RawSeries,
    case_series,
    compute_daily_rates,
    end_date,
    oracle_iso_date,
    oracle_parse_case_series,
    oracle_parse_unit_metadata,
    window_clip,
    write_case_series,
)

D0 = dt.date(2022, 3, 25)


def date_outcome(read, text):
    try:
        return read(text)
    except ValueError:
        return "refused"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.dates().map(dt.date.isoformat),
    st.dates().map(lambda d: d.strftime("%Y%m%d")),  # read by Python 3.11 only
    st.dates().map(lambda d: "{}-W{:02d}-{}".format(*d.isocalendar())),  # likewise
    st.from_regex(r"\A[0-9\u0663]{4}-[0-9]{1,2}-[0-9]{2}\Z"),  # U+0663: Arabic-Indic 3
    st.text(max_size=12)))
def test_iso_date_reads_only_yyyy_mm_dd(text):
    assert date_outcome(iso_date, text) == date_outcome(oracle_iso_date, text)
    if len(text) != 10:
        assert date_outcome(iso_date, text) == "refused"


def write_cases(path, rows):
    path.write_text("unit_id,date,count\n" + "\n".join(rows) + "\n")


def test_parse_case_series_basic(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,2022-03-25,1", "TPa,2022-03-26,2", "TPa,2022-03-27,3"])
    out = case_series(parse_case_series(p))
    assert set(out) == {"TPa"}
    assert out["TPa"].counts == (1, 2, 3)
    assert out["TPa"].start_date == D0


def test_parse_case_series_unordered_rows_ok(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,2022-03-26,2", "TPa,2022-03-25,1"])
    assert case_series(parse_case_series(p))["TPa"].counts == (1, 2)


def test_parse_case_series_gap(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,2022-03-25,1", "TPa,2022-03-27,3"])
    with pytest.raises(DataError, match="gap in day axis"):
        parse_case_series(p)


def test_parse_case_series_negative_count(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,2022-03-25,-1"])
    with pytest.raises(DataError, match="row 2.*negative count"):
        parse_case_series(p)


def test_parse_case_series_duplicate_day(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,2022-03-25,1", "TPa,2022-03-25,2"])
    with pytest.raises(DataError, match="duplicate"):
        parse_case_series(p)


def test_parse_case_series_bad_date(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,03/25/2022,1"])
    with pytest.raises(DataError, match="row 2.*unparseable date"):
        parse_case_series(p)


def test_case_series_round_trip(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,2022-03-25,1", "TPa,2022-03-26,0", "NTb,2022-04-01,7"])
    first = case_series(parse_case_series(p))
    q = tmp_path / "again.csv"
    write_case_series(q, first)
    assert case_series(parse_case_series(q)) == first


@pytest.mark.parametrize("rows, message", [
    (["TPa,2022-03-25,1", "TPa,2022-03-26"], "row 3: missing count"),
    (["TPa,2022-03-25,1", "TPa"], "row 3: missing date, count"),
    (["TPa,2022-03-25,1", "TPa,2022-03-26,x"], "row 3: unparseable count 'x'"),
    (["TPa,2022-03-25,1", "TPa,2022-03-26,"], "row 3: unparseable count ''"),
    (["TPa,2022-03-25,1", "TPa,2022-02-30,1"], "row 3: unparseable date '2022-02-30'"),
    (["TPa,2022-03-25,1", "TPa,2022-03-26,2", "TPa, 2022-03-25 ,3"],
     r"row 4: duplicate \(TPa, 2022-03-25\)"),
    (["TPa,2022-03-25,1", " TPa ,2022-03-25,3"], r"row 3: duplicate \(TPa, 2022-03-25\)"),
    (["TPa,2022-03-25,1", " ,2022-03-26,3"], "row 3: empty unit_id"),
    (["TPa,2022-03-25,1", " TPa,2022-03-26,-2"], "row 3: negative count for TPa"),
    (["TPa,2022-03-25,1", "", "TPa,2022-03-26"], "row 3: missing count"),
    (["TPa,2022-03-25,1", "NTb,2022-03-25,1", "TPa,2022-03-27,1"],
     "TPa: gap in day axis between 2022-03-25 and 2022-03-27"),
    (["TPa,2022-03-25,1", "NTb,2022-03-25,1", "NTb,2022-03-27,1", "TPa,2022-03-27,1"],
     "TPa: gap in day axis between 2022-03-25 and 2022-03-27"),
    (["TPa,2022-03-25,1", "TPa,2022-03-26,99999999999999999999"], "row 3: count too large"),
    (["TPa,2022-03-25,9223372036854775808"], "row 2: count too large"),
    (["TPa,2022-03-25,1", "TPa,2022-03-25,2", "TPa,2022-03-26,x"],
     r"row 3: duplicate \(TPa, 2022-03-25\)"),
    (["TPa,2022-03-25,1", "TPa,2022-03-26,x", "TPa,2022-03-25,2"],
     "row 3: unparseable count 'x'"),
    (["NTb,2022-03-26,1", "TPa,2022-03-26,1", "NTb,2022-03-25,1", "TPa,2022-03-26,1",
      "NTb,2022-03-26,1", "TPa,2022-03-27"], r"row 5: duplicate \(TPa, 2022-03-26\)"),
])
def test_parse_case_series_errors_name_the_row(tmp_path, rows, message):
    p = tmp_path / "c.csv"
    write_cases(p, rows)
    with pytest.raises(DataError, match=f"^{message}$"):
        parse_case_series(p)


def test_parse_case_series_strips_cells_and_skips_blank_lines(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, ["TPa,2022-03-26, 5", " TPa , 2022-03-25 ,7 ", "", "TPa,2022-03-27,+0"])
    out = case_series(parse_case_series(p))
    assert out == {"TPa": RawSeries("TPa", D0, (7, 5, 0))}


def test_parse_case_series_column_order_and_extra_columns(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("count,note,unit_id,date\n2,,TPa,2022-03-26\n1,x,TPa,2022-03-25\n")
    assert case_series(parse_case_series(p)) == {"TPa": RawSeries("TPa", D0, (1, 2))}


CELLS = {
    "unit": st.sampled_from(["TPa", " TPa", "NTb", "NTb ", "KSc", "", " "]),
    "date": st.sampled_from(["2022-03-25", "2022-03-26", " 2022-03-27", "2022-03-28",
                             "2022-03-24", "20220326", "2022-3-26", "x"]),
    "count": st.sampled_from(["0", "3", " 5", "+0", "1_0", "-1", "1.5", "", "x",
                              "9223372036854775807", "9223372036854775808",
                              "99999999999999999999"]),
}
BAD_CELLS = ["", " ", "x", "2022-3-26", "-1", "1.5", "99999999999999999999"]


@st.composite
def random_rows(draw):
    """Rows of cells drawn at random: mostly errors, on any row."""
    return [[r["unit"], r["date"], r["count"]]
            for r in draw(st.lists(st.fixed_dictionaries(CELLS), max_size=8))]


@st.composite
def shuffled_series(draw):
    """Consecutive days of up to four units, interleaved in random order,
    with spelling variants of valid cells, then perhaps a repeated row, a
    dropped row and bad cells, anywhere."""
    rows = []
    for unit in draw(st.lists(st.sampled_from(["TPa", "NTb", "KSc", "TCd"]),
                              min_size=1, max_size=4, unique=True)):
        first = draw(st.integers(0, 3))
        for day in range(first, first + draw(st.integers(1, 5))):
            count = draw(st.sampled_from(["0", "3", " 5", "+0", "1_0", "17",
                                          "9223372036854775807"]))
            rows.append([draw(st.sampled_from([unit, f" {unit}", f"{unit} "])),
                         (D0 + dt.timedelta(days=day)).isoformat(), count])
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_CELLS))
    return rows


def run_parse(parse, path):
    """``(unit, RawSeries)`` pairs in the parser's order, or its error message."""
    try:
        out = parse(path)
    except DataError as exc:
        return str(exc)
    return list((case_series(out) if parse is parse_case_series else out).items())


@settings(max_examples=500, deadline=None)
@given(st.one_of(random_rows(), shuffled_series()),
       st.sampled_from([["unit_id", "date", "count"], ["date", "count", "unit_id", "x"]]),
       st.lists(st.integers(0, 20), max_size=3))
def test_parse_case_series_matches_row_loop_oracle(tmp_path_factory, rows, header, blanks):
    p = tmp_path_factory.mktemp("parse") / "c.csv"
    cell = {"unit_id": 0, "date": 1, "count": 2, "x": 2}
    lines = [",".join(r[cell[h]] for h in header) for r in rows]
    for at in blanks:
        lines.insert(min(at, len(lines)), "")
    p.write_text("\n".join([",".join(header)] + lines) + "\n")
    assert run_parse(parse_case_series, p) == run_parse(oracle_parse_case_series, p)


def test_parse_case_series_result_arrays(tmp_path):
    """Units in order of first appearance, the counts holding each unit's
    days one after another, and ``values()`` giving each unit's days."""
    p = tmp_path / "c.csv"
    write_cases(p, ["NTb,2022-03-27,4", "TPa,2022-03-26,2", "NTb,2022-03-26,3",
                    "TPa,2022-03-25,1", "TPa,2022-03-27,0"])
    units, starts, lengths, counts = out = parse_case_series(p)
    assert units == ["NTb", "TPa"]
    assert starts.tolist() == [D0.toordinal() + 1, D0.toordinal()]
    assert lengths.tolist() == [2, 3]
    assert counts.dtype == np.int64 and counts.tolist() == [3, 4, 1, 2, 0]
    assert [s.counts.tolist() for s in out.values()] == [[3, 4], [1, 2, 0]]


def test_parse_case_series_of_a_header_alone(tmp_path):
    p = tmp_path / "c.csv"
    write_cases(p, [])
    units, starts, lengths, counts = out = parse_case_series(p)
    assert units == [] and starts.size == lengths.size == 0 and counts.shape == (0,)
    assert list(out.values()) == []


def test_parse_case_series_keeps_rows_not_a_longest_span_matrix(tmp_path):
    """200 units of 154 days and one of 3650 days keep their 34,450 counts,
    not 201 rows as wide as the longest unit's data."""
    p = tmp_path / "c.csv"
    days = [D0 + dt.timedelta(days=i) for i in range(3650)]
    write_cases(p, [f"U{u:03d},{day},{u}" for u in range(200) for day in days[:154]]
                + [f"long,{day},7" for day in days])
    out = parse_case_series(p)
    assert out.counts.size == 200 * 154 + 3650 == 34_450
    assert out.lengths.tolist() == [154] * 200 + [3650]
    assert [set(s.counts.tolist()) for s in out.values()] == [{u} for u in range(200)] + [{7}]


META_HEADER = "unit_id,city_code,district_letter,age_group,population,region,status"


def test_parse_metadata_no_age_group(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(META_HEADER + "\nTPa,TP,a,,2600000,North,Urban\n")
    meta = parse_unit_metadata(p)
    assert meta["TPa"].age_group is None
    assert meta["TPa"].population == 2600000
    assert meta["TPa"].region == "North"


def test_parse_metadata_duplicate_unit(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(META_HEADER + "\nTPa,TP,a,,100,North,Urban\nTPa,TP,a,,100,North,Urban\n")
    with pytest.raises(DataError, match="duplicate unit"):
        parse_unit_metadata(p)


def test_parse_metadata_zero_population(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(META_HEADER + "\nTPa,TP,a,,0,North,Urban\n")
    with pytest.raises(DataError, match="population"):
        parse_unit_metadata(p)


@pytest.mark.parametrize("population", [2**63, 99999999999999999999])
def test_parse_metadata_population_too_large(tmp_path, population):
    p = tmp_path / "m.csv"
    p.write_text(META_HEADER + f"\nNTb,NT,b,,{2**63 - 1},North,Urban"
                 f"\nTPa,TP,a,,{population},North,Urban\n")
    with pytest.raises(DataError, match="^row 3: TPa: population too large$"):
        parse_unit_metadata(p)


@pytest.mark.parametrize("row, missing", [
    ("TPa,TP,a,,100", "region, status"),
    ("TPa", "city_code, district_letter, age_group, population, region, status"),
])
def test_parse_metadata_short_row(tmp_path, row, missing):
    p = tmp_path / "m.csv"
    p.write_text(META_HEADER + "\nNTb,NT,b,,100,North,Urban\n" + row + "\n")
    with pytest.raises(DataError, match=f"^row 3: missing {missing}$"):
        parse_unit_metadata(p)


def test_parse_metadata_bad_region(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(META_HEADER + "\nTPa,TP,a,2,100,West,Urban\n")
    with pytest.raises(DataError, match="region"):
        parse_unit_metadata(p)


#: Per metadata column, texts every check accepts and texts some check rejects.
META_CELLS = {
    "city_code": (["TP", " NT"], []),
    "district_letter": (["a", "b "], []),
    "age_group": (["", " ", "1", " 4"], ["0", "5", "x", "1.0"]),
    "population": (["100", " 2600000", "9223372036854775807"],
                   ["0", "-5", "", "x", "1.5", "9223372036854775808", "99999999999999999999"]),
    "region": (["North", " South"], ["West", ""]),
    "status": (["Urban", "Suburban "], ["Rural"]),
    "note": (["", "x"], []),
}


@st.composite
def metadata_lines(draw):
    """A metadata header in any order, perhaps with an extra, repeated or
    missing column, and rows of valid cells, some with one or two faults:
    bad cells, a repeated unit, a cut or an extra cell; and blank lines."""
    header = list(META_COLUMNS) + draw(st.lists(st.sampled_from(
        ["note", "unit_id", "population", "region"]), max_size=2))
    if draw(st.integers(0, 19)) == 7:  # 0 would be drawn far more often
        header.remove(draw(st.sampled_from(META_COLUMNS)))
    header = draw(st.permutations(header))
    lines = []
    for i in range(draw(st.integers(0, 6))):
        row = [draw(st.sampled_from([f"u{i}", f" u{i}"])) if name == "unit_id"
               else draw(st.sampled_from(META_CELLS[name][0])) for name in header]
        faults = draw(st.lists(st.sampled_from(["age_group", "population", "region",
                                                "status", "unit", "cut", "extra"]),
                               max_size=2, unique=True))
        for j, name in enumerate(header):
            if name in faults and draw(st.booleans()):
                row[j] = draw(st.sampled_from(META_CELLS[name][1]))
        if "unit" in faults and "unit_id" in header:
            row[header.index("unit_id")] = f"u{draw(st.integers(0, i))} "
        if "cut" in faults:
            row = row[:draw(st.integers(1, len(row)))]
        if "extra" in faults:
            row += ["extra"]
        lines.append(",".join(row))
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, "")
    return [",".join(header)] + lines


@settings(max_examples=400, deadline=None)
@given(metadata_lines())
def test_parse_unit_metadata_matches_dict_reader_oracle(tmp_path_factory, lines):
    p = tmp_path_factory.mktemp("meta") / "m.csv"
    p.write_text("\n".join(lines) + "\n")
    assert run_parse(parse_unit_metadata, p) == run_parse(oracle_parse_unit_metadata, p)


def meta(pop=100000, unit="TPa"):
    return UnitMeta(unit_id=unit, city_code="TP", district_letter="a",
                    population=pop, region="North", status="Urban")


def test_compute_daily_rates_scale_identity():
    s = RawSeries("TPa", D0, (100,))
    assert compute_daily_rates(s, meta(100000)).rates == (100.0,)


def test_compute_daily_rates_zero():
    s = RawSeries("TPa", D0, (0, 0))
    assert compute_daily_rates(s, meta(7777)).rates == (0.0, 0.0)


def test_compute_daily_rates_hand_value():
    s = RawSeries("TPa", D0, (50,))
    assert compute_daily_rates(s, meta(200000)).rates == (25.0,)


def test_compute_daily_rates_unit_mismatch():
    s = RawSeries("NTb", D0, (1,))
    with pytest.raises(DataError, match="mismatch"):
        compute_daily_rates(s, meta())


def test_compute_daily_rates_linear_in_counts():
    s1 = RawSeries("TPa", D0, (3, 5, 8))
    s2 = RawSeries("TPa", D0, (6, 10, 16))
    r1 = compute_daily_rates(s1, meta())
    r2 = compute_daily_rates(s2, meta())
    assert all(b == 2 * a for a, b in zip(r1.rates, r2.rates))


def test_window_clip_single_day():
    r = compute_daily_rates(RawSeries("TPa", D0, (1, 2, 3)), meta())
    clipped = window_clip(r, D0, D0)
    assert len(clipped.rates) == 1
    assert clipped.rates[0] == r.rates[0]


def test_window_clip_full_range_identity():
    r = compute_daily_rates(RawSeries("TPa", D0, (1, 2, 3)), meta())
    assert window_clip(r, r.start_date, end_date(r)) == r


def test_window_clip_outside_data():
    r = compute_daily_rates(RawSeries("TPa", D0, (1, 2, 3)), meta())
    with pytest.raises(DataError, match="outside data"):
        window_clip(r, D0, D0 + dt.timedelta(days=10))


def test_window_clip_idempotent():
    r = compute_daily_rates(RawSeries("TPa", D0, tuple(range(10))), meta())
    a, b = D0 + dt.timedelta(days=2), D0 + dt.timedelta(days=7)
    once = window_clip(r, a, b)
    assert window_clip(once, a, b) == once

"""The array scan and the select stage against the per-set oracles.

``major_factor.scan`` computes each level as arrays and ``stage_select``
judges and formats it a column at a time; ``oracle_scan`` and
``oracle_scan_rows`` build one FeatureSetResult per feature set. Responses
are constant in some draws (H(Y) = 0) and candidates repeat columns, so
conditional entropies tie and the ranking must break ties on names.
``major_factor.pair_classes`` classes a level's pairs as arrays, against
the if-chain of ``oracle_classify_pair`` one pair at a time, and
``major_factor.factor_report`` renders both report formats in one pass,
against ``oracle_factor_report`` rendering each on its own.
"""

import csv
import io
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epicurve import major_factor, pipeline
from epicurve.major_factor import EPS, FeatureSetResult, Level, NullDropStats

from helpers import (
    oracle_classify_pair,
    oracle_factor_report,
    oracle_noise_threshold,
    oracle_scan,
    oracle_scan_rows,
)

REPLICATES = 5


@st.composite
def scan_inputs(draw):
    """(response, {candidate: codes}, order): 1-7 candidates drawn from at most
    four distinct columns, under names whose sorted order is not their draw order."""
    n = draw(st.integers(1, 30))

    def column(max_label):
        return np.array(draw(st.lists(st.integers(0, max_label), min_size=n, max_size=n)))

    y = np.full(n, draw(st.integers(0, 2))) if draw(st.booleans()) else column(2)
    distinct = [column(3) for _ in range(draw(st.integers(1, 4)))]
    names = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=7,
                          unique=True))
    candidates = {name: distinct[draw(st.integers(0, len(distinct) - 1))] for name in names}
    return y, candidates, draw(st.integers(1, 3))


def results(levels):
    """Each level's rows in ranked order: names and the bits of every value."""
    return [[(r.feature_names, *(float(v).hex() for v in (r.ce, r.rescaled_ce, r.ce_drop,
                                                            r.sce_drop)))
             for r in level] for level in levels]


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
def test_scan_matches_per_set_oracle(inputs):
    y, candidates, order = inputs
    assert results(major_factor.scan(y, candidates, order)) == \
        results(oracle_scan(y, candidates, order))


@settings(max_examples=150, deadline=None)
@given(scan_inputs(), st.integers(0, 3))
def test_select_writes_the_oracle_bytes(inputs, seed):
    """The scan CSV and the reports stage_select writes, against the oracle
    rows and oracle_factor_report of the oracle levels."""
    y, candidates, order = inputs
    names = sorted(candidates)
    nulls = {c: oracle_noise_threshold(y, [], candidates[c], REPLICATES, seed + i)
             for i, c in enumerate(names)}
    levels = oracle_scan(y, candidates, order)
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(pipeline.SCAN_COLUMNS)
    writer.writerows(oracle_scan_rows(levels, nulls))
    want = {"scan_resp.csv": text.getvalue()}
    if order > 1 and len(names) > 1:
        want.update({f"report_resp.{ext}": oracle_factor_report(
            levels[0], levels[1], 2, 1, markdown=ext == "md") for ext in ("txt", "md")})

    with tempfile.TemporaryDirectory() as out:
        cfg = pipeline.PipelineConfig(
            cases="unused", metadata="unused", output=out,
            responses=(pipeline.ResponseSpec("resp", tuple(candidates), order=order,
                                             replicates=REPLICATES, seed=seed, top=2,
                                             bottom=1),))
        units = [f"u{i:02d}" for i in range(len(y))]
        pipeline._write_table(cfg, "categorical.csv", units, {"resp": y, **candidates})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the report clamp warning
            pipeline.stage_select(cfg)
        got = {}
        for name in ("scan_resp.csv", "report_resp.txt", "report_resp.md"):
            try:
                with open(f"{out}/{name}", encoding="utf-8", newline="") as fh:
                    got[name] = fh.read()
            except FileNotFoundError:
                pass
    assert got == want


@st.composite
def pair_rows(draw):
    """classify_pair arguments: a pair, its two singles and their nulls, each
    value on a small grid or exactly where a rule's comparison turns: a
    single's drop at its q95 + EPS, the members' drops tied, the pair's
    SCE-drop at the weaker drop or the larger q95 + EPS, a member's CE at the
    other's q95 + EPS (so with a pair CE of 0 the weaker member adds exactly
    that), the pair's CE-drop at the sum of the drops + EPS."""
    def value(*edges):
        return draw(st.sampled_from((0.0, 0.25, 0.5, 1.0) + edges))

    q95_i, q95_j = value(), value()
    drop_i = value(q95_i + EPS)
    drop_j = value(q95_j + EPS, drop_i)
    single_i = FeatureSetResult(("a",), value(q95_j + EPS), 0.0, drop_i, drop_i)
    single_j = FeatureSetResult(("b",), value(q95_i + EPS), 0.0, drop_j, drop_j)
    pair = FeatureSetResult(("a", "b"), value(), 0.0, value(drop_i + drop_j + EPS),
                            value(min(drop_i, drop_j) + EPS, max(q95_i, q95_j) + EPS))
    return pair, single_i, single_j, NullDropStats(0.0, q95_i), NullDropStats(0.0, q95_j)


@settings(max_examples=500, deadline=None)
@given(st.lists(pair_rows(), min_size=1, max_size=20))
def test_pair_classes_match_the_if_chain_oracle(rows):
    """pair_classes over a level of pairs, and classify_pair on each pair,
    against oracle_classify_pair element by element."""
    pairs, singles_i, singles_j, nulls_i, nulls_j = zip(*rows)

    def members(field, i, j):
        """The (m, 2) array of a field of each pair's two members."""
        return np.array([[getattr(a, field), getattr(b, field)] for a, b in zip(i, j)])

    level = Level(("a", "b"), np.zeros((len(rows), 2), dtype=int), *(
        np.array([getattr(p, f) for p in pairs])
        for f in ("ce", "rescaled_ce", "ce_drop", "sce_drop")))
    got = major_factor.pair_classes(level, members("ce", singles_i, singles_j),
                                    members("sce_drop", singles_i, singles_j),
                                    members("q95", nulls_i, nulls_j))
    want = [oracle_classify_pair(*row) for row in rows]
    assert got.tolist() == [major_factor.classify_pair(*row) for row in rows] == want


@st.composite
def report_levels(draw, k):
    """A Level of 1-12 rows of k-feature sets over 1-6 names of 1-8 characters,
    its values drawn wide enough that the table columns change width."""
    m = draw(st.integers(1, 12))
    names = tuple(sorted(draw(st.lists(st.text("abxy_", min_size=1, max_size=8),
                                       min_size=1, max_size=6, unique=True))))
    sets = np.array(draw(st.lists(st.lists(st.integers(0, len(names) - 1), min_size=k,
                                           max_size=k), min_size=m, max_size=m)))
    return Level(names, sets.reshape(m, k), *(
        np.array(draw(st.lists(st.floats(-1e4, 1e4), min_size=m, max_size=m)))
        for _ in range(4)))


@settings(max_examples=300, deadline=None)
@given(report_levels(1), report_levels(2), st.integers(0, 15), st.integers(0, 15))
def test_factor_report_matches_the_per_format_oracle(scan1, scan2, top, bottom):
    """factor_report's (text, markdown) pair, from Levels and from lists of
    FeatureSetResults, against oracle_factor_report rendering each format on
    its own: counts of 0, a head and tail that overlap, and counts past the rows."""
    want = tuple(oracle_factor_report(list(scan1), list(scan2), top, bottom, markdown=md)
                 for md in (False, True))
    assert major_factor.factor_report(scan1, scan2, top, bottom) == want
    assert major_factor.factor_report(list(scan1), list(scan2), top, bottom) == want

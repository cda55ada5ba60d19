"""The array scan and the select stage against the per-set oracles.

``major_factor.scan`` computes each level as arrays and ``stage_select``
judges and formats it a column at a time; ``oracle_scan`` and
``oracle_scan_rows`` build one FeatureSetResult per feature set. Responses
are constant in some draws (H(Y) = 0) and candidates repeat columns, so
conditional entropies tie and the ranking must break ties on names.
"""

import csv
import io
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epicurve import major_factor, pipeline

from helpers import oracle_noise_threshold, oracle_scan, oracle_scan_rows

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
    rows and factor_report of the oracle levels."""
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
        want.update({f"report_resp.{ext}": major_factor.factor_report(
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

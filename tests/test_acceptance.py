"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import datetime as dt
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from epicurve import cluster_fuse, curve_features as cf, major_factor as mf
from epicurve.cli import main as cli_main
from epicurve.infotheory import (
    COLS_GIVEN_ROWS,
    ROWS_GIVEN_COLS,
    ContingencyTable,
    conditional_entropy,
    entropy,
    odds_ratio,
    rescaled_ce,
)
from epicurve.ingest import RateSeries

from helpers import geography_series, naive_ward_reference, random_merge_tree


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, text, timer, limit):
    assert timer.elapsed < limit, f"criterion {num} took {timer.elapsed:.2f}s"
    print(f"PASS criterion {num}: {text} ({timer.elapsed:.2f}s)")


def test_criterion_1_odds_ratio():
    with Timer() as t:
        table = ContingencyTable(
            (1, 0), (0, 1), np.array([[3.142, 1.573], [14.741, 3.735]])
        )
        o1, o2, ratio = odds_ratio(table)
        assert o1 == pytest.approx(0.5008, abs=0.01)
        assert o2 == pytest.approx(0.2534, abs=0.01)
        assert ratio == pytest.approx(1.9765, abs=0.01)
    report(1, "odds-ratio reproduction", t, 1.0)


def test_criterion_2_smoothing_equivalence():
    with Timer() as t:
        rng = np.random.default_rng(2024)
        ma7 = np.ones(7) / 7.0
        for _ in range(100):
            x = rng.random(60) * 50
            series = RateSeries("u", dt.date(2022, 3, 25), tuple(x))
            ours = np.asarray(cf.smooth(series).values)
            oracle = np.convolve(np.convolve(x, ma7, "valid"), ma7, "valid")
            assert np.allclose(ours, oracle, atol=1e-12)
    report(2, "13-day smoother equals double 7-day moving average", t, 1.0)


def test_criterion_3_crossing_oracle():
    with Timer() as t:
        vals = [float(u) if u <= 100 else 100 - 0.5 * (u - 100) for u in range(301)]
        s = cf.SmoothedSeries("u", dt.date(2022, 3, 25), tuple(vals))
        t_max, peak = cf.find_peak(s)
        assert t_max == 100
        assert cf.left_crossing(s, 0.1) == 90
        assert cf.right_crossing(s, 0.1) == 121
        feats = cf.extract_features(s)
        assert feats.robust_peak == 105
        assert feats.curvature == 31
        assert feats.left[0.5] == 55
        assert feats.right[0.5] == 96
    report(3, "crossing times on the piecewise-linear test curve", t, 1.0)


def test_criterion_4_entropy_identities():
    with Timer() as t:
        rng = np.random.default_rng(4)
        for _ in range(1000):
            r = int(rng.integers(2, 6))
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 10, size=(r, c))
            if counts.sum() == 0:
                counts[0, 0] = 1
            table = ContingencyTable(tuple(range(r)), tuple(range(c)), counts)
            joint = entropy(counts.ravel())
            h_row, h_col = entropy(table.row_sums), entropy(table.col_sums)
            h_cr = conditional_entropy(table, COLS_GIVEN_ROWS)
            h_rc = conditional_entropy(table, ROWS_GIVEN_COLS)
            assert joint == pytest.approx(h_row + h_cr, abs=1e-12)
            assert joint == pytest.approx(h_col + h_rc, abs=1e-12)
            assert h_row - h_rc == pytest.approx(h_col - h_cr, abs=1e-12)
            if h_col > 0:
                assert -1e-12 <= rescaled_ce(table, COLS_GIVEN_ROWS) <= 1 + 1e-12
            if h_row > 0:
                assert -1e-12 <= rescaled_ce(table, ROWS_GIVEN_COLS) <= 1 + 1e-12
    report(4, "chain rule + MI symmetry on 1000 random tables", t, 5.0)


def test_criterion_5_interaction_detection():
    with Timer() as t:
        x1 = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        x2 = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        y = x1 ^ x2
        cands = {"x1": x1, "x2": x2}
        singles = {r.feature_names[0]: r for r in mf.scan_order1(y, cands)}
        for r in singles.values():
            assert r.ce_drop == pytest.approx(0.0, abs=1e-12)
        (pair,) = mf.scan_order2(y, cands)
        assert pair.ce == 0.0
        assert pair.sce_drop == pytest.approx(1.0, abs=1e-12)
        n1 = mf.noise_threshold(y, [], x1, replicates=200, seed=50)
        n2 = mf.noise_threshold(y, [], x2, replicates=200, seed=51)
        assert mf.classify_pair(pair, singles["x1"], singles["x2"], n1, n2) \
            == mf.ORDER2_INTERACTION

        a, b, y2 = [], [], []
        for i in (0, 1):
            for j in (0, 1):
                for _ in range(4):
                    a.append(i)
                    b.append(j)
                    y2.append(2 * i + j)
        a, b, y2 = map(np.array, (a, b, y2))
        cands = {"a": a, "b": b}
        singles = {r.feature_names[0]: r for r in mf.scan_order1(y2, cands)}
        (pair,) = mf.scan_order2(y2, cands)
        na = mf.noise_threshold(y2, [], a, replicates=200, seed=52)
        nb = mf.noise_threshold(y2, [], b, replicates=200, seed=53)
        assert mf.classify_pair(pair, singles["a"], singles["b"], na, nb) \
            == mf.ORDER1_PAIR
    report(5, "XOR -> order2-interaction, additive -> order1-pair", t, 1.0)


def test_criterion_6_noise_calibration():
    with Timer() as t:
        exceed = 0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            y = rng.integers(1, 5, size=84)
            x = rng.integers(1, 5, size=84)
            observed = mf._marginal_entropy(y) - mf.joint_conditional_entropy(y, [x])
            null = mf.noise_threshold(y, [], x, replicates=200, seed=1000 + trial)
            if observed > null.q95:
                exceed += 1
        assert exceed <= 10, f"{exceed} exceedances out of 100"
    report(6, f"permutation null calibration ({exceed}/100 exceedances)", t, 30.0)


def test_criterion_7_ward_oracle():
    with Timer() as t:
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 6))
            x = rng.standard_normal((n, d))
            tree, _ = cluster_fuse.hcluster_ward(x, [f"p{i}" for i in range(n)])
            reference = naive_ward_reference(x)
            for ours, ref in zip(tree.merges, reference):
                assert ours[:3] == ref[:3]
                assert ours[3] == pytest.approx(ref[3], abs=1e-9)
    report(7, "Ward.D2 equals naive centroid-formula reference", t, 10.0)


def test_criterion_8_coding_scheme_oracle():
    with Timer() as t:
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            tree = random_merge_tree(n, rng)
            codes = cluster_fuse.leaf_codes(tree)
            parent = {}
            for node, left, right, _h in tree.merges:
                parent[left] = node
                parent[right] = node

            def chain(leaf):
                out = [leaf]
                while out[-1] in parent:
                    out.append(parent[out[-1]])
                return out

            depth = {}
            for leaf in range(n):
                for dd, a in enumerate(reversed(chain(leaf))):
                    depth[a] = dd
            for u in range(n):
                anc = set(chain(u))
                for v in range(u + 1, n):
                    w = v
                    while w not in anc:
                        w = parent[w]
                    assert codes.similarity[u, v] == depth[w]
    report(8, "common-prefix lengths equal LCA depths", t, 5.0)


def test_criterion_9_synthetic_geography():
    with Timer() as t:
        series, regions = geography_series()
        feats = [cf.extract_features(cf.smooth(s)) for s in series]
        units = [f.unit_id for f in feats]
        y = np.array([1 if regions[u] == "North" else 2 for u in units])

        left_cols = ["left30", "left40", "left50", "left60", "left70"]
        matrix = np.column_stack([
            [np.nan if f.left[int(c[4:]) / 100] is None else f.left[int(c[4:]) / 100]
             for f in feats]
            for c in left_cols
        ])
        fused = cluster_fuse.kmeans_fuse(
            matrix, left_cols, "left30to70", k=4, seed=9, restarts=100
        )
        (res,) = mf.scan_order1(y, {"left30to70": fused.labels})
        assert res.rescaled_ce < 0.5, f"rescaled CE {res.rescaled_ce:.4f}"
        null = mf.noise_threshold(y, [], fused.labels, replicates=200, seed=99)
        assert res.ce_drop > null.q95, "fused feature not significant"

        all_left = np.column_stack([
            [np.nan if f.left[a] is None else f.left[a] for f in feats]
            for a in cf.FEATURE_ALPHAS
        ])
        tree, excluded = cluster_fuse.hcluster_ward(all_left, units)
        assert not excluded
        side_a, side_b = cluster_fuse.root_partition(tree)
        north = {i for i, u in enumerate(units) if regions[u] == "North"}
        mis = min(
            len(side_a ^ north),
            len(side_b ^ north),
        )
        assert mis <= 8, f"{mis} misplaced units at the root split"
    report(
        9,
        f"geography recovered (CE {res.rescaled_ce:.3f}, {mis} misplacements)",
        t, 60.0,
    )


def test_criterion_10_cli_determinism(synthetic_dir, tmp_path):
    with Timer() as t:
        runner = CliRunner()
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            res = runner.invoke(cli_main, [
                "all", "--config", str(synthetic_dir / "config.yaml"),
                "--out", str(out),
            ])
            assert res.exit_code == 0, res.output
            digests.append((out / "manifest.txt").read_text())
        assert digests[0] == digests[1]
        assert digests[0].strip()
    report(10, "byte-identical manifests across two `epicurve all` runs", t, 60.0)

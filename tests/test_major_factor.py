import warnings

import numpy as np
import pytest

from epicurve.errors import ComputationError
from epicurve.major_factor import (
    INSIGNIFICANT,
    ORDER1_PAIR,
    ORDER2_INTERACTION,
    REDUNDANT,
    classify_pair,
    factor_report,
    joint_conditional_entropy,
    noise_threshold,
    scan_order1,
    scan_order2,
)

# 8-row balanced XOR design: each (x1, x2) combination appears twice
X1 = np.array([0, 0, 1, 1, 0, 0, 1, 1])
X2 = np.array([0, 1, 0, 1, 0, 1, 0, 1])
Y_XOR = X1 ^ X2


def additive_design(reps=4):
    """Y's categories are the product of two independent informative features."""
    a, b, y = [], [], []
    for i in (0, 1):
        for j in (0, 1):
            for _ in range(reps):
                a.append(i)
                b.append(j)
                y.append(2 * i + j)
    return np.array(a), np.array(b), np.array(y)


class TestJointConditionalEntropy:
    def test_identical_feature(self):
        assert joint_conditional_entropy(Y_XOR, [Y_XOR]) == 0.0

    def test_independent_feature(self):
        y = np.array([0, 0, 1, 1] * 4)
        x = np.array([0, 1, 0, 1] * 4)
        assert joint_conditional_entropy(y, [x]) == pytest.approx(1.0, abs=1e-12)

    def test_xor_single_vs_pair(self):
        assert joint_conditional_entropy(Y_XOR, [X1]) == pytest.approx(1.0)
        assert joint_conditional_entropy(Y_XOR, [X1, X2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ComputationError, match="length mismatch"):
            joint_conditional_entropy([0, 1], [[0, 1, 2]])

    def test_empty_set(self):
        with pytest.raises(ComputationError):
            joint_conditional_entropy([0, 1], [])


class TestScanOrder1:
    def test_copy_ranks_first(self):
        rng = np.random.default_rng(0)
        noise = rng.integers(0, 4, size=8)
        results = scan_order1(Y_XOR, {"copy": Y_XOR.copy(), "noise": noise})
        assert results[0].feature_names == ("copy",)
        assert results[0].ce == 0.0

    def test_xor_parents_no_drop(self):
        results = scan_order1(Y_XOR, {"x1": X1, "x2": X2})
        for r in results:
            assert r.ce_drop == pytest.approx(0.0, abs=1e-12)
            assert r.sce_drop == r.ce_drop

    def test_order_independent_and_name_tiebreak(self):
        cand_a = {"a": X1, "b": X2}
        cand_b = {"b": X2, "a": X1}
        ra = scan_order1(Y_XOR, cand_a)
        rb = scan_order1(Y_XOR, cand_b)
        assert [r.feature_names for r in ra] == [r.feature_names for r in rb]
        assert ra[0].feature_names == ("a",)


class TestScanOrder2:
    def test_xor_pair(self):
        results = scan_order2(Y_XOR, {"x1": X1, "x2": X2})
        (r,) = results
        assert r.ce == 0.0
        assert r.sce_drop == pytest.approx(1.0, abs=1e-12)

    def test_copy_plus_noise_adds_nothing(self):
        rng = np.random.default_rng(1)
        noise = rng.integers(0, 4, size=8)
        (r,) = scan_order2(Y_XOR, {"copy": Y_XOR.copy(), "noise": noise})
        assert r.sce_drop == pytest.approx(0.0, abs=1e-12)

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 4, size=40)
        cands = {f"f{i}": rng.integers(0, 4, size=40) for i in range(5)}
        singles = {r.feature_names[0]: r.ce for r in scan_order1(y, cands)}
        for r in scan_order2(y, cands):
            a, b = r.feature_names
            assert r.ce <= min(singles[a], singles[b]) + 1e-12


class TestNoiseThreshold:
    def test_same_seed_identical(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 4, size=30)
        x = rng.integers(0, 4, size=30)
        a = noise_threshold(y, [], x, replicates=50, seed=9)
        b = noise_threshold(y, [], x, replicates=50, seed=9)
        assert a == b

    def test_constant_candidate_zero(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 4, size=30)
        x = np.zeros(30, dtype=int)
        stats = noise_threshold(y, [], x, replicates=50, seed=1)
        assert stats.mean == 0.0
        assert stats.q95 == 0.0

    def test_informative_candidate_beats_null(self):
        # Y = f(X) plus occasional categorical noise
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, size=120)
        y = x.copy()
        flip = rng.random(120) < 0.1
        y[flip] = rng.integers(0, 4, size=int(flip.sum()))
        from epicurve.major_factor import _marginal_entropy

        observed = _marginal_entropy(y) - joint_conditional_entropy(y, [x])
        stats = noise_threshold(y, [], x, replicates=200, seed=2)
        assert observed > stats.q95


class TestClassifyPair:
    def run_case(self, y, name_i, col_i, name_j, col_j, seed=0):
        cands = {name_i: col_i, name_j: col_j}
        singles = {r.feature_names[0]: r for r in scan_order1(y, cands)}
        (pair,) = scan_order2(y, cands)
        null_i = noise_threshold(y, [], col_i, replicates=200, seed=seed)
        null_j = noise_threshold(y, [], col_j, replicates=200, seed=seed + 1)
        return classify_pair(pair, singles[name_i], singles[name_j], null_i, null_j)

    def test_xor_is_interaction(self):
        assert (
            self.run_case(Y_XOR, "x1", X1, "x2", X2) == ORDER2_INTERACTION
        )

    def test_additive_is_order1_pair(self):
        a, b, y = additive_design()
        assert self.run_case(y, "a", a, "b", b) == ORDER1_PAIR

    def test_copy_plus_noise_is_redundant(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 4, size=40)
        noise = rng.integers(0, 4, size=40)
        assert self.run_case(y, "copy", y.copy(), "noise", noise) == REDUNDANT

    def test_two_noise_columns_insignificant(self):
        rng = np.random.default_rng(13)
        y = rng.integers(0, 2, size=200)
        n1 = rng.integers(0, 2, size=200)
        n2 = rng.integers(0, 2, size=200)
        assert self.run_case(y, "n1", n1, "n2", n2, seed=40) in (
            INSIGNIFICANT,
            REDUNDANT,
        )


class TestRelabelingInvariance:
    def test_bijective_renaming(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 4, size=60)
        x = rng.integers(0, 4, size=60)
        relabel = np.array([2, 3, 0, 1])
        r1 = scan_order1(y, {"x": x})[0]
        r2 = scan_order1(y, {"x": relabel[x]})[0]
        assert r1.ce == pytest.approx(r2.ce, abs=1e-12)
        assert r1.ce_drop == pytest.approx(r2.ce_drop, abs=1e-12)


class TestFactorReport:
    @pytest.fixture
    def scans(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 4, size=60)
        cands = {f"f{i}": rng.integers(0, 4, size=60) for i in range(4)}
        return scan_order1(y, cands), scan_order2(y, cands)

    def test_header_layout(self, scans):
        text = factor_report(*scans, top_k=3, bottom_k=1)
        header = text.splitlines()[0]
        assert header.split() == [
            "1-feature", "CE", "SCE-drop", "2-feature", "CE", "SCE-drop",
        ]

    def test_top_plus_bottom_rows(self, scans):
        scan1, scan2 = scans
        text = factor_report(scan2, scan2, top_k=5, bottom_k=1)
        body = text.splitlines()[2:]
        assert len(body) == 6

    def test_deterministic_rerender(self, scans):
        assert factor_report(*scans) == factor_report(*scans)

    def test_clamp_is_silent(self, scans):
        # counts past the scans' rows are clamped without a warning: the
        # stage that writes the reports warns once per response
        scan1, scan2 = scans
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = factor_report(scan1, scan2, top_k=50, bottom_k=50)
        assert len(text.splitlines()[2:]) == max(len(scan1), len(scan2))

    def test_markdown_variant(self, scans):
        text = factor_report(*scans, markdown=True)
        assert text.startswith("| 1-feature")
        assert "|" in text.splitlines()[1]

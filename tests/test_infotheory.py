import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicurve.errors import ComputationError
from epicurve.infotheory import (
    COLS_GIVEN_ROWS,
    ROWS_GIVEN_COLS,
    ContingencyTable,
    DegenerateColumnWarning,
    association_matrices,
    conditional_entropy,
    discretize,
    entropy,
    odds_ratio,
    rescaled_ce,
    threshold_network,
)

from helpers import contingency, mutual_ce, oracle_network_dot


def table(counts):
    counts = np.asarray(counts)
    return ContingencyTable(
        tuple(range(counts.shape[0])), tuple(range(counts.shape[1])), counts
    )


def random_table(rng, max_dim=5):
    r = int(rng.integers(2, max_dim + 1))
    c = int(rng.integers(2, max_dim + 1))
    counts = rng.integers(0, 10, size=(r, c))
    if counts.sum() == 0:
        counts[0, 0] = 1
    return table(counts)


class TestDiscretize:
    def test_quartile_example(self):
        cats, edges = discretize([1, 2, 3, 4, 5, 6, 7, 8])
        assert list(cats) == [1, 1, 2, 2, 3, 3, 4, 4]
        assert edges is not None and len(edges) == 3

    def test_degenerate_column(self):
        with pytest.warns(DegenerateColumnWarning):
            cats, edges = discretize([5, 5, 5, 5])
        assert set(cats) == {1}
        assert edges is None

    def test_na_maps_to_zero(self):
        cats, _ = discretize([1, None, 3], n_bins=2)
        assert list(cats) == [1, 0, 2]

    def test_nan_treated_as_na(self):
        cats, _ = discretize([1.0, float("nan"), 3.0], n_bins=2)
        assert list(cats) == [1, 0, 2]

    def test_empty_column(self):
        with pytest.raises(ComputationError, match="empty"):
            discretize([])

    def test_edges_reproduce_categories(self):
        rng = np.random.default_rng(0)
        vals = rng.random(40) * 10
        cats, edges = discretize(vals)
        redo = 1 + np.sum(vals[:, None] >= edges[None, :], axis=1)
        assert np.array_equal(cats, redo)


class TestContingency:
    def test_direct_count(self):
        t = contingency([1, 1, 2], [1, 2, 2])
        assert np.array_equal(t.counts, [[1, 1], [0, 1]])

    def test_na_becomes_row_label(self):
        t = contingency([0, 1, 1], [1, 1, 2])
        assert t.row_labels == (0, 1)

    def test_identical_columns_diagonal(self):
        t = contingency([1, 2, 3], [1, 2, 3])
        assert np.array_equal(t.counts, np.eye(3, dtype=int))

    def test_length_mismatch(self):
        with pytest.raises(ComputationError, match="length mismatch"):
            contingency([1, 2], [1])


class TestEntropy:
    def test_uniform_over_four(self):
        assert entropy([1, 1, 1, 1]) == pytest.approx(2.0, abs=1e-15)

    def test_deterministic(self):
        assert entropy([8, 0, 0, 0]) == 0.0

    def test_hand_value(self):
        assert entropy([3, 1]) == pytest.approx(0.8113, abs=1e-4)

    def test_all_zero(self):
        with pytest.raises(ComputationError):
            entropy([0, 0])


class TestConditionalEntropy:
    def test_perfect_function(self):
        assert conditional_entropy(table([[2, 0], [0, 2]])) == 0.0

    def test_independence_uniform(self):
        assert conditional_entropy(table([[1, 1], [1, 1]])) == pytest.approx(1.0)

    def test_hand_value(self):
        assert conditional_entropy(table([[3, 1], [1, 3]])) == pytest.approx(
            0.8113, abs=1e-4
        )

    def test_chain_rule_and_mi_symmetry_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t = random_table(rng)
            joint = entropy(t.counts.ravel())
            h_row = entropy(t.row_sums)
            h_col = entropy(t.col_sums)
            h_col_row = conditional_entropy(t, COLS_GIVEN_ROWS)
            h_row_col = conditional_entropy(t, ROWS_GIVEN_COLS)
            assert joint == pytest.approx(h_row + h_col_row, abs=1e-12)
            assert joint == pytest.approx(h_col + h_row_col, abs=1e-12)
            # mutual information symmetry
            assert h_row - h_row_col == pytest.approx(h_col - h_col_row, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        t = random_table(rng)
        perm = rng.permutation(t.counts.shape[0])
        t2 = table(t.counts[perm])
        for d in (COLS_GIVEN_ROWS, ROWS_GIVEN_COLS):
            assert conditional_entropy(t, d) == pytest.approx(
                conditional_entropy(t2, d), abs=1e-12
            )


class TestRescaledCE:
    def test_perfect_explanation(self):
        assert rescaled_ce(table([[2, 0], [0, 2]])) == 0.0

    def test_independence(self):
        margins = np.outer([2, 3], [1, 4])
        assert rescaled_ce(table(margins)) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert rescaled_ce(table([[3, 1], [1, 3]])) == pytest.approx(0.8113, abs=1e-4)

    def test_degenerate_target(self):
        with pytest.raises(ComputationError, match="degenerate target"):
            rescaled_ce(table([[2, 0], [3, 0]]))

    def test_bounded_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = random_table(rng)
            if entropy(t.col_sums) == 0:
                continue
            v = rescaled_ce(t)
            assert -1e-12 <= v <= 1 + 1e-12


class TestMutualCE:
    def test_values(self):
        assert mutual_ce(table([[2, 0], [0, 2]])) == 0.0
        assert mutual_ce(table(np.outer([1, 2], [3, 1]))) == pytest.approx(1.0)
        assert mutual_ce(table([[3, 1], [1, 3]])) == pytest.approx(0.8113, abs=1e-4)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = random_table(rng)
            if entropy(t.col_sums) == 0 or entropy(t.row_sums) == 0:
                continue
            assert mutual_ce(t) == pytest.approx(mutual_ce(t.transpose()), abs=1e-12)


class TestAssociationMatrices:
    def test_identical_columns_zero(self):
        directed, _ = association_matrices({"a": [1, 2, 3, 1], "b": [1, 2, 3, 1]})
        assert directed[0, 1] == 0.0
        assert directed[1, 0] == 0.0

    def test_independent_product_columns_one(self):
        x, y = [], []
        for i in (1, 2):
            for j in (1, 2):
                for _ in range(3):
                    x.append(i)
                    y.append(j)
        directed, mutual = association_matrices({"a": x, "b": y})
        assert directed[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert mutual[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_against_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        columns = {f"f{i:02d}": rng.integers(0, 5, size=60) for i in range(18)}
        directed, mutual = association_matrices(columns)
        names = list(columns)
        for i, ni in enumerate(names):
            for j, nj in enumerate(names):
                if i == j:
                    assert directed[i, j] == 0.0
                    continue
                t = contingency(columns[ni], columns[nj])
                expect = conditional_entropy(t, COLS_GIVEN_ROWS) / entropy(t.col_sums)
                assert directed[i, j] == pytest.approx(expect, abs=1e-12)
        assert np.array_equal(mutual, mutual.T)

    def test_degenerate_column_named(self):
        with pytest.raises(ComputationError, match="flat"):
            association_matrices({"ok": [1, 2, 1, 2], "flat": [3, 3, 3, 3]})


NAMES = ("a", "b", "c", "d")


def edges(dot):
    """(u, v) of every edge line of a DOT text."""
    return {tuple(re.findall(r'"([^"]*)"', line)) for line in dot.splitlines()
            if "->" in line or "--" in line}


class TestThresholdNetwork:
    @pytest.fixture
    def assoc(self):
        rng = np.random.default_rng(9)
        directed = rng.uniform(0.2, 0.95, size=(4, 4))
        np.fill_diagonal(directed, 0.0)
        mutual = 0.5 * (directed + directed.T)
        np.fill_diagonal(mutual, 0.0)
        return {"directed": directed, "mutual": mutual}

    def test_tau_zero_edgeless(self, assoc):
        dot = threshold_network(NAMES, assoc["mutual"], 0.0, False, "g")
        assert edges(dot) == set()

    def test_tau_one_complete(self, assoc):
        dot = threshold_network(NAMES, assoc["directed"], 1.0, True, "g")
        assert len(edges(dot)) == 12

    def test_monotone_edge_sets(self, assoc):
        e6 = edges(threshold_network(NAMES, assoc["mutual"], 0.6, False, "g"))
        e7 = edges(threshold_network(NAMES, assoc["mutual"], 0.7, False, "g"))
        assert e6 <= e7

    def test_dot_output(self, assoc):
        dot = threshold_network(NAMES, assoc["directed"], 0.9, True, "association")
        assert dot.startswith("digraph")
        assert "->" in dot
        und = threshold_network(NAMES, assoc["mutual"], 0.9, False, "association")
        assert und.startswith("graph")
        assert "--" in und

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 6), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
           st.booleans())
    def test_matches_nested_loop_oracle(self, data, p, tau, directed):
        matrix = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=p * p, max_size=p * p)))
        matrix = matrix.reshape(p, p)
        names = tuple(f"f{i}" for i in range(p))
        got = threshold_network(names, matrix, tau, directed, "net_0_5")
        assert got == oracle_network_dot(names, matrix, tau, directed, "net_0_5")


class TestOddsRatio:
    def test_reference_counts(self):
        t = ContingencyTable(
            (1, 0), (0, 1), np.array([[3.142, 1.573], [14.741, 3.735]])
        )
        o1, o2, ratio = odds_ratio(t)
        assert o1 == pytest.approx(0.5008, abs=0.01)
        assert o2 == pytest.approx(0.2534, abs=0.01)
        assert ratio == pytest.approx(1.9765, abs=0.01)

    def test_uniform(self):
        assert odds_ratio(table([[1, 1], [1, 1]]))[2] == 1.0

    def test_hand_value(self):
        assert odds_ratio(table([[2, 4], [1, 2]]))[2] == pytest.approx(1.0)

    def test_zero_denominator(self):
        with pytest.raises(ComputationError, match="zero cell"):
            odds_ratio(table([[0, 4], [1, 2]]))

"""The joint-count entropy kernel against the slow row-loop oracles.

Every comparison is bit for bit (``float.hex``, so the sign of zero
counts too): near-tied conditional entropies decide the row order of the
ranked scan CSVs, so "approximately equal" is not enough.
"""

from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicurve import infotheory, major_factor
from epicurve.errors import ComputationError
from epicurve.infotheory import (
    _batch_entropies,
    _conditional_entropies,
    _dense,
    association_matrices,
    conditional_entropy,
    entropy,
)
from epicurve.major_factor import (
    _marginal_entropy,
    joint_conditional_entropy,
    noise_threshold,
    noise_thresholds,
    permutation_orders,
    scan,
)

from helpers import (
    contingency,
    oracle_association_matrices,
    oracle_batch_entropies,
    oracle_conditional_entropy,
    oracle_contingency,
    oracle_joint_conditional_entropy,
    oracle_noise_threshold,
    oracle_permutation_orders,
)

SETTINGS = settings(max_examples=150, deadline=None)


def hexes(values):
    return [float(v).hex() for v in values]


@st.composite
def columns(draw, min_cols=1, max_cols=4, max_rows=40, min_label=0):
    """(y, [column, ...]): small categorical columns of one length."""
    n = draw(st.integers(1, max_rows))

    def column(max_label):
        return np.array(draw(st.lists(st.integers(min_label, max_label),
                                      min_size=n, max_size=n)))

    y = column(draw(st.integers(0, 11)))
    k = draw(st.integers(min_cols, max_cols))
    return y, [column(draw(st.integers(0, 5))) for _ in range(k)]


def with_batch_cells(cells):
    return mock.patch.object(infotheory, "BATCH_CELLS", cells)


def with_space_per_cell(bound):
    return mock.patch.object(infotheory, "_SPACE_PER_CELL", bound)


def counted(name):
    """Patch the numpy function ``name`` with a wrapper that counts its calls."""
    return mock.patch.object(np, name, wraps=getattr(np, name))


class TestFirstSeenOrder:
    @SETTINGS
    @given(columns(max_cols=3, min_label=-2))
    def test_joint_ce_matches_oracle(self, data):
        y, cols = data
        assert (float(joint_conditional_entropy(y, cols)).hex()
                == float(oracle_joint_conditional_entropy(y, cols)).hex())

    @SETTINGS
    @given(columns(max_cols=4), st.integers(1, 200))
    def test_batch_of_all_sets_spanning_chunks(self, data, cells):
        y, cols = data
        codes = np.array([_dense(c) for c in cols])
        for k in range(1, len(cols) + 1):
            sets = list(combinations(range(len(cols)), k))
            with with_batch_cells(cells):
                got = _conditional_entropies(y, codes, sets)
            want = [oracle_joint_conditional_entropy(y, [cols[i] for i in s])
                    for s in sets]
            assert hexes(got) == hexes(want)

    @SETTINGS
    @given(columns(max_cols=2))
    def test_all_pure_partition_is_positive_zero(self, data):
        _, cols = data
        y = 3 * cols[0] + 1  # a function of the first column
        assert float(joint_conditional_entropy(y, cols)).hex() == "0x0.0p+0"
        assert float(oracle_joint_conditional_entropy(y, cols)).hex() == "0x0.0p+0"

    @SETTINGS
    @given(columns(max_cols=1))
    def test_single_group(self, data):
        y, _ = data
        constant = np.zeros_like(y)
        assert (float(joint_conditional_entropy(y, [constant])).hex()
                == float(oracle_joint_conditional_entropy(y, [constant])).hex())

    def test_one_row(self):
        for y, x in (([0], [0]), ([5], [2])):
            assert float(joint_conditional_entropy(y, [x])).hex() == "0x0.0p+0"

    def test_many_y_categories_use_numpy_sum_order(self):
        # groups with 8 or more Y cells are summed pairwise by np.sum
        rng = np.random.default_rng(0)
        y = rng.integers(0, 40, size=600)
        x = rng.integers(0, 3, size=600)
        assert (float(joint_conditional_entropy(y, [x])).hex()
                == float(oracle_joint_conditional_entropy(y, [x])).hex())


class TestBincountCounting:
    """The bincount kernel against the sort-based batch it replaced."""

    @SETTINGS
    @given(columns(max_cols=4), st.integers(1, 200), st.booleans(),
           st.sampled_from([0, 4, 1 << 62]))
    def test_every_set_matches_the_sort_oracle(self, data, cells, first_seen, bound):
        """Re-coding always (bound 0), at the default bound, and never."""
        y, cols = data
        codes = np.array([_dense(c) for c in cols])
        for k in range(1, min(3, len(cols)) + 1):
            sets = list(combinations(range(len(cols)), k))
            with with_batch_cells(cells), with_space_per_cell(bound):
                got = _conditional_entropies(y, codes, sets, first_seen)
                with mock.patch.object(infotheory, "_batch_entropies",
                                       oracle_batch_entropies):
                    want = _conditional_entropies(y, codes, sets, first_seen)
            assert hexes(got) == hexes(want)

    @SETTINGS
    @given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 300), st.data(),
           st.booleans(), st.sampled_from([0, 4, 1 << 62]))
    def test_wide_keys_match_the_sort_oracle(self, m, n, max_key, data, first_seen, bound):
        y = _dense(np.array(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))))
        keys = np.array(data.draw(st.lists(
            st.lists(st.integers(0, max_key), min_size=n, max_size=n),
            min_size=m, max_size=m)))
        with with_space_per_cell(bound):
            got = _batch_entropies(y, keys, first_seen)
        assert hexes(got) == hexes(oracle_batch_entropies(y, keys, first_seen))

    @pytest.mark.parametrize("first_seen, sorts", [(False, 0), (True, 1)])
    def test_cohort_wide_batch_sorts_nothing_but_first_positions(self, first_seen, sorts):
        """23 sets x 700 rows of labels 0-4, one association batch: no sort
        with first_seen false, and one lexsort of the occupied cells with it."""
        rng = np.random.default_rng(3)
        y = rng.integers(0, 5, size=700)
        keys = rng.integers(0, 5, size=(23, 700))
        with counted("unique") as unique, counted("lexsort") as lexsort, \
                counted("argsort") as argsort:
            got = _batch_entropies(y, keys, first_seen)
        assert (unique.call_count, lexsort.call_count, argsort.call_count) == (0, sorts, 0)
        assert hexes(got) == hexes(oracle_batch_entropies(y, keys, first_seen))

    def test_order_three_of_forty_labels_is_recoded(self):
        """256,000 ids for 30 cells: counted after re-coding, in <= 30 bins."""
        rng = np.random.default_rng(4)
        y = rng.integers(0, 4, size=30)
        cols = rng.integers(0, 40, size=(3, 30))
        cols[:, 0] = 39
        with counted("bincount") as bincount:
            got = _conditional_entropies(y, cols, [[0, 1, 2]])[0]
        assert max(c.args[0].max() + 1 for c in bincount.call_args_list) <= 30
        assert float(got).hex() == float(oracle_joint_conditional_entropy(y, cols)).hex()

    @pytest.mark.parametrize("first_seen", [False, True])
    def test_keys_recoded_before_the_final_multiply(self, first_seen):
        """Labels up to 2**21: the second product could pass _KEY_LIMIT, so
        the keys are made dense first, and then the cell ids are re-coded."""
        rng = np.random.default_rng(5)
        y = rng.integers(0, 3, size=30)
        cols = rng.integers(0, 2**21, size=(3, 30))
        cols[:, 0] = 2**21
        with mock.patch.object(infotheory, "_dense", wraps=_dense) as dense:
            got = _conditional_entropies(y, cols, [[0, 1, 2]], first_seen)[0]
        assert [np.ndim(c.args[0]) for c in dense.call_args_list] == [1, 2]
        with mock.patch.object(infotheory, "_batch_entropies", oracle_batch_entropies):
            want = _conditional_entropies(y, cols, [[0, 1, 2]], first_seen)[0]
        assert float(got).hex() == float(want).hex()
        if first_seen:
            assert float(got).hex() == float(oracle_joint_conditional_entropy(y, cols)).hex()

    @pytest.mark.parametrize("cells", [64, 1 << 14])
    def test_count_arrays_stay_within_the_bound(self, cells):
        """Order-3 sets of radix 2 to 12 over 50 rows bring id spaces from
        below to far above _SPACE_PER_CELL ids per cell."""
        rng = np.random.default_rng(6)
        y = rng.integers(0, 5, size=50)
        cols = np.array([rng.integers(0, r, size=50) for r in range(2, 13)])
        sets = list(combinations(range(len(cols)), 3))
        with with_batch_cells(cells), counted("bincount") as bincount, \
                counted("full") as full:
            got = _conditional_entropies(y, cols, sets)
        sizes = [c.args[0].max() + 1 for c in bincount.call_args_list]
        sizes += [c.args[0] for c in full.call_args_list]
        assert max(sizes) <= infotheory._SPACE_PER_CELL * cells
        want = [oracle_joint_conditional_entropy(y, cols[list(s)]) for s in sets]
        assert hexes(got) == hexes(want)


@st.composite
def sparse_batches(draw):
    """(y, keys) of one kernel batch whose rows are each of one kind: keys
    unique per unit (every group holds one cell), unique but for a few
    units sharing the first unit's key, or few keys (groups of many cells)."""
    n = draw(st.integers(1, 30))
    y = np.array(draw(st.lists(st.integers(0, draw(st.integers(0, 3))),
                               min_size=n, max_size=n)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["unique", "mostly", "few"]),
                              min_size=1, max_size=10)):
        if kind == "few":
            rows.append(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
            continue
        row = draw(st.permutations(range(3 * n)))[:n]
        if kind == "mostly":
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                row[i] = row[0]
        rows.append(row)
    return y, np.array(rows)


class TestSingleCellGroups:
    """First-seen batches drop the cells of single-cell groups before ordering."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_batches(), st.booleans(), st.sampled_from([0, 8, 1 << 62]))
    @example(batch=(np.array([0, 1, 0, 1]), np.array([[0, 1, 2, 3], [0, 0, 1, 1],
                                                      [4, 5, 6, 7]])),
             first_seen=True, bound=8)
    @example(batch=(np.array([0, 1, 0]), np.array([[0, 0, 1], [2, 3, 4], [1, 1, 0]])),
             first_seen=True, bound=8)
    @example(batch=(np.array([2, 0, 1]), np.array([[0, 1, 2], [5, 4, 3]])),
             first_seen=True, bound=8)
    def test_sparse_batches_match_the_sort_oracle(self, batch, first_seen, bound):
        """Wholly single-cell rows at the start, middle and end of a batch,
        and a batch of nothing but single-cell groups."""
        y, keys = batch
        with with_space_per_cell(bound):
            got = _batch_entropies(y, keys, first_seen)
        assert hexes(got) == hexes(oracle_batch_entropies(y, keys, first_seen))

    def test_scan_deep_order_three_batch_orders_only_shared_groups(self):
        """273 order-3 sets of radix 5 over 60 units and a 2-level response,
        one scan-deep triples batch: lexsort sees the multi-cell groups' cells."""
        rng = np.random.default_rng(31)
        y = rng.integers(0, 2, size=60)
        digits = rng.integers(0, 5, size=(3, 273, 60))
        keys = (digits[0] * 5 + digits[1]) * 5 + digits[2]
        levels = [{} for _ in keys]
        for row, seen in zip(keys, levels):
            for key, label in zip(row, y):
                seen.setdefault(key, set()).add(label)
        shared = sum(len(s) for seen in levels for s in seen.values() if len(s) > 1)
        occupied = sum(len(s) for seen in levels for s in seen.values())
        assert 0 < shared < occupied // 4
        with counted("lexsort") as lexsort:
            got = _batch_entropies(y, keys, True)
        assert [len(c.args[0][0]) for c in lexsort.call_args_list] == [shared]
        assert hexes(got) == hexes(oracle_batch_entropies(y, keys, True))


class TestSortedOrder:
    @SETTINGS
    @given(columns(max_cols=3, min_label=-1))
    def test_contingency_and_conditional_entropy_match_oracle(self, data):
        y, cols = data
        for x in cols:
            t, want = contingency(x, y), oracle_contingency(x, y)
            assert (t.row_labels, t.col_labels) == (want.row_labels, want.col_labels)
            assert np.array_equal(t.counts, want.counts)
            assert (float(conditional_entropy(t)).hex()
                    == float(oracle_conditional_entropy(want)).hex())

    @SETTINGS
    @given(columns(max_cols=4), st.integers(1, 200))
    def test_batched_kernel_matches_table_oracle(self, data, cells):
        y, cols = data
        with with_batch_cells(cells):
            got = _conditional_entropies(
                y, np.array(cols), [[i] for i in range(len(cols))], first_seen=False)
        want = [oracle_conditional_entropy(oracle_contingency(x, y)) for x in cols]
        assert hexes(got) == hexes(want)

    def test_association_matrices_match_oracle(self):
        rng = np.random.default_rng(1)
        cells = rng.integers(0, 5, size=(90, 6))
        directed, _ = association_matrices({f"f{j}": cells[:, j] for j in range(6)})
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                t = oracle_contingency(cells[:, i], cells[:, j])
                want = oracle_conditional_entropy(t) / entropy(t.col_sums)
                assert float(directed[i, j]).hex() == float(want).hex()


@st.composite
def sparse_tables(draw, min_rows=1, max_rows=6, max_units=60):
    """(rows, n) labels whose rows each draw from their own sparse label set,
    such as {0, 3, 7, 11}."""
    n = draw(st.integers(1, max_units))
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        labels = sorted(draw(st.sets(st.integers(0, 40), min_size=2, max_size=5)))
        rows.append([labels[i] for i in draw(st.lists(
            st.integers(0, len(labels) - 1), min_size=n, max_size=n))])
    return np.array(rows)


def matrix_bits(matrices):
    """Each matrix of an (directed, mutual) pair as the float.hex of its entries."""
    return [hexes(m.ravel()) for m in matrices]


class TestOnePassMatrices:
    """association_matrices in one kernel call against the call per target."""

    @settings(max_examples=100, deadline=None)
    @given(sparse_tables(min_rows=2))
    @example(table=np.array([[0, 3, 7, 3], [5, 5, 5, 5], [11, 0, 0, 11]]))
    def test_both_matrices_match_the_per_target_oracle(self, table):
        columns = {f"c{i}": row for i, row in enumerate(table)}
        try:
            want = matrix_bits(oracle_association_matrices(columns))
        except ComputationError as exc:
            want = str(exc)
        for cells in (1, 7, 64, 1 << 14):
            for bound in (0, 8, 1 << 62):
                with with_batch_cells(cells), with_space_per_cell(bound):
                    try:
                        got = matrix_bits(association_matrices(columns))
                    except ComputationError as exc:
                        got = str(exc)
                assert got == want

    @SETTINGS
    @given(sparse_tables(), st.data(), st.integers(1, 200), st.booleans())
    def test_each_set_scores_against_its_own_response_row(self, table, data, cells,
                                                          first_seen):
        n = table.shape[1]
        p = data.draw(st.integers(1, 4))
        codes = np.array(data.draw(st.lists(st.lists(st.integers(0, 5), min_size=n,
                                                     max_size=n),
                                            min_size=p, max_size=p)))
        k = data.draw(st.integers(1, p))
        m = data.draw(st.integers(1, 30))
        sets = np.array(data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k,
                                                    max_size=k),
                                           min_size=m, max_size=m)))
        targets = np.array(data.draw(st.lists(st.integers(0, len(table) - 1),
                                              min_size=m, max_size=m)))
        with with_batch_cells(cells):
            got = _conditional_entropies(table, codes, sets, first_seen, targets)
            want = [_conditional_entropies(table[t], codes, [s], first_seen)[0]
                    for s, t in zip(sets, targets)]
        assert hexes(got) == hexes(want)

    def test_one_kernel_call_in_batches_of_at_most_batch_cells(self):
        """19 columns x 60 units: all 342 ordered pairs in one call, whose
        batches each gather only their own response rows."""
        rng = np.random.default_rng(9)
        columns = {f"f{j:02d}": rng.integers(0, 5, size=60) for j in range(19)}
        with mock.patch.object(infotheory, "_conditional_entropies",
                               wraps=_conditional_entropies) as kernel, \
                mock.patch.object(infotheory, "_batch_entropies",
                                  wraps=_batch_entropies) as batch:
            got = association_matrices(columns)
        assert kernel.call_count == 1
        assert batch.call_count == 2
        assert max(max(c.args[0].size, c.args[1].size)
                   for c in batch.call_args_list) <= infotheory.BATCH_CELLS
        assert matrix_bits(got) == matrix_bits(oracle_association_matrices(columns))


class TestScan:
    @SETTINGS
    @given(columns(min_cols=1, max_cols=5, max_rows=30))
    def test_every_order_matches_oracle(self, data):
        y, cols = data
        candidates = {f"c{i}": c for i, c in enumerate(cols)}
        h_y = _marginal_entropy(y)

        def ce(names):
            if not names:
                return h_y
            return oracle_joint_conditional_entropy(y, [candidates[n] for n in names])

        for k, level in enumerate(scan(y, candidates, 3), start=1):
            assert len(level) == comb(len(cols), k)
            for r in level:
                names = r.feature_names
                assert float(r.ce).hex() == float(ce(names)).hex()
                sce = min(ce(names[:i] + names[i + 1:]) - r.ce for i in range(k))
                assert float(r.sce_drop).hex() == float(sce).hex()
                assert float(r.ce_drop).hex() == float(h_y - r.ce).hex()
            assert list(level) == sorted(level, key=lambda r: (r.ce, r.feature_names))


class TestNoiseThreshold:
    @settings(max_examples=40, deadline=None)
    @given(columns(max_cols=2, max_rows=30), st.integers(1, 30), st.integers(0, 5))
    def test_chunking_does_not_change_stats(self, data, replicates, seed):
        y, cols = data
        existing, candidate = cols[:-1], cols[-1]
        with with_batch_cells(1):
            one_per_chunk = noise_threshold(y, existing, candidate, replicates, seed)
        with with_batch_cells(1 << 30):
            one_chunk = noise_threshold(y, existing, candidate, replicates, seed)
        assert one_per_chunk == one_chunk
        assert one_chunk == noise_threshold(y, existing, candidate, replicates, seed)

    def test_matches_replicate_loop_oracle(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 3, size=50)
        x = rng.integers(0, 4, size=50)
        drops = np.array([
            _marginal_entropy(y) - oracle_joint_conditional_entropy(
                y, [np.random.default_rng([7, r]).permutation(x)])
            for r in range(60)
        ])
        stats = noise_threshold(y, [], x, replicates=60, seed=7)
        assert stats.mean == float(drops.mean())
        assert stats.q95 == float(np.percentile(drops, 95))


@st.composite
def null_cases(draw):
    """(y, existing, candidates, replicates, seeds) of one noise_thresholds
    call: 0-2 existing and 1-6 candidate columns, seeds that may repeat."""
    n = draw(st.integers(1, 40))

    def column(max_label):
        return np.array(draw(st.lists(st.integers(0, max_label), min_size=n, max_size=n)))

    y = column(draw(st.integers(0, 5)))
    existing = [column(draw(st.integers(0, 4))) for _ in range(draw(st.integers(0, 2)))]
    candidates = [column(draw(st.integers(0, 5))) for _ in range(draw(st.integers(1, 6)))]
    seeds = draw(st.lists(st.integers(0, 6), min_size=len(candidates),
                          max_size=len(candidates)))
    return y, existing, candidates, draw(st.integers(1, 30)), seeds


def null_bits(nulls):
    """The float.hex of each candidate's mean and q95 in noise_thresholds'
    (mean, q95) arrays."""
    return [hexes(pair) for pair in zip(*nulls)]


def oracle_null_bits(y, existing, candidates, replicates, seeds):
    """null_bits of each candidate's null drawn on its own by the oracle."""
    return [hexes([x.mean, x.q95]) for x in (oracle_noise_threshold(y, existing, c, replicates, s)
                                             for c, s in zip(candidates, seeds))]


class TestBatchedNulls:
    @settings(max_examples=60, deadline=None)
    @given(null_cases(), st.integers(-3, 3))
    def test_matches_the_one_candidate_oracle(self, case, shift):
        """Two calls sharing one dict of orders, the second with its seeds
        shifted so that they overlap the first's, at every batch size."""
        y, existing, candidates, replicates, seeds = case
        shifted = [max(0, s + shift) for s in seeds]
        want = [oracle_null_bits(y, existing, candidates, replicates, call_seeds)
                for call_seeds in (seeds, shifted)]
        for cells in (1, 7, 1 << 30):
            orders = {}
            with with_batch_cells(cells):
                got = [null_bits(noise_thresholds(y, existing, candidates, replicates,
                                                  call_seeds, orders))
                       for call_seeds in (seeds, shifted)]
            assert got == want
            assert set(orders) == {(s, replicates) for s in seeds + shifted}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 40), st.integers(2**32 - 3, 2**32 + 3),
                              st.integers(0, 2**130)), min_size=1, max_size=6),
           st.integers(1, 12), st.integers(1, 300))
    @example(seeds=[0, 2**32 - 1, 2**32, 2**64, 2**96, 2**128, 2**130], replicates=3, n=257)
    @example(seeds=[7, 7, 2**130], replicates=1, n=1)
    def test_orders_are_the_replicate_permutations(self, seeds, replicates, n):
        """Seeds of one to five 32-bit words, so the SeedSequence entropy
        [seed words, r] runs from 2 words to beyond its 4-word pool."""
        column = np.arange(n) * 7 % 11 - 3
        orders = permutation_orders(seeds, replicates, n)
        assert set(orders) == {(s, replicates) for s in seeds}
        for (seed, _), got in orders.items():
            want = oracle_permutation_orders(seed, replicates, n)
            assert got.dtype == want.dtype == (np.uint8 if n <= 256 else np.uint16)
            assert got.shape == (replicates, n) and np.array_equal(got, want)
            assert np.array_equal(column[got[-1]], np.random.default_rng(
                [seed, replicates - 1]).permutation(column))

    def test_orders_of_a_long_column(self):
        seeds = [3, 2**32 + 3, 2**70]
        orders = permutation_orders(seeds, 2, 70_000)
        for seed in seeds:
            want = oracle_permutation_orders(seed, 2, 70_000)
            assert orders[(seed, 2)].dtype == want.dtype == np.uint32
            assert np.array_equal(orders[(seed, 2)], want)

    def test_one_unit(self):
        orders = permutation_orders([5], 3, 1)[(5, 3)]
        assert orders.tolist() == [[0], [0], [0]] and orders.dtype == np.uint8
        assert np.array_equal(np.array([4])[orders[2]],
                              np.random.default_rng([5, 2]).permutation(np.array([4])))

    def test_negative_seed_is_refused(self):
        with pytest.raises(ComputationError, match="seed must be >= 0, got -1"):
            permutation_orders([3, -1], 2, 4)

    @pytest.mark.parametrize("cells", [1, 7, 100, 1 << 14])
    def test_no_kernel_call_exceeds_one_batch(self, cells):
        rng = np.random.default_rng(8)
        n, replicates = 30, 20
        y = rng.integers(0, 3, size=n)
        existing = [rng.integers(0, 2, size=n)]
        candidates = [rng.integers(0, 4, size=n) for _ in range(5)]
        seeds = [3, 4, 4, 9, 3]
        shuffled_rows = []

        def spy(y, columns, sets, *args, **kwargs):
            shuffled_rows.append(len(columns) - len(existing))
            return _conditional_entropies(y, columns, sets, *args, **kwargs)

        with with_batch_cells(cells), mock.patch.object(
                major_factor, "_conditional_entropies", spy):
            got = noise_thresholds(y, existing, candidates, replicates, seeds, {})
        assert null_bits(got) == oracle_null_bits(y, existing, candidates, replicates, seeds)
        assert max(shuffled_rows) <= max(1, cells // n)
        assert sum(shuffled_rows) == len(candidates) * replicates

from itertools import zip_longest
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicurve import cluster_fuse
from epicurve.cluster_fuse import (
    HCTree,
    hcluster_ward,
    kmeans_fuse,
    leaf_codes,
    root_partition,
    similarity_svg,
)
from epicurve.errors import ComputationError
from helpers import (
    leaf_ordered,
    naive_ward_reference,
    oracle_codes,
    oracle_kmeans_fuse,
    oracle_leaf_codes,
    oracle_root_partition,
    oracle_similarity_csv,
    oracle_similarity_svg,
    oracle_tree_csv,
    random_merge_tree,
    stage_cluster_texts,
)


def corners(reps=5, jitter=0.01, seed=0):
    rng = np.random.default_rng(seed)
    base = np.array([[0, 0], [0, 10], [10, 0], [10, 10]], dtype=float)
    pts = np.vstack([base + jitter * rng.standard_normal((4, 2)) for _ in range(reps)])
    return pts


class TestKmeansFuse:
    def test_four_tight_groups(self):
        pts = corners()
        fused = kmeans_fuse(pts, ["x", "y"], "corners", k=4, seed=1, restarts=20)
        labels = fused.labels.reshape(-1, 4)
        # every block of 4 rows visits the same 4 corners in the same order
        for row in labels:
            assert sorted(row) == [1, 2, 3, 4]
        assert np.all(labels == labels[0])

    def test_determinism(self):
        pts = corners(seed=3)
        a = kmeans_fuse(pts, ["x", "y"], "f", k=4, seed=5, restarts=10)
        b = kmeans_fuse(pts, ["x", "y"], "f", k=4, seed=5, restarts=10)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_one(self):
        pts = corners()
        fused = kmeans_fuse(pts, ["x", "y"], "f", k=1, seed=0, restarts=3)
        assert set(fused.labels) == {1}
        # centroid of standardized data is the origin
        assert np.allclose(fused.centroids[0], 0.0, atol=1e-9)

    def test_na_rows_labeled_zero(self):
        pts = corners()
        pts[3, 0] = np.nan
        fused = kmeans_fuse(pts, ["x", "y"], "f", k=4, seed=0, restarts=5)
        assert fused.labels[3] == 0
        assert np.all(fused.labels[np.arange(len(pts)) != 3] > 0)

    def test_too_few_complete_rows(self):
        pts = np.full((3, 2), np.nan)
        pts[0] = [1, 2]
        with pytest.raises(ComputationError, match="complete rows"):
            kmeans_fuse(pts, ["x", "y"], "f", k=2, seed=0)

    def test_labels_canonical_first_occurrence(self):
        pts = corners()
        fused = kmeans_fuse(pts, ["x", "y"], "f", k=4, seed=2, restarts=10)
        seen = []
        for lab in fused.labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == [1, 2, 3, 4]

    def test_uniform_rescaling_invariance(self):
        pts = corners(seed=8)
        a = kmeans_fuse(pts, ["x", "y"], "f", k=4, seed=4, restarts=10)
        b = kmeans_fuse(pts * 37.5, ["x", "y"], "f", k=4, seed=4, restarts=10)
        assert np.array_equal(a.labels, b.labels)


def assert_kmeans_matches_oracle(matrix, k, seed, restarts):
    """Labels, centroid bytes and the inertia's bits equal the one restart
    at a time form."""
    names = [f"c{j}" for j in range(matrix.shape[1])]
    got = kmeans_fuse(matrix, names, "f", k=k, seed=seed, restarts=restarts)
    want = oracle_kmeans_fuse(matrix, names, "f", k=k, seed=seed, restarts=restarts)
    assert np.array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype
    assert got.centroids.shape == want.centroids.shape
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert float.hex(got.inertia) == float.hex(want.inertia)
    assert got.converged is want.converged
    return got


@st.composite
def fusion_inputs(draw):
    """(matrix, k, seed, restarts): 1-20 columns of tie-heavy integers 0-3,
    duplicated rows or normals at column scales 1e-6 to 1e6, with a few NA rows."""
    d, k = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    n, na_rows = draw(st.integers(k, 60)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "duplicates", "scaled"]))
    if kind == "ties":
        x = rng.integers(0, 4, (n, d)).astype(float)
    elif kind == "duplicates":
        x = rng.standard_normal((max(1, n // 3), d))[rng.integers(0, max(1, n // 3), n)]
    else:
        x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 6, d)
    na = rng.standard_normal((na_rows, d))
    na[np.arange(na_rows), rng.integers(0, d, na_rows)] = np.nan
    matrix = np.vstack([x, na])[rng.permutation(n + na_rows)]
    return matrix, k, draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 25))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestKmeansOracle:
    @settings(max_examples=200, deadline=None)
    @given(fusion_inputs(), st.sampled_from([1, 500, cluster_fuse.KMEANS_CELLS]))
    def test_matches_one_restart_at_a_time(self, case, cells):
        # a small cell cap splits the restarts into blocks, the last one partial
        with mock.patch.object(cluster_fuse, "KMEANS_CELLS", cells):
            assert_kmeans_matches_oracle(*case)

    @pytest.mark.parametrize("n, d, k, restarts", [(1000, 5, 4, 30), (5000, 5, 4, 5)])
    def test_large_cohorts(self, n, d, k, restarts):
        rng = np.random.default_rng(n)
        assert_kmeans_matches_oracle(rng.standard_normal((n, d)), k, 11, restarts)

    def test_one_restart_per_block(self):
        # 5000 rows x 14 columns exceed the cell cap on their own
        assert cluster_fuse.KMEANS_CELLS // (5000 * 14) == 0
        x = np.random.default_rng(2).integers(0, 4, (5000, 14)).astype(float)
        assert_kmeans_matches_oracle(x, 6, 3, 3)

    def test_identical_rows(self):
        # every k-means++ draw after the first sees a total of 0
        fused = assert_kmeans_matches_oracle(np.full((12, 3), 2.5), 4, 0, 7)
        assert set(fused.labels) == {1}

    def test_empty_clusters_are_reseeded(self):
        # 4 distinct rows for k = 5: seeding repeats a row, a repeated
        # centroid's cluster is empty after the first assignment, and where
        # it is re-seeded decides the final centroids
        base = np.array([[5.0, 5.0], [2.0, 3.0], [6.0, 0.0], [1.0, 3.0]])
        x = base[[0, 2, 2, 1, 0, 3, 0, 1, 3, 0, 0, 0, 3]]
        fused = assert_kmeans_matches_oracle(x, 5, 0, 1)
        assert set(fused.labels) == {1, 2, 3, 4}

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_lloyd_stopped_before_convergence(self, monkeypatch, max_iter):
        x = np.random.default_rng(9).standard_normal((300, 4))
        full = kmeans_fuse(x, list("abcd"), "f", k=6, seed=1, restarts=12)
        monkeypatch.setattr(cluster_fuse, "_MAX_ITER", max_iter)
        stopped = assert_kmeans_matches_oracle(x, 6, 1, 12)
        assert stopped.inertia > full.inertia
        assert full.converged and not stopped.converged


class TestHclusterWard:
    def test_line_points(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        tree, excluded = hcluster_ward(x, ["a", "b", "c", "d"])
        assert excluded == []
        first, second = tree.merges[0], tree.merges[1]
        assert {first[1], first[2]} == {0, 1}
        assert first[3] == pytest.approx(1.0)
        assert {second[1], second[2]} == {2, 3}
        assert second[3] == pytest.approx(1.0)

    def test_duplicate_points_merge_first_at_zero(self):
        x = np.array([[5.0, 5.0], [1.0, 2.0], [5.0, 5.0]])
        tree, _ = hcluster_ward(x, ["a", "b", "c"])
        node, left, right, height = tree.merges[0]
        assert {left, right} == {0, 2}
        assert height == 0.0

    def test_matches_naive_centroid_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 6))
            x = rng.standard_normal((n, d))
            tree, _ = hcluster_ward(x, [f"p{i}" for i in range(n)])
            reference = naive_ward_reference(x)
            assert len(tree.merges) == len(reference)
            for ours, ref in zip(tree.merges, reference):
                assert ours[:3] == ref[:3]
                assert ours[3] == pytest.approx(ref[3], abs=1e-9)

    def test_na_rows_excluded_without_distorting_rest(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 3))
        with_na = np.vstack([x, [np.nan, 0.0, 0.0]])
        t1, _ = hcluster_ward(x, [f"p{i}" for i in range(6)])
        t2, excluded = hcluster_ward(with_na, [f"p{i}" for i in range(7)])
        assert excluded == ["p6"]
        assert t1.merges == t2.merges

    def test_too_few_rows(self):
        with pytest.raises(ComputationError, match="at least 2"):
            hcluster_ward(np.array([[1.0]]), ["a"])

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((20, 4))
        tree, _ = hcluster_ward(x, [f"p{i}" for i in range(20)])
        heights = [m[3] for m in tree.merges]
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))


class TestLeafCodes:
    def test_balanced_four_leaves(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        tree, _ = hcluster_ward(x, ["a", "b", "c", "d"])
        codes = leaf_codes(tree)
        sim = codes.similarity
        assert np.diag(sim).tolist() == [2, 2, 2, 2]  # codes 00, 01, 10, 11
        assert sim[0, 1] == 1 and sim[2, 3] == 1
        assert sim[0, 2] == 0 and sim[0, 3] == 0 and sim[1, 2] == 0

    def test_two_leaves(self):
        tree, _ = hcluster_ward(np.array([[0.0], [1.0]]), ["a", "b"])
        codes = leaf_codes(tree)
        assert codes.similarity[0, 1] == 0
        assert codes.similarity[0, 0] == codes.similarity[1, 1] == 1  # codes 0 and 1

    def test_self_similarity_is_code_length(self):
        rng = np.random.default_rng(2)
        tree = random_merge_tree(10, rng)
        codes = leaf_codes(tree)
        for i, code in oracle_codes(tree).items():
            assert codes.similarity[i, i] == len(code)

    def test_against_lca_depth_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            tree = random_merge_tree(n, rng)
            codes = leaf_codes(tree)
            parent = {}
            for node, left, right, _h in tree.merges:
                parent[left] = node
                parent[right] = node

            def ancestors(leaf):
                chain = [leaf]
                while chain[-1] in parent:
                    chain.append(parent[chain[-1]])
                return chain

            depth = {}
            for leaf in range(n):
                for d, a in enumerate(reversed(ancestors(leaf))):
                    depth[a] = d
            for u in range(n):
                anc_u = set(ancestors(u))
                for v in range(n):
                    if u == v:
                        continue
                    w = v
                    while w not in anc_u:
                        w = parent[w]
                    assert codes.similarity[u, v] == depth[w]

    def test_root_split_shares_first_bit(self):
        rng = np.random.default_rng(5)
        tree = random_merge_tree(12, rng)
        codes = leaf_codes(tree)
        left, right = root_partition(tree)
        for u in left:
            for v in right:
                assert codes.similarity[u, v] == 0


class TestRootPartition:
    """The merge replay returns the recursion's leaf sets."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_matches_recursive_oracle(self, n, seed):
        tree = random_merge_tree(n, np.random.default_rng(seed))
        assert root_partition(tree) == oracle_root_partition(tree)

    @pytest.mark.parametrize("n", [2, 3, 300])
    def test_caterpillar(self, n):
        merges = [(n, 0, 1, 1.0)]
        merges += [(n + k - 1, n + k - 2, k, float(k)) for k in range(2, n)]
        tree = HCTree(tuple(f"u{i}" for i in range(n)), tuple(merges))
        assert root_partition(tree) == oracle_root_partition(tree) == (
            set(range(n - 1)), {n - 1})


class TestArtifacts:
    @pytest.fixture
    def two_blob_codes(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 2)) * 0.1
        b = rng.standard_normal((5, 2)) * 0.1 + 50.0
        x = np.vstack([a, b])
        tree, _ = hcluster_ward(x, [f"p{i}" for i in range(10)])
        return leaf_codes(tree), tree

    def test_two_blob_block_structure(self, two_blob_codes):
        codes, tree = two_blob_codes
        left, right = root_partition(tree)
        assert {frozenset(left), frozenset(right)} == {
            frozenset(range(5)), frozenset(range(5, 10))
        }
        for u in left:
            for v in right:
                assert codes.similarity[u, v] == 0

    def test_csv_leaf_order_matches_traversal(self, two_blob_codes):
        codes, tree = two_blob_codes
        text = stage_cluster_texts(tree)["similarity"]
        header = text.splitlines()[0].split(",")[1:]
        assert header == [tree.leaf_labels[i] for i in codes.leaf_order]

    def test_render_determinism(self, two_blob_codes):
        codes, tree = two_blob_codes
        assert stage_cluster_texts(tree) == stage_cluster_texts(tree)
        assert (similarity_svg(*leaf_ordered(tree.leaf_labels, codes))
                == similarity_svg(*leaf_ordered(tree.leaf_labels, codes)))

    def test_svg_is_wellformed_enough(self, two_blob_codes):
        codes, tree = two_blob_codes
        svg = similarity_svg(*leaf_ordered(tree.leaf_labels, codes))
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 100


def first_difference(got: str, want: str):
    """(line number, got line, wanted line) where two texts first differ, or
    None; pytest's own diff of megabyte strings would take minutes."""
    lines = zip_longest(got.splitlines(True), want.splitlines(True))
    return next(((no, *pair) for no, pair in enumerate(lines, 1)
                 if pair[0] != pair[1]), None)


def assert_render_matches_oracle(tree):
    """Order, similarity (values and dtype), and the CSV and SVG that the
    cluster stage writes all equal the per-pair and per-cell forms, and so
    does the SVG of the cell-by-cell leaf-ordered rows; the SVG parses as XML."""
    got, want = leaf_codes(tree), oracle_leaf_codes(tree)
    assert got.leaf_order == want.leaf_order
    assert got.similarity.dtype == want.similarity.dtype
    assert np.array_equal(got.similarity, want.similarity)
    written = stage_cluster_texts(tree)
    text = written["similarity"]
    assert first_difference(text, oracle_similarity_csv(tree.leaf_labels, want)) is None
    svg = written["heatmap"]
    assert first_difference(svg, oracle_similarity_svg(tree.leaf_labels, want)) is None
    assert similarity_svg(*leaf_ordered(tree.leaf_labels, got)) == svg
    root = ElementTree.fromstring(svg)
    texts = [t.text or "" for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[::2] == [tree.leaf_labels[i] for i in got.leaf_order]


label_text = st.text(alphabet=st.sampled_from(list("aZ9 &<>,\"'_-")), min_size=1,
                     max_size=6)


class TestRenderOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 80).flatmap(lambda n: st.tuples(
        st.integers(0, 2**32 - 1), st.lists(label_text, min_size=n, max_size=n))))
    def test_matches_per_cell_oracle(self, case):
        seed, labels = case
        tree = random_merge_tree(len(labels), np.random.default_rng(seed))
        assert_render_matches_oracle(HCTree(tuple(labels), tree.merges))

    def test_two_leaves(self):
        assert_render_matches_oracle(HCTree(("a&b", "<c>"), ((2, 0, 1, 1.0),)))

    def test_balanced_tree(self):
        merges = [(8 + k, 2 * k, 2 * k + 1, 1.0) for k in range(4)]
        merges += [(12, 8, 9, 2.0), (13, 10, 11, 2.0), (14, 12, 13, 3.0)]
        tree = HCTree(tuple(f"u{i}" for i in range(8)), tuple(merges))
        assert np.diag(leaf_codes(tree).similarity).tolist() == [3] * 8  # codes 000 to 111
        assert_render_matches_oracle(tree)

    def test_caterpillar_has_the_deepest_codes(self):
        n = 300
        merges = [(n, 0, 1, 1.0)]
        merges += [(n + k - 1, n + k - 2, k, float(k)) for k in range(2, n)]
        tree = HCTree(tuple(f"u{i}" for i in range(n)), tuple(merges))
        assert leaf_codes(tree).similarity[0, 0] == n - 1
        assert_render_matches_oracle(tree)


class TestTreeCsvOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.0, 1e-10, 1e6]) | st.floats(0, 1e6),
                 min_size=n - 1, max_size=n - 1))))
    def test_matches_per_line_oracle(self, case):
        seed, heights = case
        tree = random_merge_tree(len(heights) + 1, np.random.default_rng(seed))
        tree = HCTree(tree.leaf_labels, tuple(
            (node, left, right, h) for (node, left, right, _), h in zip(tree.merges, heights)))
        assert stage_cluster_texts(tree)["tree"] == oracle_tree_csv(tree)

    def test_extreme_heights(self):
        merges = ((4, 0, 1, 0.0), (5, 2, 3, 1e-10), (6, 4, 5, 1e6))
        assert stage_cluster_texts(HCTree(("a", "b", "c", "d"), merges))["tree"] == (
            "node_id,left_child,right_child,height\n4,0,1,0.000000000\n"
            "5,2,3,0.000000000\n6,4,5,1000000.000000000\n")

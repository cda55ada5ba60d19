"""Feature fusion via K-means and Ward.D2 hierarchical clustering.

Fusion collapses a block of serially dependent numeric features (e.g.
left30..left70) into one categorical feature: each complete row is
assigned the index of its K-means cluster, rows with any NA get label 0.
Columns are standardized first so no single span dominates the distance.

Hierarchical clustering uses plain Euclidean distances between rows and
the Lance-Williams Ward.D2 update. The resulting binary merge tree gets
a deterministic 0/1 coding: at every internal node the child containing
the smaller original leaf index is the left (0) child, and a leaf's code
is its root-to-leaf path. The shared-prefix length of two codes is the
tree-distance similarity.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ComputationError


@dataclass(frozen=True)
class FusedFeature:
    """K-means labels of a feature block, plus the fit that produced them."""

    name: str
    source_columns: tuple[str, ...]
    k: int
    labels: np.ndarray  # per-row label in 0..k, 0 = row had NA
    centroids: np.ndarray  # (k, d) in standardized source space
    seed: int
    inertia: float


@dataclass(frozen=True)
class HCTree:
    """Binary merge tree; leaves 0..n-1, internal nodes n..2n-2.

    ``merges[m]`` = (node_id, left, right, height); child order already
    follows the smaller-min-leaf-goes-left rule.
    """

    leaf_labels: tuple[str, ...]
    merges: tuple[tuple[int, int, int, float], ...]

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)

    @property
    def root(self) -> int:
        return self.merges[-1][0]

    def children(self) -> dict[int, tuple[int, int]]:
        return {node: (left, right) for node, left, right, _ in self.merges}


@dataclass(frozen=True)
class LeafCodes:
    """Per-leaf binary path codes and the common-prefix similarity matrix."""

    leaf_labels: tuple[str, ...]
    codes: tuple[str, ...]
    similarity: np.ndarray  # (n, n) ints
    leaf_order: tuple[int, ...]  # left-to-right traversal order


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = x[rng.integers(n)]
        else:
            centroids[i] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centroids[i]) ** 2, axis=1))
    return centroids


#: Lloyd iterations per K-means restart.
_MAX_ITER = 300


def _lloyd(x: np.ndarray, centroids: np.ndarray):
    k = centroids.shape[0]
    labels = np.full(x.shape[0], -1)
    for _ in range(_MAX_ITER):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = x[mask].mean(axis=0)
            else:
                # re-seed an empty cluster at the point worst served so far
                worst = int(np.argmax(d2[np.arange(len(labels)), labels]))
                centroids[c] = x[worst]
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(labels)), labels].sum())
    return labels, centroids, inertia


def kmeans_fuse(
    matrix: np.ndarray,
    column_names: Sequence[str],
    name: str,
    k: int = 4,
    seed: int = 0,
    restarts: int = 100,
) -> FusedFeature:
    """Fuse the columns of ``matrix`` (rows = units, NaN = NA) into one
    k-category feature via repeated seeded k-means++ / Lloyd runs.

    The best restart by within-cluster sum of squares wins (ties to the
    lower restart index); labels are renumbered 1..k by ascending
    first-occurrence row index, NA rows get 0.
    """
    matrix = np.asarray(matrix, dtype=float)
    complete = ~np.isnan(matrix).any(axis=1)
    x = matrix[complete]
    if x.shape[0] < k:
        raise ComputationError(
            f"{name}: only {x.shape[0]} complete rows for k={k}"
        )
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    xs = (x - mean) / sd

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centroids = _kmeans_pp_init(xs, k, rng)
        labels, centroids, inertia = _lloyd(xs, centroids)
        if best is None or inertia < best[2] - 1e-12:
            best = (labels, centroids, inertia)
    labels, centroids, inertia = best

    # renumber clusters by first appearance so the labeling is canonical
    remap: dict[int, int] = {}
    for lab in labels:
        if int(lab) not in remap:
            remap[int(lab)] = len(remap) + 1
    for c in range(k):
        if c not in remap:
            remap[c] = len(remap) + 1
    new_labels = np.array([remap[int(l)] for l in labels])
    order = sorted(range(k), key=lambda c: remap[c])
    centroids = centroids[order]

    full = np.zeros(matrix.shape[0], dtype=int)
    full[complete] = new_labels
    return FusedFeature(
        name=name,
        source_columns=tuple(column_names),
        k=k,
        labels=full,
        centroids=centroids,
        seed=seed,
        inertia=inertia,
    )


def hcluster_ward(
    matrix: np.ndarray, leaf_labels: Sequence[str]
) -> tuple[HCTree, list[str]]:
    """Agglomerative Ward.D2 tree over the rows of ``matrix``.

    Initial dissimilarities are Euclidean distances; cluster distances
    follow the Lance-Williams Ward.D2 update on squared distances, and
    merge heights are the (unsquared) distances at which clusters join.
    Rows containing NaN are excluded and returned as the second element.
    Merge ties break on the smallest minimum original leaf index.
    """
    matrix = np.asarray(matrix, dtype=float)
    labels = list(leaf_labels)
    complete = ~np.isnan(matrix).any(axis=1)
    excluded = [labels[i] for i in range(len(labels)) if not complete[i]]
    x = matrix[complete]
    kept = [labels[i] for i in range(len(labels)) if complete[i]]
    n = x.shape[0]
    if n < 2:
        raise ComputationError(f"need at least 2 complete rows, got {n}")

    # squared Euclidean distances between the clusters held in each slot; a
    # cluster sits in the slot of its smallest leaf, and the diagonal and
    # slots merged away hold inf
    d2 = np.empty((n, n))
    for a in range(0, n, 64):  # in row blocks: no n x n x d difference array
        d2[a:a + 64] = ((x[a:a + 64, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    size = np.ones(n)
    node = np.arange(n)
    merges = []
    prev_height = 0.0
    for step in range(n - 1):
        # d2 is symmetric, so its first minimum in row-major order is the
        # tied pair with the smallest (min leaf, max leaf), and i < j
        i, j = divmod(int(np.argmin(d2)), n)
        if i == j:  # the closest live clusters are inf apart: take the lowest two
            i, j = np.flatnonzero(size)[:2]
        height = float(np.sqrt(d2[i, j]))
        if height < prev_height - 1e-9:
            warnings.warn(
                f"Ward.D2 height inversion at merge {step}: "
                f"{height:.6g} < {prev_height:.6g}"
            )
        prev_height = max(prev_height, height)
        merges.append((n + step, int(node[i]), int(node[j]), height))

        # Lance-Williams in the scalar operation order; empty slots stay inf
        dij, ni, nj, nk = d2[i, j], size[i], size[j], size
        dnew = ((ni + nk) * d2[i] + (nj + nk) * d2[j] - nk * dij) / (ni + nj + nk)
        d2[i] = d2[:, i] = np.where(size > 0, dnew, np.inf)
        d2[j] = d2[:, j] = d2[i, i] = np.inf
        size[i], size[j] = ni + nj, 0
        node[i] = n + step

    return HCTree(leaf_labels=tuple(kept), merges=tuple(merges)), excluded


def leaf_codes(tree: HCTree) -> LeafCodes:
    """Binary path codes (left=0, right=1) and common-prefix similarity.

    In traversal order the codes are sorted, so leaves p < q of that order
    share the smallest common prefix of the adjacent pairs between them:
    each similarity row is one running minimum.
    """
    children = tree.children()
    codes: dict[int, str] = {}
    order: list[int] = []
    # shared[p]: common-prefix length of traversal leaves p - 1 and p. A right
    # child's first leaf shares its parent's prefix with the leaf before it; a
    # left child's first leaf is its parent's.
    shared: list[int] = []

    stack = [(tree.root, "", 0)]
    while stack:
        node, prefix, lcp = stack.pop()
        if node in children:
            left, right = children[node]
            # push right first so left is visited first
            stack.append((right, prefix + "1", len(prefix)))
            stack.append((left, prefix + "0", lcp))
        else:
            codes[node] = prefix
            order.append(node)
            shared.append(lcp)

    n = tree.n_leaves
    adjacent = np.array(shared[1:], dtype=int)
    tsim = np.diag(np.array([len(codes[i]) for i in order], dtype=int))
    for p in range(n - 1):
        tsim[p, p + 1:] = tsim[p + 1:, p] = np.minimum.accumulate(adjacent[p:])
    sim = np.empty_like(tsim)
    sim[np.ix_(order, order)] = tsim
    return LeafCodes(
        leaf_labels=tree.leaf_labels,
        codes=tuple(codes[i] for i in range(n)),
        similarity=sim,
        leaf_order=tuple(order),
    )


def similarity_csv(codes: LeafCodes) -> str:
    """Similarity matrix as CSV, rows/columns in tree leaf order."""
    order = list(codes.leaf_order)
    labels = [codes.leaf_labels[i] for i in order]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["unit"] + labels)
    writer.writerows([label] + row for label, row in
                     zip(labels, codes.similarity[np.ix_(order, order)].tolist()))
    return buf.getvalue()


#: Heatmap cell side and the margin left for unit labels, in SVG pixels.
_CELL, _LABEL_SPACE = 12, 70


def similarity_svg(codes: LeafCodes) -> str:
    """Deterministic grayscale heatmap SVG in tree leaf order."""
    order = codes.leaf_order
    n = len(order)
    max_sim = max(1, int(codes.similarity.max()))
    width = _LABEL_SPACE + n * _CELL + 10
    height = _LABEL_SPACE + n * _CELL + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<style>text { font-family: monospace; font-size: 8px; }</style>',
    ]
    # each <rect> joins its column's head, its row's y and its value's tail
    heads = [f'<rect x="{_LABEL_SPACE + c * _CELL}" y="' for c in range(n)]
    shades = [int(round(255 * (1.0 - v / max_sim))) for v in range(max_sim + 1)]
    tails = [f'" width="{_CELL}" height="{_CELL}" fill="rgb({s},{s},{s})"/>' for s in shades]
    for r, row in enumerate(codes.similarity[np.ix_(order, order)].tolist()):
        y = repeat(str(_LABEL_SPACE + r * _CELL))
        parts.append("\n".join(map("".join, zip(heads, y, map(tails.__getitem__, row)))))
    for r, i in enumerate(order):
        # escaped by hand: xml.sax.saxutils imports urllib.request, which
        # would lengthen every CLI start
        label = codes.leaf_labels[i].replace("&", "&amp;").replace("<", "&lt;")
        label = label.replace(">", "&gt;")
        y = _LABEL_SPACE + r * _CELL + _CELL - 2
        parts.append(f'<text x="2" y="{y}">{label}</text>')
        x = _LABEL_SPACE + r * _CELL + 2
        parts.append(
            f'<text x="{x}" y="{_LABEL_SPACE - 4}" '
            f'transform="rotate(-90 {x} {_LABEL_SPACE - 4})">{label}</text>'
        )
    parts.append("</svg>\n")  # a trailing `+ "\n"` would copy the whole text
    return "\n".join(parts)


def tree_csv(tree: HCTree) -> str:
    """Merge records as ``node_id,left_child,right_child,height`` lines."""
    lines = ["node_id,left_child,right_child,height"]
    for node, left, right, height in tree.merges:
        lines.append(f"{node},{left},{right},{height:.9f}")
    return "\n".join(lines) + "\n"


def root_partition(tree: HCTree) -> tuple[set[int], set[int]]:
    """Leaf index sets of the two subtrees under the root."""
    children = tree.children()

    def leaves(node: int) -> set[int]:
        if node not in children:
            return {node}
        l, r = children[node]
        return leaves(l) | leaves(r)

    left, right = children[tree.root]
    return leaves(left), leaves(right)

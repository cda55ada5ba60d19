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

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ComputationError


@dataclass(frozen=True)
class FusedFeature:
    """K-means labels of a feature block, plus the fit that produced them."""

    source_columns: tuple[str, ...]
    labels: np.ndarray  # per-row label in 0..k, 0 = row had NA
    centroids: np.ndarray  # (k, d) in standardized source space
    inertia: float
    converged: bool  # the winning restart's labels repeated within _MAX_ITER updates


@dataclass(frozen=True)
class HCTree:
    """Binary merge tree; leaves 0..n-1, internal nodes n..2n-2.

    ``merges[m]`` = (node_id, left, right, height), the root's merge last;
    child order already follows the smaller-min-leaf-goes-left rule.
    """

    leaf_labels: tuple[str, ...]
    merges: tuple[tuple[int, int, int, float], ...]


@dataclass(frozen=True)
class LeafCodes:
    """Common-prefix similarity of the leaves' binary path codes."""

    similarity: np.ndarray  # (n, n) ints
    leaf_order: tuple[int, ...]  # left-to-right traversal order


#: Lloyd iterations per K-means restart.
_MAX_ITER = 300

#: Cells (restarts x rows x max(k, columns)) the K-means kernel holds per
#: block of restarts; bounds its working memory whatever the restart count.
KMEANS_CELLS = 1 << 16


def _sq_dist(xt: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(R, k, n) squared distances of the columns of ``xt`` (d, n) to
    ``centroids`` (R, k, d), the d terms added in the order of numpy's
    last-axis ``sum``: in sequence below 8 terms, else as eight interleaved
    partial sums combined pairwise, then the rest in sequence."""
    def term(j):
        t = xt[j] - centroids[:, :, j, None]
        return np.square(t, out=t)

    d = len(xt)
    terms = map(term, range(d))
    if d < 8:
        out = next(terms)
    else:
        part = [next(terms) for _ in range(8)]
        for j in range(8, d - d % 8):
            part[j % 8] += next(terms)
        out = (((part[0] + part[1]) + (part[2] + part[3]))
               + ((part[4] + part[5]) + (part[6] + part[7])))
    for t in terms:
        out += t
    return out


def _kmeans_block(x: np.ndarray, k: int, rngs: list):
    """k-means++ seeding and Lloyd for one generator per restart, the
    restarts in lockstep until each one's labels repeat (or ``_MAX_ITER``).
    Returns labels (R, n), centroids (R, k, d), inertias (R,) and whether
    each restart's labels repeated (R,)."""
    (n, d), xt = x.shape, np.ascontiguousarray(x.T)
    centroids = np.empty((len(rngs), k, d))
    centroids[:, 0] = x[[rng.integers(n) for rng in rngs]]
    d2 = _sq_dist(xt, centroids[:, :1])[:, 0]
    for i in range(1, k):
        total = d2.sum(axis=1)
        p = np.divide(d2, total[:, None], out=np.zeros_like(d2), where=total[:, None] > 0)
        centroids[:, i] = x[[rng.integers(n) if t <= 0 else rng.choice(n, p=row)
                             for rng, t, row in zip(rngs, total, p)]]
        d2 = np.minimum(d2, _sq_dist(xt, centroids[:, i:i + 1])[:, 0])

    final = np.empty((len(rngs), n), dtype=int)
    inertia = np.empty(len(rngs))
    converged = np.empty(len(rngs), dtype=bool)
    live = np.arange(len(rngs))
    labels = np.full((len(rngs), n), -1)
    weights = np.tile(x.ravel(), len(rngs))  # x once per restart, for the bincount
    for it in range(_MAX_ITER + 1):
        d2 = _sq_dist(xt, centroids[live])
        new = np.zeros_like(labels)
        nearest = d2[:, 0].copy()
        for c in range(1, k):  # argmin over the clusters: the first nearest wins
            new[d2[:, c] < nearest] = c
            np.minimum(nearest, d2[:, c], out=nearest)
        repeated = (new == labels).all(axis=1)
        done = repeated | (it == _MAX_ITER)
        final[live[done]] = new[done]
        inertia[live[done]] = nearest[done].sum(axis=1)
        converged[live[done]] = repeated[done]
        live, labels, nearest = live[~done], new[~done], nearest[~done]
        if not live.size:
            break
        # every centroid sum from one bincount keyed on (restart, cluster,
        # column), which adds the rows in order as mean(axis=0) does
        cell = labels + k * np.arange(live.size)[:, None]
        counts = np.bincount(cell.ravel(), minlength=live.size * k).reshape(-1, k)
        sums = np.bincount((cell[..., None] * d + np.arange(d)).ravel(),
                           weights[:cell.size * d], live.size * k * d)
        means = sums.reshape(-1, k, d) / np.maximum(counts, 1)[..., None]
        if d == 1:  # numpy sums a single column pairwise, not in row order
            for r, c in zip(*np.nonzero(counts)):
                means[r, c] = x[labels[r] == c].mean(axis=0)
        # re-seed an empty cluster at the point worst served so far
        r, c = np.nonzero(counts == 0)
        means[r, c] = x[nearest.argmax(axis=1)[r]]
        centroids[live] = means
    return final, centroids, inertia, converged


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
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        xs = (x - mean) / sd
    if not (np.isfinite(sd).all() and np.isfinite(xs).all()):
        raise ComputationError(f"{name}: column spread overflows float64")

    block = max(1, KMEANS_CELLS // (len(xs) * max(k, xs.shape[1])))
    best = None
    for lo in range(0, restarts, block):
        rngs = [np.random.default_rng([seed, r]) for r in range(lo, min(lo + block, restarts))]
        for fit in zip(*_kmeans_block(xs, k, rngs)):
            if best is None or fit[2] < best[2] - 1e-12:
                best = fit
    labels, centroids, inertia, converged = best

    # renumber clusters by first appearance so the labeling is canonical;
    # clusters that hold no row follow in index order
    first = np.full(k, len(labels))
    seen, at = np.unique(labels, return_index=True)
    first[seen] = at
    order = np.argsort(first, kind="stable")
    remap = np.empty(k, dtype=int)
    remap[order] = np.arange(1, k + 1)

    full = np.zeros(matrix.shape[0], dtype=int)
    full[complete] = remap[labels]
    return FusedFeature(source_columns=tuple(column_names), labels=full,
                        centroids=centroids[order], inertia=float(inertia),
                        converged=bool(converged))


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
    for step in range(n - 1):
        # d2 is symmetric, so its first minimum in row-major order is the
        # tied pair with the smallest (min leaf, max leaf), and i < j
        i, j = divmod(int(np.argmin(d2)), n)
        if i == j:  # the closest live clusters are inf apart: take the lowest two
            i, j = np.flatnonzero(size)[:2]
        height = float(np.sqrt(d2[i, j]))
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
    """Common-prefix similarity of the binary path codes (left=0, right=1).

    A leaf's code is as long as its depth, so no code is built. In traversal
    order the codes are sorted, so leaves p < q of that order share the
    smallest common prefix of the adjacent pairs between them: each
    similarity row is one running minimum.
    """
    children = {node: (left, right) for node, left, right, _ in tree.merges}
    # (leaf, depth, common-prefix length with the leaf before it) in traversal
    # order. A right child's first leaf shares its parent's depth with the leaf
    # before it; a left child's first leaf shares its parent's.
    leaves = []
    stack = [(tree.merges[-1][0], 0, 0)]
    while stack:
        node, depth, lcp = stack.pop()
        if node in children:
            left, right = children[node]
            # push right first so left is visited first
            stack.append((right, depth + 1, depth))
            stack.append((left, depth + 1, lcp))
        else:
            leaves.append((node, depth, lcp))
    order, depths, shared = zip(*leaves)

    adjacent = np.array(shared[1:], dtype=int)
    tsim = np.diag(np.array(depths, dtype=int))
    for p in range(len(order) - 1):
        tsim[p, p + 1:] = tsim[p + 1:, p] = np.minimum.accumulate(adjacent[p:])
    sim = np.empty_like(tsim)
    sim[np.ix_(order, order)] = tsim
    return LeafCodes(similarity=sim, leaf_order=order)


#: Heatmap cell side and the margin left for unit labels, in SVG pixels.
_CELL, _LABEL_SPACE = 12, 70


def similarity_svg(labels: Sequence[str], rows: Sequence[Sequence[int]]) -> str:
    """Deterministic grayscale heatmap SVG of a similarity matrix whose
    ``rows`` and columns, like ``labels``, are already in tree leaf order."""
    n = len(labels)
    max_sim = max(1, max(map(max, rows)))
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
    for r, row in enumerate(rows):
        y = repeat(str(_LABEL_SPACE + r * _CELL))
        parts.append("\n".join(map("".join, zip(heads, y, map(tails.__getitem__, row)))))
    for r, label in enumerate(labels):
        # escaped by hand: xml.sax.saxutils imports urllib.request, which
        # would lengthen every CLI start
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        y = _LABEL_SPACE + r * _CELL + _CELL - 2
        parts.append(f'<text x="2" y="{y}">{label}</text>')
        x = _LABEL_SPACE + r * _CELL + 2
        parts.append(
            f'<text x="{x}" y="{_LABEL_SPACE - 4}" '
            f'transform="rotate(-90 {x} {_LABEL_SPACE - 4})">{label}</text>'
        )
    parts.append("</svg>\n")  # a trailing `+ "\n"` would copy the whole text
    return "\n".join(parts)


def root_partition(tree: HCTree) -> tuple[set[int], set[int]]:
    """Leaf index sets of the two subtrees under the root: every merge below
    the root unions its children's sets."""
    *below, (_, left, right, _) = tree.merges
    leaves = {}
    for node, a, b, _ in below:
        leaves[node] = leaves.pop(a, {a}) | leaves.pop(b, {b})
    return leaves.get(left, {left}), leaves.get(right, {right})

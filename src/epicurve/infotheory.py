"""Discretization, contingency tables, and entropy-based association.

All entropies are Shannon entropies in bits (log base 2). Re-scaled
conditional entropy H(X|Y)/H(X) is base-invariant, so the base is only
observable in raw-entropy outputs.

NA values map to category 0 and participate in contingency tables as an
ordinary category: a right-censored feature is information, not missing
data to be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ComputationError

ROWS_GIVEN_COLS = "rows|cols"
COLS_GIVEN_ROWS = "cols|rows"


class DegenerateColumnWarning(UserWarning):
    """Column has too few distinct values for the requested binning."""


@dataclass(frozen=True)
class ContingencyTable:
    """r x c count table; the substrate for all entropy computations."""

    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    counts: np.ndarray  # shape (r, c), non-negative ints

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def discretize(
    values: Iterable[Optional[float]], n_bins: int = 4
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Quartile-bin a real column into categories 1..n_bins; NA (None or
    NaN) -> 0.

    Bin edges sit at the interior percentiles (linear interpolation);
    bins are left-closed with the last bin right-closed. Columns with
    fewer than n_bins distinct values fall back to distinct-value bins.
    Returns (categories, edges); edges is None for the fallback path.
    """
    v = np.asarray(list(values), dtype=float)
    if v.size == 0:
        raise ComputationError("empty column")
    na = np.isnan(v)
    present = v[~na]
    if present.size == 0:
        raise ComputationError("column is all NA")

    distinct = np.unique(present)
    if distinct.size < n_bins:
        cats, edges = 1 + np.searchsorted(distinct, v), None
    else:
        qs = [100.0 * k / n_bins for k in range(1, n_bins)]
        edges = np.percentile(present, qs)
        cats = 1 + (v[:, None] >= edges).sum(axis=1)
    cats[na] = 0
    return cats, edges


def entropy(counts: Iterable[float]) -> float:
    """Shannon entropy (bits) of the empirical distribution of counts."""
    c = np.asarray(list(counts), dtype=float)
    if np.any(c < 0):
        raise ComputationError("negative count")
    total = c.sum()
    if total <= 0:
        raise ComputationError("all-zero counts")
    p = c[c > 0] / total
    return float(-np.sum(p * np.log2(p)))


def conditional_entropy(t: ContingencyTable, direction: str = COLS_GIVEN_ROWS) -> float:
    """H(col|row) (default) or H(row|col), in bits.

    The count-weighted mean of the per-row (per-column) cell-distribution
    entropies; satisfies the chain rule H(X,Y) = H(X) + H(Y|X) exactly.
    """
    if direction not in (ROWS_GIVEN_COLS, COLS_GIVEN_ROWS):
        raise ComputationError(f"unknown direction {direction!r}")
    counts = t.counts.T if direction == ROWS_GIVEN_COLS else t.counts
    n = int(counts.sum())
    if n < 1:
        raise ComputationError("empty table")
    r, c = np.nonzero(counts)
    starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    return float(_grouped_entropy(counts[r, c], starts, np.zeros_like(starts), n)[0])


#: Cells (feature sets x units) counted per batch by the entropy kernel;
#: bounds its working memory whatever the number of sets.
BATCH_CELLS = 1 << 14

#: Keys are re-coded densely before a batch's cell ids could overflow int64.
_KEY_LIMIT = 1 << 62

#: Cell ids per counted cell above which a batch re-codes them before counting.
_SPACE_PER_CELL = 8


def _dense(x) -> np.ndarray:
    """Codes 0..r-1 of the values of ``x``, in ascending value order."""
    return np.unique(x, return_inverse=True)[1].reshape(np.shape(x))


def _conditional_entropies(y, columns, sets, first_seen: bool = True,
                           targets=None) -> np.ndarray:
    """H(Y | F) in bits for every feature set F: the joint-count kernel.

    ``columns`` is a (p, n) array of small non-negative integer codes and
    ``sets`` an (m, k) array of indices into its rows. ``y`` is one response,
    or, given ``targets``, a (q, n) table of them: set s is scored against
    row ``targets[s]``. Each set's columns are encoded as one mixed-radix
    key per unit, and sets are counted by one ``np.bincount`` per
    BATCH_CELLS cells, each batch gathering only its own response rows.
    The floating-point operations are those of the scalar definition, in
    its order: the groups of F, and the Y cells within a group, in
    first-occurrence order (ascending label order, as in a
    ContingencyTable, when ``first_seen`` is false).
    """
    y = _dense(np.asarray(y, dtype=int))
    if y.size == 0:
        raise ComputationError("empty columns")
    sets = np.asarray(sets, dtype=int)
    radix = columns.max(axis=1) + 1
    step = max(1, BATCH_CELLS // y.shape[-1])
    out = np.empty(len(sets))
    for lo in range(0, len(sets), step):
        idx = sets[lo:lo + step]
        keys = columns[idx[:, 0]]
        for j in range(1, idx.shape[1]):
            r = radix[idx[:, j]]
            if keys.max() >= _KEY_LIMIT // (r.max() * len(idx) * (y.max() + 1)):
                keys = _dense(keys)
            keys = keys * r[:, None] + columns[idx[:, j]]
        rows = y if targets is None else y[targets[lo:lo + step]]
        out[lo:lo + step] = _batch_entropies(rows, keys, first_seen)
    return out


def _batch_entropies(y: np.ndarray, keys: np.ndarray, first_seen: bool) -> np.ndarray:
    """H(Y | key) per row of ``keys`` (m, n), from one ``np.bincount`` of all
    cell ids, whose occupied bins come in id order: grouped by row and key
    with no sort. Ids over _SPACE_PER_CELL per cell are first re-coded to
    their ranks, which keeps that order."""
    m, n = keys.shape
    ny = int(y.max()) + 1
    span = int(keys.max()) + 1
    cell = ((np.arange(m)[:, None] * span + keys) * ny + y).reshape(-1)
    ids = None
    if m * span * ny > _SPACE_PER_CELL * cell.size:
        ids, cell = np.unique(cell, return_inverse=True)
    counts = np.bincount(cell)
    occupied = np.flatnonzero(counts)
    counts = counts[occupied]
    group = (occupied if ids is None else ids) // ny
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    if first_seen:
        first = np.full(occupied[-1] + 1, cell.size)
        np.minimum.at(first, cell, np.arange(cell.size))
        first = first[occupied]
        group_first = np.minimum.reduceat(first, starts)
        rank = np.repeat(group_first, np.diff(np.r_[starts, counts.size]))
        order = np.lexsort((first, rank))
        counts, group = counts[order], group[order]
        starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    return _grouped_entropy(counts, starts, group[starts] // span, n)


def _grouped_entropy(counts, starts, owner, n: int) -> np.ndarray:
    """Per owner, the sum over its groups of (n_g / n) * H(group's cells).

    Group g's counts are contiguous from ``starts[g]``; ``owner`` (sorted,
    0..m-1) tells whose it is. A group entropy is one np.sum, as in
    ``entropy``, and an owner's terms are added one by one from +0.0.
    """
    lengths = np.diff(np.r_[starts, counts.size])
    n_g = np.add.reduceat(counts, starts)
    p = counts / np.repeat(n_g, lengths)
    plogp = p * np.log2(p)
    h = np.empty(starts.size)
    for length in np.flatnonzero(np.bincount(lengths)):
        sel = np.flatnonzero(lengths == length)
        h[sel] = -np.sum(plogp[starts[sel, None] + np.arange(length)], axis=1)
    pos = np.arange(starts.size) - np.searchsorted(owner, owner)
    terms = np.zeros((owner[-1] + 1, pos.max() + 1))
    terms[owner, pos] = n_g / n * h
    return np.cumsum(terms, axis=1)[:, -1] + 0.0


def rescaled_ce(t: ContingencyTable, direction: str = COLS_GIVEN_ROWS) -> float:
    """Conditional entropy divided by the target margin's entropy, in [0, 1]."""
    margin = t.col_sums if direction == COLS_GIVEN_ROWS else t.row_sums
    h_target = entropy(margin)
    if h_target == 0.0:
        raise ComputationError("degenerate target margin (zero entropy)")
    return conditional_entropy(t, direction) / h_target


def association_matrices(columns) -> tuple[np.ndarray, np.ndarray]:
    """Directed and mutual re-scaled CEs of a ``{name: int array}`` table.

    ``directed[i, j]`` is H(X_j | X_i) / H(X_j): how much of feature j's
    uncertainty survives knowing feature i. ``mutual`` is the symmetric
    average of the two directions. Diagonals are 0.
    """
    p = len(columns)
    if p < 2:
        raise ComputationError("need at least 2 feature columns")
    cells = np.array(list(columns.values()), dtype=int)
    h = np.array([entropy(np.bincount(column)) for column in cells])
    for name, h_j in zip(columns, h):
        if h_j == 0.0:
            raise ComputationError(f"degenerate column {name!r} (zero entropy)")
    i, j = np.nonzero(~np.eye(p, dtype=bool))
    directed = np.zeros((p, p))
    directed[i, j] = _conditional_entropies(
        cells, cells, i[:, None], first_seen=False, targets=j) / h[j]
    mutual = 0.5 * (directed + directed.T)
    np.fill_diagonal(mutual, 0.0)
    return directed, mutual


def threshold_network(names, matrix, tau: float, directed: bool, name: str) -> str:
    """DOT text of the network with an edge i -> j wherever the array entry
    ``matrix[i, j]`` is <= tau, weighted 1 - entry, in row-major order; an
    undirected network takes the upper triangle only."""
    if not 0.0 <= tau <= 1.0:
        raise ComputationError(f"threshold {tau} outside [0, 1]")
    keep = matrix <= tau
    np.fill_diagonal(keep, False)
    if not directed:
        keep = np.triu(keep)
    kind, arrow = ("digraph", "->") if directed else ("graph", "--")
    lines = [f"{kind} {name} {{", *(f'    "{node}";' for node in names)]
    lines += [f'    "{names[i]}" {arrow} "{names[j]}" [weight={1.0 - matrix[i, j]:.6f}];'
              for i, j in zip(*np.nonzero(keep))]
    lines.append("}")
    return "\n".join(lines) + "\n"


def odds_ratio(t: ContingencyTable) -> tuple[float, float, float]:
    """Per-row odds counts[i][1]/counts[i][0] of a 2x2 table and their ratio."""
    if t.counts.shape != (2, 2):
        raise ComputationError("odds ratio needs a 2x2 table")
    if t.counts[0, 0] == 0 or t.counts[1, 0] == 0:
        raise ComputationError("zero cell in a denominator position")
    odds1 = t.counts[0, 1] / t.counts[0, 0]
    odds2 = t.counts[1, 1] / t.counts[1, 0]
    return float(odds1), float(odds2), float(odds1 / odds2)

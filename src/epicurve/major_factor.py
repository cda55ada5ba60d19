"""Major-factor selection for a categorical response.

Scans condition the response on single features (order 1), feature
pairs (order 2) and triples (order 3), ranking by conditional entropy.
Whether an entropy drop is real or a finite-sample artifact is judged
against a permutation null: the candidate column is shuffled, destroying
any link to the response while keeping its margin, and the resulting
drops form the noise baseline.

SCE-drop of a feature set is the smallest conditional-entropy reduction
any single member contributes over the set without it; for singletons it
coincides with the plain CE-drop. A pair whose SCE-drop beats both the
weaker member's singleton drop and the larger of the members' noise
baselines is classed as an order-2 (interaction) effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from . import infotheory
from .errors import ComputationError
from .infotheory import _conditional_entropies, _dense, entropy

ORDER1 = "order1"
ORDER1_PAIR = "order1-pair"
ORDER2_INTERACTION = "order2-interaction"
REDUNDANT = "redundant"
INSIGNIFICANT = "insignificant"

#: Numerical slack for comparing entropies.
EPS = 1e-9


@dataclass(frozen=True)
class FeatureSetResult:
    """Conditional-entropy result for one feature set (all values in bits,
    plus the response-rescaled CE for reporting)."""

    feature_names: tuple[str, ...]
    ce: float
    rescaled_ce: float
    ce_drop: float
    sce_drop: float


@dataclass(frozen=True, eq=False)
class Level(Sequence):
    """One order of a scan as arrays in ranked order: each set's (m, k) member
    indices into the sorted candidate ``names`` and its values, one array per
    FeatureSetResult field. Indexing builds FeatureSetResults, so only the rows
    read cost an object."""

    names: tuple[str, ...]
    sets: np.ndarray
    ce: np.ndarray
    rescaled_ce: np.ndarray
    ce_drop: np.ndarray
    sce_drop: np.ndarray

    def __len__(self) -> int:
        return len(self.ce)

    def __getitem__(self, i: int) -> FeatureSetResult:
        return FeatureSetResult(tuple(self.names[j] for j in self.sets[i].tolist()), *(
            float(v[i]) for v in (self.ce, self.rescaled_ce, self.ce_drop, self.sce_drop)))


@dataclass(frozen=True)
class NullDropStats:
    """Mean and 95th percentile of the permutation-null entropy drop from one candidate."""

    mean: float
    q95: float


def _encode(y: Sequence[int], cols) -> tuple[np.ndarray, np.ndarray]:
    """The response as an int array and the columns as a (p, n) code matrix."""
    y = np.asarray(y, dtype=int)
    cols = [np.asarray(c, dtype=int) for c in cols]
    for c in cols:
        if len(c) != len(y):
            raise ComputationError(f"length mismatch: {len(c)} vs {len(y)}")
    return y, np.array([_dense(c) for c in cols])


def _marginal_entropy(y: np.ndarray) -> float:
    _, counts = np.unique(y, return_counts=True)
    return entropy(counts)


def joint_conditional_entropy(y: Sequence[int], cols: Sequence[Sequence[int]]) -> float:
    """H(Y | F) in bits, on the joint table over observed category tuples of F."""
    if len(cols) == 0:
        raise ComputationError("empty feature set")
    y, columns = _encode(y, cols)
    return float(_conditional_entropies(y, columns, [range(len(cols))])[0])


def scan(y: Sequence[int], candidates: dict[str, Sequence[int]], order: int) -> list[Level]:
    """CE of the response given every candidate set of 1..order features.

    Returns one Level per set size, ranked ascending by CE with ties broken
    on feature names, so the ranking is independent of the candidates' input
    order. Each SCE-drop is gathered from the CEs of the level one size down
    (H(Y) for singletons), so no CE is counted twice.
    """
    if not candidates:
        raise ComputationError("no candidates")
    names = tuple(sorted(candidates))
    y, columns = _encode(y, [candidates[name] for name in names])
    h_y, p = _marginal_entropy(y), len(names)
    # the CEs of the level below and its dense (p,) * (k - 1) index from a set's
    # members to its row there; below order 1 is H(Y) alone
    below, row = np.array([h_y]), np.zeros((), dtype=int)
    levels = []
    for k in range(1, order + 1):
        # combinations over sorted names come in name order, so a stable sort
        # on CE breaks ties on names
        sets = np.array(list(combinations(range(p), k)), dtype=int).reshape(-1, k)
        ce = _conditional_entropies(y, columns, sets)
        sce_drop = np.minimum.reduce(
            [below[row[tuple(np.delete(sets, i, axis=1).T)]] - ce for i in range(k)])
        rescaled_ce = ce / h_y if h_y > 0 else np.zeros_like(ce)
        rank = np.argsort(ce, kind="stable")
        levels.append(Level(names, sets[rank], *(
            v[rank] for v in (ce, rescaled_ce, h_y - ce, sce_drop))))
        if k < order:
            below, row = ce, np.zeros((p,) * k, dtype=int)
            row[tuple(sets.T)] = np.arange(len(sets))
    return levels


def scan_order1(
    y: Sequence[int], candidates: dict[str, Sequence[int]]
) -> list[FeatureSetResult]:
    """CE of the response given each single candidate, ranked ascending."""
    return list(scan(y, candidates, 1)[0])


def scan_order2(
    y: Sequence[int], candidates: dict[str, Sequence[int]]
) -> list[FeatureSetResult]:
    """CE of the response given each unordered candidate pair, ranked ascending."""
    if len(candidates) < 2:
        raise ComputationError("need at least 2 candidates")
    return list(scan(y, candidates, 2)[1])


#: Hash constants of numpy's SeedSequence (bit_generator.pyx) and the PCG64 multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix of uint32 columns, its constant advanced by each call."""
    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hash_


def _pcg64_states(entropy: np.ndarray):
    """Yields the PCG64 state of ``default_rng(row)`` for each row of the (m, w) uint32
    ``entropy``: SeedSequence's mix_entropy and generate_state(4, uint64) run on
    whole columns, then pcg_setseq_128_srandom_r on each row's four words."""
    hash_ = _hasher(_INIT_A, _MULT_A)
    pool = [hash_(column) for column in np.pad(entropy, ((0, 0), (0, 4)))[:, :4].T]
    # mix every pool word into the others, then each entropy word past the pool into all
    for src in range(max(4, entropy.shape[1])):
        for dst in (d for d in range(4) if d != src):
            mixed = _MIX_L * pool[dst] - _MIX_R * hash_(entropy[:, src] if src >= 4 else pool[src])
            pool[dst] = mixed ^ mixed >> np.uint32(16)
    hash_ = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hash_(pool[i % 4]) for i in range(8)], 1)
    for s_hi, s_lo, i_hi, i_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        yield {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}


def permutation_orders(seeds: Sequence[int], replicates: int, n: int) -> dict:
    """{(seed, replicates): (replicates, n) null row orders} in the smallest unsigned
    dtype holding n - 1: ``column[orders[r]]`` is ``default_rng([seed, r]).permutation(column)``.
    The generator states of all replicates of seeds with equally many 32-bit words are
    computed in one pass, and each is set on one reused generator that shuffles its
    row of ``arange(n)``, as ``permutation(n)`` does."""
    by_width: dict[int, list[int]] = {}
    for s in dict.fromkeys(int(s) for s in seeds):
        if s < 0:
            raise ComputationError(f"seed must be >= 0, got {s}")
        by_width.setdefault(max(1, -(-s.bit_length() // 32)), []).append(s)
    generator, orders = np.random.Generator(np.random.PCG64(0)), {}
    for width, group in by_width.items():
        words = [[s >> 32 * i & 0xFFFFFFFF for i in range(width)] for s in group]
        states = _pcg64_states(np.column_stack([
            np.repeat(np.array(words, dtype=np.uint32), replicates, axis=0),
            np.tile(np.arange(replicates, dtype=np.uint32), len(group))]))
        for s in group:
            orders[(s, replicates)] = block = np.tile(
                np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0))), (replicates, 1))
            for row in block:
                generator.bit_generator.state = next(states)
                generator.shuffle(row)
    return orders


def noise_thresholds(y: Sequence[int], existing: Sequence[Sequence[int]],
                     candidates: Sequence[Sequence[int]], replicates: int,
                     seeds: Sequence[int], orders: dict) -> tuple[np.ndarray, np.ndarray]:
    """(mean, q95) arrays in candidate order of the permutation-null drop each candidate
    contributes: replicate r of the candidate with seed s shuffles it by row r of
    ``orders[(s, replicates)]``, drawn into ``orders`` when absent; counted about
    BATCH_CELLS cells at a time."""
    if replicates < 1:
        raise ComputationError("replicates must be >= 1")
    y, columns = _encode(y, list(existing) + list(candidates))
    e = len(existing)
    base = (float(_conditional_entropies(y, columns[:e], [range(e)])[0]) if e
            else _marginal_entropy(y))
    orders.update(permutation_orders([s for s in seeds if (s, replicates) not in orders],
                                     replicates, y.size))
    drops = np.empty((len(candidates), replicates))
    step = max(1, infotheory.BATCH_CELLS // max(y.size, 1))
    for lo in range(0, drops.size, step):
        c, r = np.divmod(np.arange(lo, min(lo + step, drops.size)), replicates)
        rows = np.concatenate([orders[(seeds[i], replicates)][r[c == i]] for i in np.unique(c)])
        sets = np.column_stack([np.tile(np.arange(e), (len(c), 1)), e + np.arange(len(c))])
        drops.flat[lo:lo + len(c)] = base - _conditional_entropies(
            y, np.vstack([columns[:e], columns[e + c[:, None], rows]]), sets)
    return drops.mean(axis=1), np.percentile(drops, 95, axis=1)


def noise_threshold(y: Sequence[int], existing: Sequence[Sequence[int]], candidate: Sequence[int],
                    replicates: int = 200, seed: int = 0) -> NullDropStats:
    """Permutation-null stats for the drop contributed by one candidate."""
    mean, q95 = noise_thresholds(y, existing, [candidate], replicates, [seed], {})
    return NullDropStats(float(mean[0]), float(q95[0]))


def pair_classes(pairs, member_ce: np.ndarray, member_drop: np.ndarray,
                 member_q95: np.ndarray) -> np.ndarray:
    """Class each pair of a Level of pairs, or one FeatureSetResult, from
    (m, 2) arrays of its members' singleton CE, singleton drop and
    permutation-null q95. Each pair gets the first of these that holds:

    * order2-interaction: the pair's SCE-drop exceeds both the weaker
      member's singleton drop, ``min(drop_i, drop_j)``, and the larger of
      the two noise q95 baselines.
    * redundant: some member is individually significant, and the weaker
      member adds less than its noise baseline on top of the stronger one.
    * order1-pair: both members individually significant and the joint
      drop at most additive (two concurrent order-1 factors).
    * insignificant: everything else.
    """
    sig = member_drop > member_q95 + EPS  # each member individually significant
    # incremental drop of the weaker member on top of the stronger one
    i_stronger = member_drop[:, 0] >= member_drop[:, 1]
    weak_inc = np.where(i_stronger, member_ce[:, 0], member_ce[:, 1]) - pairs.ce
    weak_q95 = np.where(i_stronger, member_q95[:, 1], member_q95[:, 0])
    return np.select([
        (pairs.sce_drop > member_drop.min(axis=1) + EPS)
        & (pairs.sce_drop > member_q95.max(axis=1) + EPS),
        sig.any(axis=1) & (weak_inc <= weak_q95 + EPS),
        sig.all(axis=1) & (pairs.ce_drop <= member_drop.sum(axis=1) + EPS),
    ], [ORDER2_INTERACTION, REDUNDANT, ORDER1_PAIR], INSIGNIFICANT)


def classify_pair(result_pair: FeatureSetResult, result_i: FeatureSetResult,
                  result_j: FeatureSetResult, null_i: NullDropStats, null_j: NullDropStats) -> str:
    """The class of one pair, from its members' singleton results and nulls."""
    return str(pair_classes(result_pair, np.array([[result_i.ce, result_j.ce]]),
                            np.array([[result_i.sce_drop, result_j.sce_drop]]),
                            np.array([[null_i.q95, null_j.q95]]))[0])


def factor_report(
    scan1: Sequence[FeatureSetResult],
    scan2: Sequence[FeatureSetResult],
    top_k: int = 5,
    bottom_k: int = 1,
) -> tuple[str, str]:
    """Side-by-side ranked tables of 1-feature and 2-feature scans, as
    ``(text, markdown)`` from one row selection and one pass over the widths.

    Columns: ``1-feature, CE, SCE-drop, 2-feature, CE, SCE-drop`` with
    re-scaled CE at 4 decimals; top_k head rows plus bottom_k tail rows,
    each clamped to the rows a scan has.
    """
    if not scan1 or not scan2:
        raise ComputationError("empty scan")

    def pick(scan):
        k_top = min(top_k, len(scan))
        k_bot = min(bottom_k, len(scan) - k_top)
        return [scan[i] for i in [*range(k_top), *range(len(scan) - k_bot, len(scan))]]

    sel1, sel2 = pick(scan1), pick(scan2)
    n = max(len(sel1), len(sel2))

    def cells(sel, i):
        if i < len(sel):
            r = sel[i]
            return ["_".join(r.feature_names), f"{r.rescaled_ce:.4f}",
                    f"{r.sce_drop:.4f}"]
        return ["", "", ""]

    header = ["1-feature", "CE", "SCE-drop", "2-feature", "CE", "SCE-drop"]
    table = [cells(sel1, i) + cells(sel2, i) for i in range(n)]
    widths = [max(len(row[c]) for row in [header, *table]) for c in range(6)]

    def pad(row):
        return [cell.ljust(w) for cell, w in zip(row, widths)]

    text = ["  ".join(pad(header)).rstrip(), "-" * (sum(widths) + 2 * 5),
            *("  ".join(pad(row)).rstrip() for row in table)]
    markdown = ["| " + " | ".join(header) + " |",
                "|" + "|".join("-" * (w + 2) for w in widths) + "|",
                *("| " + " | ".join(pad(row)) + " |" for row in table)]
    return "\n".join(text) + "\n", "\n".join(markdown) + "\n"

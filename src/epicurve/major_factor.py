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


def scan(
    y: Sequence[int], candidates: dict[str, Sequence[int]], order: int
) -> list[list[FeatureSetResult]]:
    """CE of the response given every candidate set of 1..order features.

    Returns one list per set size, each ranked ascending by CE with ties
    broken on feature names, so the ranking is independent of the
    candidates' input order. Each SCE-drop comes from the CEs of the
    subsets one size down (H(Y) for singletons), so no CE is counted twice.
    """
    if not candidates:
        raise ComputationError("no candidates")
    names = sorted(candidates)
    y, columns = _encode(y, [candidates[name] for name in names])
    h_y = _marginal_entropy(y)
    ce = {(): h_y}
    levels = []
    for k in range(1, order + 1):
        sets = list(combinations(range(len(names)), k))
        values = _conditional_entropies(y, columns, np.reshape(sets, (-1, k)))
        level = []
        for s, v in zip(sets, values.tolist()):
            ce[s] = v
            level.append(FeatureSetResult(
                feature_names=tuple(names[i] for i in s),
                ce=v,
                rescaled_ce=v / h_y if h_y > 0 else 0.0,
                ce_drop=h_y - v,
                sce_drop=min(ce[s[:i] + s[i + 1:]] - v for i in range(k)),
            ))
        levels.append(sorted(level, key=lambda r: (r.ce, r.feature_names)))
    return levels


def scan_order1(
    y: Sequence[int], candidates: dict[str, Sequence[int]]
) -> list[FeatureSetResult]:
    """CE of the response given each single candidate, ranked ascending."""
    return scan(y, candidates, 1)[0]


def scan_order2(
    y: Sequence[int], candidates: dict[str, Sequence[int]]
) -> list[FeatureSetResult]:
    """CE of the response given each unordered candidate pair, ranked ascending."""
    if len(candidates) < 2:
        raise ComputationError("need at least 2 candidates")
    return scan(y, candidates, 2)[1]


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
                     seeds: Sequence[int], orders: dict) -> list[NullDropStats]:
    """Permutation-null stats of the drop each candidate contributes: replicate r of
    the candidate with seed s shuffles it by row r of ``orders[(s, replicates)]``, drawn
    into ``orders`` when absent; counted about BATCH_CELLS cells at a time."""
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
    return [NullDropStats(mean, q95) for mean, q95 in zip(
        drops.mean(axis=1).tolist(), np.percentile(drops, 95, axis=1).tolist())]


def noise_threshold(y: Sequence[int], existing: Sequence[Sequence[int]], candidate: Sequence[int],
                    replicates: int = 200, seed: int = 0) -> NullDropStats:
    """Permutation-null stats for the drop contributed by one candidate."""
    return noise_thresholds(y, existing, [candidate], replicates, [seed], {})[0]


def classify_pair(
    result_pair: FeatureSetResult,
    result_i: FeatureSetResult,
    result_j: FeatureSetResult,
    null_i: NullDropStats,
    null_j: NullDropStats,
) -> str:
    """Classify a candidate pair against its members' singleton results.

    ``null_i``/``null_j`` are the singleton permutation nulls of the two
    members. Classification:

    * order2-interaction: the pair's SCE-drop exceeds both the weaker
      member's singleton drop, ``min(drop_i, drop_j)``, and the larger of
      the two noise q95 baselines.
    * order1-pair: both members individually significant and the joint
      drop at most additive (two concurrent order-1 factors).
    * redundant: the weaker member adds less than its noise baseline on
      top of the stronger one.
    * insignificant: everything else.
    """
    drop_i, drop_j = result_i.sce_drop, result_j.sce_drop
    sig_i = drop_i > null_i.q95 + EPS
    sig_j = drop_j > null_j.q95 + EPS
    sce_pair = result_pair.sce_drop
    q95_max = max(null_i.q95, null_j.q95)

    if sce_pair > min(drop_i, drop_j) + EPS and sce_pair > q95_max + EPS:
        return ORDER2_INTERACTION

    # incremental drop of the weaker member on top of the stronger one
    if drop_i >= drop_j:
        weak_inc = result_i.ce - result_pair.ce
        weak_null = null_j
    else:
        weak_inc = result_j.ce - result_pair.ce
        weak_null = null_i
    if (sig_i or sig_j) and weak_inc <= weak_null.q95 + EPS:
        return REDUNDANT

    if sig_i and sig_j and result_pair.ce_drop <= drop_i + drop_j + EPS:
        return ORDER1_PAIR

    return INSIGNIFICANT


def factor_report(
    scan1: Sequence[FeatureSetResult],
    scan2: Sequence[FeatureSetResult],
    top_k: int = 5,
    bottom_k: int = 1,
    markdown: bool = False,
) -> str:
    """Side-by-side ranked table of 1-feature and 2-feature scans.

    Columns: ``1-feature, CE, SCE-drop, 2-feature, CE, SCE-drop`` with
    re-scaled CE at 4 decimals; top_k head rows plus bottom_k tail rows,
    each clamped to the rows a scan has.
    """
    if not scan1 or not scan2:
        raise ComputationError("empty scan")

    def pick(scan):
        k_top = min(top_k, len(scan))
        k_bot = min(bottom_k, len(scan) - k_top)
        return list(scan[:k_top]) + list(scan[len(scan) - k_bot:])

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

    def fmt(row, sep):
        return sep.join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()

    if markdown:
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        lines += ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
                  for row in table]
    else:
        lines = [fmt(header, "  "), "-" * (sum(widths) + 2 * 5)]
        lines += [fmt(row, "  ") for row in table]
    return "\n".join(lines) + "\n"

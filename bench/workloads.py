"""Benchmark workloads: seeded synthetic cohorts and their pipeline configs.

The generator lives here, not in the test helpers, so that a change to the
test suite cannot silently change what the benchmark measures. The program
under test only ever sees the ``cases.csv``, ``meta.csv`` and
``config.yaml`` written by :func:`write_inputs`.

Each workload stresses one layer of the pipeline (see README.md in this
directory for why each exists). The cohort properties the code branches on
are set per workload:

* boundary-peak units, whose peak lies outside the study window, so the
  curvature-dependent features are NA and a warning is issued;
* left- and right-censored units, whose curve starts above or ends above a
  crossing level, so single crossings are NA;
* duplicated units, whose rates equal an earlier unit's exactly, so their
  feature rows tie in K-means and Ward;
* ``region`` and ``status`` drawn independently: region drives the rise
  speed and status the decline speed and height.
"""

from __future__ import annotations

import csv
import datetime as dt
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

WINDOW_START = dt.date(2022, 3, 25)
WINDOW_END = dt.date(2022, 8, 19)
WINDOW_DAYS = (WINDOW_END - WINDOW_START).days + 1  # 149
#: Days of data before the window, so every run exercises window clipping.
LEAD_DAYS = 5

LEFT = [f"left{a}" for a in range(90, 10, -10)]
RIGHT = [f"right{a}" for a in range(90, 10, -10)]
#: The 19 categorical features of ``categorical.csv`` (README names).
CATEGORICAL = ["peakdate", "peakvalue", "peak"] + LEFT + RIGHT
FUSION = {
    "name": "left30to70",
    "columns": ["left30", "left40", "left50", "left60", "left70"],
    "k": 4,
    "seed": 11,
    "restarts": 100,
}
LIGHT_CANDIDATES = ["left30to70", "left80", "right50", "peakvalue"]


@dataclass(frozen=True)
class Workload:
    """One benchmark input: cohort shape plus the pipeline config it runs."""

    name: str
    units: int
    boundary_share: float  # peak before or after the window
    left_censor_share: float  # curve starts at 32-45 % of its peak
    right_censor_share: float  # curve ends at 12-35 % of its peak
    duplicate_share: float  # copies of a plain unit (x2 counts and population)
    fusions: tuple
    responses: tuple
    clusterings: tuple

    def config(self) -> dict:
        return {
            "cases": "cases.csv",
            "metadata": "meta.csv",
            "output": "out",
            "window": {"start": WINDOW_START.isoformat(),
                       "end": WINDOW_END.isoformat()},
            "n_bins": 4,
            "thresholds": [0.6, 0.7],
            "fusions": [dict(f) for f in self.fusions],
            "responses": [dict(r) for r in self.responses],
            "clusterings": [dict(c) for c in self.clusterings],
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cohort-wide",
            units=700,
            boundary_share=0.06,
            left_censor_share=0.25,
            right_censor_share=0.30,
            duplicate_share=0.05,
            fusions=(FUSION,),
            responses=(
                {"response": "region", "candidates": LIGHT_CANDIDATES,
                 "order": 2, "replicates": 50, "seed": 5, "top": 3, "bottom": 1},
            ),
            clusterings=(),
        ),
        Workload(
            name="scan-deep",
            units=60,
            boundary_share=0.10,
            left_censor_share=0.30,
            right_censor_share=0.30,
            duplicate_share=0.05,
            fusions=(FUSION,),
            responses=(
                {"response": "region", "candidates": CATEGORICAL + ["left30to70"],
                 "order": 3, "replicates": 50, "seed": 5, "top": 5, "bottom": 1},
                {"response": "status", "candidates": CATEGORICAL + ["left30to70"],
                 "order": 2, "replicates": 50, "seed": 7, "top": 5, "bottom": 1},
            ),
            clusterings=(),
        ),
        Workload(
            name="ward-tall",
            units=180,
            boundary_share=0.03,
            left_censor_share=0.10,
            right_censor_share=0.15,
            duplicate_share=0.30,
            fusions=(FUSION,),
            responses=(
                {"response": "region", "candidates": LIGHT_CANDIDATES,
                 "order": 2, "replicates": 50, "seed": 5, "top": 3, "bottom": 1},
            ),
            clusterings=(
                {"name": "left", "columns": LEFT},
                {"name": "right", "columns": RIGHT},
            ),
        ),
    )
}


def _exact(n: int, share: float) -> int:
    return int(round(n * share))


def write_inputs(w: Workload, seed: int, dirpath: Path, units: int | None = None) -> dict:
    """Write the cohort and config for ``(w, seed)``; return what was written.

    The same workload, seed and size always give byte-identical files. Each
    unit kind comes in an exact number, not a random one, so the work a
    cohort causes (rows Ward keeps, say) does not drift from seed to seed.
    """
    n = w.units if units is None else units
    rng = np.random.default_rng([zlib.crc32(w.name.encode()), seed])
    early, late, left, right, dups, plain = np.split(rng.permutation(n), np.cumsum([
        _exact(n, w.boundary_share / 2), _exact(n, w.boundary_share / 2),
        _exact(n, w.left_censor_share), _exact(n, w.right_censor_share),
        _exact(n, w.duplicate_share)]))
    north = rng.permutation(n) < n // 2
    urban = rng.permutation(n) < n // 2

    # Interior curves rise from a low base no earlier than day 12 and fall
    # to a low floor by day 138, so both 90 %-of-peak crossings exist and
    # every crossing is observed unless the unit is censored by design.
    # Four rise-speed classes, two per region, give the fused left30..left70
    # block real cluster structure, so K-means converges in a similar number
    # of iterations for every seed.
    fast = rng.permutation(n) < n // 2
    rise = np.where(north, np.where(fast, rng.uniform(10, 11, n), rng.uniform(19, 21, n)),
                    np.where(fast, rng.uniform(30, 32, n), rng.uniform(44, 47, n)))
    decline = np.where(urban, rng.uniform(25, 45, n), rng.uniform(45, 70, n))
    height = np.where(urban, rng.uniform(260, 420, n), rng.uniform(200, 320, n))
    peak_day = 12 + rise + rng.random(n) * (126 - rise - decline)
    # Boundary curves are still falling at the window start, or still
    # rising at its end, so their smoothed peak is on the window edge.
    peak_day[early] = rng.uniform(-20, -8, early.size)
    decline[early] = rng.uniform(60, 100, early.size)
    peak_day[late] = rng.uniform(150, 175, late.size)
    rise[late] = rng.uniform(40, 70, late.size)
    base = rng.uniform(0.0, 0.05, n)
    base[left] = rng.uniform(0.32, 0.45, left.size)
    floor = rng.uniform(0.0, 0.04, n)
    floor[right] = rng.uniform(0.12, 0.35, right.size)

    t = np.arange(-LEAD_DAYS, WINDOW_DAYS, dtype=float)[None, :]
    p, r, d = peak_day[:, None], rise[:, None], decline[:, None]
    b, f = base[:, None], floor[:, None]
    up = np.clip((t - (p - r)) / r, 0.0, 1.0)
    down = np.clip((t - p) / d, 0.0, 1.0)
    rates = height[:, None] * np.where(t <= p, b + (1 - b) * up ** 1.5,
                                       f + (1 - f) * (1 - down) ** 1.2)
    population = np.clip(rng.lognormal(np.log(150_000), 0.6, n), 40_000, 1_500_000)
    population = population.astype(np.int64)
    counts = rng.poisson(rates * population[:, None] / 100_000.0).astype(np.int64)
    age = np.where(rng.random(n) < 0.3, rng.integers(1, 5, n), 0)

    # A duplicate doubles a plain unit's counts and population, which leaves
    # its per-100k rates, and so every feature, bit-identical.
    for i, src in zip(dups, rng.choice(plain, dups.size)):
        counts[i] = 2 * counts[src]
        population[i] = 2 * population[src]
        north[i], urban[i], age[i] = north[src], urban[src], age[src]

    dirpath.mkdir(parents=True, exist_ok=True)
    days = [(WINDOW_START + dt.timedelta(days=k - LEAD_DAYS)).isoformat()
            for k in range(WINDOW_DAYS + LEAD_DAYS)]
    unit_ids = []
    with open(dirpath / "cases.csv", "w", newline="") as cfh, \
            open(dirpath / "meta.csv", "w", newline="") as mfh:
        cases, meta = csv.writer(cfh), csv.writer(mfh)
        cases.writerow(["unit_id", "date", "count"])
        meta.writerow(["unit_id", "city_code", "district_letter", "age_group",
                       "population", "region", "status"])
        for i in range(n):
            city = ("TP", "NL")[i % 2] if north[i] else ("KS", "SL")[i % 2]
            letter = "abcdefghijkl"[i % 12]
            unit = f"{city}{letter}{i:04d}"
            unit_ids.append(unit)
            cases.writerows(zip([unit] * len(days), days, counts[i].tolist()))
            meta.writerow([unit, city, letter, int(age[i]) or "", int(population[i]),
                           "North" if north[i] else "South",
                           "Urban" if urban[i] else "Suburban"])
    with open(dirpath / "config.yaml", "w") as fh:
        yaml.safe_dump(w.config(), fh, sort_keys=False)
    return {"config": dirpath / "config.yaml", "units": sorted(unit_ids)}

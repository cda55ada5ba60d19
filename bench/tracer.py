"""Traced run: spans and counts recorded around the package's public functions.

The package carries no tracing code. For one traced repetition, every
public function of the six pipeline modules is replaced, in every module
that references it, by a wrapper; the originals are put back afterwards.

* Functions in ``SPANNED`` record a span (name, start, end, parent) each
  call. ``major_factor.joint_conditional_entropy`` records one only when
  called from another layer (the order-3 scan inside ``pipeline``); inside
  the ``major_factor`` scans it runs tens of thousands of times per run.
* Every wrapped function counts its calls. A few also add counts derived
  from their arguments or result (rows parsed, replicates, Ward merges...).
* Warnings are recorded by class with ``warnings.catch_warnings``.

A layer's self time is the time inside its spans not covered by their
child spans, which always belong to another layer or to a named
``pipeline`` reader or writer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

LAYERS = ("ingest", "curve_features", "infotheory", "major_factor",
          "cluster_fuse", "pipeline")
STAGES = ("features", "associate", "fuse", "select", "cluster")
JCE = "major_factor.joint_conditional_entropy"

SPANNED = {
    "ingest.parse_case_series", "ingest.parse_unit_metadata",
    "ingest.compute_daily_rates",
    "curve_features.smooth", "curve_features.extract_features",
    "infotheory.discretize", "infotheory.association_matrices",
    "infotheory.threshold_network",
    "major_factor.scan_order1", "major_factor.scan_order2",
    "major_factor.noise_threshold", "major_factor.classify_pair",
    "major_factor.factor_report", JCE,
    "cluster_fuse.kmeans_fuse", "cluster_fuse.hcluster_ward",
    "cluster_fuse.leaf_codes", "cluster_fuse.tree_csv",
    "cluster_fuse.similarity_csv", "cluster_fuse.similarity_svg",
    "pipeline.read_features_csv", "pipeline.read_categorical_csv",
    "pipeline.write_manifest",
} | {f"pipeline.stage_{s}" for s in STAGES}

#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("ingest.parse_case_series_s", "s", "lower"),
    ("ingest.parse_unit_metadata_s", "s", "lower"),
    ("ingest.compute_daily_rates_s", "s", "lower"),
    ("ingest.rows_parsed", "count", "lower"),
    ("ingest.bytes_read", "B", "lower"),
    ("ingest.self_s", "s", "lower"),
    ("curve_features.smooth_s", "s", "lower"),
    ("curve_features.extract_features_s", "s", "lower"),
    ("curve_features.find_peak_calls_per_unit", "calls/unit", "lower"),
    ("curve_features.boundary_peak_warnings", "count", "lower"),
    ("curve_features.na_cells", "count", "lower"),
    ("curve_features.self_s", "s", "lower"),
    ("infotheory.discretize_s", "s", "lower"),
    ("infotheory.association_matrices_s", "s", "lower"),
    ("infotheory.threshold_network_s", "s", "lower"),
    ("infotheory.tables", "count", "lower"),
    ("infotheory.entropy_calls", "count", "lower"),
    ("infotheory.degenerate_column_warnings", "count", "lower"),
    ("infotheory.self_s", "s", "lower"),
    ("major_factor.scan_order1_s", "s", "lower"),
    ("major_factor.scan_order2_s", "s", "lower"),
    ("major_factor.noise_threshold_s", "s", "lower"),
    ("major_factor.order3_s", "s", "lower"),
    ("major_factor.classify_pair_s", "s", "lower"),
    ("major_factor.ce_evals", "count", "lower"),
    ("major_factor.ce_unique_frac", "ratio", "higher"),
    ("major_factor.replicates", "count", "lower"),
    ("major_factor.self_s", "s", "lower"),
    ("cluster_fuse.kmeans_fuse_s", "s", "lower"),
    ("cluster_fuse.kmeans_restarts", "count", "lower"),
    ("cluster_fuse.hcluster_ward_s", "s", "lower"),
    ("cluster_fuse.ward_merges", "count", "lower"),
    ("cluster_fuse.ward_excluded_rows", "count", "lower"),
    ("cluster_fuse.height_inversion_warnings", "count", "lower"),
    ("cluster_fuse.leaf_codes_s", "s", "lower"),
    ("cluster_fuse.similarity_csv_s", "s", "lower"),
    ("cluster_fuse.similarity_svg_s", "s", "lower"),
    ("cluster_fuse.svg_bytes", "B", "lower"),
    ("cluster_fuse.self_s", "s", "lower"),
    *((f"pipeline.{s}.self_s", "s", "lower") for s in STAGES),
    ("pipeline.read_features_csv_s", "s", "lower"),
    ("pipeline.read_categorical_csv_s", "s", "lower"),
    ("pipeline.write_manifest_s", "s", "lower"),
    ("pipeline.artifacts", "count", "lower"),
    ("pipeline.bytes_written", "B", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0


def _public_functions():
    """(qualified name, layer, module, function) of every public function."""
    for layer in LAYERS:
        module = importlib.import_module(f"epicurve.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                yield f"{layer}.{name}", layer, obj


def _digest(column) -> bytes:
    return hashlib.blake2b(np.asarray(column, dtype=np.int64).tobytes(),
                           digest_size=16).digest()


class TracedRun:
    """Spans, counts and warnings of one traced call of ``run(cfg)``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.warnings: Counter = Counter()
        self._stack: list[Span] = []
        self._ce_sets: set = set()
        self._hooks = {
            "ingest.parse_case_series": self._cases_parsed,
            "ingest.parse_unit_metadata": self._meta_parsed,
            "curve_features.extract_features": self._na_cells,
            JCE: self._ce_set,
            "major_factor.noise_threshold": self._replicates,
            "cluster_fuse.kmeans_fuse": self._restarts,
            "cluster_fuse.hcluster_ward": self._ward,
            "cluster_fuse.similarity_svg": self._svg,
        }

    # -- counts derived from arguments and results -------------------------

    def _cases_parsed(self, args, result):
        self.counts["ingest.rows_parsed"] += sum(len(s.counts) for s in result.values())
        self.counts["ingest.bytes_read"] += os.path.getsize(args["path"])

    def _meta_parsed(self, args, result):
        self.counts["ingest.rows_parsed"] += len(result)
        self.counts["ingest.bytes_read"] += os.path.getsize(args["path"])

    def _na_cells(self, args, result):
        self.counts["curve_features.na_cells"] += sum(
            v is None for v in result.as_row().values())

    def _ce_set(self, args, result):
        self._ce_sets.add((_digest(args["y"]),
                           tuple(sorted(_digest(c) for c in args["cols"]))))

    def _replicates(self, args, result):
        self.counts["major_factor.replicates"] += args["replicates"]

    def _restarts(self, args, result):
        self.counts["cluster_fuse.kmeans_restarts"] += args["restarts"]

    def _ward(self, args, result):
        tree, excluded = result
        self.counts["cluster_fuse.ward_merges"] += len(tree.merges)
        self.counts["cluster_fuse.ward_excluded_rows"] += len(excluded)

    def _svg(self, args, result):
        self.counts["cluster_fuse.svg_bytes"] += len(result.encode())

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, qual: str, layer: str, fn):
        spanned = qual in SPANNED
        hook = self._hooks.get(qual)
        signature = inspect.signature(fn)
        counts, stack, spans = self.counts, self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qual] += 1
            if not spanned or (qual == JCE and stack and stack[-1].layer == layer):
                result = fn(*args, **kwargs)
            else:
                span = Span(len(spans), qual, layer, stack[-1].id if stack else None)
                spans.append(span)
                stack.append(span)
                span.start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    def __call__(self, run, cfg):
        """Call ``run(cfg)`` with every public function wrapped."""
        originals = {fn: (qual, layer) for qual, layer, fn in _public_functions()}
        wrappers = {fn: self._wrap(qual, layer, fn)
                    for fn, (qual, layer) in originals.items()}
        patched = []
        for layer in LAYERS:
            module = importlib.import_module(f"epicurve.{layer}")
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    patched.append((module, name, obj))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run(cfg)
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)
        for w in caught:
            self.warnings[w.category.__name__] += 1
            if str(w.message).startswith("Ward.D2 height inversion"):
                self.counts["cluster_fuse.height_inversions"] += 1
        return result

    # -- metrics -------------------------------------------------------------

    def metrics(self, artifacts: int, bytes_written: int) -> dict:
        """Per-layer metrics of this run, except ``trace.overhead_s``."""
        covered = Counter()
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        inclusive, own = Counter(), Counter()
        for s in self.spans:
            inclusive[s.name] += s.end - s.start
            own[s.layer] += s.end - s.start - covered[s.id]
            if s.name.startswith("pipeline.stage_"):
                own[s.name] += s.end - s.start - covered[s.id]
        c, w = self.counts, self.warnings
        values = {f"{q}_s": inclusive[q] for q in SPANNED}
        values.update({f"{layer}.self_s": own[layer] for layer in LAYERS})
        values.update({f"pipeline.{s}.self_s": own[f"pipeline.stage_{s}"]
                       for s in STAGES})
        values.update({
            "ingest.rows_parsed": c["ingest.rows_parsed"],
            "ingest.bytes_read": c["ingest.bytes_read"],
            "curve_features.find_peak_calls_per_unit":
                c["curve_features.find_peak"] / max(1, c["curve_features.extract_features"]),
            "curve_features.boundary_peak_warnings": w["BoundaryPeakWarning"],
            "curve_features.na_cells": c["curve_features.na_cells"],
            "infotheory.tables": c["infotheory.contingency"],
            "infotheory.entropy_calls": c["infotheory.entropy"],
            "infotheory.degenerate_column_warnings": w["DegenerateColumnWarning"],
            # Only boundary calls of the entropy scan carry spans: the
            # order-3 loop that pipeline runs itself.
            "major_factor.order3_s": inclusive[JCE],
            "major_factor.ce_evals": c[JCE],
            "major_factor.ce_unique_frac": len(self._ce_sets) / max(1, c[JCE]),
            "major_factor.replicates": c["major_factor.replicates"],
            "cluster_fuse.kmeans_restarts": c["cluster_fuse.kmeans_restarts"],
            "cluster_fuse.ward_merges": c["cluster_fuse.ward_merges"],
            "cluster_fuse.ward_excluded_rows": c["cluster_fuse.ward_excluded_rows"],
            "cluster_fuse.height_inversion_warnings": c["cluster_fuse.height_inversions"],
            "cluster_fuse.svg_bytes": c["cluster_fuse.svg_bytes"],
            "pipeline.artifacts": artifacts,
            "pipeline.bytes_written": bytes_written,
        })
        return {name: values[name] for name, _unit, _better in PER_LAYER
                if name in values}

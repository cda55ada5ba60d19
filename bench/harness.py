"""Measure one workload: staged pipeline runs, artifact checks, metrics.

A run generates the workload's cohort from the seed (untimed), times the
set-up a CLI invocation pays in fresh interpreters, runs
``pipeline.run_pipeline`` once as the reference and warm-up, then repeats
the staged run (one ``pipeline.stage_*`` call per configured stage, in
``run_pipeline`` order, then the manifest) until ``--seconds`` have passed.
Every stage call and every artifact check is one operation; an exception
or a mismatch is a failure, reported on stderr and counted.

With ``--trace 1`` the repetitions alternate between untraced and traced,
the per-layer metrics come from the traced ones, and all spans go to one
trace file under ``.bench_work/traces`` when the run ends.

The last line of stdout is the JSON result; the lines before it give each
metric by name and unit, the inputs' measured properties and the stamp.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from epicurve import pipeline

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = Path(__file__).with_name("pins.json")

#: Repetitions of the staged run at least, however short ``--seconds``.
MIN_REPS = 3
#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up).
SETUP_RUNS = 12

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("units_per_s", "1/s"),
    ("features_s", "s"),
    ("associate_s", "s"),
    ("select_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
import epicurve.cli
from epicurve import pipeline
pipeline.load_config(sys.argv[1])
print(time.perf_counter() - t)
"""


class Ledger:
    """Operations attempted and failed; every failure goes to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems


def configured_stages(cfg) -> list[str]:
    """Stages ``run_pipeline`` runs for ``cfg``, in its order."""
    optional = {"fuse": cfg.fusions, "select": cfg.responses,
                "cluster": cfg.clusterings}
    return [s for s in tracer.STAGES if optional.get(s, True)]


def staged_run(cfg) -> dict:
    """Run each configured stage as ``epicurve <stage>`` would, then the manifest."""
    times, errors = {}, {}
    start = time.perf_counter()
    for name in configured_stages(cfg) + ["manifest"]:
        fn = (pipeline.write_manifest if name == "manifest"
              else getattr(pipeline, f"stage_{name}"))
        t0 = time.perf_counter()
        try:
            fn(cfg)
        except Exception:  # counted and reported by check_run
            errors[name] = traceback.format_exc()
        times[name] = time.perf_counter() - t0
    times["total"] = time.perf_counter() - start
    return {"times": times, "errors": errors}


# ---------------------------------------------------------------------------
# artifact checks

def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _table_problems(path: Path, header, units, allowed) -> list[str]:
    rows = _rows(path)
    problems = []
    if rows[0] != list(header):
        problems.append(f"{path.name}: header {rows[0][:4]}...")
    if [r[0] for r in rows[1:]] != list(units):
        problems.append(f"{path.name}: unit column differs from the cohort")
    bad = sum(1 for r in rows[1:] for v in r[1:] if int(v) not in allowed)
    if bad:
        problems.append(f"{path.name}: {bad} cells outside {min(allowed)}..{max(allowed)}")
    return problems


def check_stage(name: str, cfg, units) -> list[str]:
    """Structural checks of the artifacts one stage wrote."""
    out = Path(cfg.output)
    problems = []
    try:
        if name == "features":
            rows = _rows(out / "features.csv")
            if [r[0] for r in rows[1:]] != list(units):
                problems.append("features.csv: unit column differs from the cohort")
            if {len(r) for r in rows} != {len(rows[0])}:
                problems.append("features.csv: ragged rows")
        elif name == "associate":
            problems += _table_problems(out / "categorical.csv",
                                        ["unit_id"] + workloads.CATEGORICAL, units,
                                        range(cfg.n_bins + 1))
            for kind in ("directed", "mutual"):
                rows = _rows(out / f"association_{kind}.csv")
                values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
                p = len(workloads.CATEGORICAL)
                if values.shape != (p, p) or np.any(np.diag(values) != 0):
                    problems.append(f"association_{kind}.csv: not a {p}x{p} zero-diagonal matrix")
                if np.any(values < 0) or np.any(values > 1 + 1e-6):
                    problems.append(f"association_{kind}.csv: value outside [0, 1]")
                for tau in cfg.thresholds:
                    if not (out / f"network_{kind}_{tau:g}.dot").is_file():
                        problems.append(f"network_{kind}_{tau:g}.dot missing")
        elif name == "fuse":
            problems += _table_problems(out / "fused.csv",
                                        ["unit_id"] + [f.name for f in cfg.fusions],
                                        units, range(max(f.k for f in cfg.fusions) + 1))
            for f in cfg.fusions:
                if len(_rows(out / f"fusion_{f.name}_centroids.csv")) != f.k + 1:
                    problems.append(f"fusion_{f.name}_centroids.csv: not {f.k} centroids")
        elif name == "select":
            for spec in cfg.responses:
                c = len(spec.candidates)
                expected = sum(math.comb(c, k) for k in range(1, spec.order + 1))
                got = len(_rows(out / f"scan_{spec.response}.csv")) - 1
                if got != expected:
                    problems.append(f"scan_{spec.response}.csv: {got} rows, expected {expected}")
                for ext in ("txt", "md"):
                    if spec.order >= 2 and not (out / f"report_{spec.response}.{ext}").is_file():
                        problems.append(f"report_{spec.response}.{ext} missing")
        elif name == "cluster":
            for spec in cfg.clusterings:
                excluded_path = out / f"excluded_{spec.name}.txt"
                excluded = (excluded_path.read_text().split()
                            if excluded_path.exists() else [])
                kept = len(units) - len(excluded)
                merges = len(_rows(out / f"tree_{spec.name}.csv")) - 1
                if merges != kept - 1:
                    problems.append(f"tree_{spec.name}.csv: {merges} merges for {kept} rows")
                sim = _rows(out / f"similarity_{spec.name}.csv")
                if len(sim) != kept + 1 or {len(r) for r in sim} != {kept + 1}:
                    problems.append(f"similarity_{spec.name}.csv: not {kept}x{kept}")
                with open(out / f"heatmap_{spec.name}.svg", encoding="utf-8") as fh:
                    if not fh.read(5) == "<svg ":
                        problems.append(f"heatmap_{spec.name}.svg: not an SVG")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"{name}: {exc!r}")
    return problems


def manifest_problems(out: Path) -> list[str]:
    """The manifest must list exactly the files present, with their digests."""
    try:
        listed = dict(reversed(line.split("  ", 1))
                      for line in (out / "manifest.txt").read_text().splitlines())
    except (OSError, ValueError) as exc:
        return [f"manifest.txt unreadable: {exc!r}"]
    present = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.txt"}
    problems = [f"{rel}: missing or unlisted" for rel in sorted(present ^ set(listed))]
    for rel in sorted(present & set(listed)):
        if hashlib.sha256((out / rel).read_bytes()).hexdigest() != listed[rel]:
            problems.append(f"{rel}: contents differ from its manifest entry")
    return problems


def manifest_digest(out: Path):
    path = out / "manifest.txt"
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def check_run(ledger: Ledger, cfg, run: dict, units, reference) -> None:
    """Count the stage calls and artifact checks of one staged run."""
    for name in run["times"]:
        if name != "total":
            ledger.record(f"stage {name}", [run["errors"][name]] if name in run["errors"] else [])
    for name in configured_stages(cfg):
        ledger.record(f"artifacts of {name}", check_stage(name, cfg, units))
    out = Path(cfg.output)
    ledger.record("manifest", manifest_problems(out))
    digest = manifest_digest(out)
    ledger.record("digest equals run_pipeline's",
                  [] if digest == reference else [f"{digest} != {reference}"])


# ---------------------------------------------------------------------------
# measurement

def measure_setup(config: Path, ledger: Ledger):
    """Seconds a fresh interpreter takes to import the CLI and load the config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)],
                              env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        ledger.record("setup", [repr(exc)])
        return None
    if not ledger.record("setup", [proc.stderr] if proc.returncode else []):
        return None
    return float(proc.stdout)


def cohort_properties(out: Path) -> dict:
    """Measured share of NA feature cells and of duplicated feature rows."""
    rows = _rows(out / "features.csv")
    cells = [r[2:] for r in rows[1:]]  # drop unit_id and peakdate
    na = sum(v == "" for r in cells for v in r)
    return {
        "na_cell_share": round(na / (len(cells) * len(cells[0])), 4),
        "duplicate_row_share": round(1 - len({tuple(r[1:]) for r in rows[1:]})
                                     / len(cells), 4),
    }


def stamp() -> dict:
    """Where the numbers come from: code version, interpreter, machine."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "epicurve").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
        units=None) -> dict:
    """Measure one workload; return metrics, operation counts and details."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ledger = Ledger()
    # Repetitions take turns on each allowed core: on a shared host one
    # vCPU is often slower than the other for tens of seconds, and the
    # fastest repetition should not depend on where the scheduler put us.
    cores = sorted(os.sched_getaffinity(0))
    try:
        inputs = workloads.write_inputs(workload, seed, work / "inputs", units)
        n_units = len(inputs["units"])
        base = pipeline.load_config(str(inputs["config"]))

        setup = []
        if not trace:
            measure_setup(inputs["config"], Ledger())  # warm bytecode caches
            for i in range(SETUP_RUNS):
                os.sched_setaffinity(0, {cores[i % len(cores)]})
                setup.append(measure_setup(inputs["config"], ledger))
            os.sched_setaffinity(0, cores)
            setup = [t for t in setup if t is not None]

        ref_cfg = dataclasses.replace(base, output=str(work / "reference"))
        try:
            pipeline.run_pipeline(ref_cfg)
            ledger.record("run_pipeline", [])
        except Exception:
            ledger.record("run_pipeline", [traceback.format_exc()])
        reference = manifest_digest(Path(ref_cfg.output))
        ledger.record("reference manifest", manifest_problems(Path(ref_cfg.output)))
        pinned = None
        if units is None or units == workload.units:
            pinned = load_pins().get(workload.name, {}).get(str(seed))
            if pinned is not None:
                ledger.record("digest equals pinned",
                              [] if reference == pinned else [f"{reference} != pinned {pinned}"])
        properties = cohort_properties(Path(ref_cfg.output)) if reference else {}
        shutil.rmtree(ref_cfg.output, ignore_errors=True)

        plain, traced, layers, spans, caught = [], [], [], [], []
        kinds = ("plain", "traced") if trace else ("plain",)
        start = time.perf_counter()
        rep = 0
        while rep < MIN_REPS or time.perf_counter() - start < seconds:
            os.sched_setaffinity(0, {cores[rep % len(cores)]})
            for kind in kinds:
                cfg = dataclasses.replace(base, output=str(work / f"rep{rep}-{kind}"))
                gc.collect()
                if kind == "plain":
                    plain.append(staged_run(cfg))
                    check_run(ledger, cfg, plain[-1], inputs["units"], reference)
                else:
                    probe = tracer.TracedRun()
                    traced.append(probe(staged_run, cfg))
                    check_run(ledger, cfg, traced[-1], inputs["units"], reference)
                    files = [p for p in Path(cfg.output).rglob("*") if p.is_file()]
                    layers.append(probe.metrics(len(files),
                                                sum(p.stat().st_size for p in files)))
                    spans += [[rep, s.id, s.name, s.parent, s.start, s.end]
                              for s in probe.spans]
                    caught.append(dict(probe.warnings))
                shutil.rmtree(cfg.output)
            rep += 1
    finally:
        os.sched_setaffinity(0, cores)
        shutil.rmtree(work, ignore_errors=True)

    def best(runs, key):
        return min(r["times"][key] for r in runs)

    total = best(plain, "total")
    if trace:
        metrics = {name: min(m[name] for m in layers)
                   for name, _unit, _better in tracer.PER_LAYER if name in layers[0]}
        metrics["trace.overhead_s"] = best(traced, "total") - total
        units_of = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = {
            "setup_s": min(setup) if setup else float("nan"),
            "total_s": total,
            "units_per_s": n_units / total,
            **{f"{s}_s": best(plain, s) for s in ("features", "associate", "select")},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = dict(END_TO_END)
    # Printed but not bounded: failed_frac is 0 on correct code, K-means
    # cost moves with each seed's data, and only ward-tall clusters.
    extra = {"failed_frac": (ledger.failed / ledger.attempted, "1"),
             "fuse_s": (best(plain, "fuse"), "s")}
    if base.clusterings:
        extra["cluster_s"] = (best(plain, "cluster"), "s")
    return {
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        "extra": extra,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "reps": len(plain),
        "units": n_units,
        "pinned": pinned,
        "reference": reference,
        "properties": properties,
        "spans": spans,
        "layers": layers,
        "warnings": caught,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=None,
                        help="cohort size override for smoke tests; no pinned digest")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    info = stamp()

    result = run(workload, args.seed, args.seconds, bool(args.trace), args.units)

    print(f"# workload {workload.name} seed {args.seed} units {result['units']} "
          f"trace {args.trace} reps {result['reps']}")
    print(f"# stamp {json.dumps(info, sort_keys=True)}")
    print(f"# inputs {json.dumps(result['properties'], sort_keys=True)}")
    pinned = ("unpinned" if result["pinned"] is None
              else "match" if result["pinned"] == result["reference"] else "MISMATCH")
    print(f"# manifest {result['reference']} pinned {pinned}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in result["extra"].items():
        print(f"{name:44s} {value:.6g} {unit}")
    if args.trace:
        trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed, "stamp": info,
                       "inputs": result["properties"],
                       "span_fields": ["rep", "id", "name", "parent", "start", "end"],
                       "spans": result["spans"], "per_rep": result["layers"],
                       "warnings_by_class": result["warnings"]}, fh)
        print(f"# trace {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0

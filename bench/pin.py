"""Recompute the pinned manifest digests in bench/pins.json.

    python3 bench/pin.py --seeds 0-199 [--workload cohort-wide ...]

A pinned digest is the sha256 of ``manifest.txt`` after
``pipeline.run_pipeline`` on the workload's cohort for that seed. Re-pin
only when a workload changes or a change to the program's outputs has been
accepted on its own merits, and say which and why in CHANGES.md.
"""

import argparse
import dataclasses
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    import harness
    import workloads
    from epicurve import pipeline

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    pins = harness.load_pins()
    warnings.simplefilter("ignore")
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in range(first, last + 1):
            work = harness.WORK / f"pin-{name}-{seed}-{os.getpid()}"
            try:
                inputs = workloads.write_inputs(workloads.WORKLOADS[name], seed, work / "inputs")
                cfg = dataclasses.replace(pipeline.load_config(str(inputs["config"])),
                                          output=str(work / "out"))
                pipeline.run_pipeline(cfg)
                problems = harness.manifest_problems(Path(cfg.output))
                if problems:
                    raise RuntimeError(f"{name} seed {seed}: {problems}")
                pins.setdefault(name, {})[str(seed)] = harness.manifest_digest(Path(cfg.output))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(name, seed, pins[name][str(seed)], flush=True)
        # Re-read before writing so two pinning processes on different
        # workloads do not overwrite each other's results.
        merged = harness.load_pins()
        merged[name] = dict(sorted(pins[name].items(), key=lambda kv: int(kv[0])))
        with open(harness.PINS, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(merged.items())), fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

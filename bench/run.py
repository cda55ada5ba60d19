"""Benchmark entry point; run from the repository root:

    python3 bench/run.py --workload cohort-wide --seed 1 --seconds 25 --trace 0

Workloads: cohort-wide, scan-deep, ward-tall (see bench/README.md).
``--trace 1`` prints the per-layer metrics instead of the end-to-end ones.
"""

import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported, here and in the
# set-up interpreters this process starts, so timings do not depend on how
# many cores the machine has.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

if __name__ == "__main__":
    if not (SRC / "epicurve" / "pipeline.py").is_file():
        print(f"benchmark: no epicurve sources under {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    from harness import main

    sys.exit(main())

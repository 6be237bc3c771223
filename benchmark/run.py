#!/usr/bin/env python3
"""jumprec benchmark entry point.

    python3 benchmark/run.py --workload large-M --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` beside this directory; nothing is
installed.  BLAS and OpenMP pools are pinned to one thread here, before
numpy loads.  The last line of standard output is the result object; see
harness.py for what is measured and how it is checked.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one seeded jumprec workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import jumprec
    except ImportError as exc:
        print(f"cannot import jumprec from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(jumprec.__file__).resolve().parent.parent != SRC:
        print(f"jumprec was imported from {jumprec.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    import_s = perf_counter() - t0
    env = {v: os.environ[v] for v in THREAD_VARS}
    return harness.run(args, workload, import_s, ROOT, env)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Three-method benchmark: full decimated vs half-order vs classic top-index.

Writes the CSV report for a benchmark spec file, or for a built-in
default sweep (single d=2 jump, k^-4 coefficient noise) when no spec is
given.  The same report is available through `jumprec bench`.
"""

import argparse
import json
import os
import sys
import tempfile

from jumprec.cli import load_bench_spec, run_bench

_DEFAULT_SPEC = {
    "model": {"d": 2, "jumps": [{"xi": 0.7, "a": [1.0, -0.4, 0.25]}]},
    "smooth": None,
    "noise": {"amp": 0.5, "decay": 4.0},
    "methods": ["full-decimated", "half-order", "eckhoff-original"],
    "M_values": [64, 128, 256, 512, 1024],
    "precision": "double",
    "seed": 20260823,
    "bounds": {"J": 1.5707963267948966, "A": 4.0, "B": 0.05, "R": 10.0},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", help="benchmark spec JSON; omit for the default sweep")
    ap.add_argument("--seed", type=int, default=0,
                    help="fallback seed when the spec does not pin one")
    ap.add_argument("-o", "--out", default="bench.csv")
    args = ap.parse_args()

    if args.spec:
        bs = load_bench_spec(args.spec, args.seed)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_DEFAULT_SPEC, fh)
            bs = load_bench_spec(path, args.seed)

    text = run_bench(bs)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)

    # echo the footer so the slopes are visible without opening the file
    for line in text.splitlines():
        if line.startswith("#"):
            print(line)
    print(f"full report: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the bundled L = 1/7/12 scenarios over M = 3..13 and write a sweep CSV.

Shorthand for:

    udrange sweep --plan plans/fig1_L1.json --plan plans/fig1_L7.json \
        --plan plans/fig1_L12.json --m-range 3..13 --trials 32768 \
        --seed 2014 --out fig1_sweep.csv

run through ``udrange.cli.main`` so it works without the console script.
"""

import argparse
import sys
from pathlib import Path

from udrange import cli

PLAN_DIR = Path(__file__).resolve().parents[1] / "plans"
PLANS = [PLAN_DIR / f"fig1_L{L}.json" for L in (1, 7, 12)]
M_RANGE = range(3, 14)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2**15)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="fig1_sweep.csv")
    args = parser.parse_args()

    argv = ["sweep", "--m-range", f"{M_RANGE.start}..{M_RANGE.stop - 1}"]
    for path in PLANS:
        argv += ["--plan", str(path)]
    argv += ["--trials", str(args.trials), "--seed", str(args.seed),
             "--workers", str(args.workers), "--out", args.out]
    code = cli.main(argv)
    if code == 0:
        print(f"wrote {len(PLANS) * len(M_RANGE)} rows to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())

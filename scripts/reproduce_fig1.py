#!/usr/bin/env python3
"""Run the bundled L = 1/7/12 scenarios over M = 3..13 and write a sweep CSV.

Shorthand for:

    udrange sweep --m-range 3..13 --plan plans/fig1_L1.json \
        --plan plans/fig1_L7.json --plan plans/fig1_L12.json \
        --trials 32768 --seed 2014 --out fig1_sweep.csv

run through ``udrange.cli.main`` so it works without the console script.
Any arguments are appended to that command line, so ``sweep`` checks them;
a repeated option such as ``--trials 4096`` or ``--out x.csv`` keeps its
last value, and a ``--plan`` adds one more plan.
"""

import sys
from pathlib import Path

from udrange import cli

PLAN_DIR = Path(__file__).resolve().parents[1] / "plans"


def main() -> int:
    argv = ["sweep", "--m-range", "3..13"]
    for L in (1, 7, 12):
        argv += ["--plan", str(PLAN_DIR / f"fig1_L{L}.json")]
    argv += ["--trials", "32768", "--seed", "2014", "--out", "fig1_sweep.csv"]
    return cli.main(argv + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

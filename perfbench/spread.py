#!/usr/bin/env python3
"""Run-to-run spread: run the benchmark once per seed and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        --seeds 1-10 --seconds 40 [--trace 0|1] [--out spread.json]

For each workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), which is how the benchmark's bounds
are judged. Runs that fail or print no result stop the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        metrics = {name: {"unit": spec["unit"],
                          **summarise([r["metrics"][name]["value"] for r in runs])}
                   for name, spec in runs[0]["metrics"].items()}
        summary[workload] = {"seeds": args.seeds, "attempted": runs[0]["attempted"],
                             "failed": runs[0]["failed"], "metrics": metrics}
        for name, m in metrics.items():
            print(f"{workload:12s} {name:48s} median {m['median']:12.5g} {m['unit']:6s}"
                  f" iqr/median {m['iqr_share']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""udrange benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py for why each exists): exact_wide, mc_wide_m,
cli_cold. After an untimed warm-up pass the run repeats passes, each in a
fresh worker process, while the next one is expected to end within S seconds
of the start, and at least until the workload's tail-pass count is done. With
``--trace 0`` it reports the end-to-end metrics, each a median over the
passes; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics. ``--smoke`` shrinks every workload to a few
seconds, for the benchmark's own tests.

Every answer is checked against golden.json or the reference in oracle.py,
and every pass must repeat the first pass's answers exactly, traced or not.
The last line of stdout is the result object; the line before it is a report
with provenance, sizes and raw per-pass numbers. A wrong numeric answer
makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import layer_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# Per-layer metric -> (span name, field of tracer.layer_totals).
SPAN_METRICS = {
    "numtheory.sieve_mobius.calls": ("numtheory.sieve_mobius", "calls"),
    "numtheory.sieve_mobius.self_s": ("numtheory.sieve_mobius", "self_s"),
    "numtheory.sieve_mobius.limit_total": ("numtheory.sieve_mobius", "limit"),
    "spectrum.count_multiples_upto.calls": ("spectrum.count_multiples_upto", "calls"),
    "spectrum.count_multiples_upto.self_s": ("spectrum.count_multiples_upto", "self_s"),
    "spectrum.count_multiples_upto.j_total": ("spectrum.count_multiples_upto", "j"),
    "estimator.prob_exact.calls": ("estimator.prob_exact", "calls"),
    "estimator.prob_exact.self_s": ("estimator.prob_exact", "self_s"),
    "spectrum.sample_selection_batch.calls": ("spectrum.sample_selection_batch", "calls"),
    "spectrum.sample_selection_batch.self_s": ("spectrum.sample_selection_batch", "self_s"),
    "spectrum.sample_selection_batch.draws": ("spectrum.sample_selection_batch", "draws"),
    "spectrum.sample_selection_batch.bytes_computed": ("spectrum.sample_selection_batch", "bytes"),
    "estimator.prob_montecarlo.calls": ("estimator.prob_montecarlo", "calls"),
    "estimator.prob_montecarlo.self_s": ("estimator.prob_montecarlo", "self_s"),
    "estimator.prob_montecarlo.trials": ("estimator.prob_montecarlo", "trials"),
    "numtheory.zeta_int.calls": ("numtheory.zeta_int", "calls"),
    "numtheory.zeta_int.self_s": ("numtheory.zeta_int", "self_s"),
    "ranging.compute_ud.calls": ("ranging.compute_ud", "calls"),
    "ranging.compute_ud.self_s": ("ranging.compute_ud", "self_s"),
    "numtheory.gcd_all.calls": ("numtheory.gcd_all", "calls"),
    "numtheory.gcd_all.self_s": ("numtheory.gcd_all", "self_s"),
    "spectrum.load_plan.calls": ("spectrum.load_plan", "calls"),
    "spectrum.load_plan.self_s": ("spectrum.load_plan", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
PER_LAYER_UNITS = {
    **{k: ("s" if f.endswith("_s") else "bytes" if f == "bytes" else "count")
       for k, (_, f) in SPAN_METRICS.items()},
    "estimator.prob_exact.sieve_ratio": "ratio",
    "estimator.prob_montecarlo.trials_per_s": "1/s",
    "cli.import_s": "s",
    "cli.contract_breaches": "count",
    "trace.overhead_s": "s",
}


class Pass:
    """Timings, memory, answers and spans of one worker process."""

    def __init__(self, spawned: float, done: float, raw: dict, cli: bool) -> None:
        self.setup_s = raw["ready"] - spawned
        self.duration_s = done - spawned
        self.raw = raw
        reqs = raw["requests"]
        self.latencies = [r["end"] - r["start"] for r in reqs]
        self.answers = [r["answer"] for r in reqs]
        self.wall_s = reqs[-1]["end"] - reqs[0]["start"] if reqs else 0.0
        rss = raw["maxrss_kb"]["children" if cli else "self"]
        self.peak_rss_mb = rss / 1024.0


class Runner:
    def __init__(self, root: Path, work: Path, spec: dict) -> None:
        self.root, self.work = root, work
        self.cli = spec["workload"] == "cli_cold"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # The program's default sieve limit stands.
        self.env.pop("UD_SIEVE_LIMIT", None)
        work.mkdir(parents=True, exist_ok=True)
        for name, plan in spec["plans"].items():
            (work / f"{name}.json").write_text(json.dumps(plan, indent=2) + "\n")
        (work / "spec.json").write_text(json.dumps(spec))

    def run_pass(self, traced: bool = False, setup_only: bool = False) -> Pass:
        out = self.work / "pass.json"
        cmd = [sys.executable, str(WORKER), str(self.work), str(int(traced)),
               str(int(setup_only)), str(out)]
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        done = time.perf_counter()
        raw = json.loads(out.read_text())
        out.unlink()
        src = (self.root / "src").resolve()
        if src not in Path(raw["udrange_file"]).resolve().parents:
            raise RuntimeError(f"worker imported udrange from {raw['udrange_file']}, not {src}")
        return Pass(spawned, done, raw, self.cli)


def _tail(passes: list[Pass], min_passes: int) -> tuple[float, float, int, int]:
    """Tail latency over all passes, at a percentile fixed by min_passes.

    The percentile is the highest with at least ten samples beyond it in
    min_passes passes. Every pass has the same requests, so pooling all the
    run's passes keeps the percentile and puts more samples beyond it (10 per
    min_passes passes), which steadies the estimate. Returns (latency in s,
    percentile, sample count, samples beyond). With ten samples or fewer in
    min_passes passes (smoke runs only) it falls back to the maximum.
    """
    lat = sorted(x for p in passes for x in p.latencies)
    n = len(lat)
    n_min = n * min_passes // len(passes)
    if n_min <= 10:
        return lat[-1], 100.0, n, 0
    beyond = round(10 * len(passes) / min_passes)
    return lat[n - 1 - beyond], 100.0 * (n_min - 10) / n_min, n, beyond


def _layer_metrics(p: Pass) -> dict[str, float]:
    totals = layer_totals(p.raw["spans"])
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = totals.get(span, {}).get(field, 0)
    exact_calls = out["estimator.prob_exact.calls"]
    out["estimator.prob_exact.sieve_ratio"] = (
        out["numtheory.sieve_mobius.calls"] / exact_calls if exact_calls else 0.0)
    mc = totals.get("estimator.prob_montecarlo", {})
    out["estimator.prob_montecarlo.trials_per_s"] = (
        mc["trials"] / mc["total_s"] if mc.get("total_s") else 0.0)
    imports = p.raw["import_s"]
    # In cli_cold the CLI children's imports are the ones users pay for.
    out["cli.import_s"] = statistics.median(imports[1:] if len(imports) > 1 else imports)
    return out


def _machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": None, "llc": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
        levels = [(int((c / "level").read_text()), (c / "size").read_text().strip()) for c in caches]
        info["llc"] = max(levels)[1] if levels else None
    except OSError:
        pass
    return info


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _canon(answer: dict) -> str:
    return json.dumps(answer, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "udrange" / "__init__.py").is_file():
        print(f"error: no udrange source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spec = workloads.build(args.workload, args.seed, args.smoke,
                           plan_path=lambda n: str((work / f"{n}.json").relative_to(root)))
    try:
        runner = Runner(root, work, spec)
        return _run(runner, spec, args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(runner: Runner, spec: dict, args, root: Path) -> int:
    start = time.perf_counter()
    # Warm-up: byte-compile, fill the file cache and touch the memory a pass
    # uses, so the first timed pass is not the only one that pays for them.
    # CLI requests each start a fresh process, so there set-up alone warms.
    runner.run_pass(setup_only=runner.cli)
    plain: list[Pass] = []
    traced: list[Pass] = []
    want_plain = 1 if args.trace else spec["tail_passes"]
    while (len(plain) < want_plain or (args.trace and not traced)
           or time.perf_counter() - start
           + statistics.median(p.duration_s for p in plain + traced) <= args.seconds):
        if args.trace and len(traced) < len(plain):
            traced.append(runner.run_pass(traced=True))
        else:
            plain.append(runner.run_pass())
    setups = [p.setup_s for p in plain]
    while len(setups) < (1 if args.smoke or args.trace else MIN_SETUPS):
        setups.append(runner.run_pass(setup_only=True).setup_s)

    refs = workloads.References()
    outcomes = {workloads.OK: 0, workloads.WRONG: 0, workloads.FAILED: 0, workloads.BREACH: 0}
    problems: list[str] = []
    breaches: set[str] = set()
    work_prefix = f"{runner.work.relative_to(root)}/"
    first = [_canon(a) for a in plain[0].answers]
    for n, p in enumerate(plain + traced):
        for req, answer, canon in zip(spec["requests"], p.answers, first):
            if _canon(answer) != canon:
                outcome, detail = workloads.WRONG, f"pass {n} differs from pass 0: {answer}"
            else:
                outcome, detail = workloads.check(spec, req, answer, refs)
            outcomes[outcome] += 1
            if outcome == workloads.BREACH:
                breaches.add(" ".join(req["argv"]).replace(work_prefix, ""))
            elif outcome != workloads.OK and len(problems) < 10:
                problems.append(f"{outcome}: {detail}"[:500])
    attempted = sum(outcomes.values())
    failed = outcomes[workloads.WRONG] + outcomes[workloads.FAILED]

    tail_s, tail_pct, tail_n, tail_beyond = _tail(plain, min(len(plain), spec["tail_passes"]))
    if args.trace:
        per_pass = [_layer_metrics(p) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["cli.contract_breaches"] = outcomes[workloads.BREACH] / len(plain + traced)
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                       - statistics.median(p.wall_s for p in plain))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in plain),
            "req_p50_ms": 1000 * statistics.median(x for p in plain for x in p.latencies),
            "req_tail_ms": 1000 * tail_s,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "ok_ratio": 1 - failed / attempted,
        }
        units = END_TO_END

    report = {
        "workload": spec["workload"], "seed": spec["seed"], "smoke": spec["smoke"],
        "trace": args.trace, "seconds": args.seconds,
        "machine": _machine(), "versions": plain[0].raw["versions"],
        "git_commit": _git_commit(root), "size": spec["size"],
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "req_tail": {"percentile": round(tail_pct, 2), "samples": tail_n,
                     "beyond": tail_beyond, "passes": len(plain)},
        "outcomes": outcomes, "contract_breaches": sorted(breaches), "problems": problems,
        "per_pass": {"setup_s": setups, "wall_s": [p.wall_s for p in plain],
                     "peak_rss_mb": [p.peak_rss_mb for p in plain],
                     "traced_wall_s": [p.wall_s for p in traced]},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": outcomes[workloads.WRONG] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if outcomes[workloads.WRONG] else 0


if __name__ == "__main__":
    sys.exit(main())

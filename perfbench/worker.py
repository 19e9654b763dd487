"""One pass of a workload in a fresh process: set up, then send each request in turn.

Usage: python3 perfbench/worker.py WORK_DIR TRACE(0|1) SETUP_ONLY(0|1) OUT_JSON

WORK_DIR holds ``spec.json`` and one JSON file per plan, written by run.py.
Set-up is ``import udrange`` plus loading and validating every plan; the
worker stamps the clock when it is ready, so run.py can time set-up from the
moment it started the process (``perf_counter`` is system-wide on Linux).
The answers, timestamps, peak memory and, when traced, the spans go to
OUT_JSON.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

CLI_CHILD = Path(__file__).with_name("cli_child.py")


def _library_request(req: dict, plans: dict, estimator) -> dict:
    plan = plans[req["plan"]]
    if req["kind"] == "exact":
        exact = estimator.prob_exact(plan, req["m"])
        asym = estimator.prob_asymptotic(req["m"])
        return {"num": str(exact.exact_numerator), "den": str(exact.exact_denominator),
                "asym": asym.value}
    mc = estimator.prob_montecarlo(plan, req["m"], req["trials"], req["seed"], workers=1)
    return {"value": mc.value, "se": mc.std_error, "trials": mc.trials}


def _cli_request(req: dict, traced: bool, spans_path: Path) -> dict:
    if traced:
        cmd = [sys.executable, str(CLI_CHILD)]
        env = dict(os.environ, PERFBENCH_SPANS=str(spans_path))
    else:
        cmd, env = [sys.executable, "-m", "udrange"], None
    proc = subprocess.run(cmd + req["argv"], capture_output=True, text=True, env=env, timeout=120)
    return {"rc": proc.returncode, "stdout": proc.stdout,
            "traceback": "Traceback (most recent call last)" in proc.stderr}


def main(argv: list[str]) -> None:
    work, traced, setup_only, out_path = Path(argv[0]), argv[1] == "1", argv[2] == "1", argv[3]
    t0 = time.perf_counter()
    import numpy
    import udrange
    from udrange import estimator, spectrum

    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    spec = json.loads((work / "spec.json").read_text())
    plans = {name: spectrum.load_plan(work / f"{name}.json") for name in spec["plans"]}
    ready = time.perf_counter()

    out = {"ready": ready, "import_s": [import_s], "udrange_file": udrange.__file__,
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "udrange": udrange.__version__},
           "requests": [], "spans": []}
    if not setup_only:
        for i, req in enumerate(spec["requests"]):
            spans_path = work / f"spans-{os.getpid()}-{i}.json"
            if tracer is not None:
                tracer.request = i
            start = time.perf_counter()
            try:
                if req["kind"] == "cli":
                    answer = _cli_request(req, traced, spans_path)
                else:
                    answer = _library_request(req, plans, estimator)
            except Exception:
                answer = {"error": traceback.format_exc(limit=3)}
            end = time.perf_counter()
            out["requests"].append({"start": start, "end": end, "answer": answer})
            if traced and req["kind"] == "cli" and spans_path.exists():
                child = json.loads(spans_path.read_text())
                spans_path.unlink()
                out["import_s"].append(child["import_s"])
                base = len(out["spans"])
                out["spans"] += [[n, s, e, None if p is None else p + base, i, c]
                                 for n, s, e, p, _r, c in child["spans"]]
    if tracer is not None:
        base = len(out["spans"])
        out["spans"] += [[n, s, e, None if p is None else p + base, r, c]
                         for n, s, e, p, r, c in tracer.spans]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["maxrss_kb"] = {"self": self_kb, "children": children_kb}
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

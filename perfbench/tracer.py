"""In-memory span tracer that wraps udrange's layer functions from outside.

Each layer function is replaced at every module attribute that refers to it,
which is where its callers look it up (``udrange.estimator.sieve_mobius``,
for example), so the program's own code is not edited. A span records its
name, start, end, parent span and the request it belongs to, plus counts
taken from the function's result. Spans stay in memory until the process
writes them out. Single-threaded only: the benchmark runs ``workers=1``.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, candidate (module, attribute) targets in order, counter of result).
# The Monte Carlo layer is traced at the function that both prob_montecarlo and
# sweep call, falling back to prob_montecarlo itself.
LAYERS = (
    ("numtheory.sieve_mobius", (("numtheory", "sieve_mobius"),), lambda r: {"limit": r.limit}),
    ("spectrum.count_multiples_upto", (("spectrum", "count_multiples_upto"),), lambda r: {"j": len(r)}),
    ("estimator.prob_exact", (("estimator", "prob_exact"),), None),
    ("spectrum.sample_selection_batch", (("spectrum", "sample_selection_batch"),),
     lambda r: {"draws": r.size, "bytes": r.nbytes}),
    ("estimator.prob_montecarlo",
     (("estimator", "_montecarlo_with_entropy"), ("estimator", "prob_montecarlo")),
     lambda r: {"trials": r.trials}),
    ("numtheory.zeta_int", (("numtheory", "zeta_int"),), None),
    ("ranging.compute_ud", (("ranging", "compute_ud"),), None),
    ("numtheory.gcd_all", (("numtheory", "gcd_all"),), None),
    ("spectrum.load_plan", (("spectrum", "load_plan"),), None),
    ("cli.main", (("cli", "main"),), None),
)


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or None, request, counts].
        self.spans: list[list] = []
        self.request: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, 0.0, 0.0, parent, self.request, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span[5] = {k: int(v) for k, v in counter(result).items()}
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function of the udrange modules loaded so far."""
        modules = [m for n, m in sys.modules.items() if n == "udrange" or n.startswith("udrange.")]
        for name, targets, counter in LAYERS:
            original = None
            for mod_name, attr in targets:
                original = getattr(sys.modules.get(f"udrange.{mod_name}"), attr, None)
                if original is not None:
                    break
            if original is None:
                continue
            replacement = self.wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its child spans;
    children of one span never overlap because the tracer is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _req, _counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, _req, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_time[i]
        for k, v in counts.items():
            t[k] = t.get(k, 0) + v
    return totals

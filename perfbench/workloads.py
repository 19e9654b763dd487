"""Seeded inputs for the three workloads, and the checks that gate their answers.

Every workload is a closed loop with one client sending one request at a
time (``workers=1``). A pass is one fixed list of requests run in a fresh
process, so udrange's weight cache starts cold as it does for a user. The
seed changes the inputs but not the amount of work, nor (outside
``cli_cold``) the order of requests, which moves peak memory; so run-to-run
spread reflects the machine rather than the draw.

- ``exact_wide``: exact and asymptotic only, on seeded plans with N = 2^20
  and largest index K from about 1.2e6 to 1e7, so the sieve,
  ``count_multiples_upto``, binning and the big-integer sum do nearly all the
  work. No Monte Carlo runs: the control for Monte Carlo changes.
- ``mc_wide_m``: Monte Carlo only, on the paper's Fig. 1 L = 1 and L = 12
  plans at M up to 256. Sampling and the gcd reduction do the work and the
  sieve never runs: the control for exact-path changes.
- ``cli_cold``: about thirty ``python -m udrange`` invocations, the only
  workload that pays for import, plan loading, argument parsing and
  rendering on every request, and the only one that reaches ``ranging``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

import oracle

WORKLOADS = ("exact_wide", "mc_wide_m", "cli_cold")

F_MIN_HZ = 1000.0
SPEED_OF_LIGHT_M_S = 299_792_458
FIG1_SEGMENTS = (1, 7, 12)
# M values golden.json covers for the bundled plans.
BUNDLED_M = tuple(range(2, 17)) + (64, 256)

EXACT_N = 2**20
# (target largest index K, L): inside the last-level cache up to far beyond it.
EXACT_RUNGS = ((1_200_000, 12), (3_000_000, 4), (10_000_000, 1))
EXACT_M = (3, 5, 8, 13)

# Trials per M, sized so each request takes a few tenths of a second.
MC_TRIALS = {3: 1_572_864, 13: 524_288, 64: 65_536, 256: 16_384}
# Asked a second time, with its own seed, so a pass has nine requests: with an
# odd count the median latency falls inside one request type (L = 1, M = 13)
# instead of between the two middle types, where it jumps from run to run.
MC_REPEAT = ("L1", 3)

CLI_TRIALS = 20_000
# ROADMAP item 4 inputs: the CLI contract says these exit 2 or 3 without a
# traceback. A breach is reported, not counted as a failed request.
PROBES = (
    ("ud", "--plan", "{L1}", "--indices", "54000,x"),
    ("prob", "--plan", "{L1}", "-m", "0"),
    ("prob", "--methods", "exact", "-m", "3"),
)

# Passes whose pooled latencies fix the percentile of req_tail_ms: the one
# with exactly ten samples beyond it in this many passes. A run pools all its
# passes at that percentile. Each request type recurs once per pass, so the
# percentile falls inside one type: the middle of the second-costliest cold
# request in exact_wide, of the four costliest requests in mc_wide_m, and of
# the L = 7 exact requests in cli_cold, not at the edge between two types.
TAIL_PASSES = {"exact_wide": 7, "mc_wide_m": 7, "cli_cold": 2}


def fig1_plan(n_segments: int, n_total: int = 2**15) -> dict:
    """Bundled plan: n_segments near-equal segments spread evenly over 54-862 MHz."""
    first, last = 54_000, 862_000
    base, rem = divmod(n_total, n_segments)
    gap = ((last - first + 1) - n_total) // n_segments
    segments, start = [], first
    for l in range(n_segments):
        count = base + 1 if l < rem else base
        segments.append({"start_index": start, "count": count})
        start += count + gap
    return {"f_min_hz": F_MIN_HZ, "segments": segments}


def fig1_plans() -> dict[str, dict]:
    return {f"L{n}": fig1_plan(n) for n in FIG1_SEGMENTS}


def _split(rng: np.random.Generator, total: int, parts: int, floor: int) -> list[int]:
    """Random composition of total into parts, each at least floor."""
    cuts = np.sort(rng.integers(0, total - parts * floor + 1, size=parts - 1))
    bounds = np.concatenate(([0], cuts, [total - parts * floor]))
    return [int(d) + floor for d in np.diff(bounds)]


def _wide_plan(rng: np.random.Generator, k_target: int, n_segments: int, n: int) -> dict:
    """N indices in n_segments segments whose largest index is within 0.5% of k_target."""
    k_max = k_target - int(rng.integers(0, k_target // 200))
    free = k_max - n
    lead = int(rng.integers(0, free // 2)) if n_segments > 1 else free
    counts = _split(rng, n, n_segments, n // (4 * n_segments))
    gaps = _split(rng, free - lead, n_segments - 1, 1) if n_segments > 1 else []
    segments, start = [], lead + 1
    for count, gap in zip(counts, gaps + [0]):
        segments.append({"start_index": start, "count": count})
        start += count + gap
    return {"f_min_hz": F_MIN_HZ, "segments": segments}


def exact_wide_plans(seed: int, smoke: bool = False) -> list[tuple[dict, tuple[int, ...]]]:
    """The seeded exact_wide plans, each with the M values it is asked at."""
    rng = np.random.default_rng([seed, 1])
    if smoke:
        return [(_wide_plan(rng, k // 100, L, 2**12), EXACT_M[:2]) for k, L in EXACT_RUNGS]
    return [(_wide_plan(rng, k, L, EXACT_N), EXACT_M) for k, L in EXACT_RUNGS]


def _plan_indices(plan: dict, count: int, rng: np.random.Generator, step: int) -> list[int]:
    """count indices of the plan that are multiples of step."""
    out = []
    while len(out) < count:
        seg = plan["segments"][int(rng.integers(len(plan["segments"])))]
        lo = -(-seg["start_index"] // step)
        hi = (seg["start_index"] + seg["count"] - 1) // step
        out.append(step * int(rng.integers(lo, hi + 1)))
    return out


def _cli_requests(rng: np.random.Generator, smoke: bool, plan_path) -> list[dict]:
    names = [f"L{n}" for n in FIG1_SEGMENTS]
    plans = fig1_plans()
    reqs = []
    for i in range(2 if smoke else 6):
        name = names[i % 3]
        idx = _plan_indices(plans[name], int(rng.integers(2, 5)), rng, int(rng.choice([1, 1, 2, 3, 6])))
        reqs.append({"check": "ud_indices", "plan": name, "indices": idx,
                     "argv": ["ud", "--plan", plan_path(name), "--indices", ",".join(map(str, idx))]})
    for i in range(2 if smoke else 5):
        name, n = names[i % 3], int(rng.integers(2, 7))
        reqs.append({"check": "ud_select", "plan": name, "n": n,
                     "argv": ["ud", "--plan", plan_path(name), "--select", str(n),
                              "--seed", str(int(rng.integers(1 << 31)))]})
    # Eight costly requests per pass (L = 12 and 7 sieve), so over two passes
    # the 11th-largest latency falls inside that group rather than at its edge.
    for i, name in enumerate(names if smoke else ["L1"] + ["L7", "L12"] * 4):
        m = int(rng.integers(3, 14))
        fmt = ("text", "json")[i % 2]
        reqs.append({"check": "prob_exact", "plan": name, "m": m, "format": fmt,
                     "argv": ["prob", "--plan", plan_path(name), "-m", str(m), "--format", fmt]})
    for name in names[: 1 if smoke else 3]:
        m = int(rng.integers(3, 14))
        reqs.append({"check": "prob_mc", "plan": name, "m": m, "trials": CLI_TRIALS,
                     "argv": ["prob", "--plan", plan_path(name), "-m", str(m), "--methods",
                              "monte_carlo", "--trials", str(CLI_TRIALS),
                              "--seed", str(int(rng.integers(1 << 31)))]})
    for _ in range(1 if smoke else 2):
        reqs.append({"check": "verify", "argv": ["verify", "--quick"]})
    reqs.append({"check": "exit", "expect": 2,
                 "argv": ["prob", "--plan", plan_path("missing"), "-m", "3"]})
    outside = int(rng.integers(1, plans["L1"]["segments"][0]["start_index"]))
    reqs.append({"check": "exit", "expect": 3,
                 "argv": ["ud", "--plan", plan_path("L1"), "--indices", f"54000,{outside}"]})
    for probe in PROBES:
        reqs.append({"check": "probe", "argv": [a.format(L1=plan_path("L1")) for a in probe]})
    return reqs


def build(name: str, seed: int, smoke: bool = False, plan_path=lambda n: f"{n}.json") -> dict:
    """The workload's plans and request list for a seed.

    ``plan_path`` maps a plan name to the path the CLI is given for it.
    """
    rng = np.random.default_rng([seed, 0])
    plans: dict[str, dict] = {}
    requests: list[dict] = []
    if name == "exact_wide":
        for i, (plan, ms) in enumerate(exact_wide_plans(seed, smoke)):
            plans[f"W{i}"] = plan
            requests += [{"kind": "exact", "plan": f"W{i}", "m": m} for m in ms]
    elif name == "mc_wide_m":
        plans = {k: v for k, v in fig1_plans().items() if k in ("L1", "L12")}
        for pname in plans:
            for m in MC_TRIALS:
                requests.append({"kind": "mc", "plan": pname, "m": m})
        requests.append({"kind": "mc", "plan": MC_REPEAT[0], "m": MC_REPEAT[1]})
        for req in requests:
            trials = MC_TRIALS[req["m"]]
            req["trials"] = max(1, trials // 256) if smoke else trials
            req["seed"] = int(rng.integers(1 << 31))
    else:
        plans = fig1_plans()
        reqs = _cli_requests(rng, smoke, plan_path)
        requests = [dict(reqs[i], kind="cli") for i in rng.permutation(len(reqs))]
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "plans": plans,
        "requests": requests,
        "tail_passes": 1 if smoke else TAIL_PASSES[name],
        "size": _size(plans, requests),
    }


def _size(plans: dict, requests: list[dict]) -> dict:
    return {
        "requests": len(requests),
        "plans": {
            k: {"K": max(s["start_index"] + s["count"] - 1 for s in p["segments"]),
                "N": sum(s["count"] for s in p["segments"]),
                "L": len(p["segments"])}
            for k, p in plans.items()
        },
        "M": sorted({r["m"] for r in requests if "m" in r}),
        "trials": sorted({r["trials"] for r in requests if "trials" in r}),
    }


class References:
    """Exact answers from golden.json, falling back to the oracle for unseen plans."""

    def __init__(self) -> None:
        self.golden = oracle.load_golden()
        self._oracle = oracle.Reference()

    def get(self, plan: dict, m: int) -> dict:
        key = f"{oracle.plan_key(plan)}:{m}"
        if key not in self.golden:
            for mm, value in self._oracle.exact(plan, set(BUNDLED_M) | {m}).items():
                self.golden[f"{oracle.plan_key(plan)}:{mm}"] = {
                    "digest": oracle.digest(value), "value": float(value)}
        return self.golden[key]


# Check outcomes: "ok"; "wrong" is a wrong numeric answer (the run fails);
# "failed" breaks the CLI contract; "breach" is a known ROADMAP item 4 probe.
OK, WRONG, FAILED, BREACH = "ok", "wrong", "failed", "breach"


def _mc_ok(value: float, p: float, trials: int) -> bool:
    return abs(value - p) <= 5 * math.sqrt(p * (1 - p) / trials) + 1 / trials


def _asym_ok(value: float, m: int) -> bool:
    return abs(value - 1 / oracle.zeta(m)) <= 1e-9


def _paper_gap_ok(plan: dict, exact: float, m: int) -> bool:
    """The paper's claim on the Fig. 1 plans: |exact - 1/zeta(M)| <= 0.01."""
    if plan not in fig1_plans().values():
        return True
    return abs(exact - 1 / oracle.zeta(m)) <= 0.01


def check(spec: dict, req: dict, answer: dict, refs: References) -> tuple[str, str]:
    """Judge one answer; returns (outcome, detail)."""
    if "error" in answer:
        return (FAILED if req["kind"] == "cli" else WRONG), answer["error"]
    if req["kind"] == "cli":
        return _check_cli(spec, req, answer, refs)
    plan, m = spec["plans"][req["plan"]], req["m"]
    ref = refs.get(plan, m)
    if req["kind"] == "exact":
        exact = Fraction(int(answer["num"]), int(answer["den"]))
        ok = (oracle.digest(exact) == ref["digest"] and _asym_ok(answer["asym"], m)
              and _paper_gap_ok(plan, float(exact), m))
    else:
        ok = answer["trials"] == req["trials"] and _mc_ok(answer["value"], ref["value"], req["trials"])
    return (OK, "") if ok else (WRONG, f"{req['kind']} {req['plan']} M={m}: {answer}")


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


def _check_cli(spec: dict, req: dict, answer: dict, refs: References) -> tuple[str, str]:
    rc, out, tb = answer["rc"], answer["stdout"], answer["traceback"]
    argv = " ".join(req["argv"])
    if req["check"] in ("exit", "probe"):
        good = rc == req["expect"] if req["check"] == "exit" else rc in (2, 3)
        if good and not tb:
            return OK, ""
        return (FAILED if req["check"] == "exit" else BREACH), f"{argv}: exit {rc}, traceback={tb}"
    if rc != 0 or tb:
        return FAILED, f"{argv}: exit {rc}, traceback={tb}"
    try:
        ok = _cli_numbers_ok(spec, req, out, refs)
    except (KeyError, ValueError, IndexError, AttributeError) as exc:
        ok = False
        out = f"{out!r} ({exc})"
    return (OK, "") if ok else (WRONG, f"{argv}: {out}")


def _cli_numbers_ok(spec: dict, req: dict, out: str, refs: References) -> bool:
    check = req["check"]
    if check == "verify":
        lines = [l for l in out.splitlines() if l.strip()]
        return bool(lines) and all(l.startswith("PASS ") for l in lines)
    plan = spec["plans"][req["plan"]]
    if check in ("ud_indices", "ud_select"):
        f = _fields(out)
        idx = [int(k) for k in f["indices"].split(",")]
        g = math.gcd(*idx)
        ud = SPEED_OF_LIGHT_M_S / (g * plan["f_min_hz"])
        inside = all(any(s["start_index"] <= k < s["start_index"] + s["count"]
                         for s in plan["segments"]) for k in idx)
        wanted = idx == req["indices"] if check == "ud_indices" else len(idx) == req["n"]
        return (wanted and inside and int(f["gcd"]) == g
                and abs(float(f["ud_m"]) - ud) <= 1e-9 * ud
                and f["is_max"] == ("true" if g == 1 else "false"))
    ref = refs.get(plan, req["m"])
    if check == "prob_mc":
        value = float(re.search(r"P_monte_carlo = (\S+)", out).group(1))
        return _mc_ok(value, ref["value"], req["trials"])
    if req["format"] == "json":
        est = {e["method"]: e for e in json.loads(out)["estimates"]}
        num, den = est["exact"]["exact_numerator"], est["exact"]["exact_denominator"]
        asym = est["asymptotic"]["value"]
    else:
        num, den = re.search(r"P_exact = \S+\s+\((\d+)/(\d+)\)", out).groups()
        asym = float(re.search(r"P_asymptotic = (\S+)", out).group(1))
    exact = Fraction(int(num), int(den))
    return (oracle.digest(exact) == ref["digest"] and _asym_ok(asym, req["m"])
            and _paper_gap_ok(plan, float(exact), req["m"]))

"""Reference answers for the benchmark's correctness gate, independent of udrange.

The exact probability that M indices drawn with replacement from a plan's
index set are setwise coprime is Z / N^M with Z = sum_j mu(j) * x_j^M, where
x_j counts the plan indices divisible by j. This module computes it with its
own Mobius sieve, so a change to the program's exact path is checked against
a fixed reference rather than against itself.

``golden.json`` holds digests of these answers for the bundled plans and for
the seeded ``exact_wide`` plans of the seeds it lists. Regenerate it with::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEEDS = range(20)
CHUNK = 1 << 20


def plan_key(plan: dict) -> str:
    """Short content hash of a plan's segments and grid spacing."""
    canon = json.dumps(
        {
            "f_min_hz": float(plan["f_min_hz"]),
            "segments": sorted(
                (int(s["start_index"]), int(s["count"])) for s in plan["segments"]
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def digest(value: Fraction) -> str:
    """Digest of a rational in lowest terms."""
    return hashlib.sha256(f"{value.numerator}/{value.denominator}".encode()).hexdigest()[:32]


class Reference:
    """Exact coprimality probabilities, sieving mu once up to the largest index seen."""

    def __init__(self) -> None:
        self._mu = np.zeros(1, dtype=np.int8)

    def _mobius(self, limit: int) -> np.ndarray:
        if limit >= len(self._mu):
            mu = np.ones(limit + 1, dtype=np.int8)
            mu[0] = 0
            composite = np.zeros(limit + 1, dtype=bool)
            for p in range(2, math.isqrt(limit) + 1):
                if not composite[p]:
                    composite[p * p :: p] = True
            for p in np.flatnonzero(~composite[2:]) + 2:
                p = int(p)
                mu[p::p] = -mu[p::p]
                if p * p <= limit:
                    mu[p * p :: p * p] = 0
            self._mu = mu
        return self._mu[1 : limit + 1]

    def exact(self, plan: dict, m_values) -> dict[int, Fraction]:
        """P(M indices setwise coprime) as a rational, for each M."""
        segs = [(int(s["start_index"]), int(s["count"])) for s in plan["segments"]]
        k_max = max(a + c - 1 for a, c in segs)
        n = sum(c for _, c in segs)
        mu = self._mobius(k_max)
        # weights[v] = sum of mu(j) over j with x_j = v, built in chunks of j.
        weights = np.zeros(n + 1, dtype=np.int64)
        for lo in range(1, k_max + 1, CHUNK):
            j = np.arange(lo, min(lo + CHUNK, k_max + 1), dtype=np.int64)
            x = np.zeros(len(j), dtype=np.int64)
            for a, c in segs:
                x += (a + c - 1) // j - (a - 1) // j
            mu_j = mu[lo - 1 : lo - 1 + len(j)]
            keep = mu_j != 0
            weights += np.bincount(x[keep], weights=mu_j[keep], minlength=n + 1).astype(np.int64)
        terms = [(v, int(weights[v])) for v in np.flatnonzero(weights[1:]) + 1]
        return {m: Fraction(sum(w * int(v) ** m for v, w in terms), n**m) for m in m_values}


def zeta(m: int) -> float:
    """Riemann zeta at an integer m >= 2, by Euler-Maclaurin with J = 64 terms."""
    J = 64
    head = math.fsum(j ** -float(m) for j in range(1, J))
    # Tail from J on: integral + J^-m/2 + B2 and B4 corrections; error < 1e-15.
    tail = (
        J ** (1.0 - m) / (m - 1)
        + 0.5 * J ** -float(m)
        + m / 12.0 * J ** -(m + 1.0)
        - m * (m + 1) * (m + 2) / 720.0 * J ** -(m + 3.0)
    )
    return head + tail


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def write_golden() -> None:
    """Recompute golden.json from this module's reference."""
    import workloads

    wanted: dict[str, tuple[dict, set[int]]] = {}
    for plan in workloads.fig1_plans().values():
        wanted[plan_key(plan)] = (plan, set(workloads.BUNDLED_M))
    for seed in GOLDEN_SEEDS:
        for plan, ms in workloads.exact_wide_plans(seed):
            wanted.setdefault(plan_key(plan), (plan, set()))[1].update(ms)
    ref = Reference()
    golden = {}
    for key, (plan, ms) in sorted(wanted.items()):
        for m, value in ref.exact(plan, sorted(ms)).items():
            golden[f"{key}:{m}"] = {"digest": digest(value), "value": float(value)}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    write_golden()

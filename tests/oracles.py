"""Independent reference computations used only by the tests.

Everything here deliberately avoids the code paths under test: mu comes from
sympy, zeta from mpmath, tuple counting from plain itertools + math.gcd, and
the exact method's weights from a plain sieve over every prime with full-range
multiple counts, sampled grid indices from a binary search per draw, and
prime factors from trial division.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import sympy

from udrange.spectrum import FrequencyPlan


def mobius_ref(n: int) -> int:
    return int(sympy.mobius(n))


def zeta_ref(m: int, dps: int = 30) -> float:
    with mpmath.workdps(dps):
        return float(mpmath.zeta(m))


def is_prime_trial_division(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# Every prime below 5,600, which exceeds isqrt(313**3): enough to factor any
# index of a plan with prime signatures.
TRIAL_PRIMES = [d for d in range(2, 5_600) if is_prime_trial_division(d)]


def prime_factors_trial_division(n: int) -> set[int]:
    """The distinct prime factors of 1 <= n < 5,600**2, by trial division."""
    found = set()
    for d in TRIAL_PRIMES:
        if d * d > n:
            break
        if n % d == 0:
            found.add(d)
            while n % d == 0:
                n //= d
    if n > 1:
        found.add(n)
    return found


def plan_indices(plan: FrequencyPlan) -> list[int]:
    """Every index of the plan's set, in ascending order."""
    return [k for s in plan.segments for k in range(s.start, s.end + 1)]


def count_multiples_brute(plan: FrequencyPlan, j: int) -> int:
    return sum(1 for k in plan_indices(plan) if k % j == 0)


def coprime_fraction_brute(plan: FrequencyPlan, m: int) -> Fraction:
    """Exact P by enumerating every ordered m-tuple of plan indices."""
    indices = plan_indices(plan)
    hits = 0
    for tup in itertools.product(indices, repeat=m):
        g = tup[0]
        for v in tup[1:]:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g == 1:
            hits += 1
    return Fraction(hits, len(indices) ** m)


def setwise_coprime_scan(values: tuple[int, ...]) -> bool:
    """Common-divisor scan: no d >= 2 divides every value."""
    upper = min(values)
    return not any(all(v % d == 0 for v in values) for d in range(2, upper + 1))


def mobius_all_primes(limit: int) -> np.ndarray:
    """mu(0..limit) as int8: a sign flip on the multiples of every prime <= limit."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    for p in np.flatnonzero(is_prime):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def coprimality_weights_ref(plan: FrequencyPlan) -> tuple[tuple[int, int], ...]:
    """Pairs (v, sum of mu(j) over j <= K with x_j = v), x_j counted for every j."""
    k_max = plan.last_index
    mu = mobius_all_primes(k_max)[1:].astype(np.int64)
    j = np.arange(1, k_max + 1, dtype=np.int64)
    x = np.zeros(k_max, dtype=np.int64)
    for s in plan.segments:
        x += s.end // j - (s.start - 1) // j
    mask = (mu != 0) & (x > 0)
    weights = np.bincount(x[mask], weights=mu[mask].astype(np.float64))
    return tuple((int(v), int(weights[v])) for v in np.flatnonzero(weights))


def sample_selection_ref(plan: FrequencyPlan, positions) -> np.ndarray:
    """Grid indices at flat positions 0..N-1 by a binary search over segment ends."""
    counts = np.array([s.count for s in plan.segments], dtype=np.int64)
    cum = np.cumsum(counts)
    shift = np.array([s.start for s in plan.segments], dtype=np.int64) - (cum - counts)
    positions = np.asarray(positions, dtype=np.int64)
    return positions + shift[np.searchsorted(cum, positions, side="right")]


def circular_delta(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)

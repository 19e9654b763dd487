"""Desk-scale built-in checks behind the `verify` CLI command."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

from . import fig1
from .numtheory import gcd_all, sieve_mobius, zeta_int
from .estimator import prob_asymptotic, prob_exact
from .ranging import verify_ambiguity
from .spectrum import FrequencyPlan, Segment, enumerate_indices, sample_selection


def mobius_by_factorization(n: int) -> int:
    """Independent mu via trial-division factorization."""
    if n < 1:
        raise ValueError(n)
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    if n > 1:
        sign = -sign
    return sign


def coprime_fraction_by_enumeration(plan: FrequencyPlan, m: int) -> Fraction:
    """Exhaustive count of setwise-coprime ordered m-tuples over the index set."""
    arr = np.fromiter(enumerate_indices(plan), dtype=np.int64)
    grids = np.meshgrid(*([arr] * m), indexing="ij")
    g = reduce(np.gcd, grids)
    return Fraction(int(np.count_nonzero(g == 1)), arr.size**m)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check_mobius(limit: int) -> CheckResult:
    table = sieve_mobius(limit)
    for j in range(1, limit + 1):
        if table[j] != mobius_by_factorization(j):
            return CheckResult("mobius_sieve", False, f"mismatch at j={j}")
    return CheckResult("mobius_sieve", True, f"matches factorization up to {limit}")


def _check_zeta() -> CheckResult:
    err = abs(zeta_int(2, 1e-12) - math.pi**2 / 6.0)
    return CheckResult("zeta_closed_form", err < 1e-12, f"|zeta(2) - pi^2/6| = {err:.2e}")


def _check_gcd() -> CheckResult:
    cases = [([54000, 54001], 1), ([12, 18, 30], 6), ([7, 14, 21], 7), ([5], 5)]
    for values, want in cases:
        if gcd_all(values) != want:
            return CheckResult("gcd_known_values", False, f"gcd{values} != {want}")
    return CheckResult("gcd_known_values", True)


def _check_exact_enumeration() -> CheckResult:
    plans = [
        FrequencyPlan(1000.0, (Segment(1, 4),)),
        FrequencyPlan(1000.0, (Segment(7, 12), Segment(30, 9))),
        FrequencyPlan(1000.0, (Segment(100, 25),)),
    ]
    for plan in plans:
        for m in (2, 3):
            got = prob_exact(plan, m)
            want = coprime_fraction_by_enumeration(plan, m)
            if Fraction(got.exact_numerator, got.exact_denominator) != want:
                return CheckResult(
                    "exact_vs_enumeration", False, f"plan {plan.segments}, m={m}"
                )
    return CheckResult("exact_vs_enumeration", True)


def _check_periodicity() -> CheckResult:
    plan = FrequencyPlan(1000.0, (Segment(54000, 200), Segment(60000, 100)))
    rng = np.random.default_rng(12345)
    for _ in range(25):
        sel = sample_selection(plan, 4, rng)
        r = float(rng.uniform(0.0, 299792.458))
        if not verify_ambiguity(plan, sel, r, 1e-6):
            return CheckResult("phase_periodicity", False, f"selection {sel}")
    return CheckResult("phase_periodicity", True)


def _check_l_independence() -> CheckResult:
    plans = fig1.all_plans()
    worst = 0.0
    for m in range(3, 14):
        vals = [prob_exact(p, m).value for p in plans]
        worst = max(worst, max(vals) - min(vals))
    return CheckResult(
        "l_independence", worst < 0.01, f"max spread over L = {worst:.2e}"
    )


def _check_asymptotic_gap() -> CheckResult:
    plan = fig1.make_plan(1)
    worst = 0.0
    for m in range(3, 14):
        gap = abs(prob_exact(plan, m).value - prob_asymptotic(m).value)
        worst = max(worst, gap)
    return CheckResult("asymptotic_gap", worst <= 0.01, f"max gap = {worst:.2e}")


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run every check, or with quick only the fast subset, in a fixed order."""
    checks: list[Callable[[], CheckResult]] = [
        lambda: _check_mobius(2000 if quick else 10_000),
        _check_zeta,
        _check_gcd,
        _check_exact_enumeration,
        _check_periodicity,
    ]
    if not quick:
        checks += [_check_l_independence, _check_asymptotic_gap]
    return [check() for check in checks]

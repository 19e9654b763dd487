"""Desk-scale built-in checks behind the `verify` CLI command.

``run_checks`` names every check once, in run order, beside what it compares
against; each check returns whether it passed and a detail line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable

from . import fig1
from .numtheory import gcd_all, mertens_at_quotients, sieve_mobius, zeta_int
from .estimator import prob_asymptotic, prob_exact
from .ranging import verify_ambiguity
from .spectrum import FrequencyPlan, Segment, enumerate_indices, sample_selection_batch


def coprime_fraction_by_enumeration(plan: FrequencyPlan, m: int) -> Fraction:
    """Exhaustive count of setwise-coprime ordered m-tuples over the index set."""
    import numpy as np

    arr = np.fromiter(enumerate_indices(plan), dtype=np.int64)
    grids = np.meshgrid(*([arr] * m), indexing="ij")
    g = reduce(np.gcd, grids)
    return Fraction(int(np.count_nonzero(g == 1)), arr.size**m)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


Check = tuple[bool, str]


def _check_mobius(limit: int) -> Check:
    # Mobius inversion: the sum of mu(d) over the divisors d of n is [n = 1].
    # It fixes mu(n) = -(sum over proper divisors), so only the true mu passes.
    import numpy as np

    mu = sieve_mobius(limit).values
    total = np.zeros(limit + 1, dtype=np.int64)
    for d in np.flatnonzero(mu):
        total[d::d] += mu[d]
    total[1] -= 1
    bad = np.flatnonzero(total)
    if bad.size:
        return False, f"divisor sum wrong at n={bad[0]}"
    return True, f"divisor sums of mu are [n = 1] up to {limit}"


def _check_zeta() -> Check:
    err = abs(zeta_int(2) - math.pi**2 / 6.0)
    return err < 1e-12, f"|zeta(2) - pi^2/6| = {err:.2e}"


def _check_gcd() -> Check:
    cases = [([54000, 54001], 1), ([12, 18, 30], 6), ([7, 14, 21], 7), ([5], 5)]
    for values, want in cases:
        if gcd_all(values) != want:
            return False, f"gcd{values} != {want}"
    return True, ""


def _check_mertens() -> Check:
    known = [-1, 1, 2, -23, -48, 212, 1037, 1928]  # OEIS A084237, n = 1..8
    for n, want in enumerate(known, 1):
        got = int(mertens_at_quotients([10**n])[1][-1])
        if got != want:
            return False, f"M(10^{n}) = {got}, expected {want}"
    return True, "M(10^n) matches OEIS A084237 for n = 1..8"


def _check_exact_enumeration() -> Check:
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
                return False, f"plan {plan.segments}, m={m}"
    return True, ""


def _check_periodicity() -> Check:
    import numpy as np

    plan = FrequencyPlan(1000.0, (Segment(54000, 200), Segment(60000, 100)))
    rng = np.random.default_rng(12345)
    for _ in range(25):
        sel = tuple(sample_selection_batch(plan, 4, rng).tolist())
        r = float(rng.uniform(0.0, 299792.458))
        if not verify_ambiguity(plan, sel, r):
            return False, f"selection {sel}"
    return True, ""


def _check_l_independence(plans: tuple[FrequencyPlan, ...]) -> Check:
    worst = 0.0
    for m in range(3, 14):
        vals = [prob_exact(p, m).value for p in plans]
        worst = max(worst, max(vals) - min(vals))
    return worst < 0.01, f"max spread over L = {worst:.2e}"


def _check_asymptotic_gap(plan: FrequencyPlan) -> Check:
    worst = 0.0
    for m in range(3, 14):
        gap = abs(prob_exact(plan, m).value - prob_asymptotic(m).value)
        worst = max(worst, gap)
    return worst <= 0.01, f"max gap = {worst:.2e}"


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run every check, or with quick only the fast subset, in a fixed order."""
    checks: list[tuple[str, Callable[[], Check]]] = [
        # The sieved mu against Mobius inversion, up to 2,000 or 10,000.
        ("mobius_sieve", lambda: _check_mobius(2000 if quick else 10_000)),
        # zeta_int(2) against pi^2 / 6.
        ("zeta_closed_form", _check_zeta),
        # gcd_all against hand-worked gcds.
        ("gcd_known_values", _check_gcd),
        # Exact P against counting every m-tuple of small plans.
        ("exact_vs_enumeration", _check_exact_enumeration),
        # Exact cycles at R against R + UD (equal), R + UD / 2, 3, 5, 7 (not).
        ("phase_periodicity", _check_periodicity),
    ]
    if not quick:
        plans = fig1.all_plans()  # built once: L = 1's weights serve two checks
        checks += [
            # mertens_at_quotients([10**n]) against OEIS A084237 for n = 1..8,
            # values that the loop above the sieve fills.
            ("mertens_known_values", _check_mertens),
            # Exact P across the L = 1, 7, 12 plans; spread < 0.01.
            ("l_independence", lambda: _check_l_independence(plans)),
            # Exact P against 1/zeta(M) on the L = 1 plan; gap <= 0.01.
            ("asymptotic_gap", lambda: _check_asymptotic_gap(plans[0])),
        ]
    return [CheckResult(name, *check()) for name, check in checks]

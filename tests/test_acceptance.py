"""Acceptance suite: one test per shipping criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from udrange import fig1
from udrange.estimator import prob_asymptotic, prob_exact, prob_montecarlo
from udrange.numtheory import sieve_mobius, zeta_int
from udrange.ranging import compute_ud, phase_shifts
from udrange.spectrum import sample_selection_batch, validate_plan

from .conftest import PLAN_DIR, random_tiny_plan
from .oracles import circular_delta, coprime_fraction_brute, mobius_ref, zeta_ref

import math


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_fig1_reproduction(fig1_plans):
    """Monte Carlo tracks 1/zeta(M) on all three bundled plans, M = 3..13."""
    worst = 0.0
    ok = True
    for plan_idx, plan in enumerate(fig1_plans):
        for m in range(3, 14):
            mc = prob_montecarlo(plan, m, 100_000, seed=1000 + plan_idx)
            gap = abs(mc.value - 1.0 / zeta_ref(m))
            tolerance = max(0.01, 4 * mc.std_error)
            worst = max(worst, gap / tolerance)
            ok = ok and gap <= tolerance
    report(
        "criterion 1: Monte Carlo reproduction (33 cells)",
        ok,
        f"worst gap/tolerance = {worst:.3f}",
    )


def test_criterion_2_asymptotic_gap(fig1_plan_l1):
    """Exact vs 1/zeta(M) within 0.01, and the M = 3 gap shrinks with N."""
    worst = max(
        abs(prob_exact(fig1_plan_l1, m).value - 1.0 / zeta_ref(m))
        for m in range(3, 14)
    )
    z3 = 1.0 / zeta_ref(3)
    gaps = []
    for exp in (12, 13, 14, 15):
        plan = validate_plan(
            {
                "f_min_hz": 1000,
                "segments": [{"start_index": 54000, "count": 2**exp}],
            }
        )
        gaps.append(abs(prob_exact(plan, 3).value - z3))
    trend_ok = all(b <= 2.0 * a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < gaps[0]
    report(
        "criterion 2: asymptotic gap and O(1/N) scaling",
        worst <= 0.01 and trend_ok,
        f"max gap = {worst:.2e}, gaps over N = {['%.2e' % g for g in gaps]}",
    )


def test_criterion_3_ten_frequency_claim(fig1_plans):
    """P exceeds 0.999 once more than 10 frequencies are used."""
    asym = prob_asymptotic(11).value
    exact_vals = [prob_exact(plan, 11).value for plan in fig1_plans]
    ok = asym > 0.999 and all(v > 0.999 - 0.001 for v in exact_vals)
    report(
        "criterion 3: P > 0.999 for M = 11",
        ok,
        f"asymptotic = {asym:.6f}, exact = {min(exact_vals):.6f}",
    )


def test_criterion_4_oracle_equivalence():
    """Exact probabilities equal brute-force tuple enumeration as rationals."""
    rng = np.random.default_rng(20140101)
    checked = 0
    ok = True
    for _ in range(20):
        plan = random_tiny_plan(rng, max_total=60, max_segments=4)
        for m in (2, 3):
            e = prob_exact(plan, m)
            got = Fraction(e.exact_numerator, e.exact_denominator)
            if got != coprime_fraction_brute(plan, m):
                ok = False
            checked += 1
    report(
        "criterion 4: exact == enumeration on randomized small plans",
        ok,
        f"{checked} plan/M combinations",
    )


def test_criterion_5_l_independence(fig1_plans):
    """Segment count barely moves the exact probability at N = 2^15."""
    worst = 0.0
    for m in range(3, 14):
        vals = [prob_exact(plan, m).value for plan in fig1_plans]
        worst = max(worst, max(vals) - min(vals))
    report(
        "criterion 5: L-independence across L = 1, 7, 12",
        worst < 0.01,
        f"max spread = {worst:.2e}",
    )


def test_criterion_6_ud_periodicity(fig1_plans):
    """UD is a phase period; half of it is not (for coprime selections)."""
    periodic_ok = True
    half_breaks = 0
    total = 0
    rng = np.random.default_rng(6180)
    for plan in fig1_plans:
        for _ in range(100):
            total += 1
            sel = tuple(sample_selection_batch(plan, 7, rng).tolist())
            r = Fraction(float(rng.uniform(0.0, 299_792.458)))
            ud = compute_ud(plan, sel).ud
            base = phase_shifts(plan, sel, r)
            shifted = phase_shifts(plan, sel, r + ud)
            if any(
                circular_delta(a, b) > 1e-9
                for a, b in zip(base, shifted)
            ):
                periodic_ok = False
            if math.gcd(*sel) == 1:
                half = phase_shifts(plan, sel, r + ud / 2)
                if any(
                    circular_delta(a, b) > 0.1
                    for a, b in zip(base, half)
                ):
                    half_breaks += 1
    ok = periodic_ok and half_breaks >= 95 * len(fig1_plans)
    report(
        "criterion 6: phase periodicity at UD, aperiodicity at UD/2",
        ok,
        f"half-period breaks: {half_breaks}/{total}",
    )


def test_criterion_7_number_theory_substrate():
    """Mobius sieve matches factorization; zeta(2) hits the closed form."""
    table = sieve_mobius(10_000)
    mobius_ok = all(table.values[j] == mobius_ref(j) for j in range(1, 10_001))
    zeta_err = abs(zeta_int(2) - math.pi**2 / 6.0)
    report(
        "criterion 7: number-theory substrate",
        mobius_ok and zeta_err < 1e-12,
        f"zeta(2) error = {zeta_err:.2e}",
    )


def test_criterion_8_sweep_determinism():
    """Sweep bytes are identical across repeated runs and worker counts."""
    plan_path = PLAN_DIR / "fig1_L1.json"
    base = [
        sys.executable,
        "-m",
        "udrange",
        "sweep",
        "--plan",
        str(plan_path),
        "--m-range",
        "3..4",
        "--trials",
        "140000",
        "--seed",
        "8",
    ]
    outputs = []
    for workers in ("1", "1", "6"):
        proc = subprocess.run(
            base + ["--workers", workers], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    report("criterion 8: sweep determinism across runs and workers", ok)

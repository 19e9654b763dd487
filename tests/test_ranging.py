import math
from fractions import Fraction

import numpy as np
import pytest

from udrange import ranging
from udrange.ranging import (
    SPEED_OF_LIGHT_M_S,
    UdResult,
    compute_ud,
    phase_shifts,
    verify_ambiguity,
)
from udrange.spectrum import sample_selection_batch

from .conftest import make_plan
from .oracles import circular_delta, setwise_coprime_scan

PLAN = make_plan([(1, 100_000)])  # permissive plan for hand-picked selections


class TestComputeUd:
    def test_consecutive_indices_reach_maximum(self):
        r = compute_ud(PLAN, (54000, 54001))
        assert r.gcd_k == 1
        assert r.is_max
        assert r.ud_m == pytest.approx(299_792.458, abs=1e-9)

    def test_common_factor_shrinks_ud(self):
        r = compute_ud(PLAN, (54000, 60000, 66000))
        assert r.gcd_k == 6000
        assert not r.is_max
        assert r.ud_m == pytest.approx(SPEED_OF_LIGHT_M_S / 6_000_000, rel=1e-15)
        assert r.ud_m == pytest.approx(49.9654, abs=1e-3)

    def test_single_frequency_is_one_wavelength(self):
        r = compute_ud(PLAN, (54000,))
        assert r.gcd_k == 54000
        assert r.ud_m == pytest.approx(SPEED_OF_LIGHT_M_S / 54_000_000, rel=1e-15)
        assert r.ud_m == pytest.approx(5.5517, abs=1e-3)

    def test_scaling_indices_divides_ud(self):
        base = (12, 30, 42)
        for d in (2, 3, 11):
            scaled = tuple(d * k for k in base)
            rb = compute_ud(PLAN, base)
            rs = compute_ud(PLAN, scaled)
            assert rs.gcd_k == d * rb.gcd_k
            assert rs.ud * d == rb.ud

    def test_is_max_iff_setwise_coprime(self):
        rng = np.random.default_rng(17)
        small = make_plan([(2, 400)])
        for _ in range(50):
            sel = tuple(sample_selection_batch(small, 3, rng).tolist())
            r = compute_ud(small, sel)
            assert r.is_max == setwise_coprime_scan(sel)


class TestPhaseShifts:
    def test_zero_distance_zero_phase(self):
        pv = phase_shifts(PLAN, (54000, 54001, 60000), 0.0)
        assert pv == (0.0, 0.0, 0.0)

    def test_half_wavelength_gives_pi(self):
        k = 54000
        half_wavelength = Fraction(SPEED_OF_LIGHT_M_S) / (2 * k * 1000)
        pv = phase_shifts(PLAN, (k,), half_wavelength)
        assert pv[0] == pytest.approx(math.pi, abs=1e-12)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            phase_shifts(PLAN, (5,), -1.0)

    def test_phases_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sel = tuple(sample_selection_batch(PLAN, 4, rng).tolist())
            pv = phase_shifts(PLAN, sel, float(rng.uniform(0, 3e5)))
            assert all(0.0 <= p < 2 * math.pi for p in pv)

    def test_periodic_at_multiples_of_ud(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            sel = tuple(sample_selection_batch(PLAN, 5, rng).tolist())
            ud = compute_ud(PLAN, sel).ud
            r = Fraction(float(rng.uniform(0.0, 299_792.458)))
            base = phase_shifts(PLAN, sel, r)
            for n in (1, 2, 5):
                shifted = phase_shifts(PLAN, sel, r + n * ud)
                for a, b in zip(base, shifted):
                    assert circular_delta(a, b) < 1e-9


class TestVerifyAmbiguity:
    def test_coprime_pair(self):
        assert verify_ambiguity(PLAN, (54000, 54001), 100.0)

    def test_single_tone_half_period_is_not_period(self):
        # UD = c/(2 f_min); UD/2 shifts the single phase by pi
        assert verify_ambiguity(PLAN, (2,), 10.0)

    def test_random_selections(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            sel = tuple(sample_selection_batch(PLAN, 4, rng).tolist())
            r = float(rng.uniform(0.0, 299_792.458))
            assert verify_ambiguity(PLAN, sel, r)

    def test_rejects_slightly_wrong_ud(self, monkeypatch):
        # A float tolerance on phases cannot see a relative UD error of 1e-13.
        true_ud = ranging.compute_ud
        scale = 1 + Fraction(1, 10**13)

        def wrong_ud(plan, sel):
            r = true_ud(plan, sel)
            return UdResult(r.gcd_k, r.ud * scale)

        monkeypatch.setattr(ranging, "compute_ud", wrong_ud)
        assert not verify_ambiguity(PLAN, (54000, 54001), 100.0)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            verify_ambiguity(PLAN, (3, 4), -1.0)


class TestCircularDelta:
    def test_wraparound(self):
        assert circular_delta(0.01, 2 * math.pi - 0.01) == pytest.approx(0.02)

    def test_plain(self):
        assert circular_delta(1.0, 1.5) == pytest.approx(0.5)

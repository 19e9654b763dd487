import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrange import numtheory
from udrange.numtheory import (
    ZETA_TOL,
    gcd_all,
    mertens_at_quotients,
    sieve_mobius,
    zeta_int,
)

from .oracles import is_prime_trial_division, mobius_ref, zeta_ref


@functools.lru_cache(maxsize=None)
def mobius_ref_table(limit: int) -> np.ndarray:
    """mu(0..limit) from the reference, laid out like MobiusTable.values."""
    return np.array([0] + [mobius_ref(j) for j in range(1, limit + 1)], dtype=np.int8)


class TestSieveMobius:
    def test_first_six_values(self):
        table = sieve_mobius(6)
        assert [table.values[j] for j in range(1, 7)] == [1, -1, -1, 0, -1, 1]

    def test_limit_one(self):
        table = sieve_mobius(1)
        assert table.limit == 1
        assert table.values[1] == 1

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            sieve_mobius(0)

    def test_refuses_int32_overflow_before_allocating(self, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before refusing")

        monkeypatch.setattr(np, "ones", no_alloc)
        with pytest.raises(ValueError, match=r"2\*\*31\), got 2147483648"):
            sieve_mobius(2**31)

    def test_large_prime_spot_check(self):
        assert is_prime_trial_division(999_983)
        assert sieve_mobius(1_000_000).values[999_983] == -1

    def test_matches_reference_to_ten_thousand(self):
        table = sieve_mobius(10_000)
        for j in range(1, 10_001):
            assert table.values[j] == mobius_ref(j), f"mu({j})"

    def test_matches_reference_at_every_small_limit(self):
        # Limits 2 and 3 have no prime at or below sqrt(limit).
        ref = mobius_ref_table(400)
        for limit in range(1, 401):
            np.testing.assert_array_equal(sieve_mobius(limit).values, ref[: limit + 1])

    @pytest.mark.parametrize("p", [31, 61, 97])
    def test_matches_reference_around_a_prime_square(self, p):
        # p^2 - 1, p^2 and p^2 + 1 put p just above, at and just below sqrt(limit).
        sq = p * p
        ref = mobius_ref_table(97 * 97 + 1)
        for limit in (sq - 1, sq, sq + 1):
            np.testing.assert_array_equal(sieve_mobius(limit).values, ref[: limit + 1])

    def test_divisor_sum_identity(self):
        # sum over d | n of mu(d) is 1 at n = 1 and 0 for n > 1
        table = sieve_mobius(500)
        for n in range(1, 501):
            s = sum(int(table.values[d]) for d in range(1, n + 1) if n % d == 0)
            assert s == (1 if n == 1 else 0)

    def test_mertens_bound(self):
        table = sieve_mobius(10_000)
        assert abs(int(table.values.sum())) <= 10_000

    @given(
        a=st.integers(min_value=1, max_value=300),
        b=st.integers(min_value=1, max_value=300),
    )
    def test_multiplicative_on_coprime_arguments(self, a, b):
        if math.gcd(a, b) != 1:
            return
        table = sieve_mobius(a * b)
        assert table.values[a * b] == table.values[a] * table.values[b]


@pytest.fixture
def sieve_limits(monkeypatch):
    """The limits T that mertens_at_quotients passes to sieve_mobius."""
    limits = []

    def recording(limit):
        limits.append(limit)
        return sieve_mobius(limit)

    monkeypatch.setattr(numtheory, "sieve_mobius", recording)
    return limits


class TestMertens:
    def test_loop_matches_sieve_cumsum_to_four_million(self, sieve_limits):
        # 343 ends in the top 6%: T = (E K)^(2/3) is about K / 3.24, so the
        # loop fills n // 1, n // 2 and n // 3 of each n, and n // 1 > 2 T
        # reads back M(n // 2), a value the loop filled.
        b, m = mertens_at_quotients(range(4 * 10**6, 376 * 10**4, -700))
        (t,) = sieve_limits
        assert np.count_nonzero(b > t) >= 1_000
        assert np.count_nonzero(b > 2 * t) >= 300
        ref = np.cumsum(sieve_mobius(4 * 10**6).values)
        np.testing.assert_array_equal(m, ref[b])

    def test_sieve_reaches_k_without_a_loop(self, sieve_limits):
        # 200 ends up to K = 10^4: (E K)^(2/3) > K, so T = K and no b is above T.
        b, m = mertens_at_quotients(range(10**4, 0, -37)[:200])
        assert sieve_limits == [10**4] == [b[-1]]
        np.testing.assert_array_equal(m, np.cumsum(sieve_mobius(10**4).values)[b])

    @pytest.mark.parametrize("ends", [[0], [0, 0], [0, 1]])
    def test_zero_ends(self, ends):
        # An end of 0 adds no block end; at K = 0 the sieve still needs a limit of 1.
        b, m = mertens_at_quotients(ends)
        assert b.tolist() == list(range(1, max(ends) + 1))
        assert m.tolist() == [1] * max(ends)

    @pytest.mark.parametrize(
        "n,expected",
        # OEIS A084237: M(10^n) for n = 0..10.
        enumerate([1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722]),
    )
    def test_powers_of_ten(self, n, expected):
        b, m = mertens_at_quotients([10**n])
        assert (b[-1], m[-1]) == (10**n, expected)

    @given(st.lists(st.integers(0, 10**5), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_any_order_and_repeats(self, ends):
        ref = np.cumsum(sieve_mobius(10**5).values)
        quotients = {n // q for n in ends for q in range(1, math.isqrt(n) + 1)}
        expected = sorted(quotients | set(range(1, math.isqrt(max(ends)) + 1)))
        b, m = mertens_at_quotients(ends)
        assert b.tolist() == expected
        assert m.tolist() == ref[expected].tolist()


class TestZetaInt:
    def test_basel_closed_form(self):
        assert abs(zeta_int(2) - math.pi**2 / 6.0) < 1e-12

    def test_aperys_constant(self):
        assert abs(zeta_int(3) - zeta_ref(3)) < 1e-12

    def test_large_argument_near_one(self):
        v = zeta_int(20)
        assert abs(v - zeta_ref(20)) < 1e-12
        assert abs(v - 1.000000953962033872796113152) < 1e-12

    @pytest.mark.parametrize("m", range(2, 30))
    def test_within_tolerance_of_reference(self, m):
        assert abs(zeta_int(m) - zeta_ref(m)) < ZETA_TOL == 1e-12

    def test_strictly_decreasing_above_one(self):
        values = [zeta_int(m) for m in range(2, 40)]
        for a, b in zip(values, values[1:]):
            assert a > b > 1.0

    def test_huge_argument_is_one(self):
        assert zeta_int(10**400) == 1.0

    def test_rejects_divergent_argument(self):
        with pytest.raises(ValueError):
            zeta_int(1)


class TestGcdAll:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([54000, 54001], 1),
            ([12, 18, 30], 6),
            ([7, 14, 21], 7),
            ([42], 42),
        ],
    )
    def test_known_values(self, values, expected):
        assert gcd_all(values) == expected

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gcd_all([])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gcd_all([4, 0, 6])

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=8))
    def test_divides_every_element(self, values):
        g = gcd_all(values)
        assert all(v % g == 0 for v in values)

    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_is_greatest_common_divisor(self, values):
        g = gcd_all(values)
        for d in range(g + 1, min(values) + 1):
            assert not all(v % d == 0 for v in values)

    @given(st.permutations([12, 30, 42, 18]))
    def test_order_independent(self, values):
        assert gcd_all(values) == 6

import math
import time
from functools import cached_property
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrange.estimator import prob_montecarlo
from udrange.ranging import compute_ud
from udrange.spectrum import (
    SIGNATURE_ROWS_PER_ENTRY,
    SIGNATURE_ROWS_PER_STEP,
    FrequencyPlan,
    PlanError,
    SelectionError,
    count_multiples_upto,
    sample_selection_batch,
    selection_from_indices,
    validate_plan,
)

from .conftest import load_fig1_plan, make_plan, small_plans
from .oracles import (
    TRIAL_PRIMES,
    count_multiples_brute,
    plan_indices,
    prime_factors_trial_division,
    sample_selection_ref,
)


class TestValidatePlan:
    def test_single_band_scenario(self):
        plan = validate_plan(
            {"f_min_hz": 1000, "segments": [{"start_index": 54000, "count": 32768}]}
        )
        assert plan.n_segments == 1
        assert plan.n_frequencies == 32768
        assert plan.segments[0].start == 54000
        assert plan.last_index == 86767

    def test_rejects_overlap(self):
        with pytest.raises(PlanError, match="overlap"):
            make_plan([(10, 5), (12, 3)])

    def test_degenerate_single_frequency(self):
        plan = make_plan([(1, 1)])
        assert plan.n_frequencies == 1
        assert plan.segments[0].start == plan.last_index == 1

    @pytest.mark.parametrize(
        "raw",
        [
            {"f_min_hz": 0, "segments": [{"start_index": 1, "count": 1}]},
            {"f_min_hz": -5, "segments": [{"start_index": 1, "count": 1}]},
            {"f_min_hz": 1000, "segments": []},
            {"f_min_hz": 1000, "segments": [{"start_index": 0, "count": 3}]},
            {"f_min_hz": 1000, "segments": [{"start_index": 5, "count": 0}]},
            {"f_min_hz": 1000, "segments": [{"start": 5}]},
            {"segments": [{"start_index": 5, "count": 1}]},
            # Fields of the wrong type are rejected, never coerced.
            {"f_min_hz": 1000, "segments": [{"start_index": 5.9, "count": 1}]},
            {"f_min_hz": 1000, "segments": [{"start_index": 5.0, "count": 1}]},
            {"f_min_hz": 1000, "segments": [{"start_index": 5, "count": True}]},
            {"f_min_hz": 1000, "segments": [{"start_index": "5", "count": 1}]},
            {"f_min_hz": 1000, "segments": [{"start_index": 5, "count": "3"}]},
            {"f_min_hz": float("inf"), "segments": [{"start_index": 5, "count": 1}]},
            {"f_min_hz": float("nan"), "segments": [{"start_index": 5, "count": 1}]},
            {"f_min_hz": 10**400, "segments": [{"start_index": 5, "count": 1}]},
            {"f_min_hz": "1000", "segments": [{"start_index": 5, "count": 1}]},
            {"f_min_hz": True, "segments": [{"start_index": 5, "count": 1}]},
            {"f_min_hz": 1000, "segments": 5},
            {"f_min_hz": 1000, "segments": [None]},
            # Indices past 2**63 - 1, and a plan straddling it.
            {"f_min_hz": 1000, "segments": [{"start_index": 10**23, "count": 1}]},
            {"f_min_hz": 1000,
             "segments": [{"start_index": 9223372036854775000, "count": 1000}]},
            # JSON values that are not objects.
            [1, 2],
            "x",
            5,
            # An f_min so small that the maximal UD c / f_min overflows.
            {"f_min_hz": 1e-310, "segments": [{"start_index": 5, "count": 1}]},
        ],
    )
    def test_rejects_malformed(self, raw):
        with pytest.raises(PlanError):
            validate_plan(raw)

    def test_accepts_last_index_at_int64_max(self):
        plan = make_plan([(2**63 - 1000, 1000)])
        assert plan.last_index == 2**63 - 1
        rng = np.random.default_rng(0)
        selection = tuple(sample_selection_batch(plan, 5, rng).tolist())
        assert selection_from_indices(plan, selection) == selection

    @pytest.mark.parametrize(
        "start, count, message",
        [
            # Ints too long for str(): the message names the field, not its digits.
            (10**5000, 1, "start_index must be between 1 and 2**63 - 1"),
            (-(10**5000), 1, "start_index must be between 1 and 2**63 - 1"),
            (5, -(10**5000), "count must be between 1 and 2**63 - 1"),
            # Values below 2**63 in magnitude are quoted.
            (0, 3, "start_index must be >= 1, got 0"),
            (5, 1 - 2**63, "count must be >= 1, got -9223372036854775807"),
            (2**63 - 1, 2, "last index 9223372036854775808 exceeds 2**63 - 1"),
        ],
        ids=["huge_start", "huge_negative_start", "huge_negative_count",
             "start_zero", "count_negative", "last_past_int64"],
    )
    def test_error_names_segment_and_field(self, start, count, message):
        with pytest.raises(PlanError) as info:
            make_plan([(1, 2), (start, count)])
        assert str(info.value) == f"segment 1: {message}"

    def test_f_min_keeps_maximal_ud_finite(self):
        # c / f_min overflows a double for f_min below about 1.67e-300.
        smallest = make_plan([(5, 2)], f_min_hz=1.67e-300)
        assert math.isfinite(compute_ud(smallest, (5, 6)).ud_m)
        for f_min in (1.66e-300, 5e-324):
            with pytest.raises(PlanError, match="too small"):
                make_plan([(5, 1)], f_min_hz=f_min)

    def test_accepts_integer_and_float_f_min(self):
        for f_min in (1000, 1000.0, 2.5):
            assert make_plan([(5, 1)], f_min_hz=f_min).f_min_hz == float(f_min)

    def test_keeps_decimal_f_min_exact(self):
        assert make_plan([(5, 1)], f_min_hz=Decimal("0.1")).f_min_hz == Fraction(1, 10)

    def test_refuses_decimal_nan_f_min(self):
        # float() raises ValueError for a signalling NaN, which used to escape.
        for nan in ("sNaN", "NaN"):
            with pytest.raises(PlanError) as info:
                make_plan([(5, 1)], f_min_hz=Decimal(nan))
            assert str(info.value) == "f_min_hz must be finite and positive, got nan"

    def test_normalizes_segment_order(self):
        plan = validate_plan(
            {
                "f_min_hz": 1000,
                "segments": [
                    {"start_index": 50, "count": 2},
                    {"start_index": 3, "count": 4},
                ],
            }
        )
        assert [s.start for s in plan.segments] == [3, 50]


class TestCountMultiples:
    def test_hand_enumeration(self):
        plan = make_plan([(10, 10)])  # indices 10..19: multiples 12, 15, 18
        assert count_multiples_upto(plan, np.array([3])).tolist() == [3]

    def test_j_one_counts_everything(self):
        plan = make_plan([(7, 9), (40, 11)])
        x = count_multiples_upto(plan, np.array([1]))
        assert x.tolist() == [plan.n_frequencies]

    def test_band_multiples_of_seven(self):
        plan = make_plan([(54000, 32768)])
        brute = sum(1 for k in range(54000, 86768) if k % 7 == 0)
        assert brute == 4681
        assert count_multiples_upto(plan, np.array([7])).tolist() == [4681]

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, plan):
        j = np.arange(1, plan.last_index + 1)
        x = count_multiples_upto(plan, j)
        assert x.tolist() == [count_multiples_brute(plan, int(k)) for k in j]

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_segment_bound(self, plan):
        n, L = plan.n_frequencies, plan.n_segments
        j = np.arange(1, plan.last_index + 5)
        x = count_multiples_upto(plan, j)
        assert np.all((n / j - L <= x) & (x <= n / j + L))

    def test_vanishes_beyond_last_index(self):
        plan = make_plan([(4, 6), (20, 3)])
        j = np.arange(plan.last_index + 1, plan.last_index + 50)
        assert not count_multiples_upto(plan, j).any()


class TestSampling:
    def test_members_of_plan(self):
        plan = make_plan([(10, 5), (100, 5)])
        rng = np.random.default_rng(3)
        sel = tuple(sample_selection_batch(plan, 3, rng).tolist())
        assert len(sel) == 3
        assert selection_from_indices(plan, sel) == sel

    def test_deterministic_given_seed(self):
        plan = make_plan([(10, 50), (100, 50)])
        a = sample_selection_batch(plan, 8, np.random.default_rng(99)).tolist()
        b = sample_selection_batch(plan, 8, np.random.default_rng(99)).tolist()
        assert a == b

    def test_uniform_marginals(self):
        plan = make_plan([(1, 4)])
        rng = np.random.default_rng(2024)
        draws = sample_selection_batch(plan, 100_000, rng)
        sigma = np.sqrt(100_000 * 0.25 * 0.75)
        for k in (1, 2, 3, 4):
            assert abs(np.count_nonzero(draws == k) - 25_000) < 4 * sigma

    def test_rejects_bad_sizes(self):
        plan = make_plan([(1, 4)])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_selection_batch(plan, 0, rng)


class StubGenerator:
    """Stands in for np.random.Generator: integers returns the given positions."""

    def __init__(self, positions):
        self.positions = positions
        self.calls = []

    def integers(self, low, high, size, dtype):
        self.calls.append((low, high, size))
        return np.array(self.positions, dtype=dtype)


def edge_positions(plan):
    """Each segment's and each bucket's first and last flat position, and N - 1."""
    _, _, bits, table = plan.sampler_layout
    last = plan.n_frequencies - 1
    positions = {last}
    first = 0
    for seg in plan.segments:
        positions.update((first, first + seg.count - 1))
        first += seg.count
    for b in range(len(table)):
        positions.update((b << bits, min(((b + 1) << bits) - 1, last)))
    return sorted(positions)


def expected_dtype(plan):
    return np.int32 if plan.last_index < 2**31 else np.int64


@st.composite
def sampling_plans(draw):
    """Up to 40 segments, many of one index, with gaps up to 2**55."""
    counts = draw(
        st.lists(st.one_of(st.just(1), st.integers(1, 10**5)), min_size=1, max_size=40)
    )
    scale = draw(st.sampled_from([1, 1_000, 2**26, 2**31, 2**55]))
    segments = []
    start = 1 + draw(st.integers(0, scale))
    for count in counts:
        segments.append((start, count))
        start += count + draw(st.integers(1, scale))
    return make_plan(segments)


class TestPositionMapping:
    @pytest.mark.parametrize(
        "segments",
        [
            [(5, 100), (2**31 - 1_000, 1_000)],  # last index 2**31 - 1
            [(5, 100), (2**31 - 999, 1_000)],  # last index 2**31
            [(7, 1)],  # N = 1
            [(101 * i + 1, 1 + 37 * i % 100) for i in range(5_000)],  # L = 5000
            [(1, 2**63 - 10), (2**63 - 8, 8)],  # a boundary in the last bucket
        ],
    )
    def test_edge_positions_match_reference(self, segments):
        plan = make_plan(segments)
        positions = edge_positions(plan)
        rng = StubGenerator(positions)
        out = sample_selection_batch(plan, len(positions), rng)
        assert rng.calls == [(0, plan.n_frequencies, len(positions))]
        assert out.dtype == expected_dtype(plan)
        assert out.tolist() == sample_selection_ref(plan, positions).tolist()
        table = plan.sampler_layout[3]
        assert len(table) <= min(2**16, 64 * plan.n_segments)

    @given(plan=sampling_plans(), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_plans_match_reference(self, plan, seed):
        positions = edge_positions(plan)
        out = sample_selection_batch(plan, len(positions), StubGenerator(positions))
        assert out.dtype == expected_dtype(plan)
        assert out.tolist() == sample_selection_ref(plan, positions).tolist()
        # The same generator state gives the same indices as int64 draws.
        drawn = sample_selection_batch(plan, 1_000, np.random.default_rng(seed))
        reference = np.random.default_rng(seed).integers(
            0, plan.n_frequencies, size=1_000, dtype=np.int64
        )
        assert drawn.dtype == expected_dtype(plan)
        assert drawn.tolist() == sample_selection_ref(plan, reference).tolist()

    @given(
        n=st.integers(1, 2**31),
        sizes=st.lists(st.integers(1, 101), min_size=1, max_size=8),
        narrow=st.lists(st.booleans(), min_size=8, max_size=8),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_int32_and_int64_draws_are_one_stream(self, n, sizes, narrow, seed):
        # Below 2**32 numpy draws either dtype from 32-bit words and keeps the
        # unused half of a 64-bit output for the next call, odd sizes included:
        # the Monte Carlo signature block draws int64 where
        # sample_selection_batch draws int32, one call after another.
        mixed, wide = np.random.default_rng(seed), np.random.default_rng(seed)
        for size, small in zip(sizes, narrow):
            got = mixed.integers(0, n, size=size, dtype=np.int32 if small else np.int64)
            assert got.tolist() == wide.integers(0, n, size=size, dtype=np.int64).tolist()


class TestSelectionFromIndices:
    def test_accepts_members(self):
        plan = make_plan([(5, 3), (20, 2)])
        sel = selection_from_indices(plan, [5, 21, 7])
        assert sel == (5, 21, 7)

    def test_rejects_outsider(self):
        plan = make_plan([(5, 3)])
        with pytest.raises(SelectionError):
            selection_from_indices(plan, [5, 9])

    def test_rejects_empty(self):
        with pytest.raises(SelectionError):
            selection_from_indices(make_plan([(5, 3)]), [])

    def test_refuses_fractional_index(self):
        # 54000.9 used to be truncated to the plan member 54000.
        plan = make_plan([(54000, 10)])
        with pytest.raises(SelectionError, match=r"^index 54000\.9 is not an integer$"):
            selection_from_indices(plan, [54000.9])
        assert selection_from_indices(plan, ["54001", np.int64(54002)]) == (54001, 54002)

    def test_refuses_int_too_long_to_print(self):
        # str() refuses an int of more than 4,300 digits: the value is not quoted.
        with pytest.raises(SelectionError, match="^index is not in the plan's index set$"):
            selection_from_indices(make_plan([(5, 3)]), [10**5000])

    def test_many_segments_are_searched_by_bisection(self):
        # The shape of test_cli's `singles` plan: 200,000 single indices 40 apart.
        plan = make_plan([(40 * i, 1) for i in range(1, 200_001)])
        indices = [40 * i for i in range(199_000, 200_001)]
        start = time.perf_counter()
        assert selection_from_indices(plan, indices) == tuple(indices)
        assert time.perf_counter() - start < 1.0
        for k in (41, 39, 8_000_040):  # in a gap, below the first, above the last
            with pytest.raises(SelectionError, match=f"index {k} is not in"):
                selection_from_indices(plan, indices + [k])


# A plan has prime signatures when K < 313**3 and N <= 2**16.
@st.composite
def signature_plans(draw):
    """One to five segments of up to 900 indices each, ending below 313**3."""
    n_segments = draw(st.integers(1, 5))
    counts = [draw(st.integers(1, 900)) for _ in range(n_segments)]
    gaps = [draw(st.integers(1, 10**7)) for _ in range(n_segments - 1)] + [0]
    start = draw(st.integers(1, 313**3 - 1 - sum(counts) - sum(gaps)))
    segments = []
    for count, gap in zip(counts, gaps):
        segments.append((start, count))
        start += count + gap
    return make_plan(segments)


class TestPrimeSignatures:
    @staticmethod
    def assert_factors_match_trial_division(plan):
        masks, firsts, seconds, hashes = plan.prime_signatures
        bit = {p: 1 << i for i, p in enumerate(TRIAL_PRIMES[:64])}
        expected_masks, expected_large = [], []
        for k in plan_indices(plan):
            factors = prime_factors_trial_division(k)
            expected_masks.append(sum(bit[p] for p in factors if p in bit))
            expected_large.append({p for p in factors if p not in bit})
        assert TRIAL_PRIMES[63] == 311
        assert masks.dtype == np.uint64
        assert firsts.dtype == seconds.dtype == np.int32
        assert hashes.dtype == np.uint32
        shapes = {a.shape for a in (masks, firsts, seconds, hashes)}
        assert shapes == {(plan.n_frequencies,)}
        assert masks.tolist() == expected_masks
        large = zip(firsts.tolist(), seconds.tolist())
        assert [set(pair) - {0} for pair in large] == expected_large
        expected_hashes = [sum({1 << p % 31 for p in ps}) for ps in expected_large]
        assert hashes.tolist() == expected_hashes

    def test_fig1_plans_match_trial_division(self, fig1_plans):
        for plan in fig1_plans:
            self.assert_factors_match_trial_division(plan)

    @pytest.mark.parametrize(
        "segments",
        [
            [(1, 800)],  # index 1 has no prime factor
            # 313**2, and 313 * 317 with 317 above isqrt(K) = 315
            [(313**2 - 400, 800), (313 * 317 - 400, 800)],
            # 2 * 313 * 317 with both factors below isqrt(K) = 445
            [(2 * 313 * 317 - 400, 800)],
            # 307 * 313 * 317, and K = 313**3 - 1
            [(307 * 313 * 317 - 500, 1_000), (313**3 - 1_000, 1_000)],
        ],
    )
    def test_edge_plans_match_trial_division(self, segments):
        self.assert_factors_match_trial_division(make_plan(segments))

    @given(plan=signature_plans())
    @settings(max_examples=10, deadline=None)
    def test_random_plans_match_trial_division(self, plan):
        self.assert_factors_match_trial_division(plan)

    @pytest.mark.parametrize(
        "segments",
        [
            [(313 * 317 - 600, 1_200)],
            [(313 * 499 - 300, 600), (317 * 379 - 300, 600)],  # 499, 379: 313, 317 mod 31
            [(313**3 - 1_500, 1_500)],
        ],
    )
    def test_every_shared_large_prime_meets_in_the_hashes(self, segments):
        # Every pair of positions, both orders: a pair that shares a prime above
        # 311 has hash words that share a bit, so the screen misses no such row.
        plan = make_plan(segments)
        self.assert_factors_match_trial_division(plan)
        masks, firsts, seconds, hashes = plan.prime_signatures
        large = np.stack([firsts, seconds])[:, :, None]  # [k, i]: row i's primes
        share = (((large == firsts) | (large == seconds)) & (large != 0)).any(axis=0)
        meet = (hashes & hashes[:, None]) != 0
        assert (share & ~np.eye(plan.n_frequencies, dtype=bool)).any()
        assert not (share & ~meet).any()
        assert (meet & ~share).any()  # the screen flags pairs that share no prime

    def test_prime_powers_are_listed_once_per_table(self, monkeypatch):
        # The sieve runs once per plan with a table, across a request that
        # reaches the price, the table itself and a later request; never on a
        # plan without one, nor for an M = 1 request.
        listed = FrequencyPlan.__dict__["_signature_powers"].func
        calls = []

        def counted(plan):
            powers = listed(plan)
            calls.append((plan, powers is not None))
            return powers

        counting = cached_property(counted)
        counting.__set_name__(FrequencyPlan, "_signature_powers")
        monkeypatch.setattr(FrequencyPlan, "_signature_powers", counting)
        plans = [load_fig1_plan(12), make_plan([(313**3 - 1_000, 1_000)])]
        for plan in plans:
            prob_montecarlo(plan, 2, 262_480, seed=0)
            assert "prime_signatures" in vars(plan)
            assert plan.prime_signatures is not None
            prob_montecarlo(plan, 3, 1_000, seed=1)
        assert calls == [(plan, True) for plan in plans]
        calls.clear()
        for plan in [
            make_plan([(1_000, 5_000), (2**31 - 3_000, 6_000)]),  # K >= 313**3
            make_plan([(1_000, 2**16 + 1)]),  # N > 2**16
            make_plan([(313**3 - 999, 1_000)]),  # K = 313**3
        ]:
            prob_montecarlo(plan, 3, 1_000, seed=1)
            assert plan.prime_signatures is None
            assert calls == [(plan, False)]
            calls.clear()
        # M = 1 has no gcd to save: a request of a table's full price lists nothing.
        plan = FrequencyPlan(plans[1].f_min_hz, plans[1].segments)
        price = SIGNATURE_ROWS_PER_ENTRY * plan.n_frequencies
        price += SIGNATURE_ROWS_PER_STEP * len(plans[1]._signature_powers)
        prob_montecarlo(plan, 1, price, seed=1)
        assert calls == []

    @pytest.mark.parametrize(
        "segments", [[(1, 800)], [(100, 50), (7_000, 3)], [(313**3 - 1_000, 1_000)]]
    )
    def test_steps_count_each_prime_power_in_each_segment(self, segments):
        plan = make_plan(segments)
        k = plan.last_index
        walked = [p for p in TRIAL_PRIMES if p <= max(math.isqrt(k), 311)]
        powers = sum(len([e for e in range(1, 64) if p**e <= k]) for p in walked)
        assert len(plan._signature_powers) == powers

import concurrent.futures
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrange import estimator
from udrange.estimator import (
    EXACT_MAX_BITS,
    EXACT_MAX_INDEX,
    MC_BLOCK_SIZE,
    CapabilityError,
    ProbabilityEstimate,
    prob_asymptotic,
    prob_exact,
    prob_montecarlo,
)
from udrange.spectrum import FrequencyPlan, sample_selection_batch

from .conftest import load_fig1_plan, make_plan, small_plans
from .oracles import coprime_fraction_brute, coprimality_weights_ref, zeta_ref


# 40 segments, two of every three a single index.
FORTY_SEGMENTS = make_plan([(12 * i + 5, 1 if i % 3 else 9) for i in range(40)])
# Last index 2**31 + 2,999: the draws do not fit in int32.
PAST_INT32 = make_plan([(1_000, 5_000), (2**31 - 3_000, 6_000)])


def exact_fraction(estimate) -> Fraction:
    return Fraction(estimate.exact_numerator, estimate.exact_denominator)


class TestProbExact:
    def test_four_element_pairs(self):
        e = prob_exact(make_plan([(1, 4)]), 2)
        assert exact_fraction(e) == Fraction(11, 16)
        assert e.exact_denominator == 16

    def test_single_index_one(self):
        for m in (1, 2, 5):
            assert prob_exact(make_plan([(1, 1)]), m).value == 1.0

    def test_single_index_two(self):
        for m in (1, 3):
            assert prob_exact(make_plan([(2, 1)]), m).value == 0.0

    def test_band_close_to_asymptotic(self, fig1_plan_l1):
        e = prob_exact(fig1_plan_l1, 3)
        assert abs(e.value - 1.0 / zeta_ref(3)) < 0.01

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            prob_exact(make_plan([(1, 4)]), 0)

    def test_sieve_limit_enforced(self):
        # Of the 4 pairs from two consecutive indices, the 2 unequal ones are coprime.
        at_cap = make_plan([(EXACT_MAX_INDEX - 1, 2)])
        assert exact_fraction(prob_exact(at_cap, 2)) == Fraction(1, 2)
        with pytest.raises(CapabilityError, match="exact method's cap"):
            prob_exact(make_plan([(EXACT_MAX_INDEX, 2)]), 2)

    def test_size_limit_enforced(self, fig1_plan_l1):
        # N = 2**15 has 16 bits: M = 875 is the largest M inside the limit.
        assert 875 * 16 <= EXACT_MAX_BITS < 876 * 16
        assert prob_exact(fig1_plan_l1, 875).value == pytest.approx(1.0)
        with pytest.raises(CapabilityError):
            prob_exact(fig1_plan_l1, 876)

    # L segments of `count` indices at 54,000 + step * i on a 1 kHz grid. Every
    # start is a multiple of 4 and every count odd, so each segment holds one
    # more even index than odd: at L = 1,200, P(M = 3) is 0.0129 below
    # 1/zeta(3) = 0.8319073726, where the bundled plans stay within 1e-4.
    @pytest.mark.parametrize(
        "n_segments, count, step, p3, p10",
        [
            (12, 2_731, 67_332, "0.8317145249", "0.9990027071"),
            (120, 273, 6_732, "0.8307623374", "0.9989700480"),
            (1_200, 27, 672, "0.8189589964", "0.9985781137"),
        ],
    )
    def test_adversarial_plans_are_pinned(self, n_segments, count, step, p3, p10):
        plan = make_plan([(54_000 + step * i, count) for i in range(n_segments)])
        assert [f"{prob_exact(plan, m).value:.10f}" for m in (3, 10)] == [p3, p10]

    @given(plan=small_plans(max_segments=3, max_count=15, total_cap=40))
    @settings(max_examples=20, deadline=None)
    def test_matches_enumeration(self, plan):
        for m in (2, 3):
            e = prob_exact(plan, m)
            assert exact_fraction(e) == coprime_fraction_brute(plan, m)
            assert e.value == float(exact_fraction(e))


@st.composite
def wide_plans(draw, k_max=100_000, max_segments=6):
    """Plans of up to max_segments segments with every index in 1..k_max."""
    bounds = sorted(
        draw(
            st.lists(
                st.integers(1, k_max),
                min_size=2,
                max_size=2 * max_segments,
                unique=True,
            )
        )
    )
    pairs = zip(bounds[0::2], bounds[1::2])
    return make_plan([(a, b - a + 1) for a, b in pairs])


class TestCoprimalityWeights:
    def test_fig1_plans_match_reference(self, fig1_plans):
        for plan in fig1_plans:
            assert plan.coprimality_weights == coprimality_weights_ref(plan)

    @given(plan=wide_plans())
    @settings(max_examples=30, deadline=None)
    def test_wide_plans_match_reference(self, plan):
        assert plan.coprimality_weights == coprimality_weights_ref(plan)

    @given(
        starts=st.lists(
            st.integers(1, 20_000), min_size=100, max_size=400, unique=True
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_many_single_index_segments_match_reference(self, starts):
        # 2L >= 200 segment endpoints and K <= 20,000: the sieve reaches K.
        plan = make_plan([(a, 1) for a in starts])
        assert plan.coprimality_weights == coprimality_weights_ref(plan)

    def test_every_single_segment_plan_to_two_hundred(self):
        # start 1 has no lower endpoint; (1, 1) is the plan with K = 1.
        for last in range(1, 201):
            for start in range(1, last + 1):
                plan = make_plan([(start, last - start + 1)])
                weights = plan.coprimality_weights
                assert weights == coprimality_weights_ref(plan), (start, last)

    @pytest.mark.parametrize(
        "segments",
        [
            [(1, 4_999), (5_001, 5_000)],  # K = 100^2
            [(2, 498), (501, 500)],  # K = 10^3
            [(64, 1_000), (1_065, 3_032)],  # K = 64^2 = 16^3
            [(1, 1), (3, 1), (5, 725)],  # K = 27^2 = 9^3
            [(999_001, 500), (999_502, 499)],  # K = 1000^2 = 100^3
        ],
    )
    def test_square_cube_and_gap_plans(self, segments):
        # Segments are one index apart; K is a perfect square, cube or both.
        plan = make_plan(segments)
        assert plan.coprimality_weights == coprimality_weights_ref(plan)

    def test_memory_stays_small_at_the_sieve_cap(self):
        # K = 9,999,999 and N = 2^20: a table of mu up to K alone takes 10 MB.
        plan = make_plan([(8_951_424, 2**20)])
        assert plan.last_index == 9_999_999
        tracemalloc.start()
        try:
            plan.coprimality_weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_no_plan_is_hashed(monkeypatch):
    # Derived state lives on the plan object; no cache is keyed on the plan.
    def refuse(self):
        raise AssertionError("a plan was hashed")

    monkeypatch.setattr(FrequencyPlan, "__hash__", refuse)
    plan = make_plan([(5, 40), (100, 7)])
    assert sample_selection_batch(plan, 10, np.random.default_rng(0)).size == 10
    assert exact_fraction(prob_exact(plan, 3)) == coprime_fraction_brute(plan, 3)


class TestProbAsymptotic:
    def test_basel_value(self):
        assert prob_asymptotic(2).value == pytest.approx(6 / math.pi**2, abs=1e-12)

    def test_m_three(self):
        assert prob_asymptotic(3).value == pytest.approx(0.8319073726, abs=1e-9)
        assert prob_asymptotic(3).value == pytest.approx(1 / zeta_ref(3), abs=1e-12)

    def test_eleven_frequencies_exceed_three_nines(self):
        v = prob_asymptotic(11).value
        assert v == pytest.approx(1 / zeta_ref(11), abs=1e-12)
        assert v > 0.999

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            prob_asymptotic(1)

    def test_strictly_increasing_in_m(self):
        values = [prob_asymptotic(m).value for m in range(2, 40)]
        for a, b in zip(values, values[1:]):
            assert b > a


class TestProbMonteCarlo:
    def test_forced_coprime(self):
        e = prob_montecarlo(make_plan([(1, 1)]), 3, 500, seed=1)
        assert e.value == 1.0
        assert e.std_error == 0.0

    def test_forced_non_coprime(self):
        assert prob_montecarlo(make_plan([(2, 1)]), 3, 500, seed=1).value == 0.0

    def test_agrees_with_exact(self, fig1_plan_l1):
        exact = prob_exact(fig1_plan_l1, 5).value
        mc = prob_montecarlo(fig1_plan_l1, 5, 100_000, seed=99)
        assert abs(mc.value - exact) < 4 * mc.std_error

    def test_deterministic(self, fig1_plan_l1):
        a = prob_montecarlo(fig1_plan_l1, 4, 10_000, seed=7)
        b = prob_montecarlo(fig1_plan_l1, 4, 10_000, seed=7)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        # A fresh plan, drawn from in parallel first: its sampler layout is
        # first built inside the thread pool, perhaps by two threads at once.
        plan = load_fig1_plan(1)
        parallel = prob_montecarlo(plan, 4, 200_000, seed=3, workers=8)
        serial = prob_montecarlo(plan, 4, 200_000, seed=3, workers=1)
        assert serial == parallel

    def test_std_error_formula(self, fig1_plan_l1):
        e = prob_montecarlo(fig1_plan_l1, 3, 5_000, seed=11)
        assert e.std_error == pytest.approx(
            math.sqrt(e.value * (1 - e.value) / 5_000)
        )

    def test_rejects_zero_trials(self, fig1_plan_l1):
        with pytest.raises(ValueError):
            prob_montecarlo(fig1_plan_l1, 3, 0, seed=1)

    @pytest.mark.parametrize(
        "m, workers, message",
        [
            (0, 1, "m must be >= 1, got 0"),
            (-2, 1, "m must be >= 1, got -2"),
            (3, 0, "workers must be >= 1, got 0"),
        ],
    )
    @pytest.mark.parametrize(
        "segments", [[(1, 4)], [(2, 1), (4, 1)]], ids=["one_to_four", "gcd_2"]
    )
    def test_rejects_bad_m_and_workers(self, segments, m, workers, message, monkeypatch):
        # Refused before the gcd early return, any draw or any table build.
        monkeypatch.setattr(estimator, "sample_selection_batch", refuse_draws)
        plan = make_plan(segments)
        assert break_even(plan) < 10_000
        with pytest.raises(ValueError, match=re.escape(message)):
            prob_montecarlo(plan, m, 10_000, seed=0, workers=workers)
        assert "prime_signatures" not in vars(plan)
        monkeypatch.undo()
        assert_request_below_price_builds_nothing(plan, monkeypatch)

    def test_threads_capped_by_affinity(self, monkeypatch):
        monkeypatch.setattr(estimator.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            estimator.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert estimator._usable_cpus() == 1
        monkeypatch.delattr(estimator.os, "sched_getaffinity")
        assert estimator._usable_cpus() == 64

    @pytest.mark.parametrize("seed", [-1, (2014, -1)])
    def test_rejects_negative_seed(self, fig1_plan_l1, seed):
        message = f"seed must be non-negative, got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            prob_montecarlo(fig1_plan_l1, 3, 10, seed=seed)

    def test_calibration_over_seeds(self, fig1_plan_l1):
        exact = prob_exact(fig1_plan_l1, 5).value
        covered = 0
        for seed in range(20):
            e = prob_montecarlo(fig1_plan_l1, 5, 2_000, seed=seed)
            if abs(e.value - exact) <= 2 * e.std_error:
                covered += 1
        assert covered / 20 >= 0.85

    def test_block_memory_does_not_grow_with_m(self, fig1_plans):
        tracemalloc.start()
        try:
            prob_montecarlo(fig1_plans[-1], 512, 16_384, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_threads_capped_by_cpu_count(self, fig1_plan_l1, monkeypatch):
        seen = {"max_workers": [], "tasks": 0}

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen["max_workers"].append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                seen["tasks"] += 1
                return super().submit(fn, *args, **kwargs)

        trials = 5 * MC_BLOCK_SIZE
        serial = prob_montecarlo(fig1_plan_l1, 3, trials, seed=5, workers=1)
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        wide = prob_montecarlo(fig1_plan_l1, 3, trials, seed=5, workers=64)
        assert seen["max_workers"] and max(seen["max_workers"]) <= 2
        assert seen["tasks"] == 2  # one task per thread
        assert wide == serial

    def test_pool_tasks_do_not_grow_with_trials(self, fig1_plan_l1, monkeypatch):
        tasks = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                tasks.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(estimator, "MC_BLOCK_SIZE", 1)
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
        serial = prob_montecarlo(fig1_plan_l1, 3, 10_000, seed=8, workers=1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        wide = prob_montecarlo(fig1_plan_l1, 3, 10_000, seed=8, workers=2)
        assert len(tasks) == 2  # 10,000 one-trial blocks, one task per thread
        assert wide == serial

    @pytest.mark.parametrize(
        "plan, m, trials, seed, hits",
        [
            (load_fig1_plan(1), 3, 140_000, 2026, 116_518),
            (load_fig1_plan(1), 13, 140_000, 2026, 139_985),
            (load_fig1_plan(12), 3, 140_000, 2026, 116_655),
            (load_fig1_plan(12), 13, 140_000, 2026, 139_976),
            (FORTY_SEGMENTS, 2, 70_000, 11, 52_417),
            (FORTY_SEGMENTS, 5, 70_000, 11, 69_391),
            (PAST_INT32, 3, 70_000, 13, 58_258),
        ],
    )
    def test_seeded_stream_is_pinned(self, plan, m, trials, seed, hits):
        assert prob_montecarlo(plan, m, trials, seed=seed).value == hits / trials

    def test_all_singleton_plan_stops_at_its_gcd(self, monkeypatch):
        plan = make_plan([(2, 1), (4, 1)])
        start = time.perf_counter()
        assert prob_montecarlo(plan, 10**9, 1_000, seed=0).value == 0.0
        assert time.perf_counter() - start < 1.0

        # With G = 2 no row can be coprime, so nothing is drawn and no prime
        # signature table is built, or even asked for.
        def refuse(*args):
            raise AssertionError("drew from a plan whose gcd is above 1")

        monkeypatch.setattr(estimator, "sample_selection_batch", refuse)
        estimate = prob_montecarlo(plan, 3, 200_000, seed=0, workers=2)
        assert estimate.value == estimate.std_error == 0.0
        assert estimate.trials == 200_000
        assert "prime_signatures" not in vars(plan)
        monkeypatch.undo()
        assert 200_000 >= break_even(plan)
        assert_request_below_price_builds_nothing(plan, monkeypatch)


# Plans with prime signatures: the Fig. 1 plans, one that holds index 1, one
# of 40 short segments, and one whose indices have two prime factors above
# 311, up to K = 313**3 - 1.
SIGNATURE_PLANS = {
    "fig1_L1": lambda: load_fig1_plan(1),
    "fig1_L12": lambda: load_fig1_plan(12),
    "from_one": lambda: make_plan([(1, 2_000)]),
    "forty_segments": lambda: FrequencyPlan(
        FORTY_SEGMENTS.f_min_hz, FORTY_SEGMENTS.segments
    ),
    "near_313_cubed": lambda: make_plan(
        [(313 * 317 - 400, 800), (307 * 313 * 317 - 500, 1_000), (313**3 - 1_000, 1_000)]
    ),
}


def refuse_draws(*args):
    raise AssertionError("drew through sample_selection_batch")


def break_even(plan: FrequencyPlan) -> int:
    """The trials a plan's M >= 2 requests ask for in all before it builds its
    signatures: the fewest for which a fresh plan's first request builds them."""
    return (
        estimator.SIGNATURE_ROWS_PER_ENTRY * plan.n_frequencies
        + estimator.SIGNATURE_ROWS_PER_STEP * plan.prime_signature_steps
    )


def assert_request_below_price_builds_nothing(plan, monkeypatch):
    """After requests that must not count, an M >= 2 request one trial below
    the price leaves the plan's signatures unbuilt. gcd_all is patched so that
    a plan whose gcd is above 1 gets past the early return."""
    monkeypatch.setattr(estimator, "gcd_all", lambda values: 1)
    prob_montecarlo(plan, 2, break_even(plan) - 1, seed=0)
    assert "prime_signatures" not in vars(plan)


@st.composite
def kernel_plans(draw):
    """Up to eight segments below 313**3: windows of up to 40 indices around
    index 1 or any index, and lone products of two primes above 311 (all
    above 313**2 = 97,969), so that drawn rows often share only such a prime,
    some through every draw. 379 and 499 have the hash bits of 317 and 313
    (p % 31), so some rows meet in the hash words without sharing a prime."""
    large = (313, 317, 331, 337, 379, 499)
    products = sorted({p * q for p in large for q in large})
    windows = [[a, a] for a in draw(st.lists(st.sampled_from(products), max_size=6))]
    anchors = st.one_of(st.just(1), st.integers(1, 313**3 - 1))
    for anchor in draw(st.lists(anchors, min_size=0 if windows else 1, max_size=2)):
        count = draw(st.integers(1, 40))
        start = max(1, anchor - draw(st.integers(0, count - 1)))
        windows.append([start, min(start + count, 313**3) - 1])
    segments = []
    for start, end in sorted(windows):
        if segments and start <= segments[-1][1]:
            segments[-1][1] = max(segments[-1][1], end)
        else:
            segments.append([start, end])
    return make_plan([(start, end - start + 1) for start, end in segments])


class TestPrimeSignaturePath:
    @given(
        plan=kernel_plans(),
        m=st.integers(2, 16),
        trials=st.integers(1, 4_000),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernels_hit_alike_per_block(self, plan, m, trials, seed):
        # One block, so equal estimates are equal hit counts on one substream.
        assert trials <= MC_BLOCK_SIZE and plan.prime_signatures is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "sample_selection_batch", refuse_draws)
            fast = prob_montecarlo(plan, m, trials, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FrequencyPlan, "prime_signature_steps", None)
            plan = FrequencyPlan(plan.f_min_hz, plan.segments)
            slow = prob_montecarlo(plan, m, trials, seed=seed)
            assert "prime_signatures" not in vars(plan)
        assert fast == slow

    @pytest.mark.parametrize("name", SIGNATURE_PLANS)
    def test_same_estimate_as_gcd_path(self, name, monkeypatch):
        # Two blocks, so that two workers split them.
        runs = [(m, w) for m in (2, 3, 4, 5, 6, 13, 64) for w in (1, 2)]
        plan = SIGNATURE_PLANS[name]()
        assert plan.prime_signatures is not None  # built, so every run reads it
        monkeypatch.setattr(estimator, "sample_selection_batch", refuse_draws)
        fast = [prob_montecarlo(plan, m, 70_000, seed=(29, m), workers=w) for m, w in runs]
        monkeypatch.undo()
        monkeypatch.setattr(FrequencyPlan, "prime_signature_steps", None)
        plan = SIGNATURE_PLANS[name]()
        slow = [prob_montecarlo(plan, m, 70_000, seed=(29, m), workers=w) for m, w in runs]
        assert "prime_signatures" not in vars(plan)
        assert fast == slow

    @pytest.mark.parametrize("n_segments", [1, 7, 12])
    def test_request_builds_the_table_only_when_it_pays(self, n_segments):
        price = {1: 72_972, 7: 177_956, 12: 262_480}[n_segments]
        assert break_even(load_fig1_plan(n_segments)) == price
        # The CLI's 20,000-trial requests build the table at the one that
        # brings the plan's sum to the price; M = 1, which has no gcd to
        # save, adds nothing to the sum.
        plan = load_fig1_plan(n_segments)
        prob_montecarlo(plan, 1, price, seed=1)
        asked = 0
        while asked + 20_000 < price:
            prob_montecarlo(plan, 3, 20_000, seed=1)
            asked += 20_000
            assert "prime_signatures" not in vars(plan)
        prob_montecarlo(plan, 3, 20_000, seed=1)
        assert vars(plan)["prime_signatures"] is not None
        # A fresh plan builds at a first request of the price, not one below.
        plan = load_fig1_plan(n_segments)
        prob_montecarlo(plan, 2, price - 1, seed=1)
        assert "prime_signatures" not in vars(plan)
        plan = load_fig1_plan(n_segments)
        prob_montecarlo(plan, 2, price, seed=1)
        assert vars(plan)["prime_signatures"] is not None

    def test_built_table_serves_small_requests(self, monkeypatch):
        plan = load_fig1_plan(12)
        pinned = prob_montecarlo(plan, 3, 20_000, seed=1)
        assert plan.prime_signatures is not None
        monkeypatch.setattr(estimator, "sample_selection_batch", refuse_draws)
        assert prob_montecarlo(plan, 3, 20_000, seed=1) == pinned

    @pytest.mark.parametrize(
        "plan",
        [
            PAST_INT32,  # K >= 313**3
            make_plan([(1_000, 2**16 + 1)]),  # N > 2**16
            make_plan([(313**3 - 999, 1_000)]),  # K = 313**3
            # test_cli's l20000 plan: N = 10**6 in 20,000 segments
            make_plan([(10 + 100 * i, 50) for i in range(20_000)]),
        ],
        ids=["past_int32", "n_2_16_plus_1", "k_313_cubed", "l20000"],
    )
    def test_plans_without_a_table(self, plan):
        assert plan.prime_signature_steps is None
        assert plan.prime_signatures is None

    def test_largest_table_and_one_block_stay_small(self):
        # The largest table: N = 2**16 indices, the last 313**3 - 1.
        plan = make_plan([(313**3 - 2**16, 2**16)])
        tracemalloc.start()
        try:
            assert plan.prime_signatures is not None
            prob_montecarlo(plan, 3, MC_BLOCK_SIZE, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_many_segment_table_and_one_block_stay_small(self):
        # The gate's many-segment corner: 45 segments of 1,456 indices, the
        # last ending at 313**3 - 1, so N = 65,520 and 72,045 walk steps.
        last = 313**3 - 1_456
        plan = make_plan([(last - 600_000 * i, 1_456) for i in range(45)])
        assert plan.n_frequencies == 65_520 and plan.prime_signature_steps == 72_045
        tracemalloc.start()
        try:
            assert plan.prime_signatures is not None
            prob_montecarlo(plan, 3, MC_BLOCK_SIZE, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestWilsonBounds:
    Z = 1.959963984540054

    def test_all_hits_is_not_a_point(self):
        # Every trial a hit: the Wald bar is 0, the Wilson interval is not.
        e = ProbabilityEstimate(value=1.0, method="monte_carlo", trials=100_000)
        low, high = e.wilson_bounds(self.Z)
        assert e.std_error == 0.0
        assert high == 1.0
        assert low == pytest.approx(1 / (1 + self.Z**2 / 100_000), rel=1e-12)
        assert round(low, 8) == 0.99996159

    def test_no_hits_is_not_a_point(self):
        e = ProbabilityEstimate(value=0.0, method="monte_carlo", trials=4_096)
        low, high = e.wilson_bounds(self.Z)
        assert low == 0.0
        assert high == pytest.approx(self.Z**2 / (4_096 + self.Z**2), rel=1e-12)

    @pytest.mark.parametrize("trials", [1, 7, 2_000, 65_536, 10**9])
    def test_bounds_bracket_zero_and_one(self, trials):
        for p in (0.0, 1.0):
            e = ProbabilityEstimate(value=p, method="monte_carlo", trials=trials)
            low, high = e.wilson_bounds(self.Z)
            assert 0.0 <= low <= p <= high <= 1.0
            assert low < high

    @pytest.mark.parametrize("hits, trials", [(1, 10), (5_000, 10_000), (812, 1_000)])
    def test_score_equation(self, hits, trials):
        # Each bound solves (p - b)^2 = z^2 b (1 - b) / n, and brackets p.
        p = hits / trials
        low, high = ProbabilityEstimate(p, "monte_carlo", trials).wilson_bounds(self.Z)
        assert low < p < high
        for b in (low, high):
            assert (p - b) ** 2 == pytest.approx(self.Z**2 * b * (1 - b) / trials)

    def test_without_trials_is_the_value(self):
        assert prob_asymptotic(5).wilson_bounds(self.Z) == (prob_asymptotic(5).value,) * 2

"""Bundled simulation scenarios: N = 2^15 frequencies in 54-862 MHz at f_min = 1 kHz.

The segment boundaries for the multi-segment scenarios are our own
construction: L near-equal-count segments spread evenly across the band.
For these long segments the coprimality probability barely moves with L, as
the L-independence checks validate; many short segments need not (README).
"""

from __future__ import annotations

from .spectrum import FrequencyPlan, validate_plan

F_MIN_HZ = 1000.0
BAND_FIRST_INDEX = 54_000  # 54 MHz on the 1 kHz grid
BAND_LAST_INDEX = 862_000  # 862 MHz
N_TOTAL = 2**15
SEGMENT_COUNTS = (1, 7, 12)


def make_plan(n_segments: int) -> FrequencyPlan:
    """Evenly spread n_segments near-equal-count segments across the band."""
    base, rem = divmod(N_TOTAL, n_segments)
    counts = [base + 1 if l < rem else base for l in range(n_segments)]
    gap = ((BAND_LAST_INDEX - BAND_FIRST_INDEX + 1) - N_TOTAL) // n_segments
    segments = []
    start = BAND_FIRST_INDEX
    for count in counts:
        segments.append({"start_index": start, "count": count})
        start += count + gap
    return validate_plan({"f_min_hz": F_MIN_HZ, "segments": segments})


def all_plans() -> tuple[FrequencyPlan, ...]:
    """The three bundled scenarios, L = 1, 7, 12."""
    return tuple(make_plan(L) for L in SEGMENT_COUNTS)


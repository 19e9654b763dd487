"""Segmented frequency plans on the f_min grid and the induced integer index set."""

from __future__ import annotations

import json
import math
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .numtheory import mertens_at_quotients

if TYPE_CHECKING:
    import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458


class PlanError(ValueError):
    """Raised for structurally invalid frequency plans."""


class SelectionError(ValueError):
    """Raised when indices fall outside a plan's index set."""


@dataclass(frozen=True)
class Segment:
    """Contiguous run of grid indices ``start .. start + count - 1``."""

    start: int
    count: int

    @property
    def end(self) -> int:
        """Last index covered (inclusive)."""
        return self.start + self.count - 1


@dataclass(frozen=True)
class FrequencyPlan:
    """Available bandwidth: f_min grid spacing plus disjoint index segments.

    Segment l covers grid indices [a_l, a_l + count_l - 1], i.e. frequencies
    a_l * f_min .. (a_l + count_l - 1) * f_min, with f_min_hz exact. State
    derived from the plan (the sampler's bucket table, the exact method's
    weights, the Monte Carlo prime signatures as (masks, pairs), each int64
    pair two int32 halves) is computed once per object, on first use, and
    freed with it.
    """

    f_min_hz: Fraction
    segments: tuple[Segment, ...]

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @cached_property
    def n_frequencies(self) -> int:
        return sum(s.count for s in self.segments)

    @property
    def last_index(self) -> int:
        return self.segments[-1].end

    @cached_property
    def sampler_layout(self) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """Flat positions 0..N-1 to grid indices: cum, shift, bits, table.

        Position p lies in segment searchsorted(cum, p, side="right") and maps
        to p + shift[segment]. Buckets of 2**bits positions, at most
        min(2**16, 64 L) of them, hold table[b], the shift of all bucket b's
        positions, or 0 if a segment boundary splits it: no shift is 0, as
        segment l's earlier positions map into 1..start_l - 1. Arrays are
        int32 when the last index is below 2**31, else int64.
        """
        import numpy as np

        dtype = np.int32 if self.last_index < 2**31 else np.int64
        counts = np.array([s.count for s in self.segments], dtype=dtype)
        cum = np.cumsum(counts, dtype=dtype)
        shift = np.array([s.start for s in self.segments], dtype=dtype) - (cum - counts)
        last = self.n_frequencies - 1
        bits = (last // min(2**16, 64 * self.n_segments)).bit_length()
        first = np.arange((last >> bits) + 1, dtype=dtype) << bits
        table = shift[np.searchsorted(cum, first, side="right")]
        # Segment l + 1 starts at position cum[l]: it splits that bucket unless
        # it is the bucket's first position.
        starts = cum[:-1]
        table[starts[starts & ((1 << bits) - 1) != 0] >> bits] = 0
        return cum, shift, bits, table

    @cached_property
    def prime_signature_steps(self) -> int | None:
        """Steps the prime_signatures walk takes, or None if the plan has none.

        One step per segment and power p**e <= K of each prime p it walks;
        the walk's time grows with these steps and with N. None unless
        K < 313**3, so that no index has three prime factors above 311, and
        N <= 2**16, so that the table stays under 1 MiB.
        """
        if self.last_index >= 313**3 or self.n_frequencies > 2**16:
            return None
        return len(_signature_powers(self.last_index)) * self.n_segments

    @cached_property
    def prime_signatures(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The prime factors of the index at each flat position 0..N-1.

        Returns (masks, pairs) of N entries each: bit i of the uint64 masks[j]
        is set when the i-th prime (2, 3, ..., 311, the first 64) divides the
        index at position j, and the int64 pairs[j] holds its prime factors
        above 311 in its two int32 halves, 0 where absent. Two indices share a
        prime exactly when their masks share a bit or their pairs a nonzero
        half. None when prime_signature_steps is None.

        Each segment walks _signature_powers on an int64 copy of its indices:
        each prime p <= B = max(isqrt(K), 311) marks its multiples, one slice
        of stride p, and is divided out along the multiples of each power of
        p; what remains above 1 is the one prime factor above B, and so above
        sqrt(K).
        """
        if self.prime_signature_steps is None:
            return None
        import numpy as np

        powers = _signature_powers(self.last_index)
        masks = np.zeros(self.n_frequencies, dtype=np.uint64)
        pairs = np.zeros(self.n_frequencies, dtype=np.int64)
        halves = pairs.view(np.int32).reshape(-1, 2)  # the latest found in half 0
        hi = 0
        for s in self.segments:
            lo, hi = hi, hi + s.count
            mask, (first, second) = masks[lo:hi], halves[lo:hi].T
            rest = np.arange(s.start, s.end + 1, dtype=np.int64)
            for bit, p, q in powers:
                at = -s.start % q  # position of the segment's first multiple
                if at >= s.count:
                    continue
                rest[at::q] //= p
                if q == p and bit:
                    mask[at::p] |= np.uint64(bit)
                elif q == p:
                    second[at::p] = first[at::p]
                    first[at::p] = p
            top = rest > 1
            second[top] = first[top]
            first[top] = rest[top]
        return masks, pairs

    @cached_property
    def coprimality_weights(self) -> tuple[tuple[int, int], ...]:
        """Mobius weights aggregated by multiple-count value.

        For each j up to the largest index K let x_j be the number of plan
        indices divisible by j (see count_multiples_upto). Returns pairs
        (v, sum of mu(j) over j with x_j = v), so that Z = sum_v w_v * v^M for
        every M. x_j = 0 beyond K, so the cutoff is exact, and grouping by
        value keeps the big-integer sum short.

        x_j sums +/-(n // j) over the segment endpoints n (each end, and each
        start - 1 > 0), so it is constant on blocks of j whose right ends b are
        1..isqrt(K) and every n // q with q <= isqrt(n): O(L sqrt K) blocks for
        L segments. numtheory.mertens_at_quotients lists them with the Mertens
        function M(b), and a block (a, b] adds M(b) - M(a), its sum of mu, to
        the bin of x_b. mu is tabulated only up to T = min(K, (2 L K)^(2/3)),
        which reaches K once L^2 >= K / 4.
        """
        import numpy as np

        ends = [n for s in self.segments for n in (s.end, s.start - 1)]
        b, m = mertens_at_quotients(ends)
        mu_sums = np.diff(m, prepend=0)
        x = count_multiples_upto(self, b)
        hit = x > 0
        # Bin over the distinct counts, not 0..max(x): about N + 1 slots otherwise.
        values, bins = np.unique(x[hit], return_inverse=True)
        weights = np.bincount(bins, weights=mu_sums[hit])
        # A bin's partial sums stay within +/-K, far below 2**53: float sums are exact.
        nonzero = weights != 0
        return tuple(
            zip(values[nonzero].tolist(), weights[nonzero].astype(np.int64).tolist())
        )


def validate_plan(raw: Mapping[str, Any]) -> FrequencyPlan:
    """Build a validated FrequencyPlan from a raw description.

    Accepts ``{"f_min_hz": number, "segments": [{"start_index", "count"}, ...]}``.
    Segments are sorted by start index. f_min must be a finite positive
    number (a Decimal too) for which the maximal UD c / f_min is a finite
    double (f_min above about 1.67e-300); it is kept as an exact Fraction, so
    a Decimal 0.1 is exactly 1/10. Both segment fields must be integers;
    bools, strings, fractional or non-finite values, overlaps, zero counts,
    zero start indices and indices above 2**63 - 1 (sampling maps positions
    through int64 arrays) are rejected, never coerced, as is a raw value that
    is not a mapping.
    """
    if not isinstance(raw, Mapping):
        raise PlanError(f"plan must be a JSON object, got {type(raw).__name__}")
    try:
        f_min = raw["f_min_hz"]
        raw_segments = raw["segments"]
    except KeyError as exc:
        raise PlanError(f"plan is missing required field: {exc}") from exc
    if isinstance(f_min, bool) or not isinstance(f_min, (numbers.Real, Decimal)):
        raise PlanError(f"f_min_hz must be a number, got {f_min!r}")
    try:
        shown = float(f_min)  # how the errors quote f_min
    except OverflowError:
        shown = math.inf
    except ValueError:  # a signalling NaN Decimal
        shown = math.nan
    if not 0 < shown < math.inf:
        raise PlanError(f"f_min_hz must be finite and positive, got {shown}")
    # Checked on the double, as before: the double nearest the bound on f_min
    # lies below it, so every f_min whose exact c / f_min overflows is refused.
    if SPEED_OF_LIGHT_M_S / shown == math.inf:
        raise PlanError(f"f_min_hz is too small: c / f_min_hz overflows, got {shown}")
    # An int, a Fraction or a Decimal stays exact; any other real is its double.
    exact = isinstance(f_min, (numbers.Rational, Decimal))
    f_min = Fraction(f_min) if exact else Fraction(shown)
    if not isinstance(raw_segments, (list, tuple)):
        raise PlanError(f"segments must be a list, got {raw_segments!r}")
    if not raw_segments:
        raise PlanError("plan must contain at least one segment")

    segments = []
    for i, rs in enumerate(raw_segments):
        try:
            start, count = rs["start_index"], rs["count"]
        except (KeyError, TypeError) as exc:
            raise PlanError(f"segment {i} is malformed: {rs!r}") from exc
        for name, value in (("start_index", start), ("count", count)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise PlanError(
                    f"segment {i}: {name} must be an integer, got {value!r}"
                )
            # Not quoted: str() refuses an int of more than 4,300 digits.
            if abs(int(value)) >= 2**63:
                raise PlanError(
                    f"segment {i}: {name} must be between 1 and 2**63 - 1"
                )
        start, count = int(start), int(count)
        if start < 1:
            raise PlanError(f"segment {i}: start_index must be >= 1, got {start}")
        if count < 1:
            raise PlanError(f"segment {i}: count must be >= 1, got {count}")
        if start + count - 1 >= 2**63:
            raise PlanError(
                f"segment {i}: last index {start + count - 1} exceeds 2**63 - 1"
            )
        segments.append(Segment(start=start, count=count))

    segments.sort(key=lambda s: s.start)
    for prev, cur in zip(segments, segments[1:]):
        if cur.start <= prev.end:
            raise PlanError(
                f"segments overlap: [{prev.start}, {prev.end}] and "
                f"[{cur.start}, {cur.end}]"
            )
    return FrequencyPlan(f_min_hz=f_min, segments=tuple(segments))


def load_plan(path: str | Path) -> FrequencyPlan:
    """Read and validate a JSON plan file; PlanError if it cannot be read or parsed.

    A fractional f_min_hz is read a second time, as a Decimal, so that 0.1 Hz
    is exactly 1/10 Hz. Every other value is read, and quoted in errors, as
    json reads it.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        raw = json.loads(text)
        if isinstance(raw, dict) and isinstance(raw.get("f_min_hz"), float):
            raw["f_min_hz"] = json.loads(text, parse_float=Decimal)["f_min_hz"]
    except (OSError, ValueError, RecursionError) as exc:
        raise PlanError(f"cannot read plan file {path}: {exc}") from exc
    return validate_plan(raw)


def _signature_powers(k_max: int) -> list[tuple[int, int, int]]:
    """(bit, p, q) for each power q = p**e <= k_max of each prime p up to
    max(isqrt(k_max), 311), in the order prime_signatures walks them: bit is
    p's mask bit, 1 << i for the i-th prime, or 0 for the primes above 311."""
    import numpy as np

    bound = max(math.isqrt(k_max), 311)
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    powers = []
    for i, p in enumerate(np.flatnonzero(sieve).tolist()):
        q = p
        while q <= k_max:
            powers.append((1 << i if i < 64 else 0, p, q))
            q *= p
    return powers


def count_multiples_upto(plan: FrequencyPlan, j: np.ndarray) -> np.ndarray:
    """Multiple counts of the plan's index set over an int64 array of j >= 1.

    Entry [i] is x_{j[i]}, the number of plan indices divisible by j[i]. The
    plan's coprimality_weights pass the right ends of its blocks of constant x_j.
    """
    import numpy as np

    x = np.zeros(len(j), dtype=np.int64)
    for s in plan.segments:
        x += s.end // j
        x -= (s.start - 1) // j
    return x


def sample_selection_batch(
    plan: FrequencyPlan, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw size grid indices independently and uniformly from the plan's set.

    Returns a 1-D array, int32 when the plan's last index is below 2**31 and
    int64 otherwise; advances the generator. Flat positions 0..N-1 are shifted
    onto their segments' grid indices through the plan's bucket table (see
    FrequencyPlan.sampler_layout): one gather per draw, and a binary search
    only for the draws in the few buckets that a segment boundary splits.
    Below 2**32, numpy draws int32 and int64 from the same 32-bit stream, so
    the indices for a given generator state do not depend on the dtype.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    import numpy as np

    cum, shift, bits, table = plan.sampler_layout
    positions = rng.integers(0, plan.n_frequencies, size=size, dtype=cum.dtype)
    out = table[positions >> bits]
    split = np.flatnonzero(out == 0)
    out[split] = shift[np.searchsorted(cum, positions[split], side="right")]
    out += positions
    return out


def selection_from_indices(
    plan: FrequencyPlan, indices: Sequence[int | str]
) -> tuple[int, ...]:
    """The indices as ints, each found by bisection in the plan's sorted segments.

    A string goes through int() and any other entry through operator.index, so
    SelectionError refuses 54000.9 as it does no entries or an out-of-plan one;
    an int too long for str() is refused without being quoted.
    """
    if not indices:
        raise SelectionError("selection must contain at least one index")
    starts = [s.start for s in plan.segments]
    checked = []
    for k in indices:
        try:
            k = int(k) if isinstance(k, str) else operator.index(k)
        except (TypeError, ValueError):
            raise SelectionError(f"index {k!r} is not an integer") from None
        i = bisect_right(starts, k) - 1
        if i < 0 or k > plan.segments[i].end:
            try:
                shown = f" {k}"
            except ValueError:  # str() refuses an int of more than 4,300 digits
                shown = ""
            raise SelectionError(f"index{shown} is not in the plan's index set")
        checked.append(k)
    return tuple(checked)

"""Probability that the unambiguous distance attains its maximum.

Equivalently: the probability that M indices drawn uniformly (with
replacement) from the plan's index set are setwise coprime. Three routes:
exact Mobius-weighted inclusion-exclusion, the 1/zeta(M) asymptotic, and
seeded Monte Carlo.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import sqrt

from .numtheory import gcd_all, zeta_int
from .spectrum import FrequencyPlan, block_kernel

EXACT_MAX_INDEX = 10_000_000  # bound on the largest plan index K for the exact method
EXACT_MAX_BITS = 14_000  # bound on M * bit_length(N): the size of N^M and of the sum

MC_BLOCK_SIZE = 65_536  # fixed so results never depend on worker count


class CapabilityError(RuntimeError):
    """The plan's largest index exceeds EXACT_MAX_INDEX, the exact method's cap
    on K, or M * bit_length(N) exceeds EXACT_MAX_BITS, its cap on N^M."""


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A value of P with its method tag and, for Monte Carlo, its trial count,
    from which the Wald error bar std_error and the Wilson bounds are derived
    (0.0 and (value, value) with no trials)."""

    value: float
    method: str  # exact | asymptotic | monte_carlo
    trials: int = 0
    exact_numerator: int | None = field(default=None, repr=False)
    exact_denominator: int | None = field(default=None, repr=False)

    @property
    def std_error(self) -> float:
        return sqrt(self.value * (1.0 - self.value) / self.trials) if self.trials else 0.0

    def wilson_bounds(self, z: float) -> tuple[float, float]:
        """Wilson score bounds at z standard errors, clamped to [0, 1].

        Unlike the Wald bar value +- z * std_error, which shrinks to a point
        at 0 and 1, the interval keeps a width of about z^2 / trials there
        (Wilson, JASA 22, 1927; Brown, Cai & DasGupta, Stat. Sci. 16, 2001).
        The bounds always bracket value, which rounding alone could break
        at value 0 or 1.
        """
        if not self.trials:
            return self.value, self.value
        p, n, z2 = self.value, self.trials, z * z
        scale = 1.0 + z2 / n
        centre = (p + z2 / (2 * n)) / scale
        half = z * sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / scale
        return max(0.0, min(p, centre - half)), min(1.0, max(p, centre + half))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS reports
    one (a taskset or cpuset shrinks it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_exact_limits(plan: FrequencyPlan, m: int) -> None:
    """Raise CapabilityError if prob_exact(plan, m) passes either cap, in O(1):
    K above EXACT_MAX_INDEX, or M * bit_length(N) above EXACT_MAX_BITS, which
    keeps N^M, and so the rational Z / N^M and the big-integer sum, below
    10^4215; the CLI prints their digits whatever int_max_str_digits is."""
    if plan.last_index > EXACT_MAX_INDEX:
        raise CapabilityError(
            f"largest plan index {plan.last_index} exceeds the exact method's "
            f"cap {EXACT_MAX_INDEX}"
        )
    bits = plan.n_frequencies.bit_length()
    if m * bits > EXACT_MAX_BITS:
        raise CapabilityError(
            f"exact method needs M * bit_length(N) <= {EXACT_MAX_BITS}, "
            f"got {m} * {bits} = {m * bits}"
        )


def prob_exact(plan: FrequencyPlan, m: int) -> ProbabilityEstimate:
    """Exact P = Z / N^M with Z = sum_j mu(j) * x_j^M in big-integer arithmetic.

    The alternating sum cancels catastrophically in floating point and N^M
    overflows fixed-width types, so everything stays integer until the final
    rounding. The weights, the plan's cached coprimality_weights, come from a
    sieve of mu to T = min(K, (2 L K)^(2/3)) for L segments and the Mertens
    function. Raises CapabilityError, before any work, via check_exact_limits.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    check_exact_limits(plan, m)
    z = sum(w * v**m for v, w in plan.coprimality_weights)
    denom = plan.n_frequencies**m
    return ProbabilityEstimate(
        value=z / denom,
        method="exact",
        exact_numerator=z,
        exact_denominator=denom,
    )


def prob_asymptotic(m: int) -> ProbabilityEstimate:
    """Asymptotic P = 1/zeta(M), accurate to zeta_int's ZETA_TOL = 1e-12.

    zeta(m) > 1, so the reciprocal's error is no larger than zeta's own;
    zeta_int raises ValueError for m < 2.
    """
    return ProbabilityEstimate(value=1.0 / zeta_int(m), method="asymptotic")


def prob_montecarlo(
    plan: FrequencyPlan,
    m: int,
    trials: int,
    seed: int | tuple[int, ...],
    workers: int = 1,
) -> ProbabilityEstimate:
    """Monte Carlo estimate of P over seeded with-replacement draws.

    ``seed`` is a non-negative int or a tuple of them: the SeedSequence
    entropy. Trials are split into fixed-size blocks, each driven by a
    substream derived from (seed..., block index), so the result is
    bit-identical for any worker count. A block folds one drawn column at a
    time into what its rows still share and drops the rows that share
    nothing, so its memory does not grow with M; if the whole index set has
    a gcd above 1, P = 0 is returned without a draw. Each of T = min(workers,
    blocks, usable CPUs) threads runs one pool task, blocks i, i + T,
    i + 2T, ..., so the pool holds T futures whatever ``trials`` is; integer
    hit counts sum the same in any order. spectrum.block_kernel picks the
    block's kernel and builds any table it needs, in the calling thread.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    entropy = seed if isinstance(seed, tuple) else (seed,)
    if any(s < 0 for s in entropy):
        raise ValueError(f"seed must be non-negative, got {seed}")
    # G > 1 only when every segment is a single index; then no row is coprime.
    if gcd_all(s.start if s.count == 1 else 1 for s in plan.segments) > 1:
        return ProbabilityEstimate(value=0.0, method="monte_carlo", trials=trials)
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    n_blocks = (trials + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE
    kernel = block_kernel(plan, m, trials)  # here, not in the pool's threads

    def block_hits(b: int) -> int:
        n = min(MC_BLOCK_SIZE, trials - b * MC_BLOCK_SIZE)
        return kernel(n, np.random.default_rng(entropy + (b,)))

    threads = min(workers, n_blocks, _usable_cpus())

    def stride_hits(i: int) -> int:
        return sum(map(block_hits, range(i, n_blocks, threads)))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        hits = sum(pool.map(stride_hits, range(threads)))
    return ProbabilityEstimate(value=hits / trials, method="monte_carlo", trials=trials)

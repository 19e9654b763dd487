"""Phase-shift model and unambiguous-distance computation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numtheory import gcd_all
from .spectrum import FrequencyPlan

SPEED_OF_LIGHT_M_S = 299_792_458

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UdResult:
    """GCD of a selection's indices and the resulting unambiguous distance."""

    gcd_k: int
    ud_m: float
    is_max: bool


def compute_ud(plan: FrequencyPlan, selection: tuple[int, ...]) -> UdResult:
    """Unambiguous distance c / (k * f_min), k = gcd of the selected indices.

    The distance is the LCM of the selected wavelengths; a single-frequency
    selection degenerates to its own wavelength.
    """
    k = gcd_all(selection)
    ud = SPEED_OF_LIGHT_M_S / (k * plan.f_min_hz)
    return UdResult(gcd_k=k, ud_m=ud, is_max=(k == 1))


def exact_ud_m(plan: FrequencyPlan, selection: tuple[int, ...]) -> Fraction:
    """The unambiguous distance as an exact rational, for tight phase checks."""
    k = gcd_all(selection)
    return Fraction(SPEED_OF_LIGHT_M_S) / (k * Fraction(plan.f_min_hz))


def _phase(index: int, f_min_hz: float, distance: Fraction) -> float:
    # Exact mod-1 reduction of the cycle count index*f_min*R/c; the huge
    # integer part would otherwise eat all float precision at large R.
    cycles = index * Fraction(f_min_hz) * distance / SPEED_OF_LIGHT_M_S
    frac = cycles - (cycles.numerator // cycles.denominator)
    return TWO_PI * float(frac)


def phase_shifts(
    plan: FrequencyPlan,
    selection: tuple[int, ...],
    distance_m: float | int | Fraction,
) -> tuple[float, ...]:
    """Phase shifts 2*pi*(k_i*f_min)*R/c mod 2*pi at distance R, one per index.

    Accepts the distance as a float or an exact Fraction; reduction modulo
    one cycle is done in exact rational arithmetic either way.
    """
    distance = Fraction(distance_m)
    if distance < 0:
        raise ValueError(f"distance must be non-negative, got {distance_m}")
    return tuple(_phase(k, plan.f_min_hz, distance) for k in selection)


def circular_delta(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


_PROBE_FRACTIONS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(1, 5),
    Fraction(1, 7),
)


def verify_ambiguity(
    plan: FrequencyPlan,
    selection: tuple[int, ...],
    distance_m: float | int | Fraction,
    tol_rad: float,
) -> bool:
    """Numeric check that the computed UD really is the phase period.

    True iff the phases at R and R + UD agree entrywise within tol_rad, and
    each probed proper fraction of UD (1/2, 1/3, 1/5, 1/7) shifts at least
    one phase by more than tol_rad. None of them is itself a period: the
    quotients k_i / gcd have gcd 1, so no prime divides all of them.
    """
    if tol_rad <= 0:
        raise ValueError(f"tol_rad must be positive, got {tol_rad}")
    distance = Fraction(distance_m)
    ud = exact_ud_m(plan, selection)

    base = phase_shifts(plan, selection, distance)
    shifted = phase_shifts(plan, selection, distance + ud)
    if any(
        circular_delta(a, b) > tol_rad
        for a, b in zip(base, shifted)
    ):
        return False

    for q in _PROBE_FRACTIONS:
        probed = phase_shifts(plan, selection, distance + q * ud)
        if all(
            circular_delta(a, b) <= tol_rad
            for a, b in zip(base, probed)
        ):
            return False
    return True

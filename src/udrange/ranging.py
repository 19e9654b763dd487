"""Phase-shift model and unambiguous-distance computation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numtheory import gcd_all
from .spectrum import SPEED_OF_LIGHT_M_S, FrequencyPlan

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UdResult:
    """GCD of a selection's indices and the exact unambiguous distance in metres."""

    gcd_k: int
    ud: Fraction

    @property
    def ud_m(self) -> float:
        return float(self.ud)

    @property
    def ud_km(self) -> float:
        return float(self.ud / 1000)

    @property
    def is_max(self) -> bool:
        return self.gcd_k == 1


def compute_ud(plan: FrequencyPlan, selection: tuple[int, ...]) -> UdResult:
    """Unambiguous distance c / (k * f_min), k = gcd of the selected indices.

    The distance is the LCM of the selected wavelengths; a single-frequency
    selection degenerates to its own wavelength. It stays an exact rational:
    ud_m and ud_km are each rounded once from it, since k * f_min can overflow
    a double, and the phase checks compare against it exactly.
    """
    k = gcd_all(selection)
    return UdResult(k, Fraction(SPEED_OF_LIGHT_M_S) / (k * Fraction(plan.f_min_hz)))


def _cycles(
    plan: FrequencyPlan,
    selection: tuple[int, ...],
    distance_m: float | int | Fraction,
) -> tuple[Fraction, ...]:
    # Exact mod-1 reduction of the cycle counts k*f_min*R/c; the huge integer
    # part would otherwise eat all float precision at large R.
    distance = Fraction(distance_m)
    if distance < 0:
        raise ValueError(f"distance must be non-negative, got {distance_m}")
    per_index = Fraction(plan.f_min_hz) * distance / SPEED_OF_LIGHT_M_S
    return tuple(k * per_index % 1 for k in selection)


def phase_shifts(
    plan: FrequencyPlan,
    selection: tuple[int, ...],
    distance_m: float | int | Fraction,
) -> tuple[float, ...]:
    """Phase shifts 2*pi*(k_i*f_min)*R/c mod 2*pi at distance R, one per index.

    Accepts the distance as a float or an exact Fraction; reduction modulo
    one cycle is done in exact rational arithmetic either way.
    """
    return tuple(TWO_PI * float(c) for c in _cycles(plan, selection, distance_m))


_PROBE_FRACTIONS = tuple(Fraction(1, p) for p in (2, 3, 5, 7))


def verify_ambiguity(
    plan: FrequencyPlan,
    selection: tuple[int, ...],
    distance_m: float | int | Fraction,
) -> bool:
    """Exact check that the computed UD really is the phase period.

    Compares the cycle counts k_i*f_min*R/c mod 1 as rationals. True iff
    those at R + UD equal those at R, and each probed proper fraction of UD
    (1/2, 1/3, 1/5, 1/7) changes at least one of them. None of them is itself
    a period: the quotients k_i / gcd have gcd 1, so no prime divides all of
    them.
    """
    base = _cycles(plan, selection, distance_m)
    distance, ud = Fraction(distance_m), compute_ud(plan, selection).ud
    return _cycles(plan, selection, distance + ud) == base and all(
        _cycles(plan, selection, distance + q * ud) != base
        for q in _PROBE_FRACTIONS
    )

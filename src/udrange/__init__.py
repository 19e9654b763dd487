"""Unambiguous distance of a phase-based ranging system with hopping frequencies.

Library layout:

- ``numtheory`` — Mobius sieve, the exact method's block ends with the
  Mertens function at each, integer-argument zeta, multi-way GCD
- ``spectrum`` — segmented frequency plans and the induced index set
- ``ranging`` — phase-shift model and UD = c / (gcd * f_min)
- ``estimator`` — exact / asymptotic / Monte Carlo probability of maximal UD
- ``cli`` — `udrange` command-line driver and the (plan, M) sweep table
- ``_selfcheck`` — the checks behind `udrange verify`, and the 54-862 MHz,
  N = 2^15 Fig. 1 scenarios they build; loaded only when `verify` runs
"""

from .estimator import (
    ProbabilityEstimate,
    prob_asymptotic,
    prob_exact,
    prob_montecarlo,
)
from .numtheory import gcd_all, zeta_int
from .ranging import (
    SPEED_OF_LIGHT_M_S,
    UdResult,
    compute_ud,
    phase_shifts,
    verify_ambiguity,
)
from .spectrum import (
    FrequencyPlan,
    PlanError,
    Segment,
    SelectionError,
    load_plan,
    selection_from_indices,
    validate_plan,
)

__all__ = [
    "FrequencyPlan",
    "PlanError",
    "ProbabilityEstimate",
    "SPEED_OF_LIGHT_M_S",
    "Segment",
    "SelectionError",
    "UdResult",
    "compute_ud",
    "gcd_all",
    "load_plan",
    "phase_shifts",
    "prob_asymptotic",
    "prob_exact",
    "prob_montecarlo",
    "selection_from_indices",
    "validate_plan",
    "verify_ambiguity",
    "zeta_int",
]

__version__ = "0.1.0"

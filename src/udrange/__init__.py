"""Unambiguous distance of a phase-based ranging system with hopping frequencies.

Library layout:

- ``numtheory`` — Mobius sieve, the exact method's block ends with the
  Mertens function at each, integer-argument zeta, multi-way GCD
- ``spectrum`` — segmented frequency plans and the induced index set
- ``ranging`` — phase-shift model and UD = c / (gcd * f_min)
- ``estimator`` — exact / asymptotic / Monte Carlo probability of maximal UD
- ``cli`` — `udrange` command-line driver and the (plan, M) sweep table
- ``fig1`` — bundled 54-862 MHz, N = 2^15 simulation scenarios
"""

from .estimator import (
    ProbabilityEstimate,
    prob_asymptotic,
    prob_exact,
    prob_montecarlo,
)
from .numtheory import MobiusTable, gcd_all, sieve_mobius, zeta_int
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
    enumerate_indices,
    load_plan,
    selection_from_indices,
    validate_plan,
)

__all__ = [
    "FrequencyPlan",
    "MobiusTable",
    "PlanError",
    "ProbabilityEstimate",
    "SPEED_OF_LIGHT_M_S",
    "Segment",
    "SelectionError",
    "UdResult",
    "compute_ud",
    "enumerate_indices",
    "gcd_all",
    "load_plan",
    "phase_shifts",
    "prob_asymptotic",
    "prob_exact",
    "prob_montecarlo",
    "selection_from_indices",
    "sieve_mobius",
    "validate_plan",
    "verify_ambiguity",
    "zeta_int",
]

__version__ = "0.1.0"

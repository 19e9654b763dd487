"""Command-line front end: plan ingestion, single computations, sweeps, self-checks.

Plan file format (JSON)::

    {"f_min_hz": 1000, "segments": [{"start_index": 54000, "count": 32768}, ...]}

Exit codes: 0 ok, 1 verify failure, 2 bad arguments or plan parse error,
3 invalid selection, 4 capability exceeded (for the exact method, a largest
plan index above 10^7, or M * bit_length(N) above 14,000) or out of memory.
A plan whose f_min_hz is so small that c / f_min_hz overflows a double
(below about 1.67e-300) is a plan error and exits 2. A fractional f_min_hz is
read exactly from its decimal digits, so 0.1 is 1/10 Hz.
Argument errors exit 2 with the subcommand's usage and a one-line error:
-m, --select, --trials or --workers below 1, --select above 1,000,000, a
negative --seed, M below 2 where 1/zeta(M) is asked (asymptotic, sweep), an
empty --m-range, an unknown or repeated method, monte_carlo without --trials,
exact or monte_carlo without --plan, or both or neither of ud's --indices and
--select.
Every refusal comes before any work: --out is opened once all checks pass, so
a refused run leaves no file (an unwritable --out exits 2); only a run that
runs out of memory midway leaves an empty one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from decimal import Decimal

from .estimator import (
    CapabilityError,
    ProbabilityEstimate,
    check_exact_limits,
    prob_asymptotic,
    prob_exact,
    prob_montecarlo,
)
from .ranging import compute_ud
from .spectrum import (
    PlanError,
    SelectionError,
    load_plan,
    sample_selection_batch,
    selection_from_indices,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PLAN_ERROR = 2
EXIT_SELECTION_ERROR = 3
EXIT_CAPABILITY = 4

METHODS = ("exact", "asymptotic", "monte_carlo")
MAX_SELECT = 1_000_000  # ud --select draws and prints every index at once
Z_95 = 1.959963984540054  # the normal quantile at 0.975, for the JSON's 95% bounds
# Printed once to stderr by every run that reports 1/zeta(2): prob's asymptotic
# method at -m 2, and sweep when its M range starts at 2.
M2_WARNING = (
    "warning: m = 2 is outside the asymptotic error analysis regime (it assumes "
    "more than 2 frequencies); 1/zeta(2) is still exact as a limit value"
)


def _int_in(lo: int, hi: int | None = None):
    """argparse type for an integer no smaller than lo and, if given, no larger than hi."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    parse.__name__ = "int"  # a ValueError reads "invalid int value", as with type=int
    return parse


def _parse_m_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        m_range = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"m-range must look like A..B, got {text!r}"
        ) from exc
    if m_range.start < 2:
        raise argparse.ArgumentTypeError(f"m-range must start at 2 or more: {text!r}")
    if not m_range:
        raise argparse.ArgumentTypeError(f"m-range must not be empty: {text!r}")
    return m_range


def _open_out(out_path: str | None):
    """--out opened for writing, or stdout when it is not given."""
    if out_path:
        return open(out_path, "w", newline="")
    return contextlib.nullcontext(sys.stdout)


def _digits(n: int | None) -> str | None:
    """n in decimal, through Decimal: int_max_str_digits limits str(int), not it."""
    return None if n is None else str(Decimal(n))


def _estimate_json(e: ProbabilityEstimate) -> dict:
    low, high = e.wilson_bounds(Z_95)
    return {
        "method": e.method,
        "value": e.value,
        "trials": e.trials,
        "std_error": e.std_error,
        "ci95_low": low,
        "ci95_high": high,
        "exact_numerator": _digits(e.exact_numerator),
        "exact_denominator": _digits(e.exact_denominator),
    }


def cmd_ud(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    if args.indices is not None:
        selection = selection_from_indices(plan, args.indices.split(","))
    with _open_out(args.out) as out:
        if args.indices is None:
            import numpy as np

            rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
            selection = tuple(sample_selection_batch(plan, args.select, rng).tolist())
        result = compute_ud(plan, selection)
        lines = [
            f"indices = {','.join(str(k) for k in selection)}",
            f"gcd = {result.gcd_k}",
            f"ud_m = {result.ud_m!r}",
        ]
        if result.ud_m >= 1e4:
            lines.append(f"ud_km = {result.ud_km!r}")
        lines.append(f"is_max = {'true' if result.is_max else 'false'}")
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_prob(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",")]
    for i, method in enumerate(methods):
        if method not in METHODS:
            args.error(f"unknown method {method!r}")
        if method in methods[:i]:
            args.error(f"repeated method {method!r}")
    if not args.plan and ("exact" in methods or "monte_carlo" in methods):
        args.error("--plan is required for the exact and monte_carlo methods")
    if "monte_carlo" in methods and not args.trials:
        args.error("--trials is required for monte_carlo")
    if "asymptotic" in methods and args.m < 2:
        args.error(f"asymptotic needs -m >= 2, got {args.m}")
    plan = load_plan(args.plan) if args.plan else None
    if "exact" in methods:
        check_exact_limits(plan, args.m)

    with _open_out(args.out) as out:
        if "asymptotic" in methods and args.m == 2:
            print(M2_WARNING, file=sys.stderr)
        estimates = [
            prob_exact(plan, args.m) if method == "exact"
            else prob_asymptotic(args.m) if method == "asymptotic"
            else prob_montecarlo(plan, args.m, args.trials, args.seed, args.workers)
            for method in methods
        ]
        if args.format == "json":
            payload = {"m": args.m, "estimates": [_estimate_json(e) for e in estimates]}
            out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            lines = [f"m = {args.m}"]
            for e in estimates:
                line = f"P_{e.method} = {e.value:.10f}"
                if e.method == "monte_carlo":
                    line += f"  (trials={e.trials}, stderr={e.std_error:.2e})"
                if e.method == "exact":
                    num, den = _digits(e.exact_numerator), _digits(e.exact_denominator)
                    line += f"  ({num}/{den})"
                lines.append(line)
            out.write("\n".join(lines) + "\n")
    return EXIT_OK


SWEEP_COLUMNS = (
    "L", "N", "M", "P_exact", "P_asymptotic", "P_mc", "stderr", "trials", "seed"
)


def cmd_sweep(args: argparse.Namespace) -> int:
    plans = [load_plan(p) for p in args.plan]
    for plan in plans:  # the K cap does not depend on M; the digit cap grows with it
        check_exact_limits(plan, args.m_range[-1])
    rows, intervals = [], []
    with _open_out(args.out) as out:
        if args.m_range[0] == 2:
            print(M2_WARNING, file=sys.stderr)
        for plan_idx, plan in enumerate(plans):
            for m in args.m_range:
                exact = prob_exact(plan, m)
                asym = prob_asymptotic(m)
                # Per-row entropy keeps rows reproducible under any execution order.
                mc = prob_montecarlo(
                    plan, m, args.trials, (args.seed, plan_idx, m), args.workers
                )
                rows.append(
                    (plan.n_segments, plan.n_frequencies, m, exact.value, asym.value,
                     mc.value, mc.std_error, args.trials, args.seed)
                )
                intervals.append(mc.wilson_bounds(Z_95))
        if args.format == "json":
            payload = [
                {**dict(zip(SWEEP_COLUMNS, row)),
                 "P_mc_ci95_low": low, "P_mc_ci95_high": high}
                for row, (low, high) in zip(rows, intervals)
            ]
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            lines = [",".join(SWEEP_COLUMNS)] + [
                ",".join(f"{v:.10f}" if isinstance(v, float) else str(v) for v in row)
                for row in rows
            ]
            text = "\n".join(lines) + "\n"
        out.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import _selfcheck  # only verify loads the checks and the Fig. 1 plans

    results = _selfcheck.run_checks(quick=args.quick)
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}" if detail else f"{status} {name}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udrange",
        description=(
            "Unambiguous distance of phase-based ranging with hopping "
            "frequencies, and the probability it attains c/f_min."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive, non_negative = _int_in(1), _int_in(0)

    p_ud = sub.add_parser("ud", help="UD of one selection of frequencies")
    p_ud.add_argument("--plan", required=True, help="plan JSON file")
    pick = p_ud.add_mutually_exclusive_group(required=True)
    pick.add_argument("--indices", help="comma-separated grid indices")
    pick.add_argument(
        "--select", type=_int_in(1, MAX_SELECT), help="draw this many indices at random"
    )
    p_ud.add_argument("--seed", type=non_negative, default=0)
    p_ud.add_argument("--out")
    p_ud.set_defaults(func=cmd_ud)

    p_prob = sub.add_parser("prob", help="probability that UD is maximal")
    p_prob.add_argument("--plan", help="plan JSON file")
    p_prob.add_argument(
        "-m", type=positive, required=True, help="frequencies per measurement"
    )
    p_prob.add_argument("--methods", default="exact,asymptotic")
    p_prob.add_argument("--trials", type=positive)
    p_prob.add_argument("--seed", type=non_negative, default=0)
    p_prob.add_argument("--workers", type=positive, default=1)
    p_prob.add_argument("--format", choices=("text", "json"), default="text")
    p_prob.add_argument("--out")
    p_prob.set_defaults(func=cmd_prob, error=p_prob.error)

    p_sweep = sub.add_parser("sweep", help="(plan, M) sweep table for plotting")
    p_sweep.add_argument("--plan", action="append", required=True)
    p_sweep.add_argument("--m-range", type=_parse_m_range, required=True, dest="m_range")
    p_sweep.add_argument("--trials", type=positive, default=100_000)
    p_sweep.add_argument("--seed", type=non_negative, default=0)
    p_sweep.add_argument("--workers", type=positive, default=1)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in invariant checks")
    p_verify.add_argument("--quick", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN_ERROR
    except SelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SELECTION_ERROR
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import dataclasses
import json
import os
import resource
import subprocess
import sys

import pytest

from udrange import _selfcheck, cli
from udrange.estimator import (
    EXACT_MAX_INDEX,
    ProbabilityEstimate,
    prob_exact,
    prob_montecarlo,
)
from udrange.numtheory import MobiusTable, mertens_at_quotients, sieve_mobius

from .conftest import PLAN_DIR, REPO_ROOT, make_plan, run_main, signature_price
from .oracles import coprime_fraction_brute


def run_cli(args, **kwargs):
    """A ``python -m udrange`` run in a fresh process."""
    cmd = [sys.executable, "-m", "udrange", *args]
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


def comb_plan(n_segments):
    """n_segments segments of 50 indices, one every 100 grid steps from 10."""
    segments = [{"start_index": 10 + 100 * i, "count": 50} for i in range(n_segments)]
    return {"f_min_hz": 1000, "segments": segments}


def plan_ending_at(last_index):
    """The two indices last_index - 1 and last_index on a 1 Hz grid."""
    return {"f_min_hz": 1, "segments": [{"start_index": last_index - 1, "count": 2}]}


def one_segment(start_index, count, f_min_hz=1000):
    segment = {"start_index": start_index, "count": count}
    return {"f_min_hz": f_min_hz, "segments": [segment]}


# Plans the runs below name in braces, beside the bundled {L1}, {L7} and {L12}
# and a {missing} file that is never written. A str is written verbatim, for
# the 1e400 that json.dumps cannot write.
GENERATED_PLANS = {
    # N = 2^20 indices that end one below the exact method's cap of 10^7.
    "k1e7": one_segment(8951424, 1048576, f_min_hz=1),
    # N = 2^20 below the cap in 200 segments, where the sieve stops short of K.
    "l200": {
        "f_min_hz": 1,
        "segments": [
            {"start_index": 64658 + 49900 * i, "count": 5243 if i < 176 else 5242}
            for i in range(200)
        ],
    },
    # Enough segments that the exact method's sieve reaches K.
    "l2000": comb_plan(2000),
    # Monte Carlo across many segments.
    "l20000": comb_plan(20000),
    # 200,000 single indices 40 apart, K = 8e6: the block walk's quotient
    # lists outgrow a 1,000,000 KiB address space.
    "singles": json.dumps(
        {
            "f_min_hz": 1,
            "segments": [{"start_index": 40 * i, "count": 1} for i in range(1, 200001)],
        }
    ),
    "tiny": one_segment(1, 4),
    "overlap": {
        "f_min_hz": 1000,
        "segments": [{"start_index": 10, "count": 5}, {"start_index": 12, "count": 3}],
    },
    "at_cap": plan_ending_at(EXACT_MAX_INDEX),
    "over_cap": plan_ending_at(EXACT_MAX_INDEX + 1),
    # Fields that used to load truncated, cast or infinite.
    "f_min_inf": '{"f_min_hz": 1e400, "segments": [{"start_index": 5, "count": 4}]}',
    "start_float": one_segment(5.9, 4),
    "count_bool": one_segment(5, True),
    "start_str": one_segment("5", 4),
    "not_object": [1, 2],
    # c / 1e-310 overflows: the maximal UD used to print as inf with exit 0.
    "f_min_tiny": one_segment(5, 4, f_min_hz=1e-310),
    # k * f_min overflows a double to inf: the UD used to print as 0.0.
    "f_min_huge": one_segment(2**62, 2, f_min_hz=1e300),
    # 0.1 Hz used to enter the UD as the double nearest 1/10.
    "f_min_tenth": one_segment(1, 10, f_min_hz=0.1),
}


@pytest.fixture(scope="module")
def pinned_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned_plans")
    paths = {f"L{L}": str(PLAN_DIR / f"fig1_L{L}.json") for L in (1, 7, 12)}
    paths["missing"] = str(root / "missing.json")
    for name, plan in GENERATED_PLANS.items():
        path = root / f"{name}.json"
        path.write_text(plan if isinstance(plan, str) else json.dumps(plan))
        paths[name] = str(path)
    return paths


def fill(text, paths):
    """text with every {name} of paths replaced by that path."""
    for name, path in paths.items():
        text = text.replace("{" + name + "}", path)
    return text


# argparse's usage block for each command at COLUMNS=80.
USAGE = {
    "ud": """\
usage: udrange ud [-h] --plan PLAN (--indices INDICES | --select SELECT)
                  [--seed SEED] [--out OUT]
""",
    "prob": """\
usage: udrange prob [-h] [--plan PLAN] -m M [--methods METHODS]
                    [--trials TRIALS] [--seed SEED] [--workers WORKERS]
                    [--format {text,json}] [--out OUT]
""",
    "sweep": """\
usage: udrange sweep [-h] --plan PLAN --m-range M_RANGE [--trials TRIALS]
                     [--seed SEED] [--workers WORKERS] [--format {csv,json}]
                     [--out OUT]
""",
}


def argparse_error(command, message):
    """argparse's stderr when it refuses an argument of ``udrange command``."""
    return f"{USAGE[command]}udrange {command}: error: {message}\n"


EXACT_AND_ASYMPTOTIC_JSON = """\
{
  "estimates": [
    {
      "ci95_high": 0.99987730145976,
      "ci95_low": 0.99987730145976,
      "exact_denominator": "50216813883093446110686315385661331328818843555712276103168",
      "exact_numerator": "50210652353334486238729142782947257030387323322660624343570",
      "method": "exact",
      "std_error": 0.0,
      "trials": 0,
      "value": 0.99987730145976
    },
    {
      "ci95_high": 0.9998773017090384,
      "ci95_low": 0.9998773017090384,
      "exact_denominator": null,
      "exact_numerator": null,
      "method": "asymptotic",
      "std_error": 0.0,
      "trials": 0,
      "value": 0.9998773017090384
    }
  ],
  "m": 13
}
"""

ASYMPTOTIC_JSON = """\
{
  "estimates": [
    {
      "ci95_high": 0.9990064130688554,
      "ci95_low": 0.9990064130688554,
      "exact_denominator": null,
      "exact_numerator": null,
      "method": "asymptotic",
      "std_error": 0.0,
      "trials": 0,
      "value": 0.9990064130688554
    }
  ],
  "m": 10
}
"""

SWEEP_CSV = """\
L,N,M,P_exact,P_asymptotic,P_mc,stderr,trials,seed
1,32768,3,0.8319052426,0.8319073726,0.8454589844,0.0056479153,4096,2014
1,32768,4,0.9239370262,0.9239384029,0.9169921875,0.0043108442,4096,2014
12,32768,3,0.8319062429,0.8319073726,0.8286132812,0.0058882271,4096,2014
12,32768,4,0.9239373453,0.9239384029,0.9287109375,0.0040204231,4096,2014
"""

VERIFY_QUICK = """\
PASS mobius_sieve: divisor sums of mu are [n = 1] up to 2000
PASS zeta_closed_form: |zeta(2) - pi^2/6| = 4.86e-13
PASS gcd_known_values
PASS exact_vs_enumeration
PASS phase_periodicity
"""

VERIFY_FULL = """\
PASS mobius_sieve: divisor sums of mu are [n = 1] up to 10000
PASS zeta_closed_form: |zeta(2) - pi^2/6| = 4.86e-13
PASS gcd_known_values
PASS exact_vs_enumeration
PASS phase_periodicity
PASS mertens_known_values: M(10^n) matches OEIS A084237 for n = 1..8
PASS l_independence: max spread over L = 8.52e-05
PASS asymptotic_gap: max gap = 2.13e-06
PASS montecarlo_vs_exact: exact P inside the z = 4 Wilson interval at 39 points
"""

# The CLI's contract, run in-process: id -> (argv, exit code, stdout, stderr),
# byte for byte. A {name} in any text is the path of a plan above.
PINNED = {
    # ud
    "ud_explicit_indices": (
        "ud --plan {L1} --indices 54000,54001", 0,
        "indices = 54000,54001\ngcd = 1\nud_m = 299792.458\nud_km = 299.792458\n"
        "is_max = true\n", "",
    ),
    "ud_select_seeded": (
        "ud --plan {L12} --select 7 --seed 3", 0,
        "indices = 662009,121408,189083,190963,189146,661674,728503\n"
        "gcd = 1\nud_m = 299792.458\nud_km = 299.792458\nis_max = true\n", "",
    ),
    "ud_gcd_9": (
        "ud --plan {L1} --indices 54000,54009", 0,
        "indices = 54000,54009\ngcd = 9\nud_m = 33310.27311111111\n"
        "ud_km = 33.31027311111111\nis_max = false\n", "",
    ),
    "ud_f_min_huge": (
        "ud --plan {f_min_huge} --indices 4611686018427387904", 0,
        "indices = 4611686018427387904\ngcd = 4611686018427387904\n"
        "ud_m = 6.5007126851674e-311\nis_max = false\n", "",
    ),
    "ud_f_min_decimal": (
        "ud --plan {f_min_tenth} --indices 3,6", 0,
        "indices = 3,6\ngcd = 3\nud_m = 999308193.3333334\n"
        "ud_km = 999308.1933333334\nis_max = false\n", "",
    ),
    "ud_overlapping_segments": (
        "ud --plan {overlap} --indices 10", 2, "",
        "error: segments overlap: [10, 14] and [12, 14]\n",
    ),
    "ud_f_min_inf": (
        "ud --plan {f_min_inf} --indices 5", 2, "",
        "error: f_min_hz must be finite and positive, got inf\n",
    ),
    "ud_start_index_float": (
        "ud --plan {start_float} --indices 5", 2, "",
        "error: segment 0: start_index must be an integer, got 5.9\n",
    ),
    "ud_count_bool": (
        "ud --plan {count_bool} --indices 5", 2, "",
        "error: segment 0: count must be an integer, got True\n",
    ),
    "ud_start_index_str": (
        "ud --plan {start_str} --indices 5", 2, "",
        "error: segment 0: start_index must be an integer, got '5'\n",
    ),
    "ud_plan_not_object": (
        "ud --plan {not_object} --indices 1", 2, "",
        "error: plan must be a JSON object, got list\n",
    ),
    "ud_f_min_tiny": (
        "ud --plan {f_min_tiny} --indices 5,6", 2, "",
        "error: f_min_hz is too small: c / f_min_hz overflows, got 1e-310\n",
    ),
    "ud_outside_plan": (
        "ud --plan {L1} --indices 1,2", 3, "",
        "error: index 1 is not in the plan's index set\n",
    ),
    "ud_index_not_int": (
        "ud --plan {L1} --indices 54000,x", 3, "",
        "error: index 'x' is not an integer\n",
    ),
    "ud_select_negative": (
        "ud --plan {L1} --select -2", 2, "",
        argparse_error("ud", "argument --select: must be >= 1, got -2"),
    ),
    # Above the cap of 1,000,000: refused before any index is drawn.
    "ud_select_above_cap": (
        "ud --plan {L1} --select 1000001", 2, "",
        argparse_error("ud", "argument --select: must be <= 1000000, got 1000001"),
    ),
    "ud_seed_negative": (
        "ud --plan {L1} --select 2 --seed -1", 2, "",
        argparse_error("ud", "argument --seed: must be >= 0, got -1"),
    ),
    "ud_indices_and_select": (
        "ud --plan {L1} --indices 54000,54001 --select 3", 2, "",
        argparse_error("ud", "argument --select: not allowed with argument --indices"),
    ),
    "ud_neither_indices_nor_select": (
        "ud --plan {L1}", 2, "",
        argparse_error("ud", "one of the arguments --indices --select is required"),
    ),
    "ud_select_out_unwritable": (
        "ud --plan {L1} --select 3 --out /nonexistent/x", 2, "",
        "error: [Errno 2] No such file or directory: '/nonexistent/x'\n",
    ),
    # prob
    "asymptotic_m10": (
        "prob -m 10 --methods asymptotic", 0,
        "m = 10\nP_asymptotic = 0.9990064131\n", "",
    ),
    "asymptotic_m10_json": (
        "prob -m 10 --methods asymptotic --format json", 0, ASYMPTOTIC_JSON, "",
    ),
    "asymptotic_m2_warning": (
        "prob -m 2 --methods asymptotic", 0,
        "m = 2\nP_asymptotic = 0.6079271019\n",
        "warning: m = 2 is outside the asymptotic error analysis regime (it assumes "
        "more than 2 frequencies); 1/zeta(2) is still exact as a limit value\n",
    ),
    "asymptotic_m1e400": (
        f"prob -m {10**400} --methods asymptotic", 0,
        f"m = {10**400}\nP_asymptotic = 1.0000000000\n", "",
    ),
    "exact_tiny": (
        "prob --plan {tiny} -m 2 --methods exact", 0,
        "m = 2\nP_exact = 0.6875000000  (11/16)\n", "",
    ),
    "exact_and_asymptotic_L7": (
        "prob --plan {L7} -m 3 --methods exact,asymptotic", 0,
        "m = 3\nP_exact = 0.8319904482  (29273061505440/35184372088832)\n"
        "P_asymptotic = 0.8319073726\n", "",
    ),
    "exact_and_asymptotic_json": (
        "prob --plan {L12} -m 13 --format json --methods exact,asymptotic", 0,
        EXACT_AND_ASYMPTOTIC_JSON, "",
    ),
    "exact_200_segments": (
        "prob --plan {l200} -m 5 --methods exact", 0,
        "m = 5\nP_exact = 0.9643607697  "
        "(1222472508593232857725348689570/1267650600228229401496703205376)\n", "",
    ),
    "exact_2000_segments": (
        "prob --plan {l2000} -m 5 --methods exact", 0,
        "m = 5\nP_exact = 0.9643875157  "
        "(9643875157220153295339840/10000000000000000000000000)\n", "",
    ),
    "exact_at_index_cap": (
        "prob -m 3 --methods exact --plan {at_cap}", 0,
        "m = 3\nP_exact = 0.7500000000  (6/8)\n", "",
    ),
    "exact_over_index_cap": (
        "prob -m 3 --methods exact --plan {over_cap}", 4, "",
        "error: largest plan index 10000001 exceeds the exact method's cap 10000000\n",
    ),
    "exact_m876_digits_cap": (
        "prob --plan {L1} -m 876 --methods exact", 4, "",
        "error: exact method needs M * bit_length(N) <= 14000, got 876 * 16 = 14016\n",
    ),
    "exact_m1000_digits_cap": (
        "prob --plan {L1} -m 1000 --methods exact", 4, "",
        "error: exact method needs M * bit_length(N) <= 14000, got 1000 * 16 = 16000\n",
    ),
    # The exact method's limits are checked before any method runs.
    "monte_carlo_then_exact_digits_cap": (
        "prob --plan {L1} -m 876 --methods monte_carlo,exact --trials 10", 4, "",
        "error: exact method needs M * bit_length(N) <= 14000, got 876 * 16 = 14016\n",
    ),
    # A refused run prints only its refusal, not the m = 2 warning.
    "exact_over_index_cap_m2": (
        "prob -m 2 --plan {over_cap}", 4, "",
        "error: largest plan index 10000001 exceeds the exact method's cap 10000000\n",
    ),
    "monte_carlo_stream": (
        "prob --plan {L12} -m 3 --methods monte_carlo --trials 200000 --seed 7", 0,
        "m = 3\nP_monte_carlo = 0.8313900000  (trials=200000, stderr=8.37e-04)\n", "",
    ),
    **{
        f"monte_carlo_20000_segments_workers_{workers}": (
            "prob --plan {l20000} -m 13 --methods monte_carlo --trials 262144 "
            f"--seed 11 --workers {workers}", 0,
            "m = 13\nP_monte_carlo = 0.9998779297  (trials=262144, stderr=2.16e-05)\n",
            "",
        )
        for workers in (1, 2)
    },
    # Every draw is coprime at M = 1e20; the Wald stderr of 0 is today's
    # output, not pinned as correct.
    "monte_carlo_m1e20": (
        f"prob --plan {{L1}} -m {10**20} --methods monte_carlo --trials 1", 0,
        f"m = {10**20}\nP_monte_carlo = 1.0000000000  (trials=1, stderr=0.00e+00)\n",
        "",
    ),
    "missing_plan_file": (
        "prob --plan {missing} -m 3", 2, "",
        "error: cannot read plan file {missing}: "
        "[Errno 2] No such file or directory: '{missing}'\n",
    ),
    "prob_f_min_tiny": (
        "prob --plan {f_min_tiny} -m 3", 2, "",
        "error: f_min_hz is too small: c / f_min_hz overflows, got 1e-310\n",
    ),
    "exact_without_plan": (
        "prob -m 3 --methods exact", 2, "",
        argparse_error(
            "prob", "--plan is required for the exact and monte_carlo methods"
        ),
    ),
    "monte_carlo_without_plan": (
        "prob -m 3 --methods monte_carlo --trials 10", 2, "",
        argparse_error(
            "prob", "--plan is required for the exact and monte_carlo methods"
        ),
    ),
    "monte_carlo_without_trials": (
        "prob --plan {L1} -m 3 --methods monte_carlo", 2, "",
        argparse_error("prob", "--trials is required for monte_carlo"),
    ),
    "unknown_method": (
        "prob --plan {L1} -m 3 --methods exact,bogus", 2, "",
        argparse_error("prob", "unknown method 'bogus'"),
    ),
    # The plan file is missing: the refusal comes before the plan loads.
    "prob_methods_repeated": (
        "prob --plan {missing} -m 3 --methods exact,exact", 2, "",
        argparse_error("prob", "repeated method 'exact'"),
    ),
    "prob_out_unwritable": (
        "prob --plan {L1} -m 3 --out /nonexistent/x", 2, "",
        "error: [Errno 2] No such file or directory: '/nonexistent/x'\n",
    ),
    "prob_m0": (
        "prob -m 0", 2, "", argparse_error("prob", "argument -m: must be >= 1, got 0")
    ),
    "asymptotic_m1": (
        "prob -m 1 --methods asymptotic", 2, "",
        argparse_error("prob", "asymptotic needs -m >= 2, got 1"),
    ),
    "prob_seed_negative": (
        "prob --plan {L1} -m 3 --methods monte_carlo --trials 10 --seed -1", 2, "",
        argparse_error("prob", "argument --seed: must be >= 0, got -1"),
    ),
    **{
        f"prob_workers_{name}": (
            "prob --plan {L1} -m 3 --methods monte_carlo --trials 10 "
            f"--workers {value}", 2, "",
            argparse_error("prob", f"argument --workers: must be >= 1, got {value}"),
        )
        for name, value in (("0", 0), ("negative", -5))
    },
    # sweep
    "sweep_csv": (
        "sweep --plan {L1} --plan {L12} --m-range 3..4 --trials 4096 --seed 2014", 0,
        SWEEP_CSV, "",
    ),
    "sweep_single_row": (
        "sweep --plan {tiny} --m-range 3..3 --trials 1000", 0,
        "L,N,M,P_exact,P_asymptotic,P_mc,stderr,trials,seed\n"
        "1,4,3,0.8593750000,0.8319073726,0.8730000000,0.0105295299,1000,0\n", "",
    ),
    # A range from M = 2 reports 1/zeta(2): the m = 2 warning prints once.
    "sweep_m_range_from_2": (
        "sweep --plan {tiny} --m-range 2..3 --trials 1000", 0,
        "L,N,M,P_exact,P_asymptotic,P_mc,stderr,trials,seed\n"
        "1,4,2,0.6875000000,0.6079271019,0.7110000000,0.0143345387,1000,0\n"
        "1,4,3,0.8593750000,0.8319073726,0.8730000000,0.0105295299,1000,0\n",
        "warning: m = 2 is outside the asymptotic error analysis regime (it assumes "
        "more than 2 frequencies); 1/zeta(2) is still exact as a limit value\n",
    ),
    **{
        f"sweep_empty_m_range_{lo}_{hi}_{fmt}": (
            f"sweep --plan {{tiny}} --m-range {lo}..{hi} --format {fmt}", 2, "",
            argparse_error(
                "sweep", f"argument --m-range: m-range must not be empty: '{lo}..{hi}'"
            ),
        )
        for lo, hi in ((3, 2), (5, 3))
        for fmt in ("csv", "json")
    },
    **{
        f"sweep_m_range_from_{lo}": (
            f"sweep --plan {{L1}} --m-range {lo}..3", 2, "",
            argparse_error(
                "sweep", f"argument --m-range: m-range must start at 2 or more: '{lo}..3'"
            ),
        )
        for lo in (0, 1)
    },
    "sweep_m_range_malformed": (
        "sweep --plan {L1} --m-range 3-5", 2, "",
        argparse_error(
            "sweep", "argument --m-range: m-range must look like A..B, got '3-5'"
        ),
    ),
    # Checked at the largest M before any row is computed.
    "sweep_digits_cap": (
        "sweep --plan {L1} --m-range 875..876 --trials 10", 4, "",
        "error: exact method needs M * bit_length(N) <= 14000, got 876 * 16 = 14016\n",
    ),
    "sweep_out_unwritable": (
        "sweep --plan {L1} --m-range 3..3 --trials 10 --out /nonexistent/x", 2, "",
        "error: [Errno 2] No such file or directory: '/nonexistent/x'\n",
    ),
    "sweep_trials_0": (
        "sweep --plan {L1} --m-range 3..3 --trials 0", 2, "",
        argparse_error("sweep", "argument --trials: must be >= 1, got 0"),
    ),
    "sweep_seed_negative": (
        "sweep --plan {L1} --m-range 3..3 --seed -1", 2, "",
        argparse_error("sweep", "argument --seed: must be >= 0, got -1"),
    ),
    **{
        f"sweep_workers_{name}": (
            f"sweep --plan {{L1}} --m-range 3..3 --workers {value}", 2, "",
            argparse_error("sweep", f"argument --workers: must be >= 1, got {value}"),
        )
        for name, value in (("0", 0), ("negative", -5))
    },
    # verify
    "verify_quick": ("verify --quick", 0, VERIFY_QUICK, ""),
    "verify_full": ("verify", 0, VERIFY_FULL, ""),
}


def pinned_run(row, paths):
    """The argv and the pinned (exit code, stdout, stderr) of PINNED[row]."""
    command, code, out, err = PINNED[row]
    return fill(command, paths).split(), (code, fill(out, paths), fill(err, paths))


@pytest.mark.parametrize("row", PINNED)
def test_pinned_output(row, pinned_paths):
    argv, expected = pinned_run(row, pinned_paths)
    assert run_main(argv) == expected


REFUSED_ROWS = [row for row, (_, code, _, _) in PINNED.items() if code != 0]
WORK = (
    "prob_exact", "prob_asymptotic", "prob_montecarlo", "compute_ud",
    "sample_selection_batch",
)


@pytest.mark.parametrize("row", REFUSED_ROWS)
def test_refusals_do_no_work(row, pinned_paths, monkeypatch):
    # Every refusal comes before the first estimator call or draw.
    def work(*args, **kwargs):
        raise AssertionError(f"{row} started work before its refusal")

    for name in WORK:
        monkeypatch.setattr(cli, name, work)
    argv, expected = pinned_run(row, pinned_paths)
    assert run_main(argv) == expected


# Rows refused for bad user input, in the order of their argv<i>-<code> ids.
BAD_ARGUMENT_ROWS = """
    prob_m0 asymptotic_m1 exact_without_plan monte_carlo_without_plan prob_seed_negative
    ud_index_not_int ud_select_negative ud_seed_negative sweep_trials_0
    sweep_seed_negative sweep_m_range_from_0 sweep_m_range_from_1 prob_out_unwritable
    ud_indices_and_select ud_neither_indices_nor_select prob_workers_0
    prob_workers_negative sweep_workers_0 sweep_workers_negative ud_select_above_cap
    prob_methods_repeated
""".split()
BAD_ARGUMENT_IDS = [f"argv{i}-{PINNED[r][1]}" for i, r in enumerate(BAD_ARGUMENT_ROWS)]


@pytest.mark.parametrize("row", BAD_ARGUMENT_ROWS, ids=BAD_ARGUMENT_IDS)
def test_bad_arguments_exit_without_traceback(row, pinned_paths):
    # A wide terminal rewraps argparse's usage block, but not the exit code,
    # the empty stdout or the closing error line pinned at 80 columns.
    argv, (code, out, err) = pinned_run(row, pinned_paths)
    wide_code, wide_out, wide_err = run_main(argv, columns=200)
    assert (wide_code, wide_out) == (code, out) and "Traceback" not in wide_err
    assert wide_err.splitlines()[-1] == err.splitlines()[-1]


# The same contract in a fresh process whose address space is capped at kib
# KiB, as ``ulimit -v`` would cap it: id -> (argv, kib, exit code, stdout,
# stderr). stdout None leaves stdout unchecked: at M = 4096 every draw is
# coprime, and the Wald stderr of 0 it prints there is not pinned as correct.
MEMORY_LIMITED = {
    "exact_at_index_cap": (
        "prob --plan {k1e7} -m 5 --methods exact",
        200_000,
        0,
        "m = 5\nP_exact = 0.9643873029  "
        "(1222506143389881884612049583800/1267650600228229401496703205376)\n",
        "",
    ),
    "monte_carlo_large_m": (
        "prob --plan {L12} -m 4096 --methods monte_carlo --trials 131072 --workers 2",
        1_500_000,
        0,
        None,
        "",
    ),
    "select_above_cap": (
        "ud --plan {L1} --select 400000000",
        1_500_000,
        2,
        "",
        argparse_error("ud", "argument --select: must be <= 1000000, got 400000000"),
    ),
    "exact_out_of_memory": (
        "prob --plan {singles} -m 5 --methods exact",
        1_000_000,
        4,
        "",
        "error: out of memory\n",
    ),
}


@pytest.mark.parametrize("row", MEMORY_LIMITED)
def test_memory_limited_run(row, pinned_paths):
    command, kib, code, out, err = MEMORY_LIMITED[row]

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (kib * 1024, kib * 1024))

    proc = run_cli(
        fill(command, pinned_paths).split(),
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "COLUMNS": "80"},
        preexec_fn=cap_address_space,
    )
    assert (proc.returncode, proc.stderr) == (code, err)
    if out is not None:
        assert proc.stdout == out


# Exact answers under CPython's smallest int_max_str_digits, 640, in a fresh
# process: at M = 200 the L = 1 plan's N^M has 904 digits. Each run must print
# the bytes of the same run without the limit.
INT_DIGIT_LIMITED = {
    "exact_m200": "prob --plan {L1} -m 200 --methods exact",
    "exact_m200_json": "prob --plan {L1} -m 200 --methods exact --format json",
}


@pytest.mark.parametrize("row", INT_DIGIT_LIMITED)
def test_exact_answer_under_int_digit_limit(row, pinned_paths):
    argv = fill(INT_DIGIT_LIMITED[row], pinned_paths).split()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    unlimited = run_cli(argv, env=env)
    limited = run_cli(argv, env={**env, "PYTHONINTMAXSTRDIGITS": "640"})
    assert (unlimited.returncode, unlimited.stderr) == (0, "")
    assert (limited.returncode, limited.stderr) == (0, "")
    assert limited.stdout == unlimited.stdout


# The child blocks numpy, so any numpy import raises ImportError, and prints
# each run's (exit code, stdout, stderr) as JSON, or "ImportError" for a run
# that needed numpy.
NO_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from tests.conftest import run_main
results = []
for argv in json.loads(sys.argv[1]):
    try:
        results.append(list(run_main(argv)))
    except ImportError:
        results.append("ImportError")
print(json.dumps(results))
"""
NUMPY_FREE_ROWS = [
    "ud_explicit_indices",
    "asymptotic_m10",
    "asymptotic_m10_json",
    "missing_plan_file",
    "ud_outside_plan",
    "ud_index_not_int",
    "prob_m0",
    "exact_without_plan",
]


def test_array_free_commands_run_without_numpy(pinned_paths):
    runs = [pinned_run(row, pinned_paths) for row in NUMPY_FREE_ROWS]
    # Control: the exact method needs arrays, so the block must stop it.
    control = ["prob", "--plan", pinned_paths["L1"], "-m", "3", "--methods", "exact"]
    argvs = [argv for argv, _ in runs] + [control]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(argvs)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    *blocked, control_result = json.loads(proc.stdout)
    assert control_result == "ImportError"
    assert blocked == [list(expected) for _, expected in runs]


class TestUdCommand:
    # The messages come from Python's codec, JSON decoder and int-digit
    # limit, so only their first words are pinned.
    @pytest.mark.parametrize(
        "data",
        [
            b'{"f_min_hz": 1000, "segments": [{"start_index": 5, "count": 4}]} \xff',
            b"[" * 200_000,
            b'{"f_min_hz": 1000, "segments": [{"start_index": 1%s, "count": 4}]}'
            % (b"0" * 4_400),
        ],
        ids=["not_utf8", "nested_too_deep", "integer_too_long"],
    )
    def test_unparsable_plan_file_exit_code(self, data, tmp_path):
        # Each of these used to end in a traceback and exit 1.
        path = tmp_path / "plan.json"
        path.write_bytes(data)
        code, out, err = run_main(["ud", "--plan", str(path), "--indices", "5"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read plan file {path}: ")
        assert err.count("\n") == 1

    # Reading a fractional f_min_hz exactly refuses the same values, with the
    # same bytes, and a float start_index is still quoted as a float.
    @pytest.mark.parametrize(
        "f_min, message",
        [
            ("true", "f_min_hz must be a number, got True"),
            ('"1000"', "f_min_hz must be a number, got '1000'"),
            ("NaN", "f_min_hz must be finite and positive, got nan"),
            ("Infinity", "f_min_hz must be finite and positive, got inf"),
            ("1e999", "f_min_hz must be finite and positive, got inf"),
            ("0", "f_min_hz must be finite and positive, got 0.0"),
            ("0.0", "f_min_hz must be finite and positive, got 0.0"),
            ("-5", "f_min_hz must be finite and positive, got -5.0"),
            ("-0.1", "f_min_hz must be finite and positive, got -0.1"),
            ("1e-310", "f_min_hz is too small: c / f_min_hz overflows, got 1e-310"),
            ("2.5e-324", "f_min_hz is too small: c / f_min_hz overflows, got 5e-324"),
            # The exact c / f_min rounds to a finite double; c / its double does not.
            (
                "1.6676509031835454e-300",
                "f_min_hz is too small: c / f_min_hz overflows, "
                "got 1.6676509031835453e-300",
            ),
        ],
    )
    def test_refused_f_min_keeps_its_message(self, f_min, message, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            f'{{"f_min_hz": {f_min}, "segments": [{{"start_index": 5, "count": 4}}]}}'
        )
        assert run_main(["ud", "--plan", str(path), "--indices", "5"]) == (
            2, "", f"error: {message}\n"
        )

    def test_float_start_index_beside_decimal_f_min(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(one_segment(5.9, 4, f_min_hz=0.1)))
        assert run_main(["ud", "--plan", str(path), "--indices", "5"]) == (
            2, "", "error: segment 0: start_index must be an integer, got 5.9\n"
        )


class TestProbCommand:
    def test_json_round_trips(self, pinned_paths, tmp_path):
        out_path = tmp_path / "prob.json"
        argv = ["prob", "--plan", pinned_paths["tiny"], "-m", "2"]
        argv += ["--methods", "exact,asymptotic", "--format", "json"]
        code, out, _ = run_main(argv + ["--out", str(out_path)])
        assert (code, out) == (0, "")
        text = out_path.read_text()
        payload = json.loads(text)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        exact = next(e for e in payload["estimates"] if e["method"] == "exact")
        assert exact["exact_numerator"] == "11"
        assert exact["exact_denominator"] == "16"

    @pytest.mark.parametrize("value", ["abc", "1e7", "0", "-5", "100000000"])
    def test_bad_sieve_limit_setting(self, value, pinned_paths, monkeypatch):
        # The exact method's cap is a constant: UD_SIEVE_LIMIT changes nothing.
        for plan in (pinned_paths["L1"], pinned_paths["over_cap"]):
            argv = ["prob", "--plan", plan, "-m", "3"]
            monkeypatch.delenv("UD_SIEVE_LIMIT", raising=False)
            unset = run_main(argv)
            monkeypatch.setenv("UD_SIEVE_LIMIT", value)
            assert run_main(argv) == unset


def sweep_rows(argv):
    """The rows of a ``udrange sweep --format json`` run."""
    code, out, err = run_main(["sweep", *argv, "--format", "json"])
    assert (code, err) == (0, "")
    return json.loads(out)


class TestSweepCommand:
    def test_row_shape(self, pinned_paths):
        argv = ["--m-range", "3..13", "--trials", "2000", "--seed", "0"]
        for L in (1, 7, 12):
            argv += ["--plan", pinned_paths[f"L{L}"]]
        rows = sweep_rows(argv)
        assert len(rows) == 33
        assert sorted({r["L"] for r in rows}) == [1, 7, 12]
        for r in rows:
            assert abs(r["P_mc"] - r["P_asymptotic"]) < max(0.02, 6 * r["stderr"])
            assert r["P_mc_ci95_low"] <= r["P_mc"] <= r["P_mc_ci95_high"]
            assert r["P_mc_ci95_low"] < r["P_mc_ci95_high"]

    def test_exact_column_matches_enumeration(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(one_segment(1, 100)))
        argv = ["--plan", str(path), "--m-range", "3..3", "--trials", "10000"]
        rows = sweep_rows(argv + ["--seed", "1"])
        assert len(rows) == 1
        expected = coprime_fraction_brute(make_plan([(1, 100)]), 3)
        assert rows[0]["P_exact"] == pytest.approx(float(expected), abs=1e-15)

    def test_reproduce_fig1_script_matches_sweep(self, tmp_path):
        script_csv, sweep_csv = tmp_path / "script.csv", tmp_path / "sweep.csv"
        script = REPO_ROOT / "scripts" / "reproduce_fig1.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--trials", "4096", "--out", str(script_csv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        argv = ["sweep", "--m-range", "3..13", "--trials", "4096", "--seed", "2014"]
        for L in (1, 7, 12):
            argv += ["--plan", str(PLAN_DIR / f"fig1_L{L}.json")]
        assert run_main(argv + ["--out", str(sweep_csv)]) == (0, "", "")
        assert script_csv.read_bytes() == sweep_csv.read_bytes()

    def test_build_point_never_changes_a_byte(self):
        # Which path a request takes never changes its hits, so the sweep's
        # bytes do not depend on when, or whether, each plan builds its table.
        argv = ["sweep", "--m-range", "3..8", "--trials", "40000", "--seed", "5"]
        for L in (1, 7, 12):
            argv += ["--plan", str(PLAN_DIR / f"fig1_L{L}.json")]
        runs = [
            (0, {1: 1, 7: 1, 12: 1}),  # every table at its plan's first request
            (None, {1: 2, 7: 5}),  # the defaults: L = 12 asks 240,000 < 262,480
            (10**12, {}),  # no table at all
        ]
        outputs = []
        for rows, built_at in runs:
            seen = {}

            def recording(plan, *args):
                estimate = prob_montecarlo(plan, *args)
                requests, built = seen.get(plan.n_segments, (0, None))
                if built is None and "prime_signatures" in vars(plan):
                    built = requests + 1
                seen[plan.n_segments] = requests + 1, built
                return estimate

            price = contextlib.nullcontext() if rows is None else signature_price(rows)
            with price, pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "prob_montecarlo", recording)
                code, out, err = run_main(argv)
            assert (code, err) == (0, "")
            assert {L: b for L, (_, b) in seen.items() if b is not None} == built_at
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]


def exact_numerator_plus_one(plan, m):
    """prob_exact's estimate with its numerator one too large."""
    e = prob_exact(plan, m)
    return dataclasses.replace(e, exact_numerator=e.exact_numerator + 1)


class TestVerifyCommand:
    def test_injected_fault_fails(self, monkeypatch):
        monkeypatch.setattr(_selfcheck, "_check_gcd", lambda: (False, "forced"))
        code, out, _ = run_main(["verify", "--quick"])
        assert code == 1
        assert "FAIL gcd_known_values: forced" in out

    def test_quick_builds_no_fig1_plan(self, monkeypatch):
        def no_plan(*args):
            raise AssertionError("verify --quick built a Fig. 1 plan")

        for name in ("all_plans", "make_plan"):
            monkeypatch.setattr(_selfcheck, name, no_plan)
        assert run_main(["verify", "--quick"]) == (0, VERIFY_QUICK, "")

    def test_wrong_monte_carlo_estimate_fails(self, monkeypatch):
        def far_off(plan, m, trials, seed):
            return ProbabilityEstimate(value=0.5, method="monte_carlo", trials=trials)

        monkeypatch.setattr(_selfcheck, "prob_montecarlo", far_off)
        code, out, _ = run_main(["verify"])
        assert code == 1
        assert "FAIL montecarlo_vs_exact: L = 1, M = 3: exact 0.831905 outside" in out

    def test_wrong_mertens_value_fails(self, monkeypatch):
        def off_by_one(ends):
            b, m = mertens_at_quotients(ends)
            return b, m + (b == 10**4)

        monkeypatch.setattr(_selfcheck, "mertens_at_quotients", off_by_one)
        code, out, _ = run_main(["verify"])
        assert code == 1
        assert "FAIL mertens_known_values: M(10^4) = -22, expected -23" in out

    # A wrong gcd_all, prob_exact or verify_ambiguity fails its quick check,
    # which names the first case that caught it.
    @pytest.mark.parametrize(
        "name, fake, line",
        [
            ("gcd_all", min, "FAIL gcd_known_values: gcd[54000, 54001] != 1"),
            (
                "prob_exact",
                exact_numerator_plus_one,
                "FAIL exact_vs_enumeration: plan (Segment(start=1, count=4),), m=2",
            ),
            (
                "verify_ambiguity",
                lambda plan, selection, distance_m: False,
                "FAIL phase_periodicity: selection (60009, 54068, 60036, 54095)",
            ),
        ],
        ids=["gcd_all", "prob_exact", "verify_ambiguity"],
    )
    def test_wrong_quick_check_function_fails(self, monkeypatch, name, fake, line):
        monkeypatch.setattr(_selfcheck, name, fake)
        code, out, _ = run_main(["verify", "--quick"])
        assert code == 1
        assert line in out.splitlines()

    @pytest.mark.parametrize("j", [1, 30, 1999])
    def test_flipped_sieve_sign_fails(self, monkeypatch, j):
        values = sieve_mobius(2000).values.copy()
        values[j] = -values[j]
        monkeypatch.setattr(
            _selfcheck, "sieve_mobius", lambda limit: MobiusTable(values)
        )
        code, out, _ = run_main(["verify", "--quick"])
        assert code == 1
        assert f"FAIL mobius_sieve: divisor sum wrong at n={j}" in out


class TestBundledPlans:
    def test_files_exist_and_match_construction(self):
        for L in (1, 7, 12):
            path = PLAN_DIR / f"fig1_L{L}.json"
            assert path.exists(), f"missing bundled plan {path}"
            raw = json.loads(path.read_text())
            plan = _selfcheck.make_plan(L)
            assert raw == {
                "f_min_hz": plan.f_min_hz,
                "segments": [
                    {"start_index": s.start, "count": s.count} for s in plan.segments
                ],
            }

    def test_band_and_size_invariants(self, fig1_plans):
        for L, plan in zip((1, 7, 12), fig1_plans):
            assert plan.n_segments == L
            assert plan.n_frequencies == 2**15
            assert plan.f_min_hz == 1000.0
            assert plan.segments[0].start >= 54_000
            assert plan.last_index <= 862_000

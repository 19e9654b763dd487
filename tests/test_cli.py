import json
import os
import resource
import subprocess
import sys

import pytest

from udrange import MobiusTable, _selfcheck, fig1, sieve_mobius
from udrange.cli import main
from udrange.estimator import EXACT_MAX_INDEX
from udrange.numtheory import mertens_at_quotients

from .conftest import PLAN_DIR, REPO_ROOT, make_plan
from .oracles import coprime_fraction_brute

L1_PLAN = str(PLAN_DIR / "fig1_L1.json")


@pytest.fixture(scope="module")
def plan_files():
    return {p.name: str(p) for p in PLAN_DIR.glob("fig1_L*.json")}


@pytest.fixture
def tiny_plan_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {"f_min_hz": 1000, "segments": [{"start_index": 1, "count": 4}]}
        )
    )
    return str(path)


@pytest.fixture
def bad_plan_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "f_min_hz": 1000,
                "segments": [
                    {"start_index": 10, "count": 5},
                    {"start_index": 12, "count": 3},
                ],
            }
        )
    )
    return str(path)


def plan_ending_at(tmp_path, last_index):
    """Path of a plan file holding the two indices last_index - 1 and last_index."""
    path = tmp_path / f"ends_at_{last_index}.json"
    segment = {"start_index": last_index - 1, "count": 2}
    path.write_text(json.dumps({"f_min_hz": 1, "segments": [segment]}))
    return str(path)


def run_cli(args, **kwargs):
    cmd = [sys.executable, "-m", "udrange", *args]
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


class TestUdCommand:
    def test_explicit_indices(self, plan_files, capsys):
        code = main(
            ["ud", "--plan", plan_files["fig1_L1.json"], "--indices", "54000,54001"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "indices = 54000,54001\n"
            "gcd = 1\n"
            "ud_m = 299792.458\n"
            "ud_km = 299.792458\n"
            "is_max = true\n"
        )

    def test_random_selection_deterministic(self, plan_files):
        args = ["ud", "--plan", plan_files["fig1_L1.json"], "--select", "5", "--seed", "7"]
        a, b = run_cli(args), run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_random_selection_is_pinned(self, plan_files, capsys):
        plan = plan_files["fig1_L12.json"]
        assert main(["ud", "--plan", plan, "--select", "7", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            "indices = 662009,121408,189083,190963,189146,661674,728503\n"
            "gcd = 1\n"
            "ud_m = 299792.458\n"
            "ud_km = 299.792458\n"
            "is_max = true\n"
        )

    def test_malformed_plan_exit_code(self, bad_plan_file, capsys):
        assert main(["ud", "--plan", bad_plan_file, "--indices", "10"]) == 2
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"f_min_hz": 1e400, "segments": [{"start_index": 5, "count": 4}]}',
            '{"f_min_hz": 1000, "segments": [{"start_index": 5.9, "count": 4}]}',
            '{"f_min_hz": 1000, "segments": [{"start_index": 5, "count": true}]}',
            '{"f_min_hz": 1000, "segments": [{"start_index": "5", "count": 4}]}',
        ],
    )
    def test_coerced_plan_field_exit_code(self, text, tmp_path, capsys):
        # Each of these plans used to load, with a truncated, cast or infinite field.
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["ud", "--plan", str(path), "--indices", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_object_plan_exit_code(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2]")
        assert main(["ud", "--plan", str(path), "--indices", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: plan must be a JSON object, got list\n"

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
    def test_unparsable_plan_file_exit_code(self, data, tmp_path, capsys):
        # Each of these used to end in a traceback and exit 1.
        path = tmp_path / "plan.json"
        path.write_bytes(data)
        assert main(["ud", "--plan", str(path), "--indices", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read plan file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["ud", "--indices", "5,6"], ["prob", "-m", "3"]])
    def test_f_min_too_small_exit_code(self, argv, tmp_path, capsys):
        # c / 1e-310 overflows: the maximal UD used to print as inf with exit 0.
        path = tmp_path / "plan.json"
        path.write_text(
            '{"f_min_hz": 1e-310, "segments": [{"start_index": 5, "count": 4}]}'
        )
        assert main([argv[0], "--plan", str(path), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: f_min_hz is too small")

    def test_huge_f_min_and_gcd_give_a_finite_ud(self, tmp_path, capsys):
        # k * f_min overflows a double to inf: the UD used to print as 0.0.
        path = tmp_path / "plan.json"
        path.write_text(
            '{"f_min_hz": 1e300, "segments": '
            '[{"start_index": 4611686018427387904, "count": 2}]}'
        )
        argv = ["ud", "--plan", str(path), "--indices", "4611686018427387904"]
        assert main(argv) == 0
        assert "ud_m = 6.5007126851674e-311\n" in capsys.readouterr().out

    def test_outside_plan_exit_code(self, plan_files):
        code = main(
            ["ud", "--plan", plan_files["fig1_L1.json"], "--indices", "1,2"]
        )
        assert code == 3


class TestProbCommand:
    def test_exact_and_asymptotic_agree(self, plan_files, capsys):
        code = main(
            [
                "prob",
                "--plan",
                plan_files["fig1_L7.json"],
                "-m",
                "3",
                "--methods",
                "exact,asymptotic",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = [
            float(line.split("=")[1].split()[0])
            for line in out.splitlines()
            if line.startswith("P_")
        ]
        assert len(values) == 2
        assert abs(values[0] - values[1]) < 0.01

    def test_m2_regime_warning(self, capsys):
        code = main(["prob", "-m", "2", "--methods", "asymptotic"])
        captured = capsys.readouterr()
        assert code == 0
        assert "0.6079271019" in captured.out
        assert "regime" in captured.err

    def test_tiny_exact_fraction(self, tiny_plan_file, capsys):
        code = main(
            ["prob", "--plan", tiny_plan_file, "-m", "2", "--methods", "exact"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "11/16" in out

    def test_json_round_trips(self, tiny_plan_file, tmp_path):
        out_path = tmp_path / "prob.json"
        code = main(
            [
                "prob",
                "--plan",
                tiny_plan_file,
                "-m",
                "2",
                "--methods",
                "exact,asymptotic",
                "--format",
                "json",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        text = out_path.read_text()
        payload = json.loads(text)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        exact = next(e for e in payload["estimates"] if e["method"] == "exact")
        assert exact["exact_numerator"] == "11"
        assert exact["exact_denominator"] == "16"

    def test_sieve_limit_exit_code(self, tmp_path, capsys):
        argv = ["prob", "-m", "3", "--methods", "exact", "--plan"]
        assert main([*argv, plan_ending_at(tmp_path, EXACT_MAX_INDEX)]) == 0
        assert capsys.readouterr() == ("m = 3\nP_exact = 0.7500000000  (6/8)\n", "")
        over_cap = plan_ending_at(tmp_path, EXACT_MAX_INDEX + 1)
        for plan, m, line in [
            (over_cap, "3", f"largest plan index {EXACT_MAX_INDEX + 1} exceeds "
                            f"the exact method's cap {EXACT_MAX_INDEX}"),
            (L1_PLAN, "876", "exact method needs M * bit_length(N) <= 14000, "
                             "got 876 * 16 = 14016"),
        ]:
            assert main(["prob", "--plan", plan, "-m", m, "--methods", "exact"]) == 4
            assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.parametrize("value", ["abc", "1e7", "0", "-5", "100000000"])
    def test_bad_sieve_limit_setting(self, value, tmp_path, monkeypatch, capsys):
        # The exact method's cap is a constant: UD_SIEVE_LIMIT changes nothing.
        for plan in (L1_PLAN, plan_ending_at(tmp_path, EXACT_MAX_INDEX + 1)):
            argv = ["prob", "--plan", plan, "-m", "3"]
            monkeypatch.delenv("UD_SIEVE_LIMIT", raising=False)
            unset = main(argv), capsys.readouterr()
            monkeypatch.setenv("UD_SIEVE_LIMIT", value)
            assert (main(argv), capsys.readouterr()) == unset

    @pytest.mark.parametrize(
        "argv, expected, line",
        [
            (["--plan", L1_PLAN, "-m", str(10**20), "--methods", "monte_carlo",
              "--trials", "1"],
             0, "P_monte_carlo = 1.0000000000  (trials=1, stderr=0.00e+00)"),
            (["-m", str(10**400), "--methods", "asymptotic"],
             0, "P_asymptotic = 1.0000000000"),
            (["--plan", L1_PLAN, "-m", "1000", "--methods", "exact"], 4, None),
        ],
    )
    def test_huge_m_exit_codes(self, argv, expected, line, capsys):
        assert main(["prob", *argv]) == expected
        out, err = capsys.readouterr()
        if expected == 0:
            assert out.splitlines()[1] == line and err == ""
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def sweep_rows(argv, capsys):
    """The rows of a ``udrange sweep --format json`` run."""
    assert main(["sweep", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestSweepCommand:
    def test_row_shape(self, plan_files, capsys):
        argv = ["--m-range", "3..13", "--trials", "2000", "--seed", "0"]
        for L in (1, 7, 12):
            argv += ["--plan", plan_files[f"fig1_L{L}.json"]]
        rows = sweep_rows(argv, capsys)
        assert len(rows) == 33
        assert sorted({r["L"] for r in rows}) == [1, 7, 12]
        for r in rows:
            assert abs(r["P_mc"] - r["P_asymptotic"]) < max(0.02, 6 * r["stderr"])

    def test_empty_m_range(self, tiny_plan_file, capsys):
        for m_range in ("3..2", "5..3"):
            for fmt in ("csv", "json"):
                argv = ["sweep", "--plan", tiny_plan_file, "--m-range", m_range]
                assert exit_code(argv + ["--format", fmt]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err.count("error") == 1
                message = f"m-range must not be empty: '{m_range}'"
                assert err.endswith(f"error: argument --m-range: {message}\n")

    def test_exact_column_matches_enumeration(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        segments = [{"start_index": 1, "count": 100}]
        path.write_text(json.dumps({"f_min_hz": 1000, "segments": segments}))
        argv = ["--plan", str(path), "--m-range", "3..3", "--trials", "10000"]
        rows = sweep_rows(argv + ["--seed", "1"], capsys)
        assert len(rows) == 1
        expected = coprime_fraction_brute(make_plan([(1, 100)]), 3)
        assert rows[0]["P_exact"] == pytest.approx(float(expected), abs=1e-15)

    def test_single_row(self, tiny_plan_file, capsys):
        code = main(
            [
                "sweep",
                "--plan",
                tiny_plan_file,
                "--m-range",
                "3..3",
                "--trials",
                "1000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L,N,M,P_exact,P_asymptotic,P_mc,stderr,trials,seed"
        assert len(lines) == 2

    def test_byte_identical_across_runs_and_workers(self, plan_files):
        base = [
            "sweep",
            "--plan",
            plan_files["fig1_L1.json"],
            "--m-range",
            "3..4",
            "--trials",
            "140000",
            "--seed",
            "11",
        ]
        first = run_cli(base + ["--workers", "1"])
        second = run_cli(base + ["--workers", "1"])
        parallel = run_cli(base + ["--workers", "8"])
        assert first.returncode == 0
        assert first.stdout == second.stdout == parallel.stdout

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
        assert main(argv + ["--out", str(sweep_csv)]) == 0
        assert script_csv.read_bytes() == sweep_csv.read_bytes()


QUICK_CHECKS = [
    "mobius_sieve",
    "zeta_closed_form",
    "gcd_known_values",
    "exact_vs_enumeration",
    "phase_periodicity",
]


def verify_lines(out):
    return [line.split(":")[0] for line in out.splitlines()]


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert verify_lines(out) == [f"PASS {name}" for name in QUICK_CHECKS]

    def test_full_passes(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        full = QUICK_CHECKS + [
            "mertens_known_values",
            "l_independence",
            "asymptotic_gap",
        ]
        assert verify_lines(out) == [f"PASS {name}" for name in full]

    def test_injected_fault_fails(self, capsys, monkeypatch):
        failing = _selfcheck.CheckResult("gcd_known_values", False, "forced")
        monkeypatch.setattr(_selfcheck, "_check_gcd", lambda: failing)
        code = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL gcd_known_values: forced" in out

    def test_wrong_mertens_value_fails(self, capsys, monkeypatch):
        def off_by_one(ends):
            b, m = mertens_at_quotients(ends)
            return b, m + (b == 10**4)

        monkeypatch.setattr(_selfcheck, "mertens_at_quotients", off_by_one)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL mertens_known_values: M(10^4) = -22, expected -23" in out

    @pytest.mark.parametrize("j", [1, 30, 1999])
    def test_flipped_sieve_sign_fails(self, capsys, monkeypatch, j):
        values = sieve_mobius(2000).values.copy()
        values[j] = -values[j]
        monkeypatch.setattr(
            _selfcheck, "sieve_mobius", lambda limit: MobiusTable(limit, values)
        )
        code = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert f"FAIL mobius_sieve: divisor sum wrong at n={j}" in out


class TestBundledPlans:
    def test_files_exist_and_match_construction(self):
        for L in (1, 7, 12):
            path = PLAN_DIR / f"fig1_L{L}.json"
            assert path.exists(), f"missing bundled plan {path}"
            raw = json.loads(path.read_text())
            plan = fig1.make_plan(L)
            assert raw == {
                "f_min_hz": plan.f_min_hz,
                "segments": [
                    {"start_index": s.start, "count": s.count} for s in plan.segments
                ],
            }

    def test_band_and_size_invariants(self):
        for L, plan in zip((1, 7, 12), fig1.all_plans()):
            assert plan.n_segments == L
            assert plan.n_frequencies == 2**15
            assert plan.f_min_hz == 1000.0
            assert plan.segments[0].start >= 54_000
            assert plan.last_index <= 862_000


def exit_code(argv):
    """cli.main's exit status, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Bad user input: each must exit 2 or 3 with a message, never a traceback.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["prob", "-m", "0"], 2),
        (["prob", "-m", "1", "--methods", "asymptotic"], 2),
        (["prob", "-m", "3", "--methods", "exact"], 2),
        (["prob", "-m", "3", "--methods", "monte_carlo", "--trials", "10"], 2),
        (["prob", "--plan", L1_PLAN, "-m", "3", "--methods", "monte_carlo",
          "--trials", "10", "--seed", "-1"], 2),
        (["ud", "--plan", L1_PLAN, "--indices", "54000,x"], 3),
        (["ud", "--plan", L1_PLAN, "--select", "-2"], 2),
        (["ud", "--plan", L1_PLAN, "--select", "2", "--seed", "-1"], 2),
        (["sweep", "--plan", L1_PLAN, "--m-range", "3..3", "--trials", "0"], 2),
        (["sweep", "--plan", L1_PLAN, "--m-range", "3..3", "--seed", "-1"], 2),
        (["sweep", "--plan", L1_PLAN, "--m-range", "0..3"], 2),
        (["sweep", "--plan", L1_PLAN, "--m-range", "1..3"], 2),
        (["prob", "--plan", L1_PLAN, "-m", "3", "--out", "/nonexistent/x"], 2),
        (["ud", "--plan", L1_PLAN, "--indices", "54000,54001", "--select", "3"], 2),
        (["ud", "--plan", L1_PLAN], 2),
        (["prob", "--plan", L1_PLAN, "-m", "3", "--methods", "monte_carlo",
          "--trials", "10", "--workers", "0"], 2),
        (["prob", "--plan", L1_PLAN, "-m", "3", "--methods", "monte_carlo",
          "--trials", "10", "--workers", "-5"], 2),
        (["sweep", "--plan", L1_PLAN, "--m-range", "3..3", "--workers", "0"], 2),
        (["sweep", "--plan", L1_PLAN, "--m-range", "3..3", "--workers", "-5"], 2),
        # Above the cap of 1,000,000: refused before any index is drawn.
        (["ud", "--plan", L1_PLAN, "--select", "1000001"], 2),
    ],
)
def test_bad_arguments_exit_without_traceback(argv, expected, capsys):
    # An exception escaping main is what the user would see as a traceback.
    assert exit_code(argv) == expected
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


# Run with numpy blocked: any numpy import raises ImportError. Each argv's
# (exit code, stdout, stderr) is printed as JSON, with "ImportError" as the
# code of a call that needed numpy.
NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import udrange
from udrange.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except ImportError:
            code = "ImportError"
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_array_free_commands_run_without_numpy(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    free = [
        ["ud", "--plan", L1_PLAN, "--indices", "54000,54001"],
        ["prob", "-m", "10", "--methods", "asymptotic"],
        ["prob", "-m", "10", "--methods", "asymptotic", "--format", "json"],
        ["prob", "--plan", missing, "-m", "3"],
        ["ud", "--plan", L1_PLAN, "--indices", "54000,1"],
        ["ud", "--plan", L1_PLAN, "--indices", "54000,x"],
        ["prob", "-m", "0"],
        ["prob", "--methods", "exact", "-m", "3"],
    ]
    # Control: the exact method needs arrays, so the block must stop it.
    control = ["prob", "--plan", L1_PLAN, "-m", "3", "--methods", "exact"]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(free + [control])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *blocked, control_result = json.loads(proc.stdout)
    assert control_result[0] == "ImportError"
    for argv, result in zip(free, blocked):
        code = exit_code(argv)
        out, err = capsys.readouterr()
        assert result == [code, out, err], argv
    assert [r[0] for r in blocked] == [0, 0, 0, 2, 3, 3, 2, 2]


def comb_plan(n_segments):
    """n_segments segments of 50 indices, one every 100 grid steps from 10."""
    segments = [{"start_index": 10 + 100 * i, "count": 50} for i in range(n_segments)]
    return {"f_min_hz": 1000, "segments": segments}


# Plans the pinned runs below name in braces, beside the bundled L1 and L12.
GENERATED_PLANS = {
    # N = 2^20 indices that end one below the exact method's cap of 10^7.
    "k1e7": {"f_min_hz": 1, "segments": [{"start_index": 8951424, "count": 1048576}]},
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
}


@pytest.fixture(scope="module")
def pinned_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned_plans")
    paths = {f"L{L}": str(PLAN_DIR / f"fig1_L{L}.json") for L in (1, 12)}
    for name, plan in GENERATED_PLANS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(plan))
        paths[name] = str(path)
    return paths


EXACT_AND_ASYMPTOTIC_JSON = """\
{
  "estimates": [
    {
      "exact_denominator": "50216813883093446110686315385661331328818843555712276103168",
      "exact_numerator": "50210652353334486238729142782947257030387323322660624343570",
      "method": "exact",
      "std_error": 0.0,
      "trials": 0,
      "value": 0.99987730145976
    },
    {
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

SWEEP_CSV = """\
L,N,M,P_exact,P_asymptotic,P_mc,stderr,trials,seed
1,32768,3,0.8319052426,0.8319073726,0.8454589844,0.0056479153,4096,2014
1,32768,4,0.9239370262,0.9239384029,0.9169921875,0.0043108442,4096,2014
12,32768,3,0.8319062429,0.8319073726,0.8286132812,0.0058882271,4096,2014
12,32768,4,0.9239373453,0.9239384029,0.9287109375,0.0040204231,4096,2014
"""


# The CLI's output contract: argv, exit code and stdout, byte for byte.
@pytest.mark.parametrize(
    "command, expected, stdout",
    [
        pytest.param(
            "prob --plan {L12} -m 3 --methods monte_carlo --trials 200000 --seed 7",
            0,
            "m = 3\nP_monte_carlo = 0.8313900000  (trials=200000, stderr=8.37e-04)\n",
            id="monte_carlo_stream",
        ),
        *[
            pytest.param(
                "prob --plan {l20000} -m 13 --methods monte_carlo --trials 262144 "
                f"--seed 11 --workers {workers}",
                0,
                "m = 13\nP_monte_carlo = 0.9998779297  (trials=262144, stderr=2.16e-05)\n",
                id=f"monte_carlo_20000_segments_workers_{workers}",
            )
            for workers in (1, 2)
        ],
        pytest.param(
            "prob --plan {l200} -m 5 --methods exact",
            0,
            "m = 5\nP_exact = 0.9643607697  "
            "(1222472508593232857725348689570/1267650600228229401496703205376)\n",
            id="exact_200_segments",
        ),
        pytest.param(
            "prob --plan {l2000} -m 5 --methods exact",
            0,
            "m = 5\nP_exact = 0.9643875157  "
            "(9643875157220153295339840/10000000000000000000000000)\n",
            id="exact_2000_segments",
        ),
        pytest.param(
            "prob --plan {L12} -m 13 --format json --methods exact,asymptotic",
            0,
            EXACT_AND_ASYMPTOTIC_JSON,
            id="exact_and_asymptotic_json",
        ),
        pytest.param(
            "prob -m 10 --methods asymptotic",
            0,
            "m = 10\nP_asymptotic = 0.9990064131\n",
            id="asymptotic_m10",
        ),
        pytest.param(
            "ud --plan {L1} --indices 54000,54009",
            0,
            "indices = 54000,54009\n"
            "gcd = 9\n"
            "ud_m = 33310.27311111111\n"
            "ud_km = 33.31027311111111\n"
            "is_max = false\n",
            id="ud_gcd_9",
        ),
        pytest.param(
            "sweep --plan {L1} --plan {L12} --m-range 3..4 --trials 4096 --seed 2014",
            0,
            SWEEP_CSV,
            id="sweep_csv",
        ),
    ],
)
def test_pinned_output(command, expected, stdout, pinned_paths, capsys):
    assert main(command.format(**pinned_paths).split()) == expected
    assert capsys.readouterr() == (stdout, "")


# The same contract in a fresh process whose address space is capped at kib
# KiB, as ``ulimit -v`` would cap it. stdout None leaves stdout unchecked: at
# M = 4096 every draw is coprime, and the Wald stderr of 0 it prints there is
# not pinned as correct.
@pytest.mark.parametrize(
    "command, kib, expected, stdout",
    [
        pytest.param(
            "prob --plan {k1e7} -m 5 --methods exact",
            200_000,
            0,
            "m = 5\nP_exact = 0.9643873029  "
            "(1222506143389881884612049583800/1267650600228229401496703205376)\n",
            id="exact_at_index_cap",
        ),
        pytest.param(
            "prob --plan {L12} -m 4096 --methods monte_carlo --trials 131072 "
            "--workers 2",
            1_500_000,
            0,
            None,
            id="monte_carlo_large_m",
        ),
        pytest.param(
            "ud --plan {L1} --select 400000000",
            1_500_000,
            2,
            "",
            id="select_above_cap",
        ),
    ],
)
def test_memory_limited_run(command, kib, expected, stdout, pinned_paths):
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (kib * 1024, kib * 1024))

    proc = run_cli(
        command.format(**pinned_paths).split(),
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == expected, proc.stderr
    if stdout is not None:
        assert proc.stdout == stdout

"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_totals  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def _remove_empty_work_dir():
    yield
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_fig1_plans_match_bundled_files():
    for name, plan in workloads.fig1_plans().items():
        assert json.loads((ROOT / "plans" / f"fig1_{name}.json").read_text()) == plan


def test_oracle_agrees_with_golden_on_bundled_plans():
    golden = oracle.load_golden()
    ref = oracle.Reference()
    for plan in workloads.fig1_plans().values():
        for m, value in ref.exact(plan, (3, 13, 256)).items():
            entry = golden[f"{oracle.plan_key(plan)}:{m}"]
            assert entry == {"digest": oracle.digest(value), "value": float(value)}
            if m <= 13:
                assert abs(float(value) - 1 / oracle.zeta(m)) <= 0.01


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "11", "--seconds", "0",
                      "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert report["size"]["requests"] == len(workloads.build(workload, 11, smoke=True)["requests"])
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "mc_wide_m":
            assert metrics["numtheory.sieve_mobius.calls"] == 0
            assert metrics["spectrum.count_multiples_upto.calls"] == 0
        if workload == "exact_wide":
            assert metrics["spectrum.sample_selection_batch.calls"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_gives_identical_answers(workload):
    work = ROOT / ".perfbench_work" / f"test-trace-{workload}"
    spec = workloads.build(workload, 5, smoke=True,
                           plan_path=lambda n: str((work / f"{n}.json").relative_to(ROOT)))
    try:
        runner = run.Runner(ROOT, work, spec)
        plain = runner.run_pass()
        traced = runner.run_pass(traced=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert not plain.raw["spans"] and traced.raw["spans"]
    # Exact rationals, Monte Carlo floats and CLI stdout bytes all match.
    assert json.dumps(traced.answers) == json.dumps(plain.answers)


def test_bare_directory_exits_nonzero():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run_bench("--workload", "exact_wide", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_flags_wrong_answers():
    refs = workloads.References()
    spec = workloads.build("exact_wide", 0, smoke=True)
    req = spec["requests"][0]
    exact = refs._oracle.exact(spec["plans"][req["plan"]], [req["m"]])[req["m"]]
    good = {"num": str(exact.numerator), "den": str(exact.denominator),
            "asym": 1 / oracle.zeta(req["m"])}
    assert workloads.check(spec, req, good, refs)[0] == workloads.OK
    off = exact + Fraction(1, exact.denominator)
    bad = dict(good, num=str(off.numerator), den=str(off.denominator))
    assert workloads.check(spec, req, bad, refs)[0] == workloads.WRONG

    mc_spec = workloads.build("mc_wide_m", 0)
    mc_req = next(r for r in mc_spec["requests"] if r["m"] == 3)
    p = refs.get(mc_spec["plans"][mc_req["plan"]], 3)["value"]
    near = {"value": p + 1e-4, "se": 0.0, "trials": mc_req["trials"]}
    far = {"value": p + 0.01, "se": 0.0, "trials": mc_req["trials"]}
    assert workloads.check(mc_spec, mc_req, near, refs)[0] == workloads.OK
    assert workloads.check(mc_spec, mc_req, far, refs)[0] == workloads.WRONG

    cli_spec = workloads.build("cli_cold", 0)
    by_check = {r["check"]: r for r in cli_spec["requests"]}
    exit_req = next(r for r in cli_spec["requests"] if r.get("expect") == 3)
    assert workloads.check(cli_spec, exit_req, {"rc": 3, "stdout": "", "traceback": False},
                           refs)[0] == workloads.OK
    assert workloads.check(cli_spec, exit_req, {"rc": 1, "stdout": "", "traceback": True},
                           refs)[0] == workloads.FAILED
    assert workloads.check(cli_spec, by_check["probe"], {"rc": 1, "stdout": "", "traceback": True},
                           refs)[0] == workloads.BREACH
    ud = by_check["ud_indices"]
    wrong_gcd = "indices = {}\ngcd = 7\nud_m = 1.0\nis_max = false\n".format(
        ",".join(map(str, ud["indices"])))
    assert workloads.check(cli_spec, ud, {"rc": 0, "stdout": wrong_gcd, "traceback": False},
                           refs)[0] == workloads.WRONG


class _FakePass:
    def __init__(self, latencies):
        self.latencies = latencies


def test_tail_keeps_its_percentile_as_passes_are_added():
    # 20 requests per pass, three costly types among them.
    passes = [_FakePass([300.0 + i, 200.0 + i, 100.0 + i] + [1.0] * 17) for i in range(14)]
    # In 7 passes, 140 samples: the 11th-largest is the middle of the second type.
    value, pct, n, beyond = run._tail(passes[:7], 7)
    assert (value, n, beyond) == (203.0, 140, 10) and pct == pytest.approx(100 * 130 / 140)
    # In 14 passes the same percentile has 20 beyond it, still mid-type.
    value, pct, n, beyond = run._tail(passes, 7)
    assert (value, n, beyond) == (207.0, 280, 20) and pct == pytest.approx(100 * 130 / 140)


def test_self_time_subtracts_children():
    spans = [["outer", 0.0, 10.0, None, 0, {}],
             ["inner", 1.0, 4.0, 0, 0, {"j": 5}],
             ["inner", 5.0, 6.0, 0, 0, {"j": 7}]]
    totals = layer_totals(spans)
    assert totals["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "j": 12}

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path
from typing import TYPE_CHECKING
from unittest import mock

import pytest
from hypothesis import strategies as st

from udrange.cli import main
from udrange.spectrum import FrequencyPlan, load_plan, validate_plan

if TYPE_CHECKING:  # numpy stays unloaded, so a child that blocks it can import this
    import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
PLAN_DIR = REPO_ROOT / "plans"


def run_main(argv: list[str], columns: int = 80) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process ``udrange`` run.

    An argparse ``SystemExit`` counts as the exit code; any other exception
    escapes. COLUMNS is fixed, at 80 unless ``columns`` says otherwise, since
    argparse wraps its usage lines to the terminal width.
    """
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, COLUMNS=str(columns)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def load_fig1_plan(n_segments: int) -> FrequencyPlan:
    """A fresh load of the bundled Fig. 1 plan with n_segments segments."""
    return load_plan(PLAN_DIR / f"fig1_L{n_segments}.json")


@pytest.fixture(scope="session")
def fig1_plans() -> tuple[FrequencyPlan, ...]:
    """The bundled L = 1, 7, 12 plans, as users run them. The session shares
    them, so their Monte Carlo requests add up, and a plan builds its prime
    signatures in whichever test takes its sum past the price."""
    return tuple(load_fig1_plan(L) for L in (1, 7, 12))


@pytest.fixture(scope="session")
def fig1_plan_l1(fig1_plans) -> FrequencyPlan:
    return fig1_plans[0]


def make_plan(segments, f_min_hz=1000.0) -> FrequencyPlan:
    return validate_plan(
        {
            "f_min_hz": f_min_hz,
            "segments": [{"start_index": a, "count": n} for a, n in segments],
        }
    )


@st.composite
def small_plans(draw, max_segments=4, max_count=25, total_cap=100):
    """Random valid plans with small index sets, for brute-force comparison."""
    n_segments = draw(st.integers(1, max_segments))
    segments = []
    pos = draw(st.integers(1, 10))
    total = 0
    for _ in range(n_segments):
        count = draw(st.integers(1, max_count))
        if total + count > total_cap:
            count = max(1, total_cap - total)
        segments.append((pos, count))
        total += count
        pos += count + draw(st.integers(1, 12))
    return make_plan(segments)


def random_tiny_plan(rng: np.random.Generator, max_total=60, max_segments=4):
    """Seeded random plan with N <= max_total, for the acceptance oracle runs."""
    n_segments = int(rng.integers(1, max_segments + 1))
    segments = []
    pos = int(rng.integers(1, 30))
    budget = int(rng.integers(n_segments, max_total + 1))
    counts = rng.multinomial(budget - n_segments, [1 / n_segments] * n_segments)
    for c in counts:
        count = int(c) + 1
        segments.append((pos, count))
        pos += count + int(rng.integers(1, 20))
    return make_plan(segments)

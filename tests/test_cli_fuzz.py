"""Fuzz cli.main with drawn argv and plan JSON: only documented exits, no traceback."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from udrange.cli import MAX_SELECT

from .conftest import run_main

INT64_MAX = 2**63 - 1
EXIT_CODES = {0, 1, 2, 3, 4}

# A plan index field: small valid values, values near and past the int64
# range, and values of the wrong type.
index_fields = st.one_of(
    st.integers(-3, 3000),
    st.integers(INT64_MAX - 3000, INT64_MAX + 3000),
    st.integers(2**63, 10**25),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
f_min_fields = st.one_of(
    st.integers(1, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(10**300, 10**400),
    st.booleans(),
    st.just("1000"),
)


def segment_lists(first_start, gap, count):
    """1-3 ascending, non-overlapping segments as plan JSON fields."""

    def build(first, runs):
        segments, start = [], first
        for g, n in runs:
            segments.append({"start_index": start, "count": n})
            start += n + g
        return segments

    runs = st.lists(st.tuples(gap, count), min_size=1, max_size=3)
    return st.builds(build, first_start, runs)


valid_segments = segment_lists(
    st.integers(1, 3000), st.integers(0, 500), st.integers(1, 300)
)
# Plans that end near, at, or past the int64 range, with a small count.
high_segments = segment_lists(
    st.integers(INT64_MAX - 4000, INT64_MAX + 10**6),
    st.integers(0, 1000),
    st.integers(1, 3000),
)
odd_segments = st.one_of(
    st.lists(
        st.fixed_dictionaries({"start_index": index_fields, "count": index_fields}),
        max_size=3,
    ),
    st.lists(
        st.one_of(
            st.none(), st.integers(), st.dictionaries(st.text(max_size=3), st.integers())
        ),
        max_size=2,
    ),
    st.integers(),
    st.none(),
)


def plan_json(f_min, segments):
    return st.builds(
        lambda f, s: json.dumps({"f_min_hz": f, "segments": s}), f_min, segments
    )


plan_texts = st.one_of(
    plan_json(st.integers(1, 10**6), valid_segments),
    plan_json(st.integers(1, 10**6), high_segments),
    plan_json(f_min_fields, st.one_of(valid_segments, odd_segments)),
    st.one_of(
        st.builds(
            json.dumps, st.one_of(st.integers(), st.lists(st.integers(), max_size=2))
        ),
        st.sampled_from(["", "{", "not json"]),
    ),
)
index_lists = st.one_of(
    st.lists(
        st.one_of(st.integers(-5, 4000), st.integers(INT64_MAX - 5, 2**64)), max_size=4
    ).map(lambda ks: ",".join(map(str, ks))),
    st.text(alphabet="0123456789,x- ", max_size=8),
)


def mostly(valid, invalid):
    """Draw from invalid one time in ten, else from valid."""
    return st.integers(0, 9).flatmap(lambda r: invalid if r == 0 else valid).map(str)


seeds = mostly(st.integers(0, 6), st.integers(-2, -1))
positives = mostly(st.integers(1, 4), st.integers(-5, 0))


@st.composite
def argvs(draw, plan_path, out_choices):
    command = draw(st.sampled_from(["ud", "prob", "sweep", "verify"]))
    if command == "verify":
        return ["verify", "--quick"]
    argv = [command, "--plan", plan_path]
    if command == "ud":
        if draw(st.booleans()):
            argv += ["--indices", draw(index_lists)]
        if draw(st.booleans()):
            too_many = st.integers(MAX_SELECT + 1, 10**12)
            bad = st.one_of(st.integers(-2, 0), too_many)
            argv += ["--select", draw(mostly(st.integers(1, 12), bad))]
        if draw(st.booleans()):
            argv += ["--seed", draw(seeds)]
    else:
        if command == "prob":
            argv += ["-m", draw(mostly(st.integers(2, 8), st.integers(-1, 1)))]
            methods = draw(
                st.lists(st.sampled_from(["exact", "asymptotic", "monte_carlo"]),
                         min_size=1, max_size=3)
            )
            argv += ["--methods", ",".join(methods)]
            if draw(st.booleans()):
                argv += ["--format", "json"]
        else:
            lo = draw(mostly(st.integers(2, 6), st.integers(0, 1)))
            argv += ["--m-range", f"{lo}..{int(lo) + draw(st.integers(-1, 2))}"]
            if draw(st.booleans()):
                argv += ["--plan", plan_path, "--format", "json"]
        argv += ["--trials", draw(mostly(st.integers(1, 1000), st.integers(-1, 0)))]
        argv += ["--seed", draw(seeds), "--workers", draw(positives)]
    out = draw(st.sampled_from(out_choices))
    if out is not None:
        argv += ["--out", out]
    return argv


# A fixed example stream keeps the suite deterministic; about 3 s on 2 cores.
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(data, tmp_path):
    plan_path, out_path = tmp_path / "plan.json", tmp_path / "out.txt"
    plan_path.write_text(data.draw(plan_texts, label="plan"))
    out_path.unlink(missing_ok=True)  # tmp_path is shared by every example
    # --out: stdout, a writable file, a file in a missing directory, a directory.
    out_choices = [
        None,
        str(out_path),
        str(tmp_path / "missing" / "out.txt"),
        str(tmp_path),
    ]
    argv = data.draw(argvs(str(plan_path), out_choices), label="argv")
    code, out, err = run_main(argv)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    # --out is opened only once every check has passed: a refused run leaves
    # no file, and a run that exits 0 writes its output there, not to stdout.
    written = code == 0 and str(out_path) in argv
    assert out_path.exists() == written, (code, err)
    if written:
        assert out == "" and out_path.read_text()

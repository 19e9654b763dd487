import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import udrange
from udrange import ranging, spectrum

# A selection is a plain tuple[int, ...] and phase_shifts returns a
# tuple[float, ...]; no wrapper type for either is exported, and selections
# are drawn with sample_selection_batch alone. enumerate_indices is gone, and
# the sieve stays in udrange.numtheory, unexported.
REMOVED = (
    "Selection", "PhaseVector", "sample_selection", "enumerate_indices",
    "MobiusTable", "sieve_mobius",
)


def test_all_names_resolve():
    for name in udrange.__all__:
        assert getattr(udrange, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in udrange.__all__
        assert not hasattr(udrange, name)


def test_fig1_module_is_gone():
    # verify's own module, _selfcheck, builds the Fig. 1 plans.
    assert importlib.util.find_spec("udrange.fig1") is None


def test_one_speed_of_light():
    assert udrange.SPEED_OF_LIGHT_M_S is ranging.SPEED_OF_LIGHT_M_S
    assert ranging.SPEED_OF_LIGHT_M_S is spectrum.SPEED_OF_LIGHT_M_S


# Modules that `import udrange.cli` must leave unloaded: ud --indices,
# asymptotic prob and every argument or plan error use no arrays and no thread
# pool, and only verify runs the self-checks and builds the Fig. 1 plans.
LAZY_MODULES = ("numpy", "concurrent.futures", "udrange._selfcheck")


def test_import_leaves_numpy_unloaded():
    code = f"import sys, udrange.cli; print([m in sys.modules for m in {LAZY_MODULES}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[False] * len(LAZY_MODULES)}\n"


def source_paths() -> list[Path]:
    """Every .py file under src/, tests/ and scripts/."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "scripts") for p in (root / d).rglob("*.py"))
    assert paths
    return paths


def test_sources_parse_with_python_3_10_grammar():
    """Every source parses with Python 3.10's grammar, the oldest that
    pyproject.toml allows: this rejects 3.11 syntax such as ``except*``.
    It checks grammar only; the test below checks stdlib names."""
    for path in source_paths():
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Stdlib names new in Python 3.11, which 3.10 lacks: a module, names looked up
# in a module (by `from m import x` or `m.x`), and builtins.
MODULES_NEW_IN_3_11 = ("tomllib",)
NAMES_NEW_IN_3_11 = {
    "typing": (
        "Self", "Never", "LiteralString", "assert_never", "reveal_type",
        "Required", "NotRequired",
    ),
    "enum": ("StrEnum",),
    "datetime": ("UTC",),
    "asyncio": ("TaskGroup", "timeout"),
    "contextlib": ("chdir",),
    "hashlib": ("file_digest",),
    "operator": ("call",),
    "math": ("cbrt", "exp2"),
    # 3.10 has these only from 3.10.7, and pyproject.toml allows 3.10.0.
    "sys": ("get_int_max_str_digits", "set_int_max_str_digits"),
}
BUILTINS_NEW_IN_3_11 = ("ExceptionGroup", "BaseExceptionGroup")


def names_used(
    tree: ast.AST,
    names: dict[str, tuple[str, ...]],
    modules: tuple[str, ...] = (),
    builtins: tuple[str, ...] = (),
) -> list[str]:
    """The listed modules, module names and builtins that tree imports or uses."""
    found, bound = [], {}  # bound: local name -> module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
                if alias.name in modules:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module in modules:
                found.append(node.module)
            for alias in node.names:
                if alias.name in names.get(node.module, ()):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
            if node.attr in names.get(module, ()):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in builtins:
            found.append(node.id)
    return found


def names_new_in_3_11(tree: ast.AST) -> list[str]:
    return names_used(tree, NAMES_NEW_IN_3_11, MODULES_NEW_IN_3_11, BUILTINS_NEW_IN_3_11)


def test_sources_use_no_stdlib_names_new_in_3_11():
    for path in source_paths():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert names_new_in_3_11(tree) == [], path


def test_new_stdlib_names_are_caught():
    # The walker finds each kind of use; time.timeout is no asyncio name.
    code = (
        "import math, sys, time, tomllib\nimport typing as t\nfrom enum import StrEnum\n"
        "x: t.Self = math.cbrt(time.timeout)\nsys.set_int_max_str_digits(0)\n"
        "raise ExceptionGroup('', [])\n"
    )
    assert sorted(names_new_in_3_11(ast.parse(code))) == [
        "ExceptionGroup", "enum.StrEnum", "math.cbrt", "sys.set_int_max_str_digits",
        "tomllib", "typing.Self",
    ]


# numpy names new in 2.0, which pyproject.toml's numpy>=1.24 lacks. Array
# methods such as ``x.astype`` are older and not matched: only ``np.astype``.
NAMES_NEW_IN_NUMPY_2 = {
    "numpy": (
        "bitwise_count", "bitwise_left_shift", "bitwise_right_shift",
        "bitwise_invert", "unique_all", "unique_counts", "unique_inverse",
        "unique_values", "cumulative_sum", "cumulative_prod", "concat", "astype",
        "isdtype", "permute_dims", "matrix_transpose", "vecdot", "pow",
    ),
}


def test_sources_use_no_numpy_names_new_in_2():
    for path in source_paths():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert names_used(tree, NAMES_NEW_IN_NUMPY_2) == [], path


def test_new_numpy_names_are_caught():
    # A method of the same name, and the builtin pow, are not numpy's.
    code = (
        "import numpy as np\nfrom numpy import vecdot\n"
        "x = np.bitwise_count(np.arange(3)).astype(int) + pow(2, 3)\n"
    )
    assert sorted(names_used(ast.parse(code), NAMES_NEW_IN_NUMPY_2)) == [
        "numpy.bitwise_count", "numpy.vecdot",
    ]


# spectrum owns the prime-signature table: its format, its build rule and
# price, and the block kernels that read it. prob_montecarlo gets a block's
# kernel from spectrum.block_kernel and touches none of these.
TABLE_INTERNALS = {
    "_signature_powers", "_signature_demand", "prime_signatures",
    "sample_selection_batch", "SIGNATURE_ROWS_PER_ENTRY", "SIGNATURE_ROWS_PER_STEP",
}


def table_internals_used(tree: ast.AST) -> list[str]:
    """The TABLE_INTERNALS that tree names (as a name, attribute, import or
    string), and "vars()" for each call of vars."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars":
            found.append("vars()")
        for value in (getattr(node, k, None) for k in ("id", "attr", "name", "value")):
            if isinstance(value, str) and value in TABLE_INTERNALS:
                found.append(value)
    return found


def test_estimator_knows_no_table_internals():
    path = Path(__file__).resolve().parent.parent / "src" / "udrange" / "estimator.py"
    assert table_internals_used(ast.parse(path.read_text(encoding="utf-8"))) == []
    # Each way of naming them is caught.
    code = (
        "from .spectrum import sample_selection_batch\n"
        "x = plan._signature_demand\ny = 'prime_signatures' in vars(plan)\n"
    )
    assert sorted(table_internals_used(ast.parse(code))) == [
        "_signature_demand", "prime_signatures", "sample_selection_batch", "vars()",
    ]


def test_failing_property_test_prints_its_example(tmp_path):
    # Under the repo's filterwarnings = ["error"], a warning from Hypothesis's
    # own pytest plugin must not turn a failed property into an INTERNALERROR
    # (exit 3) that hides the falsifying example.
    (tmp_path / "test_planted.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_planted(x):\n"
        "    assert x < 10\n"
    )
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(pyproject), "--rootdir", str(tmp_path), "test_planted.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout

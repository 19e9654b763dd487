import ast
import subprocess
import sys
from pathlib import Path

import udrange
from udrange import ranging, spectrum

# A selection is a plain tuple[int, ...] and phase_shifts returns a
# tuple[float, ...]; no wrapper type for either is exported, and selections
# are drawn with sample_selection_batch alone.
REMOVED = ("Selection", "PhaseVector", "sample_selection")


def test_all_names_resolve():
    for name in udrange.__all__:
        assert getattr(udrange, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in udrange.__all__
        assert not hasattr(udrange, name)


def test_one_speed_of_light():
    assert udrange.SPEED_OF_LIGHT_M_S is ranging.SPEED_OF_LIGHT_M_S
    assert ranging.SPEED_OF_LIGHT_M_S is spectrum.SPEED_OF_LIGHT_M_S


# Modules that `import udrange.cli` must leave unloaded: ud --indices,
# asymptotic prob and every argument or plan error use no arrays and no thread
# pool, and only verify runs the self-checks and builds the Fig. 1 plans.
LAZY_MODULES = ("numpy", "concurrent.futures", "udrange._selfcheck", "udrange.fig1")


def test_import_leaves_numpy_unloaded():
    code = f"import sys, udrange.cli; print([m in sys.modules for m in {LAZY_MODULES}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[False] * len(LAZY_MODULES)}\n"


def test_sources_parse_with_python_3_10_grammar():
    """Every .py file under src/, tests/ and scripts/ parses with Python
    3.10's grammar, the oldest that pyproject.toml allows: this rejects
    3.11 syntax such as ``except*``. It checks grammar only, not stdlib
    names that are new in 3.11."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "scripts") for p in (root / d).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))

import subprocess
import sys

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


def test_import_leaves_numpy_unloaded():
    # ud --indices, asymptotic prob and every argument or plan error use no
    # arrays and no thread pool, so a fresh `udrange` process must not pay
    # for importing numpy or concurrent.futures.
    code = (
        "import sys, udrange.cli; "
        'print("numpy" in sys.modules, "concurrent.futures" in sys.modules)'
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"

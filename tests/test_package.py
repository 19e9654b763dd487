import udrange
from udrange import ranging, spectrum

# A selection is a plain tuple[int, ...] and phase_shifts returns a
# tuple[float, ...]; no wrapper type for either is exported.
REMOVED = ("Selection", "PhaseVector")


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

"""The package's public surface: ``spinchsh.__all__`` names each export once."""

import types

import pytest

import spinchsh
from spinchsh import reduction, search, spectrum, spin

# library code that only the tests call, now in tests/reference.py, by the
# module that held it
MOVED = {
    spectrum: (
        "verify_invariance",
        "InvarianceReport",
        "V4_INDICES",
        "V5_INDICES",
        "subspace_blocks",
        "SubspaceBlocks",
    ),
    reduction: ("reduced_bell",),
    search: ("random_pure_state", "random_density_matrix", "best_state_value"),
    spin: ("rotation_about", "check_unit_vector", "spin_along"),
}


def test_all_has_no_duplicates():
    assert len(spinchsh.__all__) == len(set(spinchsh.__all__))


def test_every_export_resolves():
    for name in spinchsh.__all__:
        assert hasattr(spinchsh, name), name


def test_all_is_every_public_name_bound_in_the_package():
    bound = {
        name
        for name, value in vars(spinchsh).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(spinchsh.__all__) == bound | {"__version__"}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in MOVED.items() for name in names]
)
def test_test_only_code_left_the_library(module, name):
    assert not hasattr(module, name)
    with pytest.raises(ImportError):
        exec(f"from spinchsh import {name}", {})


def test_reduction_entry_points_are_exported():
    """Both entry points of the rank gate and the t cut, and svd3 beside them."""
    for name in ("CanonicalReduction", "canonical_reduction", "canonical_parameters", "svd3"):
        assert name in spinchsh.__all__
        assert getattr(spinchsh, name) is getattr(reduction, name)

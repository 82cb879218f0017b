"""The package's public surface: ``spinchsh.__all__`` names each export once, and the README's library example."""

import ast
import math
import re
import types
from pathlib import Path

import pytest

import spinchsh
from spinchsh import TOL, errors, reduction, search, spectrum, spin

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCE = Path(spinchsh.__file__).resolve().parent

# library code that only the tests call, moved to tests/reference.py or
# removed, by the module that held it
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
    spin: (
        "rotation_about",
        "check_unit_vector",
        "spin_along",
        "spin_generators",
        "check_rotation",
        "spin_representation",
    ),
    errors: ("RotationError",),
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


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") + 1 :]
    end = section.find("\n## ")
    return section if end < 0 else section[:end]


def test_every_public_definition_has_a_caller_in_the_library():
    """A public top-level function or class is used by other library code, or documented as library API.

    A use is a ``Name`` or ``Attribute`` node anywhere in ``src/spinchsh``
    outside the definition itself; the re-exports of ``__init__.py`` are
    not uses. Code that only the tests call belongs in tests/reference.py.
    """
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    used = set()
    for module, tree in trees.items():
        for top in tree.body if module != "__init__.py" else ():
            used |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - {getattr(top, "name", None)}
    documented = _library_section()
    dead = [
        f"{module}:{top.name}"
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not top.name.startswith("_")
        and top.name not in used
        and not re.search(rf"\b{top.name}\b", documented)
    ]
    assert dead == []


def test_reduction_entry_points_are_exported():
    """Both entry points of the rank gate and the t cut, and svd3 beside them."""
    for name in ("CanonicalReduction", "canonical_reduction", "canonical_parameters", "svd3"):
        assert name in spinchsh.__all__
        assert getattr(spinchsh, name) is getattr(reduction, name)


def test_readme_library_example_runs(capsys):
    # the python block under "## Library", run as written, so that a changed
    # signature cannot leave it stale; its last two lines are the searches
    section = _library_section()
    block = section[section.index("```python\n") + len("```python\n") :]
    exec(compile(block[: block.index("```")], "README.md", "exec"), {})
    *_, spin1, pauli = capsys.readouterr().out.splitlines()
    assert abs(float(spin1) - 2.0) <= TOL.search_target
    assert abs(float(pauli) - 2.0 * math.sqrt(2.0)) <= TOL.search_target

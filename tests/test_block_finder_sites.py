"""The exact blocks of a Hamiltonian are found in one place, ``linalg``, so
every model that solves on blocks shares one finder and its cache."""

import ast
from pathlib import Path

import medent

FINDER_NAMES = {"_components", "_pattern_components"}


def finder_references(source: str, module: str) -> set[str]:
    """``module`` if ``source`` names a block-finder function anywhere: as a
    name, an attribute, an imported name or a definition."""
    for node in ast.walk(ast.parse(source)):
        # Name.id, Attribute.attr, and the .name of an imported alias or a def
        if {getattr(node, field, None) for field in ("id", "attr", "name")} & FINDER_NAMES:
            return {module}
    return set()


def test_the_block_finder_is_referenced_only_in_linalg():
    modules = set()
    for path in sorted(Path(medent.__file__).parent.glob("*.py")):
        modules |= finder_references(path.read_text(), path.stem)
    assert modules == {"linalg"}


def test_the_scan_sees_an_imported_or_attribute_reference():
    imported = "from .linalg import (\n    _components,\n    _eigh_hermitian,\n)\n"
    attribute = "from . import linalg\ngroups = linalg._pattern_components(4, b'')\n"
    assert finder_references(imported, "dicke") == {"dicke"}
    assert finder_references(attribute, "control") == {"control"}
    assert finder_references("from .linalg import _block_ground_level\n", "entanglement") == set()

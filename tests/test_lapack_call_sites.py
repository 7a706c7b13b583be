"""Every LAPACK eigensolve and SVD of the package runs in one of a few kernels,
so each result passes the contract checks those kernels apply."""

import ast
from pathlib import Path

import medent

LAPACK_CALLS = {"eigh", "eigvalsh", "svd"}

# module.function -> why it may call LAPACK directly
ALLOWED_SITES = {
    "linalg._eigh_hermitian",  # every eigh and eigh_stack, with the Gram and residual checks
    "linalg._density_stack",  # the PSD check of every density matrix
    "linalg._schmidt_stack",  # every Schmidt decomposition, after its norm check
    "entanglement.concurrence_stack",  # the spin-flip spectrum of checked density matrices
}


def _is_linalg(node) -> bool:
    """``linalg`` or ``<x>.linalg``: numpy's or scipy's module, as the package
    imports neither its own ``linalg`` module by that name nor LAPACK names."""
    return (isinstance(node, ast.Name) and node.id == "linalg") or (
        isinstance(node, ast.Attribute) and node.attr == "linalg"
    )


def lapack_call_sites(source: str, module: str) -> set[str]:
    """module.function of every reference to a LAPACK routine in ``source``:
    ``<x>.linalg.eigh`` and the like, or an absolute ``from <x>.linalg import``
    of one; named after the innermost enclosing function."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        attribute = isinstance(node, ast.Attribute) and node.attr in LAPACK_CALLS and _is_linalg(node.value)
        imported = (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module or "").split(".")[-1] == "linalg"
            and any(alias.name in LAPACK_CALLS for alias in node.names)
        )
        if attribute or imported:
            sites.add(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sites


def test_lapack_is_called_only_in_the_checked_kernels():
    sites = set()
    for path in sorted(Path(medent.__file__).parent.glob("*.py")):
        sites |= lapack_call_sites(path.read_text(), path.stem)
    assert sites == ALLOWED_SITES


def test_the_scan_sees_a_call_outside_the_kernels():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from .linalg import eigh\n"
        "def solve(m):\n"
        "    return np.linalg.eigh(m), eigh(m)\n"
    )
    assert lapack_call_sites(source, "perturbation") == {"perturbation.<module>", "perturbation.solve"}

"""The library calls scipy only through its public API.

scipy's private sparse kernels (`scipy.sparse._sparsetools`, or the
`_matmul_vector` and `_mul_vector` methods behind `@`) skip the per-call
dispatch of a sparse product, and once saved about an eighth of an RK4
stage; they can change or vanish in any scipy release.  The source of every
module is read with `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ekemq"
MODULES = sorted(PACKAGE.glob("*.py"))

_PRIVATE_MODULE = "scipy.sparse._sparsetools"
_PRIVATE_METHODS = {"_matmul_vector", "_mul_vector"}


def _private_scipy_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr in _PRIVATE_METHODS:
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in _PRIVATE_METHODS or name == _PRIVATE_MODULE
                  or name.startswith(_PRIVATE_MODULE + ".")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_sees_private_scipy():
    source = ("import scipy.sparse._sparsetools as st\n"
              "from scipy.sparse import _sparsetools\n"
              "from scipy.sparse._sparsetools import csr_matvec\n"
              "from scipy.sparse import csr_matrix\n"
              "y = g._matmul_vector(x)\n"
              "f = g._mul_vector\n")
    assert _private_scipy_uses(source) == [
        "line 1: scipy.sparse._sparsetools",
        "line 2: scipy.sparse._sparsetools",
        "line 3: scipy.sparse._sparsetools.csr_matvec",
        "line 5: _matmul_vector",
        "line 6: _mul_vector"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_public_scipy_only(module):
    assert _private_scipy_uses(module.read_text()) == []

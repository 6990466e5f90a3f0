"""The library calls scipy only through its public API, and never
scipy.sparse.

scipy's private sparse kernels (`scipy.sparse._sparsetools`, or the
`_matmul_vector` and `_mul_vector` methods behind `@`) skip the per-call
dispatch of a sparse product, and once saved about an eighth of an RK4
stage; they can change or vanish in any scipy release.  No route needs
scipy.sparse at all: both ODE routes work on dense numpy blocks, and the
sparse march is the tests' reference only.  The source of every module is
read with `ast`.

`test_numpy_only.py` refuses every scipy import under `src/ekemq/`, which
covers both checks here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ekemq"
MODULES = sorted(PACKAGE.glob("*.py"))

_PRIVATE_MODULE = "scipy.sparse._sparsetools"
_SPARSE = "scipy.sparse"
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


def _sparse_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == _SPARSE or name.startswith(_SPARSE + ".")]
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


def test_checker_sees_scipy_sparse():
    source = ("import numpy as np\n"
              "import scipy.sparse as sp\n"
              "from scipy import sparse\n"
              "from scipy.sparse import csr_matrix\n"
              "from scipy.special import gammainc\n"
              "def f():\n"
              "    import scipy.sparse.linalg\n"
              "from . import sparse_helpers\n")
    assert _sparse_imports(source) == [
        "line 2: scipy.sparse",
        "line 3: scipy.sparse",
        "line 4: scipy.sparse.csr_matrix",
        "line 7: scipy.sparse.linalg"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_imports_no_scipy_sparse(module):
    assert _sparse_imports(module.read_text()) == []

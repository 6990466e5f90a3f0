"""The library runs on numpy alone.

Every import under `src/ekemq/` is from the standard library, numpy or the
package itself, read with `ast`, and no module names scipy's private sparse
product methods (`_matmul_vector`, `_mul_vector`, which skip the per-call
dispatch of `@` and can change or vanish in any scipy release); and a
process that imports the package and runs every CLI command loads no scipy
module.  So no route reaches a scipy kernel, public or private, and scipy
serves the tests' references only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ekemq
from ekemq.cli import _COMMANDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ekemq"
_ALLOWED = {"numpy", "ekemq"}
_PRIVATE_METHODS = {"_matmul_vector", "_mul_vector"}

# a small periodic model, quick on every command; bounds.reference exceeds
# every bounds.orders entry
_SMALL_CONFIG = """\
model.k = 2
model.m = 3
model.arrival.base = 1
model.arrival.sin = 1:0.5
model.service.base = 4
series.order = 2
oracle.levels = 20
oracle.grid = 16
bounds.orders = 1,2
bounds.reference = 4
waiting.kind = sojourn
waiting.steps = 5
busy.horizon = 0.5
busy.step = 0.015625
busy.substeps = 1
"""


def _foreign_uses(source: str) -> list[str]:
    """'line n: name' for every import from outside the standard library,
    numpy and ekemq (a relative import is the package's own) and every
    attribute named after a private scipy sparse product method."""
    found = []
    for node in ast.walk(ast.parse(source, feature_version=(3, 10))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif isinstance(node, ast.Attribute) and node.attr in _PRIVATE_METHODS:
            found.append((node.lineno, node.attr))
            continue
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if not (name.split(".")[0] in _ALLOWED
                          or name.split(".")[0] in sys.stdlib_module_names)]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_sees_foreign_imports():
    source = ("from __future__ import annotations\n"
              "import math, operator\n"
              "import numpy as np\n"
              "from numpy.linalg import solve\n"
              "from . import model\n"
              "from .oracle import busy_oracle\n"
              "import ekemq._g17\n"
              "import scipy.special\n"
              "from scipy import sparse\n"
              "def f():\n"
              "    import scipy.sparse.linalg as sla\n"
              "import numpyx, json\n"
              "from mpmath import mp\n"
              "y = g._matmul_vector(x)\n"
              "f = g._mul_vector\n"
              "z = g.matmul_vector(x)\n")
    assert _foreign_uses(source) == [
        "line 8: scipy.special",
        "line 9: scipy",
        "line 11: scipy.sparse.linalg",
        "line 12: numpyx",
        "line 13: mpmath",
        "line 14: _matmul_vector",
        "line 15: _mul_vector"]


def test_library_imports_stdlib_numpy_and_itself_only():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}: {entry}" for entry in _foreign_uses(path.read_text())]
    assert found == []


def test_every_command_loads_no_scipy(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(_SMALL_CONFIG)
    src = str(Path(ekemq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ekemq\n"
         "from ekemq.cli import main\n"
         f"for command in {sorted(_COMMANDS)!r}:\n"
         f"    code = main([command, '--config', {str(config)!r},\n"
         f"                 '--out', {str(tmp_path)!r}])\n"
         "    assert code == 0, (command, code)\n"
         "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

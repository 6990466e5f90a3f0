"""No module of the library computes in long double.

The width of numpy's long double is the platform's: 80-bit x87 on x86-64
Linux, plain double on MSVC and macOS arm64, software quad on aarch64
Linux.  Code that leans on it gives other digits, or takes another path,
on another platform; the '%.17g' fast path of `_g17` once did.  So no
module under `src/ekemq/` may name a long-double type, as a name, an
attribute or a dtype string.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ekemq"

_LONG_DOUBLE = {"longdouble", "clongdouble", "longfloat", "longcomplex",
                "float96", "float128", "complex192", "complex256"}


def _long_double_names(module: str, source: str) -> list[str]:
    """'module: line n', in line order, for every name, attribute, import
    or string constant of `source` that is a long-double type."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) else None)
        if isinstance(name, str) and name in _LONG_DOUBLE:
            found.add(node.lineno)
    return [f"{module}: line {n}" for n in sorted(found)]


def test_checker_sees_long_double():
    source = ("import numpy as np\nfrom numpy import longdouble\n"
              "x = np.longdouble(1)\ny = np.zeros(2, 'float128')\n"
              "z = np.float64(1)\nw = 'longdouble precision'\n")
    # a prose string that mentions the type is no use of it
    assert _long_double_names("m", source) == ["m: line 2", "m: line 3", "m: line 4"]


def test_library_names_no_long_double():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _long_double_names(path.stem, path.read_text())
    assert found == []

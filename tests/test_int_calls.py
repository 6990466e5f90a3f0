"""No `int(...)` in the library truncates a number it should refuse.

`int(2.7)` is 2 and `int(1.5)` is 1, so an integer argument read through
`int` takes a float silently, the wrong harmonic or level with it.  Every
`int(...)` call under `src/ekemq/` must therefore round on purpose, taking
a `round(...)` or `math.ceil(...)` call as its argument, or sit in a
function of `_ALLOWED`, which gives the reason.  An integer argument goes
through `operator.index` instead (`model._as_index`), which refuses a float.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ekemq"

# functions whose int() may take anything, each with the reason
_ALLOWED = {
    "cli._parse_int": "parses config text, where int('2.5') raises",
}


def _rounding(node: ast.expr) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "round") or (
        isinstance(func, ast.Attribute) and func.attr == "ceil"
        and isinstance(func.value, ast.Name) and func.value.id == "math")


def _truncating_int_calls(module: str, source: str) -> list[str]:
    """'module.function: line n' for every int(...) call that neither
    rounds its argument nor sits in a function of _ALLOWED."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "int" and scope not in _ALLOWED
                and not (len(node.args) == 1 and _rounding(node.args[0]))):
            found.append(f"{scope}: line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_checker_sees_a_truncating_int():
    source = ("import math\n"
              "def _as_terms(terms):\n    return [int(j) for j, _ in terms]\n"
              "def steps(h):\n"
              "    return int(round(1 / h)), int(math.ceil(h)), int(h + 0.5)\n"
              "def _parse_int(raw):\n    return int(raw)\n"
              "class ModelSpec:\n    def __post_init__(self):\n        int(self.k)\n")
    assert _truncating_int_calls("model", source) == [
        "model._as_terms: line 3", "model.steps: line 5", "model._parse_int: line 7",
        "model.ModelSpec.__post_init__: line 10"]
    assert _truncating_int_calls("cli", source) == [
        "cli._as_terms: line 3", "cli.steps: line 5",
        "cli.ModelSpec.__post_init__: line 10"]


def test_library_int_calls_round_on_purpose():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _truncating_int_calls(path.stem, path.read_text())
    assert found == []

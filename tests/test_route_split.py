"""The busy period's two routes share no code.

Their agreement is the correctness argument for both, so the Volterra
route in `busy.py` may use nothing imported from the periodic oracle, and
only `busy_oracle` runs the oracle's structure builder and RK4 step.  A
stdlib `ast` check, like the unused-import check.
"""

import ast
from pathlib import Path

BUSY = Path(__file__).resolve().parent.parent / "src" / "ekemq" / "busy.py"
_DEFS = (ast.FunctionDef, ast.ClassDef)


def _oracle_names(tree: ast.Module) -> set[str]:
    """Names bound by any import that reaches the oracle module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_oracle = "oracle" in (node.module or "").split(".")
            for alias in node.names:
                if from_oracle or alias.name == "oracle":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if "oracle" in alias.name.split("."):
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


def _oracle_users(source: str) -> set[str]:
    """Top-level definitions that read a name imported from the oracle;
    module-level code that reads one counts as '<module>'."""
    tree = ast.parse(source)
    oracle = _oracle_names(tree)
    users = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if read & oracle:
            users.add(node.name if isinstance(node, _DEFS) else "<module>")
    return users


def test_checker_sees_oracle_use():
    source = ("from .oracle import _rk4_step as step\n"
              "from . import oracle\n"
              "alias = step\n"
              "def march():\n    return oracle.x\n"
              "def other():\n    return 1\n")
    assert _oracle_users(source) == {"<module>", "march"}


def test_only_busy_oracle_uses_the_oracle():
    source = BUSY.read_text()
    assert _oracle_names(ast.parse(source)) == {"_rk4_step",
                                                "_structure_matrices"}
    assert _oracle_users(source) == {"busy_oracle"}

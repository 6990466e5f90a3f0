"""Public-API guard for the demos and the README quick start.

Running the demos takes tens of seconds, so this only parses them: every
name they import from `ekemq` must be exported in `ekemq.__all__`.
"""

import ast
import re
from pathlib import Path

import pytest

import ekemq

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _ekemq_imports(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "ekemq":
            names.update(alias.name for alias in node.names)
    return names


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(path):
    names = _ekemq_imports(path.read_text())
    assert names, f"{path.name} imports nothing from ekemq"
    assert names <= set(ekemq.__all__), sorted(names - set(ekemq.__all__))


def test_quick_start_imports_are_public():
    names = _ekemq_imports(_quick_start())
    assert "busy_period_cdf" in names
    assert names <= set(ekemq.__all__), sorted(names - set(ekemq.__all__))


def test_demos_are_found():
    # an empty glob would leave the parametrized check above with no cases
    assert DEMOS

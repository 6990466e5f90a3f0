"""The README quick start: its imports are public and the block runs."""

import ast
import re
from pathlib import Path

import numpy as np

import ekemq

ROOT = Path(__file__).resolve().parent.parent


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


def test_quick_start_imports_are_public():
    names = _ekemq_imports(_quick_start())
    assert "busy_period_cdf" in names
    assert names <= set(ekemq.__all__), sorted(names - set(ekemq.__all__))


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_quick_start(), "README.md quick start", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    # the sup disagreement the comment beside the first print promises
    assert 1e-4 < float(printed[0]) < 1e-3
    assert 0.0 < float(printed[1]) < 1.0
    curve = namespace["curve"].values
    assert np.all(np.diff(curve) >= -1e-12) and curve[-1] <= 1.0 + 1e-9

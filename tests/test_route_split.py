"""The ODE route lives in `oracle.py`, and the routes it checks share no code.

Agreement between routes is the correctness argument, so the busy period's
Volterra route imports nothing from the oracle, the oracle reads only the
busy period's result type, and the truncated generator and its RK4 march
never leave `oracle.py`.  The law's Fourier containers live in `_fourier`,
which imports no route, so the series route reads the boundary without
importing the oracle.  The package imports of every module are read off
its source.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ekemq"


def _package_imports(module: str) -> set[tuple[str, str]]:
    """(module, name) for every `from .module import name` in the source,
    with `from . import name` as ("", name)."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {(node.module or "", alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def _from_oracle(module: str) -> set[str]:
    """Names the module imports from the oracle, or "oracle" itself."""
    return {name for mod, name in _package_imports(module)
            if mod == "oracle" or (mod, name) == ("", "oracle")}


def test_volterra_route_imports_nothing_from_the_oracle():
    assert _from_oracle("busy") == set()


def test_oracle_imports_only_the_model_the_containers_and_the_busy_result():
    assert _package_imports("oracle") == {("_fourier", "BoundaryFunctions"),
                                          ("_fourier", "TrigInterpolant"),
                                          ("_fourier", "_read_only"),
                                          ("model", "ModelSpec"),
                                          ("model", "_as_index"),
                                          ("model", "_normalize_phase"),
                                          ("busy", "VolterraSolution")}


def test_containers_import_no_route_module():
    routes = {"oracle", "series", "roots", "waiting", "busy", "bounds"}
    assert not {mod or name for mod, name in _package_imports("_fourier")} & routes


def test_roots_and_bounds_import_nothing_from_the_oracle():
    assert _from_oracle("roots") == set()
    assert _from_oracle("bounds") == set()


def test_series_imports_nothing_from_the_oracle():
    assert _from_oracle("series") == set()


def test_series_wait_route_reads_only_the_boundary_and_the_law():
    # the boundary from `_fourier`, the law from the oracle
    assert _from_oracle("waiting") == {"PeriodicDistribution"}


def test_only_the_oracle_names_its_generator_and_step():
    for path in SRC.glob("*.py"):
        source = path.read_text()
        if path.name != "oracle.py":
            for name in ("_level_parts", "_level_march"):
                assert name not in source, (path.name, name)

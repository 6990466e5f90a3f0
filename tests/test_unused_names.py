"""Every private module-level name of the library is referenced in it, and
so is every public name outside `__init__.py`.

A stdlib stand-in for a linter's unused-code rule: a function, class or
constant whose name starts with one underscore, defined at the top of a
module under `src/ekemq/`, must be named somewhere in `src/ekemq/` outside
its own definition, as a name, an attribute or an import.  A name of
`ekemq.__all__` must be named so in a module other than `__init__.py`,
whose imports only re-export it, unless `_UNCALLED_PUBLIC` gives the reason
it is kept.  Tests do not count, so code kept alive only by its tests
shows.
"""

import ast
from pathlib import Path

import ekemq

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ekemq"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


# public names the library does not call, each with the reason it stays
_UNCALLED_PUBLIC = {
    "phase_weights": "the benchmark's rounding floor for the series weights",
    "__version__": "the package version",
}


def _unreferenced(sources: dict[str, str], wanted=_private) -> list[str]:
    defined, used = [], []  # used: the names each top-level statement reads
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name, len(used)) for name in names if wanted(name)]
            reads = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    reads.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    reads.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    reads.update(alias.name for alias in sub.names)
            used.append(reads)
    # a statement that defines an unreferenced name is dead, and what only
    # dead statements read is unreferenced too
    dead: set[int] = set()
    while True:
        found = [(module, name, own) for module, name, own in defined
                 if not any(name in reads for i, reads in enumerate(used)
                            if i != own and i not in dead)]
        if {own for *_, own in found} <= dead:
            return [f"{module}: {name}" for module, name, _ in found]
        dead |= {own for *_, own in found}


def test_checker_sees_an_unreferenced_name():
    sources = {"a.py": "def _used():\n    pass\ndef _recursive():\n    _recursive()\n"
                       "class _Kept:\n    pass\n_LIMIT = 1\n_SHADOW: int = 2\n"
                       "__all__ = []\n",
               "b.py": "from .a import _Kept\nimport a\na._used()\n_SHADOW = 3\n"}
    # a call from its own body and a name stored again are no references
    assert _unreferenced(sources) == ["a.py: _recursive", "a.py: _LIMIT",
                                      "a.py: _SHADOW", "b.py: _SHADOW"]


def test_checker_follows_dead_readers():
    # Blocks is read only by blocks(), which nothing reads
    sources = {"m.py": "class Blocks:\n    pass\ndef blocks():\n    return Blocks()\n"
                       "def run():\n    pass\nclass _Help:\n    pass\n",
               "n.py": "from .m import run\nrun()\n"}
    public = {"Blocks", "blocks", "run"}.__contains__
    assert _unreferenced(sources, public) == ["m.py: Blocks", "m.py: blocks"]


def test_library_references_every_private_name():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _unreferenced(sources) == []


def test_library_references_every_public_name():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")
               if p.name != "__init__.py"}
    public = set(ekemq.__all__) - set(_UNCALLED_PUBLIC)
    assert _unreferenced(sources, public.__contains__) == []

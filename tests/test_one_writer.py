"""The CLI writes its files through its two writers only.

Every CSV goes through `cli._write_csv` and every JSON summary through
`cli._write_json`, so the output format is decided in one place and the
tests that pin it (the '%.17g' formatter, the schema line, the chunking)
cover every file.  So that no second writer path grows beside them
unnoticed, this check reads `cli.py` with `ast` and names every call that
opens or writes a file outside the two.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "ekemq" / "cli.py"

WRITERS = {"_write_csv", "_write_json"}
# calls that open a file, or write one by its name; reading the config
# (`Path.read_text`) opens no output
_OPENERS = {"open", "write_text", "write_bytes", "tofile", "savetxt", "save",
            "savez", "savez_compressed"}


def _file_writes(source: str) -> list[str]:
    """'line n: call in function', in line order, for every call of
    `source` that opens or writes a file outside the functions `WRITERS`."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name in _OPENERS and function not in WRITERS:
                found.append((node.lineno, f"{name} in {function}"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_sees_file_writes():
    source = ("def _write_csv(path):\n"
              "    with open(path, 'wb') as fh:\n"
              "        fh.write(b'')\n"
              "def _write_law(out, lines):\n"
              "    with open(out / 'a.csv', 'wb') as fh:\n"
              "        fh.write(lines)\n"
              "    (out / 'b.csv').write_bytes(lines)\n"
              "class Config:\n"
              "    def load(self, path):\n"
              "        return Path(path).read_text()\n"
              "    def dump(self, path):\n"
              "        np.savetxt(path, self.values)\n"
              "Path('c.json').open('w')\n")
    assert _file_writes(source) == ["line 5: open in _write_law",
                                    "line 7: write_bytes in _write_law",
                                    "line 12: savetxt in dump",
                                    "line 13: open in <module>"]


def test_cli_writes_files_through_its_two_writers_only():
    assert _file_writes(CLI.read_text()) == []

"""The runtime is stdlib-only: every import in the package names a standard
library module or the package itself."""

import ast
import pathlib
import sys

import expansive_lab

PACKAGE = pathlib.Path(expansive_lab.__file__).parent


def _imported_modules(path):
    """(line, top-level module) of each absolute import in one file; a
    relative import stays inside the package and yields nothing."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_stdlib_or_the_package():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "shift_core.py" in files
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in files
        for line, name in _imported_modules(path)
        if name not in sys.stdlib_module_names and name != "expansive_lab"
    ]
    assert foreign == []


def test_the_import_scan_sees_a_foreign_module(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom numpy import array\nfrom . import cli\n")
    assert list(_imported_modules(probe)) == [(1, "os"), (2, "numpy")]

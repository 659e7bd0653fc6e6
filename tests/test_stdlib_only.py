"""The runtime is stdlib-only: every import in the package names a standard
library module or the package itself.  Importing the CLI loads neither
`dataclasses` nor `inspect`, and the oldest Python that pyproject.toml
admits prints what this one does."""

import ast
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import expansive_lab

PACKAGE = pathlib.Path(expansive_lab.__file__).parent
SRC = PACKAGE.parent


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


def _run(python, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([python, *args], env=env, capture_output=True, check=True).stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Against the modules loaded before the import, so that a site hook
    that loads them does not count."""
    probe = ("import sys; before = set(sys.modules); import expansive_lab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert _run(sys.executable, "-c", probe) == b"[]\n"


def _python_3_10():
    """A python3.10 on PATH that runs, else None (a pyenv shim can sit on
    PATH without a 3.10 selected)."""
    python = shutil.which("python3.10")
    try:
        version = python and _run(python, "-c", "import sys; print(sys.version_info[:2])")
    except (OSError, subprocess.CalledProcessError):
        return None
    return python if version == b"(3, 10)\n" else None


@pytest.mark.parametrize("argv", [
    ("ab-cross", "--n", "1..2", "--level", "0..2"),
    ("region", "--rule", "shift", "--d", "1", "--n", "2"),
    ("tower", "--levels", "64,2,1;32,2,1"),
])
def test_python_3_10_prints_what_this_python_does(argv):
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in text
    python = _python_3_10()
    if python is None:
        pytest.skip("no runnable python3.10 on PATH")
    cli = ("-m", "expansive_lab.cli", *argv)
    assert _run(python, *cli) == _run(sys.executable, *cli)

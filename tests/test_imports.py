"""No module of the package, the scripts or the tests imports a name it never uses, and no
line of theirs is longer than 99 characters."""

import ast

import pytest

from conftest import ROOT

MODULES = sorted([*(ROOT / "src" / "pipefollow").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])
MAX_LINE = 99


def unused_imports(source: str) -> list:
    """'line <n>: <name>' for each name an import binds and the module never references.

    A name listed in the module's __all__ counts as referenced.  __future__
    imports bind no name.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys as system\n"
              "from math import inf, nan\nfrom . import fis\n__all__ = ['fis']\n"
              "def f():\n    import re\n    return system.argv, nan\n")
    assert unused_imports(source) == ["line 2: os", "line 4: inf", "line 8: re"]


def test_the_check_covers_the_package_and_the_scripts():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "sim.py",
                                               "run_experiment.py", "tune_rules.py",
                                               "conftest.py", "test_imports.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_line_is_too_long(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert long == [], f"lines longer than {MAX_LINE} characters"

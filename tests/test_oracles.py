"""The brute-force oracles stay independent of the code they check."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "numpy" in names
    assert not any(name and name.split(".")[0] == "pipefollow" for name in names)

"""The package has no knob beyond its arguments: no module reads the environment or
rebinds a global, and no module global is a mutable container other than the constant
tables listed here.  State lives in the calls that own it, such as tune's captures memo."""

import ast
import importlib

import numpy as np
import pytest

from conftest import ROOT

MODULES = sorted((ROOT / "src" / "pipefollow").glob("*.py"))
CONSTANT_TABLES = {("sim", "_SCENARIO_PARTS"), ("sim", "_SCENARIO_KEYS"),
                   ("imgproc", "EIGHT_CONNECTED")}


def environment_and_globals(source: str) -> list:
    """'line <n>: <what>' for each read of the environment and each global statement."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "attr", getattr(node, "id", None))
        if name in ("environ", "getenv", "environb", "getenvb"):
            found.append(f"line {node.lineno}: {name}")
        elif isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {', '.join(node.names)}")
    return found


def test_the_check_finds_the_environment_and_globals():
    source = ("import os\nfrom os import getenv\nx = os.environ.get('A')\n"
              "def f():\n    global x\n    x = getenv('B')\n")
    assert sorted(environment_and_globals(source)) == ["line 3: environ", "line 5: global x",
                                                       "line 6: getenv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_the_environment_or_rebinds_a_global(path):
    assert environment_and_globals(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_global_is_a_mutable_container(path):
    name = "pipefollow" if path.stem == "__init__" else f"pipefollow.{path.stem}"
    module = importlib.import_module(name)
    containers = {attr for attr, value in vars(module).items()
                  if not attr.startswith("__")
                  and isinstance(value, (dict, list, set, bytearray, np.ndarray))}
    assert containers == {attr for stem, attr in CONSTANT_TABLES if stem == path.stem}

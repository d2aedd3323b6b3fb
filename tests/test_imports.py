"""No module of the package, the scripts or the tests imports a name it never uses, and no
line of theirs is longer than 99 characters.  The package loads scipy only at its first
region label, which fresh interpreters check."""

import ast
import os
import subprocess
import sys

import pytest

from conftest import ROOT, SCENARIO_DIR

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


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """argv run by a fresh interpreter that finds the package and tests/oracles.py."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)


def fresh_stdout(code: str, *args) -> str:
    done = run_fresh("-c", code, *map(str, args))
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


def test_the_package_imports_every_submodule_and_no_scipy():
    code = ("import sys, pipefollow, pipefollow.cli\n"
            "print(sorted(n for n in sys.modules if n.startswith('pipefollow')),\n"
            "      sorted(n for n in sys.modules if n.startswith('scipy')))\n")
    assert fresh_stdout(code) == ("['pipefollow', 'pipefollow.cli', 'pipefollow.features', "
                                  "'pipefollow.fis', 'pipefollow.imgproc', 'pipefollow.netpbm', "
                                  "'pipefollow.sim'] []\n")


def test_commands_that_never_label_never_load_scipy(tmp_path):
    record = tmp_path / "rec.csv"
    record.write_text("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n1,47.5,48.0,+0.5,6.3\n")
    code = ("import sys\n"
            "from pipefollow import cli\n"
            "scenario, record, out = sys.argv[1:]\n"
            "codes = [cli.main(['infer', '0.5', '0.5', '0.5', '0.5', '0.55', '0.55', '--out', "
            "out + '.txt']),\n"
            "         cli.main(['render', '--scenario', scenario, '--out', out + '.pgm']),\n"
            "         cli.main(['plot', record, '--out', out + '.svg'])]\n"
            "print(codes, sorted(n for n in sys.modules if n.startswith('scipy')))\n")
    assert fresh_stdout(code, SCENARIO_DIR / "default.scenario", record, tmp_path / "out") == \
        "[0, 0, 0] []\n"


def test_the_first_label_loads_scipy_and_labels_as_the_oracle():
    code = ("import sys\n"
            "import numpy as np\n"
            "import oracles\n"
            "from pipefollow import imgproc\n"
            "mask = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]], bool)\n"
            "before = 'scipy.ndimage' in sys.modules\n"
            "labels, count = imgproc.label_regions(mask)\n"
            "expected, expected_count = oracles.flood_fill_labels(mask)\n"
            "print(before, 'scipy.ndimage' in sys.modules, count, expected_count,\n"
            "      np.array_equal(labels, expected))\n")
    assert fresh_stdout(code) == "False True 4 4 True\n"


def test_the_modes_agree_from_a_cold_start():
    """The first label, and so the scipy import, happens inside the mission in each mode."""
    scenario = str(SCENARIO_DIR / "default.scenario")
    sequential, overlapped = (run_fresh("-m", "pipefollow.cli", "run", "--scenario", scenario,
                                        "--mode", mode)
                              for mode in ("sequential", "overlapped"))
    assert sequential.returncode == overlapped.returncode == 0, overlapped.stderr.decode()
    assert sequential.stdout == overlapped.stdout
    assert sequential.stdout.startswith(b"step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n")

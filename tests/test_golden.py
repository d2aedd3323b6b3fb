"""The benchmark workloads reproduce bench/golden.json at their default seed,
and the outputs of their first units pass the workload's own check.

Survey records (both modes) are compared by hash, tune by its parameters and
objectives, perceive by its feature vectors and steers, all exactly.  The
workloads are imported from bench/ and nothing there is written except the
perceive frames, which go to a temporary directory.
"""

import json
import sys

import pytest

from conftest import ROOT

BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", ["survey", "tune", "perceive"])
def test_workload_reproduces_golden(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path / name)
    workload.setup()
    got = json.loads(json.dumps(workload.golden()))
    assert got == GOLDEN[workload.golden_key]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_pass_their_check(name, tmp_path):
    """The package API the benchmark calls (such as read_pgm(...).pixels) still works."""
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path / name)
    workload.setup()
    units = [workload.unit(workloads.DEFAULT_SEED, i) for i in range(3)]
    outputs = [workload.run(unit).output for unit in units]
    assert workload.check(units, outputs) == []

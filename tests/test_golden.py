"""The benchmark workloads reproduce bench/golden.json at their default seed.

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

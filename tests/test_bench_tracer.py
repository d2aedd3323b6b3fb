"""The benchmark's per-layer tracer still runs every workload: traced, a unit gives the
output it gives untraced, and the per-layer metrics are exactly those BENCHMARK.json
declares.  Only bench/run.py --trace 1 runs the tracer otherwise, so a package change that
breaks it (say, an unhashable render_view argument) would go unseen.  Nothing under bench/
is written except the perceive frames, which go to a temporary directory."""

import json
import math
import sys
import time

import pytest

from conftest import ROOT

BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_traced_unit_matches_the_plain_one(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path / name)
    workload.setup()
    unit = workload.unit(workloads.DEFAULT_SEED, 0)
    start = time.perf_counter()
    plain = workload.run(unit)
    untraced_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = tracer.call(spans.UNIT, workload.run, (unit,))
    finally:
        tracer.uninstall()
    assert traced.output == plain.output
    metrics = spans.layer_metrics(tracer, untraced_s)
    assert sorted(metrics) == sorted(PER_LAYER) and len(metrics) == 33
    assert all(math.isfinite(value) for value in metrics.values())

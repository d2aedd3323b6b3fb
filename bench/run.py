#!/usr/bin/env python3
"""pipefollow benchmark runner.

    python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Runs one workload in this process and thread for about --seconds, then
checks every output and the golden results of the default seed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` every unit is run once
untraced and once traced, and the metrics are the per-layer ones.  The line
before it holds the details: environment, sample counts, tail percentile
and any errors.  ``--write-golden`` regenerates bench/golden.json instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 3
TAIL_BEYOND = 10        # the tail is the highest percentile with this many samples above it

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pipefollow  # noqa: E402,F401  (fails fast when the checkout has no package)
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import pipefollow; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time `import pipefollow` in a fresh interpreter, as a command-line user pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def set_up(workload, host) -> float:
    """Median over repeats of a fresh import plus building the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        start = time.perf_counter()
        workload.setup()
        build_s = time.perf_counter() - start
        times.append(import_seconds() + build_s)
    return statistics.median(times)


def tail(samples) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def throughput(outcomes, slices: int = 8) -> float:
    """Items per second: the median over consecutive slices of the run.

    The median keeps a few seconds of a slow host out of the figure, as it
    does for latency.
    """
    k = min(slices, len(outcomes))
    edges = [round(i * len(outcomes) / k) for i in range(k + 1)]
    return statistics.median(
        sum(len(o.samples) for o in outcomes[a:b]) / sum(o.elapsed for o in outcomes[a:b])
        for a, b in zip(edges, edges[1:]))


def git_commit(root: Path):
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, traced: bool, host):
    """Run units until `seconds` pass; in traced mode each unit runs untraced and traced.

    Returns the unit inputs, their outcomes, the tracer (or None), the
    untraced wall time of the traced units and the units whose output
    tracing changed.
    """
    workload.run(workload.unit(seed, workloads.WARMUP_UNIT))
    units, outcomes = [], []
    tracer = spans.Tracer() if traced else None
    untraced_s = 0.0
    mismatches = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        host.sample()
        unit = workload.unit(seed, len(units))
        if tracer is None:
            outcomes.append(workload.run(unit))
        else:
            # alternate which side runs first so warm caches favour neither
            sides = (False, True) if len(units) % 2 == 0 else (True, False)
            for side in sides:
                if side:
                    tracer.install()
                    try:
                        traced_out = tracer.call(spans.UNIT, workload.run, (unit,))
                    finally:
                        tracer.uninstall()
                else:
                    start = time.perf_counter()
                    plain_out = workload.run(unit)
                    untraced_s += time.perf_counter() - start
            if traced_out.output != plain_out.output:
                mismatches.append((len(units), "tracing changed the unit's output"))
            outcomes.append(traced_out)
        units.append(unit)
    return units, outcomes, tracer, untraced_s, mismatches


def check_golden(workload) -> list:
    expected = json.loads(GOLDEN.read_text())[workload.golden_key]
    got = json.loads(json.dumps(workload.golden()))
    if got == expected:
        return []
    return [f"golden {workload.golden_key} results of seed {workloads.DEFAULT_SEED} differ"]


def with_units(values: dict, kind: str) -> dict:
    """Attach BENCHMARK.json's unit to each value; the names must match it exactly."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute golden.json from the current package and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")

    workdir = ROOT / ".bench_work" / f"{args.workload or 'golden'}-{os.getpid()}"
    try:
        if args.write_golden:
            golden = {}
            for name in ("survey", "tune", "perceive"):
                workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir)
                workload.setup()
                golden[workload.golden_key] = workload.golden()
            GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
            return 0
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        host = hostspeed.HostSpeed()
        setup_s = set_up(workload, host)
        units, outcomes, tracer, untraced_s, errors = measure(
            workload, args.seed, args.seconds, bool(args.trace), host)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors += workload.check(units, [o.output for o in outcomes])
        golden_errors = check_golden(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass    # another run still uses it, or it was never made

    samples = [s for o in outcomes for s in o.samples]
    elapsed = sum(o.elapsed for o in outcomes)
    tail_s, tail_pct = tail(samples)
    slowdown = host.slowdown()
    raw = {
        "latency_ms_p50": 1000.0 * statistics.median(samples),
        "throughput_per_s": throughput(outcomes),
        "setup_s": setup_s,
    }
    if tracer is None:
        # timings scaled to the nominal host speed; see hostspeed.py
        values = {
            "latency_ms_p50": raw["latency_ms_p50"] / slowdown,
            "throughput_per_s": raw["throughput_per_s"] * slowdown,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s / slowdown,
        }
    else:
        values = spans.layer_metrics(tracer, untraced_s)
    metrics = with_units(values, "per_layer" if args.trace else "end_to_end")
    failed = len({i for i, _ in errors}) + len(golden_errors)
    details = {
        "workload": args.workload,
        "item": workload.item,
        "units": len(units),
        "items": len(samples),
        "host_slowdown": slowdown,
        "host_samples": len(host.samples),
        "unscaled": raw,
        # not a gated metric: slow spells of the host move it by more than any bound
        "latency_ms_tail": 1000.0 * tail_s,
        "tail_percentile": tail_pct,
        "mean_throughput_per_s": len(samples) / elapsed,
        "seconds": elapsed,
        "environment": environment(args.seed),
        "errors": [f"unit {i}: {msg}" for i, msg in errors[:20]] + golden_errors,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units) + workload.golden_units,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

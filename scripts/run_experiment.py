#!/usr/bin/env python3
"""Before/after tuning comparison on the default mission.

Runs the detuned and tuned controllers over the same world, prints both
drift tables and writes CSV + SVG artifacts under results/.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pipefollow import sim  # noqa: E402


def fly(scenario_path: Path, out_dir: Path, label: str) -> sim.PathRecord:
    scenario = sim.load_scenario(scenario_path)
    record = sim.run_mission(scenario, sim.load_rulebase(scenario))
    (out_dir / f"{label}.csv").write_text(record.to_csv())
    (out_dir / f"{label}.svg").write_text(
        sim.plot_svg(record, scenario.world.envelope, scenario.step_length, scenario.start.y))
    print(f"--- {label} ---")
    print(record.to_csv(), end="")
    verdict = "inside" if record.within_tolerance() else "OUTSIDE"
    print(f"max |drift| {record.max_abs_drift():.1f} cm -> {verdict} the "
          f"+/-{record.tolerance:.1f} cm band\n")
    return record


def main() -> int:
    out_dir = ROOT / "results"
    out_dir.mkdir(exist_ok=True)
    detuned = fly(ROOT / "scenarios" / "detuned.scenario", out_dir, "detuned")
    tuned = fly(ROOT / "scenarios" / "default.scenario", out_dir, "tuned")
    if tuned.within_tolerance() and not detuned.within_tolerance():
        print("tuning closed the gap: detuned exceeds the band, tuned stays inside")
        return 0
    print("unexpected outcome; inspect the records in results/")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

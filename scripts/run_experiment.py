#!/usr/bin/env python3
"""Before/after tuning comparison on the default mission.

Flies the detuned and the tuned scenario through `pipefollow run`, prints
both drift records and writes CSV + SVG artifacts under results/.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pipefollow import cli  # noqa: E402


def main(out_dir: Path = ROOT / "results") -> int:
    out_dir.mkdir(exist_ok=True)
    codes = []
    for label, scenario in (("detuned", "detuned"), ("tuned", "default")):
        csv = out_dir / f"{label}.csv"
        csv.unlink(missing_ok=True)
        scenario_path = ROOT / "scenarios" / f"{scenario}.scenario"
        codes.append(cli.main(["run", "--scenario", str(scenario_path), "--out", str(csv),
                               "--plot", str(out_dir / f"{label}.svg")]))
        if not csv.exists():   # no record: the CLI has said why
            return 1
        print(f"--- {label} ---\n{csv.read_text()}")
    # exit 1: the detuned drift exceeds the tolerance; exit 0: the tuned drift stays inside
    if codes == [1, 0]:
        print("tuning closed the gap: detuned exceeds the band, tuned stays inside")
        return 0
    print(f"unexpected outcome; inspect the records in {out_dir}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

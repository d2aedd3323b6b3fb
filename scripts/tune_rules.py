#!/usr/bin/env python3
"""Produce scenarios/tuned.rules.

Polishes a hand-roughed membership profile with coordinate descent over a
suite of perturbed starts (heading and lateral offsets around the default
mission).  Deterministic: rerunning regenerates the identical file.
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pipefollow import fis, sim  # noqa: E402

BUDGET = 400


def build_suite(base: sim.Scenario):
    start = base.start
    return [
        base,
        replace(base, start=replace(start, heading=start.heading - 4.0)),
        replace(base, start=replace(start, heading=start.heading + 4.0)),
        replace(base, start=replace(start, x=start.x - 4.0)),
        replace(base, start=replace(start, x=start.x + 4.0)),
    ]


def hand_profile(rb):
    """Rough starting point: narrow Left/Right, wide Center on the line inputs.

    Keeps the per-cycle correction gentle enough that the five open-loop
    steps commanded from a single capture do not over-rotate.
    """
    params = dict(fis.term_parameters(rb))
    for var in ("x5", "x6"):
        params[(var, "Left")] = (0.12, 0.1)
        params[(var, "Right")] = (0.12, 1.0)
        params[(var, "Center")] = (0.25, 0.55)
    return params


def tuned_rules_text() -> str:
    """The content of scenarios/tuned.rules; prints the objective before and after."""
    base = sim.load_scenario(ROOT / "scenarios" / "default.scenario")
    suite = build_suite(base)
    rb = fis.default_rulebase()
    init = hand_profile(rb)
    result = sim.tune(suite, init, budget=BUDGET)
    print(f"initial objective: {result.initial_objective}")
    print(f"tuned objective:   {result.best_objective}  ({result.evaluations} evaluations)")
    tuned = fis.with_term_parameters(rb, result.params)
    header = ("# Tuned rule base produced by scripts/tune_rules.py "
              f"(budget {BUDGET}).\n# Do not edit by hand; rerun the script instead.\n")
    return header + fis.format_rulebase(tuned)


def main() -> int:
    out = ROOT / "scenarios" / "tuned.rules"
    out.write_text(tuned_rules_text())
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

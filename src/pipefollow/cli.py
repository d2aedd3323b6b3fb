"""Command-line front end.

Exit codes: 0 mission complete and inside tolerance, 1 mission failure,
tolerance exceeded or a tuning run no evaluation of which flew every
scenario, 2 usage or file/parse errors.  Data goes to stdout when
no output path is given; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import fis, netpbm, sim
from .features import extract_features
from .imgproc import NoObjectError


def _diag(message: str) -> None:
    print(f"pipefollow: {message}", file=sys.stderr)


def _write_output(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _number(kind, accept, what: str):
    """argparse type: text that kind (int, float or a parser) reads to a value accept() holds
    for."""
    def parse(text: str):
        try:
            value = kind(text)
        except (TypeError, ValueError):   # TypeError: a pose of other than three numbers
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
    return parse


_tolerance = _number(float, lambda v: 0 < v < math.inf, "a positive finite number")
_whole = _number(int, lambda v: v >= 0, "a whole number >= 0")
# a pose as a failure message prints it; like every pose a mission flies, within the world
_pose = _number(lambda text: sim.AuvState(*map(float, text.split(","))),
                lambda pose: 0 <= pose.x <= sim.MAX_WORLD_CM and 0 <= pose.y <= sim.MAX_WORLD_CM,
                f"X,Y,HEADING with X and Y in 0-{sim.MAX_WORLD_CM:.0f} and a finite heading")


def _load_scenario(args) -> sim.Scenario:
    scenario = sim.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, world=replace(scenario.world, seed=args.seed))
    return scenario


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    rb = sim.read_rulebase(args.rules or scenario.rulebase_file)
    try:
        record = sim.run_mission(scenario, rb, mode=args.mode, tolerance=args.tolerance)
    except sim.MissionFailure as exc:
        _diag(str(exc))
        return 1
    csv = record.to_csv()
    _write_output(csv, args.out)
    if args.plot:
        try:   # drawn from the record as written, as `plot` would draw it
            written = sim.PathRecord.from_csv(csv, record.tolerance)
        except ValueError as exc:   # a percentage past the float range; the run exits 1
            _diag(f"{Path(args.plot).name} not written: {exc}")
        else:
            Path(args.plot).write_text(sim.plot_svg(written, scenario))
    if record.max_abs_drift() > record.tolerance:
        _diag(f"drift exceeds +/-{record.tolerance} cm tolerance "
              f"(max {record.max_abs_drift():.1f} cm)")
        return 1
    return 0


def cmd_features(args) -> int:
    # without a scenario file, the class attributes are the field defaults
    scenario = sim.load_scenario(args.scenario) if args.scenario else sim.Scenario
    try:   # a malformed image, or one too small to band, is an InputError
        vectors = sim.read_file(args.image, lambda p: extract_features(
            netpbm.read_pgm(p), scenario.thresholds, scenario.min_area))
    except NoObjectError as exc:
        _diag(f"no-object: {exc}")
        return 1
    lines = ["band,x1,x2,x3,x4,x5,x6"]
    for v in vectors:
        lines.append(f"{v.band_index}," + ",".join(f"{c:.6f}" for c in v.as_tuple()))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_infer(args) -> int:
    rb = sim.read_rulebase(args.rules)
    values = dict(zip(fis.INPUT_VARIABLES, args.values))
    try:
        result = fis.infer(rb, values)
    except ValueError as exc:
        _diag(str(exc))
        return 2
    lines = []
    for i, (alpha, rule) in enumerate(zip(result.firing_strengths, rb.rules), start=1):
        center = rb.variables[rule.consequent[0]].terms[rule.consequent[1]].center
        lines.append(f"rule {i:2d}  alpha={alpha:.6f}  center={center:6.1f}  "
                     f"{fis.format_rule(rule)}")
    if result.no_fire:
        lines.append("no rule fired; steering defaults to 90")
    lines.append(f"y' = {result.output:.3f}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_tune(args) -> int:
    scenarios = [sim.load_scenario(p) for p in args.scenario]
    rb = sim.read_rulebase(args.rules)
    result = sim.tune(scenarios, {}, args.budget, rulebase=rb)
    _diag(f"objective: max|drift| {result.initial_objective[0]:.2f} -> "
          f"{result.best_objective[0]:.2f} cm in {result.evaluations} evaluations")
    if result.best_objective[0] == math.inf:
        _diag("no evaluation flew every scenario to a record; no rule base written")
        return 1
    tuned = fis.with_term_parameters(rb, result.params)
    _write_output(fis.format_rulebase(tuned), args.out)
    return 0


def cmd_render(args) -> int:
    scenario = _load_scenario(args)
    img = sim.render_view(scenario.world, args.pose or scenario.start, scenario.camera,
                          args.frame)
    netpbm.write_pgm(args.out, img)
    return 0


def cmd_plot(args) -> int:
    record = sim.read_file(args.record,
                           lambda p: sim.PathRecord.from_csv(p.read_text(), args.tolerance))
    scenario = sim.load_scenario(args.scenario) if args.scenario else None
    _write_output(sim.plot_svg(record, scenario), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipefollow",
        description="Vision-guided pipeline following: fuzzy steering over a "
                    "simulated underwater run.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="fly a mission and emit the drift record CSV")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--rules", help="rule base DSL file (overrides the scenario's)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--seed", type=_whole, help="override the scenario's noise seed")
    p.add_argument("--plot", help="also write an SVG path plot here")
    p.add_argument("--mode", choices=("sequential", "overlapped"), default="sequential",
                   help="overlapped draws each frame's noise and speckle on a worker thread "
                        "one capture ahead; the record is the same (default sequential)")
    p.add_argument("--tolerance", type=_tolerance, default=sim.DEFAULT_TOLERANCE_CM,
                   help="drift tolerance in cm (default 8.0)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("features", help="print band feature vectors for an image")
    p.add_argument("image", help="PGM (P5) or PPM (P6) input image")
    p.add_argument("--scenario", help="scenario file supplying threshold band and min area")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("infer", help="trace one fuzzy inference")
    p.add_argument("values", type=float, nargs=6, metavar="x",
                   help="feature values x1..x6")
    p.add_argument("--rules", help="rule base DSL file")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("tune", help="tune membership parameters on scenarios")
    p.add_argument("--scenario", action="append", required=True,
                   help="scenario file (repeatable)")
    p.add_argument("--rules", help="initial rule base DSL file")
    p.add_argument("--budget", type=_number(int, lambda v: v >= 1, "a whole number >= 1"),
                   default=200, help="objective evaluations")
    p.add_argument("--out", help="output path for the tuned rule base DSL")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("render", help="render the camera view from the start pose or --pose")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--seed", type=_whole, help="override the scenario's noise seed")
    p.add_argument("--frame", type=_whole, default=0,
                   help="frame index that seeds the noise (default 0)")
    p.add_argument("--pose", type=_pose, help="X,Y,HEADING to render from, as a mission "
                   "failure prints it (default the scenario's start)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("plot", help="plot a drift record CSV as SVG")
    p.add_argument("record", help="PathRecord CSV file")
    p.add_argument("--scenario", help="scenario file for envelope/step geometry")
    p.add_argument("--out", help="output SVG path (default stdout)")
    p.add_argument("--tolerance", type=_tolerance, default=sim.DEFAULT_TOLERANCE_CM)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (sim.InputError, OSError) as exc:
        _diag(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: their inputs, the timed unit, and output checks.

Every workload draws its inputs from (seed, unit index) alone, so the same
seed replays the same units.  ``run`` performs one unit and returns its
output with one latency sample per work item; ``check`` re-derives what the
outputs must satisfy outside the timed region; ``golden`` returns the
outputs of the first units of the default seed in the form stored in
golden.json.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pipefollow import features, fis, netpbm, sim

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0
WARMUP_UNIT = 2**32 - 1     # an index the timed loop never reaches
MODES = ("sequential", "overlapped")


@dataclass
class Outcome:
    output: object       # what the unit produced; equal outputs mean equal behaviour
    samples: list        # seconds, one per work item
    elapsed: float       # seconds for the whole unit


class Survey:
    """Closed-loop missions over the 21-waypoint sine bend, 9 frames each."""

    item = "mission"
    golden_key = "survey"
    golden_units = 2

    def __init__(self, mode: str):
        self.mode = mode

    def setup(self) -> None:
        self.base = sim.load_scenario(DATA / "survey.scenario")
        self.rb = sim.load_rulebase(self.base)

    def unit(self, seed: int, index: int) -> sim.Scenario:
        """A fresh noise seed and a start within 2 cm and 3 degrees of the pipe."""
        rng = np.random.default_rng([seed, index])
        base = self.base
        start = replace(base.start, x=base.start.x + rng.uniform(-2.0, 2.0),
                        heading=base.start.heading + rng.uniform(-3.0, 3.0))
        world = replace(base.world, seed=int(rng.integers(0, 2**31)))
        return replace(base, world=world, start=start)

    def fly(self, scenario: sim.Scenario, mode: str) -> str:
        try:
            return sim.run_mission(scenario, self.rb, mode).to_csv()
        except sim.MissionFailure as exc:
            return f"failure: {exc}"

    def run(self, scenario) -> Outcome:
        start = time.perf_counter()
        record = self.fly(scenario, self.mode)
        elapsed = time.perf_counter() - start
        return Outcome(record, [elapsed], elapsed)

    def check(self, units, outputs) -> list:
        """Every mission recorded points; every other one matches the other mode byte for byte.

        Re-flying only every other mission keeps the untimed check at half the
        timed loop.
        """
        other = MODES[1 - MODES.index(self.mode)]
        errors = []
        for i, (scenario, record) in enumerate(zip(units, outputs)):
            if record.count("\n") < 2:     # a failure, or a header without points
                errors.append((i, f"no record: {record.strip()}"))
            elif i % 2 == 0 and self.fly(scenario, other) != record:
                errors.append((i, f"{other} record differs from {self.mode}"))
        return errors

    def golden(self) -> dict:
        return {mode: [hashlib.sha256(self.fly(self.unit(DEFAULT_SEED, i), mode).encode())
                       .hexdigest() for i in range(self.golden_units)]
                for mode in MODES}


class _TimedSuite(tuple):
    """The tuning suite; notes the time whenever an evaluation iterates over it."""

    def __iter__(self):
        self.marks.append(time.perf_counter())
        return super().__iter__()


def build_suite(base: sim.Scenario) -> list:
    """The five-scenario suite of scripts/tune_rules.py: heading and lateral offsets."""
    start = base.start
    return [
        base,
        replace(base, start=replace(start, heading=start.heading - 4.0)),
        replace(base, start=replace(start, heading=start.heading + 4.0)),
        replace(base, start=replace(start, x=start.x - 4.0)),
        replace(base, start=replace(start, x=start.x + 4.0)),
    ]


def hand_profile(rb) -> dict:
    """The tuner's starting point in scripts/tune_rules.py."""
    params = dict(fis.term_parameters(rb))
    for var in ("x5", "x6"):
        params[(var, "Left")] = (0.12, 0.1)
        params[(var, "Right")] = (0.12, 1.0)
        params[(var, "Center")] = (0.25, 0.55)
    return params


class Tune:
    """sim.tune calls at a fixed budget; a work item is one objective evaluation."""

    item = "evaluation"
    golden_key = "tune"
    golden_units = 1
    budget = 10

    def setup(self) -> None:
        self.suite = build_suite(sim.load_scenario(DATA / "tune.scenario"))
        self.rb = fis.default_rulebase()
        self.init = hand_profile(self.rb)

    def unit(self, seed: int, index: int) -> dict:
        """The hand profile with each center moved up to 2% and width up to 5%."""
        rng = np.random.default_rng([seed, index])
        params = {}
        for (var, term), (width, center) in sorted(self.init.items()):
            lo, hi = self.rb.variables[var].universe
            shift = rng.uniform(-0.02, 0.02) * (hi - lo)
            params[(var, term)] = (width * rng.uniform(0.95, 1.05),
                                   min(max(center + shift, lo), hi))
        return params

    def run(self, params) -> Outcome:
        suite = _TimedSuite(self.suite)
        suite.marks = []
        start = time.perf_counter()
        result = sim.tune(suite, params, budget=self.budget)
        end = time.perf_counter()
        if len(suite.marks) != result.evaluations:
            raise RuntimeError(f"tune reported {result.evaluations} evaluations but iterated "
                               f"the suite {len(suite.marks)} times; the tune workload times "
                               "one evaluation per iteration")
        marks = suite.marks + [end]
        return Outcome(result, [b - a for a, b in zip(marks, marks[1:])], end - start)

    def objective(self, params) -> tuple:
        return sim.mission_objective(self.suite, fis.with_term_parameters(self.rb, params))

    def check(self, units, outputs) -> list:
        """The budget is spent, nothing got worse, and both objectives re-evaluate exactly."""
        errors = []
        for i, (params, result) in enumerate(zip(units, outputs)):
            if result.evaluations != self.budget:
                errors.append((i, f"{result.evaluations} evaluations, budget {self.budget}"))
            if not math.isfinite(result.initial_objective[0]):
                errors.append((i, "a suite mission failed at the starting point"))
            if result.best_objective > result.initial_objective:
                errors.append((i, "best objective is worse than the initial one"))
            if self.objective(params) != result.initial_objective:
                errors.append((i, "initial objective does not re-evaluate"))
            if self.objective(result.params) != result.best_objective:
                errors.append((i, "best objective does not re-evaluate"))
        return errors

    def golden(self) -> dict:
        result = self.run(self.unit(DEFAULT_SEED, 0)).output
        return {
            "params": [[var, term, width, center]
                       for (var, term), (width, center) in sorted(result.params.items())],
            "initial_objective": list(result.initial_objective),
            "best_objective": list(result.best_objective),
            "evaluations": result.evaluations,
        }


class Perceive:
    """PGM frames of a cluttered seabed read back through features and inference."""

    item = "frame"
    golden_key = "perceive"
    golden_units = 3
    frames = 24

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.base = sim.load_scenario(DATA / "perceive.scenario")
        self.rb = sim.load_rulebase(self.base)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.paths = []
        self.pixels = []
        for i in range(self.frames):
            path, img = self.render(self.seed, i)
            self.paths.append(path)
            self.pixels.append(img.pixels)

    def render(self, seed: int, index: int):
        """Frame `index` of the seed, written as PGM: a pose near the pipe on cluttered seabed."""
        rng = np.random.default_rng([seed, index])
        world = replace(self.base.world, seed=int(rng.integers(0, 2**31)))
        y = rng.uniform(5.0, 60.0)
        ahead = sim.pipeline_x_at(world, y + 10.0) - sim.pipeline_x_at(world, y)
        heading = 90.0 + math.degrees(math.atan2(ahead, 10.0)) + rng.uniform(-8.0, 8.0)
        pose = sim.AuvState(sim.pipeline_x_at(world, y) + rng.uniform(-5.0, 5.0), y, heading)
        # a fixed third are 640x480; within each size, speckle levels are spread
        # evenly over [0.005, 0.05] so every seed gets the same mix of clutter
        group, slot = divmod(index, 3)
        large = slot == 2
        stratum, strata = (group, self.frames // 3) if large else (2 * group + slot,
                                                                   2 * self.frames // 3)
        speckle = 0.005 + 0.045 * (stratum + 0.5) / strata
        camera = replace(self.base.camera,
                         image_width=640 if large else 320, image_height=480 if large else 240,
                         noise_amplitude=int(rng.integers(30, 46)), speckle_density=speckle)
        img = sim.render_view(world, pose, camera, frame=index)
        path = self.workdir / f"seed{seed}-frame{index}.pgm"
        netpbm.write_pgm(path, img)
        return path, img

    def unit(self, seed: int, index: int) -> int:
        return index % self.frames

    def process(self, path) -> tuple:
        img = netpbm.read_pgm(path)
        vectors = features.extract_features(img, self.base.thresholds, self.base.min_area)
        steers = tuple(fis.infer(self.rb, v.as_dict()).output for v in vectors)
        return tuple(v.as_tuple() for v in vectors), steers

    def run(self, frame: int) -> Outcome:
        start = time.perf_counter()
        try:
            output = self.process(self.paths[frame])
        except features.NoObjectError as exc:
            output = f"failure: {exc}"
        elapsed = time.perf_counter() - start
        return Outcome(output, [elapsed], elapsed)

    def check(self, units, outputs) -> list:
        """Pixels survive the PGM round trip; a frame gives the same result every time."""
        errors = []
        first = {}
        for i, (frame, output) in enumerate(zip(units, outputs)):
            if isinstance(output, str):
                errors.append((i, output))
                continue
            if frame not in first:
                first[frame] = output
                if not np.array_equal(netpbm.read_pgm(self.paths[frame]).pixels,
                                      self.pixels[frame]):
                    errors.append((i, f"frame {frame} changed in the PGM round trip"))
                vectors, steers = output
                if not all(0.1 <= x <= 1.0 for v in vectors for x in v):
                    errors.append((i, f"frame {frame} has a feature outside [0.1, 1.0]"))
                if not all(0.0 <= s <= 180.0 for s in steers):
                    errors.append((i, f"frame {frame} has a steer outside [0, 180]"))
            elif output != first[frame]:
                errors.append((i, f"frame {frame} gave a different result on a repeat"))
        return errors

    def golden(self) -> dict:
        records = []
        for i in range(self.golden_units):
            vectors, steers = self.process(self.render(DEFAULT_SEED, i)[0])
            records.append({"features": [list(v) for v in vectors], "steers": list(steers)})
        return {"frames": records}


WORKLOADS = {
    "survey": lambda seed, workdir: Survey("sequential"),
    "survey-overlapped": lambda seed, workdir: Survey("overlapped"),
    "tune": lambda seed, workdir: Tune(),
    "perceive": Perceive,
}

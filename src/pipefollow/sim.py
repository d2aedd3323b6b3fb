"""Deterministic closed-loop mission simulator.

A camera flies above a seabed plane at a fixed height, tilted down along the
vehicle heading, and renders the pipeline polyline in perspective.  Each
captured image is split into 5 bands whose feature vectors each drive one of
the next 5 steps; per-step lateral drift against the pipeline centerline is
recorded together with its percentage of the drift tolerance.

All randomness (seabed noise, speckle) comes from a generator seeded by
(world seed, frame index), so identical scenarios replay bit-exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from pathlib import Path

import numpy as np

from . import features, fis
from .features import NUM_BANDS, split_bands
from .imgproc import GrayImage, NoObjectError, ThresholdBand

DEFAULT_TOLERANCE_CM = 8.0
CSV_HEADER = "step,actual_x_cm,sim_x_cm,drift_cm,pct_drift"


class EnvelopeExitError(Exception):
    """A step carried the vehicle outside the working envelope."""


class MissionFailure(Exception):
    """A mission that ended without a record, with the frame and pose it ended at."""

    def __init__(self, reason: str, step: int, detail: str, frame: int, pose: AuvState):
        super().__init__(f"mission failed at step {step}: {reason} ({detail}); frame {frame}, "
                         f"pose x={pose.x:.1f} y={pose.y:.1f} heading={pose.heading:.1f}")
        self.reason = reason
        self.step = step
        self.frame = frame
        self.pose = pose


class ScenarioError(Exception):
    """Scenario file rejected; message names the file and line."""


@dataclass(frozen=True)
class World:
    envelope: tuple = (150.0, 200.0)   # (width along x, depth along y), cm
    pipeline: tuple = ()               # ((x, y), ...) waypoints, strictly increasing y
    pipe_width: float = 10.0           # cm
    seed: int = 0

    def __post_init__(self):
        ex, ey = self.envelope
        if not all(math.isfinite(v) and v > 0 for v in (ex, ey)):
            raise ValueError("envelope dimensions must be positive and finite")
        if len(self.pipeline) < 2:
            raise ValueError("pipeline needs at least 2 waypoints")
        for x, y in self.pipeline:
            if not (0 <= x <= ex and 0 <= y <= ey):
                raise ValueError(f"waypoint ({x}, {y}) outside envelope")
        ys = [y for _, y in self.pipeline]
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("waypoint y coordinates must be strictly increasing")
        # the render divides by each segment's squared length
        if any((b - a) * (b - a) == 0.0 for a, b in zip(ys, ys[1:])):
            raise ValueError("consecutive waypoints are too close: a squared segment "
                             "length underflows to 0")
        if not (math.isfinite(self.pipe_width) and self.pipe_width > 0):
            raise ValueError("pipe width must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class CameraModel:
    height_cm: float = 40.0
    tilt_deg: float = 30.0             # down from horizontal
    fov_deg: float = 60.0              # horizontal field of view
    image_width: int = 320
    image_height: int = 240
    pipe_intensity: int = 220
    seabed_intensity: int = 80
    noise_amplitude: int = 30
    speckle_density: float = 0.005

    def __post_init__(self):
        if not 0 < self.tilt_deg < 90:
            raise ValueError("tilt must be in (0, 90) degrees")
        if not 10 < self.fov_deg < 170:
            raise ValueError("fov must be in (10, 170) degrees")
        for name in ("pipe_intensity", "seabed_intensity"):
            v = getattr(self, name)
            if not 0 <= v <= 255:
                raise ValueError(f"{name} must be in 0-255")
        if not (math.isfinite(self.height_cm) and self.height_cm > 0):
            raise ValueError("camera height must be positive and finite")
        if not 0 <= self.speckle_density < 1:
            raise ValueError("speckle density must be in [0, 1)")
        if self.noise_amplitude < 0:
            raise ValueError("noise amplitude must be >= 0")
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be >= 1")


@dataclass(frozen=True)
class AuvState:
    x: float
    y: float
    heading: float   # degrees; 90 points along +y, larger values lean toward +x


@dataclass(frozen=True)
class PathPoint:
    step: int
    actual_x: float
    sim_x: float
    drift: float       # cm, signed, rounded half-up to 1 decimal
    pct_drift: float   # 100*|drift|/tolerance, half-up to 1 decimal


@dataclass(frozen=True)
class PathRecord:
    points: tuple
    tolerance: float

    def max_abs_drift(self) -> float:
        return max((abs(p.drift) for p in self.points), default=0.0)

    def within_tolerance(self) -> bool:
        return all(abs(p.drift) <= self.tolerance for p in self.points)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for p in self.points:
            lines.append(f"{p.step},{p.actual_x:.1f},{p.sim_x:.1f},"
                         f"{p.drift:+.1f},{p.pct_drift:.1f}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, tolerance: float = DEFAULT_TOLERANCE_CM) -> "PathRecord":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != CSV_HEADER:
            raise ValueError(f"missing CSV header {CSV_HEADER!r}")
        if len(lines) == 1:
            raise ValueError("CSV body is empty")
        points = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 5:
                raise ValueError(f"malformed CSV row: {ln!r}")
            try:
                numbers = [float(part) for part in parts[1:]]
                points.append(PathPoint(int(parts[0]), *numbers))
            except ValueError:
                raise ValueError(f"non-numeric CSV row: {ln!r}") from None
            if not all(math.isfinite(v) for v in numbers):
                raise ValueError(f"non-finite CSV row: {ln!r}")
        return cls(tuple(points), tolerance)


def plot_svg(record: PathRecord, envelope=(150.0, 200.0),
             step_length: float = 22.5, start_y: float = 0.0) -> str:
    """Deterministic top-down SVG: envelope, tolerance band, centerline, path.

    Path point k is drawn at the nominal along-track station
    start_y + k * step_length.
    """
    scale, margin = 3.0, 20.0
    width = envelope[0] * scale + 2 * margin
    height = envelope[1] * scale + 2 * margin

    def px(x):
        return margin + x * scale

    def py(y):
        return height - margin - y * scale

    ys = [start_y + p.step * step_length for p in record.points]
    tol = record.tolerance
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="{px(0):.2f}" y="{py(envelope[1]):.2f}" '
        f'width="{envelope[0] * scale:.2f}" height="{envelope[1] * scale:.2f}" '
        f'fill="white" stroke="black"/>',
    ]
    band = [(p.actual_x - tol, y) for p, y in zip(record.points, ys)]
    band += [(p.actual_x + tol, y) for p, y in reversed(list(zip(record.points, ys)))]
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in band)
    parts.append(f'<polygon points="{pts}" fill="#cfe3f5" stroke="none"/>')
    pipe = " ".join(f"{px(p.actual_x):.2f},{py(y):.2f}" for p, y in zip(record.points, ys))
    parts.append(f'<polyline points="{pipe}" fill="none" stroke="#004080" stroke-width="2"/>')
    for p, y in zip(record.points, ys):
        parts.append(f'<circle cx="{px(p.sim_x):.2f}" cy="{py(y):.2f}" r="4" fill="#c22"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass(frozen=True)
class Scenario:
    world: World
    camera: CameraModel = CameraModel()
    thresholds: ThresholdBand = ThresholdBand(180, 255)
    min_area: int = 25
    rulebase_file: str = ""            # empty -> built-in default rule base
    steering_gain: float = 0.5         # degrees of heading change per steering unit
    step_length: float = 22.5          # cm
    steps_per_image: int = 5
    start: AuvState = AuvState(0.0, 0.0, 90.0)

    def __post_init__(self):
        if not (math.isfinite(self.step_length) and self.step_length > 0):
            raise ValueError("step length must be positive and finite")
        if not math.isfinite(self.steering_gain):
            raise ValueError("steering gain must be finite")
        if self.steps_per_image < 1:
            raise ValueError("steps per image must be >= 1")
        if self.min_area < 0:
            raise ValueError("minimum region area must be >= 0")
        split_bands(self.camera.image_width, self.camera.image_height)   # rejects too small
        ex, ey = self.world.envelope
        if not (0 <= self.start.x <= ex and 0 <= self.start.y <= ey):
            raise ValueError("start position outside envelope")
        # drift is measured against the pipeline, which begins at the first waypoint
        if self.start.y < self.world.pipeline[0][1]:
            raise ValueError(f"start y={self.start.y} lies below the first waypoint's "
                             f"y={self.world.pipeline[0][1]}")
        if not math.isfinite(self.start.heading):
            raise ValueError("start heading must be finite")


# --- geometry ----------------------------------------------------------------

def heading_vector(heading_deg: float) -> tuple:
    rad = math.radians(heading_deg - 90.0)
    return math.sin(rad), math.cos(rad)


def _camera_basis(auv: AuvState, cam: CameraModel):
    dx, dy = heading_vector(auv.heading)
    t = math.radians(cam.tilt_deg)
    right = np.array([dy, -dx, 0.0])
    forward = np.array([dx * math.cos(t), dy * math.cos(t), -math.sin(t)])
    up = np.array([dx * math.sin(t), dy * math.sin(t), math.cos(t)])
    origin = np.array([auv.x, auv.y, cam.height_cm])
    return origin, right, up, forward


def focal_px(cam: CameraModel) -> float:
    return (cam.image_width / 2.0) / math.tan(math.radians(cam.fov_deg) / 2.0)


def image_center(cam: CameraModel) -> tuple:
    return (cam.image_width - 1) / 2.0, (cam.image_height - 1) / 2.0


RENDER_TILE = 16   # side in pixels of the square tiles segments are culled by


def _pipe_mask(world: World, auv: AuvState, cam: CameraModel) -> np.ndarray:
    """Pixels whose ray meets the seabed within half a pipe width of the polyline.

    Tiles are culled by the ground points of their 4 corner pixels.  The ray
    terms a and b are monotone in the column and the row, so a tile's rays
    lie in the rectangle of its corner rays.  Below the horizon the map from
    (a, b) to the seabed is projective with a denominator that keeps its
    sign, so in exact arithmetic every ground point of a tile lies in the
    convex quad of its corners' ground points.

    The computed points differ from exact ones by rounding.  With unit
    roundoff u and per tile the largest ray length T, |a|, |b| at most amax,
    bmax and M = 1 + amax + bmax (every basis component is at most 1):
    - the ray's vertical component cancels near the horizon, so the computed
      T carries a relative error of at most (k + 2)u, where
      k = bmax * T / height is the cancellation factor;
    - (forward + a*right) + b*up is off by at most 3uM, the product with t
      and the addition of the origin add u(T*M + |origin|).
    A computed ground point is thus within u(|origin| + T*M*(k + 7)) of the
    exact one.  A tile's pixels lie within twice that of the corners' box,
    which the widening 32u(|origin| + T*M*(1 + k)), 32u = 2**-48, exceeds
    with room for second-order terms, so a culled tile holds no pixel the full raster would mark.
    """
    origin, right, up, forward = _camera_basis(auv, cam)
    h, w = cam.image_height, cam.image_width
    f = focal_px(cam)
    cx, cy = image_center(cam)
    a = (np.arange(w) - cx) / f
    b = (cy - np.arange(h)) / f
    # right[2] is 0.0, so a ray's vertical component, the ground test and the
    # ray length depend on the row alone
    dz = forward[2] + b * up[2]
    rows = np.flatnonzero(dz < -1e-12)   # rays above the horizon never hit the seabed
    # Ray terms tile by tile, shape (tile rows or tile columns, tile).  The
    # last ground row and last column repeat up to whole tiles, which leaves
    # every tile's ground points as they are.
    tile = RENDER_TILE
    nty, ntx = -(-rows.size // tile), -(-w // tile)
    r = rows[np.minimum(np.arange(nty * tile), rows.size - 1)].reshape(nty, tile)
    c = np.minimum(np.arange(ntx * tile), w - 1).reshape(ntx, tile)
    t = -origin[2] / dz[r]
    col_x, col_y = forward[0] + a[c] * right[0], forward[1] + a[c] * right[1]
    row_x, row_y = b[r] * up[0], b[r] * up[1]
    ends = [0, -1]
    t_end = t[:, ends, None, None]
    gx = origin[0] + t_end * (col_x[None, None, :, ends] + row_x[:, ends, None, None])
    gy = origin[1] + t_end * (col_y[None, None, :, ends] + row_y[:, ends, None, None])
    big_t = t.max(axis=1)[:, None]
    amax, bmax = float(np.abs(a).max()), float(np.abs(b).max())
    slack = 2.0 ** -48 * (abs(origin[0]) + abs(origin[1])
                          + big_t * (1.0 + amax + bmax) * (1.0 + bmax * big_t / origin[2]))
    x_lo, x_hi = (gx.min(axis=(1, 3)) - slack).ravel(), (gx.max(axis=(1, 3)) + slack).ravel()
    y_lo, y_hi = (gy.min(axis=(1, 3)) - slack).ravel(), (gy.max(axis=(1, 3)) + slack).ravel()
    half = world.pipe_width / 2.0
    r2 = half ** 2
    # Rounding moves a computed distance by a few ulps of the coordinates; a
    # culled tile lies farther than that beyond the pipe's half width.
    reach = half + 1e-9 * (half + max(abs(v) for point in world.pipeline for v in point))
    hit = np.zeros((nty * ntx, tile, tile), dtype=bool)
    for (px, py), (qx, qy) in zip(world.pipeline, world.pipeline[1:]):
        near = np.flatnonzero((x_lo <= max(px, qx) + reach) & (x_hi >= min(px, qx) - reach)
                              & (y_lo <= max(py, qy) + reach) & (y_hi >= min(py, qy) - reach))
        if near.size == 0:
            continue
        ty, tx = np.divmod(near, ntx)
        tn = t[ty, :, None]
        sx = origin[0] + tn * (col_x[tx, None, :] + row_x[ty, :, None])
        sy = origin[1] + tn * (col_y[tx, None, :] + row_y[ty, :, None])
        wx, wy = qx - px, qy - py
        length2 = wx * wx + wy * wy
        s = np.clip(((sx - px) * wx + (sy - py) * wy) / length2, 0.0, 1.0)
        dx = sx - (px + s * wx)
        dy = sy - (py + s * wy)
        hit[near] |= dx * dx + dy * dy <= r2
    pipe = np.zeros((h, w), dtype=bool)
    pipe[rows] = hit.reshape(nty, ntx, tile, tile).transpose(0, 2, 1, 3).reshape(
        nty * tile, ntx * tile)[:rows.size, :w]
    return pipe


def render_view(world: World, auv: AuvState, cam: CameraModel, frame: int = 0) -> GrayImage:
    """Perspective view of the pipeline on the seabed from the vehicle pose.

    Every pixel's ray is intersected with the seabed plane; ground points
    within half a pipe width of the polyline render at pipe intensity.
    Uniform intensity noise and pipe-bright speckle are then drawn from a
    generator seeded by (world.seed, frame).

    Each segment's ground points and distances are computed only on the
    RENDER_TILE-square tiles whose ground bounding box, bounded from the
    tile's corner pixels (see _pipe_mask), comes within reach of the
    segment's bounding box, yet the pixels equal a full-raster pass
    (tests/oracles.py) bit for bit, because:
    - a pixel is pipe when the minimum of its squared segment distances is
      at most the squared half width, which is the OR of the per-segment
      tests, since a minimum returns one of its operands (none is NaN:
      ground points are finite and World keeps segment lengths positive);
    - IEEE elementwise operations give the same bits on a gathered subset
      of pixels as on the full raster, in the same operation order;
    - the noise and speckle draws come from the generator in the same order;
      an int32 noise draw returns the same values as an int64 one and leaves
      the generator in the same state, and intensities stay within int32.
    """
    h, w = cam.image_height, cam.image_width
    pipe = _pipe_mask(world, auv, cam)
    img = np.where(pipe, np.int32(cam.pipe_intensity), np.int32(cam.seabed_intensity))
    rng = np.random.default_rng((world.seed, frame))
    if cam.noise_amplitude > 0:
        img += rng.integers(-cam.noise_amplitude, cam.noise_amplitude + 1, size=(h, w),
                            dtype=np.int32)
        np.clip(img, 0, 255, out=img)
    img = img.astype(np.uint8)
    if cam.speckle_density > 0:
        img[rng.random((h, w)) < cam.speckle_density] = cam.pipe_intensity
    return GrayImage(img)


# --- vehicle kinematics -------------------------------------------------------

def step_auv(state: AuvState, steer: float, scenario: Scenario) -> AuvState:
    """Apply one steering command and advance one step length.

    The set point maps to a heading change of gain*(steer - 90) degrees; the
    vehicle then advances along the new heading.  Raises EnvelopeExitError if
    the step leaves the working area.
    """
    if not 0.0 <= steer <= 180.0:
        raise ValueError(f"steering set point {steer} outside [0, 180]")
    heading = state.heading + scenario.steering_gain * (steer - 90.0)
    dx, dy = heading_vector(heading)
    x = state.x + scenario.step_length * dx
    y = state.y + scenario.step_length * dy
    ex, ey = scenario.world.envelope
    if not (0.0 <= x <= ex and 0.0 <= y <= ey):
        raise EnvelopeExitError(f"({x:.1f}, {y:.1f}) outside {ex:.0f} x {ey:.0f} envelope")
    return AuvState(x, y, heading)


# --- drift accounting ---------------------------------------------------------

def pipeline_x_at(world: World, y: float) -> float:
    """Pipeline centerline x at the given y, linearly interpolated."""
    ys = np.array([wy for _, wy in world.pipeline])
    xs = np.array([wx for wx, _ in world.pipeline])
    if y < ys[0] - 1e-9 or y > ys[-1] + 1e-9:
        raise ValueError(f"y={y:.2f} outside pipeline span [{ys[0]:.2f}, {ys[-1]:.2f}]")
    return float(np.interp(y, ys, xs))


def _round1(value: float) -> float:
    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def pct_of_drift(drift: float, tolerance: float) -> float:
    """100*|drift|/tolerance rounded half-up to one decimal."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    q = Decimal(repr(abs(drift))) * 100 / Decimal(repr(tolerance))
    return float(q.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def drift_metrics(path, world: World, tolerance: float = DEFAULT_TOLERANCE_CM) -> PathRecord:
    """Per-point drift (signed, 1 decimal) and percentage-of-tolerance."""
    points = []
    for i, state in enumerate(path, start=1):
        actual = pipeline_x_at(world, state.y)
        drift = _round1(state.x - actual)
        points.append(PathPoint(i, actual, state.x, drift, pct_of_drift(drift, tolerance)))
    return PathRecord(tuple(points), tolerance)


# --- mission loop -------------------------------------------------------------

def _capture(scenario: Scenario, auv: AuvState, frame: int, captures: dict) -> tuple:
    """The frame's 5 band feature vectors, rendered and segmented once per captures dict.

    The key holds everything the vectors depend on, compared exactly, so only
    a bit-identical capture is reused.  Only the vectors are kept, and a
    capture that raises NoObjectError is not stored.
    """
    key = (scenario.world, scenario.camera, scenario.thresholds, scenario.min_area, auv, frame)
    vectors = captures.get(key)
    if vectors is None:
        img = render_view(scenario.world, auv, scenario.camera, frame)
        vectors = captures[key] = tuple(features.extract_features(img, scenario.thresholds,
                                                                   scenario.min_area))
    return vectors


def _band_steer(rb, vector) -> float:
    return fis.infer(rb, vector.as_dict()).output


def run_mission(scenario: Scenario, rb, mode: str = "sequential",
                tolerance: float = DEFAULT_TOLERANCE_CM,
                captures: dict | None = None) -> PathRecord:
    """Fly the pipeline: capture, infer a steer per band, step steps_per_image times.

    Steps past the 5th reuse band 5's steer, and only the bands a capture
    steers are inferred.  A step is taken only while its nominal landing stays
    within the pipeline span, so every recorded point has a defined centerline
    reference.  In "overlapped" mode a capture's steers are inferred on worker
    threads; outputs are identical to sequential mode by construction.

    Band features come from `captures`, a dict the caller may share between
    missions so that identical captures are rendered once; without one the
    mission uses a fresh dict.  A mission that records no point fails with
    "no-points".  One that takes more than twice the steps a straight run
    along the remaining span would need (less than half a step length of
    along-track progress per step) fails with "no-progress".  A step that
    lands below the first waypoint, where drift has no reference, fails with
    "behind-start".  A failure carries the last capture's frame and the pose.
    """
    if mode not in ("sequential", "overlapped"):
        raise ValueError(f"unknown mode {mode!r}")
    captures = {} if captures is None else captures
    auv = scenario.start
    first_y, far_y = scenario.world.pipeline[0][1], scenario.world.pipeline[-1][1]
    max_steps = math.ceil(2.0 * (far_y - auv.y) / scenario.step_length)
    steer = partial(_band_steer, rb)
    pool = ThreadPoolExecutor(max_workers=NUM_BANDS) if mode == "overlapped" else None
    steer_all = map if pool is None else pool.map
    path = []
    try:
        while auv.y + scenario.step_length <= far_y + 1e-9:
            frame, i = divmod(len(path), scenario.steps_per_image)
            if i == 0:
                vectors = _capture(scenario, auv, frame, captures)
                steers = list(steer_all(steer, vectors[:scenario.steps_per_image]))
            if len(path) == max_steps:
                raise MissionFailure("no-progress", len(path) + 1,
                                     f"after {max_steps} steps y={auv.y:.1f} is still short "
                                     f"of the pipeline end at y={far_y:g}", frame, auv)
            auv = step_auv(auv, steers[min(i, NUM_BANDS - 1)], scenario)
            if auv.y < first_y - 1e-9:   # the slack pipeline_x_at allows
                raise MissionFailure("behind-start", len(path) + 1,
                                     f"y={auv.y:.1f} lies below the pipeline start "
                                     f"at y={first_y:g}", frame, auv)
            path.append(auv)
    except NoObjectError as exc:
        raise MissionFailure("no-object", len(path) + 1, str(exc), frame, auv) from exc
    except EnvelopeExitError as exc:
        raise MissionFailure("envelope-exit", len(path) + 1, str(exc), frame, auv) from exc
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    if not path:
        raise MissionFailure("no-points", 1, f"a {scenario.step_length:g} cm step from "
                             f"y={auv.y:g} passes the pipeline end at y={far_y:g}", 0, auv)
    return drift_metrics(path, scenario.world, tolerance)


# --- tuning harness -----------------------------------------------------------

@dataclass(frozen=True)
class TuneResult:
    params: dict                 # (variable, term) -> (width, center)
    initial_objective: tuple
    best_objective: tuple
    evaluations: int


def mission_objective(scenarios, rb, captures: dict | None = None) -> tuple:
    """(max |drift|, mean |drift|) over all scenario points; failure is infinite.

    `captures` is passed on to every run_mission call.
    """
    drifts = []
    for scenario in scenarios:
        try:
            record = run_mission(scenario, rb, captures=captures)
        except MissionFailure:
            return (math.inf, math.inf)
        drifts.extend(abs(p.drift) for p in record.points)
    if not drifts:
        return (math.inf, math.inf)
    return (max(drifts), sum(drifts) / len(drifts))


def tune(scenarios, init: dict, budget: int, rulebase=None) -> TuneResult:
    """Coordinate-descent search over term centers and widths.

    Each coordinate is probed one step up and down and then walked greedily
    while the objective keeps improving; a step is 5% of its variable's span
    times one scale, which halves after a sweep without progress.  Only
    improvements are ever accepted, so the result is never worse than init,
    and the whole search is deterministic.

    Evaluations only change the rule parameters, so they share one captures
    dict for the duration of the call: a capture identical to one an earlier
    evaluation flew reuses its band feature vectors instead of being rendered
    again.  Results are identical to re-flying every evaluation.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rb0 = rulebase if rulebase is not None else fis.default_rulebase()
    captures = {}
    evals = 0

    def evaluate(params):
        nonlocal evals
        evals += 1
        return mission_objective(scenarios, fis.with_term_parameters(rb0, params), captures)

    best = dict(init)
    best_obj = evaluate(best)
    initial_obj = best_obj

    spans = {var: v.universe[1] - v.universe[0] for var, v in rb0.variables.items()}
    coords = [(var, term, fld) for var in (*fis.INPUT_VARIABLES, fis.OUTPUT_VARIABLE)
              for term in rb0.variables[var].terms for fld in ("center", "width")]

    def propose(params, var, term, fld, delta):
        width, center = params[(var, term)]
        if fld == "center":
            lo, hi = rb0.variables[var].universe
            center = min(max(center + delta, lo), hi)
        else:
            width = min(max(width + delta, 0.01 * spans[var]), 2.0 * spans[var])
        if (width, center) == params[(var, term)]:
            return None
        cand = dict(params)
        cand[(var, term)] = (width, center)
        return cand

    min_step = min(spans.values()) * 0.05 / 8.0
    scale = 1.0
    while evals < budget:
        improved = False
        for coord in coords:
            if evals >= budget:
                break
            for sign in (1.0, -1.0):
                moved = False
                # walk this direction while it keeps paying off
                while evals < budget:
                    cand = propose(best, *coord, sign * (0.05 * spans[coord[0]]) * scale)
                    if cand is None:
                        break
                    obj = evaluate(cand)
                    if not obj < best_obj:
                        break
                    best, best_obj = cand, obj
                    improved = moved = True
                if moved:
                    break
        if not improved:
            if 0.05 * max(spans.values()) * scale <= min_step:
                break
            scale /= 2.0
    return TuneResult(best, initial_obj, best_obj, evals)


# --- scenario files -----------------------------------------------------------

# Each scenario key and the (part, field) it sets.  The part holds the default, and a value
# parses as an int when that default is one, else as a float (rulebase, a path, stays text).
# envelope.x/.y are the items of World.envelope; start.x/.y default to the first waypoint.
_SCENARIO_PARTS = {"world": World, "camera": Scenario.camera, "thresholds": Scenario.thresholds,
                   "scenario": Scenario, "start": Scenario.start}
_SCENARIO_KEYS = {
    "envelope.x": ("world", "envelope"), "envelope.y": ("world", "envelope"),
    "pipe.width": ("world", "pipe_width"), "seed": ("world", "seed"),
    "camera.height": ("camera", "height_cm"), "camera.tilt": ("camera", "tilt_deg"),
    "camera.fov": ("camera", "fov_deg"), "camera.image.width": ("camera", "image_width"),
    "camera.image.height": ("camera", "image_height"),
    "camera.intensity.pipe": ("camera", "pipe_intensity"),
    "camera.intensity.seabed": ("camera", "seabed_intensity"),
    "camera.noise": ("camera", "noise_amplitude"), "camera.speckle": ("camera", "speckle_density"),
    "threshold.t1": ("thresholds", "t1"), "threshold.t2": ("thresholds", "t2"),
    "minArea": ("scenario", "min_area"), "rulebase": ("scenario", "rulebase_file"),
    "step.length": ("scenario", "step_length"), "steps.per.image": ("scenario", "steps_per_image"),
    "steering.gain": ("scenario", "steering_gain"),
    "start.x": ("start", "x"), "start.y": ("start", "y"), "start.heading": ("start", "heading"),
}


def _parse_waypoints(source, line_no, value):
    waypoints = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 2:
            raise ScenarioError(f"{source} line {line_no}: waypoint {part!r} is not x:y")
        try:
            x, y = float(bits[0]), float(bits[1])
        except ValueError:
            raise ScenarioError(f"{source} line {line_no}: non-numeric waypoint "
                                f"{part!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ScenarioError(f"{source} line {line_no}: non-finite waypoint {part!r}")
        waypoints.append((x, y))
    return tuple(waypoints)


def parse_scenario(text: str, base_dir=".", source: str = "<scenario>") -> Scenario:
    values = {}
    waypoints = ()
    key_lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = fis.strip_comment(raw)
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source} line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in key_lines:
            raise ScenarioError(f"{source} line {line_no}: duplicate key {key!r} "
                                f"(first set on line {key_lines[key]})")
        key_lines[key] = line_no
        if key == "pipe.waypoints":
            waypoints = _parse_waypoints(source, line_no, value)
            continue
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"{source} line {line_no}: unknown key {key!r}")
        if key == "rulebase":
            try:
                values[key] = str((Path(base_dir) / value).resolve()) if value else ""
            except ValueError as exc:   # a NUL byte
                raise ScenarioError(f"{source} line {line_no}: rulebase path: {exc}") from None
            continue
        part, field = _SCENARIO_KEYS[key]
        kind = int if isinstance(getattr(_SCENARIO_PARTS[part], field), int) else float
        try:
            values[key] = kind(value)
        except ValueError:
            raise ScenarioError(f"{source} line {line_no}: non-numeric value for {key}") from None
        if kind is float and not math.isfinite(values[key]):
            raise ScenarioError(f"{source} line {line_no}: non-finite value for {key}")
    if not waypoints:
        raise ScenarioError(f"{source}: missing required key pipe.waypoints")

    first_x, first_y = waypoints[0]
    fields = {part: {} for part in _SCENARIO_PARTS}
    for key, value in {"start.x": first_x, "start.y": first_y, **values}.items():
        part, field = _SCENARIO_KEYS[key]
        fields[part][field] = value
    fields["world"]["envelope"] = (values.get("envelope.x", World.envelope[0]),
                                   values.get("envelope.y", World.envelope[1]))
    try:
        return Scenario(World(pipeline=waypoints, **fields["world"]),
                        camera=replace(Scenario.camera, **fields["camera"]),
                        thresholds=replace(Scenario.thresholds, **fields["thresholds"]),
                        start=replace(Scenario.start, **fields["start"]), **fields["scenario"])
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from exc
    return parse_scenario(text, base_dir=p.parent, source=p.name)


def read_rulebase(path):
    """Parse a rule base DSL file, or the built-in default for an empty or None path.

    A parse error becomes a ScenarioError naming the file.
    """
    if not path:
        return fis.default_rulebase()
    path = Path(path)
    try:
        return fis.parse_rulebase(path.read_text())
    except (fis.RuleParseError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path.name}: {exc}") from exc


def load_rulebase(scenario: Scenario):
    """Rule base referenced by the scenario, or the built-in default."""
    return read_rulebase(scenario.rulebase_file)

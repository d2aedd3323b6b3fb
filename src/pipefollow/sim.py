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
from bisect import bisect_right
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import features, fis
from .features import NUM_BANDS, split_bands
from .imgproc import GrayImage, InvariantError, NoObjectError, ThresholdBand

DEFAULT_TOLERANCE_CM = 8.0
MAX_MISSION_STEPS = 10_000          # shipped and benchmark scenarios need at most 18
MAX_NOISE_AMPLITUDE = 2**31 - 256   # keeps a noisy intensity within int32
MAX_IMAGE_PIXELS = 2**22            # 2048x2048; the largest benchmark frame is 640x480
MAX_WORLD_CM = 1e6                  # keeps the render's lengths and their squares finite
MAX_STEERING_GAIN = 1e6             # degrees per steering unit; keeps every heading finite
CSV_HEADER = "step,actual_x_cm,sim_x_cm,drift_cm,pct_drift"


class MissionFailure(Exception):
    """A mission that ended without a record, with the frame and pose it ended at."""

    def __init__(self, reason: str, step: int, detail: str, frame: int, pose: AuvState):
        super().__init__(f"mission failed at step {step}: {reason} ({detail}); frame {frame}, "
                         f"pose x={pose.x!r} y={pose.y!r} heading={pose.heading!r}")
        self.reason = reason
        self.step = step
        self.frame = frame
        self.pose = pose


class InputError(Exception):
    """A scenario, rules, record or image file was rejected.  Raised only by read_file, so
    the message always starts with the file's name (then, for a bad line, the line)."""


@dataclass(frozen=True)
class World:
    envelope: tuple = (150.0, 200.0)   # (width along x, depth along y), cm
    pipeline: tuple = ()               # ((x, y), ...) waypoints, strictly increasing y
    pipe_width: float = 10.0           # cm
    seed: int = 0

    def __post_init__(self):
        ex, ey = self.envelope
        # bounds the waypoints and the start too, which lie in the envelope
        if not all(0 < v <= MAX_WORLD_CM for v in (ex, ey)):
            raise InvariantError(f"envelope dimensions must be positive and at most "
                                 f"{MAX_WORLD_CM:.0f} cm", "envelope")
        if len(self.pipeline) < 2:
            raise InvariantError("pipeline needs at least 2 waypoints", "pipeline")
        for x, y in self.pipeline:
            if not (0 <= x <= ex and 0 <= y <= ey):
                raise InvariantError(f"waypoint ({x}, {y}) outside envelope",
                                     "envelope", "pipeline")
        ys = [y for _, y in self.pipeline]
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise InvariantError("waypoint y coordinates must be strictly increasing", "pipeline")
        # the render divides by each segment's squared length
        if any((b - a) * (b - a) == 0.0 for a, b in zip(ys, ys[1:])):
            raise InvariantError("consecutive waypoints are too close: a squared segment "
                                 "length underflows to 0", "pipeline")
        if not 0 < self.pipe_width <= MAX_WORLD_CM:
            raise InvariantError(f"pipe width must be positive and at most {MAX_WORLD_CM:.0f} cm",
                                 "pipe_width")
        if not 0 <= self.seed < math.inf:
            raise InvariantError("seed must be finite and >= 0", "seed")


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
            raise InvariantError("tilt must be in (0, 90) degrees", "tilt_deg")
        if not 10 < self.fov_deg < 170:
            raise InvariantError("fov must be in (10, 170) degrees", "fov_deg")
        for name in ("pipe_intensity", "seabed_intensity"):
            v = getattr(self, name)
            if not 0 <= v <= 255:
                raise InvariantError(f"{name} must be in 0-255", name)
        if not 0 < self.height_cm <= MAX_WORLD_CM:
            raise InvariantError(f"camera height must be positive and at most "
                                 f"{MAX_WORLD_CM:.0f} cm", "height_cm")
        if not 0 <= self.speckle_density < 1:
            raise InvariantError("speckle density must be in [0, 1)", "speckle_density")
        if not 0 <= self.noise_amplitude <= MAX_NOISE_AMPLITUDE:
            raise InvariantError(f"noise amplitude must be in 0-{MAX_NOISE_AMPLITUDE}",
                                 "noise_amplitude")
        if not (self.image_width >= 1 and self.image_height >= 1):
            raise InvariantError("image dimensions must be >= 1", "image_width", "image_height")
        if not self.image_width * self.image_height <= MAX_IMAGE_PIXELS:
            raise InvariantError(f"a {self.image_width}x{self.image_height} image has more "
                                 f"than {MAX_IMAGE_PIXELS} pixels", "image_width", "image_height")


@dataclass(frozen=True)
class AuvState:
    x: float
    y: float
    heading: float   # degrees; 90 points along +y, larger values lean toward +x

    def __post_init__(self):
        # one chain: x, y and heading each lie strictly between -inf and inf (nan fails)
        if not -math.inf < self.x < math.inf > self.y > -math.inf < self.heading < math.inf:
            name = next(name for name in ("x", "y", "heading")
                        if not -math.inf < getattr(self, name) < math.inf)
            raise InvariantError(f"pose {name} must be finite, got {getattr(self, name)}", name)


@dataclass(frozen=True)
class PathPoint:
    step: int
    actual_x: float
    sim_x: float
    drift: float       # cm, signed, rounded half-up to 1 decimal
    pct_drift: float   # 100*|drift|/tolerance, half-up to 1 decimal

    def __post_init__(self):
        # one chain: the lengths each finite, the percentage in [0, inf] (nan fails); a
        # finite drift over a subnormal tolerance makes an infinite percentage
        if not (-math.inf < self.actual_x < math.inf > self.sim_x > -math.inf < self.drift
                < math.inf >= self.pct_drift >= 0.0):
            name = next((name for name in ("actual_x", "sim_x", "drift")
                         if not -math.inf < getattr(self, name) < math.inf), None)
            if name is None:
                raise ValueError(f"path point pct_drift must be >= 0, got {self.pct_drift}")
            raise ValueError(f"path point {name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class PathRecord:
    points: tuple
    tolerance: float

    def __post_init__(self):
        _check_tolerance(self.tolerance)

    def max_abs_drift(self) -> float:
        return max((abs(p.drift) for p in self.points), default=0.0)

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
            numbers = fis.read_numbers(parts, (int, float, float, float, float),
                                       f"CSV row: {ln!r}")
            try:
                point = PathPoint(*numbers)
            except ValueError as exc:
                raise ValueError(f"{exc} in CSV row: {ln!r}") from None
            if not 1 <= point.step <= MAX_MISSION_STEPS:   # as a mission numbers its steps
                raise ValueError(f"step outside 1-{MAX_MISSION_STEPS} in CSV row: {ln!r}")
            points.append(point)
        return cls(tuple(points), tolerance)


def plot_svg(record: PathRecord, scenario: Scenario | None = None) -> str:
    """Deterministic top-down SVG: envelope, tolerance band, centerline, path.

    Path point k is drawn at the nominal along-track station
    start.y + k * step_length.  The envelope, step length and start come from
    the scenario; without one, the class attributes are the field defaults.
    """
    world, scenario = (scenario.world, scenario) if scenario else (World, Scenario)
    envelope, step_length, start_y = world.envelope, scenario.step_length, scenario.start.y
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
        if not 0 < self.step_length < math.inf:
            raise InvariantError("step length must be positive and finite", "step_length")
        if not abs(self.steering_gain) <= MAX_STEERING_GAIN:
            raise InvariantError(f"steering gain must be at most {MAX_STEERING_GAIN:.0f} in "
                                 f"magnitude", "steering_gain")
        # no mission takes more steps, so a larger value would fly as one capture too
        if not 1 <= self.steps_per_image <= MAX_MISSION_STEPS:
            raise InvariantError(f"steps per image must be in 1-{MAX_MISSION_STEPS}",
                                 "steps_per_image")
        if not 0 <= self.min_area < math.inf:
            raise InvariantError("minimum region area must be finite and >= 0", "min_area")
        try:
            split_bands(self.camera.image_width, self.camera.image_height)   # rejects too small
        except ValueError as exc:
            raise InvariantError(str(exc), "image_width", "image_height") from None
        ex, ey = self.world.envelope
        if not (0 <= self.start.x <= ex and 0 <= self.start.y <= ey):
            raise InvariantError("start position outside envelope", "x", "y", "envelope")
        # drift is measured against the pipeline, which begins at the first waypoint
        if self.start.y < self.world.pipeline[0][1]:
            raise InvariantError(f"start y={self.start.y} lies below the first waypoint's "
                                 f"y={self.world.pipeline[0][1]}", "y")
        _step_bound(self)   # rejects a bound above MAX_MISSION_STEPS


def _step_bound(scenario: Scenario) -> int:
    """Twice the steps a straight run from the start to the pipeline end would need.

    Raises ValueError when that exceeds MAX_MISSION_STEPS, so that every
    mission ends after a bounded number of steps.
    """
    steps = 2.0 * (scenario.world.pipeline[-1][1] - scenario.start.y) / scenario.step_length
    if not steps <= MAX_MISSION_STEPS:
        raise InvariantError(f"a {scenario.step_length:g} cm step allows {steps:.6g} steps to "
                             f"the pipeline end, more than {MAX_MISSION_STEPS}",
                             "step_length", "y")
    return math.ceil(steps)


# --- geometry ----------------------------------------------------------------

def _heading_vector(heading_deg: float) -> tuple:
    rad = math.radians(heading_deg - 90.0)
    return math.sin(rad), math.cos(rad)


def _camera_basis(auv: AuvState, cam: CameraModel):
    dx, dy = _heading_vector(auv.heading)
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


def _spans(starts, lengths) -> np.ndarray:
    """Positions start, start + 1, ..., start + length - 1 of each span, span after span."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _slab(base, rate, lo, hi) -> tuple:
    """Bounds of the lam with lo <= base + rate*lam <= hi (start > end when there is none)."""
    lam_lo, lam_hi = (lo - base) / rate, (hi - base) / rate
    return np.fmin(lam_lo, lam_hi), np.fmax(lam_lo, lam_hi)


def _chord(along, across, r2) -> tuple:
    """Bounds of the lam with (lam - along)**2 + across**2 <= r2 (inf, -inf when none)."""
    c2 = r2 - across * across
    c = np.sqrt(np.maximum(c2, 0.0))
    return np.where(c2 < 0.0, np.inf, along - c), np.where(c2 < 0.0, -np.inf, along + c)


def _pipe_mask(world: World, auv: AuvState, cam: CameraModel) -> np.ndarray:
    """Pixels whose ray meets the seabed within half a pipe width of the polyline.

    Each ground row is tested segment by segment along one run of columns,
    at the run's ends only.  Exact arithmetic first: right[2] is 0, so a
    row's ray length t is one number, and its exact ground points
    E(c) = O + t*((F + a_c*R) + b*U), evaluated from the computed t, a_c, b
    and basis, lie on one line along (right[0], right[1]), in column order,
    since a_c rises with c.  The distance d(c) from such a point to a
    segment is convex along the line: for c1 < c2 < c3,
    d(c2) <= max(d(c1), d(c3)).

    Rounding.  With unit roundoff u, |a| at most amax and M = 1 + amax + |b|
    (every basis component is at most 1), the computed ground point S(c) is
    off E(c) by at most u(|ox| + |oy| + 5tM) per coordinate: the two sums,
    the product with t and the addition of the origin, in the reference's
    order.  The row's slack g = 2**-48 (|ox| + |oy| + tM) exceeds that 6
    times over.  The clamped projection and the squared distance q(c) add a
    few u of |S| (which g covers) and of |P| + |W| and half (segment start
    P, direction W; which e = 1e-9 (half + the largest waypoint coordinate)
    covers many times over, as it covers the rounding of the thresholds
    below).  So sqrt(q(c)) lies within B = 2g + e of d(c): d(c) <= half - B
    makes the reference test q(c) <= half**2 pass, and d(c) > half + B
    makes it fail.

    Per (row, segment) pair, with m = 2B:
    - Cull.  The offsets across the row's line of the segment's two ends,
      computed from the computed a = 0 ground point (within g of the exact
      one, as above), are within B of the exact offsets.  A pair whose two
      ends both lie more than half + m from the line, on one side, has every
      point of its segment farther than half + B from every E(c): no pixel
      of the row is tested against it.
    - Guess.  The run's ends come in closed form from the capsule around the
      segment (a strip and two end discs) met by the row's line, in floating
      point, else the whole row.  Nothing below trusts the guess.
    - Ends.  cl and ch lie half a column beyond the guessed ends, clipped
      into [0, w - 3] and [2, w - 1] within the image.  Columns cl, cl+1,
      cl+2 and ch-2, ch-1, ch, each clipped into [cl, ch], get the exact
      test; qmin is the least q among them.  If ch - cl >= 6 (else the
      windows cover [cl, ch]) and sqrt(q) < half - m at cl+2 and ch-2, then
      d < half - B there, so by convexity every column between them passes,
      and the interior [cl+3, ch-3] is set untested.  If cl is column 0, or
      sqrt(q(cl)) > max(half, sqrt(qmin)) + m, then d(cl) > half + B, and
      d(cl) exceeds d at the tested column holding qmin, which lies in
      [cl, ch] and so right of cl; by convexity every column left of cl
      has d >= d(cl), and fails.  Likewise right of ch.
    - A pair failing a check has its whole row tested.
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
    pipe = np.zeros((h, w), dtype=bool)
    b, t = b[rows], -origin[2] / dz[rows]
    col_x, col_y = forward[0] + a * right[0], forward[1] + a * right[1]
    row_x, row_y = b * up[0], b * up[1]
    points = np.array(world.pipeline)
    px, py = points[:-1, 0], points[:-1, 1]
    wx, wy = points[1:, 0] - px, points[1:, 1] - py
    length2 = wx * wx + wy * wy
    half = world.pipe_width / 2.0
    r2 = half ** 2
    slack = 2.0 ** -48 * (abs(origin[0]) + abs(origin[1])
                          + t * (1.0 + np.abs(a).max() + np.abs(b)))
    m = 2.0 * (2.0 * slack + 1e-9 * (half + np.abs(points).max()))   # 2B, row by row
    flat = pipe.reshape(-1)

    def test(i, c, k) -> np.ndarray:
        """q of ground row i, column c against segment k; marks the pixels it passes."""
        ti = t[i]
        sx = origin[0] + ti * (col_x[c] + row_x[i])
        sy = origin[1] + ti * (col_y[c] + row_y[i])
        pxk, pyk, wxk, wyk = px[k], py[k], wx[k], wy[k]
        s = np.clip(((sx - pxk) * wxk + (sy - pyk) * wyk) / length2[k], 0.0, 1.0)
        dx = sx - (pxk + s * wxk)
        dy = sy - (pyk + s * wyk)
        q = dx * dx + dy * dy
        flat[(rows[i] * w + c)[q <= r2]] = True
        return q

    # Each row's line, through its a = 0 ground point along (ux, uy), and the
    # waypoints, in coordinates along that line and across it.
    ux, uy = right[0], right[1]
    lx, ly = origin[0] + t * (forward[0] + row_x), origin[1] + t * (forward[1] + row_y)
    row_along, row_across = ux * lx + uy * ly, ux * ly - uy * lx
    pt_along = ux * points[:, 0] + uy * points[:, 1]
    pt_across = ux * points[:, 1] - uy * points[:, 0]
    reach = (half + m)[:, None]
    i, k = np.divmod(np.flatnonzero(
        (row_across[:, None] >= np.minimum(pt_across[:-1], pt_across[1:]) - reach)
        & (row_across[:, None] <= np.maximum(pt_across[:-1], pt_across[1:]) + reach)), len(px))
    p_along, p_across = pt_along[k] - row_along[i], pt_across[k] - row_across[i]
    q_along, q_across = pt_along[k + 1] - row_along[i], pt_across[k + 1] - row_across[i]
    w_along, w_across = q_along - p_along, q_across - p_across
    length2_k = length2[k]
    width_k = half * np.sqrt(length2_k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        along_lo, along_hi = _slab(-p_along * w_along - p_across * w_across, w_along,
                                   0.0, length2_k)
        across_lo, across_hi = _slab(p_along * w_across - p_across * w_along, -w_across,
                                     -width_k, width_k)
        p_lo, p_hi = _chord(p_along, p_across, r2)
        q_lo, q_hi = _chord(q_along, q_across, r2)
        strip_lo, strip_hi = np.maximum(along_lo, across_lo), np.minimum(along_hi, across_hi)
        strip = strip_lo <= strip_hi
        lam_lo = np.minimum(np.minimum(p_lo, q_lo), np.where(strip, strip_lo, np.inf))
        lam_hi = np.maximum(np.maximum(p_hi, q_hi), np.where(strip, strip_hi, -np.inf))
        scale = f / t[i]
        run_lo = np.clip(cx + scale * lam_lo, -2.0, w + 1.0)
        run_hi = np.clip(cx + scale * lam_hi, -2.0, w + 1.0)
    # a pair without a guessed run (nan included) starts from the whole row
    guessed = lam_lo <= lam_hi
    run_lo, run_hi = np.where(guessed, run_lo, -2.0), np.where(guessed, run_hi, w + 1.0)
    cl = np.clip(np.floor(run_lo - 0.5).astype(np.intp), 0, max(w - 3, 0))
    ch = np.clip(np.ceil(run_hi + 0.5).astype(np.intp), min(2, w - 1), w - 1)
    ends = np.clip(np.stack([cl, cl + 1, cl + 2, ch - 2, ch - 1, ch], axis=1),
                   cl[:, None], ch[:, None])
    q = test(i[:, None], ends, k[:, None])
    beyond = np.square(np.maximum(half, np.sqrt(q.min(axis=1))) + m[i])
    inner = ch - cl >= 6   # else the two windows cover [cl, ch]
    ok = (((cl == 0) | (q[:, 0] > beyond)) & ((ch == w - 1) | (q[:, 5] > beyond))
          & (~inner | (np.maximum(q[:, 2], q[:, 3]) < np.square(np.maximum(half - m[i], 0.0)))))
    fill = ok & inner
    flat[_spans(rows[i[fill]] * w + cl[fill] + 3, ch[fill] - cl[fill] - 5)] = True
    # pairs no proof settles: every column of the row
    i, k = i[~ok], k[~ok]
    if i.size:
        test(i[:, None], np.arange(w), k[:, None])
    return pipe


def _draws(seed: int, frame: int, cam: CameraModel) -> list:
    """The pose-independent part of a frame: [seabed, pipe, speckle].

    seabed and pipe are each pixel's uint8 level off and on the pipe,
    clip(intensity + noise, 0, 255), or the two intensities without noise.
    speckle is the mask of pixels set to pipe intensity, or None without
    speckle.  The int32 noise and then the speckle are drawn from the
    generator seeded by (seed, frame); numpy makes both fills without the
    GIL, so a worker thread can draw while the caller renders a pipe mask.
    """
    h, w = cam.image_height, cam.image_width
    rng = np.random.default_rng((seed, frame))
    a = cam.noise_amplitude
    noise = rng.integers(-a, a + 1, size=(h, w), dtype=np.int32) if a > 0 else 0
    seabed, pipe = np.empty((h, w), np.uint8), np.empty((h, w), np.uint8)
    for level, v in ((seabed, cam.seabed_intensity), (pipe, cam.pipe_intensity)):
        # clip(v + noise, 0, 255): the noise clipped into [-v, 255 - v], narrowed, plus v
        np.clip(noise, -v, 255 - v, out=level, casting="unsafe")
        level += np.uint8(v)
    # The noise is released before the speckle draw, and that draw is made in two
    # halves, each the size of the int32 noise, so a frame's temporaries reuse the
    # same heap space: one whole-frame float64 draw made the allocator hand pages
    # back and fault them in again every frame.
    del noise
    speckle = None
    if cam.speckle_density > 0:
        speckle = np.concatenate([rng.random((n, w)) < cam.speckle_density
                                  for n in (h // 2, h - h // 2)])
    return [seabed, pipe, speckle]


def _shared_draws(shared: dict, seed: int, frame: int, cam: CameraModel) -> Future:
    """A completed future of _draws(seed, frame, cam), drawn at most once per shared slot.

    shared holds one frame's draws under their (seed, frame, cam): a key it
    does not hold replaces them.  Each future gets its own copy of the seabed
    level, the one array render_view writes into; the pipe level and the
    speckle mask are only read, so the slot's stay as drawn.
    """
    key = (seed, frame, cam)
    if key not in shared:
        shared.clear()
        shared[key] = _draws(seed, frame, cam)
    seabed, pipe, speckle = shared[key]
    draws = Future()
    draws.set_result([seabed.copy(), pipe, speckle])
    return draws


def render_view(world: World, auv: AuvState, cam: CameraModel, frame: int = 0,
                draws=None) -> GrayImage:
    """Perspective view of the pipeline on the seabed from the vehicle pose.

    Every pixel's ray is intersected with the seabed plane; ground points
    within half a pipe width of the polyline render at pipe intensity.
    Uniform intensity noise and pipe-bright speckle are then drawn from a
    generator seeded by (world.seed, frame).

    draws is a future of _draws(world.seed, frame, cam) that the caller has
    already started (overlapped missions draw one frame ahead) or made once
    for several renders (_shared_draws); with None the draws are made here.
    A future serves one render: its seabed level becomes the image, written
    in place, while its pipe level and speckle mask are only read, so futures
    may share them.  Its result is emptied so that whoever keeps the future
    keeps no raster.

    Each segment's ground points and distances are computed only at the
    two ends of its column run in each ground row it can reach; the run's
    interior is set untested (see _pipe_mask).  Yet the pixels equal a
    full-raster pass (tests/oracles.py) bit for bit, because:
    - a pixel is pipe when the minimum of its squared segment distances is
      at most the squared half width, which is the OR of the per-segment
      tests, since a minimum returns one of its operands (none is NaN:
      ground points are finite and World keeps segment lengths positive);
    - IEEE elementwise operations give the same bits on a gathered subset
      of pixels as on the full raster, in the same operation order;
    - _pipe_mask proves, for every (row, segment) pair, the outcome of each
      per-segment test it does not run;
    - the noise and speckle draws come from the generator in the same order;
      an int32 noise draw returns the same values as an int64 one and leaves
      the generator in the same state, intensities stay within int32
      (CameraModel bounds the noise amplitude), and the speckle's two
      row halves take the values of one (h, w) draw, one double each;
    - clip(where(p, P, S) + n) == where(p, clip(P + n), clip(S + n))
      elementwise, so the two levels of _draws composed by the mask equal
      the noisy image; and for a level v in 0-255, clip(n, -v, 255 - v)
      narrowed to uint8 (mod 256) plus v in uint8 (mod 256) is
      clip(v + n, 0, 255), which lies in 0-255.
    """
    pipe_mask = _pipe_mask(world, auv, cam)
    parts = _draws(world.seed, frame, cam) if draws is None else draws.result()
    seabed, pipe, speckle = parts
    parts.clear()
    np.copyto(seabed, pipe, where=pipe_mask)
    if speckle is not None:
        seabed[speckle] = cam.pipe_intensity
    return GrayImage(seabed)


# --- vehicle kinematics -------------------------------------------------------

def step_auv(state: AuvState, steer: float, scenario: Scenario) -> AuvState:
    """Apply one steering command and advance one step length.

    The set point maps to a heading change of gain*(steer - fis.NEUTRAL_STEER)
    degrees; the vehicle then advances along the new heading.  Raises
    ValueError for a set point outside fis.OUTPUT_UNIVERSE.
    """
    lo, hi = fis.OUTPUT_UNIVERSE
    if not lo <= steer <= hi:
        raise ValueError(f"steering set point {steer} outside [{lo:g}, {hi:g}]")
    heading = state.heading + scenario.steering_gain * (steer - fis.NEUTRAL_STEER)
    dx, dy = _heading_vector(heading)
    return AuvState(state.x + scenario.step_length * dx, state.y + scenario.step_length * dy,
                    heading)


# --- drift accounting ---------------------------------------------------------

def pipeline_x_at(world: World, y: float) -> float:
    """Pipeline centerline x at the given y, linearly interpolated: numpy.interp's
    cases and operations in its order, so the same float bit for bit.

    Raises ValueError for a y (nan too) more than 1e-9 outside the waypoints' span.
    """
    pipeline = world.pipeline
    first, last = pipeline[0][1], pipeline[-1][1]
    if not first - 1e-9 <= y <= last + 1e-9:   # false for nan too
        raise ValueError(f"y={y:.2f} outside pipeline span [{first:.2f}, {last:.2f}]")
    j = bisect_right(pipeline, y, key=itemgetter(1))
    (xa, ya), (xb, yb) = pipeline[max(j - 1, 0)], pipeline[min(j, len(pipeline) - 1)]
    return float(xa if y <= ya else xb if y >= yb else (xb - xa) / (yb - ya) * (y - ya) + xa)


def _round1(value: Decimal) -> float:
    """value rounded half-up to one decimal; unlike quantize, never past a precision limit."""
    return float(value.scaleb(1).to_integral_value(ROUND_HALF_UP).scaleb(-1))


def _check_tolerance(tolerance: float) -> None:
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")


def pct_of_drift(drift: float, tolerance: float) -> float:
    """100*|drift|/tolerance rounded half-up to one decimal."""
    _check_tolerance(tolerance)
    if not -math.inf < drift < math.inf:
        raise ValueError(f"drift must be finite, got {drift}")
    return _round1(Decimal(repr(abs(drift))) * 100 / Decimal(repr(tolerance)))


def _drifts(path, world: World) -> tuple:
    """(centerline xs, signed drifts rounded half-up to 1 decimal) of a sequence of states.
    Raises pipeline_x_at's ValueError for the first state, in path order, out of span."""
    actuals = [pipeline_x_at(world, state.y) for state in path]
    return actuals, [_round1(Decimal(repr(state.x - actual)))
                     for state, actual in zip(path, actuals)]


def drift_metrics(path, world: World, tolerance: float = DEFAULT_TOLERANCE_CM) -> PathRecord:
    """Per-point drift (signed, 1 decimal) and percentage-of-tolerance of a sequence of states."""
    points = []
    actuals, drifts = _drifts(path, world)
    for i, (state, actual, drift) in enumerate(zip(path, actuals, drifts), start=1):
        points.append(PathPoint(i, actual, state.x, drift, pct_of_drift(drift, tolerance)))
    return PathRecord(tuple(points), tolerance)


# --- mission loop -------------------------------------------------------------

def _capture(scenario: Scenario, auv: AuvState, frame: int, captures: dict,
             draws=None, shared: dict | None = None) -> tuple:
    """The frame's 5 band feature vectors, rendered and segmented once per captures memo.

    The key holds everything the capture depends on, compared exactly.  The
    memo keeps one outcome per key, and no raster: the vectors, or the
    message of the NoObjectError the capture raised, which a later capture
    of the key raises again.  draws goes to render_view; without it, a
    shared slot gives the draws (_shared_draws).  A capture the memo serves
    renders and draws nothing.
    """
    key = (scenario.world, scenario.camera, scenario.thresholds, scenario.min_area, auv, frame)
    vectors = captures.get(key)
    if vectors is None:
        if draws is None and shared is not None:
            draws = _shared_draws(shared, scenario.world.seed, frame, scenario.camera)
        img = render_view(scenario.world, auv, scenario.camera, frame, draws)
        try:
            vectors = tuple(features.extract_features(img, scenario.thresholds,
                                                      scenario.min_area))
        except NoObjectError as exc:
            captures[key] = str(exc)
            raise
        captures[key] = vectors
    if isinstance(vectors, str):
        raise NoObjectError(vectors)
    return vectors


def _fly(scenario: Scenario, rb, mode: str, captures: dict, shared: dict | None = None) -> list:
    """The path of states a mission flies (see run_mission); raises its MissionFailure.
    Every capture goes through the captures memo (_capture), and a frame-0 capture
    takes its draws from the shared slot, if given (_shared_draws)."""
    if mode not in ("sequential", "overlapped"):
        raise ValueError(f"unknown mode {mode!r}")
    auv = scenario.start
    first_y, far_y = scenario.world.pipeline[0][1], scenario.world.pipeline[-1][1]
    ex, ey = scenario.world.envelope
    max_steps = _step_bound(scenario)
    pool = ThreadPoolExecutor(max_workers=1) if mode == "overlapped" else None

    def draws_of(frame):   # overlapped mode draws each frame's noise one capture ahead
        return None if pool is None else pool.submit(_draws, scenario.world.seed, frame,
                                                     scenario.camera)

    # The next capture lies steps_per_image steps ahead, each raising y by at most a step
    # length, and is taken only if one more step fits: beyond this reach there is none.
    reach = (scenario.steps_per_image + 1) * scenario.step_length
    path = []
    try:
        pending = draws_of(0)
        while auv.y + scenario.step_length <= far_y + 1e-9:
            frame, i = divmod(len(path), scenario.steps_per_image)
            if i == 0:
                # a capture that finds no pending draws draws them itself
                draws = pending
                pending = draws_of(frame + 1) if auv.y + reach <= far_y + 1e-9 else None
                vectors = _capture(scenario, auv, frame, captures, draws,
                                   shared if frame == 0 else None)
                steers = [fis._steer(rb, v.as_dict()) for v in vectors[:scenario.steps_per_image]]
            if len(path) == max_steps:
                raise MissionFailure("no-progress", len(path) + 1,
                                     f"after {max_steps} steps y={auv.y:.1f} is still short "
                                     f"of the pipeline end at y={far_y:g}", frame, auv)
            moved = step_auv(auv, steers[min(i, NUM_BANDS - 1)], scenario)
            if not (0.0 <= moved.x <= ex and 0.0 <= moved.y <= ey):
                raise MissionFailure("envelope-exit", len(path) + 1, f"({moved.x:.1f}, "
                                     f"{moved.y:.1f}) outside {ex:.0f} x {ey:.0f} envelope",
                                     frame, auv)
            auv = moved
            if auv.y < first_y - 1e-9:   # the slack pipeline_x_at allows
                raise MissionFailure("behind-start", len(path) + 1,
                                     f"y={auv.y:.1f} lies below the pipeline start "
                                     f"at y={first_y:g}", frame, auv)
            path.append(auv)
    except NoObjectError as exc:
        raise MissionFailure("no-object", len(path) + 1, str(exc), frame, auv) from exc
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    if not path:
        raise MissionFailure("no-points", 1, f"a {scenario.step_length:g} cm step from "
                             f"y={auv.y:g} passes the pipeline end at y={far_y:g}", 0, auv)
    return path


def run_mission(scenario: Scenario, rb, mode: str = "sequential",
                tolerance: float = DEFAULT_TOLERANCE_CM) -> PathRecord:
    """Fly the pipeline: capture, infer a steer per band, step steps_per_image times.

    Steps past the 5th reuse band 5's steer, and only the bands a capture
    steers are inferred.  A step is taken only while its nominal landing stays
    within the pipeline span, so every recorded point has a defined centerline
    reference.  In "overlapped" mode one worker thread draws each frame's
    noise and speckle (_draws) one capture ahead, as long as a later capture
    can still happen, while this thread renders the pipe masks, segments and
    infers; outputs are identical to sequential mode by construction, since
    the draws depend on the frame alone.

    Each mission flies with a fresh captures memo.  A mission that records
    no point fails with "no-points".  One that takes more than twice the
    steps a straight run along the remaining span would need (less than half a step length of
    along-track progress per step) fails with "no-progress".  A step that
    leaves the envelope fails with "envelope-exit" and carries the pose it
    started from.  A step that lands below the first waypoint, where drift has
    no reference, fails with "behind-start".  A failure carries the last
    capture's frame and the pose.

    One flight (_fly), two accounts of its path: this record, through
    drift_metrics, and mission_objective's rounded drifts alone, through
    _drifts.  A bad tolerance is rejected before anything is flown.
    """
    _check_tolerance(tolerance)
    return drift_metrics(_fly(scenario, rb, mode, {}), scenario.world, tolerance)


# --- tuning harness -----------------------------------------------------------

@dataclass(frozen=True)
class TuneResult:
    params: dict                 # (variable, term) -> (width, center)
    initial_objective: tuple
    best_objective: tuple
    evaluations: int


def mission_objective(scenarios, rb, captures: dict | None = None) -> tuple:
    """(max |drift|, mean |drift|) over all scenario points; failure is infinite.

    Each scenario is flown once, as run_mission flies it, and scored from its
    rounded drifts alone: the drifts of run_mission's record, without the
    percentages, points and record that account builds.

    The missions share one captures memo (_capture): the caller's, kept
    across calls as tune keeps it, else a fresh one per call.  Missions of
    one seed and camera (a suite of start offsets) share frame 0's draws:
    one slot draws them when a frame-0 capture first misses the memo, so a
    call that renders nothing draws nothing.  The pixels are unchanged,
    since the draws depend on (seed, frame, camera) alone, and the slot, one
    frame's draws, is dropped when the call returns.
    """
    drifts = []
    captures = {} if captures is None else captures
    shared = {}
    for scenario in scenarios:
        try:
            path = _fly(scenario, rb, "sequential", captures, shared)
        except MissionFailure:
            return (math.inf, math.inf)
        drifts.extend(map(abs, _drifts(path, scenario.world)[1]))
    if not drifts:
        return (math.inf, math.inf)
    return (max(drifts), sum(drifts) / len(drifts))


def tune(scenarios, init: dict, budget: int, rulebase=None) -> TuneResult:
    """Coordinate-descent search over term centers and widths.

    init overrides any terms of rulebase (else the default); params hold all terms.
    Each coordinate is probed one step up and down and then walked greedily
    while the objective keeps improving; a step is 5% of its variable's span
    times one scale, which halves after a sweep without progress.  The search
    stops after a sweep without progress once the widest variable's step is
    at most 1/8 of the narrowest variable's first step, or when the budget is
    spent.  Only improvements are ever accepted, so the result is never worse
    than init, and the whole search is deterministic.

    Evaluations only change the rule parameters, so they share one captures
    memo for the duration of the call (_capture): a capture identical to one
    an earlier evaluation flew reuses its band feature vectors, or fails with
    its lost-object message, instead of being rendered again.  The first
    evaluation draws the frame-0 noise and speckle of each seed and camera
    once (see mission_objective).  Results are identical to re-flying every
    evaluation.  Each candidate is the best rule base so far with only the
    moved term rebuilt, which equals rebuilding every term from the
    candidate's parameters, and shares its generated inference function
    (fis.with_term_parameters), so the call generates one, for the starting
    rule base.  A one-shot iterator of scenarios is rejected.
    """
    if not budget >= 1:
        raise ValueError("budget must be >= 1")
    if isinstance(scenarios, Iterator):
        raise ValueError("tune flies its scenarios in each evaluation; pass a list, "
                         "not an iterator")
    if not scenarios:
        raise ValueError("tune needs at least one scenario")
    rb0 = rulebase if rulebase is not None else fis.default_rulebase()
    captures = {}
    evals = 0

    def evaluate(rb):
        nonlocal evals
        evals += 1
        return mission_objective(scenarios, rb, captures)

    best_rb = fis.with_term_parameters(rb0, init)
    best_obj = evaluate(best_rb)
    initial_obj = best_obj

    spans = {var: v.universe[1] - v.universe[0] for var, v in rb0.variables.items()}
    scale = 1.0
    while evals < budget:
        improved = False
        for var in (*fis.INPUT_VARIABLES, fis.OUTPUT_VARIABLE):
            span, (lo, hi) = spans[var], rb0.variables[var].universe
            for term in rb0.variables[var].terms:
                # the center, then the width: index into (width, center) and its clamp
                for k, low, high in ((1, lo, hi), (0, 0.01 * span, 2.0 * span)):
                    moved = False
                    for sign in (1.0, -1.0):
                        # walk this direction while it keeps paying off
                        while evals < budget:
                            mf = best_rb.variables[var].terms[term]
                            point = [mf.width, mf.center]
                            point[k] = min(max(point[k] + sign * 0.05 * span * scale, low), high)
                            if point == [mf.width, mf.center]:
                                break
                            cand = fis.with_term_parameters(best_rb, {(var, term): tuple(point)})
                            obj = evaluate(cand)
                            if not obj < best_obj:
                                break
                            best_rb, best_obj = cand, obj
                            improved = moved = True
                        if moved:
                            break
        if not improved:
            if scale <= min(spans.values()) / max(spans.values()) / 8:
                break
            scale /= 2.0
    return TuneResult(fis.term_parameters(best_rb), initial_obj, best_obj, evals)


# --- scenario files -----------------------------------------------------------

# Each scenario key and the (part, field) it sets.  The part holds the default, and a value
# parses as an int when that default is one, else as a float (rulebase, a path, stays text).
# envelope.x/.y are the items of World.envelope; start.x/.y default to the first waypoint.
# No two parts share a field name, so the fields of an InvariantError name its keys.
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


def _parse_waypoints(value):
    waypoints = []
    for part in filter(None, map(str.strip, value.split(";"))):   # blank parts skipped
        bits = part.split(":")
        if len(bits) != 2:
            raise ValueError(f"waypoint {part!r} is not x:y")
        waypoints.append(tuple(fis.read_numbers(bits, (float, float), f"waypoint {part!r}")))
    return tuple(waypoints)


def parse_scenario(text: str, base_dir=".") -> Scenario:
    """The Scenario a scenario file's text states; a bad line raises fis.ParseError, a
    missing pipe.waypoints or a broken invariant a ValueError (naming the lines of its keys)."""
    values = {}

    def parse_line(line):
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise ValueError("expected 'key = value'")
        if key == "pipe.waypoints":
            values[key] = _parse_waypoints(value)
        elif key not in _SCENARIO_KEYS:
            raise ValueError(f"unknown key {key!r}")
        elif key == "rulebase":
            try:
                values[key] = str((Path(base_dir) / value).resolve()) if value else ""
            except ValueError as exc:   # a NUL byte
                raise ValueError(f"rulebase path: {exc}") from None
        else:
            part, field = _SCENARIO_KEYS[key]
            kind = int if isinstance(getattr(_SCENARIO_PARTS[part], field), int) else float
            values[key] = fis.read_numbers([value], [kind], f"value for {key}")[0]

    key_lines = fis.read_lines(text, parse_line)
    waypoints = values.pop("pipe.waypoints", ())
    if not waypoints:
        raise ValueError("missing required key pipe.waypoints")

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
    except InvariantError as exc:   # name the lines of the keys that set its fields
        keys = {**_SCENARIO_KEYS, "pipe.waypoints": ("world", "pipeline")}
        lines = [str(line_no) for key, line_no in key_lines.items() if keys[key][1] in exc.fields]
        if not lines:   # the file sets none of them
            raise
        raise ValueError(f"line{'s' * (len(lines) > 1)} {', '.join(lines)}: {exc}") from None


def read_file(path, parse):
    """parse(Path(path)), with a ValueError, undecodable text included, raised again as an
    InputError naming the file: no other code names an input file.  OSError passes through."""
    path = Path(path)
    try:
        return parse(path)
    except ValueError as exc:
        raise InputError(f"{path.name}: {exc}") from exc


def load_scenario(path) -> Scenario:
    return read_file(path, lambda p: parse_scenario(p.read_text(), p.parent))


def read_rulebase(path):
    """Parse a rule base DSL file, or the built-in default for an empty or None path."""
    if not path:
        return fis.default_rulebase()
    return read_file(path, lambda p: fis.parse_rulebase(p.read_text()))


def load_rulebase(scenario: Scenario):
    """Rule base referenced by the scenario, or the built-in default."""
    return read_rulebase(scenario.rulebase_file)

import contextlib
import gc
import io
import math
import re
import tempfile
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from pipefollow import features, fis, sim
from pipefollow.cli import main
from pipefollow.imgproc import InvariantError, ThresholdBand
from pipefollow.sim import (AuvState, CameraModel, MissionFailure, PathRecord, Scenario,
                            InputError, World, drift_metrics,
                            image_center, mission_objective,
                            parse_scenario, pct_of_drift, pipeline_x_at,
                            render_view, run_mission, step_auv, tune)
from conftest import ROOT

TABLE_WORLD = World(pipeline=((36.5, 0.0), (47.5, 22.5), (58.5, 45.0),
                              (69.6, 67.5), (80.8, 90.0), (91.9, 112.5)), seed=7)
ALIGNED_START = AuvState(36.5, 0.0, 116.0)
SMALL_CAMERA = CameraModel(image_width=96, image_height=72)
SURVEY_BEND = World(pipeline=tuple((60.0 + 25.0 * math.sin(1.2 * math.pi * y / 200.0), y)
                                   for y in range(0, 201, 10)), seed=3)


def small_scenario(**kwargs):
    defaults = dict(world=TABLE_WORLD, camera=SMALL_CAMERA,
                    start=ALIGNED_START, min_area=10)
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestWorldWaypoints:
    """A World is its fields: equal waypoints give equal worlds, and replace moves the
    centerline pipeline_x_at interpolates."""

    def test_equality_hash_and_repr_of_equal_worlds(self):
        world = World(pipeline=((40.0, 0.0), (60.0, 100.0)))
        other = World(pipeline=((40.0, 0.0), (60.0, 100.0)))
        assert other == world and hash(other) == hash(world)
        assert repr(other) == repr(world) == ("World(envelope=(150.0, 200.0), pipeline=((40.0, "
                                              "0.0), (60.0, 100.0)), pipe_width=10.0, seed=0)")

    def test_replace_moves_the_centerline(self):
        world = World(pipeline=((40.0, 0.0), (60.0, 100.0)))
        moved = replace(world, pipeline=((40.0, 0.0), (80.0, 50.0), (80.0, 100.0)))
        assert pipeline_x_at(moved, 25.0) == 60.0 and pipeline_x_at(world, 25.0) == 45.0


class TestWorldValidation:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            World(pipeline=((10.0, 0.0),))

    def test_waypoints_inside_envelope(self):
        with pytest.raises(ValueError):
            World(pipeline=((10.0, 0.0), (200.0, 50.0)))

    def test_y_strictly_increasing(self):
        with pytest.raises(ValueError):
            World(pipeline=((10.0, 50.0), (20.0, 50.0)))

    def test_underflowing_segment_rejected(self):
        with pytest.raises(ValueError, match="too close"):
            World(pipeline=((10.0, 0.0), (10.0, 1e-200), (10.0, 50.0)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            World(pipeline=((10.0, 0.0), (10.0, 50.0)), seed=-1)

    def test_camera_bounds(self):
        with pytest.raises(ValueError):
            CameraModel(tilt_deg=0.0)
        with pytest.raises(ValueError):
            CameraModel(fov_deg=200.0)
        with pytest.raises(ValueError, match="noise"):
            CameraModel(noise_amplitude=-5)
        CameraModel(noise_amplitude=2**31 - 256)   # noise plus intensity 255 still fits int32
        with pytest.raises(ValueError, match="noise"):
            CameraModel(noise_amplitude=2**31 - 255)
        for side in ({"image_width": 0}, {"image_height": 0}):
            with pytest.raises(ValueError, match="dimensions"):
                CameraModel(**side)
        CameraModel(image_width=1, image_height=1)   # renders, though too small to band
        CameraModel(image_width=2048, image_height=2048)   # at the pixel bound; not rendered
        with pytest.raises(ValueError, match="^a 2049x2048 image has more than 4194304 pixels$"):
            CameraModel(image_width=2049, image_height=2048)

    def test_scenario_bounds(self):
        world = World(pipeline=((10.0, 0.0), (10.0, 50.0)))
        with pytest.raises(ValueError):
            Scenario(world=world, step_length=0.0)
        for steps in (0, 10001, 10**400):
            with pytest.raises(ValueError, match="^steps per image must be in 1-10000$"):
                Scenario(world=world, steps_per_image=steps)
        Scenario(world=world, steps_per_image=10000)   # no mission takes more steps
        with pytest.raises(ValueError):
            Scenario(world=world, start=AuvState(-5.0, 0.0, 90.0))
        with pytest.raises(ValueError, match="min"):
            Scenario(world=world, min_area=-1)
        for width, height in ((320, 9), (320, 3), (1, 240)):
            with pytest.raises(ValueError, match="too small to band"):
                Scenario(world=world, camera=CameraModel(image_width=width, image_height=height))
        Scenario(world=world, camera=CameraModel(image_width=2, image_height=10))

    def test_step_bound_capped(self):
        world = World(pipeline=((10.0, 0.0), (10.0, 156.25)))
        Scenario(world=world, step_length=0.03125)   # 2 * 156.25 / 0.03125 = 10000 steps
        with pytest.raises(ValueError, match="more than 10000$"):
            Scenario(world=world, step_length=math.nextafter(0.03125, 0.0))

    def test_start_below_first_waypoint_rejected(self):
        world = World(pipeline=((10.0, 40.0), (10.0, 90.0)))
        Scenario(world=world, start=AuvState(10.0, 40.0, 90.0))
        with pytest.raises(ValueError, match="below the first waypoint"):
            Scenario(world=world, start=AuvState(10.0, 39.9, 90.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        lambda v: CameraModel(height_cm=v),
        lambda v: World(pipeline=((10.0, 0.0), (10.0, 50.0)), pipe_width=v),
        lambda v: World(envelope=(v, 200.0), pipeline=((10.0, 0.0), (10.0, 50.0))),
        lambda v: World(envelope=(150.0, v), pipeline=((10.0, 0.0), (10.0, 50.0))),
        lambda v: small_scenario(step_length=v),
        lambda v: small_scenario(steering_gain=v),
        lambda v: small_scenario(start=AuvState(36.5, 0.0, v)),
        lambda v: World(pipeline=((10.0, 0.0), (10.0, 50.0)), seed=v),
        lambda v: World(pipeline=((v, 0.0), (10.0, 50.0))),
        lambda v: World(pipeline=((10.0, 0.0), (10.0, v))),
        lambda v: CameraModel(tilt_deg=v),
        lambda v: CameraModel(fov_deg=v),
        lambda v: CameraModel(image_width=v),
        lambda v: CameraModel(image_height=v),
        lambda v: CameraModel(pipe_intensity=v),
        lambda v: CameraModel(seabed_intensity=v),
        lambda v: CameraModel(noise_amplitude=v),
        lambda v: CameraModel(speckle_density=v),
        lambda v: ThresholdBand(v, 255),
        lambda v: ThresholdBand(180, v),
        lambda v: small_scenario(steps_per_image=v),
        lambda v: small_scenario(min_area=v),
        lambda v: small_scenario(start=AuvState(v, 0.0, 116.0)),
        lambda v: small_scenario(start=AuvState(36.5, v, 116.0)),
    ], ids=["camera.height_cm", "world.pipe_width", "world.envelope.x",
            "world.envelope.y", "scenario.step_length", "scenario.steering_gain",
            "scenario.start.heading", "world.seed", "world.pipeline.x", "world.pipeline.y",
            "camera.tilt_deg", "camera.fov_deg", "camera.image_width", "camera.image_height",
            "camera.pipe_intensity", "camera.seabed_intensity", "camera.noise_amplitude",
            "camera.speckle_density", "thresholds.t1", "thresholds.t2",
            "scenario.steps_per_image", "scenario.min_area", "scenario.start.x",
            "scenario.start.y"])
    def test_non_finite_field_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)


@pytest.mark.parametrize("call", [
    lambda: pipeline_x_at(TABLE_WORLD, math.nan),
    lambda: pct_of_drift(1.0, math.nan),
    lambda: tune([small_scenario()], fis.term_parameters(fis.default_rulebase()), math.nan),
], ids=["pipeline-x-at", "pct-of-drift", "tune"])
def test_function_call_with_nan_rejected(call):
    with pytest.raises(ValueError):
        call()


class TestStepAuv:
    def test_straight_step(self):
        sc = small_scenario()
        out = step_auv(AuvState(40.0, 10.0, 90.0), 90.0, sc)
        assert out == AuvState(40.0, 32.5, 90.0)

    def test_steering_maps_to_heading_change(self):
        sc = small_scenario(steering_gain=0.5)
        out = step_auv(AuvState(75.0, 10.0, 90.0), 120.0, sc)
        assert out.heading == pytest.approx(105.0)
        assert out.x > 75.0

    def test_symmetric_commands_mirror_heading(self):
        sc = small_scenario()
        state = AuvState(75.0, 10.0, 95.0)
        left = step_auv(state, 60.0, sc)
        right = step_auv(state, 120.0, sc)
        assert left.heading + right.heading == pytest.approx(2 * state.heading)

    def test_steer_range_validated(self):
        sc = small_scenario()
        with pytest.raises(ValueError, match=r"^steering set point -1\.0 outside \[0, 180\]$"):
            step_auv(ALIGNED_START, -1.0, sc)
        with pytest.raises(ValueError, match=r"^steering set point 180\.5 outside \[0, 180\]$"):
            step_auv(ALIGNED_START, 180.5, sc)

    @pytest.mark.parametrize("pose, field, message", [
        ((0, 0, math.nan), "heading", "pose heading must be finite, got nan"),
        ((0.0, 0.0, math.inf), "heading", "pose heading must be finite, got inf"),
        ((math.inf, 0.0, 90.0), "x", "pose x must be finite, got inf"),
        ((0.0, -math.inf, 90.0), "y", "pose y must be finite, got -inf"),
        ((math.nan, math.inf, math.nan), "x", "pose x must be finite, got nan"),
    ], ids=["nan-heading", "inf-heading", "inf-x", "minus-inf-y", "first-named"])
    def test_non_finite_pose_rejected(self, pose, field, message):
        """No nan or infinite pose reaches step_auv or render_view."""
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$") as exc:
            AuvState(*pose)
        assert exc.value.fields == (field,)

    def test_extreme_finite_pose_accepted(self):
        assert AuvState(-1.7976931348623157e308, 5e-324, -0.0).y == 5e-324

    def test_heading_vector_convention(self):
        dx, dy = sim._heading_vector(90.0)
        assert (dx, dy) == pytest.approx((0.0, 1.0))
        dx, dy = sim._heading_vector(135.0)
        assert dx > 0 and dy > 0  # right of +y leans toward +x


class TestProjection:
    def test_optical_axis_hits_image_center(self):
        cam = CameraModel()
        auv = AuvState(75.0, 20.0, 90.0)
        ahead = cam.height_cm / math.tan(math.radians(cam.tilt_deg))
        uv = oracles.project_point((75.0, 20.0 + ahead), auv, cam)
        assert uv == pytest.approx(image_center(cam), abs=1e-9)

    def test_point_behind_camera_is_none(self):
        cam = CameraModel()
        assert oracles.project_point((75.0, 0.0), AuvState(75.0, 100.0, 90.0), cam) is None

    def test_rendered_pipe_is_brighter_where_projected(self):
        cam = CameraModel(noise_amplitude=0, speckle_density=0.0)
        world = World(pipeline=((75.0, 0.0), (75.0, 200.0)), seed=0)
        auv = AuvState(75.0, 20.0, 90.0)
        img = render_view(world, auv, cam)
        ahead = cam.height_cm / math.tan(math.radians(cam.tilt_deg))
        u, v = oracles.project_point((75.0, 20.0 + ahead), auv, cam)
        assert img.pixels[int(round(v)), int(round(u))] == cam.pipe_intensity


class TestRenderView:
    def test_pipe_behind_camera_gives_background_only(self):
        cam = CameraModel(noise_amplitude=0, speckle_density=0.0)
        world = World(pipeline=((75.0, 0.0), (75.0, 30.0)), seed=0)
        img = render_view(world, AuvState(75.0, 120.0, 90.0), cam)
        assert np.all(img.pixels == cam.seabed_intensity)

    def test_noise_free_render_is_two_valued(self):
        cam = CameraModel(noise_amplitude=0, speckle_density=0.0)
        img = render_view(World(pipeline=((75.0, 0.0), (75.0, 200.0)), seed=0),
                          AuvState(75.0, 10.0, 90.0), cam)
        assert set(np.unique(img.pixels)) == {cam.seabed_intensity, cam.pipe_intensity}

    def test_same_seed_and_frame_bit_identical(self):
        world = World(pipeline=((75.0, 0.0), (75.0, 200.0)), seed=11)
        a = render_view(world, AuvState(75.0, 10.0, 90.0), CameraModel(), frame=2)
        b = render_view(world, AuvState(75.0, 10.0, 90.0), CameraModel(), frame=2)
        assert np.array_equal(a.pixels, b.pixels)

    def test_frame_index_changes_noise(self):
        world = World(pipeline=((75.0, 0.0), (75.0, 200.0)), seed=11)
        a = render_view(world, AuvState(75.0, 10.0, 90.0), CameraModel(), frame=0)
        b = render_view(world, AuvState(75.0, 10.0, 90.0), CameraModel(), frame=1)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_noise_stays_within_amplitude(self):
        cam = CameraModel(noise_amplitude=30, speckle_density=0.0)
        world = World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=4)
        img = render_view(world, AuvState(140.0, 0.0, 90.0), cam)  # seabed only
        assert img.pixels.min() >= cam.seabed_intensity - 30
        assert img.pixels.max() <= cam.seabed_intensity + 30


def ground_point(auv, cam, row, col) -> tuple:
    """Seabed (x, y) that the ray of pixel (row, col) meets."""
    origin, right, up, forward, f, (cx, cy) = oracles.camera_geometry(auv, cam)
    ray = forward + (col - cx) / f * right + (cy - row) / f * up
    return tuple((origin[:2] - origin[2] / ray[2] * ray[:2]).tolist())


def run_stress_cases() -> dict:
    """Frames whose column runs are tangent, grazing, whole-row or a pixel or two wide."""
    small, ahead = CameraModel(image_width=96, image_height=72), AuvState(75.0, 10.0, 90.0)
    # at heading 90 a row's rays all meet the seabed at one y
    low, edge, high = (ground_point(ahead, small, row, 0)[1] for row in (60, 40, 30))
    cases = {
        # rows cross the pipe's edges at a shallow angle
        "near-parallel": (World(pipeline=((0.0, 50.0), (150.0, 50.01))), ahead, small),
        # row 40 runs along the pipe's edge, a billionth of a cm away: no
        # margin settles it, so the whole row is tested
        "edge-on-a-row": (World(pipeline=((0.0, edge - 5.0), (150.0, edge - 5.0 + 1e-9))),
                          ahead, small),
        # row 60 touches the first waypoint's end disc; row 30 misses the last
        # one's by a billionth of a cm, too little for the cull
        "tangent-end-discs": (World(pipeline=((70.0, low + 5.0), (80.0, high - 5.0 - 1e-9))),
                              ahead, small),
        # every ground row lies inside the pipe: one run spans the row
        "pipe-wider-than-rows": (World(pipeline=((75.0, 0.0), (80.0, 200.0)), pipe_width=60.0),
                                 ahead, replace(small, height_cm=5.0)),
        # near-vertical segments up to the horizon
        "grazing-near-vertical": (World(pipeline=((75.0, 0.0), (75.5, 100.0), (76.0, 200.0))),
                                  AuvState(75.0, 0.0, 90.0),
                                  replace(small, tilt_deg=5.0, fov_deg=150.0)),
    }
    wide = World(pipeline=((75.0, 0.0), (78.0, 200.0)), pipe_width=40.0)
    for width, height in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 40), (2, 40), (40, 1), (40, 2)):
        cases[f"{width}x{height}"] = (wide, AuvState(75.0, 0.0, 90.0),
                                     replace(small, image_width=width, image_height=height))
    # widths where the end windows' clamps and the interior threshold change
    # behaviour: a pipe wider than every row, and a thin pipe along the ground
    # line of the first column (even widths) or the last (odd widths)
    above = AuvState(75.0, 50.0, 90.0)
    for width in range(3, 9):
        cam = replace(small, image_width=width, image_height=40)
        cases[f"{width}x40-wider-than-rows"] = (
            World(pipeline=((75.0, 0.0), (76.0, 200.0)), pipe_width=400.0), above, cam)
        col = 0 if width % 2 == 0 else width - 1
        cases[f"{width}x40-thin-at-column-{col}"] = (
            World(pipeline=(ground_point(above, cam, 39, col), ground_point(above, cam, 20, col)),
                  pipe_width=0.5), above, cam)
    return cases


RUN_STRESS_CASES = run_stress_cases()


@st.composite
def render_cases(draw):
    """World, pose and camera for one render, small enough for the oracle.

    Image sides run from 1 to 53 pixels, so column runs often end at an
    image edge.  Poses and headings span the whole envelope, so the pipe is
    often partly or wholly out of view or behind the camera.
    """
    n = draw(st.integers(2, 8))
    ys = sorted(draw(st.lists(st.floats(0.0, 200.0), min_size=n, max_size=n, unique=True)))
    xs = draw(st.lists(st.floats(0.0, 150.0), min_size=n, max_size=n))
    assume(all((b - a) ** 2 > 0.0 for a, b in zip(ys, ys[1:])))  # else World rejects it
    world = World(pipeline=tuple(zip(xs, ys)), pipe_width=draw(st.floats(0.5, 60.0)),
                  seed=draw(st.integers(0, 1000)))
    auv = AuvState(draw(st.floats(0.0, 150.0)), draw(st.floats(0.0, 200.0)),
                   draw(st.floats(-180.0, 360.0)))
    cam = CameraModel(height_cm=draw(st.floats(5.0, 150.0)), tilt_deg=draw(st.floats(5.0, 85.0)),
                      fov_deg=draw(st.floats(20.0, 150.0)),
                      image_width=draw(st.integers(1, 53)),
                      image_height=draw(st.integers(1, 53)),
                      noise_amplitude=draw(st.sampled_from([0, 30])),
                      speckle_density=draw(st.sampled_from([0.0, 0.05])))
    return world, auv, cam, draw(st.integers(0, 5))


@st.composite
def drawn_frames(draw):
    """render_cases with cameras of at most 24x24 pixels whose intensities, noise and
    speckle reach CameraModel's bounds."""
    world, auv, cam, frame = draw(render_cases())
    intensities = st.sampled_from([0, 255]) | st.integers(0, 255)
    cam = replace(cam, image_width=min(cam.image_width, 24),
                  image_height=min(cam.image_height, 24),
                  pipe_intensity=draw(intensities), seabed_intensity=draw(intensities),
                  noise_amplitude=draw(st.sampled_from([0, 1, sim.MAX_NOISE_AMPLITUDE])
                                       | st.integers(0, sim.MAX_NOISE_AMPLITUDE)),
                  speckle_density=draw(st.sampled_from([0.0, 0.999]) | st.floats(0.0, 0.999)))
    return world, auv, cam, frame


def small_render_cases(count) -> list:
    """Seeded worlds and cameras like render_cases draws, flown from the first waypoint."""
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(count):
        ys = np.sort(rng.choice(201, size=int(rng.integers(2, 6)), replace=False)).astype(float)
        world = World(pipeline=tuple(zip(rng.uniform(0.0, 150.0, ys.size).tolist(), ys.tolist())),
                      pipe_width=float(rng.uniform(0.5, 60.0)))
        x, y = world.pipeline[0]
        auv = AuvState(x, y, float(rng.uniform(45.0, 135.0)))
        cam = CameraModel(height_cm=float(rng.uniform(5.0, 150.0)),
                          tilt_deg=float(rng.uniform(5.0, 85.0)),
                          fov_deg=float(rng.uniform(20.0, 150.0)),
                          image_width=int(rng.integers(1, 54)),
                          image_height=int(rng.integers(1, 54)))
        cases.append((world, auv, cam))
    return cases


class TestRenderOracle:
    @settings(max_examples=150, deadline=None)
    @given(render_cases())
    def test_matches_full_raster_reference(self, case):
        world, auv, cam, frame = case
        assert render_view(world, auv, cam, frame).pixels.tobytes() == \
            oracles.render_reference(world, auv, cam, frame).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(drawn_frames())
    def test_draws_made_inline_or_ahead_on_a_worker_match_the_reference(self, case):
        world, auv, cam, frame = case
        expected = oracles.render_reference(world, auv, cam, frame).tobytes()
        assert render_view(world, auv, cam, frame).pixels.tobytes() == expected
        with ThreadPoolExecutor(max_workers=1) as pool:
            draws = pool.submit(sim._draws, world.seed, frame, cam)
            assert render_view(world, auv, cam, frame, draws).pixels.tobytes() == expected
        assert draws.result() == []   # the arrays went to the image, not to the future

    # tilt 5 with fov 150 grazes the horizon: the longest rays, the widest
    # per-row rounding bound
    @pytest.mark.parametrize("tilt, fov", [(5.0, 60.0), (30.0, 60.0), (85.0, 60.0),
                                           (5.0, 150.0)],
                             ids=["5.0", "30.0", "85.0", "5.0-fov150"])
    def test_survey_sized_frames_match(self, tilt, fov):
        world = SURVEY_BEND
        cam = CameraModel(tilt_deg=tilt, fov_deg=fov, image_width=330, image_height=250)
        for auv in (AuvState(60.0, 0.0, 90.0), AuvState(84.0, 70.0, 75.0),
                    AuvState(75.0, 190.0, 270.0)):
            assert np.array_equal(render_view(world, auv, cam, 1).pixels,
                                  oracles.render_reference(world, auv, cam, 1))

    @pytest.mark.parametrize("case", list(RUN_STRESS_CASES), ids=list(RUN_STRESS_CASES))
    def test_run_stress_frames_match(self, case):
        world, auv, cam = RUN_STRESS_CASES[case]
        assert np.array_equal(render_view(world, auv, cam, 2).pixels,
                              oracles.render_reference(world, auv, cam, 2))

    @pytest.mark.parametrize("spoil", ["empty", "midpoint", "shifted"])
    def test_frames_match_whatever_runs_are_guessed(self, spoil, monkeypatch):
        """The mask checks every guessed run, so a wrong guess costs time, never pixels.

        Empty intervals leave no pair a guess, collapsed ones guess a point
        (or nan, from an empty interval's midpoint), and shifted ones move
        each guess by up to 100 cm.
        """
        rng = np.random.default_rng(23)

        def spoiled(bounds):
            lo, hi = bounds
            if spoil == "empty":
                return np.full_like(lo, np.inf), np.full_like(hi, -np.inf)
            if spoil == "midpoint":
                return (lo + hi) / 2.0, (lo + hi) / 2.0
            shift = rng.uniform(-1.0, 1.0, lo.shape) * 10.0 ** rng.uniform(-3.0, 2.0, lo.shape)
            return lo + shift, hi + shift

        slab, chord = sim._slab, sim._chord
        monkeypatch.setattr(sim, "_slab", lambda *args: spoiled(slab(*args)))
        monkeypatch.setattr(sim, "_chord", lambda *args: spoiled(chord(*args)))
        for world, auv, cam in [*RUN_STRESS_CASES.values(), *small_render_cases(30)]:
            assert np.array_equal(render_view(world, auv, cam, 3).pixels,
                                  oracles.render_reference(world, auv, cam, 3))

    def test_survey_mission_frames_match(self, monkeypatch):
        """Every frame one benchmark survey mission captures equals the reference."""
        scenario = sim.load_scenario(ROOT / "bench" / "data" / "survey.scenario")
        real, frames = sim.render_view, []

        def captured(world, auv, cam, frame, draws=None):
            frames.append(((world, auv, cam, frame), real(world, auv, cam, frame, draws)))
            return frames[-1][1]

        monkeypatch.setattr(sim, "render_view", captured)
        run_mission(scenario, sim.read_rulebase(scenario.rulebase_file))
        assert len(frames) == 9
        for args, img in frames:
            assert img.pixels.tobytes() == oracles.render_reference(*args).tobytes()

    def test_render_allocates_no_full_raster_float_temporaries(self):
        """Peak traced memory of one 320x240 survey-bend render.

        The float64 speckle draw alone is 600 KiB; float64 ground grids or an
        int64 image would each add a further 600 KiB.
        """
        world = SURVEY_BEND
        auv, cam = AuvState(60.0, 0.0, 90.0), CameraModel()
        render_view(world, auv, cam, 1)   # warm up lazy imports
        tracemalloc.start()
        try:
            render_view(world, auv, cam, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * 1024


class TestDriftMetrics:
    def test_reference_table_rows(self):
        world = World(pipeline=((47.5, 22.5), (58.5, 45.0), (69.6, 67.5),
                                (80.8, 90.0), (91.9, 112.5)))
        before = [69.5, 71.7, 73.3, 78.3, 75.7]
        after = [55.2, 57.4, 68.5, 88.1, 85.9]
        ys = [22.5, 45.0, 67.5, 90.0, 112.5]
        rec = drift_metrics([AuvState(x, y, 90.0) for x, y in zip(before, ys)], world)
        assert [p.drift for p in rec.points] == [22.0, 13.2, 3.7, -2.5, -16.2]
        assert [p.pct_drift for p in rec.points] == [275.0, 165.0, 46.3, 31.3, 202.5]
        rec = drift_metrics([AuvState(x, y, 90.0) for x, y in zip(after, ys)], world)
        assert [p.drift for p in rec.points] == [7.7, -1.1, -1.1, 7.3, -6.0]
        assert [p.pct_drift for p in rec.points] == [96.3, 13.8, 13.8, 91.3, 75.0]

    def test_zero_drift(self):
        assert pct_of_drift(0.0, 8.0) == 0.0

    def test_half_up_rounding(self):
        assert pct_of_drift(3.7, 8.0) == 46.3   # 46.25 rounds up
        assert pct_of_drift(2.5, 8.0) == 31.3   # 31.25 rounds up

    def test_interpolates_between_waypoints(self):
        world = World(pipeline=((40.0, 0.0), (60.0, 100.0)))
        assert pipeline_x_at(world, 50.0) == pytest.approx(50.0)
        assert pipeline_x_at(world, 0.0) == 40.0
        assert pipeline_x_at(world, 100.0) == 60.0
        assert pipeline_x_at(world, -1e-9) == 40.0   # the slack past each end
        assert pipeline_x_at(world, 100.0 + 1e-9) == 60.0

    @pytest.mark.parametrize("y, shown", [(math.nan, "nan"), (9.9, "9.90"),
                                          (100.00001, "100.00"), (-math.inf, "-inf")])
    def test_out_of_span_message(self, y, shown):
        world = World(pipeline=((40.0, 10.0), (60.0, 100.0)))
        with pytest.raises(ValueError, match=re.escape(
                f"y={shown} outside pipeline span [10.00, 100.00]")):
            pipeline_x_at(world, y)

    @pytest.mark.parametrize("y", [None, "50.0"])
    def test_a_y_that_is_no_number_is_a_type_error(self, y):
        with pytest.raises(TypeError):
            pipeline_x_at(World(pipeline=((40.0, 10.0), (60.0, 100.0))), y)

    def test_drift_names_the_first_y_out_of_span(self):
        world = World(pipeline=((40.0, 10.0), (60.0, 100.0)))
        path = [AuvState(50.0, y, 90.0) for y in (50.0, 120.0, 5.0)]
        with pytest.raises(ValueError, match=re.escape("y=120.00 outside pipeline span")):
            drift_metrics(path, world)

    def test_out_of_span_rejected(self):
        world = World(pipeline=((40.0, 10.0), (60.0, 100.0)))
        with pytest.raises(ValueError):
            pipeline_x_at(world, 5.0)
        with pytest.raises(ValueError):
            drift_metrics([AuvState(50.0, 150.0, 90.0)], world)

    def test_rounding_has_no_precision_limit(self):
        assert pct_of_drift(0.1, 1e-26) == 1e27   # 29 digits, past Decimal's default 28
        world = World(pipeline=((47.5, 22.5), (58.5, 45.0)))
        point, = drift_metrics([AuvState(5e26, 22.5, 90.0)], world).points
        assert (point.drift, point.pct_drift) == (5e26, 6.25e27)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            pct_of_drift(1.0, 0.0)

    @pytest.mark.parametrize("drift, tolerance, message", [
        (math.nan, 8.0, "drift must be finite, got nan"),
        (math.inf, 8.0, "drift must be finite, got inf"),
        (-math.inf, 8.0, "drift must be finite, got -inf"),
        (1.0, math.inf, "tolerance must be positive and finite, got inf"),
        (1.0, math.nan, "tolerance must be positive and finite, got nan"),
        (1.0, -8.0, "tolerance must be positive and finite, got -8.0"),
    ])
    def test_pct_of_drift_rejects_non_finite_values(self, drift, tolerance, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pct_of_drift(drift, tolerance)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0])
    def test_record_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(ValueError,
                           match=f"^tolerance must be positive and finite, got {tolerance}$"):
            PathRecord((), tolerance)

    @pytest.mark.parametrize("field, value, message", [
        ("actual_x", math.nan, "path point actual_x must be finite, got nan"),
        ("actual_x", -math.inf, "path point actual_x must be finite, got -inf"),
        ("sim_x", math.inf, "path point sim_x must be finite, got inf"),
        ("drift", math.nan, "path point drift must be finite, got nan"),
        ("pct_drift", math.nan, "path point pct_drift must be >= 0, got nan"),
        ("pct_drift", -0.1, "path point pct_drift must be >= 0, got -0.1"),
    ])
    def test_path_point_rejects_non_finite_values(self, field, value, message):
        values = dict(step=1, actual_x=46.4, sim_x=46.4, drift=0.0, pct_drift=0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.PathPoint(**{**values, field: value})

    def test_path_point_keeps_an_infinite_percentage(self):
        """A finite drift over a subnormal tolerance: see test_tiny_tolerance_ends_in_a_record."""
        point = drift_metrics([AuvState(86.1, 50.0, 90.0)],
                              World(pipeline=((86.2, 0.0), (86.2, 100.0))), 5e-324).points[0]
        assert (point.drift, point.pct_drift) == (-0.1, math.inf)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_pose_rejected(self, x):
        """AuvState rejects the pose first; drift_metrics, which reads only .x and .y,
        still rejects such a state of another type."""
        with pytest.raises(InvariantError, match=f"^pose x must be finite, got {x}$"):
            AuvState(x, 50.0, 90.0)
        world = World(pipeline=((40.0, 0.0), (60.0, 100.0)))
        with pytest.raises(ValueError, match=f"^drift must be finite, got {x}$"):
            drift_metrics([AuvState(40.0, 0.0, 90.0), SimpleNamespace(x=x, y=50.0)], world)


def drift_reference(path, world):
    """drift_metrics as a loop of scalar np.interp calls, one per point."""
    xs, ys = zip(*world.pipeline)
    points = []
    for i, state in enumerate(path, start=1):
        if not ys[0] - 1e-9 <= state.y <= ys[-1] + 1e-9:
            raise ValueError(f"y={state.y:.2f} outside pipeline span "
                             f"[{ys[0]:.2f}, {ys[-1]:.2f}]")
        actual = float(np.interp(state.y, ys, xs))
        drift = sim._round1(Decimal(repr(state.x - actual)))
        points.append(sim.PathPoint(i, actual, state.x, drift,
                                    pct_of_drift(drift, sim.DEFAULT_TOLERANCE_CM)))
    return PathRecord(tuple(points), sim.DEFAULT_TOLERANCE_CM)


def record_or_error(drift, path, world):
    try:
        return drift(path, world).to_csv().encode()
    except ValueError as exc:
        return str(exc)


# SURVEY_BEND spans y 0-200: its ends, the 1e-9 slack past them, and just beyond that
span_y = st.one_of(st.floats(-20.0, 220.0), st.sampled_from(
    [0.0, 200.0, -1e-9, 200.0 + 1e-9, -2e-9, 200.0 + 2e-9, 100.0, math.nan]))


@example([(60.0, 10.0), (61.0, -5.0), (62.0, 250.0)])
@given(st.lists(st.tuples(st.floats(0.0, 150.0), span_y), max_size=12))
def test_drift_metrics_equals_the_per_point_reference(points):
    """Same CSV bytes, or the same message naming the first y outside the span.  The
    states are plain (x, y) records, since AuvState rejects the nan y drawn here."""
    path = [SimpleNamespace(x=x, y=y) for x, y in points]
    assert (record_or_error(drift_metrics, path, SURVEY_BEND)
            == record_or_error(drift_reference, path, SURVEY_BEND))


@st.composite
def worlds_and_queries(draw):
    """A World of 2-25 waypoints, xs including +-0.0 and the envelope edge, and ys to
    query: its waypoints' ys, the 1e-9 slack past each end, and ys between."""
    ys = sorted(draw(st.lists(st.floats(0.0, 200.0), min_size=2, max_size=25, unique=True)))
    assume(all((b - a) * (b - a) > 0.0 for a, b in zip(ys, ys[1:])))
    xs = draw(st.lists(st.one_of(st.floats(0.0, 150.0), st.sampled_from([0.0, -0.0, 150.0])),
                       min_size=len(ys), max_size=len(ys)))
    queries = draw(st.lists(st.one_of(
        st.sampled_from([*ys, ys[0] - 1e-9, ys[-1] + 1e-9]), st.floats(ys[0], ys[-1])),
        min_size=1, max_size=10))
    return World(pipeline=tuple(zip(xs, ys))), queries


@given(worlds_and_queries())
def test_pipeline_x_at_equals_np_interp_bit_for_bit(world_and_queries):
    world, queries = world_and_queries
    xs, ys = zip(*world.pipeline)
    for y in queries:
        x, x64 = pipeline_x_at(world, y), pipeline_x_at(world, np.float64(y))
        assert type(x) is type(x64) is float
        assert x.hex() == x64.hex() == float(np.interp(y, ys, xs)).hex()


class TestPathRecordCsv:
    def test_exact_format(self):
        world = World(pipeline=((47.5, 22.5), (58.5, 45.0)))
        rec = drift_metrics([AuvState(69.5, 22.5, 90.0)], world)
        assert rec.to_csv() == ("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n"
                                "1,47.5,69.5,+22.0,275.0\n")

    def test_negative_drift_sign(self):
        world = World(pipeline=((47.5, 22.5), (58.5, 45.0)))
        rec = drift_metrics([AuvState(45.0, 22.5, 90.0)], world)
        assert ",-2.5," in rec.to_csv()

    def test_round_trip(self):
        world = World(pipeline=((47.5, 22.5), (58.5, 45.0), (69.6, 67.5)))
        rec = drift_metrics([AuvState(50.0, 30.0, 90.0), AuvState(60.0, 50.0, 91.0)], world)
        back = PathRecord.from_csv(rec.to_csv())
        assert [p.drift for p in back.points] == [p.drift for p in rec.points]
        assert [p.step for p in back.points] == [1, 2]

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            PathRecord.from_csv("1,2,3,4,5\n")

    def test_rejects_empty_body(self):
        with pytest.raises(ValueError):
            PathRecord.from_csv("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n")

    @pytest.mark.parametrize("row, message", [
        ("1,a,3,4,5", "non-numeric"),
        ("1.5,2,3,4,5", "non-numeric"),
        ("1,inf,abc,+0.0,0.0", "non-numeric"),   # every field is read before a finiteness test
        ("1,nan,inf,+0.0,0.0", "non-finite"),
        ("0,2,3,4,5", "step outside 1-10000 in"),
        ("10001,2,3,4,5", "step outside 1-10000 in"),
        ("9" * 400 + ",2,3,4,5", "step outside 1-10000 in"),   # overflowed the plot
        ("1,2,3,4,-5", "path point pct_drift must be >= 0, got -5.0 in"),
    ])
    def test_bad_number_names_the_row(self, row, message):
        with pytest.raises(ValueError, match=f"^{message} CSV row: {re.escape(repr(row))}$"):
            PathRecord.from_csv(f"{sim.CSV_HEADER}\n{row}\n")

    def test_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            PathRecord.from_csv("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n1,2,3\n")
        with pytest.raises(ValueError):
            PathRecord.from_csv("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n1,a,3,4,5\n")


class TestRunMission:
    def test_default_scenario_tracks_within_tolerance(self, default_scenario):
        record = run_mission(default_scenario, sim.load_rulebase(default_scenario))
        assert len(record.points) == 5
        assert record.max_abs_drift() <= record.tolerance

    def test_straight_centered_pipe_barely_drifts(self):
        world = World(pipeline=tuple((75.0, 22.5 * k) for k in range(6)), seed=7)
        sc = Scenario(world=world, start=AuvState(75.0, 0.0, 90.0))
        record = run_mission(sc, fis.default_rulebase())
        assert record.max_abs_drift() < 1.0

    def test_straight_pipe_stays_inside_envelope(self):
        world = World(pipeline=tuple((75.0, 22.5 * k) for k in range(6)), seed=3)
        sc = Scenario(world=world, start=AuvState(75.0, 0.0, 90.0))
        run_mission(sc, fis.default_rulebase())  # would raise on envelope exit

    def test_overlapped_equals_sequential(self, default_scenario):
        rb = sim.load_rulebase(default_scenario)
        a = run_mission(default_scenario, rb, mode="sequential")
        b = run_mission(default_scenario, rb, mode="overlapped")
        assert a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0])
    def test_bad_tolerance_is_rejected_before_flying(self, tolerance, monkeypatch):
        """Once the whole mission was flown, or a failing one reported its failure, first."""
        renders = count_renders(monkeypatch)
        for heading in (116.0, 170.0):   # a record, and a no-object failure
            with pytest.raises(ValueError,
                               match=f"^tolerance must be positive and finite, got {tolerance}$"):
                run_mission(small_scenario(start=replace(ALIGNED_START, heading=heading)),
                            fis.default_rulebase(), tolerance=tolerance)
        assert renders == []

    def test_unknown_mode_rejected(self, default_scenario):
        with pytest.raises(ValueError):
            run_mission(default_scenario, fis.default_rulebase(), mode="parallel")

    def test_mirror_world_negates_drift(self):
        rb = fis.default_rulebase()
        ex = TABLE_WORLD.envelope[0]
        mirrored = World(envelope=TABLE_WORLD.envelope,
                         pipeline=tuple((ex - x, y) for x, y in TABLE_WORLD.pipeline),
                         pipe_width=TABLE_WORLD.pipe_width, seed=TABLE_WORLD.seed)
        a = run_mission(Scenario(world=TABLE_WORLD, start=ALIGNED_START), rb)
        b = run_mission(Scenario(world=mirrored,
                                 start=AuvState(ex - ALIGNED_START.x, 0.0,
                                                180.0 - ALIGNED_START.heading)), rb)
        for p, q in zip(a.points, b.points):
            assert p.drift + q.drift == pytest.approx(0.0, abs=1.0)

    def test_detuned_exceeds_tolerance(self, detuned_scenario):
        record = run_mission(detuned_scenario, sim.load_rulebase(detuned_scenario))
        assert any(abs(p.drift) > record.tolerance for p in record.points)

    def test_no_object_failure(self):
        world = World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=1)
        sc = Scenario(world=world, start=AuvState(140.0, 0.0, 90.0))
        with pytest.raises(MissionFailure) as exc:
            run_mission(sc, fis.default_rulebase())
        assert exc.value.reason == "no-object"
        assert exc.value.frame == 0
        assert exc.value.pose == sc.start
        assert str(exc.value).endswith("; frame 0, pose x=140.0 y=0.0 heading=90.0")

    def test_envelope_exit_failure(self):
        world = World(pipeline=((130.0, 0.0), (130.0, 200.0)), seed=1)
        sc = Scenario(world=world, start=AuvState(140.0, 0.0, 120.0), steering_gain=0.0)
        for mode in ("sequential", "overlapped"):
            with pytest.raises(MissionFailure) as exc:
                run_mission(sc, fis.default_rulebase(), mode)
            assert str(exc.value) == ("mission failed at step 1: envelope-exit ((151.2, 19.5) "
                                      "outside 150 x 200 envelope); frame 0, pose x=140.0 "
                                      "y=0.0 heading=120.0")
            assert exc.value.reason == "envelope-exit"
            assert (exc.value.step, exc.value.frame) == (1, 0)
            assert exc.value.pose == sc.start   # the pose the step started from

    def test_zero_point_mission_fails(self):
        sc = small_scenario(step_length=1000.0)
        with pytest.raises(MissionFailure) as exc:
            run_mission(sc, fis.default_rulebase())
        assert exc.value.reason == "no-points"
        assert exc.value.step == 1

    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    def test_circling_mission_fails_no_progress(self, mode):
        # every ground pixel is pipe and every rule turns right, so the vehicle
        # circles inside the envelope and never reaches the pipeline end
        world = World(pipeline=((75.0, 0.0), (75.0, 200.0)), pipe_width=400.0)
        sc = Scenario(world=world, start=AuvState(50.0, 60.0, 90.0))
        rb = fis.parse_rulebase("IF x5 IS Left THEN y1 IS TurnRight\n"
                                "IF x5 IS Center THEN y1 IS TurnRight\n"
                                "IF x5 IS Right THEN y1 IS TurnRight\n")
        with pytest.raises(MissionFailure) as exc:
            run_mission(sc, rb, mode)
        assert exc.value.reason == "no-progress"
        assert exc.value.step == math.ceil(2 * 140.0 / sc.step_length) + 1
        # steps 1-5, 6-10 and 11-13 were steered by frames 0, 1 and 2
        assert exc.value.frame == 2

    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    def test_step_below_pipeline_start_fails_behind_start(self, mode):
        # a constant hard left turn: step 1 lands below the first waypoint,
        # and steps 2 and 3 would reach the pipeline end from there
        world = World(pipeline=((50.0, 1.0), (50.0, 11.0)))
        sc = Scenario(world=world, camera=CameraModel(image_width=16, image_height=10),
                      thresholds=ThresholdBand(0, 80), min_area=0, steering_gain=1.5,
                      step_length=5.0, steps_per_image=1, start=AuvState(50.0, 5.0, 0.0))
        rb = fis.parse_rulebase("term.x5.Center = gaussian(1.0, 0.55)\n"
                                "term.y1.TurnLeft = pi(2, 20)\n"
                                "IF x5 IS Center THEN y1 IS TurnLeft\n")
        with pytest.raises(MissionFailure) as exc:
            run_mission(sc, rb, mode)
        assert exc.value.reason == "behind-start"
        assert exc.value.step == 1

    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    def test_steps_beyond_the_fifth_reuse_band_5s_steer(self, mode, monkeypatch):
        sc = small_scenario(step_length=16.0, steps_per_image=7)   # one capture, 7 steps
        rb = fis.default_rulebase()
        vectors = features.extract_features(render_view(sc.world, sc.start, sc.camera, 0),
                                            sc.thresholds, sc.min_area)
        bands = [fis.infer(rb, vector.as_dict()).output for vector in vectors]
        steers = []
        real = sim.step_auv

        def recorded(state, steer, scenario):
            steers.append(steer)
            return real(state, steer, scenario)

        monkeypatch.setattr(sim, "step_auv", recorded)
        assert len(run_mission(sc, rb, mode).points) == 7
        assert steers == bands + [bands[4], bands[4]]

    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    @pytest.mark.parametrize("steps_per_image, per_capture", [(1, 1), (5, 5), (7, 5)])
    def test_a_capture_infers_only_the_bands_it_steers(self, mode, steps_per_image,
                                                       per_capture, monkeypatch):
        infers = []
        real = fis._steer   # the missions' inference entry: infer's core, without its result

        def counted(*args):
            infers.append(args)
            return real(*args)

        monkeypatch.setattr(fis, "_steer", counted)
        renders = count_renders(monkeypatch)
        sc = small_scenario(step_length=16.0, steps_per_image=steps_per_image)
        assert len(run_mission(sc, fis.default_rulebase(), mode).points) == 7
        assert len(infers) == per_capture * len(renders)

    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    def test_only_overlapped_draws_leave_the_main_thread(self, mode, monkeypatch):
        """Overlapped mode draws each frame's noise on its worker; steers are always inferred
        on the mission's own thread."""
        threads = {"draws": [], "infer": []}

        def on_thread(name, real):
            def recorded(*args):
                threads[name].append(threading.current_thread())
                return real(*args)
            return recorded

        monkeypatch.setattr(sim, "_draws", on_thread("draws", sim._draws))
        monkeypatch.setattr(fis, "_steer", on_thread("infer", fis._steer))
        renders = count_renders(monkeypatch)
        sc = small_scenario(step_length=16.0, steps_per_image=1)
        assert len(run_mission(sc, fis.default_rulebase(), mode).points) == len(renders) == 7
        main_thread = threading.main_thread()
        assert threads["infer"] == [main_thread] * 7
        if mode == "sequential":
            assert threads["draws"] == [main_thread] * 7
        else:   # no frame is drawn ahead of the last capture
            assert len(threads["draws"]) == 7 and main_thread not in threads["draws"]

    @pytest.mark.parametrize("steps_per_image, step_length", [
        (1, 16.0), (1, 22.5), (2, 16.0), (3, 10.0), (5, 16.0), (7, 10.0), (None, None)])
    def test_overlapped_draws_only_the_frames_it_captures(self, steps_per_image, step_length,
                                                          monkeypatch):
        """A frame is drawn ahead only while a later capture can still happen, so a
        mission's _draws calls equal its captures (None: the benchmark's 9-frame survey)."""
        if steps_per_image is None:
            sc = sim.load_scenario(ROOT / "bench" / "data" / "survey.scenario")
        else:
            sc = small_scenario(steps_per_image=steps_per_image, step_length=step_length)
        expected = run_mission(sc, fis.default_rulebase()).to_csv()
        draws, renders = count_draws(monkeypatch), count_renders(monkeypatch)
        assert run_mission(sc, fis.default_rulebase(), "overlapped").to_csv() == expected
        assert draws == [(sc.world.seed, frame) for frame in range(len(renders))]

    @pytest.mark.parametrize("outcome", ["record", "no-object", "envelope-exit"])
    def test_an_overlapped_mission_leaves_no_thread_behind(self, outcome):
        scenario = {
            "record": small_scenario(),
            "no-object": Scenario(World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=1),
                                  start=AuvState(140.0, 0.0, 90.0)),
            "envelope-exit": Scenario(World(pipeline=((130.0, 0.0), (130.0, 200.0)), seed=1),
                                      start=AuvState(140.0, 0.0, 120.0), steering_gain=0.0),
        }[outcome]
        before = threading.active_count()
        try:
            run_mission(scenario, fis.default_rulebase(), "overlapped")
            ended = "record"
        except MissionFailure as exc:
            ended = exc.reason
        assert ended == outcome
        assert threading.active_count() == before

    def test_seed_changes_noise_but_not_success(self):
        rb = fis.default_rulebase()
        views = []
        for seed in (0, 1, 2):
            world = replace(TABLE_WORLD, seed=seed)
            views.append(render_view(world, ALIGNED_START, SMALL_CAMERA).pixels.tobytes())
            record = run_mission(small_scenario(world=world), rb)
            assert record.max_abs_drift() <= record.tolerance
        assert len(set(views)) == 3


MISSION_FAILURES = {"no-object", "envelope-exit", "no-points", "no-progress", "behind-start"}


@st.composite
def small_missions(draw):
    """A valid scenario with a camera of at most 32x24 pixels, and a rule base
    whose term widths and centers lie anywhere in tune's search space, with
    centers drawn at the universe edges often."""
    n = draw(st.integers(2, 5))
    ys = sorted(draw(st.lists(st.floats(0.0, 200.0), min_size=n, max_size=n, unique=True)))
    assume(all(b - a > 1e-6 for a, b in zip(ys, ys[1:])))
    xs = draw(st.lists(st.floats(0.0, 150.0), min_size=n, max_size=n))
    world = World(pipeline=tuple(zip(xs, ys)), pipe_width=draw(st.floats(1.0, 60.0)),
                  seed=draw(st.integers(0, 1000)))
    cam = CameraModel(height_cm=draw(st.floats(5.0, 150.0)), tilt_deg=draw(st.floats(5.0, 85.0)),
                      fov_deg=draw(st.floats(20.0, 150.0)),
                      image_width=draw(st.integers(2, 32)), image_height=draw(st.integers(10, 24)),
                      noise_amplitude=draw(st.sampled_from([0, 30])),
                      speckle_density=draw(st.sampled_from([0.0, 0.005, 0.05])))
    t1 = draw(st.integers(0, 254))
    scenario = Scenario(world=world, camera=cam,
                        thresholds=ThresholdBand(t1, draw(st.integers(t1 + 1, 255))),
                        min_area=draw(st.integers(0, 30)),
                        steering_gain=draw(st.floats(-3.0, 3.0)),
                        step_length=draw(st.floats(5.0, 60.0)),
                        steps_per_image=draw(st.integers(1, 7)),
                        start=AuvState(draw(st.floats(0.0, 150.0)), draw(st.floats(ys[0], ys[-1])),
                                       draw(st.floats(-180.0, 360.0))))
    rb0 = fis.default_rulebase()
    params = {}
    for var, term in fis.term_parameters(rb0):
        lo, hi = rb0.variables[var].universe
        params[(var, term)] = (draw(st.floats(0.01 * (hi - lo), 2.0 * (hi - lo))),
                               draw(st.sampled_from([lo, hi]) | st.floats(lo, hi)))
    return scenario, fis.with_term_parameters(rb0, params)


def scenario_file_text(scenario) -> str:
    """A scenario file that parse_scenario reads back as the scenario, which names no rule
    base file: every number as repr writes it."""
    parts = {"world": scenario.world, "camera": scenario.camera, "start": scenario.start,
             "thresholds": scenario.thresholds, "scenario": scenario}
    lines = ["pipe.waypoints = " + "; ".join(f"{x!r}:{y!r}" for x, y in scenario.world.pipeline)]
    for key, (part, field) in sim._SCENARIO_KEYS.items():
        value = getattr(parts[part], field)
        if field == "envelope":
            value = value[key == "envelope.y"]
        if key != "rulebase":
            lines.append(f"{key} = {value!r}")
    text = "\n".join(lines) + "\n"
    assert parse_scenario(text) == scenario
    return text


def reproduce_no_object(scenario, failure: MissionFailure) -> None:
    """Render the failing capture from the frame and pose the message prints, as the CLI
    does, and check that `features` reports the failure's NoObjectError text."""
    frame, x, y, heading = re.search(r"; frame (\d+), pose x=(\S+) y=(\S+) heading=(\S+)$",
                                     str(failure)).groups()
    with tempfile.TemporaryDirectory() as tmp:
        path, view = f"{tmp}/failed.scenario", f"{tmp}/view.pgm"
        with open(path, "w") as f:
            f.write(scenario_file_text(scenario))
        assert main(["render", "--scenario", path, "--frame", frame,
                     "--pose", f"{x},{y},{heading}", "--out", view]) == 0
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["features", view, "--scenario", path]) == 1
    text = str(failure.__cause__)
    assert err.getvalue() == f"pipefollow: no-object: {text}\n"
    assert f": no-object ({text}); frame {frame}, pose " in str(failure)


class TestMissionTermination:
    @settings(max_examples=60, deadline=None)
    @given(small_missions())
    def test_mission_ends_within_its_step_bound_in_both_modes(self, case):
        """...and a no-object failure is drawn again from the frame and pose it prints."""
        scenario, rb = case
        max_steps = math.ceil(2.0 * (scenario.world.pipeline[-1][1] - scenario.start.y)
                              / scenario.step_length)
        outcomes = []
        for mode in ("sequential", "overlapped"):
            try:
                record = run_mission(scenario, rb, mode)
            except MissionFailure as exc:
                assert exc.reason in MISSION_FAILURES
                assert 1 <= exc.step <= max_steps + 1
                outcomes.append(str(exc))
                if exc.reason == "no-object":
                    reproduce_no_object(scenario, exc)
            else:
                assert 1 <= len(record.points) <= max_steps
                outcomes.append(record.to_csv())
        assert outcomes[0] == outcomes[1]

    def test_a_no_object_failure_after_frame_0_is_drawn_again_from_its_message(self):
        """Heading 0 points along -x, so the second capture's pose has y = 5*cos(-pi/2), which
        one decimal would print as 0.0."""
        scenario = Scenario(World(pipeline=((0.0, 0.0), (0.0, 5.0)), pipe_width=1.0),
                            camera=CameraModel(height_cm=5.0, tilt_deg=5.0, fov_deg=20.0,
                                               image_width=2, image_height=10,
                                               noise_amplitude=0, speckle_density=0.0),
                            thresholds=ThresholdBand(80, 220), min_area=0, steering_gain=0.0,
                            step_length=5.0, steps_per_image=1, start=AuvState(5.0, 0.0, 0.0))
        for mode in ("sequential", "overlapped"):
            with pytest.raises(MissionFailure) as exc:
                run_mission(scenario, fis.default_rulebase(), mode)
            assert str(exc.value).endswith("; frame 1, pose x=0.0 y=3.061616997868383e-16 "
                                           "heading=0.0")
            reproduce_no_object(scenario, exc.value)

    def test_steer_at_the_universe_edge_ends_in_a_record_or_failure(self):
        """All y1 centers at 180 once rounded a steer to 180.00000000000003."""
        rb = fis.default_rulebase()
        params = {("y1", term): (mf.width, 180.0)
                  for term, mf in rb.variables["y1"].terms.items()}
        rb = fis.with_term_parameters(rb, params)
        scenario = small_scenario(steering_gain=0.0)
        outcomes = []
        for mode in ("sequential", "overlapped"):
            try:
                outcomes.append(run_mission(scenario, rb, mode).to_csv())
            except MissionFailure as exc:
                assert exc.reason in MISSION_FAILURES
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        mission_objective([scenario], rb)     # and tune's objective raises nothing either


@st.composite
def noiseless_missions(draw):
    """A noise-free scenario with an even image width of 16-48 pixels, a pipeline whose
    segments lean at most 1 in 2, and a start near the pipe heading roughly along it."""
    n = draw(st.integers(2, 5))
    ys = [draw(st.floats(0.0, 40.0))]
    for _ in range(n - 1):
        ys.append(ys[-1] + draw(st.floats(20.0, 160.0 / (n - 1))))
    xs = [draw(st.floats(30.0, 120.0))]
    for a, b in zip(ys, ys[1:]):
        xs.append(min(max(xs[-1] + draw(st.floats(-0.5, 0.5)) * (b - a), 0.0), 150.0))
    world = World(pipeline=tuple(zip(xs, ys)), pipe_width=draw(st.floats(5.0, 40.0)))
    cam = CameraModel(height_cm=draw(st.floats(20.0, 80.0)), tilt_deg=draw(st.floats(20.0, 70.0)),
                      fov_deg=draw(st.floats(40.0, 120.0)),
                      image_width=2 * draw(st.integers(8, 24)),
                      image_height=draw(st.integers(10, 30)),
                      noise_amplitude=0, speckle_density=0.0)
    y = draw(st.floats(ys[0], ys[0] + 0.3 * (ys[-1] - ys[0])))
    x = min(max(pipeline_x_at(world, y) + draw(st.floats(-15.0, 15.0)), 0.0), 150.0)
    return Scenario(world=world, camera=cam, min_area=draw(st.sampled_from([0, 5, 25])),
                    steering_gain=draw(st.floats(-3.0, 3.0)),
                    step_length=draw(st.floats(5.0, 60.0)),
                    steps_per_image=draw(st.sampled_from([1, 2, 5])),
                    start=AuvState(x, y, draw(st.floats(75.0, 105.0))))


def mirrored(scenario):
    """The scenario reflected across the envelope's middle: every x to envelope.x - x and
    the heading to 180 - heading."""
    world, start = scenario.world, scenario.start
    ex = world.envelope[0]
    return replace(scenario, world=replace(world, pipeline=tuple((ex - x, y) for x, y in
                                                                 world.pipeline)),
                   start=AuvState(ex - start.x, start.y, 180.0 - start.heading))


def mission_outcome(scenario, mode):
    """The record, or the failure's (reason, step, frame)."""
    try:
        return run_mission(scenario, fis.default_rulebase(), mode)
    except MissionFailure as exc:
        return exc.reason, exc.step, exc.frame


@settings(max_examples=40, deadline=None)
@given(noiseless_missions())
def test_a_mirrored_mission_ends_alike_with_every_drift_negated(scenario):
    """The default rules are mirror-symmetric and an even-width camera samples its columns
    symmetrically, so a noise-free mission and its mirror image fail alike or record the
    same number of points, each drift the exact negation of its mirror's."""
    for mode in ("sequential", "overlapped"):
        a, b = mission_outcome(scenario, mode), mission_outcome(mirrored(scenario), mode)
        if isinstance(a, tuple) or isinstance(b, tuple):
            assert a == b
        else:
            assert [p.drift for p in a.points] == [-q.drift for q in b.points]


def detuned(shift):
    """Default term parameters with every input center moved up by shift."""
    rb = fis.default_rulebase()
    params = dict(fis.term_parameters(rb))
    for var in fis.INPUT_VARIABLES:
        for term in rb.variables[var].terms:
            w, c = params[(var, term)]
            params[(var, term)] = (w, min(c + shift, 1.0))
    return params


class TestTune:
    def test_budget_one_returns_init(self):
        init = fis.term_parameters(fis.default_rulebase())
        result = tune([small_scenario()], init, budget=1)
        assert result.params == init
        assert result.best_objective == result.initial_objective
        assert result.evaluations == 1

    def test_detuned_init_strictly_improves(self):
        init = detuned(0.1)
        result = tune([small_scenario()], init, budget=120)
        assert result.initial_objective[0] > 8.0
        assert result.best_objective < result.initial_objective

    def test_never_worse_than_init(self):
        init = detuned(0.2)
        result = tune([small_scenario()], init, budget=40)
        assert result.best_objective <= result.initial_objective

    def test_deterministic(self):
        init = detuned(0.1)
        a = tune([small_scenario()], init, budget=60)
        b = tune([small_scenario()], init, budget=60)
        assert a.params == b.params
        assert a.best_objective == b.best_objective

    def test_stops_after_a_sweep_without_progress_at_the_finest_scale(self):
        result = tune([small_scenario()], detuned(0.1), budget=10**6)
        assert result.evaluations == 1348
        assert result.best_objective == (0.5, 0.42000000000000004)

    def test_each_later_evaluation_rebuilds_one_term(self, monkeypatch):
        """A candidate is the best rule base with only the moved term built afresh."""
        built, before_each = [], []
        post_init, objective = fis.MembershipFunction.__post_init__, sim.mission_objective

        def counted_post_init(mf):
            built.append(mf)
            post_init(mf)

        def counted_objective(*args):
            before_each.append(len(built))
            return objective(*args)

        monkeypatch.setattr(fis.MembershipFunction, "__post_init__", counted_post_init)
        monkeypatch.setattr(sim, "mission_objective", counted_objective)
        result = tune([small_scenario()], detuned(0.1), budget=4)
        assert result.evaluations == len(before_each) == 4
        assert np.diff(before_each + [len(built)]).tolist() == [1, 1, 1, 0]

    def test_init_overrides_a_subset_of_the_rule_base(self):
        """{} and a one-term init tune as the full view they override, and params always
        hold all 21 terms."""
        rb = fis.with_term_parameters(fis.default_rulebase(), detuned(0.1))
        full = fis.term_parameters(rb)
        one = {("x5", "Center"): (0.3, 0.6)}
        for init, full_init in (({}, full), (one, {**full, **one})):
            result = tune([small_scenario()], init, budget=12, rulebase=rb)
            assert result == tune([small_scenario()], full_init, budget=12, rulebase=rb)
            assert result.evaluations == 12
            assert result.params.keys() == full.keys() and len(result.params) == 21

    def test_objective_counts_failures_as_infinite(self):
        world = World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=1)
        sc = Scenario(world=world, start=AuvState(140.0, 0.0, 90.0))
        assert mission_objective([sc], fis.default_rulebase()) == (math.inf, math.inf)

    def test_objective_of_no_scenarios_is_infinite(self):
        assert mission_objective([], fis.default_rulebase()) == (math.inf, math.inf)

    def test_tune_rejects_a_one_shot_iterator(self, monkeypatch):
        """An iterator would be empty from the second evaluation on, and every evaluation
        after the first would score infinite: tune would tune nothing."""
        evaluated = []
        monkeypatch.setattr(sim, "mission_objective", lambda *args: evaluated.append(args))
        init = fis.term_parameters(fis.default_rulebase())
        for scenarios in (iter([small_scenario()]), (sc for sc in [small_scenario()])):
            with pytest.raises(ValueError, match="^tune flies its scenarios in each "
                                                 "evaluation; pass a list, not an iterator$"):
                tune(scenarios, init, budget=12)
        assert evaluated == []

    def test_tune_needs_a_scenario(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(sim, "mission_objective", lambda *args: evaluated.append(args))
        with pytest.raises(ValueError, match="^tune needs at least one scenario$"):
            tune([], fis.term_parameters(fis.default_rulebase()), budget=10)
        assert evaluated == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            tune([small_scenario()], fis.term_parameters(fis.default_rulebase()), budget=0)


def count_renders(monkeypatch) -> list:
    """Route sim.render_view through a counter; the list grows by one per call."""
    calls = []
    real = sim.render_view

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "render_view", counted)
    return calls


# the pipe bends out of view of a vehicle that starts over it
BENT_WORLD = World(pipeline=((75.0, 0.0), (75.0, 60.0), (10.0, 90.0), (10.0, 200.0)), seed=1)
LOSING_CAMERA = CameraModel(image_width=32, image_height=24)


def losing_scenario(start_x, camera=CameraModel()):
    """A mission over BENT_WORLD that loses the object at frame 0 from start x=140, and at
    frame 2 from x=75 (with the default rules, with CameraModel() or LOSING_CAMERA)."""
    return Scenario(world=BENT_WORLD, camera=camera, start=AuvState(start_x, 0.0, 90.0),
                    step_length=10.0)


class TestCaptureMemo:
    def test_tune_renders_a_single_frame_scenario_once(self, monkeypatch):
        renders = count_renders(monkeypatch)
        result = tune([small_scenario()], detuned(0.1), budget=20)
        assert result.evaluations == 20
        assert len(renders) == 1

    def test_objectives_reproduce_without_memo(self):
        rb = fis.default_rulebase()
        init = detuned(0.1)
        suite = [small_scenario()]
        result = tune(suite, init, budget=30)
        assert result.best_objective < result.initial_objective
        assert mission_objective(suite, fis.with_term_parameters(rb, init)) == \
            result.initial_objective
        assert mission_objective(suite, fis.with_term_parameters(rb, result.params)) == \
            result.best_objective

    def test_filled_memo_gives_identical_records(self, monkeypatch):
        sc = small_scenario(steps_per_image=1)
        rb = fis.default_rulebase()
        fresh = run_mission(sc, rb)
        captures = {}
        sim._fly(sc, rb, "sequential", captures)
        assert len(captures) == len(fresh.points) == 5
        renders = count_renders(monkeypatch)
        for mode in ("sequential", "overlapped"):
            assert drift_metrics(sim._fly(sc, rb, mode, captures), sc.world).to_csv() == \
                fresh.to_csv()
        assert renders == []

    def test_a_tune_call_renders_a_lost_capture_once(self, monkeypatch):
        """The capture that loses the object at frame 0 fails every evaluation, yet is
        rendered once; the result is the one of rendering it every time."""
        world = World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=1)
        suite = [Scenario(world=world, start=AuvState(140.0, 0.0, 90.0))]
        renders = count_renders(monkeypatch)
        result = tune(suite, {}, budget=50)
        assert len(renders) == 1
        assert result == sim.TuneResult(fis.term_parameters(fis.default_rulebase()),
                                        (math.inf, math.inf), (math.inf, math.inf), 50)

    @pytest.mark.parametrize("start_x, frame", [(140.0, 0), (75.0, 2)])
    def test_a_remembered_loss_fails_with_the_same_message(self, start_x, frame, monkeypatch):
        """A mission that loses the object at its first or a later capture fails from
        the memo with the failure it raised when it rendered."""
        sc = losing_scenario(start_x)
        rb = fis.default_rulebase()
        with pytest.raises(MissionFailure) as fresh:
            run_mission(sc, rb)
        assert fresh.value.reason == "no-object" and fresh.value.frame == frame
        captures, failures = {}, []
        renders = count_renders(monkeypatch)
        for _ in range(3):
            with pytest.raises(MissionFailure) as exc:
                sim._fly(sc, rb, "sequential", captures)
            failures.append((str(exc.value), exc.value.step, exc.value.pose))
        assert len(captures) == len(renders) == frame + 1
        assert failures == [(str(fresh.value), fresh.value.step, fresh.value.pose)] * 3

    def test_a_lost_capture_is_kept_as_its_message(self):
        """The memo keeps a capture that lost the object as the message it failed with,
        under the capture's key, and nothing else of it."""
        world = World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=1)
        sc = Scenario(world=world, start=AuvState(140.0, 0.0, 90.0))
        captures = {}
        with pytest.raises(MissionFailure) as exc:
            sim._fly(sc, fis.default_rulebase(), "sequential", captures)
        key = (sc.world, sc.camera, sc.thresholds, sc.min_area, sc.start, 0)
        assert captures == {key: str(exc.value.__cause__)}
        assert str(exc.value.__cause__).startswith("label map contains no regions")


def offset_suite(base):
    """The five starts of bench/workloads.py's build_suite: one seed, one camera."""
    start = base.start
    return [base] + [replace(base, start=replace(start, **{field: getattr(start, field) + d}))
                     for field, d in (("heading", -4.0), ("heading", 4.0), ("x", -4.0),
                                      ("x", 4.0))]


def count_draws(monkeypatch) -> list:
    """Route sim._draws through a counter; the list grows by one (seed, frame) per call."""
    calls = []
    real = sim._draws

    def counted(seed, frame, cam):
        calls.append((seed, frame))
        return real(seed, frame, cam)

    monkeypatch.setattr(sim, "_draws", counted)
    return calls


class TestSharedDraws:
    """The tuning suite: five starts of the default scenario, each flying one capture
    with the tuned rules."""

    def test_a_suite_of_start_offsets_draws_frame_0_once(self, default_scenario, monkeypatch):
        suite, rb = offset_suite(default_scenario), sim.load_rulebase(default_scenario)
        expected = tune(suite, {}, budget=1, rulebase=rb)
        assert expected.best_objective < (math.inf, math.inf)
        draws, renders = count_draws(monkeypatch), count_renders(monkeypatch)
        assert tune(suite, {}, budget=1, rulebase=rb) == expected
        assert len(renders) == 5
        assert draws == [(default_scenario.world.seed, 0)]

    def test_a_warm_evaluation_draws_nothing(self, default_scenario, monkeypatch):
        suite, rb = offset_suite(default_scenario), sim.load_rulebase(default_scenario)
        captures = {}
        expected = mission_objective(suite, rb, captures)
        draws = count_draws(monkeypatch)
        assert mission_objective(suite, rb, captures) == expected
        assert draws == []

    def test_missions_of_other_seeds_or_cameras_draw_their_own(self, monkeypatch):
        """The slot holds the last frame-0 draws, so a start after another seed's or
        camera's draws again; a repeated scenario is served from the call's memo."""
        base = small_scenario()
        moved = replace(base, start=replace(ALIGNED_START, x=ALIGNED_START.x + 1.0))
        suite = [base, replace(base, world=replace(TABLE_WORLD, seed=8)),
                 replace(base, camera=replace(SMALL_CAMERA, noise_amplitude=20)), moved, base]
        draws, renders = count_draws(monkeypatch), count_renders(monkeypatch)
        assert mission_objective(suite, fis.default_rulebase()) < (math.inf, math.inf)
        assert draws == [(7, 0), (8, 0), (7, 0), (7, 0)]
        assert len(renders) == 4

    def test_shared_arrays_are_never_written(self):
        """Two renders from one slot each equal their pose's reference, and the slot
        still holds what _draws draws."""
        cam = replace(SMALL_CAMERA, speckle_density=0.05)
        shared = {}
        for auv in (ALIGNED_START, AuvState(45.0, 10.0, 100.0), ALIGNED_START):
            draws = sim._shared_draws(shared, TABLE_WORLD.seed, 2, cam)
            assert render_view(TABLE_WORLD, auv, cam, 2, draws).pixels.tobytes() == \
                oracles.render_reference(TABLE_WORLD, auv, cam, 2).tobytes()
        [(key, held)] = shared.items()
        assert key == (TABLE_WORLD.seed, 2, cam)
        for got, drawn in zip(held, sim._draws(TABLE_WORLD.seed, 2, cam)):
            assert np.array_equal(got, drawn)

    def test_the_slot_holds_one_frame(self):
        shared = {}
        for frame in (0, 1, 0):
            sim._shared_draws(shared, 7, frame, SMALL_CAMERA)
            assert list(shared) == [(7, frame, SMALL_CAMERA)]

    def test_no_raster_outlives_the_objective(self, default_scenario, monkeypatch):
        """Nothing mission_objective drew is held once it returns: the captures dict keeps
        band vectors only."""
        held = []
        real = sim._draws

        def watched(seed, frame, cam):
            parts = real(seed, frame, cam)
            held.extend(weakref.ref(a) for a in parts if a is not None)
            return parts

        monkeypatch.setattr(sim, "_draws", watched)
        captures = {}
        mission_objective(offset_suite(default_scenario), sim.load_rulebase(default_scenario),
                          captures)
        assert len(held) == 3 and len(captures) == 5
        gc.collect()
        assert [ref() for ref in held] == [None] * 3


@st.composite
def objective_scenarios(draw):
    """A noiseless_missions scenario with steps_per_image 1-7 and its noise on or off."""
    scenario = draw(noiseless_missions())
    camera = replace(scenario.camera, **draw(st.sampled_from(
        [{}, {"noise_amplitude": 30, "speckle_density": 0.005}])))
    return replace(scenario, camera=camera, steps_per_image=draw(st.integers(1, 7)))


def records_objective(scenarios, rb) -> tuple:
    """mission_objective as max and mean |drift| of run_mission's records, each flown afresh."""
    drifts = []
    for scenario in scenarios:
        try:
            drifts += [abs(p.drift) for p in run_mission(scenario, rb).points]
        except MissionFailure:
            return (math.inf, math.inf)
    return (max(drifts), sum(drifts) / len(drifts)) if drifts else (math.inf, math.inf)


@st.composite
def offset_suites(draw):
    """The start offsets of one objective scenario with noise and speckle on, as
    build_suite makes them (starts kept inside the envelope): one seed and one camera, so
    mission_objective shares their frame-0 draws."""
    scenario = draw(objective_scenarios())
    camera = replace(scenario.camera, noise_amplitude=30, speckle_density=0.005)
    suite = offset_suite(replace(scenario, camera=camera))
    return [replace(sc, start=replace(sc.start, x=min(max(sc.start.x, 0.0), 150.0)))
            for sc in suite]


LOSING_SCENARIOS = [losing_scenario(x, LOSING_CAMERA) for x in (140.0, 75.0)]


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.lists(st.one_of(objective_scenarios(), st.sampled_from(LOSING_SCENARIOS)),
                          max_size=3), offset_suites()))
@example([LOSING_SCENARIOS[0]])
@example([small_scenario(), LOSING_SCENARIOS[1]])
def test_objective_equals_the_objective_of_the_records(suite):
    """mission_objective flies without an account, sharing one captures memo across rule
    bases as tune does (captures that lost the object at frame 0 or later included) and
    one suite's frame-0 draws across its missions, and scores the drifts run_mission's
    records hold, each flown afresh."""
    captures = {}
    for rb in (fis.default_rulebase(), fis.with_term_parameters(fis.default_rulebase(),
                                                                 detuned(0.1)),
               sim.read_rulebase(ROOT / "scenarios" / "tuned.rules")):
        assert mission_objective(suite, rb, captures) == records_objective(suite, rb)


def test_a_tune_call_generates_one_inference_function(monkeypatch):
    """A tune call shaped as the benchmark's generates its starting rule base's inference
    function once, and every candidate it evaluates shares that function."""
    scenario = sim.load_scenario(ROOT / "bench" / "data" / "tune.scenario")
    init = dict(fis.term_parameters(fis.default_rulebase()))
    for var in ("x5", "x6"):
        init.update({(var, "Left"): (0.12, 0.1), (var, "Right"): (0.12, 1.0),
                     (var, "Center"): (0.25, 0.55)})
    generated, evaluated = [], []
    real_generate, real_objective = fis._generate, sim.mission_objective

    def generate(*structure):
        generated.append(real_generate(*structure))
        return generated[-1]

    def objective(scenarios, rb, *args):
        evaluated.append(rb)
        return real_objective(scenarios, rb, *args)

    monkeypatch.setattr(fis, "_generate", generate)
    monkeypatch.setattr(sim, "mission_objective", objective)
    result = tune(offset_suite(scenario), init, budget=10)
    assert result.evaluations == len(evaluated) == 10
    assert len(generated) == 1
    assert all(rb._compiled[0] is generated[0] for rb in evaluated)


def test_tune_builds_no_percentage_point_or_record(monkeypatch):
    """The objective reads only the rounded drifts, so tune never reaches the account."""
    suite = [small_scenario(), small_scenario(start=replace(ALIGNED_START, heading=112.0))]
    expected = tune(suite, detuned(0.1), budget=12)

    def refused(*args, **kwargs):
        raise AssertionError("tune built part of a drift record")

    for name in ("drift_metrics", "pct_of_drift", "PathPoint", "PathRecord"):
        monkeypatch.setattr(sim, name, refused)
    assert tune(suite, detuned(0.1), budget=12) == expected


class TestScenarioFiles:
    def test_load_default(self, default_scenario):
        assert default_scenario.world.envelope == (150.0, 200.0)
        assert default_scenario.step_length == 22.5
        assert default_scenario.steps_per_image == 5
        assert default_scenario.start == AuvState(36.5, 0.0, 116.0)
        assert default_scenario.thresholds.t1 == 180
        assert default_scenario.rulebase_file.endswith("tuned.rules")

    def test_readme_lists_every_scenario_key(self):
        readme = (ROOT / "README.md").read_text()
        paragraph = readme[readme.index("**Scenario**"):].split("\n\n")[0]
        keys = {name for name in re.findall(r"`([^`]+)`", paragraph)
                if re.fullmatch(r"[A-Za-z][\w.]*", name)}
        assert keys == set(sim._SCENARIO_KEYS) | {"pipe.waypoints"}

    def test_unset_keys_take_the_dataclass_defaults(self):
        assert parse_scenario("pipe.waypoints = 30:10; 40:60\n") == Scenario(
            World(pipeline=((30.0, 10.0), (40.0, 60.0))), start=AuvState(30.0, 10.0, 90.0))

    def test_unknown_key_names_line(self):
        with pytest.raises(fis.ParseError, match=r"line 2.*bogus"):
            parse_scenario("pipe.waypoints = 10:0; 10:50\nbogus.key = 1\n")

    def test_missing_waypoints_rejected(self):
        with pytest.raises(ValueError, match="^missing required key pipe.waypoints$"):
            parse_scenario("seed = 3\n")

    def test_malformed_waypoint_rejected(self):
        with pytest.raises(fis.ParseError, match="waypoint"):
            parse_scenario("pipe.waypoints = 10:0; oops\n")

    def test_non_numeric_waypoint_named(self):
        with pytest.raises(fis.ParseError, match=r"^line 1: non-numeric waypoint 'a:0'$"):
            parse_scenario("pipe.waypoints = a:0; 1:2\n")

    def test_waypoint_list_may_end_in_a_separator(self):
        assert parse_scenario("pipe.waypoints = 30:10; 40:60;\n") == \
            parse_scenario("pipe.waypoints = 30:10; 40:60\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(fis.ParseError, match="seed"):
            parse_scenario("pipe.waypoints = 10:0; 10:50\nseed = many\n")

    def test_seed_of_400_digits_parses(self):
        assert parse_scenario(f"pipe.waypoints = 10:0; 10:50\nseed = {'9' * 400}\n"
                              ).world.seed == int("9" * 400)

    def test_missing_equals_rejected(self):
        with pytest.raises(fis.ParseError, match="line 1"):
            parse_scenario("just some text\n")

    def test_start_defaults_to_first_waypoint(self):
        sc = parse_scenario("pipe.waypoints = 30:10; 40:60\n")
        assert sc.start == AuvState(30.0, 10.0, 90.0)

    def test_invariant_violations_become_scenario_errors(self, tmp_path):
        text = "pipe.waypoints = 10:0; 10:300\n"   # outside envelope
        message = r"line 1: waypoint \(10\.0, 300\.0\) outside envelope$"
        with pytest.raises(ValueError, match="^" + message) as raised:
            parse_scenario(text)
        assert not isinstance(raised.value, fis.ParseError)   # the line parsed
        path = tmp_path / "far.scenario"
        path.write_text(text)
        with pytest.raises(InputError, match=r"^far\.scenario: " + message):
            sim.load_scenario(path)

    def test_rulebase_resolved_relative_to_file(self, tmp_path):
        rules = tmp_path / "my.rules"
        rules.write_text("IF x5 IS Left THEN y1 IS TurnLeft\n")
        scen = tmp_path / "my.scenario"
        scen.write_text("pipe.waypoints = 10:0; 10:50\nrulebase = my.rules\n")
        sc = sim.load_scenario(scen)
        assert len(sim.load_rulebase(sc).rules) == 1

    @pytest.mark.parametrize("line", ["camera.height = nan", "pipe.width = inf",
                                      "camera.tilt = -inf", "step.length = NaN",
                                      "start.x = nan", "start.heading = inf",
                                      "pipe.waypoints = 10:0; nan:50",
                                      "pipe.waypoints = 10:0; 10:inf"])
    def test_non_finite_number_names_file_and_line(self, tmp_path, line):
        text = "seed = 3\n" + line + "\n"
        if not line.startswith("pipe.waypoints"):
            text += "pipe.waypoints = 10:0; 10:50\n"
        path = tmp_path / "bad.scenario"
        path.write_text(text)
        with pytest.raises(InputError, match=r"^bad\.scenario: line 2: non-finite"):
            sim.load_scenario(path)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.scenario"
        path.write_text("seed = 3\npipe.waypoints = 10:0; 10:50\nseed = 4\n")
        with pytest.raises(InputError,
                           match=r"^dup\.scenario: line 3: duplicate key 'seed'.*line 1"):
            sim.load_scenario(path)

    def test_duplicate_start_key_rejected(self):
        with pytest.raises(fis.ParseError, match=r"line 3: duplicate key 'start.y'"):
            parse_scenario("start.y = 0\npipe.waypoints = 10:0; 10:50\nstart.y = 5\n")

    def test_committed_scenarios_parse(self, scenario_dir):
        paths = sorted([*scenario_dir.glob("*.scenario"),
                        *(scenario_dir.parent / "bench" / "data").glob("*.scenario")])
        assert len(paths) == 5
        for path in paths:
            sim.load_scenario(path)

    def test_rule_parse_error_names_file(self, tmp_path):
        rules = tmp_path / "broken.rules"
        rules.write_text("IF x5 IS Nowhere THEN y1 IS TurnLeft\n")
        with pytest.raises(InputError, match=r"^broken\.rules: "):
            sim.read_rulebase(rules)

    def test_empty_rulebase_falls_back_to_default(self):
        sc = parse_scenario("pipe.waypoints = 10:0; 10:50\n")
        assert sim.load_rulebase(sc) == fis.default_rulebase()


def typed_value(default):
    """Text of the type a scenario key parses as: any int, any float including
    nan and inf, or for the rulebase path any string of path-like characters."""
    if isinstance(default, int):
        return st.integers().map(str)
    if isinstance(default, str):
        return st.text(st.sampled_from("ab./~# \té\0"))
    return st.floats().map(repr)


waypoint_text = st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=4).map(
    lambda points: "; ".join(f"{x!r}:{y!r}" for x, y in points))
scenario_lines = st.fixed_dictionaries(
    {"pipe.waypoints": waypoint_text},
    optional={key: typed_value(getattr(sim._SCENARIO_PARTS[part], field))
              for key, (part, field) in sim._SCENARIO_KEYS.items()})


@example("envelope.x = 1e300\nenvelope.y = 1e300\npipe.waypoints = 0:0; 0:1e300\n")
@example("pipe.waypoints = 10:0; 10:50\nrulebase = a\0b\n")
@given(st.one_of(st.text(), scenario_lines.map(
    lambda lines: "\n".join(f"{key} = {value}" for key, value in lines.items()))))
def test_parse_scenario_raises_only_scenario_error(text):
    """parse_scenario raises only ValueError, and a bad line is a fis.ParseError whose
    line_no is a line of the text."""
    try:
        parse_scenario(text)
    except fis.ParseError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines())
    except ValueError:
        pass



comment_text = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=8)
filler_line = st.one_of(st.sampled_from(["", " ", "\t  "]),
                        st.tuples(st.sampled_from(["", "  "]), comment_text).map("#".join))


@st.composite
def commented(draw, lines):
    """lines with comment-only and blank lines inserted anywhere and a trailing comment
    on some, and the new line number of each of them."""
    lines = list(lines)
    for i, text in draw(st.lists(st.tuples(st.integers(0, len(lines) - 1), comment_text),
                                 max_size=6)):
        lines[i] += " #" + text
    fillers = draw(st.lists(st.tuples(st.integers(0, len(lines)), filler_line), max_size=6))
    out, numbers = [], []
    for i in range(len(lines) + 1):
        out.extend(text for at, text in fillers if at == i)
        if i < len(lines):
            out.append(lines[i])
            numbers.append(len(out))
    return out, numbers


def parse_or_error(parse, lines):
    """parse's result for the lines, or its ParseError's (line_no, message without the line)."""
    try:
        return parse("\n".join(lines))
    except fis.ParseError as exc:
        return exc.line_no, str(exc).removeprefix(f"line {exc.line_no}: ")


@pytest.mark.parametrize("parse, name", [(fis.parse_rulebase, "tuned.rules"),
                                         (parse_scenario, "default.scenario")],
                         ids=["rules", "scenario"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_comments_and_blank_lines_change_no_parse(parse, name, data):
    """Both files go through one line reader: comments and blank lines added to a valid
    text leave its parse as it was and move a bad line's error with the line, and a key
    given twice is reported at its second line, naming the first, in the same words."""
    lines = (ROOT / "scenarios" / name).read_text().splitlines()
    edit = data.draw(st.sampled_from(["none", "break", "repeat"]))
    if edit == "break":
        bad = data.draw(st.sampled_from(
            [i for i, line in enumerate(lines) if line.partition("#")[0].strip()]))
        lines[bad] = "bogus"
    elif edit == "repeat":
        first = data.draw(st.sampled_from(
            [i for i, line in enumerate(lines) if "=" in line.partition("#")[0]]))
        second = data.draw(st.integers(first + 1, len(lines)))
        lines.insert(second, lines[first])
        key = lines[first].partition("=")[0].strip()
        message = f"duplicate key {key!r} (first set on line {{}})"
    padded, numbers = data.draw(commented(lines))
    before, after = parse_or_error(parse, lines), parse_or_error(parse, padded)
    if edit == "none":
        assert not isinstance(before, tuple) and after == before
    elif edit == "break":
        assert before[0] == bad + 1 and after == (numbers[bad], before[1])
    else:
        assert before == (second + 1, message.format(first + 1))
        assert after == (numbers[second], message.format(numbers[first]))

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from pipefollow import features, fis, sim
from pipefollow.imgproc import ThresholdBand
from pipefollow.sim import (AuvState, CameraModel, EnvelopeExitError,
                            MissionFailure, PathRecord, Scenario,
                            ScenarioError, World, drift_metrics,
                            heading_vector, image_center, mission_objective,
                            parse_scenario, pct_of_drift, pipeline_x_at,
                            render_view, run_mission, step_auv, tune)

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
        for side in ({"image_width": 0}, {"image_height": 0}):
            with pytest.raises(ValueError, match="dimensions"):
                CameraModel(**side)
        CameraModel(image_width=1, image_height=1)   # renders, though too small to band

    def test_scenario_bounds(self):
        world = World(pipeline=((10.0, 0.0), (10.0, 50.0)))
        with pytest.raises(ValueError):
            Scenario(world=world, step_length=0.0)
        with pytest.raises(ValueError):
            Scenario(world=world, steps_per_image=0)
        with pytest.raises(ValueError):
            Scenario(world=world, start=AuvState(-5.0, 0.0, 90.0))
        with pytest.raises(ValueError, match="min"):
            Scenario(world=world, min_area=-1)
        for width, height in ((320, 9), (320, 3), (1, 240)):
            with pytest.raises(ValueError, match="too small to band"):
                Scenario(world=world, camera=CameraModel(image_width=width, image_height=height))
        Scenario(world=world, camera=CameraModel(image_width=2, image_height=10))

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
    ], ids=["camera.height_cm", "world.pipe_width", "world.envelope.x",
            "world.envelope.y", "scenario.step_length", "scenario.steering_gain",
            "scenario.start.heading"])
    def test_non_finite_field_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)


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
        with pytest.raises(ValueError):
            step_auv(ALIGNED_START, -1.0, sc)
        with pytest.raises(ValueError):
            step_auv(ALIGNED_START, 180.5, sc)

    def test_envelope_exit_raises(self):
        sc = small_scenario()
        with pytest.raises(EnvelopeExitError):
            step_auv(AuvState(2.0, 10.0, 0.0), 90.0, sc)  # heading 0 points at -x

    def test_heading_vector_convention(self):
        dx, dy = heading_vector(90.0)
        assert (dx, dy) == pytest.approx((0.0, 1.0))
        dx, dy = heading_vector(135.0)
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


@st.composite
def render_cases(draw):
    """World, pose and camera for one render, small enough for the oracle.

    Image sides run from 1 pixel to a few RENDER_TILEs, mostly not tile
    multiples.  Poses and headings span the whole envelope, so the pipe is
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
                      image_width=draw(st.integers(1, 3 * sim.RENDER_TILE + 5)),
                      image_height=draw(st.integers(1, 3 * sim.RENDER_TILE + 5)),
                      noise_amplitude=draw(st.sampled_from([0, 30])),
                      speckle_density=draw(st.sampled_from([0.0, 0.05])))
    return world, auv, cam, draw(st.integers(0, 5))


class TestRenderOracle:
    @settings(max_examples=150, deadline=None)
    @given(render_cases())
    def test_matches_full_raster_reference(self, case):
        world, auv, cam, frame = case
        assert render_view(world, auv, cam, frame).pixels.tobytes() == \
            oracles.render_reference(world, auv, cam, frame).tobytes()

    # tilt 5 with fov 150 grazes the horizon: the longest rays, the widest
    # rounding slack on a tile's corner bound
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

    def test_out_of_span_rejected(self):
        world = World(pipeline=((40.0, 10.0), (60.0, 100.0)))
        with pytest.raises(ValueError):
            pipeline_x_at(world, 5.0)
        with pytest.raises(ValueError):
            drift_metrics([AuvState(50.0, 150.0, 90.0)], world)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            pct_of_drift(1.0, 0.0)


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

    def test_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            PathRecord.from_csv("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n1,2,3\n")
        with pytest.raises(ValueError):
            PathRecord.from_csv("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n1,a,3,4,5\n")


class TestRunMission:
    def test_default_scenario_tracks_within_tolerance(self, default_scenario):
        record = run_mission(default_scenario, sim.load_rulebase(default_scenario))
        assert len(record.points) == 5
        assert record.within_tolerance()

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
        with pytest.raises(MissionFailure) as exc:
            run_mission(sc, fis.default_rulebase())
        assert exc.value.reason == "envelope-exit"
        assert exc.value.step == 1

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
        real = fis.infer

        def counted(*args):
            infers.append(args)
            return real(*args)

        monkeypatch.setattr(fis, "infer", counted)
        renders = count_renders(monkeypatch)
        sc = small_scenario(step_length=16.0, steps_per_image=steps_per_image)
        assert len(run_mission(sc, fis.default_rulebase(), mode).points) == 7
        assert len(infers) == per_capture * len(renders)

    def test_seed_changes_noise_but_not_success(self):
        rb = fis.default_rulebase()
        views = []
        for seed in (0, 1, 2):
            world = replace(TABLE_WORLD, seed=seed)
            views.append(render_view(world, ALIGNED_START, SMALL_CAMERA).pixels.tobytes())
            record = run_mission(small_scenario(world=world), rb)
            assert record.within_tolerance()  # denoising absorbs the speckle
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


class TestMissionTermination:
    @settings(max_examples=60, deadline=None)
    @given(small_missions())
    def test_mission_ends_within_its_step_bound_in_both_modes(self, case):
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
            else:
                assert 1 <= len(record.points) <= max_steps
                outcomes.append(record.to_csv())
        assert outcomes[0] == outcomes[1]

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

    def test_objective_counts_failures_as_infinite(self):
        world = World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=1)
        sc = Scenario(world=world, start=AuvState(140.0, 0.0, 90.0))
        assert mission_objective([sc], fis.default_rulebase()) == (math.inf, math.inf)

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
        captures = {}
        fresh = run_mission(sc, rb, captures=captures)
        assert len(captures) == len(fresh.points) == 5
        renders = count_renders(monkeypatch)
        reused = run_mission(sc, rb, captures=captures)
        overlapped = run_mission(sc, rb, mode="overlapped", captures=captures)
        assert renders == []
        assert fresh.to_csv() == reused.to_csv() == overlapped.to_csv()

    def test_lost_object_is_not_stored(self):
        world = World(pipeline=((10.0, 0.0), (10.0, 100.0)), seed=1)
        sc = Scenario(world=world, start=AuvState(140.0, 0.0, 90.0))
        captures = {}
        with pytest.raises(MissionFailure):
            run_mission(sc, fis.default_rulebase(), captures=captures)
        assert captures == {}


class TestScenarioFiles:
    def test_load_default(self, default_scenario):
        assert default_scenario.world.envelope == (150.0, 200.0)
        assert default_scenario.step_length == 22.5
        assert default_scenario.steps_per_image == 5
        assert default_scenario.start == AuvState(36.5, 0.0, 116.0)
        assert default_scenario.thresholds.t1 == 180
        assert default_scenario.rulebase_file.endswith("tuned.rules")

    def test_unset_keys_take_the_dataclass_defaults(self):
        assert parse_scenario("pipe.waypoints = 30:10; 40:60\n") == Scenario(
            World(pipeline=((30.0, 10.0), (40.0, 60.0))), start=AuvState(30.0, 10.0, 90.0))

    def test_unknown_key_names_line(self):
        with pytest.raises(ScenarioError, match=r"line 2.*bogus"):
            parse_scenario("pipe.waypoints = 10:0; 10:50\nbogus.key = 1\n")

    def test_missing_waypoints_rejected(self):
        with pytest.raises(ScenarioError, match="pipe.waypoints"):
            parse_scenario("seed = 3\n")

    def test_malformed_waypoint_rejected(self):
        with pytest.raises(ScenarioError, match="waypoint"):
            parse_scenario("pipe.waypoints = 10:0; oops\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario("pipe.waypoints = 10:0; 10:50\nseed = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("just some text\n")

    def test_start_defaults_to_first_waypoint(self):
        sc = parse_scenario("pipe.waypoints = 30:10; 40:60\n")
        assert sc.start == AuvState(30.0, 10.0, 90.0)

    def test_invariant_violations_become_scenario_errors(self):
        with pytest.raises(ScenarioError):
            parse_scenario("pipe.waypoints = 10:0; 10:300\n")  # outside envelope

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
    def test_non_finite_number_names_file_and_line(self, line):
        text = "seed = 3\n" + line + "\n"
        if not line.startswith("pipe.waypoints"):
            text += "pipe.waypoints = 10:0; 10:50\n"
        with pytest.raises(ScenarioError, match=r"^bad\.scenario line 2: non-finite"):
            parse_scenario(text, source="bad.scenario")

    def test_duplicate_key_names_both_lines(self):
        text = "seed = 3\npipe.waypoints = 10:0; 10:50\nseed = 4\n"
        with pytest.raises(ScenarioError,
                           match=r"^dup\.scenario line 3: duplicate key 'seed'.*line 1"):
            parse_scenario(text, source="dup.scenario")

    def test_duplicate_start_key_rejected(self):
        with pytest.raises(ScenarioError, match=r"line 3: duplicate key 'start.y'"):
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
        with pytest.raises(ScenarioError, match=r"^broken\.rules: "):
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
    try:
        parse_scenario(text)
    except ScenarioError:
        pass

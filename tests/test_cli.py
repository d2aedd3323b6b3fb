import os
import subprocess
import sys

import numpy as np
import pytest

from pipefollow import netpbm
from pipefollow.cli import main
from conftest import ROOT, SCENARIO_DIR

SMALL_SCENARIO = """\
pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45; 69.6:67.5; 80.8:90; 91.9:112.5
camera.image.width = 96
camera.image.height = 72
minArea = 10
seed = 7
start.x = 36.5
start.y = 0
start.heading = 116
"""


@pytest.fixture()
def small_scenario_file(tmp_path):
    path = tmp_path / "small.scenario"
    path.write_text(SMALL_SCENARIO)
    return path


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_default_scenario_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", SCENARIO_DIR / "default.scenario")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,actual_x_cm,sim_x_cm,drift_cm,pct_drift"
        assert len(lines) == 6

    def test_detuned_scenario_exits_one(self, capsys, tmp_path):
        out_csv = tmp_path / "rec.csv"
        code, _, err = run_cli(capsys, "run", "--scenario",
                               SCENARIO_DIR / "detuned.scenario", "--out", out_csv)
        assert code == 1
        assert "tolerance" in err
        assert out_csv.read_text().count("\n") == 6  # record still written

    def test_missing_scenario_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scenario", "nowhere.scenario")
        assert code == 2
        assert "nowhere.scenario" in err

    def test_no_object_exits_one(self, capsys, tmp_path):
        path = tmp_path / "blank.scenario"
        path.write_text("pipe.waypoints = 10:0; 10:100\nstart.x = 140\n"
                        "start.y = 0\nstart.heading = 90\n")
        code, _, err = run_cli(capsys, "run", "--scenario", path)
        assert code == 1
        assert "no-object" in err

    def test_zero_point_mission_exits_one(self, capsys, tmp_path):
        path = tmp_path / "long-step.scenario"
        text = (SCENARIO_DIR / "default.scenario").read_text()
        path.write_text(text.replace("step.length = 22.5", "step.length = 1000"))
        code, out, err = run_cli(capsys, "run", "--scenario", path,
                                 "--rules", SCENARIO_DIR / "tuned.rules")
        assert code == 1
        assert "no-points" in err
        assert out == ""

    def test_overlapped_matches_sequential(self, capsys, small_scenario_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "run", "--scenario", small_scenario_file,
                       "--mode", "sequential", "--out", a)[0] == 0
        assert run_cli(capsys, "run", "--scenario", small_scenario_file,
                       "--mode", "overlapped", "--out", b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, capsys, small_scenario_file):
        _, out1, _ = run_cli(capsys, "run", "--scenario", small_scenario_file, "--seed", 1)
        _, out2, _ = run_cli(capsys, "run", "--scenario", small_scenario_file, "--seed", 2)
        _, out3, _ = run_cli(capsys, "run", "--scenario", small_scenario_file, "--seed", 1)
        assert out1 != out2
        assert out1 == out3

    def test_plot_written(self, capsys, small_scenario_file, tmp_path):
        svg = tmp_path / "path.svg"
        code, _, _ = run_cli(capsys, "run", "--scenario", small_scenario_file,
                             "--out", tmp_path / "r.csv", "--plot", svg)
        assert code == 0
        assert svg.read_text().count("<circle") == 5

    def test_bad_rules_file_exits_two(self, capsys, small_scenario_file, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("IF x1 IS\n")
        code, _, err = run_cli(capsys, "run", "--scenario", small_scenario_file,
                               "--rules", bad)
        assert code == 2
        assert "line 1" in err


class TestFeatures:
    def test_feature_csv_from_render(self, capsys, small_scenario_file, tmp_path):
        pgm = tmp_path / "view.pgm"
        assert run_cli(capsys, "render", "--scenario", small_scenario_file,
                       "--out", pgm)[0] == 0
        code, out, _ = run_cli(capsys, "features", pgm, "--scenario", small_scenario_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "band,x1,x2,x3,x4,x5,x6"
        assert len(lines) == 6
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert all(0.1 <= v <= 1.0 for v in values)

    def test_ppm_input_converted(self, capsys, tmp_path):
        import oracles
        pixels = np.full((40, 40, 3), 60, dtype=np.uint8)
        pixels[:, 16:24] = 230
        ppm = tmp_path / "in.ppm"
        ppm.write_bytes(oracles.p6_bytes(pixels))
        code, out, _ = run_cli(capsys, "features", ppm)
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_blank_image_exits_one(self, capsys, tmp_path):
        from pipefollow.imgproc import GrayImage
        pgm = tmp_path / "blank.pgm"
        netpbm.write_pgm(pgm, GrayImage.from_array(np.full((40, 40), 60, dtype=np.uint8)))
        code, _, err = run_cli(capsys, "features", pgm)
        assert code == 1
        assert "no-object" in err


class TestInfer:
    def test_symmetric_input(self, capsys):
        code, out, _ = run_cli(capsys, "infer", 0.4, 0.4, 0.4, 0.4, 0.55, 0.55)
        assert code == 0
        assert "y' = 90.000" in out
        assert out.count("rule") == 13

    def test_far_right_steers_right(self, capsys):
        code, out, _ = run_cli(capsys, "infer", 0.4, 0.4, 0.4, 0.4, 1.0, 0.55)
        assert code == 0
        y = float(out.strip().splitlines()[-1].split("=")[1])
        assert y > 90.0

    def test_out_of_universe_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "infer", 1.5, 0.4, 0.4, 0.4, 0.55, 0.55)
        assert code == 2
        assert "x1" in err

    def test_custom_rules_file(self, capsys, tmp_path):
        rules = tmp_path / "one.rules"
        rules.write_text("IF x5 IS Right THEN y1 IS TurnRight\n")
        code, out, _ = run_cli(capsys, "infer", 0.4, 0.4, 0.4, 0.4, 1.0, 0.55,
                               "--rules", rules)
        assert code == 0
        assert "y' = 150.000" in out


class TestTune:
    def test_smoke(self, capsys, small_scenario_file, tmp_path):
        out_rules = tmp_path / "tuned.rules"
        code, _, err = run_cli(capsys, "tune", "--scenario", small_scenario_file,
                               "--budget", 3, "--out", out_rules)
        assert code == 0
        assert "objective" in err
        from pipefollow import fis
        assert len(fis.parse_rulebase(out_rules.read_text()).rules) == 13


class TestRender:
    def test_writes_readable_pgm(self, capsys, small_scenario_file, tmp_path):
        pgm = tmp_path / "view.pgm"
        assert run_cli(capsys, "render", "--scenario", small_scenario_file,
                       "--out", pgm)[0] == 0
        img = netpbm.read_pgm(pgm)
        assert img.pixels.shape == (72, 96)

    def test_seed_override_changes_bytes(self, capsys, small_scenario_file, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        run_cli(capsys, "render", "--scenario", small_scenario_file, "--out", a, "--seed", 1)
        run_cli(capsys, "render", "--scenario", small_scenario_file, "--out", b, "--seed", 2)
        assert a.read_bytes() != b.read_bytes()


class TestPlot:
    CSV = ("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n"
           "1,47.5,47.5,+0.0,0.0\n"
           "2,58.5,57.0,-1.5,18.8\n"
           "3,69.6,70.0,+0.4,5.0\n"
           "4,80.8,82.0,+1.2,15.0\n"
           "5,91.9,91.0,-0.9,11.3\n")

    def test_marker_per_row(self, capsys, tmp_path):
        record = tmp_path / "rec.csv"
        record.write_text(self.CSV)
        code, out, _ = run_cli(capsys, "plot", record)
        assert code == 0
        assert out.count("<circle") == 5
        assert out.startswith("<svg")

    def test_byte_identical_output(self, capsys, tmp_path):
        record = tmp_path / "rec.csv"
        record.write_text(self.CSV)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "plot", record, "--out", a)
        run_cli(capsys, "plot", record, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_body_exits_two(self, capsys, tmp_path):
        record = tmp_path / "empty.csv"
        record.write_text("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n")
        assert run_cli(capsys, "plot", record)[0] == 2

    def test_malformed_exits_two(self, capsys, tmp_path):
        record = tmp_path / "bad.csv"
        record.write_text("not,a,record\n1,2\n")
        assert run_cli(capsys, "plot", record)[0] == 2

    def test_missing_file_exits_two(self, capsys):
        assert run_cli(capsys, "plot", "nowhere.csv")[0] == 2

    def test_scenario_geometry_used(self, capsys, tmp_path, small_scenario_file):
        record = tmp_path / "rec.csv"
        record.write_text(self.CSV)
        _, with_scen, _ = run_cli(capsys, "plot", record, "--scenario", small_scenario_file)
        _, without, _ = run_cli(capsys, "plot", record)
        assert with_scen == without  # same envelope/step defaults in this scenario


class TestEntryPoint:
    def test_module_run_without_runpy_warning(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "pipefollow.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage: pipefollow" in done.stdout

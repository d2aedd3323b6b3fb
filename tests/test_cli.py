import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from pipefollow import netpbm
from pipefollow.cli import build_parser, main
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

    def test_tolerance_sets_pct_drift(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", SCENARIO_DIR / "default.scenario",
                                 "--tolerance", 0.05)
        assert code == 1
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(row[3], row[4]) for row in rows] == [("+0.0", "0.0"), ("+0.1", "200.0"),
                                                      ("+0.1", "200.0"), ("+0.0", "0.0"),
                                                      ("-0.1", "200.0")]
        assert err == "pipefollow: drift exceeds +/-0.05 cm tolerance (max 0.1 cm)\n"

    @pytest.mark.parametrize("tolerance, last_row", [
        ("1e-26", "5,86.2,86.1,-0.1,1000000000000000013287555072.0"),
        ("5e-324", "5,86.2,86.1,-0.1,inf"),   # a percentage past the float range
    ])
    def test_tiny_tolerance_ends_in_a_record(self, capsys, tolerance, last_row):
        code, out, err = run_cli(capsys, "run", "--scenario", SCENARIO_DIR / "default.scenario",
                                 "--tolerance", tolerance)
        assert code == 1
        assert out.splitlines()[-1] == last_row
        assert err == f"pipefollow: drift exceeds +/-{tolerance} cm tolerance (max 0.1 cm)\n"

    @pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0.05"]], ids=["default", "0.05"])
    def test_plot_equals_plot_of_the_written_record(self, capsys, tmp_path, tolerance):
        scenario = SCENARIO_DIR / "default.scenario"
        record, svg = tmp_path / "rec.csv", tmp_path / "run.svg"
        run_cli(capsys, "run", "--scenario", scenario, "--out", record, "--plot", svg, *tolerance)
        code, out, _ = run_cli(capsys, "plot", record, "--scenario", scenario, *tolerance)
        assert code == 0
        assert svg.read_text() == out

    def test_plot_of_an_infinite_percentage_is_not_written(self, capsys, tmp_path):
        record, svg = tmp_path / "rec.csv", tmp_path / "run.svg"
        code, _, err = run_cli(capsys, "run", "--scenario", SCENARIO_DIR / "default.scenario",
                               "--out", record, "--plot", svg, "--tolerance", "5e-324")
        assert code == 1 and not svg.exists()
        assert err.startswith("pipefollow: run.svg not written: non-finite CSV row: "
                              "'2,56.2,56.3,+0.1,inf'\npipefollow: drift exceeds")
        assert run_cli(capsys, "plot", record, "--tolerance", "5e-324")[0] == 2

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
        netpbm.write_pgm(pgm, GrayImage(np.full((40, 40), 60, dtype=np.uint8)))
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

    def test_no_rule_fired_says_so(self, capsys, tmp_path):
        rules = tmp_path / "narrow.rules"
        rules.write_text("term.x1.Small = pi(0.1, 0.1)\nIF x1 IS Small THEN y1 IS TurnLeft\n")
        code, out, _ = run_cli(capsys, "infer", 0.9, 0.4, 0.4, 0.4, 0.55, 0.55, "--rules", rules)
        assert code == 0
        assert out.splitlines()[1:] == ["no rule fired; steering defaults to 90", "y' = 90.000"]


class TestTune:
    def test_smoke(self, capsys, small_scenario_file, tmp_path):
        out_rules = tmp_path / "tuned.rules"
        code, _, err = run_cli(capsys, "tune", "--scenario", small_scenario_file,
                               "--budget", 3, "--out", out_rules)
        assert code == 0
        assert "objective" in err
        from pipefollow import fis
        assert len(fis.parse_rulebase(out_rules.read_text()).rules) == 13

    def test_no_flyable_evaluation_exits_one_and_writes_nothing(self, capsys, tmp_path):
        """A pipe at x=10 seen from x=140 loses the object in every evaluation: the best
        objective is infinite, so there is no rule base to write."""
        scenario = tmp_path / "lost.scenario"
        scenario.write_text("pipe.waypoints = 10:0; 10:100\nseed = 1\nstart.x = 140\n"
                            "start.heading = 90\n")
        out_rules = tmp_path / "tuned.rules"
        code, out, err = run_cli(capsys, "tune", "--scenario", scenario, "--budget", 5,
                                 "--out", out_rules)
        quote = "no evaluation flew every scenario to a record; no rule base written"
        assert code == 1
        assert err.splitlines() == ["pipefollow: objective: max|drift| inf -> inf cm in 5 "
                                    "evaluations", f"pipefollow: {quote}"]
        assert out == "" and not out_rules.exists()
        assert f"`{quote}`" in " ".join((ROOT / "README.md").read_text().split())


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

    def test_frame_and_pose_choose_the_view(self, capsys, small_scenario_file, tmp_path):
        from pipefollow import sim
        scenario = sim.load_scenario(small_scenario_file)
        pose = sim.AuvState(40.1, 20.000000000000004, 100.5)
        pgm = tmp_path / "view.pgm"
        assert run_cli(capsys, "render", "--scenario", small_scenario_file, "--out", pgm,
                       "--frame", 3, "--pose", "40.1,20.000000000000004,100.5")[0] == 0
        expected = sim.render_view(scenario.world, pose, scenario.camera, 3).pixels
        assert np.array_equal(netpbm.read_pgm(pgm).pixels, expected)
        assert not np.array_equal(
            expected, sim.render_view(scenario.world, pose, scenario.camera, 0).pixels)


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


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Running missions"):].split("```")[1]
    lines = [line for line in section.splitlines() if line.startswith("pipefollow ")]
    assert len(lines) == 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


WAYPOINTS = "pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\n"
RULE = "IF x5 IS Left THEN y1 IS TurnLeft\n"


@pytest.mark.parametrize("quote, argv, files", [
    ("my.rules: line 3: unknown term Huge for variable x1", ["infer", *["0.4"] * 6, "--rules",
     "my.rules"], {"my.rules": RULE * 2 + "IF x1 IS Huge THEN y1 IS TurnLeft\n"}),
    ("my.rules: line 2: duplicate key 'term.x1.Small' (first set on line 1)",
     ["infer", *["0.4"] * 6, "--rules", "my.rules"],
     {"my.rules": "term.x1.Small = gaussian(0.2, 0.1)\nterm.x1.Small = pi(0.2, 0.1)\n"}),
    ("my.rules: line 2: non-finite term parameters 'gaussian(nan, 0.19)'",
     ["infer", *["0.4"] * 6, "--rules", "my.rules"],
     {"my.rules": RULE + "term.x5.Left = gaussian(nan, 0.19)\n"}),
    ("my.rules: line 2: gaussian sigma must be > 0 with 2*sigma*sigma > 0, got 1e-200",
     ["infer", *["0.4"] * 6, "--rules", "my.rules"],
     {"my.rules": RULE + "term.x5.Left = gaussian(1e-200, 0.5)\n"}),
    ("my.rules: line 2: pi half-width must be > 0 with feet c-b < c-b/2 < c < c+b/2 < c+b, "
     "got b=1e-20, c=0.5", ["infer", *["0.4"] * 6, "--rules", "my.rules"],
     {"my.rules": RULE + "term.x5.Left = pi(1e-20, 0.5)\n"}),
    ("my.scenario: line 2: non-finite value for camera.height",
     ["run", "--scenario", "my.scenario"], {"my.scenario": WAYPOINTS + "camera.height = nan\n"}),
    ("my.scenario: lines 2, 3: a 100000x100000 image has more than 4194304 pixels",
     ["run", "--scenario", "my.scenario"],
     {"my.scenario": WAYPOINTS + "camera.image.width = 100000\ncamera.image.height = 100000\n"}),
    ("my.scenario: line 2: pipe width must be positive and at most 1000000 cm",
     ["run", "--scenario", "my.scenario"], {"my.scenario": WAYPOINTS + "pipe.width = 1e200\n"}),
    ("low.scenario: line 2: start y=10.0 lies below the first waypoint's y=20.0",
     ["run", "--scenario", "low.scenario"],
     {"low.scenario": "pipe.waypoints = 36.5:20; 47.5:42.5; 58.5:65\nstart.y = 10\n"}),
    ("band.scenario: lines 2, 3: invalid threshold band: t1=200 must be < t2=100",
     ["run", "--scenario", "band.scenario"],
     {"band.scenario": WAYPOINTS + "threshold.t1 = 200\nthreshold.t2 = 100\n"}),
    ("bad.csv: missing CSV header ...", ["plot", "bad.csv"], {"bad.csv": "step,x\n1,2\n"}),
    ("view.pgm: truncated raster data", ["features", "view.pgm"],
     {"view.pgm": "P5\n4 4\n255\n" + "\0" * 7}),
    ("argument --tolerance: must be a positive finite number, not 'abc'",
     ["run", "--scenario", "my.scenario", "--tolerance", "abc"], {"my.scenario": WAYPOINTS}),
], ids=["unknown-term", "duplicate-term", "non-finite-term", "gaussian-width", "pi-width",
        "scenario-line", "scenario-bound", "scenario-width-bound", "scenario-invariant",
        "scenario-invariant-pair", "record-header", "image", "tolerance"])
def test_readme_diagnostics_are_printed_verbatim(capsys, tmp_path, monkeypatch, quote, argv,
                                                 files):
    """Each diagnostic the README quotes is in its text and in the command's stderr, after
    `pipefollow: ` (or argparse's `pipefollow <command>: error: `); a quote ending in ` ...`
    is a prefix."""
    readme = " ".join((ROOT / "README.md").read_text().split())
    assert f"`{quote}`" in readme
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    try:
        code, lead = main(argv), "pipefollow: "
    except SystemExit as exc:
        code, lead = exc.code, f"pipefollow {argv[0]}: error: "
    assert code == 2
    assert lead + quote.removesuffix(" ...") in capsys.readouterr().err

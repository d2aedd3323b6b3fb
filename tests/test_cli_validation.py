"""Outside input the CLI rejects with exit 2 before any mission runs."""

import re

import numpy as np
import pytest

from pipefollow import netpbm
from pipefollow.cli import main
from pipefollow.imgproc import GrayImage
from conftest import SCENARIO_DIR


@pytest.mark.parametrize("command", ["run", "plot"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "eight"])
def test_tolerance_must_be_positive_and_finite(capsys, command, value):
    target = ["--scenario", SCENARIO_DIR / "default.scenario"] if command == "run" \
        else ["record.csv"]
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, target), f"--tolerance={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tolerance" in err and "positive finite" in err


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "ten"])
def test_budget_must_be_a_positive_whole_number(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--scenario", str(SCENARIO_DIR / "default.scenario"), "--budget", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--budget" in err and ">= 1" in err


@pytest.mark.parametrize("command", ["run", "render"])
@pytest.mark.parametrize("value", ["-1", "1.5", "many"])
def test_seed_must_be_a_non_negative_whole_number(capsys, tmp_path, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(SCENARIO_DIR / "default.scenario"),
              "--out", str(tmp_path / "out"), f"--seed={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and ">= 0" in err


def test_nan_feature_value_exits_two(capsys):
    assert main(["infer", "nan", "0.4", "0.4", "0.4", "0.4", "0.4"]) == 2
    assert "x1=nan outside universe [0.1, 1.0]" in capsys.readouterr().err


def test_non_finite_term_parameter_exits_two(capsys, tmp_path):
    lines = (SCENARIO_DIR / "default.rules").read_text().splitlines()
    number = next(i for i, line in enumerate(lines, 1) if line.startswith("term.x5.Left"))
    lines[number - 1] = "term.x5.Left = gaussian(nan, 0.19)"
    path = tmp_path / "nan.rules"
    path.write_text("\n".join(lines) + "\n")
    assert main(["infer", *["0.4"] * 6, "--rules", str(path)]) == 2
    assert f"nan.rules: line {number}: membership width" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "infer"])
@pytest.mark.parametrize("value", ["gaussian(1e-200, 0.5)", "pi(1e-20, 0.5)"],
                         ids=["gaussian", "pi"])
def test_term_too_narrow_to_evaluate_exits_two(capsys, tmp_path, command, value):
    path = tmp_path / "narrow.rules"
    path.write_text(f"IF x5 IS Left THEN y1 IS TurnLeft\nterm.x5.Left = {value}\n")
    target = ["--scenario", str(SCENARIO_DIR / "default.scenario")] if command == "run" \
        else ["0.4"] * 6
    assert main([command, *target, "--rules", str(path)]) == 2
    assert "narrow.rules: line 2: membership width" in capsys.readouterr().err


def test_non_finite_scenario_value_exits_two(capsys, tmp_path):
    path = tmp_path / "sick.scenario"
    path.write_text("pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\ncamera.height = nan\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "sick.scenario line 2: non-finite value for camera.height" in capsys.readouterr().err


def test_nul_in_rulebase_path_exits_two(capsys, tmp_path):
    path = tmp_path / "nul.scenario"
    path.write_text("pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\nrulebase = a\0b\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "nul.scenario line 2: rulebase path: embedded null byte" in capsys.readouterr().err


def test_non_finite_record_value_exits_two(capsys, tmp_path):
    path = tmp_path / "sick.csv"
    path.write_text("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n1,nan,inf,+0.0,0.0\n")
    assert main(["plot", str(path)]) == 2
    assert "non-finite CSV row: '1,nan,inf,+0.0,0.0'" in capsys.readouterr().err


def test_bad_record_exits_two_naming_the_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,x\n1,2\n")
    assert main(["plot", str(path)]) == 2
    assert re.match(r"^pipefollow: bad\.csv: missing CSV header 'step,actual_x_cm,",
                    capsys.readouterr().err)


@pytest.mark.parametrize("bad", ["scenario", "rules"])
def test_file_not_in_utf8_exits_two(capsys, tmp_path, bad):
    files = {"scenario": tmp_path / "ok.scenario", "rules": tmp_path / "ok.rules"}
    files["scenario"].write_text("pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\n")
    files["rules"].write_text("IF x5 IS Left THEN y1 IS TurnLeft\n")
    files[bad] = tmp_path / f"latin.{bad}"
    files[bad].write_bytes(b"# caf\xe9\n")
    assert main(["run", "--scenario", str(files["scenario"]), "--rules", str(files["rules"])]) == 2
    err = capsys.readouterr().err
    assert f"latin.{bad}" in err and "can't decode byte 0xe9" in err


def test_duplicate_scenario_key_exits_two(capsys, tmp_path):
    path = tmp_path / "twice.scenario"
    path.write_text("seed = 3\npipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\nseed = 4\n")
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "twice.scenario line 3: duplicate key 'seed' (first set on line 1)" in err


@pytest.mark.parametrize("line, message", [
    ("minArea = -1", "min"),
    ("start.y = 10", "below the first waypoint"),
])
def test_scenario_invariant_exits_two(capsys, tmp_path, line, message):
    path = tmp_path / "bad.scenario"
    path.write_text(f"pipe.waypoints = 36.5:20; 47.5:42.5; 58.5:65\n{line}\n")
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.scenario: " in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("line, command, message", [
    ("camera.noise = -5", "run", "noise amplitude"),
    ("camera.image.width = 0", "render", "image dimensions"),
    ("camera.image.height = 3", "run", "too small to band"),
    ("camera.image.height = 7", "run", "too small to band"),
    ("camera.image.width = 1", "run", "too small to band"),
])
def test_camera_rejected_when_scenario_is_built(capsys, tmp_path, line, command, message):
    path = tmp_path / "cam.scenario"
    path.write_text(f"pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\n{line}\n")
    out = ["--out", str(tmp_path / "view.pgm")] if command == "render" else []
    assert main([command, "--scenario", str(path), *out]) == 2
    err = capsys.readouterr().err
    assert "cam.scenario: " in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("height", [7, 9])
def test_image_too_small_to_band_exits_two(capsys, tmp_path, height):
    pixels = np.full((height, 40), 60, dtype=np.uint8)
    pixels[:, 16:24] = 230
    path = tmp_path / "short.pgm"
    netpbm.write_pgm(path, GrayImage.from_array(pixels))
    assert main(["features", str(path)]) == 2
    err = capsys.readouterr().err
    assert "short.pgm: image too small to band: 40x" in err


@pytest.mark.parametrize("name, data, message", [
    ("trunc.pgm", b"P5\n4 4\n255\n" + bytes(7), "trunc.pgm: truncated raster data"),
    ("text.pgm", b"not an image at all\n", "text.pgm: expected P5 or P6 file, got b'no'"),
], ids=["truncated-raster", "wrong-magic"])
def test_bad_image_exits_two_naming_the_file(capsys, tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["features", str(path)]) == 2
    assert capsys.readouterr().err == f"pipefollow: {message}\n"

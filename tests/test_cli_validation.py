"""Outside input the CLI rejects with exit 2 before any mission runs."""

import pytest

from pipefollow.cli import main
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


def test_non_finite_scenario_value_exits_two(capsys, tmp_path):
    path = tmp_path / "sick.scenario"
    path.write_text("pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\ncamera.height = nan\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "sick.scenario line 2: non-finite value for camera.height" in capsys.readouterr().err


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

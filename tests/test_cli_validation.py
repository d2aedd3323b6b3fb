"""Outside input the CLI rejects with exit 2 before any mission runs, and extreme input
that must end in an exit code and a `pipefollow: ` diagnostic, never a traceback."""

import contextlib
import functools
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipefollow import netpbm, sim
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


@pytest.mark.parametrize("option, value", [
    ("--frame", "-1"), ("--frame", "1.5"), ("--frame", "many"),
    ("--pose", "1,2"), ("--pose", "1,2,3,4"), ("--pose", ""), ("--pose", "a,b,c"),
    ("--pose", "nan,2,3"), ("--pose", "1,inf,3"), ("--pose", "1,2,-inf"),
    ("--pose", "-0.5,2,3"), ("--pose", "1,1e308,3"),
])
def test_render_frame_and_pose_are_checked(capsys, tmp_path, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--scenario", str(SCENARIO_DIR / "default.scenario"),
              "--out", str(tmp_path / "out"), f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err and repr(value) in err
    assert (">= 0" if option == "--frame" else "X,Y,HEADING with X and Y in 0-1000000") in err
    assert not (tmp_path / "out").exists()


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
    assert (f"nan.rules: line {number}: non-finite term parameters 'gaussian(nan, 0.19)'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "infer"])
@pytest.mark.parametrize("value, message", [
    ("gaussian(1e-200, 0.5)", "gaussian sigma must be > 0 with 2*sigma*sigma > 0, got 1e-200"),
    ("pi(1e-20, 0.5)", "pi half-width must be > 0 with feet c-b < c-b/2 < c < c+b/2 < c+b, "
                       "got b=1e-20, c=0.5"),
], ids=["gaussian", "pi"])
def test_term_too_narrow_to_evaluate_exits_two(capsys, tmp_path, command, value, message):
    path = tmp_path / "narrow.rules"
    path.write_text(f"IF x5 IS Left THEN y1 IS TurnLeft\nterm.x5.Left = {value}\n")
    target = ["--scenario", str(SCENARIO_DIR / "default.scenario")] if command == "run" \
        else ["0.4"] * 6
    assert main([command, *target, "--rules", str(path)]) == 2
    assert f"narrow.rules: line 2: {message}" in capsys.readouterr().err


def test_non_finite_scenario_value_exits_two(capsys, tmp_path):
    path = tmp_path / "sick.scenario"
    path.write_text("pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\ncamera.height = nan\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "sick.scenario: line 2: non-finite value for camera.height" in capsys.readouterr().err


def test_nul_in_rulebase_path_exits_two(capsys, tmp_path):
    path = tmp_path / "nul.scenario"
    path.write_text("pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\nrulebase = a\0b\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "nul.scenario: line 2: rulebase path: embedded null byte" in capsys.readouterr().err


def test_non_finite_record_value_exits_two(capsys, tmp_path):
    path = tmp_path / "sick.csv"
    path.write_text("step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n1,nan,inf,+0.0,0.0\n")
    assert main(["plot", str(path)]) == 2
    assert "non-finite CSV row: '1,nan,inf,+0.0,0.0'" in capsys.readouterr().err


def test_record_step_past_the_mission_bound_exits_two(capsys, tmp_path):
    path = tmp_path / "far.csv"
    row = "9" * 400 + ",46.4,46.4,+0.0,0.0"
    path.write_text(f"step,actual_x_cm,sim_x_cm,drift_cm,pct_drift\n{row}\n")
    assert main(["plot", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"pipefollow: far.csv: step outside 1-10000 in CSV row: '{row}'\n"


def test_bad_record_exits_two_naming_the_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,x\n1,2\n")
    assert main(["plot", str(path)]) == 2
    assert re.match(r"^pipefollow: bad\.csv: missing CSV header 'step,actual_x_cm,",
                    capsys.readouterr().err)


@pytest.mark.parametrize("command", [
    ["run", "--scenario"],
    ["run", "--scenario", str(SCENARIO_DIR / "default.scenario"), "--rules"],
    ["plot"],
    ["features"],
], ids=["scenario", "rules", "record", "image"])
def test_missing_file_exits_two_with_the_os_error(capsys, tmp_path, command):
    missing = tmp_path / "gone"
    assert main([*command, str(missing)]) == 2
    assert capsys.readouterr().err == \
        f"pipefollow: [Errno 2] No such file or directory: '{missing}'\n"


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
    assert "twice.scenario: line 3: duplicate key 'seed' (first set on line 1)" in err


@pytest.mark.parametrize("line, message", [
    ("minArea = -1", "min"),
    ("start.y = 10", "below the first waypoint"),
    ("threshold.t1 = 300", "thresholds must lie in 0-255"),
])
def test_scenario_invariant_exits_two(capsys, tmp_path, line, message):
    path = tmp_path / "bad.scenario"
    path.write_text(f"pipe.waypoints = 36.5:20; 47.5:42.5; 58.5:65\n{line}\n")
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.scenario: line 2: " in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("lines, message", [
    ("seed = 3\nstart.y = 10", "line 3: start y=10.0 lies below the first waypoint's y=20.0"),
    ("seed = 3\ncamera.tilt = 95", "line 3: tilt must be in (0, 90) degrees"),
    ("camera.image.height = 7",
     "line 2: image too small to band: 320x7 (needs at least 2 columns and 10 rows)"),
    ("envelope.y = 50", "lines 1, 2: waypoint (58.5, 65.0) outside envelope"),
    ("threshold.t1 = 200\nthreshold.t2 = 100",
     "lines 2, 3: invalid threshold band: t1=200 must be < t2=100"),
    ("threshold.t2 = 100\nseed = 3\nthreshold.t1 = 200",
     "lines 2, 4: invalid threshold band: t1=200 must be < t2=100"),
    ("envelope.x = 100\nstart.x = 120", "lines 2, 3: start position outside envelope"),
    ("start.y = 20\nstep.length = 0.001",
     "lines 2, 3: a 0.001 cm step allows 90000 steps to the pipeline end, more than 10000"),
], ids=["start-below", "unrelated-line-skipped", "too-small-to-band", "waypoint-outside",
        "threshold-pair", "threshold-pair-apart", "start-outside", "step-bound"])
def test_broken_invariant_names_the_lines_of_its_keys(capsys, tmp_path, lines, message):
    path = tmp_path / "low.scenario"
    path.write_text(f"pipe.waypoints = 36.5:20; 47.5:42.5; 58.5:65\n{lines}\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"pipefollow: low.scenario: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("pipe.waypoints = 10:0\n", "line 1: pipeline needs at least 2 waypoints"),
    ("pipe.waypoints = 10:0; 10:300\n", "line 1: waypoint (10.0, 300.0) outside envelope"),
    ("envelope.x = 100\nseed = 3\npipe.waypoints = 10:0; 120:50\n",
     "lines 1, 3: waypoint (120.0, 50.0) outside envelope"),
    ("seed = 3\npipe.waypoints = 10:50; 10:0\n",
     "line 2: waypoint y coordinates must be strictly increasing"),
    ("pipe.waypoints = 10:0; 10:1e-200; 10:50\n",
     "line 1: consecutive waypoints are too close: a squared segment length underflows to 0"),
], ids=["one-waypoint", "outside-default-envelope", "outside-set-envelope", "y-decreasing",
        "underflowing-segment"])
def test_waypoint_invariant_names_its_lines(capsys, tmp_path, text, message):
    path = tmp_path / "wp.scenario"
    path.write_text(text)
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"pipefollow: wp.scenario: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("envelope.y = 1000000\npipe.waypoints = 0:0; 0:1000000\n",
     "a 22.5 cm step allows 88888.9 steps to the pipeline end, more than 10000"),
], ids=["default-step-length"])
def test_invariant_broken_by_defaults_names_the_file_only(capsys, tmp_path, text, message):
    path = tmp_path / "far.scenario"
    path.write_text(text)
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"pipefollow: far.scenario: {message}\n"


@pytest.mark.parametrize("line, command, message", [
    ("camera.noise = -5", "run", "noise amplitude"),
    ("camera.image.width = 0", "render", "image dimensions"),
    ("camera.image.height = 3", "run", "too small to band"),
    ("camera.image.height = 7", "run", "too small to band"),
    ("camera.image.width = 1", "run", "too small to band"),
    ("camera.intensity.pipe = 300", "run", "pipe_intensity must be in 0-255"),
    ("camera.speckle = 1.5", "render", "speckle density must be in [0, 1)"),
])
def test_camera_rejected_when_scenario_is_built(capsys, tmp_path, line, command, message):
    path = tmp_path / "cam.scenario"
    path.write_text(f"pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\n{line}\n")
    out = ["--out", str(tmp_path / "view.pgm")] if command == "render" else []
    assert main([command, "--scenario", str(path), *out]) == 2
    err = capsys.readouterr().err
    assert "cam.scenario: line 2: " in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("line, message", [
    ("camera.noise = 2147483648", "noise amplitude must be in 0-2147483392"),
    ("step.length = 1e-300",
     "a 1e-300 cm step allows 9e+301 steps to the pipeline end, more than 10000"),
    ("step.length = 1e-310",
     "a 1e-310 cm step allows inf steps to the pipeline end, more than 10000"),
    ("camera.image.width = 4611686018427387904",
     "a 4611686018427387904x240 image has more than 4194304 pixels"),
    ("camera.image.width = 100000\ncamera.image.height = 100000",
     "a 100000x100000 image has more than 4194304 pixels"),
    ("pipe.width = 1e200", "pipe width must be positive and at most 1000000 cm"),
    ("envelope.x = 1e160", "envelope dimensions must be positive and at most 1000000 cm"),
    ("camera.height = 1.7976931348623157e308",
     "camera height must be positive and at most 1000000 cm"),
    ("steering.gain = -1e300", "steering gain must be at most 1000000 in magnitude"),
    ("steps.per.image = " + "9" * 400, "steps per image must be in 1-10000"),
])
def test_scenario_past_a_run_time_limit_exits_two(capsys, tmp_path, line, message):
    path = tmp_path / "huge.scenario"
    path.write_text(f"pipe.waypoints = 36.5:0; 47.5:22.5; 58.5:45\n{line}\n")
    assert main(["run", "--scenario", str(path)]) == 2
    named = "lines 2, 3" if "\n" in line else "line 2"
    assert capsys.readouterr().err == f"pipefollow: huge.scenario: {named}: {message}\n"


@pytest.mark.parametrize("height", [7, 9])
def test_image_too_small_to_band_exits_two(capsys, tmp_path, height):
    pixels = np.full((height, 40), 60, dtype=np.uint8)
    pixels[:, 16:24] = 230
    path = tmp_path / "short.pgm"
    netpbm.write_pgm(path, GrayImage(pixels))
    assert main(["features", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"pipefollow: short\.pgm: image too small to band: 40x{height} "
                        r"\(needs at least 2 columns and 10 rows\)\n", err)


@pytest.mark.parametrize("name, data, message", [
    ("short.pgm", b"P5\n4 4", "short.pgm: truncated header"),
    ("glued.pgm", b"P5\n2 2\n255", "glued.pgm: missing whitespace before raster data"),
    ("text.pgm", b"not an image at all\n", "text.pgm: expected P5 or P6 file, got b'no'"),
    ("word.pgm", b"P5\nfour 4\n255\n" + bytes(16),
     "word.pgm: non-numeric header field: invalid literal for int() with base 10: b'four'"),
    ("flat.pgm", b"P5\n0 4\n255\n", "flat.pgm: non-positive image dimensions"),
    ("deep.pgm", b"P5\n2 2\n65535\n" + bytes(8),
     "deep.pgm: only maxval 255 is supported, got 65535"),
    ("trunc.pgm", b"P5\n4 4\n255\n" + bytes(7), "trunc.pgm: truncated raster data"),
], ids=["truncated-header", "missing-whitespace", "wrong-magic", "non-numeric", "non-positive",
        "maxval", "truncated-raster"])
def test_bad_image_exits_two_naming_the_file(capsys, tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["features", str(path)]) == 2
    assert capsys.readouterr().err == f"pipefollow: {message}\n"


def test_features_reads_its_scenario_before_its_image(capsys, tmp_path):
    (tmp_path / "text.pgm").write_bytes(b"not an image at all\n")
    (tmp_path / "bad.scenario").write_text("pipe.waypoints = 36.5:0\n")
    assert main(["features", str(tmp_path / "text.pgm"),
                 "--scenario", str(tmp_path / "bad.scenario")]) == 2
    assert capsys.readouterr().err == \
        "pipefollow: bad.scenario: line 1: pipeline needs at least 2 waypoints\n"


INT_EXTREMES = ["0", "1", "-1", "2147483392", "2147483648", "9" * 400]
FLOAT_EXTREMES = ["0", "-0.0", "5e-324", "1e-300", "1e6", "1.0000001e6", "1e26", "1e155",
                  "1e200", "1e300", "-1e300", "1.7976931348623157e308", "nan", "-inf"]
WAYPOINT_EXTREMES = ["0:0; 0:1e-300", "0:0; 5e-324:112.5", "1e6:0; 1e6:112.5",
                     "0:0; 0:1e6", "1e155:0; 36.5:112.5", "0:0; 1e300:1e300"]


SCENARIO_KEYS = sorted([*sim._SCENARIO_KEYS, "pipe.waypoints"])


def key_extremes(key):
    """Extreme value texts for one scenario key, of the type the key parses as."""
    if key == "pipe.waypoints":
        return WAYPOINT_EXTREMES
    if key == "rulebase":
        return ["", "gone.rules", str(SCENARIO_DIR / "detuned.rules")]
    part, field = sim._SCENARIO_KEYS[key]
    is_int = isinstance(getattr(sim._SCENARIO_PARTS[part], field), int)
    return INT_EXTREMES if is_int else FLOAT_EXTREMES


one_key_mutation = st.sampled_from(SCENARIO_KEYS).flatmap(
    lambda key: st.sampled_from(key_extremes(key)).map(lambda value: {key: value}))


def run_cli_quietly(argv):
    """(exit code, stderr) of one CLI call with every warning raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejected the command line
            assert exc.code == 2 and err.getvalue().startswith("usage: ")
            return exc.code, ""
    return code, err.getvalue()


def scenario_text(changes: dict) -> str:
    """The default scenario with the values in changes; its rulebase path made absolute."""
    lines = []
    for line in (SCENARIO_DIR / "default.scenario").read_text().splitlines():
        key = line.partition("=")[0].strip()
        value = changes.get(key, SCENARIO_DIR / "tuned.rules" if key == "rulebase" else None)
        lines.append(line if value is None else f"{key} = {value}")
    return "\n".join(lines) + "\n"


HUGE_DRIFT = {"envelope.x": "1e27", "pipe.waypoints": "1e26:0; 1e26:112.5", "start.x": "5e26",
              "start.y": "0", "start.heading": "90", "camera.speckle": "0.3", "minArea": "1"}


@example(changes={}, tolerance="1e-26", seed=None)
@example(changes={"steps.per.image": "9" * 400}, tolerance=None, seed=None)
@example(changes=HUGE_DRIFT, tolerance=None, seed=None)
@example(changes={"pipe.width": "1e200"}, tolerance=None, seed=None)
@example(changes={"envelope.x": "1e160", "pipe.waypoints": "1e155:0; 36.5:112.5"},
         tolerance=None, seed=None)
@settings(max_examples=50, deadline=None)
@given(changes=one_key_mutation,
       tolerance=st.sampled_from([None, "5e-324", "1e-300", "1e-26", "0.05", "1e300", "0"]),
       seed=st.sampled_from([None, "0", "9" * 400, "-1"]))
def test_run_and_plot_end_without_a_traceback(changes, tolerance, seed):
    """A run of the default scenario with extreme values, and a plot of its record,
    each end in an exit code and stderr lines that all come from the CLI."""
    tolerance = [f"--tolerance={tolerance}"] * (tolerance is not None)
    seed = [f"--seed={seed}"] * (seed is not None)
    with tempfile.TemporaryDirectory() as tmp:
        scenario, record, svg = Path(tmp, "x.scenario"), Path(tmp, "x.csv"), Path(tmp, "x.svg")
        scenario.write_text(scenario_text(changes))
        code, err = run_cli_quietly(["run", "--scenario", str(scenario), "--out", str(record),
                                     "--plot", str(svg), *tolerance, *seed])
        assert code in (0, 1, 2)
        assert all(line.startswith("pipefollow: ") for line in err.splitlines())
        if record.exists():
            plotted = Path(tmp, "plot.svg")
            code, err = run_cli_quietly(["plot", str(record), "--scenario", str(scenario),
                                         "--out", str(plotted), *tolerance])
            assert code in (0, 2)
            assert all(line.startswith("pipefollow: ") for line in err.splitlines())
            assert svg.exists() == plotted.exists()
            if svg.exists():
                assert svg.read_bytes() == plotted.read_bytes()


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}-{Path(value).name if '/' in value else value[:20]}")
    for key in SCENARIO_KEYS for value in key_extremes(key)])
def test_every_extreme_value_runs_without_a_traceback(tmp_path, key, value):
    """Each extreme value of each key, in a run of the default scenario in both modes,
    ends in an exit code and stderr lines that all come from the CLI."""
    scenario = tmp_path / "x.scenario"
    scenario.write_text(scenario_text({key: value}))
    for mode in ("sequential", "overlapped"):
        code, err = run_cli_quietly(["run", "--scenario", str(scenario), "--mode", mode,
                                     "--out", str(tmp_path / f"{mode}.csv")])
        assert code in (0, 1, 2)
        assert all(line.startswith("pipefollow: ") for line in err.splitlines())


RULES_LINES = (SCENARIO_DIR / "default.rules").read_text().splitlines()
RULE_LINE_EXTREMES = [
    "", "IF x5 IS Huge THEN y1 IS TurnLeft", "IF x9 IS Left THEN y1 IS TurnLeft",
    "IF x5 IS Left AND x5 IS Right THEN y1 IS TurnLeft", "IF y1 IS TurnLeft THEN y1 IS TurnLeft",
    "IF x5 IS Left THEN x6 IS Left", "IF THEN y1 IS TurnLeft",
    "IF x1 IS Large THEN y1 IS TurnRight",
    next(line for line in RULES_LINES if line.startswith("term."))]   # a term set twice


def rules_text(number: int, term_value: str, rule_line: str) -> str:
    """The committed default rules with line `number` changed: a term line gets term_value,
    any other line becomes rule_line."""
    lines = list(RULES_LINES)
    name = lines[number].partition("=")[0].strip()
    lines[number] = f"{name} = {term_value}" if name.startswith("term.") else rule_line
    return "\n".join(lines) + "\n"


one_line_rules = st.builds(
    rules_text, st.sampled_from([i for i, line in enumerate(RULES_LINES) if line[:1] != "#"]),
    st.builds("{}({}, {})".format, st.sampled_from(["gaussian", "pi", "bump"]),
              st.sampled_from(["0.19", "60.0", *FLOAT_EXTREMES]),
              st.sampled_from(["0.55", "90.0", *FLOAT_EXTREMES])),
    st.sampled_from(RULE_LINE_EXTREMES))


@functools.cache
def default_flight() -> tuple:
    """(the default scenario's start view, the drift record CSV of its mission)."""
    scenario = sim.load_scenario(SCENARIO_DIR / "default.scenario")
    view = sim.render_view(scenario.world, scenario.start, scenario.camera, frame=0).pixels
    return view, sim.run_mission(scenario, sim.read_rulebase(scenario.rulebase_file)).to_csv()


def record_text(row: int, column: int, value: str) -> str:
    """The default mission's record with one field (the header's included) set to value."""
    rows = [line.split(",") for line in default_flight()[1].splitlines()]
    rows[row % len(rows)][column] = value
    return "\n".join(map(",".join, rows)) + "\n"


one_field_record = st.builds(record_text, st.integers(0, 20), st.integers(0, 4),
                             st.sampled_from(["", "x", "1,2", *INT_EXTREMES, *FLOAT_EXTREMES]))

IMAGE_EXTREMES = {"none": [""], "magic": ["P2", "P3", "P4", "P7", "no"],
                  "width": INT_EXTREMES, "height": INT_EXTREMES,
                  "maxval": ["0", "1", "65535", *INT_EXTREMES], "cut": ["1", "all"]}


def image_bytes(magic: str, shape: tuple, key: str, value: str) -> bytes:
    """The default start view cropped to shape, as a P5 or P6 file with one header key
    set to value, or with its raster cut short by value bytes (key "cut")."""
    height, width = shape
    pixels = default_flight()[0][:height, :width]
    if magic == "P6":
        pixels = np.repeat(pixels[:, :, None], 3, axis=2)
    raster = pixels.tobytes()
    header = {"magic": magic, "width": str(width), "height": str(height), "maxval": "255"}
    if key == "cut":
        raster = raster[:-1] if value == "1" else b""
    elif key != "none":
        header[key] = value
    return "{magic}\n{width} {height}\n{maxval}\n".format(**header).encode() + raster


one_key_image = st.builds(
    lambda magic, shape, change: image_bytes(magic, shape, *change),
    st.sampled_from(["P5", "P6"]),
    st.sampled_from([(240, 320), (1, 320), (240, 1), (10, 2), (9, 40), (60, 80)]),
    st.sampled_from(sorted(IMAGE_EXTREMES)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(IMAGE_EXTREMES[key]))))

# Each command line is (argv, {file name: bytes}); "{tmp}" in argv is the directory the
# files are written to.
DEFAULT = str(SCENARIO_DIR / "default.scenario")


def features_line(image: bytes, scenario: list) -> tuple:
    return ["features", "{tmp}/in.pnm", *scenario, "--out", "{tmp}/out.csv"], {"in.pnm": image}


command_lines = st.one_of(
    st.builds(features_line, one_key_image, st.sampled_from([[], ["--scenario", DEFAULT]])),
    st.builds(lambda rules, values: (["infer", *values, "--rules", "{tmp}/x.rules",
                                      "--out", "{tmp}/out.txt"], {"x.rules": rules.encode()}),
              one_line_rules,
              st.builds(lambda i, value: [*["0.55"] * i, value, *["0.55"] * (5 - i)],
                        st.integers(0, 5), st.sampled_from(["0.1", "1.0", "1.0000000009",
                                                            "1.1", "0", "nan", "inf", "1e300"]))),
    st.builds(lambda rules, budget: (["tune", "--scenario", DEFAULT, "--rules", "{tmp}/x.rules",
                                      "--budget", budget, "--out", "{tmp}/t.rules"],
                                     {"x.rules": rules.encode()}),
              one_line_rules, st.sampled_from(["1", "2", "3", "0"])),
    st.builds(lambda changes, seed: (["render", "--scenario", "{tmp}/x.scenario",
                                      "--out", "{tmp}/view.pgm", *seed],
                                     {"x.scenario": scenario_text(changes).encode()}),
              one_key_mutation, st.sampled_from([[], ["--seed=0"], ["--seed=" + "9" * 400],
                                                 ["--frame=" + "9" * 400],
                                                 ["--pose=1000000,0,1e300"],
                                                 ["--pose=5e-324,1000000,-90"]])),
    st.builds(lambda record, scenario, tolerance: (["plot", "{tmp}/x.csv", *scenario, *tolerance,
                                                    "--out", "{tmp}/x.svg"],
                                                   {"x.csv": record.encode()}),
              one_field_record, st.sampled_from([[], ["--scenario", DEFAULT]]),
              st.sampled_from([[], ["--tolerance=5e-324"], ["--tolerance=1e300"]])))


@example((["plot", "{tmp}/x.csv", "--out", "{tmp}/x.svg"],
          {"x.csv": record_text(1, 0, "9" * 400).encode()}))
@example(features_line(image_bytes("P6", (240, 320), "magic", "P3"), []))
@example(features_line(image_bytes("P5", (240, 320), "cut", "1"), []))
@example(features_line(image_bytes("P6", (1, 320), "none", ""), []))
@example(features_line(image_bytes("P5", (240, 1), "none", ""), []))
@settings(max_examples=150, deadline=None)
@given(command_lines)
def test_other_commands_end_without_a_traceback(command_line):
    """features, infer, tune, render and plot, each over one mutated image, rules, scenario
    or record file, end in an exit code and stderr lines that all come from the CLI."""
    argv, files = command_line
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        code, err = run_cli_quietly([arg.format(tmp=tmp) for arg in argv])
    assert code in (0, 1, 2)
    assert all(line.startswith("pipefollow: ") for line in err.splitlines())

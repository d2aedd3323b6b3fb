import importlib.util

from pipefollow import cli
from conftest import ROOT, SCENARIO_DIR


def test_tune_rules_regenerates_committed_file():
    spec = importlib.util.spec_from_file_location("tune_rules",
                                                  ROOT / "scripts" / "tune_rules.py")
    tune_rules = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tune_rules)
    assert tune_rules.BUDGET == 400
    text = tune_rules.tuned_rules_text()
    assert text.encode() == (SCENARIO_DIR / "tuned.rules").read_bytes()


def test_run_experiment_writes_what_pipefollow_run_writes(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_experiment",
                                                  ROOT / "scripts" / "run_experiment.py")
    run_experiment = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_experiment)
    assert run_experiment.main(tmp_path) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["detuned.csv", "detuned.svg", "tuned.csv", "tuned.svg"]
    (tmp_path / "cli").mkdir()
    assert cli.main(["run", "--scenario", str(SCENARIO_DIR / "default.scenario"),
                     "--out", str(tmp_path / "cli" / "tuned.csv"),
                     "--plot", str(tmp_path / "cli" / "tuned.svg")]) == 0
    for name in ("tuned.csv", "tuned.svg"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
    assert "tuning closed the gap" in capsys.readouterr().out

import importlib.util
import sys

from pipefollow import cli, fis, sim
from conftest import ROOT, SCENARIO_DIR

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def load_tune_rules():
    spec = importlib.util.spec_from_file_location("tune_rules",
                                                  ROOT / "scripts" / "tune_rules.py")
    tune_rules = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tune_rules)
    return tune_rules


def test_tune_rules_regenerates_committed_file():
    tune_rules = load_tune_rules()
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


def test_the_tune_workload_tunes_the_scripts_suite_from_its_profile():
    """bench/workloads.py copies build_suite and hand_profile from scripts/tune_rules.py, so
    that the tune workload measures the tuner's real suite; the copies must stay equal."""
    tune_rules = load_tune_rules()
    for name in ("default.scenario", "detuned.scenario"):
        base = sim.load_scenario(SCENARIO_DIR / name)
        assert workloads.build_suite(base) == tune_rules.build_suite(base)
    base = sim.load_scenario(ROOT / "bench" / "data" / "tune.scenario")
    assert workloads.build_suite(base) == tune_rules.build_suite(base)
    for rb in (fis.default_rulebase(), sim.read_rulebase(SCENARIO_DIR / "detuned.rules")):
        assert workloads.hand_profile(rb) == tune_rules.hand_profile(rb)

import importlib.util

from conftest import ROOT, SCENARIO_DIR


def test_tune_rules_regenerates_committed_file():
    spec = importlib.util.spec_from_file_location("tune_rules",
                                                  ROOT / "scripts" / "tune_rules.py")
    tune_rules = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tune_rules)
    assert tune_rules.BUDGET == 400
    text = tune_rules.tuned_rules_text()
    assert text.encode() == (SCENARIO_DIR / "tuned.rules").read_bytes()

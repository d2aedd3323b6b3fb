"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
from contextlib import contextmanager

import numpy as np

import oracles
from conftest import SCENARIO_DIR
from pipefollow import fis, sim
from pipefollow.imgproc import ThresholdBand, area, label_regions, threshold_band


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def binary_image(pixels):
    return np.asarray(pixels, dtype=np.uint8)


def test_criterion_1_percentage_of_drift_reference_rows():
    with criterion("1. percentage-of-drift reproduces all reference rows exactly"):
        world = sim.World(pipeline=((47.5, 22.5), (58.5, 45.0), (69.6, 67.5),
                                    (80.8, 90.0), (91.9, 112.5)))
        ys = [22.5, 45.0, 67.5, 90.0, 112.5]
        cases = [
            ([69.5, 71.7, 73.3, 78.3, 75.7],
             [22.0, 13.2, 3.7, -2.5, -16.2],
             [275.0, 165.0, 46.3, 31.3, 202.5]),
            ([55.2, 57.4, 68.5, 88.1, 85.9],
             [7.7, -1.1, -1.1, 7.3, -6.0],
             [96.3, 13.8, 13.8, 91.3, 75.0]),
        ]
        for sim_xs, want_drift, want_pct in cases:
            record = sim.drift_metrics(
                [sim.AuvState(x, y, 90.0) for x, y in zip(sim_xs, ys)],
                world, tolerance=8.0)
            assert [p.drift for p in record.points] == want_drift
            assert [p.pct_drift for p in record.points] == want_pct


def test_criterion_2_tuned_mission_within_tolerance():
    with criterion("2. tuned default mission keeps |drift| <= 8.0 cm at all 5 points"):
        scenario = sim.load_scenario(SCENARIO_DIR / "default.scenario")
        record = sim.run_mission(scenario, sim.load_rulebase(scenario), tolerance=8.0)
        assert len(record.points) == 5
        assert all(abs(p.drift) <= 8.0 for p in record.points)


def test_criterion_3_detuned_mission_exceeds_tolerance():
    with criterion("3. detuned mission exceeds 8.0 cm drift somewhere"):
        scenario = sim.load_scenario(SCENARIO_DIR / "detuned.scenario")
        record = sim.run_mission(scenario, sim.load_rulebase(scenario), tolerance=8.0)
        assert any(abs(p.drift) > 8.0 for p in record.points)


def test_criterion_4_threshold_area_labeling_oracle_equivalence():
    with criterion("4. threshold/area/labeling match brute-force oracles, zero mismatches"):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            gray = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            t1 = int(rng.integers(0, 254))
            t2 = int(rng.integers(t1 + 1, 256))
            got = threshold_band(gray, ThresholdBand(t1, t2))
            want = oracles.threshold_pixels(gray, t1, t2)
            assert np.array_equal(got, want)
            assert area(got) == oracles.count_area(want)
            lm = label_regions(got)
            ref_labels, ref_count = oracles.flood_fill_labels(got)
            assert lm.region_count == ref_count
            assert np.array_equal(lm.labels, ref_labels)
        for code in range(512):
            bits = np.array([(code >> k) & 1 for k in range(9)],
                            dtype=np.uint8).reshape(3, 3)
            img = binary_image(bits)
            got = threshold_band(bits, ThresholdBand(0, 1))
            assert np.array_equal(got, bits)
            assert area(img) == oracles.count_area(bits)
            lm = label_regions(img)
            ref_labels, ref_count = oracles.flood_fill_labels(bits)
            assert lm.region_count == ref_count
            assert np.array_equal(lm.labels, ref_labels)


def test_criterion_5_fis_numeric_suite():
    with criterion("5. membership/defuzzifier numerics hold at stated tolerances"):
        # gaussian peak, symmetry, one-sigma point (1e-6)
        assert fis.eval_gaussian(0.55, 0.19, 0.55) == 1.0
        for d in (0.05, 0.2, 0.41):
            assert abs(fis.eval_gaussian(0.55 - d, 0.19, 0.55)
                       - fis.eval_gaussian(0.55 + d, 0.19, 0.55)) <= 1e-12
        assert abs(fis.eval_gaussian(0.74, 0.19, 0.55) - math.exp(-0.5)) <= 1e-6

        # S and pi continuity at every branch point (jump below 1e-9);
        # epsilon is small enough that smooth slope contributes ~1e-12
        eps = 1e-12
        a, c = 0.1, 1.0
        for p in (a, (a + c) / 2, c):
            vals = [fis.eval_s(x, a, (a + c) / 2, c) for x in (p - eps, p, p + eps)]
            assert max(vals) - min(vals) <= 1e-9
        b, ctr = 60.0, 90.0
        for p in (ctr - b, ctr - b / 2, ctr, ctr + b / 2, ctr + b):
            vals = [fis.eval_pi(x, b, ctr) for x in (p - eps, p, p + eps)]
            assert max(vals) - min(vals) <= 1e-9

        # defuzzifier homogeneity under firing-strength scaling (1e-9)
        rb = fis.default_rulebase()
        rng = np.random.default_rng(77)
        for _ in range(50):
            alphas = rng.random(13).tolist()
            base = fis.defuzzify(alphas, rb)
            for k in (0.1, 2.0, 10.0):
                assert abs(fis.defuzzify([k * x for x in alphas], rb) - base) <= 1e-9

        # mirror equivariance over 1000 random feature vectors (1e-9)
        for _ in range(1000):
            v = dict(zip(fis.INPUT_VARIABLES, 0.1 + 0.9 * rng.random(6)))
            mirrored = {"x1": v["x2"], "x2": v["x1"], "x3": v["x4"], "x4": v["x3"],
                        "x5": 1.1 - v["x5"], "x6": 1.1 - v["x6"]}
            lhs = fis.infer(rb, mirrored).output
            rhs = 180.0 - fis.infer(rb, v).output
            assert abs(lhs - rhs) <= 1e-9


def test_criterion_6_determinism_and_overlap_equivalence():
    with criterion("6. sequential x2 and overlapped runs give byte-identical CSVs"):
        scenario = sim.load_scenario(SCENARIO_DIR / "default.scenario")
        rb = sim.load_rulebase(scenario)
        first = sim.run_mission(scenario, rb, mode="sequential").to_csv().encode()
        second = sim.run_mission(scenario, rb, mode="sequential").to_csv().encode()
        overlapped = sim.run_mission(scenario, rb, mode="overlapped").to_csv().encode()
        assert first == second == overlapped


def test_criterion_7_rule_dsl_round_trip():
    with criterion("7. rule DSL parse -> print -> parse is identity; 13 rules"):
        rb = fis.default_rulebase()
        assert len(rb.rules) == 13
        text = fis.format_rulebase(rb)
        again = fis.parse_rulebase(text)
        assert again == rb
        assert fis.format_rulebase(again) == text

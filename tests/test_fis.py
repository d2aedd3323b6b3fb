import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pipefollow import fis
from pipefollow.fis import (InferenceResult, LinguisticVariable,
                            MembershipFunction, Rule, RuleBase, RuleParseError,
                            default_rulebase, defuzzify, eval_gaussian,
                            eval_pi, eval_s, fire_rules, format_rulebase,
                            infer, parse_rulebase, term_parameters,
                            with_term_parameters)

unit = st.floats(min_value=0.1, max_value=1.0, allow_nan=False)


def feature_values(x1=0.4, x2=0.4, x3=0.4, x4=0.4, x5=0.55, x6=0.55):
    return {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "x5": x5, "x6": x6}


def mirror_values(v):
    return {"x1": v["x2"], "x2": v["x1"], "x3": v["x4"], "x4": v["x3"],
            "x5": 1.1 - v["x5"], "x6": 1.1 - v["x6"]}


class TestGaussian:
    def test_peak(self):
        assert eval_gaussian(0.55, 0.19, 0.55) == 1.0

    @given(st.floats(min_value=0, max_value=2, allow_nan=False))
    def test_symmetry(self, d):
        assert eval_gaussian(0.5 - d, 0.2, 0.5) == pytest.approx(
            eval_gaussian(0.5 + d, 0.2, 0.5), abs=1e-12)

    def test_one_sigma_point(self):
        assert eval_gaussian(0.55 + 0.19, 0.19, 0.55) == pytest.approx(
            0.606531, abs=1e-6)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            eval_gaussian(0.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            eval_gaussian(0.5, -1.0, 0.5)


class TestSShape:
    def test_shelves(self):
        assert eval_s(0.0, 0.0, 0.5, 1.0) == 0.0
        assert eval_s(-5.0, 0.0, 0.5, 1.0) == 0.0
        assert eval_s(1.0, 0.0, 0.5, 1.0) == 1.0
        assert eval_s(7.0, 0.0, 0.5, 1.0) == 1.0

    def test_midpoint(self):
        assert eval_s(0.5, 0.0, 0.5, 1.0) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(min_value=-1, max_value=2), st.floats(min_value=-1, max_value=2))
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert eval_s(lo, 0.0, 0.5, 1.0) <= eval_s(hi, 0.0, 0.5, 1.0) + 1e-15

    def test_continuity_at_branch_points(self):
        a, c = 0.2, 1.4
        b = (a + c) / 2
        eps = 1e-12  # small enough that slope contributes well under the tolerance
        for p in (a, b, c):
            lo = eval_s(p - eps, a, b, c)
            mid = eval_s(p, a, b, c)
            hi = eval_s(p + eps, a, b, c)
            assert abs(mid - lo) <= 1e-9 and abs(hi - mid) <= 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            eval_s(0.5, 1.0, 0.5, 0.0)     # a >= c
        with pytest.raises(ValueError):
            eval_s(0.5, 0.0, 0.3, 1.0)     # midpoint not (a+c)/2


class TestPiShape:
    def test_peak(self):
        assert eval_pi(90.0, 60.0, 90.0) == 1.0

    def test_feet(self):
        assert eval_pi(30.0, 60.0, 90.0) == 0.0
        assert eval_pi(150.0, 60.0, 90.0) == 0.0
        assert eval_pi(-100.0, 60.0, 90.0) == 0.0
        assert eval_pi(400.0, 60.0, 90.0) == 0.0

    def test_half_points(self):
        assert eval_pi(60.0, 60.0, 90.0) == pytest.approx(0.5, abs=1e-12)
        assert eval_pi(120.0, 60.0, 90.0) == pytest.approx(0.5, abs=1e-12)

    def test_continuity_at_branch_points(self):
        b, c = 60.0, 90.0
        eps = 1e-9
        for p in (c - b, c - b / 2, c, c + b / 2, c + b):
            lo = eval_pi(p - eps, b, c)
            mid = eval_pi(p, b, c)
            hi = eval_pi(p + eps, b, c)
            assert abs(mid - lo) <= 1e-9 and abs(hi - mid) <= 1e-9

    @given(st.floats(min_value=-50, max_value=230))
    def test_range(self, x):
        assert 0.0 <= eval_pi(x, 60.0, 90.0) <= 1.0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            eval_pi(0.5, 0.0, 0.5)


class TestFireRules:
    def _two_antecedent_base(self):
        variables = fis.default_variables()
        rules = (Rule((("x5", "Left"), ("x6", "Left")), ("y1", "TurnLeft")),)
        return RuleBase(variables, rules)

    def test_min_identity(self):
        rb = self._two_antecedent_base()
        alphas = fire_rules(rb, feature_values(x5=0.1, x6=0.1))  # both peaks
        assert alphas == [1.0]

    def test_min_annihilator(self):
        # pi-shaped terms reach exactly zero beyond their feet
        rb = self._two_antecedent_base()
        variables = dict(rb.variables)
        terms5 = dict(variables["x5"].terms)
        terms5["Left"] = MembershipFunction("pi", 0.2, 0.1)
        variables["x5"] = LinguisticVariable("x5", fis.INPUT_UNIVERSE, terms5)
        rb = RuleBase(variables, rb.rules)
        alphas = fire_rules(rb, feature_values(x5=0.9, x6=0.1))  # x5 outside the foot
        assert alphas == [0.0]

    def test_min_of_two_memberships(self):
        rb = self._two_antecedent_base()
        values = feature_values(x5=0.3, x6=0.5)
        m5 = rb.variables["x5"].terms["Left"](0.3)
        m6 = rb.variables["x6"].terms["Left"](0.5)
        assert fire_rules(rb, values) == [min(m5, m6)]
        assert m5 != m6  # the min actually chooses

    def test_missing_variable_rejected(self):
        rb = self._two_antecedent_base()
        with pytest.raises(ValueError, match="x6"):
            fire_rules(rb, {"x5": 0.5})

    @given(unit, unit, unit, unit, unit, unit)
    def test_alpha_is_min_over_default_rules(self, x1, x2, x3, x4, x5, x6):
        rb = default_rulebase()
        values = feature_values(x1, x2, x3, x4, x5, x6)
        alphas = fire_rules(rb, values)
        for alpha, rule in zip(alphas, rb.rules):
            expected = min(rb.variables[v].terms[t](values[v])
                           for v, t in rule.antecedents)
            assert alpha == expected


class TestDefuzzify:
    def test_single_rule_weight_cancels(self):
        rb = default_rulebase()
        alphas = [0.0] * 13
        alphas[1] = 0.7   # rule 2 concludes TurnRight, center 150
        assert defuzzify(alphas, rb) == pytest.approx(150.0, abs=1e-12)

    def test_equal_strengths_average_symmetrically(self):
        rb = default_rulebase()
        alphas = [0.0] * 13
        alphas[0] = 0.4   # TurnLeft, center 30
        alphas[1] = 0.4   # TurnRight, center 150
        assert defuzzify(alphas, rb) == pytest.approx(90.0, abs=1e-12)

    def test_hand_computed_mix(self):
        rb = default_rulebase()
        alphas = [0.0] * 13
        alphas[0] = 0.2    # center 30
        alphas[12] = 0.6   # GoStraight, center 90
        assert defuzzify(alphas, rb) == 75.0

    def test_no_fire_returns_neutral(self):
        rb = default_rulebase()
        assert defuzzify([0.0] * 13, rb) == 90.0

    # alpha of exactly 0 or >= 1e-6: scaling a subnormal by 0.1 would
    # underflow to zero and legitimately change the no-fire outcome
    @given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1)),
                    min_size=13, max_size=13),
           st.sampled_from([0.1, 2.0, 10.0]))
    def test_homogeneity(self, alphas, k):
        rb = default_rulebase()
        if sum(alphas) == 0.0:
            return
        assert defuzzify([k * a for a in alphas], rb) == pytest.approx(
            defuzzify(alphas, rb), abs=1e-9)


class TestInfer:
    def test_symmetric_input_goes_straight(self):
        result = infer(default_rulebase(), feature_values())
        assert result.output == pytest.approx(90.0, abs=1e-9)
        assert not result.no_fire

    def test_far_end_right_steers_right(self):
        result = infer(default_rulebase(), feature_values(x5=1.0))
        assert result.output > 90.0

    def test_far_end_left_steers_left_and_mirrors(self):
        rb = default_rulebase()
        left = infer(rb, feature_values(x5=0.1))
        right = infer(rb, feature_values(x5=1.0))
        assert left.output < 90.0
        assert left.output == pytest.approx(180.0 - right.output, abs=1e-9)

    @given(unit, unit, unit, unit, unit, unit)
    def test_mirror_equivariance(self, x1, x2, x3, x4, x5, x6):
        rb = default_rulebase()
        values = feature_values(x1, x2, x3, x4, x5, x6)
        a = infer(rb, values).output
        b = infer(rb, mirror_values(values)).output
        assert b == pytest.approx(180.0 - a, abs=1e-9)

    @given(unit, unit, unit, unit, unit, unit)
    def test_output_within_consequent_hull(self, x1, x2, x3, x4, x5, x6):
        result = infer(default_rulebase(), feature_values(x1, x2, x3, x4, x5, x6))
        assert 30.0 - 1e-12 <= result.output <= 150.0 + 1e-12

    @given(st.lists(st.sampled_from([0.0, 180.0]) | st.floats(0.0, 180.0),
                    min_size=3, max_size=3), unit, unit, unit, unit, unit, unit)
    @example([180.0] * 3, 0.6864336754504866, 0.8098510160219619, 0.1844736280968114,
             0.1255127288698057, 0.8521885935278827, 0.489490361114548)
    def test_output_within_output_universe(self, centers, x1, x2, x3, x4, x5, x6):
        """Centers at the universe edges do not round a steer out of [0, 180]."""
        rb = default_rulebase()
        params = {("y1", term): (rb.variables["y1"].terms[term].width, center)
                  for term, center in zip(("TurnLeft", "GoStraight", "TurnRight"), centers)}
        result = infer(with_term_parameters(rb, params), feature_values(x1, x2, x3, x4, x5, x6))
        assert 0.0 <= result.output <= 180.0

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError, match="x1"):
            infer(default_rulebase(), feature_values(x1=1.5))
        with pytest.raises(ValueError, match="x6"):
            infer(default_rulebase(), feature_values(x6=0.0))
        with pytest.raises(ValueError, match="x3=nan outside universe"):
            infer(default_rulebase(), feature_values(x3=float("nan")))

    def test_records_all_firing_strengths(self):
        result = infer(default_rulebase(), feature_values())
        assert isinstance(result, InferenceResult)
        assert len(result.firing_strengths) == 13


MIRROR_VAR = {"x1": "x2", "x2": "x1", "x3": "x4", "x4": "x3", "x5": "x5", "x6": "x6"}
MIRROR_TERM = {"Left": "Right", "Right": "Left", "Center": "Center",
               "Small": "Small", "Medium": "Medium", "Large": "Large",
               "TurnLeft": "TurnRight", "TurnRight": "TurnLeft",
               "GoStraight": "GoStraight"}


def mirror_rule(rule):
    ante = tuple(sorted((MIRROR_VAR[v], MIRROR_TERM[t]) for v, t in rule.antecedents))
    return (ante, (rule.consequent[0], MIRROR_TERM[rule.consequent[1]]))


class TestDefaultRulebase:
    def test_has_13_rules(self):
        assert len(default_rulebase().rules) == 13

    def test_mirror_symmetric_as_a_set(self):
        rules = default_rulebase().rules
        canon = {(tuple(sorted(r.antecedents)), r.consequent) for r in rules}
        mirrored = {mirror_rule(r) for r in rules}
        assert canon == mirrored

    def test_centered_pipe_wins_go_straight(self):
        rb = default_rulebase()
        result = infer(rb, feature_values(x1=0.3, x2=0.3, x3=0.35, x4=0.35))
        winner = max(range(13), key=lambda i: result.firing_strengths[i])
        assert rb.rules[winner].consequent == ("y1", "GoStraight")


class TestRuleDsl:
    def test_minimal_rule(self):
        rb = parse_rulebase("IF x5 IS Right THEN y1 IS TurnRight\n")
        assert len(rb.rules) == 1
        assert rb.rules[0].antecedents == (("x5", "Right"),)

    def test_conjunction(self):
        rb = parse_rulebase("IF x1 IS Large AND x3 IS Large THEN y1 IS TurnLeft")
        assert len(rb.rules[0].antecedents) == 2

    def test_unknown_variable_named(self):
        with pytest.raises(RuleParseError, match=r"line 1.*x9"):
            parse_rulebase("IF x9 IS Small THEN y1 IS TurnLeft")

    def test_unknown_term_named(self):
        with pytest.raises(RuleParseError, match=r"line 3.*Huge"):
            parse_rulebase("# header\n\nIF x1 IS Huge THEN y1 IS TurnLeft")

    def test_missing_then(self):
        with pytest.raises(RuleParseError, match="THEN"):
            parse_rulebase("IF x1 IS Small\n")

    def test_empty_antecedent(self):
        with pytest.raises(RuleParseError, match="empty antecedent"):
            parse_rulebase("IF THEN y1 IS TurnLeft")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(RuleParseError, match="twice"):
            parse_rulebase("IF x1 IS Small AND x1 IS Large THEN y1 IS TurnLeft")

    def test_output_not_allowed_in_antecedent(self):
        with pytest.raises(RuleParseError):
            parse_rulebase("IF y1 IS TurnLeft THEN y1 IS TurnLeft")

    def test_comments_and_blank_lines_ignored(self):
        rb = parse_rulebase("# comment\n\nIF x5 IS Left THEN y1 IS TurnLeft  # trailing\n\n")
        assert len(rb.rules) == 1

    def test_term_override_applies(self):
        rb = parse_rulebase("term.x5.Left = gaussian(0.25, 0.2)\n"
                            "IF x5 IS Left THEN y1 IS TurnLeft\n")
        mf = rb.variables["x5"].terms["Left"]
        assert (mf.kind, mf.width, mf.center) == ("gaussian", 0.25, 0.2)

    def test_term_override_kind_change(self):
        rb = parse_rulebase("term.x1.Small = pi(0.3, 0.2)\n"
                            "IF x1 IS Small THEN y1 IS TurnLeft\n")
        assert rb.variables["x1"].terms["Small"].kind == "pi"

    def test_term_override_outside_universe_rejected(self):
        with pytest.raises(RuleParseError, match="universe"):
            parse_rulebase("term.x1.Small = gaussian(0.19, 1.4)")

    @pytest.mark.parametrize("term, value, message", [
        ("x5.Left", "gaussian(nan, 0.19)", "width must be finite"),
        ("x5.Left", "gaussian(inf, 0.19)", "width must be finite"),
        ("y1.TurnLeft", "pi(nan, 30.0)", "width must be finite"),
        ("x5.Left", "gaussian(0.19, nan)", "center must be finite"),
        ("x5.Left", "gaussian(0.19, inf)", "center must be finite"),
        ("x5.Left", "gaussian(1e-200, 0.5)", r"width 1e-200 too small: 2\*width\*width underflows"),
        ("x5.Left", "pi(1e-20, 0.5)", "width 1e-20 too small: pi feet collapse onto center 0.5"),
    ])
    def test_term_override_non_finite_rejected(self, term, value, message):
        with pytest.raises(RuleParseError, match=f"line 2: membership {message}"):
            parse_rulebase(f"# header\nterm.{term} = {value}\n")

    def test_malformed_term_value(self):
        with pytest.raises(RuleParseError, match="line 1"):
            parse_rulebase("term.x1.Small = gaussian(0.19)")

    def test_round_trip_default(self):
        rb = default_rulebase()
        assert parse_rulebase(format_rulebase(rb)) == rb

    def test_round_trip_with_overrides(self):
        rb = with_term_parameters(default_rulebase(),
                                  {("x5", "Center"): (0.3071, 0.5125),
                                   ("y1", "TurnRight"): (55.5, 147.25)})
        text = format_rulebase(rb)
        assert parse_rulebase(text) == rb
        assert format_rulebase(parse_rulebase(text)) == text

    def test_shipped_default_file_matches_builtin(self, scenario_dir):
        text = (scenario_dir / "default.rules").read_text()
        assert parse_rulebase(text) == default_rulebase()

    def test_shipped_detuned_file_parses(self, scenario_dir):
        rb = parse_rulebase((scenario_dir / "detuned.rules").read_text())
        assert len(rb.rules) == 13
        assert rb.variables["x5"].terms["Center"].center == 0.65

    def test_shipped_tuned_file_parses(self, scenario_dir):
        rb = parse_rulebase((scenario_dir / "tuned.rules").read_text())
        assert len(rb.rules) == 13


class TestRuleChecks:
    GOOD = Rule((("x5", "Left"),), ("y1", "TurnLeft"))

    @pytest.mark.parametrize("rule, message", [
        (Rule((), ("y1", "TurnLeft")), "empty antecedent"),
        (Rule((("x9", "Left"),), ("y1", "TurnLeft")), "unknown variable x9"),
        (Rule((("y1", "TurnLeft"),), ("y1", "TurnLeft")), "y1 cannot appear in an antecedent"),
        (Rule((("x5", "Left"),), ("z1", "Up")), "unknown variable z1"),
        (Rule((("x5", "Left"),), ("x6", "Left")), "x6 cannot appear in a consequent"),
        (Rule((("x5", "Huge"),), ("y1", "TurnLeft")), "unknown term Huge for variable x5"),
        (Rule((("x5", "Left"),), ("y1", "Sharp")), "unknown term Sharp for variable y1"),
        (Rule((("x5", "Left"), ("x5", "Right")), ("y1", "TurnLeft")),
         "variable x5 used twice in one rule"),
    ])
    def test_rule_base_names_the_bad_rule(self, rule, message):
        with pytest.raises(ValueError, match=f"^rule 2: {message}$"):
            RuleBase(fis.default_variables(), (self.GOOD, rule))


ALL_VARIABLES = (*fis.INPUT_VARIABLES, fis.OUTPUT_VARIABLE)
ALL_TERMS = (*fis.COVERAGE_TERMS, *fis.LOCATION_TERMS, *fis.OUTPUT_TERMS)
DSL_TOKENS = ("IF", "THEN", "IS", "AND", "#", "=", *ALL_VARIABLES, *ALL_TERMS,
              "term.x5.Left", "term.y1.Bogus", "gaussian(0.19,", "0.1)", "pi(60.0, 150.0)")
reference = st.tuples(st.sampled_from(ALL_VARIABLES), st.sampled_from(ALL_TERMS))
rule_line = st.builds(
    lambda ante, cons: "IF " + " AND ".join(f"{v} IS {t}" for v, t in ante)
    + f" THEN {cons[0]} IS {cons[1]}",
    st.lists(reference, max_size=3), reference)
term_line = st.builds("term.{0[0]}.{0[1]} = {1}({2!r}, {3!r})".format, reference,
                      st.sampled_from(["gaussian", "pi", "bump"]), st.floats(), st.floats())
token_line = st.lists(st.sampled_from(DSL_TOKENS), max_size=12).map(" ".join)
dsl_text = st.one_of(st.text(),
                     st.lists(st.one_of(rule_line, term_line, token_line)).map("\n".join))


@given(dsl_text)
def test_parse_raises_only_rule_parse_error(text):
    try:
        rb = parse_rulebase(text)
    except RuleParseError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines())
    else:
        assert parse_rulebase(format_rulebase(rb)) == rb


def override_line(reference):
    """term. lines for one term: any kind, any positive finite width (subnormals
    too) and any center in the variable's universe."""
    var, term = reference
    lo, hi = fis.default_variables()[var].universe
    return st.builds(f"term.{var}.{term} = {{}}({{!r}}, {{!r}})".format,
                     st.sampled_from(["gaussian", "pi"]),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                     st.floats(lo, hi))


term_override = st.sampled_from(
    [(var, term) for var, v in fis.default_variables().items() for term in v.terms]
).flatmap(override_line)


@example("term.x5.Left = gaussian(1e-200, 0.5)", [0.5] * 6)
@example("term.x5.Left = pi(1e-20, 0.5)", [0.5] * 6)
@given(term_override, st.lists(unit, min_size=6, max_size=6))
def test_a_parsed_override_infers_a_steer_in_the_output_universe(line, values):
    try:
        rb = parse_rulebase(f"{line}\n{fis.DEFAULT_RULES_TEXT}")
    except RuleParseError:
        return
    output = infer(rb, dict(zip(fis.INPUT_VARIABLES, values))).output
    assert math.isfinite(output) and 0.0 <= output <= 180.0


class TestTermParameterViews:
    def test_round_trip_views(self):
        rb = default_rulebase()
        params = term_parameters(rb)
        assert params[("x5", "Center")] == (0.19, 0.55)
        assert with_term_parameters(rb, params) == rb

    def test_replacement_changes_only_named_terms(self):
        rb = default_rulebase()
        out = with_term_parameters(rb, {("x5", "Center"): (0.25, 0.5)})
        assert out.variables["x5"].terms["Center"].width == 0.25
        assert out.variables["x6"] == rb.variables["x6"]
        assert out.rules == rb.rules

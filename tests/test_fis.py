import math
import re

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from oracles import fire_rules
from pipefollow import fis
from pipefollow.fis import (InferenceResult, LinguisticVariable,
                            MembershipFunction, Rule, RuleBase, ParseError,
                            default_rulebase, defuzzify, eval_gaussian,
                            eval_pi, eval_s, format_rulebase,
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

    @pytest.mark.parametrize("sigma", [1e-200, 5e-324, -0.0, math.nan])
    def test_sigma_too_narrow_to_divide_by_rejected(self, sigma):
        with pytest.raises(ValueError, match=rf"^gaussian sigma must be > 0 with "
                                             rf"2\*sigma\*sigma > 0, got {sigma}$"):
            eval_gaussian(0.5, sigma, 0.5)

    def test_infinite_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"^gaussian sigma must be finite, got inf$"):
            eval_gaussian(0.5, math.inf, 0.5)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, c):
        with pytest.raises(ValueError, match=rf"^gaussian center must be finite, got {c}$"):
            eval_gaussian(0.5, 0.2, c)


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

    @pytest.mark.parametrize("x, a, b, c, got", [
        (0.5, math.nan, math.nan, math.nan, "a=nan, c=nan"),
        (0.0, -1e308, 0.0, 1e308, "a=-1e+308, c=1e+308"),   # c - a overflows to inf
    ], ids=["nan", "span-overflows"])
    def test_nan_or_overflowing_span_rejected(self, x, a, b, c, got):
        form = re.escape(f"S-shape requires a < c with c - a finite, got {got}")
        with pytest.raises(ValueError, match=f"^{form}$"):
            eval_s(x, a, b, c)


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

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0, exclude_min=True, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0, 5.5805267802281075e-05, 1e10)   # c - b/2 is one ulp of c from (a+c)/2
    @example(1e10, 5.5805267802281075e-05, 1e10)
    @example(-1e308, 1.79e308, -1e307)   # the left foot overflows, so the chain rejects it
    @example(1.1e308, 5e307, 1e308)      # (a + c) / 2 of the right S-shape would overflow
    def test_strictly_ordered_feet_are_accepted(self, x, b, c):
        assume(-math.inf < c - b < c - b / 2 < c < c + b / 2 < c + b < math.inf)
        assert 0.0 <= eval_pi(x, b, c) <= 1.0

    def test_feet_at_the_edge_of_the_float_range(self):
        form = re.escape("pi half-width must be > 0 with feet c-b < c-b/2 < c < c+b/2 < c+b")
        with pytest.raises(ValueError, match=rf"^{form}, got b=1\.79e\+308, c=-1e\+307$"):
            eval_pi(-1e308, 1.79e308, -1e307)
        assert eval_pi(1.1e308, 5e307, 1e308) == pytest.approx(0.92)

    @pytest.mark.parametrize("b", [1e-20, 5e-324, -1.0, math.inf, math.nan])
    def test_width_that_collapses_or_loses_the_feet_rejected(self, b):
        form = re.escape("pi half-width must be > 0 with feet c-b < c-b/2 < c < c+b/2 < c+b")
        for x in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match=rf"^{form}, got b={b}, c=0.5$"):
                eval_pi(x, b, 0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluate", [
    lambda x: eval_gaussian(x, 0.1, 0.5),
    lambda x: eval_s(x, 0.0, 0.5, 1.0),
    lambda x: eval_pi(x, 0.2, 0.5),
], ids=["gaussian", "s", "pi"])
def test_evaluators_reject_a_non_finite_input(evaluate, x):
    """nan once graded nan (gaussian), 1.0 (S) and 0.0 (pi)."""
    with pytest.raises(ValueError, match=f"^membership input must be finite, got {x}$"):
        evaluate(x)


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
        assert defuzzify((), rb) == 90.0

    @pytest.mark.parametrize("alphas, message", [
        ([math.nan] * 13, "firing strength must be finite and >= 0, got nan"),
        ([0.0, math.nan] + [0.0] * 11, "firing strength must be finite and >= 0, got nan"),
        ([math.inf] + [0.0] * 12, "firing strength must be finite and >= 0, got inf"),
        ([-1.0] + [0.0] * 12, "firing strength must be finite and >= 0, got -1.0"),
        ([1.0, -0.5] + [0.0] * 11, "firing strength must be finite and >= 0, got -0.5"),
        ([1e308] * 13, "firing strengths sum to inf"),
        ([1e307] + [0.0] * 12, "weighted sum of the consequent centers overflows"),
        (iter([-1.0] + [0.0] * 12), "firing strength must be finite and >= 0, got -1.0"),
    ], ids=["nan", "nan-after-zero", "inf", "negative", "negative-after-positive", "overflow",
            "weighted-overflow", "negative-from-an-iterator"])
    def test_bad_strength_rejected(self, alphas, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            defuzzify(alphas, default_rulebase())

    def test_strengths_above_one_accepted(self):
        alphas = [0.0] * 13
        alphas[0] = 10.0   # TurnLeft, center 30
        assert defuzzify(alphas, default_rulebase()) == 30.0

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
        with pytest.raises(ParseError, match=r"line 1.*x9"):
            parse_rulebase("IF x9 IS Small THEN y1 IS TurnLeft")

    def test_parse_error_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^line 1: unknown variable x9$"):
            parse_rulebase("IF x9 IS Small THEN y1 IS TurnLeft")

    def test_unknown_term_named(self):
        with pytest.raises(ParseError, match=r"line 3.*Huge"):
            parse_rulebase("# header\n\nIF x1 IS Huge THEN y1 IS TurnLeft")

    @pytest.mark.parametrize("line", [
        "WHEN x1 IS Small THEN y1 IS TurnLeft",
        "IF x1 IS Small",
        "IF x1 IS Small x2 THEN y1 IS TurnLeft",
        "IF x1 ARE Small THEN y1 IS TurnLeft",
        "IF x1 IS Small OR x2 IS Large THEN y1 IS TurnLeft",
        "IF x1 IS Small THEN y1 TurnLeft",
    ], ids=["no-IF", "no-THEN", "stray-token", "no-IS", "no-AND", "bad-consequent"])
    def test_syntax_error_shows_the_rule_form(self, line):
        form = "IF <var> IS <Term> [AND <var> IS <Term>]... THEN y1 IS <Term>"
        with pytest.raises(ParseError, match=f"^line 2: expected a rule '{re.escape(form)}'$"):
            parse_rulebase(f"# header\n{line}\n")

    def test_empty_antecedent(self):
        with pytest.raises(ParseError, match="empty antecedent"):
            parse_rulebase("IF THEN y1 IS TurnLeft")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParseError, match="twice"):
            parse_rulebase("IF x1 IS Small AND x1 IS Large THEN y1 IS TurnLeft")

    def test_output_not_allowed_in_antecedent(self):
        with pytest.raises(ParseError):
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
        with pytest.raises(ParseError, match="universe"):
            parse_rulebase("term.x1.Small = gaussian(0.19, 1.4)")

    def test_narrow_pi_override_far_outside_universe_names_its_center(self):
        # the S-shape midpoint check must not reject this pi before the universe check
        with pytest.raises(ParseError, match=r"^line 1: term x6\.Right center 10000000000\.0 "
                                             r"outside universe \[0\.1, 1\.0\]$"):
            parse_rulebase("term.x6.Right = pi(5.58e-05, 1e10)")

    @pytest.mark.parametrize("term, value, message", [
        ("x5.Left", "gaussian(nan, 0.19)", "width must be finite"),
        ("x5.Left", "gaussian(inf, 0.19)", "width must be finite"),
        ("y1.TurnLeft", "pi(nan, 30.0)", "width must be finite"),
        ("x5.Left", "gaussian(0.19, nan)", "center must be finite"),
        ("x5.Left", "gaussian(0.19, inf)", "center must be finite"),
    ])
    def test_term_override_non_finite_rejected(self, term, value, message):
        """The number reader rejects the line; MembershipFunction, which API callers
        build directly, still rejects those numbers itself."""
        with pytest.raises(ParseError,
                           match=f"^line 2: non-finite term parameters '{re.escape(value)}'$"):
            parse_rulebase(f"# header\nterm.{term} = {value}\n")
        kind, _, numbers = value.partition("(")
        with pytest.raises(ValueError, match=f"^membership {message}"):
            MembershipFunction(kind, *map(float, numbers.rstrip(")").split(",")))

    @pytest.mark.parametrize("value, message", [
        ("gaussian(1e-200, 0.5)",
         r"gaussian sigma must be > 0 with 2\*sigma\*sigma > 0, got 1e-200"),
        ("pi(1e-20, 0.5)", r"pi half-width must be > 0 with feet c-b < c-b/2 < c < "
                           r"c\+b/2 < c\+b, got b=1e-20, c=0.5"),
    ], ids=["gaussian", "pi"])
    def test_term_override_too_narrow_for_its_evaluator_rejected(self, value, message):
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            parse_rulebase(f"# header\nterm.x5.Left = {value}\n")

    def test_malformed_term_value(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_rulebase("term.x1.Small = gaussian(0.19)")

    @pytest.mark.parametrize("line", [
        "term.x1 = gaussian(0.1, 0.2)",
        "term.x1.Small gaussian(0.1, 0.2)",
        "term.x1.Small =",
        "term.x1.Small = gaussian(0.1, 0.2) now",
        "term.x1.Small = bump(0.1, 0.2)",
    ], ids=["no-term", "no-equals", "no-value", "trailing-text", "unknown-kind"])
    def test_malformed_term_line_shows_the_term_form(self, line):
        form = re.escape("term.<var>.<Term> = gaussian|pi(<width>, <center>)")
        with pytest.raises(ParseError,
                           match=f"^line 2: malformed term definition, expected '{form}'$"):
            parse_rulebase(f"# header\n{line}\n")

    @pytest.mark.parametrize("line, message", [
        ("term.x9.Small = bump(0.1)", "unknown variable x9"),
        ("term.x1.Huge = gaussian(a, 0.2", "unknown term Huge for variable x1"),
    ])
    def test_term_names_are_reported_before_the_value(self, line, message):
        with pytest.raises(ParseError, match=f"^line 1: {message}$"):
            parse_rulebase(line)

    @pytest.mark.parametrize("second", ["term.x1.Small = gaussian(0.25, 0.4)",
                                        "term.x1.Small\t=pi(0.3, 0.2)  # again"])
    def test_term_given_twice_names_both_lines(self, second):
        with pytest.raises(ParseError,
                           match=r"^line 2: duplicate key 'term\.x1\.Small' "
                                 r"\(first set on line 1\)$"):
            parse_rulebase(f"term.x1.Small = gaussian(0.2, 0.3)\n{second}\n")

    def test_non_numeric_term_parameters(self):
        with pytest.raises(ParseError,
                           match=r"^line 1: non-numeric term parameters 'gaussian\(a, 0\.2\)'$"):
            parse_rulebase("term.x1.Small = gaussian(a, 0.2)")

    def test_unknown_membership_kind(self):
        with pytest.raises(ValueError, match="^unknown membership kind 'bump'$"):
            MembershipFunction("bump", 0.1, 0.5)

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


def uncommented(line):
    """The line cut at its first '#' and stripped, as the line reader reads it."""
    return line.partition("#")[0].strip()


not_term_line = st.one_of(rule_line, token_line).filter(
    lambda line: not uncommented(line).startswith("term."))


def word_rule(line):
    """The Rule the word-by-word oracle reads from a line, or None when it reads
    none or the rule's names do not check."""
    tokens = oracles.rule_tokens(uncommented(line))
    if tokens is None:
        return None
    try:
        fis._check_rule(fis.default_variables(), Rule(*tokens))
    except ValueError:
        return None
    return Rule(*tokens)


def assert_read_as_the_oracle_reads(line):
    rule = word_rule(line)
    try:
        assert parse_rulebase(line).rules == (rule,)
    except ParseError:
        assert rule is None


@example(["IF x5 IS Left THEN y1 IS TurnLeft",
          "\tIF  x1 IS Large AND\tx2 IS Small THEN y1 IS TurnLeft  # note",
          "IF x6 IS Right AND x5 IS Center AND x1 IS Small THEN y1 IS GoStraight"])
@example(["IF x5 IS Left THEN y1 IS TurnLeft", "", "IF x1 IS THEN THEN y1 IS TurnLeft"])
@given(st.lists(not_term_line))
def test_rule_lines_parse_as_the_word_tokenizer_reads_them(lines):
    """parse_rulebase accepts a rule line exactly when the word-by-word oracle reads a
    rule whose names check, and a text up to the first line where it does not."""
    read = {line_no: word_rule(line)
            for line_no, line in enumerate(lines, start=1) if uncommented(line)}
    for line_no in read:
        assert_read_as_the_oracle_reads(lines[line_no - 1])
    bad = [line_no for line_no, rule in read.items() if rule is None]
    try:
        rb = parse_rulebase("\n".join(lines))
    except ParseError as exc:
        assert exc.line_no == bad[0]
    else:
        assert not bad and rb.rules == tuple(read.values())


def test_one_word_edits_of_a_rule_parse_as_the_word_tokenizer_reads_them():
    """Near misses random lines rarely hit: each word dropped or swapped for a keyword,
    a name or a clause."""
    words = "IF x5 IS Left AND x6 IS Center AND x1 IS Large THEN y1 IS TurnLeft".split()
    for pos in range(len(words)):
        for word in ("", "IF", "THEN", "IS", "AND", "x2", "Small", "x2 IS Small"):
            assert_read_as_the_oracle_reads(" ".join([*words[:pos], word, *words[pos + 1:]]))


@given(dsl_text)
def test_parse_raises_only_rule_parse_error(text):
    try:
        rb = parse_rulebase(text)
    except ParseError as exc:
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
    except ParseError:
        return
    output = infer(rb, dict(zip(fis.INPUT_VARIABLES, values))).output
    assert math.isfinite(output) and 0.0 <= output <= 180.0


def oracle_term(line):
    """((var, term), MembershipFunction) that the two-pattern oracle reads from a term
    line, or else the start of the error it implies: names are checked before the value,
    then the numbers (read, then finite), then the membership and its center."""
    fields = oracles.term_fields(uncommented(line))
    if fields is None:
        return "malformed term definition"
    var, term, value = fields
    variables = fis.default_variables()
    try:
        fis._check_term(variables, var, term)
        if value is None:
            return "malformed term definition"
        kind, width, center = value
        try:
            width, center = float(width), float(center)
        except ValueError:
            return "non-numeric term parameters"
        if not (math.isfinite(width) and math.isfinite(center)):
            return "non-finite term parameters"
        membership = MembershipFunction(kind, width, center)
        LinguisticVariable(var, variables[var].universe, {term: membership})
    except ValueError as exc:
        return str(exc)
    return (var, term), membership


TERM_PIECES = ("x5", "y1", "x9", ".", "Left", "TurnLeft", "Huge", " ", "\t", "=", " = ",
               "gaussian(", "pi(", "bump(", "(", ")", ",", ", ", "0.19", "60.0", "nan", "a",
               "#", "x5.Left = gaussian(", "y1.TurnLeft = pi(", "0.2, 0.3)", "60, 30)")
term_shaped_line = st.one_of(term_line, st.lists(st.sampled_from(TERM_PIECES), max_size=10).map(
    lambda parts: "term." + "".join(parts)))


@example("term.x5.Left = gaussian(0.2, 0.3)")
@example("term.y1.TurnLeft\t=pi( 60 ,30 )  # note")
@example("term.x5.Left = gaussian(0.2, 0.3) x")
@example("term.x9.Left = gaussian(")
@example("term.x5.Left = gaussian(0.2 a, 0.3)")
@example("term.x5.Léft = gaussian(0.2, 0.3)")
@given(st.one_of(term_override, term_shaped_line))
def test_term_lines_parse_as_the_two_pattern_reader_reads_them(line):
    """parse_rulebase accepts a term line exactly when the two-pattern oracle reads one
    that checks, with the same membership, and otherwise reports the oracle's error."""
    read = oracle_term(line)
    try:
        rb = parse_rulebase(line)
    except ParseError as exc:
        assert isinstance(read, str) and str(exc).startswith(f"line 1: {read}")
    else:
        (var, term), membership = read
        assert rb.variables[var].terms[term] == membership and rb.rules == ()


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


# --- compiled inference against the rule-by-rule oracle -----------------------

DEFAULT_RULES = default_rulebase().rules
# the universe ends and the 1e-9 slack past them that infer accepts
edge_unit = st.one_of(unit, st.sampled_from([0.1, 1.0, 0.1 - 1e-9, 1.0 + 1e-9]))


def parses(line):
    try:
        parse_rulebase(line)
    except ParseError:
        return False
    return True


@st.composite
def rule_bases_and_values(draw):
    """A rule base over the default variables with gaussian and pi overrides, some input
    variables left out, and up to 8 rules of 1-6 antecedents each; with values inside the
    universes for the variables it has and any floats, nan too, for those it lacks."""
    overrides = draw(st.lists(term_override, unique_by=lambda line: line.partition(" =")[0],
                              max_size=6))
    variables = parse_rulebase("\n".join(line for line in overrides if parses(line))).variables
    kept = draw(st.lists(st.sampled_from(fis.INPUT_VARIABLES), unique=True, min_size=1))
    variables = {var: v for var, v in variables.items()
                 if var in kept or var == fis.OUTPUT_VARIABLE}
    rules = []
    for _ in range(draw(st.integers(0, 8))):
        names = draw(st.lists(st.sampled_from(kept), unique=True, min_size=1))
        rules.append(Rule(tuple((var, draw(st.sampled_from(list(variables[var].terms))))
                                for var in names),
                          (fis.OUTPUT_VARIABLE, draw(st.sampled_from(fis.OUTPUT_TERMS)))))
    values = {var: draw(edge_unit if var in kept else st.floats())
              for var in fis.INPUT_VARIABLES}
    return RuleBase(variables, tuple(rules)), values


@example((parse_rulebase("term.x5.Left = pi(0.3, 0.1)\nterm.x6.Center = pi(0.45, 0.55)\n"
                         + fis.DEFAULT_RULES_TEXT),
          dict(zip(fis.INPUT_VARIABLES, [1.0 + 1e-9, 0.1 - 1e-9, 0.1, 1.0, 0.1, 0.55]))))
@example((RuleBase({var: v for var, v in fis.default_variables().items() if var in ("x5", "y1")},
                   (Rule((("x5", "Left"),), ("y1", "TurnLeft")),
                    Rule((("x5", "Right"),), ("y1", "TurnRight")))),
          {"x1": math.nan, "x2": math.inf, "x3": -5.0, "x4": 2.0, "x5": 0.3, "x6": 1e308}))
@example((parse_rulebase("IF x6 IS Left AND x5 IS Left AND x4 IS Small AND x3 IS Small "
                         "AND x2 IS Large AND x1 IS Large THEN y1 IS TurnLeft"),
          dict(zip(fis.INPUT_VARIABLES, [0.9, 0.8, 0.2, 0.3, 0.1 - 1e-9, 0.15]))))
@given(rule_bases_and_values())
def test_infer_equals_the_rule_by_rule_oracle(rb_and_values):
    """Firing strengths, output and no_fire equal the oracle's bit for bit, over rules of
    1-6 antecedents in any order, gaussian and pi term overrides and variable sets that
    lack some inputs, whose values infer then ignores."""
    rb, values = rb_and_values
    alphas = fire_rules(rb, values)
    expected = InferenceResult(tuple(alphas), defuzzify(alphas, rb), sum(alphas) == 0.0)
    assert repr(infer(rb, values)) == repr(expected)


def scaled_moves(rb, moves) -> dict:
    """Term parameters from (width scale, center fraction of the universe) per term."""
    params = {}
    for (var, term), (k, t) in moves.items():
        lo, hi = rb.variables[var].universe
        params[(var, term)] = (rb.variables[var].terms[term].width * k, lo + t * (hi - lo))
    return params


term_moves = st.dictionaries(st.sampled_from(list(term_parameters(default_rulebase()))),
                             st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 1.0)), max_size=5)


@given(term_moves, term_moves, st.lists(edge_unit, min_size=6, max_size=6))
def test_retuning_in_two_steps_equals_one_step_and_its_reparse(first, second, values):
    """with_term_parameters rebuilds only the terms it is given and shares the rest, yet
    builds the same rule base, inferring the same, as one full rebuild and a reparse."""
    rb = default_rulebase()
    first, second = scaled_moves(rb, first), scaled_moves(rb, second)
    moved = {**first, **second}
    once = with_term_parameters(rb, moved)
    twice = with_term_parameters(with_term_parameters(rb, first), second)
    reparsed = parse_rulebase(format_rulebase(once))
    assert once == twice == reparsed
    values = dict(zip(fis.INPUT_VARIABLES, values))
    assert repr(infer(once, values)) == repr(infer(twice, values)) == \
        repr(infer(reparsed, values))
    for var, v in rb.variables.items():
        assert (twice.variables[var] is v) == all(name != var for name, _ in moved)
        for term, mf in v.terms.items():
            assert (twice.variables[var].terms[term] is mf) == ((var, term) not in moved)


@given(st.lists(st.sampled_from(DEFAULT_RULES), unique=True),
       st.sets(st.sampled_from(fis.INPUT_VARIABLES)))
def test_a_missing_value_is_named_as_the_oracle_names_it(rules, supplied):
    rb = RuleBase(fis.default_variables(), tuple(rules))
    values = {var: 0.55 for var in supplied}
    try:
        fire_rules(rb, values)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            infer(rb, values)
    else:
        infer(rb, values)


class TestCompiledRuleBase:
    def test_equality_and_repr_ignore_the_compiled_form(self):
        rb = default_rulebase()
        other = default_rulebase()
        object.__setattr__(other, "_compiled", None)
        assert other == rb
        assert repr(other) == repr(rb) == (f"RuleBase(variables={rb.variables!r}, "
                                           f"rules={rb.rules!r})")

    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 1.0)), min_size=21,
                    max_size=21),
           st.lists(edge_unit, min_size=6, max_size=6))
    def test_a_retuned_base_infers_as_its_reparse(self, scales, values):
        """with_term_parameters builds a fresh compiled form, not a stale copy."""
        rb = default_rulebase()
        params = {}
        for ((var, term), (width, _)), (k, t) in zip(term_parameters(rb).items(), scales):
            lo, hi = rb.variables[var].universe
            params[(var, term)] = (width * k, lo + t * (hi - lo))
        retuned = with_term_parameters(rb, params)
        values = dict(zip(fis.INPUT_VARIABLES, values))
        assert repr(infer(retuned, values)) == repr(
            infer(parse_rulebase(format_rulebase(retuned)), values))


@pytest.mark.parametrize("universe", [(math.nan, 1.0), (0.1, math.nan), (-math.inf, math.inf),
                                      (-math.inf, 1.0), (0.1, math.inf), (1.0, 1.0), (1.0, 0.1)],
                         ids=["nan-lo", "nan-hi", "both-infinite", "lo-infinite",
                              "hi-infinite", "empty", "reversed"])
@pytest.mark.parametrize("terms", [{}, {"Mid": MembershipFunction("gaussian", 0.19, 0.55)}],
                         ids=["no-term", "one-term"])
def test_universe_must_be_a_finite_increasing_pair(universe, terms):
    lo, hi = universe
    with pytest.raises(ValueError, match=re.escape(f"variable x1 universe must have -inf < lo "
                                                   f"< hi < inf, got [{lo}, {hi}]")):
        LinguisticVariable("x1", universe, terms)

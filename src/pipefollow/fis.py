"""Fuzzy steering controller: linguistic variables, rule base, inference.

Inputs x1..x4 are quadrant coverages and x5/x6 the far/near line locations,
all on [0.1, 1.0].  The single output y1 is a steering set point on [0, 180]
degrees where 90 means "go straight", smaller turns left, larger turns right.

Rule conjunction is minimum; defuzzification is the weighted mean of the
consequent term centers by rule firing strength.  A rule base can be edited
as a small text DSL, one rule per line:

    IF x5 IS Left AND x6 IS Center THEN y1 IS TurnLeft

plus optional term parameter overrides:

    term.x5.Left = gaussian(0.19, 0.1)
    term.y1.TurnRight = pi(60.0, 150.0)

`#` starts a comment, blank lines are ignored, everything is case-sensitive.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

INPUT_VARIABLES = ("x1", "x2", "x3", "x4", "x5", "x6")
OUTPUT_VARIABLE = "y1"
INPUT_UNIVERSE = (0.1, 1.0)
OUTPUT_UNIVERSE = (0.0, 180.0)
NEUTRAL_STEER = 90.0

COVERAGE_TERMS = ("Small", "Medium", "Large")
LOCATION_TERMS = ("Left", "Center", "Right")
OUTPUT_TERMS = ("TurnLeft", "GoStraight", "TurnRight")


class RuleParseError(Exception):
    """DSL text could not be parsed; message carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def eval_gaussian(x: float, sigma: float, c: float) -> float:
    """exp(-(x-c)^2 / (2 sigma^2)); peak 1 at the center."""
    if sigma <= 0:
        raise ValueError(f"gaussian sigma must be > 0, got {sigma}")
    d = x - c
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def eval_s(x: float, a: float, b: float, c: float) -> float:
    """S-shaped ramp: 0 below a, 1 above c, quadratic blend between.

    The midpoint b is pinned to (a+c)/2, which makes the two quadratic
    branches meet continuously at 0.5.
    """
    if a >= c:
        raise ValueError(f"S-shape requires a < c, got a={a}, c={c}")
    if abs(b - (a + c) / 2.0) > 1e-9 * max(1.0, abs(c - a)):
        raise ValueError(f"S-shape midpoint must be (a+c)/2, got b={b}")
    if x <= a:
        return 0.0
    if x <= b:
        t = (x - a) / (c - a)
        return 2.0 * t * t
    if x <= c:
        t = (x - c) / (c - a)
        return 1.0 - 2.0 * t * t
    return 1.0


def eval_pi(x: float, b: float, c: float) -> float:
    """Pi-shaped bump with peak 1 at c and feet at c-b and c+b."""
    if b <= 0:
        raise ValueError(f"pi half-width must be > 0, got {b}")
    if x <= c:
        return eval_s(x, c - b, c - b / 2.0, c)
    return 1.0 - eval_s(x, c, c + b / 2.0, c + b)


@dataclass(frozen=True)
class MembershipFunction:
    kind: str       # "gaussian" | "pi"
    width: float    # sigma for gaussian, half-width for pi
    center: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "pi"):
            raise ValueError(f"unknown membership kind {self.kind!r}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"membership width must be finite and > 0, got {self.width}")
        if not math.isfinite(self.center):
            raise ValueError(f"membership center must be finite, got {self.center}")
        w, c = self.width, self.center   # too narrow a width divides by 0 or collapses the pi
        if self.kind == "gaussian" and not 2.0 * w * w > 0:
            raise ValueError(f"membership width {w} too small: 2*width*width underflows to 0")
        if self.kind == "pi" and not c - w < c - w / 2 < c < c + w / 2 < c + w:
            raise ValueError(f"membership width {w} too small: pi feet collapse onto center {c}")

    def __call__(self, x: float) -> float:
        if self.kind == "gaussian":
            return eval_gaussian(x, self.width, self.center)
        return eval_pi(x, self.width, self.center)


@dataclass(frozen=True)
class LinguisticVariable:
    name: str
    universe: tuple       # (lo, hi)
    terms: dict           # term name -> MembershipFunction

    def __post_init__(self):
        lo, hi = self.universe
        for term, mf in self.terms.items():
            if not lo <= mf.center <= hi:
                raise ValueError(f"term {self.name}.{term} center {mf.center} "
                                 f"outside universe [{lo}, {hi}]")


@dataclass(frozen=True)
class Rule:
    antecedents: tuple    # ((variable, term), ...), distinct variables
    consequent: tuple     # (variable, term)


@dataclass(frozen=True)
class InferenceResult:
    firing_strengths: tuple
    output: float         # steering set point, degrees
    no_fire: bool


def _check_rule(variables: dict, rule: Rule) -> None:
    """Raise ValueError unless the rule fits the variables.

    The antecedent must be non-empty and name distinct input variables, the
    consequent the output variable, and every term must be one of its
    variable's terms.
    """
    if not rule.antecedents:
        raise ValueError("empty antecedent")
    seen = set()
    for var, term in rule.antecedents:
        if var not in variables:
            raise ValueError(f"unknown variable {var}")
        if var == OUTPUT_VARIABLE:
            raise ValueError(f"{var} cannot appear in an antecedent")
        if term not in variables[var].terms:
            raise ValueError(f"unknown term {term} for variable {var}")
        if var in seen:
            raise ValueError(f"variable {var} used twice in one rule")
        seen.add(var)
    var, term = rule.consequent
    if var not in variables:
        raise ValueError(f"unknown variable {var}")
    if var != OUTPUT_VARIABLE:
        raise ValueError(f"{var} cannot appear in a consequent")
    if term not in variables[var].terms:
        raise ValueError(f"unknown term {term} for variable {var}")


@dataclass(frozen=True)
class RuleBase:
    """Linguistic variables and an ordered tuple of rules that fit them."""

    variables: dict       # variable name -> LinguisticVariable
    rules: tuple          # (Rule, ...)

    def __post_init__(self):
        for i, rule in enumerate(self.rules, start=1):
            try:
                _check_rule(self.variables, rule)
            except ValueError as exc:
                raise ValueError(f"rule {i}: {exc}") from None


def fire_rules(rb: RuleBase, values) -> list:
    """Per-rule firing strength: minimum of the antecedent memberships."""
    alphas = []
    for rule in rb.rules:
        alpha = 1.0
        for var, term in rule.antecedents:
            if var not in values:
                raise ValueError(f"no value supplied for variable {var}")
            alpha = min(alpha, rb.variables[var].terms[term](values[var]))
        alphas.append(alpha)
    return alphas


def defuzzify(alphas, rb: RuleBase) -> float:
    """Weighted mean of consequent term centers by firing strength.

    Returns the neutral set point 90 when nothing fires.  The exact mean lies
    in OUTPUT_UNIVERSE, so clamping to it removes only rounding, such as
    a * 180.0 / a > 180.
    """
    num = 0.0
    den = 0.0
    for alpha, rule in zip(alphas, rb.rules):
        var, term = rule.consequent
        num += alpha * rb.variables[var].terms[term].center
        den += alpha
    if den == 0.0:
        return NEUTRAL_STEER
    lo, hi = OUTPUT_UNIVERSE
    return min(max(num / den, lo), hi)


def infer(rb: RuleBase, values) -> InferenceResult:
    """Validate inputs against their universes, fire all rules and defuzzify."""
    for var in INPUT_VARIABLES:
        if var in rb.variables and var in values:
            lo, hi = rb.variables[var].universe
            v = values[var]
            if not (lo - 1e-9 <= v <= hi + 1e-9):   # false for nan too
                raise ValueError(f"{var}={v} outside universe [{lo}, {hi}]")
    alphas = fire_rules(rb, values)
    no_fire = sum(alphas) == 0.0
    return InferenceResult(tuple(alphas), defuzzify(alphas, rb), no_fire)


# --- default variables and rules -------------------------------------------

def default_variables() -> dict:
    """Three evenly spread terms per variable: gaussian inputs, pi output."""
    variables = {}
    for name in INPUT_VARIABLES:
        terms = COVERAGE_TERMS if name in ("x1", "x2", "x3", "x4") else LOCATION_TERMS
        variables[name] = LinguisticVariable(name, INPUT_UNIVERSE, {
            terms[0]: MembershipFunction("gaussian", 0.19, 0.1),
            terms[1]: MembershipFunction("gaussian", 0.19, 0.55),
            terms[2]: MembershipFunction("gaussian", 0.19, 1.0),
        })
    variables[OUTPUT_VARIABLE] = LinguisticVariable(OUTPUT_VARIABLE, OUTPUT_UNIVERSE, {
        "TurnLeft": MembershipFunction("pi", 60.0, 30.0),
        "GoStraight": MembershipFunction("pi", 60.0, 90.0),
        "TurnRight": MembershipFunction("pi", 60.0, 150.0),
    })
    return variables


# 13 rules, mirror-symmetric: 6 on the line locations, 6 on quadrant
# imbalance, one go-straight default.
DEFAULT_RULES_TEXT = """\
IF x5 IS Left AND x6 IS Left THEN y1 IS TurnLeft
IF x5 IS Right AND x6 IS Right THEN y1 IS TurnRight
IF x5 IS Left AND x6 IS Center THEN y1 IS TurnLeft
IF x5 IS Right AND x6 IS Center THEN y1 IS TurnRight
IF x5 IS Center AND x6 IS Left THEN y1 IS TurnLeft
IF x5 IS Center AND x6 IS Right THEN y1 IS TurnRight
IF x1 IS Large AND x2 IS Small THEN y1 IS TurnLeft
IF x2 IS Large AND x1 IS Small THEN y1 IS TurnRight
IF x3 IS Large AND x4 IS Small THEN y1 IS TurnLeft
IF x4 IS Large AND x3 IS Small THEN y1 IS TurnRight
IF x1 IS Large AND x4 IS Large AND x2 IS Small AND x3 IS Small THEN y1 IS TurnLeft
IF x2 IS Large AND x3 IS Large AND x1 IS Small AND x4 IS Small THEN y1 IS TurnRight
IF x5 IS Center AND x6 IS Center THEN y1 IS GoStraight
"""


def default_rulebase() -> RuleBase:
    return parse_rulebase(DEFAULT_RULES_TEXT)


# --- DSL parsing and printing -----------------------------------------------

_TERM_LINE = re.compile(r"^term\.([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)\s*=\s*(.+)$")
_TERM_VALUE = re.compile(r"^(gaussian|pi)\(\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)$")


def strip_comment(line: str) -> str:
    """The line without its '#' comment and surrounding whitespace."""
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _parse_rule_line(line_no: int, tokens, variables) -> Rule:
    if tokens[0] != "IF":
        raise RuleParseError(line_no, f"expected IF, got {tokens[0]!r}")
    try:
        then_pos = tokens.index("THEN")
    except ValueError:
        raise RuleParseError(line_no, "missing THEN") from None
    ante_tokens = tokens[1:then_pos]
    cons_tokens = tokens[then_pos + 1:]
    if ante_tokens and len(ante_tokens) % 4 != 3:   # _check_rule rejects an empty one
        raise RuleParseError(line_no, "malformed antecedent list")
    antecedents = []
    for i in range(0, len(ante_tokens), 4):
        var, kw, term = ante_tokens[i:i + 3]
        if kw != "IS":
            raise RuleParseError(line_no, f"expected IS after {var!r}")
        if i + 3 < len(ante_tokens) and ante_tokens[i + 3] != "AND":
            raise RuleParseError(line_no, f"expected AND, got {ante_tokens[i + 3]!r}")
        antecedents.append((var, term))
    if len(cons_tokens) != 3 or cons_tokens[1] != "IS":
        raise RuleParseError(line_no, "consequent must be '<var> IS <Term>'")
    rule = Rule(tuple(antecedents), (cons_tokens[0], cons_tokens[2]))
    try:
        _check_rule(variables, rule)
    except ValueError as exc:
        raise RuleParseError(line_no, str(exc)) from None
    return rule


def _parse_term_line(line_no: int, match, variables) -> None:
    var, term, value = match.groups()
    if var not in variables:
        raise RuleParseError(line_no, f"unknown variable {var}")
    if term not in variables[var].terms:
        raise RuleParseError(line_no, f"unknown term {term} for variable {var}")
    vm = _TERM_VALUE.match(value.strip())
    if not vm:
        raise RuleParseError(line_no, f"malformed term definition {value!r}")
    kind, width_s, center_s = vm.groups()
    try:
        width, center = float(width_s), float(center_s)
    except ValueError:
        raise RuleParseError(line_no, f"non-numeric term parameters {value!r}") from None
    old = variables[var]
    terms = dict(old.terms)
    try:
        terms[term] = MembershipFunction(kind, width, center)
        variables[var] = LinguisticVariable(old.name, old.universe, terms)
    except ValueError as exc:
        raise RuleParseError(line_no, str(exc)) from None


def parse_rulebase(text: str) -> RuleBase:
    """Parse DSL text into a RuleBase over the default variable set.

    `term.` lines override individual membership parameters and may appear
    anywhere; they apply to the whole rule base.
    """
    variables = default_variables()
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        term_match = _TERM_LINE.match(line)
        if term_match:
            _parse_term_line(line_no, term_match, variables)
            continue
        rules.append(_parse_rule_line(line_no, line.split(), variables))
    return RuleBase(variables, tuple(rules))


def format_rule(rule: Rule) -> str:
    ante = " AND ".join(f"{v} IS {t}" for v, t in rule.antecedents)
    cvar, cterm = rule.consequent
    return f"IF {ante} THEN {cvar} IS {cterm}"


def format_rulebase(rb: RuleBase) -> str:
    """Canonical DSL text: every term parameter line, then the rules in order.

    parse_rulebase(format_rulebase(rb)) reproduces rb exactly.
    """
    lines = []
    for var in (*INPUT_VARIABLES, OUTPUT_VARIABLE):
        for term, mf in rb.variables[var].terms.items():
            lines.append(f"term.{var}.{term} = {mf.kind}({mf.width!r}, {mf.center!r})")
    lines.append("")
    lines.extend(format_rule(rule) for rule in rb.rules)
    return "\n".join(lines) + "\n"


# --- term parameter views (used by the tuning harness) -----------------------

def term_parameters(rb: RuleBase) -> dict:
    """Flat view of all membership parameters: (var, term) -> (width, center)."""
    return {(var, term): (mf.width, mf.center)
            for var in (*INPUT_VARIABLES, OUTPUT_VARIABLE)
            for term, mf in rb.variables[var].terms.items()}


def with_term_parameters(rb: RuleBase, params: dict) -> RuleBase:
    """Copy of rb with membership widths/centers replaced from the flat view."""
    variables = {}
    for name, var in rb.variables.items():
        terms = {}
        for term, mf in var.terms.items():
            width, center = params.get((name, term), (mf.width, mf.center))
            terms[term] = MembershipFunction(mf.kind, width, center)
        variables[name] = LinguisticVariable(var.name, var.universe, terms)
    return RuleBase(variables, rb.rules)

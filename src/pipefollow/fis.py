"""Fuzzy steering controller: linguistic variables, rule base, inference.

Inputs x1..x4 are quadrant coverages and x5/x6 the far/near line locations,
all on [0.1, 1.0].  The single output y1 is a steering set point on [0, 180]
degrees where 90 means "go straight", smaller turns left, larger turns right.

Rule conjunction is minimum; defuzzification is the weighted mean of the
consequent term centers by rule firing strength.  A RuleBase is compiled
once when it is built, into the input variables' universe bounds, each
distinct antecedent term once with its evaluation constants, one
itemgetter per rule that picks that rule's grades, and the consequent
centers.  So inference grades each term once per call, however many rules
share it, and re-checks nothing the build already checked.
with_term_parameters rebuilds only the terms it moves.  A rule base can be
edited as a small text DSL, one rule per line:

    IF <var> IS <Term> [AND <var> IS <Term>]... THEN y1 IS <Term>
    IF x5 IS Left AND x6 IS Center THEN y1 IS TurnLeft

plus optional term parameter overrides:

    term.<var>.<Term> = gaussian(<sigma>, <center>) | pi(<half_width>, <center>)
    term.x5.Left = gaussian(0.19, 0.1)

read_lines reads this DSL and scenario files alike (`#` starts a comment,
blank lines are ignored, a key before `=` is set at most once) and
read_numbers their numbers, rejecting nan and inf.  Everything is
case-sensitive, and any other line is a parse error that names its line.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

INPUT_VARIABLES = ("x1", "x2", "x3", "x4", "x5", "x6")
OUTPUT_VARIABLE = "y1"
INPUT_UNIVERSE = (0.1, 1.0)
OUTPUT_UNIVERSE = (0.0, 180.0)
NEUTRAL_STEER = 90.0

COVERAGE_TERMS = ("Small", "Medium", "Large")
LOCATION_TERMS = ("Left", "Center", "Right")
OUTPUT_TERMS = ("TurnLeft", "GoStraight", "TurnRight")


class ParseError(ValueError):
    """A line of a rules or scenario file could not be parsed; the message names the line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _check_input(x: float) -> None:
    if not -math.inf < x < math.inf:   # false for nan too
        raise ValueError(f"membership input must be finite, got {x}")


def eval_gaussian(x: float, sigma: float, c: float) -> float:
    """exp(-(x-c)^2 / (2 sigma^2)); peak 1 at the center."""
    _check_input(x)
    den = 2.0 * sigma * sigma
    if not (sigma > 0 and den > 0):   # a tiny sigma underflows den to 0
        raise ValueError(f"gaussian sigma must be > 0 with 2*sigma*sigma > 0, got {sigma}")
    if not sigma < math.inf:
        raise ValueError(f"gaussian sigma must be finite, got {sigma}")
    if not -math.inf < c < math.inf:
        raise ValueError(f"gaussian center must be finite, got {c}")
    d = x - c
    return math.exp(-(d * d) / den)


def eval_s(x: float, a: float, b: float, c: float) -> float:
    """S-shaped ramp: 0 below a, 1 above c, quadratic blend between.

    The midpoint b is pinned to (a+c)/2, which makes the two quadratic
    branches meet continuously at 0.5.  c - a must be positive and finite.
    """
    _check_input(x)
    if not 0 < c - a < math.inf:
        raise ValueError(f"S-shape requires a < c with c - a finite, got a={a}, c={c}")
    if not abs(b - (a / 2.0 + c / 2.0)) <= 1e-9 * max(1.0, c - a, abs(a), abs(c)):
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
    """Pi-shaped bump with peak 1 at c and finite feet c-b < c-b/2 < c < c+b/2 < c+b."""
    _check_input(x)
    if not -math.inf < c - b < c - b / 2 < c < c + b / 2 < c + b < math.inf:
        raise ValueError(f"pi half-width must be > 0 with feet c-b < c-b/2 < c < c+b/2 < c+b, "
                         f"got b={b}, c={c}")
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
        if not 0 < self.width < math.inf:
            raise ValueError(f"membership width must be finite and > 0, got {self.width}")
        if not math.isfinite(self.center):
            raise ValueError(f"membership center must be finite, got {self.center}")
        self(self.center)   # the shape's evaluator rejects a width too narrow to evaluate

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
        if not -math.inf < lo < hi < math.inf:   # one chain: nan fails too
            raise ValueError(f"variable {self.name} universe must have -inf < lo < hi < inf, "
                             f"got [{lo}, {hi}]")
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


def _check_term(variables: dict, var: str, term: str) -> None:
    """Raise ValueError unless var is a variable and term one of its terms."""
    if var not in variables:
        raise ValueError(f"unknown variable {var}")
    if term not in variables[var].terms:
        raise ValueError(f"unknown term {term} for variable {var}")


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
        if var == OUTPUT_VARIABLE:
            raise ValueError(f"{var} cannot appear in an antecedent")
        _check_term(variables, var, term)
        if var in seen:
            raise ValueError(f"variable {var} used twice in one rule")
        seen.add(var)
    var, term = rule.consequent
    if var in variables and var != OUTPUT_VARIABLE:
        raise ValueError(f"{var} cannot appear in a consequent")
    _check_term(variables, var, term)


def _compile(variables: dict, rules: tuple) -> tuple:
    """(bounds, terms, strengths, centers): the rules laid out for inference.

    bounds holds (variable, lo, hi) for each input variable present, its
    universe widened by the 1e-9 slack infer accepts.  terms holds each
    distinct antecedent pair once, in first-use order over the rules, as
    (variable, width, center, den), den being the gaussian's -2*sigma*sigma
    or None for a pi term.  strengths holds per rule an itemgetter of its
    grades, by index into terms, whose minimum is the rule's firing strength
    (a one-antecedent rule's gets its grade twice, so that it too returns a
    tuple).  centers holds each rule's consequent center.
    """
    index = {}
    for rule in rules:
        for pair in rule.antecedents:
            index.setdefault(pair, len(index))
    terms = []
    for var, term in index:
        mf = variables[var].terms[term]
        den = -2.0 * mf.width * mf.width if mf.kind == "gaussian" else None
        terms.append((var, mf.width, mf.center, den))
    bounds = []
    for var in INPUT_VARIABLES:
        if var in variables:
            lo, hi = variables[var].universe
            bounds.append((var, lo - 1e-9, hi + 1e-9))
    strengths = []
    for rule in rules:
        ids = [index[pair] for pair in rule.antecedents]
        strengths.append(operator.itemgetter(*(ids * 2 if len(ids) == 1 else ids)))
    centers = tuple(variables[var].terms[term].center for var, term in
                    (rule.consequent for rule in rules))
    return tuple(bounds), tuple(terms), tuple(strengths), centers


@dataclass(frozen=True)
class RuleBase:
    """Linguistic variables and an ordered tuple of rules that fit them.

    Both are compiled for inference once, when the rule base is built, so
    they must not be mutated afterwards.  The compiled form takes no part in
    equality or repr.
    """

    variables: dict       # variable name -> LinguisticVariable
    rules: tuple          # (Rule, ...)
    _compiled: tuple = field(init=False, repr=False, compare=False)   # see _compile

    def __post_init__(self):
        for i, rule in enumerate(self.rules, start=1):
            try:
                _check_rule(self.variables, rule)
            except ValueError as exc:
                raise ValueError(f"rule {i}: {exc}") from None
        # built here, not on first use, so threads that share the rule base never race
        object.__setattr__(self, "_compiled", _compile(self.variables, self.rules))


def _weighted_mean(alphas, centers) -> tuple:
    """(num, den, mean): the strength-weighted sum of the centers, the strengths' sum
    and their ratio clamped to OUTPUT_UNIVERSE, or NEUTRAL_STEER when den is 0."""
    num = 0.0
    den = 0.0
    for alpha, center in zip(alphas, centers):
        num += alpha * center
        den += alpha
    if den == 0.0:
        return num, den, NEUTRAL_STEER
    lo, hi = OUTPUT_UNIVERSE
    return num, den, min(max(num / den, lo), hi)


def defuzzify(alphas, rb: RuleBase) -> float:
    """Weighted mean of consequent term centers by firing strength.

    Returns the neutral set point 90 when nothing fires.  Raises ValueError
    for a negative or non-finite strength, or when the strengths' sum or
    their weighted sum of centers overflows, so the exact mean lies in
    OUTPUT_UNIVERSE and clamping to it removes only rounding, such as
    a * 180.0 / a > 180.
    """
    alphas = tuple(alphas)   # read twice below, so an iterator is checked too
    *_, centers = rb._compiled
    num, den, mean = _weighted_mean(alphas, centers)
    if not (min(alphas, default=0.0) >= 0.0 and den < math.inf and -math.inf < num < math.inf):
        bad = next((a for a in alphas if not 0.0 <= a < math.inf), None)   # nan too
        if bad is not None:
            raise ValueError(f"firing strength must be finite and >= 0, got {bad}")
        raise ValueError("firing strengths sum to inf" if den == math.inf
                         else "weighted sum of the consequent centers overflows")
    return mean


def infer(rb: RuleBase, values) -> InferenceResult:
    """Validate inputs against their universes, fire all rules and defuzzify.

    A rule's firing strength is the minimum of its antecedent memberships;
    each distinct antecedent term is graded once.  The strengths lie in
    [0, 1], so their weighted mean skips defuzzify's checks.
    """
    bounds, terms, strengths, centers = rb._compiled
    for var, lo, hi in bounds:
        if var in values and not lo <= values[var] <= hi:   # false for nan too
            lo, hi = rb.variables[var].universe
            raise ValueError(f"{var}={values[var]} outside universe [{lo}, {hi}]")
    grades = []
    for var, width, center, den in terms:
        try:
            x = values[var]
        except KeyError:
            raise ValueError(f"no value supplied for variable {var}") from None
        if den is None:
            grades.append(eval_pi(x, width, center))
        else:   # eval_gaussian's arithmetic, its checks made when the term was built
            d = x - center
            grades.append(math.exp(d * d / den))
    alphas = tuple([min(get(grades)) for get in strengths])
    _, den, mean = _weighted_mean(alphas, centers)
    return InferenceResult(alphas, mean, den == 0.0)


# --- default variables and rules -------------------------------------------

def default_variables() -> dict:
    """Three evenly spread terms per variable: gaussian inputs, pi output."""
    variables = {}
    for name in INPUT_VARIABLES:
        terms = COVERAGE_TERMS if name in ("x1", "x2", "x3", "x4") else LOCATION_TERMS
        variables[name] = LinguisticVariable(name, INPUT_UNIVERSE, {
            term: MembershipFunction("gaussian", 0.19, center)
            for term, center in zip(terms, (0.1, 0.55, 1.0))})
    variables[OUTPUT_VARIABLE] = LinguisticVariable(OUTPUT_VARIABLE, OUTPUT_UNIVERSE, {
        term: MembershipFunction("pi", 60.0, center)
        for term, center in zip(OUTPUT_TERMS, (30.0, 90.0, 150.0))})
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

# a value that is not gaussian(...) or pi(...) leaves the kind group empty
_TERM_LINE = re.compile(r"term\.([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)\s*=\s*"
                        r"((gaussian|pi)\(\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)|.+)")
_RULE_LINE = re.compile(r"IF((?: \S+ IS \S+(?: AND \S+ IS \S+)*)?) THEN (\S+) IS (\S+)")


def read_lines(text: str, parse_line) -> dict:
    """Call parse_line on each line of text, cut at its first '#' and stripped, unless blank.

    A line holding '=' has a key, the stripped text before the first '='.  A
    key an earlier line set is an error, and a ValueError is raised again as
    a ParseError naming the line.  Returns each key's line number.
    """
    key_lines = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        key = line.partition("=")[0].strip() if "=" in line else None
        try:
            if key in key_lines:
                raise ValueError(f"duplicate key {key!r} (first set on line {key_lines[key]})")
            parse_line(line)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if key is not None:
            key_lines[key] = line_no
    return key_lines


def read_numbers(texts, kinds, what: str) -> list:
    """Each text read by its kind (int or float); raises ValueError "non-numeric <what>"
    unless all read, then "non-finite <what>" for a nan or infinite float."""
    try:
        values = [kind(text) for kind, text in zip(kinds, texts)]
    except ValueError:
        raise ValueError(f"non-numeric {what}") from None
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ValueError(f"non-finite {what}")
    return values


def _parse_rule_line(line: str, variables) -> Rule:
    """The checked Rule a rule line states; raises ValueError."""
    m = _RULE_LINE.fullmatch(" ".join(line.split()))
    if not m:
        raise ValueError("expected a rule 'IF <var> IS <Term> [AND <var> IS <Term>]... "
                         "THEN y1 IS <Term>'")
    words = m[1].split()   # <var> IS <Term> [AND <var> IS <Term>]..., as the match checked
    rule = Rule(tuple(zip(words[0::4], words[2::4])), (m[2], m[3]))
    _check_rule(variables, rule)
    return rule


def _parse_term_line(line: str, variables) -> None:
    """Apply the override a `term.` line states; raises ValueError."""
    m = _TERM_LINE.fullmatch(line)
    if m:
        _check_term(variables, m[1], m[2])   # names are reported before the value
    if not (m and m[4]):
        raise ValueError("malformed term definition, expected "
                         "'term.<var>.<Term> = gaussian|pi(<width>, <center>)'")
    var, term, value, kind, *numbers = m.groups()
    width, center = read_numbers(numbers, (float, float), f"term parameters {value!r}")
    old = variables[var]
    terms = {**old.terms, term: MembershipFunction(kind, width, center)}
    variables[var] = LinguisticVariable(old.name, old.universe, terms)


def parse_rulebase(text: str) -> RuleBase:
    """Parse DSL text into a RuleBase over the default variable set.

    `term.` lines override individual membership parameters, each term at
    most once, and may appear anywhere; they apply to the whole rule base.
    """
    variables = default_variables()
    rules = []

    def parse_line(line):
        if line.startswith("term."):
            _parse_term_line(line, variables)
        else:
            rules.append(_parse_rule_line(line, variables))

    read_lines(text, parse_line)
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
    """Copy of rb with membership widths/centers replaced from the flat view.

    Only the terms params names, and their variables, are rebuilt; every
    other term and variable object is rb's own.  Keys that name no term of
    rb are ignored.
    """
    variables = dict(rb.variables)
    for name, var in rb.variables.items():
        moved = {}
        for term, mf in var.terms.items():
            if (name, term) in params:
                width, center = params[(name, term)]
                moved[term] = MembershipFunction(mf.kind, width, center)
        if moved:
            variables[name] = LinguisticVariable(var.name, var.universe, {**var.terms, **moved})
    return RuleBase(variables, rb.rules)

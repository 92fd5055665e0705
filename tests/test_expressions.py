"""Tests for the expression language.

``_tokenize``, ``_Parser`` and ``reference_parse`` are the recursive-descent
parser ``parse_expression`` used before it checked Python's own syntax tree,
kept verbatim as the reference: both must accept the same texts and compile
them to the same code.
"""

import math
import re
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptc_lab.errors import ScenarioError
from ptc_lab.expressions import _FUNCTIONS, _TOKEN_RE, parse_expression


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ScenarioError(
                f"unexpected character {text[pos:].lstrip()[0]!r} at position "
                f"{pos} in expression {text!r}"
            )
        pos = m.end()
        kind = m.lastgroup or ""
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(
        self, text: str, n_states: int, allow_u: bool, allow_state: bool
    ) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.n_states = n_states
        self.allow_u = allow_u
        self.allow_state = allow_state
        self.used: set[str] = set()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def fail(self, message: str, position: int) -> ScenarioError:
        return ScenarioError(
            f"{message} at position {position} in expression {self.text!r}"
        )

    def expect_op(self, op: str) -> None:
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise self.fail(f"expected {op!r}", position)
        self.advance()

    def parse(self) -> str:
        code = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise self.fail(f"unexpected trailing {value!r}", position)
        return code

    def chain(self, operand: Callable[[], str], ops: str) -> str:
        """A left-associative chain ``a op b op c`` in one pair of
        parentheses; Python groups it as ``(a op b) op c``."""
        parts = [operand()]
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return parts[0] if len(parts) == 1 else f"({' '.join(parts)})"
            self.advance()
            parts += (value, operand())

    def expr(self) -> str:
        return self.chain(self.term, "+-")

    def term(self) -> str:
        return self.chain(self.factor, "*/")

    def factor(self) -> str:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.factor()
            return inner if value == "+" else f"(- {inner})"
        return self.primary()

    def primary(self) -> str:
        kind, value, position = self.advance()
        if kind == "number":
            number = float(value)
            if not math.isfinite(number):
                raise self.fail(f"number {value!r} is out of float range", position)
            return repr(number)
        if kind == "op" and value == "(":
            code = self.expr()
            self.expect_op(")")
            return code
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect_op("(")
                code = self.expr()
                self.expect_op(")")
                return f"_fn_{value}({code})"
            return self.variable(value, position)
        raise self.fail(f"expected a value, got {value!r}" if value else "unexpected end", position)

    def variable(self, name: str, position: int) -> str:
        if name == "t":
            self.used.add("t")
            return "t"
        if name == "u":
            if not self.allow_u:
                raise self.fail("variable 'u' is not allowed here", position)
            self.used.add("u")
            return "u"
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            if not self.allow_state:
                raise self.fail(
                    f"state variable {name!r} is not allowed here", position
                )
            index = int(m.group(1))
            if not 1 <= index <= self.n_states:
                raise self.fail(
                    f"state index {name!r} out of range 1..{self.n_states}", position
                )
            self.used.add(name)
            return f"x[{index - 1}]"
        raise self.fail(f"unknown name {name!r}", position)


def reference_parse(text, n_states, allow_u=True, allow_state=True):
    """The old ``parse_expression`` body; returns ``(func, variables)``."""
    parser = _Parser(text, n_states, allow_u, allow_state)
    namespace = {f"_fn_{name}": fn for name, fn in _FUNCTIONS.items()}
    try:
        code = parser.parse()
        func = eval(  # noqa: S307 - source is generated from validated tokens only
            compile(f"lambda x, u, t: {code}", "<expression>", "eval"), namespace
        )
    except (RecursionError, SyntaxError):
        # The recursive-descent parser and Python's compiler both have
        # depth limits; valid tokens compile to valid source otherwise.
        raise ScenarioError(
            f"expression of {len(text)} characters is nested too deeply or "
            "too long to compile"
        ) from None
    return func, frozenset(parser.used)


def test_trigonometric_drift_expression():
    expr = parse_expression(
        "50*cos(u) + cos(t)*x1 + exp(sin(x1))*x2", n_states=2
    )
    for x1, x2, u, t in [(10.0, 10.0, -310.8, 0.0), (1.0, -2.0, 3.0, 4.5), (0.0, 0.0, 0.0, 0.0)]:
        expected = 50.0 * math.cos(u) + math.cos(t) * x1 + math.exp(math.sin(x1)) * x2
        assert expr((x1, x2), u, t) == pytest.approx(expected, rel=1e-15)
    assert expr.variables == frozenset({"x1", "x2", "u", "t"})


def test_operator_precedence():
    five = (0.0,) * 5
    assert parse_expression("1 + 2*3", 5)(five, 0.0, 0.0) == 7.0
    assert parse_expression("(1 + 2)*3", 5)(five, 0.0, 0.0) == 9.0
    assert parse_expression("2 - 3 - 4", 5)(five, 0.0, 0.0) == -5.0
    assert parse_expression("12/4/3", 5)(five, 0.0, 0.0) == 1.0
    assert parse_expression("-x1*x1", 5)((2.0, 0.0, 0.0, 0.0, 0.0), 0.0, 0.0) == -4.0
    assert parse_expression("2*-3", 5)(five, 0.0, 0.0) == -6.0


def test_nested_function_calls():
    expr = parse_expression("exp(sin(x1))", 1)
    assert expr((0.5,), 0.0, 0.0) == pytest.approx(math.exp(math.sin(0.5)), rel=1e-15)
    expr = parse_expression("abs(-x1)", 1)
    assert expr((3.0,), 0.0, 0.0) == 3.0


def test_numeric_literal_forms():
    zero = (0.0,)
    assert parse_expression("1e-3", 1)(zero, 0.0, 0.0) == 1e-3
    assert parse_expression(".5", 1)(zero, 0.0, 0.0) == 0.5
    assert parse_expression("2.", 1)(zero, 0.0, 0.0) == 2.0
    assert parse_expression("1.25E2", 1)(zero, 0.0, 0.0) == 125.0


def test_unknown_function_rejected():
    with pytest.raises(ScenarioError):
        parse_expression("tan(x1)", 1)


def test_unknown_name_rejected():
    with pytest.raises(ScenarioError):
        parse_expression("y + 1", 1)


def test_state_index_out_of_range():
    with pytest.raises(ScenarioError):
        parse_expression("x3", 2)


def test_input_variable_gated():
    assert parse_expression("u", 1, allow_u=True)((0.0,), 7.0, 0.0) == 7.0
    with pytest.raises(ScenarioError):
        parse_expression("u", 1, allow_u=False)


def test_state_variables_gated():
    # Gain expressions may only depend on time.
    expr = parse_expression("1 + sin(t)", 1, allow_u=False, allow_state=False)
    assert expr((0.0,), 0.0, 0.5) == pytest.approx(1.0 + math.sin(0.5))
    with pytest.raises(ScenarioError):
        parse_expression("x1", 1, allow_u=False, allow_state=False)


def test_malformed_syntax_rejected():
    for text in ("1 2", "(1 + 2", "1 +", "", "  ", "1 ** 2", "sin()", "sin(1, 2)"):
        with pytest.raises(ScenarioError):
            parse_expression(text, 2)


def test_division_by_zero_surfaces_at_evaluation():
    expr = parse_expression("1/x1", 1)
    with pytest.raises(ZeroDivisionError):
        expr((0.0,), 0.0, 0.0)


def _outcome(parse, text, n_states, allow_u, allow_state):
    """None when ``parse`` refuses ``text``, else what must match exactly."""
    try:
        parsed = parse(text, n_states, allow_u, allow_state)
    except ScenarioError:
        return None
    func, variables = (
        parsed if isinstance(parsed, tuple) else (parsed.func, parsed.variables)
    )
    code = func.__code__
    return code.co_code, repr(code.co_consts), code.co_names, variables


_LEAVES = ("x1", "x2", "t", "u", "0", "01", "2.", ".5", "1e-3", "1E+2", "3.25", "5e-324")
# Tokens and fragments the grammar never produces, mixed in by mutation.
_ODD = (
    "x01", "x0", "x3", "True", "None", "tan", "_fn_sin", "1e999", "sin", "**", "//",
    "sin(*x1)", "(1)(2)", "x1**2", "x1//x2", "sin + 1", "(sin)(1)", "sin()", "()",
    "[", ",", "=", ".", "+", "-", "*", "/", "(", ")", " ", "",
)


def _grammar_text(rnd, depth):
    """A random text of the grammar, with random spacing."""
    space = rnd.choice(["", " "])
    pick = rnd.random() if depth > 0 else 0.0
    if pick < 0.3:
        return rnd.choice(_LEAVES)
    if pick < 0.55:
        left, right = _grammar_text(rnd, depth - 1), _grammar_text(rnd, depth - 1)
        return left + space + rnd.choice("+-*/") + space + right
    if pick < 0.7:
        return rnd.choice("-+") + space + _grammar_text(rnd, depth - 1)
    if pick < 0.85:
        return f"{rnd.choice(sorted(_FUNCTIONS))}{space}({_grammar_text(rnd, depth - 1)})"
    return f"({space}{_grammar_text(rnd, depth - 1)})"


@st.composite
def _texts(draw: Callable) -> str:
    """Grammar text, in three draws of five mutated with ``_ODD`` fragments.

    Drawn through a seeded ``random.Random``, because hypothesis's own
    recursive strategies cost about 10 ms an example.
    """
    rnd = draw(st.randoms(use_true_random=False))
    text = _grammar_text(rnd, rnd.randint(0, 5))
    for _ in range(rnd.choice([0, 0, 1, 2, 3])):
        at = rnd.randint(0, len(text))
        text = text[:at] + rnd.choice(_ODD) + text[at + rnd.randint(0, 2) :]
    return text


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    text=_texts(),
    n_states=st.integers(1, 3),
    allow_u=st.booleans(),
    allow_state=st.booleans(),
)
@example(text="01*x01 + x1", n_states=2, allow_u=True, allow_state=True)
@example(text="x0", n_states=2, allow_u=True, allow_state=True)
@example(text="True", n_states=2, allow_u=True, allow_state=True)
@example(text="sin(*x1)", n_states=2, allow_u=True, allow_state=True)
@example(text="(1)(2)", n_states=2, allow_u=True, allow_state=True)
@example(text="(sin)(1)", n_states=2, allow_u=True, allow_state=True)
@example(text="x1**2", n_states=2, allow_u=True, allow_state=True)
@example(text="x1//x2", n_states=2, allow_u=True, allow_state=True)
@example(text="sin + 1", n_states=2, allow_u=True, allow_state=True)
@example(text="1e999", n_states=2, allow_u=True, allow_state=True)
@example(text="2*+-+3 - +x2", n_states=2, allow_u=True, allow_state=True)
@example(text="t u", n_states=2, allow_u=True, allow_state=True)
@example(text="t 2", n_states=2, allow_u=True, allow_state=True)
def test_parse_matches_reference_parser(text, n_states, allow_u, allow_state):
    args = (text, n_states, allow_u, allow_state)
    assert _outcome(parse_expression, *args) == _outcome(reference_parse, *args)


@pytest.mark.parametrize("op", ["+", "*"])
def test_long_chains_compile(op):
    text = op.join(f"x{i % 3 + 1}" for i in range(2000))
    expected = _outcome(reference_parse, text, 3, True, True)
    assert expected is not None
    assert _outcome(parse_expression, text, 3, True, True) == expected

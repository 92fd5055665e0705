"""Small arithmetic language for user-supplied plant functions.

Scenario files describe the disturbance ``f(x, u, t)`` and the input gain
``g(t)`` as text. The grammar is deliberately tiny:

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = [ "-" | "+" ] factor | primary ;
    primary = NUMBER | variable | function "(" expr ")" | "(" expr ")" ;
    function = "sin" | "cos" | "exp" | "abs" ;
    variable = "x1" .. "xN" | "u" | "t" ;

Numbers are decimal with optional exponent. Numbers beyond the float
range, expressions nested too deeply or too long for Python to compile,
unknown names, out-of-range state indices, and uses of ``u`` where it is
not allowed are rejected at parse time, not at evaluation time, so a typo
in a scenario fails before any simulation starts. Parsed expressions are
compiled once to a plain Python function and are safe to call from
multiple threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ScenarioError

__all__ = ["ParsedExpression", "parse_expression"]

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)


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


@dataclass(frozen=True)
class ParsedExpression:
    """A compiled expression; call with ``(x, u, t)`` to evaluate.

    ``func`` is the compiled function itself, for hot loops that cannot
    afford the extra call through ``__call__``.
    """

    text: str
    variables: frozenset[str]
    func: Callable[[Sequence[float], float, float], float]

    def __call__(self, x: Sequence[float], u: float, t: float) -> float:
        return self.func(x, u, t)


def parse_expression(
    text: str, n_states: int, allow_u: bool = True, allow_state: bool = True
) -> ParsedExpression:
    """Parse and compile one expression.

    Parameters
    ----------
    text : str
        Source in the grammar above.
    n_states : int
        Number of available state variables ``x1 .. xN``.
    allow_u, allow_state : bool
        Which variables may appear besides ``t``. The input-gain
        expression ``g(t)`` must depend on time only, so it is parsed with
        both flags false.

    Raises
    ------
    ScenarioError
        On any syntax error, unknown name, out-of-range state index or
        number, or an expression nested too deeply or too long to compile.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ScenarioError("expression must be a nonempty string")
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
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
    return ParsedExpression(
        text=text, variables=frozenset(parser.used), func=func
    )

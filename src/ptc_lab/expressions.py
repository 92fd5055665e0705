"""Small arithmetic language for user-supplied plant functions.

Scenario files describe the disturbance ``f(x, u, t)`` and the input gain
``g(t)`` as text. The grammar is deliberately tiny:

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = [ "-" | "+" ] factor | primary ;
    primary = NUMBER | variable | function "(" expr ")" | "(" expr ")" ;
    function = "sin" | "cos" | "exp" | "abs" ;
    variable = "x1" .. "xN" | "u" | "t" ;

Numbers are decimal with optional exponent. Each token becomes Python
source (a number the ``repr`` of its float, ``x3`` ``x[2]``, ``sin``
``_fn_sin``, a unary ``+`` nothing), joined with spaces so that ``* *``
never fuses into ``**``. Python parses it, and a loop over ``ast.walk``
refuses every node the grammar cannot produce. Numbers beyond the float
range, unknown names, out-of-range state indices, variables where they
are not allowed, and nesting Python cannot compile (200 open parentheses,
or about 3,000 operators in a row) fail at parse time, not at evaluation
time. Parsed expressions are compiled once to a plain Python function
and are safe to call from multiple threads. The same checked tree also
gives the function's postfix program (``native.Program``), in Python's
order of evaluation, which the compiled loop of ``sim.run`` interprets.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable, Iterator, Sequence

from . import native
from .errors import ScenarioError

__all__ = ["parse_expression"]

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


def _fail(text: str, message: str, position: int) -> ScenarioError:
    return ScenarioError(f"{message} at position {position} in expression {text!r}")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                return
            raise _fail(text, f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        pos = m.end()
        kind = m.lastgroup or ""
        yield kind, m.group(kind), m.start(kind)


def _to_source(text: str, n_states: int, allow_u: bool, allow_state: bool) -> str:
    """Python source for the tokens of ``text``."""
    pieces: list[str] = []
    previous = "("
    for kind, value, position in _tokenize(text):
        if kind == "number":
            number = float(value)
            if not math.isfinite(number):
                raise _fail(text, f"number {value!r} is out of float range", position)
            pieces.append(repr(number))
        elif kind == "op":
            # A "+" that is first or follows an operator other than ")" is unary.
            if value != "+" or previous not in ("+", "-", "*", "/", "("):
                pieces.append(value)
        elif value in _FUNCTIONS:
            pieces.append(f"_fn_{value}")
        else:
            m = re.fullmatch(r"x(\d+)", value)
            index = int(m.group(1)) if m else 0
            if (value == "u" and not allow_u) or (m and not allow_state):
                raise _fail(text, f"variable {value!r} is not allowed here", position)
            if m and not 1 <= index <= n_states:
                message = f"state index {value!r} out of range 1..{n_states}"
                raise _fail(text, message, position)
            if not m and value not in ("t", "u"):
                raise _fail(text, f"unknown name {value!r}", position)
            pieces.append(f"x[{index - 1}]" if m else value)
        previous = value
    return " ".join(pieces)


def _in_grammar(tree: ast.Expression) -> bool:
    """Whether the grammar can produce every node of ``tree``; not recursive."""
    vetted: set[ast.AST] = set()  # call targets and state indices
    for node in ast.walk(tree.body):
        if node in vetted or not isinstance(node, ast.expr):
            continue  # operators and contexts are judged with their parent
        if isinstance(node, ast.Call):
            vetted.add(node.func)
            # Equal offsets: the name is not parenthesized, as in "(sin)(1)".
            # A starred argument is refused as a node of its own.
            ok = isinstance(node.func, ast.Name) and node.func.id.startswith("_fn_")
            ok = ok and node.func.col_offset == node.col_offset
            ok = ok and len(node.args) == 1 and not node.keywords
        elif isinstance(node, ast.Subscript):
            vetted.add(node.slice)
            ok = True
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            ok = isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub))
        elif isinstance(node, ast.Name):
            ok = not node.id.startswith("_fn_")
        else:
            ok = isinstance(node, ast.Constant) and type(node.value) is float
        if not ok:
            return False
    return True


_OPCODES = {
    ast.Add: native.ADD,
    ast.Sub: native.SUB,
    ast.Mult: native.MUL,
    ast.Div: native.DIV,
    ast.USub: native.NEG,
    "_fn_sin": native.SIN,
    "_fn_cos": native.COS,
    "_fn_exp": native.EXP,
    "_fn_abs": native.ABS,
}


def _program(tree: ast.Expression) -> native.Program:
    """The postfix program of a tree ``_in_grammar`` accepts; not recursive,
    because a chain of 3,000 operators nests as deep."""
    ops: list[tuple[int, float]] = []
    pending: list[tuple[ast.expr, bool]] = [(tree.body, False)]
    while pending:
        node, ready = pending.pop()
        if isinstance(node, ast.Constant):
            ops.append((native.CONST, node.value))
        elif isinstance(node, ast.Subscript):  # x[k]
            ops.append((native.X, node.slice.value))
        elif isinstance(node, ast.Name):
            ops.append(({"u": native.U, "t": native.T}[node.id], 0))
        elif ready:
            key = node.func.id if isinstance(node, ast.Call) else type(node.op)
            ops.append((_OPCODES[key], 0))
        else:
            pending.append((node, True))
            if isinstance(node, ast.BinOp):
                pending += ((node.right, False), (node.left, False))
            elif isinstance(node, ast.UnaryOp):
                pending.append((node.operand, False))
            else:
                pending.append((node.args[0], False))
    return native.program(ops)


def parse_expression(
    text: str, n_states: int, allow_u: bool = True, allow_state: bool = True
) -> Callable[[Sequence[float], float, float], float]:
    """Parse and compile one expression to a plain ``f(x, u, t)`` function.

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
    source = _to_source(text, n_states, allow_u, allow_state)
    namespace = {f"_fn_{name}": fn for name, fn in _FUNCTIONS.items()}
    try:
        tree = ast.parse(source, mode="eval")
        if not _in_grammar(tree):
            raise ScenarioError(f"invalid syntax in expression {text!r}")
        func = eval(  # noqa: S307 - source is generated from validated tokens only
            compile(f"lambda x, u, t: {source}", "<expression>", "eval"), namespace
        )
    except SyntaxError as error:
        raise ScenarioError(f"{error.msg} in expression {text!r}") from None
    except (RecursionError, MemoryError):  # 3.11's parser: MemoryError if deep
        message = "is nested too deeply or too long to compile"
        raise ScenarioError(f"expression of {len(text)} characters {message}") from None
    native.register(func, _program(tree))
    return func

"""A small expression language for defining finitary gambles.

Grammar (EBNF, left-associative operators)::

    expression  = term { ("+" | "-") term } ;
    term        = factor { "*" factor } ;
    factor      = number
                | "ind" "(" bool ")"
                | ("min" | "max") "(" expression "," expression ")"
                | "sum" "(" ident "=" int ".." int "," expression ")"
                | "(" expression ")" ;
    bool        = bool_and { "||" bool_and } ;
    bool_and    = bool_not { "&&" bool_not } ;
    bool_not    = "!" bool_not | bool_atom ;
    bool_atom   = "X" "[" index "]" "==" label | "(" bool ")" ;
    index       = int | ident ;            (* ident must be a bound sum variable *)

State indices are 1-based: ``X[1]`` is the first state of the path.  The
depth of an expression is the largest index it can reference (sum variables
count with the upper end of their range), so compiled gambles are exactly
n-measurable for that n.

Example: ``sum(i=1..3, ind(X[i]==H))`` counts heads among the first three
states of a coin process.

The syntax tree has seven node kinds: :class:`Num`, :class:`BinOp`,
:class:`Ind` and :class:`SumOver` for payoffs, :class:`StateIs`,
:class:`BoolOp` and :class:`BoolNot` for conditions.  A binary node keeps
its operator's source text, a key of :data:`ARITHMETIC` (``+ - * min max``)
or of :data:`LOGIC` (``&& ||``), which map it to the NumPy ufunc the
compiler applies; unary minus is ``0 - x``.

An expression nests at most :data:`MAX_NESTING` levels deep, which the
parser checks before it recurses any further; the tokenizer hands it one
token at a time, so a source fails having read only the tokens up to the
failure.  The parser, the compiler and
:func:`unparse` recurse once or a few times per level, and each raises
Python's recursion limit by what that many levels take while it runs.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import ExprError, ResourceLimitError
from .gambles import DEFAULT_TABLE_CAP, MAX_TABLE_DEPTH, FinitaryGamble
from .local import StateSpace

#: At most this many parentheses, function calls, ``!`` and unary minus
#: open around any token, and at most this many operators on any path down
#: the syntax tree: a chain ``1+1+...+1`` of n terms is n - 1 levels deep.
#: It is Python's default recursion limit, so an expression that a parser
#: and evaluator of one frame per level could run under that limit passes.
MAX_NESTING = 1000

#: The most Python frames a level takes: a parenthesized condition passes
#: through bool_atom, nested, bool_or, chain, bool_and, chain and bool_not.
_FRAMES_PER_LEVEL = 7

#: The arithmetic operators by their source text, each with the ufunc that
#: applies it to payoffs.  ``min`` and ``max`` are written as calls.
ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "min": np.minimum, "max": np.maximum}
_CALLS = ("min", "max")

#: The logic operators by their source text, each with the ufunc that
#: applies it to masks.
LOGIC = {"&&": np.bitwise_and, "||": np.bitwise_or}


@contextmanager
def _room_for_nesting():
    """Python's recursion limit raised by what :data:`MAX_NESTING` levels
    take, for the duration."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _FRAMES_PER_LEVEL * MAX_NESTING + 50)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\.\.|==|&&|\|\||[-+*=(),!\[\]])
  | (?P<ws>[ \t]+)
  | (?P<newline>\n)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    line: int
    column: int


def _tokenize(source: str) -> Iterator[Token]:
    """The tokens of ``source``, read as the parser asks for them, then an
    end token."""
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "ws":
            col += len(text)
            continue
        if kind == "newline":
            line += 1
            col = 1
            continue
        if kind == "bad":
            raise ExprError(f"unexpected character {text!r}", line, col)
        yield Token(kind, text, line, col)
        col += len(text)
    yield Token("end", "", line, col)


# --- abstract syntax ---------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class BinOp:
    op: str  # a key of ARITHMETIC
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Ind:
    condition: "BoolExpr"


@dataclass(frozen=True)
class SumOver:
    var: str
    lo: int
    hi: int
    body: "Expr"


@dataclass(frozen=True)
class StateIs:
    index: Union[int, str]  # literal position or bound sum variable
    state: int  # resolved state index


@dataclass(frozen=True)
class BoolOp:
    op: str  # a key of LOGIC
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class BoolNot:
    inner: "BoolExpr"


Expr = Union[Num, BinOp, Ind, SumOver]
BoolExpr = Union[StateIs, BoolOp, BoolNot]


@dataclass(frozen=True)
class GambleExpr:
    """A parsed expression with its state space and inferred depth."""

    root: Expr
    space: StateSpace
    depth: int


class _Parser:
    def __init__(self, tokens: Iterator[Token], space: StateSpace):
        self.tokens = tokens
        self.tok = next(tokens)  # the current token
        self.space = space
        self.bound: dict[str, tuple[int, int]] = {}  # sum var -> (lo, hi)
        self.max_index = 0
        self.open = 0  # constructs open around the current token

    def peek(self) -> Token:
        return self.tok

    def advance(self) -> Token:
        tok = self.tok
        self.tok = next(self.tokens, tok)  # the end token stays current
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ExprError(message, tok.line, tok.column)

    # Each parse method returns its node and the node's height: the
    # operators on its longest path down.

    def nested(self, parse, tok: Token):
        """``parse()`` inside one more construct, opened at ``tok``."""
        if self.open == MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels", tok)
        self.open += 1
        parsed = parse()
        self.open -= 1
        return parsed

    def made(self, tok: Token, node, *heights: int):
        """``node``, an operator at ``tok`` over operands of ``heights``."""
        height = 1 + max(heights, default=0)
        if height > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels", tok)
        return node, height

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            got = tok.text or "end of input"
            self.fail(f"expected {text!r}, found {got!r}")
        return self.advance()

    def parse(self) -> Expr:
        expr, _ = self.expression()
        if self.peek().kind != "end":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return expr

    def chain(self, operand, ops: tuple[str, ...], node_type):
        """``operand()`` { op ``operand()`` } for op in ``ops``, as
        ``node_type(op, left, right)`` nodes grouped to the left."""
        node, height = operand()
        while self.peek().text in ops:
            op = self.advance()
            rhs, rhs_height = operand()
            node, height = self.made(op, node_type(op.text, node, rhs), height, rhs_height)
        return node, height

    def expression(self) -> tuple[Expr, int]:
        return self.chain(self.term, ("+", "-"), BinOp)

    def term(self) -> tuple[Expr, int]:
        return self.chain(self.factor, ("*",), BinOp)

    def factor(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text)), 0
        if tok.text == "(":
            self.advance()
            parsed = self.nested(self.expression, tok)
            self.expect(")")
            return parsed
        if tok.text == "-":
            # Unary minus as 0 - factor keeps the grammar tiny.
            self.advance()
            node, height = self.nested(self.factor, tok)
            return self.made(tok, BinOp("-", Num(0.0), node), height)
        if tok.kind == "name":
            if tok.text == "ind":
                self.advance()
                self.expect("(")
                cond, height = self.nested(self.bool_or, tok)
                self.expect(")")
                return self.made(tok, Ind(cond), height)
            if tok.text in _CALLS:
                self.advance()
                self.expect("(")
                a, a_height = self.nested(self.expression, tok)
                self.expect(",")
                b, b_height = self.nested(self.expression, tok)
                self.expect(")")
                return self.made(tok, BinOp(tok.text, a, b), a_height, b_height)
            if tok.text == "sum":
                return self.made(tok, *self.sum_over())
        self.fail(f"expected a factor, found {tok.text or 'end of input'!r}", tok)

    def sum_over(self) -> tuple[Expr, int]:
        self.expect("sum")
        self.expect("(")
        var_tok = self.peek()
        if var_tok.kind != "name":
            self.fail("expected a sum variable name")
        var = self.advance().text
        if var in self.bound:
            self.fail(f"sum variable {var!r} shadows an enclosing one", var_tok)
        self.expect("=")
        lo = self.int_literal()
        self.expect("..")
        hi = self.int_literal()
        if lo <= 0:
            self.fail(f"state positions are 1-based; sum starts at {lo}", var_tok)
        if hi < lo:
            self.fail(f"empty sum range {lo}..{hi}", var_tok)
        self.expect(",")
        self.bound[var] = (lo, hi)
        self.max_index = max(self.max_index, hi)
        body, height = self.nested(self.expression, var_tok)
        del self.bound[var]
        self.expect(")")
        return SumOver(var, lo, hi, body), height

    def int_literal(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            self.fail("expected an integer")
        self.advance()
        return int(tok.text)

    def bool_or(self) -> tuple[BoolExpr, int]:
        return self.chain(self.bool_and, ("||",), BoolOp)

    def bool_and(self) -> tuple[BoolExpr, int]:
        return self.chain(self.bool_not, ("&&",), BoolOp)

    def bool_not(self) -> tuple[BoolExpr, int]:
        if self.peek().text == "!":
            tok = self.advance()
            node, height = self.nested(self.bool_not, tok)
            return self.made(tok, BoolNot(node), height)
        return self.bool_atom()

    def bool_atom(self) -> tuple[BoolExpr, int]:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            parsed = self.nested(self.bool_or, tok)
            self.expect(")")
            return parsed
        if tok.text != "X":
            self.fail(f"expected a state test, found {tok.text or 'end of input'!r}", tok)
        self.advance()
        self.expect("[")
        idx_tok = self.peek()
        if idx_tok.kind == "number":
            self.advance()
            if not idx_tok.text.isdigit():
                self.fail("state position must be an integer", idx_tok)
            index: Union[int, str] = int(idx_tok.text)
            if index <= 0:
                self.fail(f"state positions are 1-based, got {index}", idx_tok)
            self.max_index = max(self.max_index, index)
        elif idx_tok.kind == "name":
            self.advance()
            if idx_tok.text not in self.bound:
                self.fail(f"unbound index variable {idx_tok.text!r}", idx_tok)
            index = idx_tok.text
        else:
            self.fail("expected a state position", idx_tok)
        self.expect("]")
        self.expect("==")
        label_tok = self.peek()
        if label_tok.kind != "name":
            self.fail("expected a state label", label_tok)
        self.advance()
        if label_tok.text not in self.space.labels:
            self.fail(
                f"unknown state label {label_tok.text!r}; states are {list(self.space.labels)}",
                label_tok,
            )
        return StateIs(index, self.space.index(label_tok.text)), 0


@_room_for_nesting()
def parse_gamble(source: str, space: StateSpace) -> GambleExpr:
    """Parse ``source`` into an expression over ``space``.

    Raises :class:`~iptree.errors.ExprError` with line/column on syntax
    errors, unknown labels, non-positive positions, and unbound variables.
    """
    parser = _Parser(_tokenize(source), space)
    root = parser.parse()
    return GambleExpr(root, space, parser.max_index)


@_room_for_nesting()
def compile_gamble(
    expr: GambleExpr, depth: int | None = None, cap: int = DEFAULT_TABLE_CAP
) -> FinitaryGamble:
    """Tabulate an expression into a dense finitary gamble.

    ``depth`` may lift the gamble beyond its inferred depth (never below).
    The dense table of ``k**depth`` payoffs is subject to ``cap``, and its
    depth to :data:`~iptree.gambles.MAX_TABLE_DEPTH`.
    """
    n = expr.depth if depth is None else depth
    if n < expr.depth:
        raise ExprError(
            f"depth override {n} is below the inferred depth {expr.depth}", 1, 1
        )
    # Checked first: past it, k**n can have more digits than Python formats.
    if n > MAX_TABLE_DEPTH:
        raise ResourceLimitError(f"table of depth {n} exceeds the {MAX_TABLE_DEPTH} axes NumPy allows")
    k = expr.space.size
    cells = k**n
    if cells > cap:
        raise ResourceLimitError(f"table would need {cells} cells, cap is {cap}")

    # Each node's value broadcasts against the table: a number is a scalar
    # and X[i]==A a mask of size k on axis i-1, so every cell gets the same
    # scalar operations in the same order as on full tables, and only the
    # root is expanded to all k**n cells.
    def eval_num(node: Expr, env: dict[str, int]):
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, BinOp):
            return ARITHMETIC[node.op](eval_num(node.left, env), eval_num(node.right, env))
        if isinstance(node, Ind):
            return eval_bool(node.condition, env).astype(float)
        if isinstance(node, SumOver):
            total = np.float64(0.0)
            for i in range(node.lo, node.hi + 1):
                total = total + eval_num(node.body, {**env, node.var: i})
            return total
        raise TypeError(f"unknown node {node!r}")

    def eval_bool(node: BoolExpr, env: dict[str, int]) -> np.ndarray:
        if isinstance(node, StateIs):
            pos = env[node.index] if isinstance(node.index, str) else node.index
            axis_shape = [1] * n
            axis_shape[pos - 1] = k
            return (np.arange(k) == node.state).reshape(axis_shape)
        if isinstance(node, BoolOp):
            return LOGIC[node.op](eval_bool(node.left, env), eval_bool(node.right, env))
        if isinstance(node, BoolNot):
            return ~eval_bool(node.inner, env)
        raise TypeError(f"unknown node {node!r}")

    # A payoff past the float range overflows here, and inf - inf or
    # inf * 0 gives NaN; FinitaryGamble rejects both, so no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.array(np.broadcast_to(eval_num(expr.root, {}), (k,) * n), dtype=float)
    return FinitaryGamble(k, table)


@_room_for_nesting()
def unparse(expr: GambleExpr) -> str:
    """Render an expression back to source the parser accepts."""

    def num(node: Expr) -> str:
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, BinOp):
            left, right = num(node.left), num(node.right)
            return f"{node.op}({left}, {right})" if node.op in _CALLS else f"({left} {node.op} {right})"
        if isinstance(node, Ind):
            return f"ind({boolean(node.condition)})"
        if isinstance(node, SumOver):
            return f"sum({node.var}={node.lo}..{node.hi}, {num(node.body)})"
        raise TypeError(f"unknown node {node!r}")

    def boolean(node: BoolExpr) -> str:
        if isinstance(node, StateIs):
            pos = node.index if isinstance(node.index, str) else str(node.index)
            return f"X[{pos}] == {expr.space.labels[node.state]}"
        if isinstance(node, BoolOp):
            return f"({boolean(node.left)} {node.op} {boolean(node.right)})"
        if isinstance(node, BoolNot):
            return f"!{boolean(node.inner)}"  # a test or a parenthesized && / ||: no level added
        raise TypeError(f"unknown node {node!r}")

    return num(expr.root)

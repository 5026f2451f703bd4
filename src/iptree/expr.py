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

A number literal is a double and must be finite: ``1e400`` fails at its
position.  The nodes of the sums' bodies are evaluated at most
:data:`_SUM_EVALUATIONS` times in all, which the parser checks as each
``sum`` opens and again as it closes.  An expression nests at most
:data:`MAX_NESTING` levels deep, which the parser checks before it
recurses any further; the tokenizer hands it one token at a time, a tuple
from one regex match, so a source fails having read only the tokens up to
the failure.  The parser, the compiler and :func:`unparse`
recurse once or a few times per level, and each raises Python's recursion
limit by what that many levels take while it runs.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import ExprError, InvalidInputError, ResourceLimitError
from .extreal import _derived, _frozen
from .gambles import DEFAULT_TABLE_CAP, MAX_TABLE_DEPTH, FinitaryGamble
from .local import StateSpace

#: At most this many parentheses, function calls, ``!`` and unary minus
#: open around any token, and at most this many operators on any path down
#: the syntax tree: a chain ``1+1+...+1`` of n terms is n - 1 levels deep.
#: It is Python's default recursion limit, so an expression that a parser
#: and evaluator of one frame per level could run under that limit passes.
MAX_NESTING = 1000

#: At most this many evaluations of the nodes of ``sum`` bodies in one
#: expression; a body's node is evaluated once per value of its own sum's
#: range and of every enclosing one.
_SUM_EVALUATIONS = 100_000

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


def _room_for_nesting(function):
    """``function`` run with Python's recursion limit raised by what
    :data:`MAX_NESTING` levels take."""

    @functools.wraps(function)
    def run(*args, **kwargs):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + _FRAMES_PER_LEVEL * MAX_NESTING + 50)
        try:
            return function(*args, **kwargs)
        finally:
            sys.setrecursionlimit(limit)

    return run


#: One token after any blanks, its kind the name of its group; ``end``
#: matches at the end of the source.
_TOKEN_RE = re.compile(
    r"""
    [ \t]*
    (?:
      (?P<op>\.\.|==|&&|\|\||[-+*=(),!\[\]])
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<newline>\n)
    | (?P<end>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

#: A token: its kind ('number', 'name', 'op' or 'end'), text, line and column.
Token = tuple[str, str, int, int]


def _tokenize(source: str) -> Iterator[Token]:
    """The tokens of ``source``, read as the parser asks for them, the last
    an end token."""
    line, line_start = 1, 0  # the current line and its offset in source
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        if kind == "newline":
            line, line_start = line + 1, start + 1
        elif kind == "bad":
            raise ExprError(f"unexpected character {match[kind]!r}", line, start - line_start + 1)
        else:
            yield kind, match[kind], line, start - line_start + 1
            if kind == "end":  # after trailing blanks, \Z would match once more
                return


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
        self.repeats = 1  # evaluations of the current token: the product of the open sums' ranges
        # Evaluations of the nodes made in sum bodies so far, and of one node
        # for each sum still open: a lower bound of the expression's count.
        self.evaluations = 0

    def advance(self) -> Token:
        tok = self.tok
        self.tok = next(self.tokens, tok)  # the end token stays current
        return tok

    def fail(self, message: str, tok: Token | None = None):
        _, _, line, column = tok or self.tok
        raise ExprError(message, line, column)

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

    def made(self, tok: Token, node, height: int):
        """``node``, an operator at ``tok`` over operands up to ``height`` high."""
        if height >= MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels", tok)
        return self.counted(node), height + 1

    def counted(self, node):
        """``node``, a new node, counted in :attr:`evaluations` once per
        value of the open sums' ranges if a sum body holds it."""
        if self.bound:
            self.evaluations += self.repeats
        return node

    def check_evaluations(self, sum_tok: Token) -> None:
        if self.evaluations > _SUM_EVALUATIONS:
            self.fail(
                f"sums would evaluate the nodes of their bodies {self.evaluations} times, more than {_SUM_EVALUATIONS}",
                sum_tok,
            )

    def expect(self, text: str) -> None:
        """Pass the current token, which must read ``text``."""
        tok = self.tok
        if tok[1] != text:
            self.fail(f"expected {text!r}, found {tok[1] or 'end of input'!r}")
        self.tok = next(self.tokens, tok)

    def parse(self) -> Expr:
        expr, _ = self.expression()
        if self.tok[0] != "end":
            self.fail(f"unexpected trailing input {self.tok[1]!r}")
        return expr

    def chain(self, operand, ops: tuple[str, ...], node_type):
        """``operand()`` { op ``operand()`` } for op in ``ops``, as
        ``node_type(op, left, right)`` nodes grouped to the left."""
        node, height = operand()
        while self.tok[1] in ops:
            op = self.advance()
            rhs, rhs_height = operand()
            node, height = self.made(op, node_type(op[1], node, rhs), max(height, rhs_height))
        return node, height

    def expression(self) -> tuple[Expr, int]:
        return self.chain(self.term, ("+", "-"), BinOp)

    def term(self) -> tuple[Expr, int]:
        return self.chain(self.factor, ("*",), BinOp)

    def factor(self) -> tuple[Expr, int]:
        tok = self.tok
        kind, text = tok[0], tok[1]
        if kind == "number":
            self.advance()
            value = float(text)
            if value == math.inf:
                self.fail(f"number {text} is past the float range", tok)
            return self.counted(Num(value)), 0
        if text == "(":
            self.advance()
            parsed = self.nested(self.expression, tok)
            self.expect(")")
            return parsed
        if text == "-":
            # Unary minus as 0 - factor keeps the grammar tiny.
            self.advance()
            node, height = self.nested(self.factor, tok)
            return self.made(tok, BinOp("-", Num(0.0), node), height)
        if kind == "name":
            if text == "ind":
                self.advance()
                self.expect("(")
                cond, height = self.nested(self.bool_or, tok)
                self.expect(")")
                return self.made(tok, Ind(cond), height)
            if text in _CALLS:
                self.advance()
                self.expect("(")
                a, a_height = self.nested(self.expression, tok)
                self.expect(",")
                b, b_height = self.nested(self.expression, tok)
                self.expect(")")
                return self.made(tok, BinOp(text, a, b), max(a_height, b_height))
            if text == "sum":
                return self.made(tok, *self.sum_over(tok))
        self.fail(f"expected a factor, found {text or 'end of input'!r}", tok)

    def sum_over(self, sum_tok: Token) -> tuple[Expr, int]:
        self.expect("sum")
        self.expect("(")
        var_tok = self.tok
        if var_tok[0] != "name":
            self.fail("expected a sum variable name")
        self.advance()
        var = var_tok[1]
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
        # The body has a node at least: one is counted before it is parsed,
        # so a huge range fails here, and taken off once its nodes are.
        repeats = self.repeats
        self.repeats *= hi - lo + 1
        self.evaluations += self.repeats
        self.check_evaluations(sum_tok)
        self.bound[var] = (lo, hi)
        self.max_index = max(self.max_index, hi)
        body, height = self.nested(self.expression, var_tok)
        del self.bound[var]
        self.evaluations -= self.repeats
        self.check_evaluations(sum_tok)
        self.repeats = repeats
        self.expect(")")
        return SumOver(var, lo, hi, body), height

    def int_literal(self) -> int:
        kind, text, _, _ = self.tok
        if kind != "number" or not text.isdigit():
            self.fail("expected an integer")
        self.advance()
        return int(text)

    def bool_or(self) -> tuple[BoolExpr, int]:
        return self.chain(self.bool_and, ("||",), BoolOp)

    def bool_and(self) -> tuple[BoolExpr, int]:
        return self.chain(self.bool_not, ("&&",), BoolOp)

    def bool_not(self) -> tuple[BoolExpr, int]:
        if self.tok[1] == "!":
            tok = self.advance()
            node, height = self.nested(self.bool_not, tok)
            return self.made(tok, BoolNot(node), height)
        return self.bool_atom()

    def bool_atom(self) -> tuple[BoolExpr, int]:
        tok = self.tok
        if tok[1] == "(":
            self.advance()
            parsed = self.nested(self.bool_or, tok)
            self.expect(")")
            return parsed
        if tok[1] != "X":
            self.fail(f"expected a state test, found {tok[1] or 'end of input'!r}", tok)
        self.advance()
        self.expect("[")
        idx_tok = self.tok
        kind, text = idx_tok[0], idx_tok[1]
        if kind == "number":
            self.advance()
            if not text.isdigit():
                self.fail("state position must be an integer", idx_tok)
            index: Union[int, str] = int(text)
            if index <= 0:
                self.fail(f"state positions are 1-based, got {index}", idx_tok)
            self.max_index = max(self.max_index, index)
        elif kind == "name":
            self.advance()
            if text not in self.bound:
                self.fail(f"unbound index variable {text!r}", idx_tok)
            index = text
        else:
            self.fail("expected a state position", idx_tok)
        self.expect("]")
        self.expect("==")
        label_tok = self.tok
        if label_tok[0] != "name":
            self.fail("expected a state label", label_tok)
        self.advance()
        try:
            return self.counted(StateIs(index, self.space.index(label_tok[1]))), 0
        except InvalidInputError as exc:
            self.fail(str(exc), label_tok)


@_room_for_nesting
def parse_gamble(source: str, space: StateSpace) -> GambleExpr:
    """Parse ``source`` into an expression over ``space``.

    Raises :class:`~iptree.errors.ExprError` with line/column on syntax
    errors, unknown labels, non-positive positions, and unbound variables.
    """
    parser = _Parser(_tokenize(source), space)
    root = parser.parse()
    return GambleExpr(root, space, parser.max_index)


@_room_for_nesting
def compile_gamble(expr: GambleExpr, *, cap: int = DEFAULT_TABLE_CAP) -> FinitaryGamble:
    """Tabulate an expression into a dense finitary gamble of its inferred
    depth (:meth:`FinitaryGamble.lift` views it deeper).

    The dense table of ``k**depth`` payoffs is subject to ``cap`` (by
    default :data:`~iptree.gambles.DEFAULT_TABLE_CAP`), and its depth to
    :data:`~iptree.gambles.MAX_TABLE_DEPTH`.
    """
    n = expr.depth
    # Checked first: past it, k**n can have more digits than Python formats.
    if n > MAX_TABLE_DEPTH:
        raise ResourceLimitError(f"table of depth {n} exceeds the {MAX_TABLE_DEPTH} axes NumPy allows")
    k = expr.space.size
    cells = k**n
    if cells > cap:
        raise ResourceLimitError(f"table would need {cells} cells, cap is {cap}")

    # Each node's value broadcasts against the table: a number is a scalar
    # and X[i]==A row A of the identity on axis i-1, with only the later
    # axes after it, so every cell gets the same scalar operations in the
    # same order as on full tables, and only the root is expanded to all
    # k**n cells.  Each X[i]==A is built once, as a mask and as 0/1
    # payoffs; ``env`` binds the open sum variables.
    identity = np.identity(k, dtype=bool)
    masks: dict[tuple[int, int], np.ndarray] = {}
    payoffs: dict[tuple[int, int], np.ndarray] = {}

    def eval_num(node: Expr, env: dict[str, int]):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, BinOp):
            return ARITHMETIC[node.op](eval_num(node.left, env), eval_num(node.right, env))
        if isinstance(node, Ind):
            test = node.condition
            if not isinstance(test, StateIs):
                return eval_bool(test, env).astype(float)
            key = (env[test.index] if isinstance(test.index, str) else test.index, test.state)
            if key not in payoffs:
                payoffs[key] = eval_bool(test, env).astype(float)
            return payoffs[key]
        if isinstance(node, SumOver):
            total = np.float64(0.0)
            for env[node.var] in range(node.lo, node.hi + 1):
                total = total + eval_num(node.body, env)
            del env[node.var]
            return total
        raise TypeError(f"unknown node {node!r}")

    def eval_bool(node: BoolExpr, env: dict[str, int]) -> np.ndarray:
        if isinstance(node, StateIs):
            key = (env[node.index] if isinstance(node.index, str) else node.index, node.state)
            if key not in masks:
                if not 0 < key[0] <= n:
                    raise InvalidInputError(f"state position {key[0]} is outside 1..{n}")
                masks[key] = identity[node.state].reshape((k,) + (1,) * (n - key[0]))
            return masks[key]
        if isinstance(node, BoolOp):
            return LOGIC[node.op](eval_bool(node.left, env), eval_bool(node.right, env))
        if isinstance(node, BoolNot):
            return ~eval_bool(node.inner, env)
        raise TypeError(f"unknown node {node!r}")

    # A payoff past the float range overflows here, and inf - inf or
    # inf * 0 gives NaN; FinitaryGamble rejects both, so no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.empty((k,) * n)
        table[...] = eval_num(expr.root, {})
    if np.isfinite(table).all():  # the fresh table is the gamble's own, not copied
        return _derived(FinitaryGamble, k=k, table=_frozen(table))
    return FinitaryGamble(k, table)  # raises its NaN or infinity message


@_room_for_nesting
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

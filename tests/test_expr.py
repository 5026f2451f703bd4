import ast
import inspect
import re
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pytest

import iptree.expr as expr_module

from iptree.errors import ExprError, InvalidInputError, IptreeError, ResourceLimitError
from iptree.expr import (
    ARITHMETIC,
    LOGIC,
    MAX_NESTING,
    BinOp,
    BoolNot,
    BoolOp,
    GambleExpr,
    Ind,
    Num,
    StateIs,
    SumOver,
    compile_gamble,
    parse_gamble,
    unparse,
)
from iptree.gambles import DEFAULT_TABLE_CAP, FinitaryGamble
from iptree.local import StateSpace


@pytest.fixture
def space():
    return StateSpace(("H", "T"))


def compiled(source, space, **kw):
    return compile_gamble(parse_gamble(source, space), **kw)


def alpha_canonical(expr):
    """The AST with sum variables renamed to positional names: two
    expressions are alpha-equivalent exactly when these are equal."""

    def walk(node, env: dict[str, str], counter: list[int]):
        if isinstance(node, Num):
            return node
        if isinstance(node, (BinOp, BoolOp)):
            return type(node)(node.op, walk(node.left, env, counter), walk(node.right, env, counter))
        if isinstance(node, Ind):
            return Ind(walk(node.condition, env, counter))
        if isinstance(node, SumOver):
            fresh = f"_{counter[0]}"
            counter[0] += 1
            return SumOver(fresh, node.lo, node.hi, walk(node.body, {**env, node.var: fresh}, counter))
        if isinstance(node, StateIs):
            return StateIs(env[node.index] if isinstance(node.index, str) else node.index, node.state)
        if isinstance(node, BoolNot):
            return BoolNot(walk(node.inner, env, counter))
        raise TypeError(f"unknown node {node!r}")

    return walk(expr.root, {}, [0])


class TestParsing:
    def test_indicator(self, space):
        f = compiled("ind(X[1]==H)", space)
        assert f.depth == 1
        assert np.array_equal(f.table, [1.0, 0.0])

    def test_counting_sum(self, space):
        f = compiled("sum(i=1..3, ind(X[i]==H))", space)
        assert f.depth == 3
        assert f.payoff((0, 0, 1)) == 2.0
        assert f.payoff((1, 1, 1)) == 0.0

    def test_min_equals_conjunction(self, space):
        a = compiled("min(ind(X[1]==H), ind(X[2]==H))", space)
        b = compiled("ind(X[1]==H && X[2]==H)", space)
        assert np.array_equal(a.table, b.table)

    def test_precedence_and_or_not(self, space):
        f = compiled("ind(!X[1]==H && X[2]==H || X[1]==T && X[2]==T)", space)
        # (!a && b) || (c && d); strings TH and TT qualify
        assert f.payoff((1, 0)) == 1.0
        assert f.payoff((1, 1)) == 1.0
        assert f.payoff((0, 0)) == 0.0

    def test_arithmetic_and_unary_minus(self, space):
        f = compiled("2 * ind(X[1]==H) - 3 + -1", space)
        assert f.payoff((0,)) == -2.0
        assert f.payoff((1,)) == -4.0

    def test_nested_sums(self, space):
        f = compiled("sum(i=1..2, sum(j=1..2, ind(X[i]==H) * ind(X[j]==T)))", space)
        assert f.depth == 2
        assert f.payoff((0, 1)) == 1.0  # (i,j) = (1,2) only
        assert f.payoff((0, 0)) == 0.0

    def test_parentheses(self, space):
        f = compiled("(1 + 2) * ind(X[1]==T)", space)
        assert f.payoff((1,)) == 3.0


class TestErrors:
    def test_syntax_error_carries_position(self, space):
        with pytest.raises(ExprError) as err:
            parse_gamble("ind(X[1]==H", space)
        assert err.value.line == 1 and err.value.column >= 11

    def test_unknown_label(self, space):
        with pytest.raises(ExprError, match="unknown state label"):
            parse_gamble("ind(X[1]==Q)", space)

    def test_zero_index(self, space):
        with pytest.raises(ExprError, match="1-based"):
            parse_gamble("ind(X[0]==H)", space)

    def test_unbound_variable(self, space):
        with pytest.raises(ExprError, match="unbound"):
            parse_gamble("ind(X[i]==H)", space)

    def test_shadowing_rejected(self, space):
        with pytest.raises(ExprError, match="shadows"):
            parse_gamble("sum(i=1..2, sum(i=1..2, ind(X[i]==H)))", space)

    def test_multiline_position(self, space):
        with pytest.raises(ExprError) as err:
            parse_gamble("1 +\n  ?", space)
        assert err.value.line == 2

    def test_empty_range(self, space):
        with pytest.raises(ExprError, match="empty sum range"):
            parse_gamble("sum(i=3..2, ind(X[i]==H))", space)

    @pytest.mark.parametrize(
        "source, column, number",
        [("1e400", 1, "1e400"), ("1e400 - 1e400", 1, "1e400"), ("2 * (1 +\t1" + "0" * 400 + ")", 10, "1" + "0" * 400)],
    )
    def test_a_number_past_the_float_range_fails_at_its_position(self, space, source, column, number):
        with pytest.raises(ExprError) as err:
            parse_gamble(source, space)
        assert (err.value.message, err.value.line, err.value.column) == (f"number {number} is past the float range", 1, column)

    def test_the_largest_double_is_a_number(self, space):
        assert compiled("1.7976931348623157e308", space).table[()] == sys.float_info.max


def nested(kind, n):
    """An expression ``n`` levels deep: parentheses, a ``+`` chain of n + 1
    terms, ``!`` or parentheses under ``ind`` (which opens a level), or
    ``min`` calls."""
    return {
        "parens": "(" * n + "1" + ")" * n,
        "chain": "1" + "+1" * n,
        "not": "ind(" + "!" * (n - 1) + "X[1]==H)",
        "bool_parens": "ind(" + "(" * (n - 1) + "X[1]==H" + ")" * (n - 1) + ")",
        "min": "min(" * n + "1" + ",1)" * n,
    }[kind]


#: Where the level past the limit starts, 1-based on the first line.
PAST_LIMIT = {
    "parens": MAX_NESTING + 1,
    "chain": 2 * MAX_NESTING + 2,
    "not": MAX_NESTING + 4,
    "bool_parens": MAX_NESTING + 4,
    "min": 4 * MAX_NESTING + 1,
}


class TestNesting:
    """An expression nests at most MAX_NESTING levels; one level more fails
    with its position before the parser recurses, however deep it goes."""

    @pytest.mark.parametrize("kind", sorted(PAST_LIMIT))
    def test_the_limit_itself_compiles(self, space, kind):
        # With only a few frames left below the recursion limit: each call
        # makes its own room.
        def at_the_limit():
            expr = parse_gamble(nested(kind, MAX_NESTING), space)
            compile_gamble(expr)
            source = unparse(expr)
            assert unparse(parse_gamble(source, space)) == source

        frames = len(inspect.stack(0))
        deeper = lambda n: at_the_limit() if n == 0 else deeper(n - 1)
        deeper(sys.getrecursionlimit() - frames - 40)

    @pytest.mark.parametrize("terms", [2, 150, 900])
    def test_chains_an_evaluator_of_one_frame_per_term_ran_still_run(self, space, terms):
        f = compiled("+".join(["ind(X[1]==H)"] * terms), space)
        assert f.payoff((0,)) == terms and f.payoff((1,)) == 0

    @pytest.mark.parametrize("n", [MAX_NESTING + 1, 10**5])
    @pytest.mark.parametrize("kind", sorted(PAST_LIMIT))
    def test_one_level_more_fails_at_its_position(self, space, kind, n):
        with pytest.raises(ExprError, match=f"nests deeper than {MAX_NESTING} levels") as err:
            parse_gamble(nested(kind, n), space)
        assert (err.value.line, err.value.column) == (1, PAST_LIMIT[kind])

    def test_reads_only_the_tokens_before_the_failure(self, space, monkeypatch):
        # The tokenizer hands over one token at a time: an over-nested source
        # of 10**6 characters fails at column 1001 after about 1001 tokens.
        read = []
        tokenize = expr_module._tokenize
        monkeypatch.setattr(expr_module, "_tokenize", lambda source: (read.append(tok) or tok for tok in tokenize(source)))
        with pytest.raises(ExprError, match=f"nests deeper than {MAX_NESTING} levels") as err:
            parse_gamble("(" * 10**6, space)
        assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)
        assert MAX_NESTING + 1 <= len(read) <= MAX_NESTING + 2

    def test_chains_inside_parentheses_add_up(self, space):
        half = "(" + "+".join(["1"] * (MAX_NESTING // 2 + 1)) + ")"
        with pytest.raises(ExprError, match="nests deeper"):
            parse_gamble("+".join([half] * (MAX_NESTING // 2 + 2)), space)


class TestSumEvaluations:
    """The parser counts the evaluations of the nodes of sum bodies, each
    node once per value of its own and its enclosing sums' ranges, and
    fails at the sum that takes the count past the cap: as each sum opens,
    counting one node for its body, and as it closes, counting them all."""

    SOURCE = "sum(i=1..10, ind(X[i]==H)) + sum(j=1..3, sum(l=1..4, ind(X[j]==H && X[l]==T)))"

    @pytest.mark.parametrize("cap", [71, 10**5])
    def test_ranges_add_and_nested_ones_multiply(self, space, monkeypatch, cap):
        monkeypatch.setattr(expr_module, "_SUM_EVALUATIONS", cap)  # 2 * 10 + 1 * 3 + 4 * 3 * 4
        f = compiled(self.SOURCE, space)
        assert f.payoff((0,) * 10) == 10 and f.payoff((0, 0, 0, 1) + (0,) * 6) == 9 + 3

    def test_the_sum_past_the_cap_fails_at_its_position(self, space, monkeypatch):
        # When sum(l opens: 2 * 10 for the first sum, one node each for the
        # bodies of sum(j and sum(l, 3 + 3 * 4.
        monkeypatch.setattr(expr_module, "_SUM_EVALUATIONS", 34)
        with pytest.raises(ExprError, match="nodes of their bodies 35 times, more than 34") as err:
            parse_gamble(self.SOURCE, space)
        assert (err.value.line, err.value.column) == (1, self.SOURCE.index("sum(l") + 1)

    def test_a_large_body_fails_as_its_sum_closes(self, space, monkeypatch):
        # sum(l opens at 35 and closes at 71: its body's 4 nodes, 12 times.
        monkeypatch.setattr(expr_module, "_SUM_EVALUATIONS", 70)
        with pytest.raises(ExprError, match="nodes of their bodies 71 times, more than 70") as err:
            parse_gamble(self.SOURCE, space)
        assert (err.value.line, err.value.column) == (1, self.SOURCE.index("sum(l") + 1)

    def test_a_huge_range_fails_before_its_body(self, space):
        with pytest.raises(ExprError, match=f"bodies {10**30} times") as err:
            parse_gamble(f"1 + sum(i=1..{10**30}, X)", space)
        assert (err.value.line, err.value.column) == (1, 5)


class TestCompile:
    def test_lift_by_override_constant_on_new_axes(self, space):
        f = compiled("ind(X[1]==H)", space).lift(3)
        assert f.depth == 3
        for string in np.ndindex(2, 2, 2):
            assert f.payoff(string) == (1.0 if string[0] == 0 else 0.0)

    def test_cap(self, space):
        with pytest.raises(ResourceLimitError):
            compiled("ind(X[13]==H)", space, cap=4096)

    @pytest.mark.parametrize(
        "source", ["0", "-2.5", "ind(X[1]==H)", "sum(i=1..3, ind(X[i]==T)) * 0.1 - ind(X[2]==H)", "1e308 + 1e308 * -0.5"]
    )
    def test_the_table_is_the_checked_constructors(self, space, source):
        f = compiled(source, space)
        want = FinitaryGamble(f.k, f.table).table
        assert not f.table.flags.writeable
        assert f.table.dtype == want.dtype and f.table.shape == want.shape
        assert f.table.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "source, message",
        [("1e308 * 10", "finitary gamble payoffs must be finite"), ("1e308 * 10 - 1e308 * 10", "NaN is not a valid payoff")],
    )
    def test_a_payoff_that_is_no_finite_number_is_rejected(self, space, source, message):
        with pytest.raises(InvalidInputError) as exc:
            compiled(source, space)
        assert str(exc.value) == message

    @pytest.mark.parametrize("position", [0, 3])
    def test_a_built_tree_reading_past_its_depth_is_rejected(self, space, position):
        with pytest.raises(InvalidInputError, match=f"state position {position} is outside 1..2"):
            compile_gamble(GambleExpr(Ind(StateIs(position, 0)), space, 2))


def reference_gamble(expr, depth=None):
    """The reference tabulator: every node's value as a full ``(k,)*n``
    table, as ``compile_gamble`` computed it before it broadcast small
    arrays instead."""
    n = expr.depth if depth is None else depth
    k = expr.space.size
    shape = (k,) * n

    def eval_num(node, env):
        if isinstance(node, Num):
            return np.broadcast_to(np.float64(node.value), shape)
        if isinstance(node, BinOp):
            left, right = eval_num(node.left, env), eval_num(node.right, env)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "min":
                return np.minimum(left, right)
            if node.op == "max":
                return np.maximum(left, right)
        if isinstance(node, Ind):
            return eval_bool(node.condition, env).astype(float)
        if isinstance(node, SumOver):
            total = np.zeros(shape)
            for i in range(node.lo, node.hi + 1):
                total = total + eval_num(node.body, {**env, node.var: i})
            return total
        raise TypeError(f"unknown node {node!r}")

    def eval_bool(node, env):
        if isinstance(node, StateIs):
            pos = env[node.index] if isinstance(node.index, str) else node.index
            axis_shape = [1] * n
            axis_shape[pos - 1] = k
            mask = (np.arange(k) == node.state).reshape(axis_shape)
            return np.broadcast_to(mask, shape)
        if isinstance(node, BoolOp):
            left, right = eval_bool(node.left, env), eval_bool(node.right, env)
            if node.op == "&&":
                return left & right
            if node.op == "||":
                return left | right
        if isinstance(node, BoolNot):
            return ~eval_bool(node.inner, env)
        raise TypeError(f"unknown node {node!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        table = np.array(eval_num(expr.root, {}), dtype=float).reshape(shape)
    return FinitaryGamble(k, table)


def test_reference_tabulator_shares_no_code_with_the_compiler():
    # The reference stays an independent implementation: it spells out each
    # operator's arithmetic and names none of the compiler's tables or
    # functions, not even as a string a getattr could look up.
    used = set()
    for node in ast.walk(ast.parse(inspect.getsource(reference_gamble))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    assert {"minimum", "maximum"} <= used
    assert not used & {"ARITHMETIC", "LOGIC", "compile_gamble", "expr_module"}


#: Numbers the random expressions use: signed zeros, and values whose sums
#: and products overflow to +-inf and then NaN.
NUMBERS = (0.0, -0.0, 1.0, 0.5, 3.0, 0.1, 1e308)


def random_expression(rng, k, n, budget):
    """A random expression AST on ``k`` states reading positions up to
    ``n`` (none when ``n`` is 0), with at most about ``budget`` nodes."""
    variables = []

    def position():
        if variables and rng.uniform() < 0.5:
            return variables[int(rng.integers(len(variables)))]
        return int(rng.integers(1, n + 1))

    def boolean(size):
        kind = int(rng.integers(4)) if size > 1 else 0
        if kind == 0:
            return StateIs(position(), int(rng.integers(k)))
        if kind == 3:
            return BoolNot(boolean(size - 1))
        return BoolOp(("&&", "||")[kind - 1], boolean(size // 2), boolean(size // 2))

    def number(size):
        # 0: a number, 1: an indicator, 2-6: a binary operation, 7: a sum.
        leaves = (0, 1) if n else (0,)
        kind = int(rng.choice(leaves + (2, 3, 4, 5, 6) + (7,) * bool(n))) if size > 1 else int(rng.choice(leaves))
        if kind == 0:
            return Num(NUMBERS[int(rng.integers(len(NUMBERS)))])
        if kind == 1:
            return Ind(boolean(min(size, 4)))
        if kind == 7:
            var = f"v{len(variables)}"
            lo = int(rng.integers(1, n + 1))
            hi = int(rng.integers(lo, n + 1))
            variables.append(var)
            body = number(size - 1)
            variables.remove(var)
            return SumOver(var, lo, hi, body)
        return BinOp(("+", "-", "*", "min", "max")[kind - 2], number(size // 2), number(size // 2))

    return GambleExpr(number(budget), StateSpace(("A", "B", "C", "D")[:k]), n)


def test_tabulation_is_bitwise_the_reference():
    """On random expressions within the cap, signed zeros and overflows
    included, the table is the reference's bit for bit, or both fail alike."""
    rng = np.random.default_rng(14)
    tables = 0
    for _ in range(600):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(0, {1: 8, 2: 8, 3: 6, 4: 5}[k]))
        expr = random_expression(rng, k, n, int(rng.integers(1, 24)))
        lift = n + int(rng.integers(0, 2)) if k ** (n + 1) <= DEFAULT_TABLE_CAP else n
        try:
            want = reference_gamble(expr, lift)
        except IptreeError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                compile_gamble(expr).lift(lift)
            continue
        got = compile_gamble(expr).lift(lift)
        assert got.table.shape == want.table.shape == (k,) * lift
        assert np.array_equal(got.table, want.table)
        assert np.array_equal(np.signbit(got.table), np.signbit(want.table))
        tables += 1
    assert tables >= 500


#: Every operator's arithmetic, spelled out apart from ARITHMETIC and LOGIC.
EXPLICIT = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "min": np.minimum,
    "max": np.maximum,
    "&&": lambda a, b: a & b,
    "||": lambda a, b: a | b,
}


class TestRoundTrip:
    CASES = (
        "ind(X[1]==H)",
        "sum(i=1..3, ind(X[i]==H)) - 2 * ind(X[2]==T)",
        "min(ind(X[1]==H), max(1, ind(X[2]==T)))",
        "ind(!(X[1]==H) || X[2]==T && X[1]==T)",
    )

    @pytest.mark.parametrize("source", CASES)
    def test_unparse_reparses_alpha_equivalent(self, space, source):
        expr = parse_gamble(source, space)
        again = parse_gamble(unparse(expr), space)
        assert alpha_canonical(expr) == alpha_canonical(again)
        assert np.array_equal(compile_gamble(expr).table, compile_gamble(again).table)

    @pytest.mark.parametrize("op", [*ARITHMETIC, *LOGIC])
    def test_every_operator_reparses_and_tabulates(self, space, op):
        # The operator tables, the parser's operator tokens and unparse
        # agree: each operator comes back as itself and computes its own
        # table, on operands that tell all the operators apart.
        first, second = np.indices((2, 2))
        if op in LOGIC:
            root = Ind(BoolOp(op, StateIs(1, 0), StateIs(2, 1)))
            want = EXPLICIT[op](first == 0, second == 1).astype(float)
        else:
            root = BinOp(op, SumOver("i", 1, 2, Ind(StateIs("i", 1))), Num(1.5))
            want = EXPLICIT[op]((first + second).astype(float), 1.5)
        again = parse_gamble(unparse(GambleExpr(root, space, 2)), space)
        assert (again.root, again.depth) == (root, 2)
        assert np.array_equal(compile_gamble(again).table, want)

    def test_alpha_equivalence_ignores_names(self, space):
        a = parse_gamble("sum(i=1..3, ind(X[i]==H))", space)
        b = parse_gamble("sum(k=1..3, ind(X[k]==H))", space)
        c = parse_gamble("sum(k=1..4, ind(X[k]==H))", space)
        assert alpha_canonical(a) == alpha_canonical(b)
        assert alpha_canonical(a) != alpha_canonical(c)


# --- the tokenizer against its earlier form -----------------------------------

# The tokenizer as it was when it took one regex match per blank run and per
# token and built a frozen dataclass for each, kept verbatim as the reference
# for the one that takes one match per token.
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


def token_stream(tokens):
    """The (kind, text, line, column) of each token up to the first error,
    and that error's (message, line, column), or None."""
    read = []
    try:
        for tok in tokens:
            read.append((tok.kind, tok.text, tok.line, tok.column) if isinstance(tok, Token) else tok)
    except ExprError as exc:
        return read, (str(exc), exc.line, exc.column)
    return read, None


#: What random sources put between tokens: nothing, blanks and newlines.
GAPS = ("", "", " ", "  ", "\t", "\n", " \n\t", "\n\n ")


def corrupted(rng, source: str) -> list[str]:
    """``source`` with one stray '.', 'é' or '#' inserted, and with one
    character deleted or doubled, each at a random place."""
    out = []
    for stray in (".", "é", "#"):
        at = int(rng.integers(len(source) + 1))
        out.append(source[:at] + stray + source[at:])
    at = int(rng.integers(len(source)))
    out.append(source[:at] + source[at + 1:])
    out.append(source[:at] + source[at] + source[at:])
    return out


def test_tokens_are_the_reference_tokens():
    """On unparsed random expressions with random blanks and newlines
    between tokens, and on single-character corruptions of them, every
    token up to the first error and the error itself are the reference's;
    the blanks and newlines leave the syntax tree as it was."""
    rng = np.random.default_rng(24)
    sources = failures = 0
    for _ in range(2000):
        k = int(rng.integers(1, 5))
        expr = random_expression(rng, k, int(rng.integers(1, 7)), int(rng.integers(1, 16)))
        source = unparse(expr)
        texts = [t.text for t in _tokenize(source)]
        spaced = "".join(text + GAPS[int(rng.integers(len(GAPS)))] for text in texts)
        assert parse_gamble(spaced, expr.space) == parse_gamble(source, expr.space)
        for variant in (spaced, *corrupted(rng, spaced)):
            want = token_stream(_tokenize(variant))
            assert token_stream(expr_module._tokenize(variant)) == want, variant
            sources += 1
            failures += want[1] is not None
    assert sources == 12000 and 4000 < failures < 8000, failures


# --- the recursion limit each entry point raises ------------------------------


def deepest_stack(call, *args) -> int:
    """The most Python frames that ``call(*args)`` has open at once."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return deepest


def test_frames_per_level_is_what_the_deepest_level_takes(space):
    # Each kind of nesting, one level deeper, deepens the parser, the
    # compiler or unparse by some frames; the constant that each raises
    # the recursion limit by is the most of these, so no larger than needed.
    def frames(kind, levels):
        expr = parse_gamble(nested(kind, levels), space)
        return (
            deepest_stack(parse_gamble, nested(kind, levels), space),
            deepest_stack(compile_gamble, expr),
            deepest_stack(unparse, expr),
        )

    per_level = {
        kind: max(deeper - shallower for shallower, deeper in zip(frames(kind, 20), frames(kind, 21)))
        for kind in PAST_LIMIT
    }
    assert expr_module._FRAMES_PER_LEVEL == max(per_level.values()), per_level

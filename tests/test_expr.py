import numpy as np
import pytest

from iptree.errors import ExprError, ResourceLimitError
from iptree.expr import (
    Add,
    BoolAnd,
    BoolNot,
    BoolOr,
    Ind,
    MaxOf,
    MinOf,
    Mul,
    Num,
    StateIs,
    Sub,
    SumOver,
    compile_gamble,
    parse_gamble,
    unparse,
)
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
        if isinstance(node, (Add, Sub, Mul, MinOf, MaxOf, BoolAnd, BoolOr)):
            return type(node)(walk(node.left, env, counter), walk(node.right, env, counter))
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


class TestCompile:
    def test_lift_by_override_constant_on_new_axes(self, space):
        f = compiled("ind(X[1]==H)", space, depth=3)
        assert f.depth == 3
        for string in np.ndindex(2, 2, 2):
            assert f.payoff(string) == (1.0 if string[0] == 0 else 0.0)

    def test_override_below_inferred_depth_rejected(self, space):
        with pytest.raises(ExprError):
            compiled("ind(X[2]==H)", space, depth=1)

    def test_cap(self, space):
        with pytest.raises(ResourceLimitError):
            compiled("ind(X[13]==H)", space, cap=4096)


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

    def test_alpha_equivalence_ignores_names(self, space):
        a = parse_gamble("sum(i=1..3, ind(X[i]==H))", space)
        b = parse_gamble("sum(k=1..3, ind(X[k]==H))", space)
        c = parse_gamble("sum(k=1..4, ind(X[k]==H))", space)
        assert alpha_canonical(a) == alpha_canonical(b)
        assert alpha_canonical(a) != alpha_canonical(c)

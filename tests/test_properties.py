"""Generated-input property tests for the global expectation calculus."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iptree.engine import finitary_lower, finitary_upper
from iptree.gambles import FinitaryGamble, restrict
from iptree.local import CredalSet, upper_expectation
from iptree.oracle import precise_expectation
from iptree.suites import random_tree
from iptree.tree import Homogeneous, ImpreciseTree, all_situations
from property_suites import random_precise_tree


@st.composite
def credal_sets(draw, k=2, max_points=3):
    m = draw(st.integers(1, max_points))
    rows = []
    for _ in range(m):
        cuts = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=k - 1, max_size=k - 1)))
        weights = np.diff([0.0] + cuts + [1.0])
        rows.append(weights)
    return CredalSet(np.array(rows))


@st.composite
def gambles(draw, k=2, max_depth=3):
    depth = draw(st.integers(1, max_depth))
    flat = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False),
            min_size=k**depth,
            max_size=k**depth,
        )
    )
    return FinitaryGamble(k, np.reshape(flat, (k,) * depth))


@st.composite
def situations(draw, k=2, max_len=3):
    return tuple(draw(st.lists(st.integers(0, k - 1), max_size=max_len)))


def _space():
    from iptree.local import StateSpace

    return StateSpace(("A", "B"))


@given(credal_sets(), gambles(max_depth=2), situations())
@settings(max_examples=60, deadline=None)
def test_value_between_conditional_bounds(credal, f, s):
    tree = ImpreciseTree(_space(), Homogeneous(credal))
    up = finitary_upper(tree, f, s)
    lo = finitary_lower(tree, f, s)
    sub = f.table[s[: f.depth]]
    assert np.min(sub) - 1e-9 <= lo <= up + 1e-12
    assert up <= np.max(sub) + 1e-9


@given(credal_sets(), gambles(max_depth=2), situations(max_len=2))
@settings(max_examples=60, deadline=None)
def test_conditioning_ignores_off_path_payoffs(credal, f, s):
    tree = ImpreciseTree(_space(), Homogeneous(credal))
    if len(s) > f.depth:
        s = s[: f.depth]
    assert finitary_upper(tree, f, s) == finitary_upper(tree, restrict(f, s), s)


@given(credal_sets(), gambles(max_depth=2), gambles(max_depth=2))
@settings(max_examples=60, deadline=None)
def test_subadditivity_and_conjugacy(credal, f, g):
    tree = ImpreciseTree(_space(), Homogeneous(credal))
    uf, ug = finitary_upper(tree, f), finitary_upper(tree, g)
    assert finitary_upper(tree, f + g) <= uf + ug + 1e-9
    assert finitary_lower(tree, f) == -finitary_upper(tree, -f)
    assert finitary_lower(tree, f) <= uf + 1e-12


@given(credal_sets(), st.lists(st.floats(-5, 5), min_size=2, max_size=2))
@settings(max_examples=80, deadline=None)
def test_one_step_gamble_reduces_to_local_model(credal, h):
    tree = ImpreciseTree(_space(), Homogeneous(credal))
    h = np.asarray(h)
    f = FinitaryGamble(2, h.copy())
    assert finitary_upper(tree, f) == upper_expectation(credal, h)


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_iterated_law_on_random_trees(seed, depth):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    tree = random_tree(rng, k)
    f = FinitaryGamble(k, rng.uniform(-5, 5, size=(k,) * depth))
    m = int(rng.integers(0, depth))
    table = np.empty((k,) * (m + 1))
    for z in np.ndindex(*(k,) * (m + 1)):
        table[z] = finitary_upper(tree, f, z)
    g = FinitaryGamble(k, table)
    for x in all_situations(k, m):
        if len(x) == m:
            assert abs(finitary_upper(tree, f, x) - finitary_upper(tree, g, x)) <= 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_precise_trees_are_linear(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    p = random_precise_tree(rng, k)
    f = FinitaryGamble(k, rng.uniform(-5, 5, size=(k,) * 2))
    g = FinitaryGamble(k, rng.uniform(-5, 5, size=(k,) * 2))
    q = p.to_imprecise()
    assert abs(
        finitary_upper(q, f + g) - (finitary_upper(q, f) + finitary_upper(q, g))
    ) <= 1e-9
    assert abs(finitary_upper(q, f) - precise_expectation(p, f)) <= 1e-10

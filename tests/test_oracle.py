import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from iptree.engine import Policy, StopReason, adversarial_selection, finitary_upper
from iptree.errors import InvalidInputError, ResourceLimitError
from iptree.expr import compile_gamble, parse_gamble
from iptree.gambles import MAX_TABLE_DEPTH, FinitaryGamble, hitting_event_variable, hitting_time_variable, truncated_hitting_time
from iptree.local import CredalSet, MassFunction, StateSpace
from iptree import oracle
from iptree.modelio import dump_model, load_model
from iptree.oracle import (
    conditional_prob,
    domination_check,
    envelope_sup,
    precise_expectation,
    sample_compatible,
    selection_tree,
)
from iptree.suites import model_oracle_suite, random_gamble, random_situation, random_tree
from iptree.tree import (
    DEFAULT_ENUM_CAP,
    Homogeneous,
    ImpreciseTree,
    Markov,
    PreciseTree,
    all_situations,
    enumerate_compatible,
    is_compatible,
    local_model,
)
from property_suites import random_precise_tree


def expr_gamble(source, space):
    return compile_gamble(parse_gamble(source, space))


class TestConditionalProb:
    def test_fair_coin_product(self, fair_coin):
        assert conditional_prob(fair_coin, (0, 0), ()) == 0.25

    def test_prefix_case_is_one(self, fair_coin):
        assert conditional_prob(fair_coin, (0,), (0, 1)) == 1.0
        assert conditional_prob(fair_coin, (0, 1), (0, 1)) == 1.0

    def test_mismatch_is_zero(self, fair_coin):
        assert conditional_prob(fair_coin, (1, 0), (0,)) == 0.0
        assert conditional_prob(fair_coin, (0,), (1, 1)) == 0.0

    def test_normalization(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            p = random_precise_tree(rng, k)
            s = random_situation(rng, k, 3)
            for m in range(1, 6):
                total = sum(
                    conditional_prob(p, z, s)
                    for z in all_situations(k, m)
                    if len(z) == m
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_tower_marginalization(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            p = random_precise_tree(rng, k)
            s = random_situation(rng, k, 2)
            z = random_situation(rng, k, 3)
            total = sum(conditional_prob(p, z + (y,), s) for y in range(k))
            assert total == pytest.approx(conditional_prob(p, z, s), abs=1e-12)


class TestPreciseExpectation:
    def test_heads_count(self, coin_space, fair_coin):
        f = expr_gamble("sum(i=1..2, ind(X[i]==H))", coin_space)
        assert precise_expectation(fair_coin, f) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_one_step(self, coin_space, fair_coin):
        f = expr_gamble("ind(X[2]==H)", coin_space)
        assert precise_expectation(fair_coin, f, (1,)) == pytest.approx(0.5, abs=1e-12)

    def test_biased_product(self, coin_space, biased_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        assert precise_expectation(biased_coin, f) == pytest.approx(0.36, abs=1e-12)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            k = int(rng.integers(2, 4))
            p = random_precise_tree(rng, k)
            f = random_gamble(rng, k, int(rng.integers(1, 4)))
            s = random_situation(rng, k, f.depth)
            brute = sum(
                f.payoff(z) * conditional_prob(p, z, s)
                for z in all_situations(k, f.depth)
                if len(z) == f.depth
            )
            assert precise_expectation(p, f, s) == pytest.approx(brute, abs=1e-10)

    def test_linear_and_constant_additive(self):
        rng = np.random.default_rng(34)
        p = random_precise_tree(rng, 2)
        f = random_gamble(rng, 2, 3)
        g = random_gamble(rng, 2, 3)
        ef, eg = precise_expectation(p, f), precise_expectation(p, g)
        assert precise_expectation(p, f + g) == pytest.approx(ef + eg, abs=1e-10)
        assert precise_expectation(p, f + 2.5) == pytest.approx(ef + 2.5, abs=1e-10)

    def test_machine_forward_matches_dense(self, coin_space, biased_coin):
        tau = truncated_hitting_time(coin_space, ["T"], 8)
        assert precise_expectation(biased_coin, tau) == pytest.approx(
            precise_expectation(biased_coin, tau.to_dense()), abs=1e-12
        )


class TestEnvelope:
    def test_singleton_collapses_to_precise(self, coin_space, biased_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        q = biased_coin.to_imprecise()
        env = envelope_sup(q, f)
        assert env.count == 1
        assert env.value == pytest.approx(0.36, abs=1e-12)

    def test_imprecise_coin_exhaustive(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        env = envelope_sup(imprecise_coin, f)
        assert env.count == 8
        assert env.value == pytest.approx(0.36, abs=1e-12)
        # the maximizing selection plays the heads-heavy point where it matters
        assert env.argmax[()] == 1 and env.argmax[(0,)] == 1

    def test_argmax_is_decoded_when_first_read(self, coin_space, imprecise_coin, monkeypatch):
        decoded = []
        decode = oracle._Plan.decode

        def counted(plan, idx, t):
            decoded.append(idx)
            return decode(plan, idx, t)

        monkeypatch.setattr(oracle._Plan, "decode", counted)
        env = envelope_sup(imprecise_coin, expr_gamble("ind(X[1]==H && X[2]==H)", coin_space))
        assert env.value == pytest.approx(0.36, abs=1e-12) and not decoded
        assert env.argmax[()] == 1 and env.argmax[(0,)] == 1
        reads = len(decoded)  # every level's decoder, once
        assert reads and env.argmax is env.argmax and len(decoded) == reads

    def test_upper_dominates_conjugate_lower(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H) - 2 * ind(X[2]==T)", coin_space)
        up = envelope_sup(imprecise_coin, f).value
        lo = -envelope_sup(imprecise_coin, -1.0 * f).value
        assert lo <= up + 1e-12

    def test_matches_object_level_enumeration(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            k = 2
            tree = random_tree(rng, k, max_points=2, table_depth=2, selection_budget=512)
            f = random_gamble(rng, k, 2)
            env = envelope_sup(tree, f)
            brute = max(
                precise_expectation(p, f) for p in enumerate_compatible(tree, 2)
            )
            assert env.value == pytest.approx(brute, abs=1e-10)

    def test_agrees_with_recursion(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            k = int(rng.choice([2, 3]))
            depth = int(rng.integers(1, 4))
            tree = random_tree(rng, k, max_points=3, table_depth=depth, selection_budget=4096)
            f = random_gamble(rng, k, depth)
            s = random_situation(rng, k, 1)
            env = envelope_sup(tree, f, s)
            assert env.value == pytest.approx(finitary_upper(tree, f, s), abs=1e-9)

    def test_conditioning_below_depth(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H)", coin_space)
        env = envelope_sup(imprecise_coin, f, (0, 1))
        assert env.count == 1 and env.value == 1.0

    def test_cap_enforced(self, imprecise_coin):
        f = random_gamble(np.random.default_rng(0), 2, 3)
        with pytest.raises(ResourceLimitError):
            envelope_sup(imprecise_coin, f, cap=10)

    def test_cap_message_names_the_cap(self, imprecise_coin):
        # 2**32767 selections: a count of 9864 digits, past the 4300 that
        # Python converts to a string.
        f = random_gamble(np.random.default_rng(0), 2, 15)
        with pytest.raises(ResourceLimitError, match=r"^enumerating compatible selections exceeds the cap of 200000$"):
            envelope_sup(imprecise_coin, f)

    def test_only_enumeration(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H)", coin_space)
        assert envelope_sup(imprecise_coin, f, method="enumerate").count == 2
        with pytest.raises(InvalidInputError, match="unknown envelope method 'recursion'"):
            envelope_sup(imprecise_coin, f, method="recursion")

    def test_deep_machine_gamble_is_a_size_error(self, coin_space, imprecise_coin):
        # 2**20000 cells: a count Python cannot format as a string.
        g = hitting_time_variable(coin_space, ["T"]).generator(20000)
        with pytest.raises(ResourceLimitError, match=r"^table of depth 20000 exceeds the \d+ axes NumPy allows$"):
            envelope_sup(imprecise_coin, g)

    def test_selection_tree_realizes_argmax(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        env = envelope_sup(imprecise_coin, f)
        p = selection_tree(imprecise_coin, env.argmax)
        assert is_compatible(p, imprecise_coin, 2)
        assert precise_expectation(p, f) == pytest.approx(env.value, abs=1e-12)


class TestEnvelopeAxioms:
    def test_identities_hold_for_the_envelope_itself(self):
        from property_suites import envelope_axiom_suite

        report = envelope_axiom_suite(seed=51, trials=25)
        assert report.passed, report.failures[:3]


class TestDomination:
    def test_fair_sample_below_imprecise_upper(self, coin_space, imprecise_coin, fair_coin):
        v = hitting_time_variable(coin_space, ["T"])
        report = domination_check(
            imprecise_coin, v, (), [fair_coin], Policy(tol=1e-12, max_horizon=80)
        )
        assert report.passed
        assert report.samples[0].limit.value == pytest.approx(2.0, abs=1e-9)
        assert report.upper.value == pytest.approx(2.5, abs=1e-8)

    def test_random_samples_dominate(self, coin_space, imprecise_coin):
        rng = np.random.default_rng(37)
        v = hitting_time_variable(coin_space, ["T"])
        samples = sample_compatible(imprecise_coin, 3, 10, rng)
        report = domination_check(
            imprecise_coin, v, (), samples, Policy(tol=1e-12, max_horizon=80)
        )
        assert report.passed
        assert all(s.ok for s in report.samples)

    def test_variable_on_another_state_space_rejected(self, imprecise_coin, fair_coin):
        v = hitting_time_variable(StateSpace(("A", "B", "C")), ["C"])
        with pytest.raises(InvalidInputError, match="gamble and tree live on different state spaces"):
            domination_check(imprecise_coin, v, (), [fair_coin])

    def test_adversarial_sample_closes_gap(self, coin_space, imprecise_coin):
        v = hitting_time_variable(coin_space, ["T"])
        adv = adversarial_selection(imprecise_coin, v.generator(80))
        report = domination_check(
            imprecise_coin, v, (), [adv], Policy(tol=1e-13, max_horizon=90)
        )
        assert report.passed
        assert abs(report.min_gap()) < 1e-6

    def test_compares_against_the_solved_limit(self):
        # Value iteration stops on the plateau 0.5: one root choice hits T
        # in one step or never, the other walks to A, which hits T only
        # eventually.  The tree that walks to A hits T almost surely.
        space = StateSpace(("A", "B", "T"))
        q = ImpreciseTree(space, Markov(
            CredalSet(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])),
            tuple(CredalSet(np.array([p])) for p in ([0.6, 0.0, 0.4], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])),
        ))
        v = hitting_event_variable(space, ["T"])
        report = domination_check(q, v, (), [selection_tree(q, {(): 1})])
        assert report.upper.value == 1.0 and report.upper.stop_reason is StopReason.SOLVED
        assert report.samples[0].limit.value == pytest.approx(1.0, abs=1e-8)
        assert report.passed

    def test_precise_limit_iterates_are_precise_expectations(self):
        rng = np.random.default_rng(44)
        for trial in range(12):
            k = int(rng.integers(2, 4))
            q = random_tree(rng, k)
            space = q.state_space
            p = sample_compatible(q, int(rng.integers(0, 3)), 1, rng)[0] if trial % 2 else random_precise_tree(rng, k)
            s = random_situation(rng, k, 3)
            make = hitting_time_variable if trial % 3 else hitting_event_variable
            v = make(space, [int(rng.integers(0, k))])
            policy = Policy(tol=1e-12, max_horizon=int(rng.integers(1, 25)), start_index=int(rng.integers(0, 5)))
            res = oracle._precise_limit(p, v, s, policy)
            assert res.iterates[0][0] == policy.start_index
            for m, val in res.iterates:
                assert val == precise_expectation(p, v.generator(m), s), (trial, m)

    def test_incompatible_sample_rejected(self, coin_space, imprecise_coin):
        outside = PreciseTree(
            coin_space, Homogeneous(MassFunction(np.array([0.9, 0.1])))
        )
        v = hitting_time_variable(coin_space, ["T"])
        with pytest.raises(InvalidInputError):
            domination_check(imprecise_coin, v, (), [outside])


def test_oracle_uses_no_private_engine_name():
    # The oracle cross-checks the engine, so it must not share its internals.
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("engine", "iptree.engine"):
            assert not [a.name for a in node.names if a.name.startswith("_")]
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "engine":
            assert not node.attr.startswith("_")


def reference_enumerate_values(q, table, t):
    """The reference enumeration: one call per situation down to the
    payoffs, each reading its extreme points through ``local_model``, as
    ``envelope_sup`` computed them before it walked tree states."""
    if table.ndim == 0:
        return np.asarray([float(table)]), lambda idx: {}
    k = q.k
    points = local_model(q, t).points
    children = [reference_enumerate_values(q, table[y], t + (y,)) for y in range(k)]
    child_vals = [c[0] for c in children]
    dims = (points.shape[0],) + tuple(v.size for v in child_vals)
    acc = np.zeros(dims)
    for y in range(k):
        shape = [1] * (k + 1)
        shape[0] = dims[0]
        weight = points[:, y].reshape(shape)
        shape = [1] * (k + 1)
        shape[y + 1] = dims[y + 1]
        acc = acc + weight * child_vals[y].reshape(shape)

    def decode(idx):
        combo = np.unravel_index(idx, dims)
        choices = {t: int(combo[0])}
        for y in range(k):
            choices.update(children[y][1](int(combo[y + 1])))
        return choices

    return acc.reshape(-1), decode


def reference_envelope(q, f, s, cap):
    """``(value, count, argmax)`` of the reference enumeration, after the
    reference count over every situation shorter than the depth."""
    dense = f.to_dense()
    count = 1
    for t in all_situations(q.k, max(dense.depth - 1, 0)):
        if len(s) <= len(t) < dense.depth and t[: len(s)] == s:
            count *= local_model(q, t).n_points
            if count > cap:
                raise ResourceLimitError(f"enumerating compatible selections exceeds the cap of {cap}")
    if len(s) >= dense.depth:
        return float(dense.table[s[: dense.depth]]), 1, {}
    values, decode = reference_enumerate_values(q, np.asarray(dense.table[s], dtype=float), s)
    best = int(np.argmax(values))
    return float(values[best]), values.size, decode(best)


def reference_cases():
    """Random (tree, gamble, situation) cases: imprecise homogeneous,
    Markov and table trees (table entries of 1-3 points, so sibling
    subtrees differ in shape), precise trees viewed as imprecise ones,
    depths 1-3 with k = 2, 3, 4 and situations of every length up to
    depth + 1; then a one-state model at the deepest table NumPy allows."""
    rng = np.random.default_rng(68)
    for case in range(320):
        k = (2, 3, 4)[case % 3]
        depth = 1 + case // 3 % 3
        if case % 4 == 3:
            tree = random_precise_tree(rng, k, table_depth=depth).to_imprecise()
        else:
            tree = random_tree(rng, k, max_points=3, table_depth=depth, selection_budget=2048)
        n = case // 9 % (depth + 2)
        yield tree, random_gamble(rng, k, depth), tuple(int(y) for y in rng.integers(0, k, size=n))
    one = ImpreciseTree(StateSpace(("A",)), Homogeneous(CredalSet(np.array([[1.0]]))))
    for n in (0, 1, 63, 64, 65):
        yield one, FinitaryGamble(1, rng.uniform(-5, 5, size=(1,) * MAX_TABLE_DEPTH)), (0,) * n


class TestEnumerationReference:
    def test_envelope_is_the_reference_bit_for_bit(self):
        kinds = set()
        for tree, f, s in reference_cases():
            kinds.add(type(tree.assignment).__name__)
            value, count, argmax = reference_envelope(tree, f, s, DEFAULT_ENUM_CAP)
            env = envelope_sup(tree, f, s)
            assert (repr(env.value), env.count) == (repr(value), count), (tree, s)
            assert list(env.argmax.items()) == list(argmax.items())
        assert kinds == {"Homogeneous", "Markov", "Table", "_SingletonView"}

    def test_cap_trips_where_the_reference_trips(self):
        for tree, f, s in itertools.islice(reference_cases(), 0, None, 4):
            count = reference_envelope(tree, f, s, DEFAULT_ENUM_CAP)[1]
            for cap in (count - 1, count, count + 1):
                try:
                    expected = repr(reference_envelope(tree, f, s, cap)[0])
                except ResourceLimitError as exc:
                    expected = str(exc)
                try:
                    got = repr(envelope_sup(tree, f, s, cap=cap).value)
                except ResourceLimitError as exc:
                    got = str(exc)
                assert got == expected, (tree, s, cap)

    def test_one_tree_serves_calls_in_any_order(self):
        # Plans are kept on the tree per (tree state, levels below it), so a
        # call must match the reference whatever calls came before it: the
        # same state at other depths, and a smaller cap on a stored plan.
        rng = np.random.default_rng(70)
        kinds = set()
        for case in range(18):
            k = (2, 3)[case % 2]
            tree = random_tree(rng, k, max_points=3, table_depth=3, selection_budget=2048)
            kinds.add(type(tree.assignment).__name__)
            calls = []
            for depth in (1, 2, 3):
                for n in range(depth + 2):
                    s = tuple(int(y) for y in rng.integers(0, k, size=n))
                    f = random_gamble(rng, k, depth)
                    count = reference_envelope(tree, f, s, DEFAULT_ENUM_CAP)[1]
                    calls += [(f, s, cap) for cap in (DEFAULT_ENUM_CAP, count + 1, count, count - 1)]
            calls = [calls[i] for i in rng.permutation(len(calls))]
            f, s = calls[0][:2]
            count = reference_envelope(tree, f, s, DEFAULT_ENUM_CAP)[1]
            calls += [(f, s, count + 1), (f, s, count - 1)]
            for f, s, cap in calls:
                try:
                    value, count, argmax = reference_envelope(tree, f, s, cap)
                except ResourceLimitError as exc:
                    with pytest.raises(ResourceLimitError) as got:
                        envelope_sup(tree, f, s, cap=cap)
                    assert str(got.value) == str(exc)
                    continue
                env = envelope_sup(tree, f, s, cap=cap)
                assert (repr(env.value), env.count) == (repr(value), count), (tree, s, cap)
                assert list(env.argmax.items()) == list(argmax.items())
        assert kinds == {"Homogeneous", "Markov", "Table"}

    def test_plans_live_as_long_as_the_tree(self):
        doc = dump_model(random_tree(np.random.default_rng(71), 2, table_depth=3, selection_budget=2048))
        tree = load_model(doc)
        assert tree.assignment.plans == {}
        model_oracle_suite(tree, seed=3, trials=10)
        assert tree.assignment.plans
        assert load_model(doc).assignment.plans == {}

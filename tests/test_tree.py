import math
from dataclasses import replace

import numpy as np
import pytest

import iptree.tree as tree_module
from iptree.errors import InvalidInputError, ResourceLimitError
from iptree.local import CredalSet, MassFunction, StateSpace
from iptree.tree import (
    Homogeneous,
    ImpreciseTree,
    Markov,
    PreciseTree,
    Selection,
    Table,
    all_situations,
    as_situation,
    enumerate_compatible,
    format_situation,
    in_convex_hull,
    is_compatible,
    local_model,
    parse_situation,
    product_closure,
    situation_selection,
    situation_strings,
    trie_position,
    trie_situation,
    trie_step,
)


def credal(*rows):
    return CredalSet(np.array(rows, dtype=float))


def selections(tree, depth):
    """Extreme-point selections over the situations of length < depth."""
    return math.prod(local_model(tree, s).n_points for s in all_situations(tree.k, depth - 1))


@pytest.fixture
def space():
    return StateSpace(("a", "b"))


class TestSituations:
    def test_validation(self):
        assert as_situation([0, 1, 0], 2) == (0, 1, 0)
        with pytest.raises(InvalidInputError):
            as_situation([0, 2], 2)

    def test_parse_format_round_trip(self, space):
        for text in ("", "a", "a,b,b"):
            assert format_situation(space, parse_situation(space, text)) == text

    @pytest.mark.parametrize("text, label", [("c", "c"), ("a,c,d", "c"), ("a,,b", ""), (",", ""), ("a b", "a b")])
    def test_parse_names_the_first_unknown_label(self, space, text, label):
        with pytest.raises(InvalidInputError) as exc:
            parse_situation(space, text)
        assert str(exc.value) == f"unknown state label {label!r}; states are ['a', 'b']"

    @pytest.mark.parametrize("labels", [("a", "b"), ("x", "yy", "z"), ("", "a"), ("a,b", "c"), ("q",)])
    def test_situation_strings_in_level_order(self, labels):
        space = StateSpace(labels)
        for depth in range(4):
            want = [format_situation(space, s) for s in all_situations(space.size, depth)]
            assert situation_strings(space, depth) == want


class TestLocalModel:
    def test_homogeneous(self, space):
        c = credal([0.4, 0.6], [0.6, 0.4])
        tree = ImpreciseTree(space, Homogeneous(c))
        for s in ((), (0,), (1, 0, 1)):
            assert local_model(tree, s) is c

    def test_markov_last_state_rule(self, space):
        ca, cb, root = credal([0.9, 0.1]), credal([0.1, 0.9]), credal([0.5, 0.5])
        tree = ImpreciseTree(space, Markov(root, (ca, cb)))
        assert local_model(tree, ()) is root
        assert local_model(tree, (0, 1)) is cb
        assert local_model(tree, (1, 0)) is ca

    def test_table_with_default(self, space):
        c0, c1 = credal([0.5, 0.5]), credal([0.2, 0.8])
        tree = ImpreciseTree(space, Table(1, {(0,): c1}, c0))
        assert local_model(tree, (0,)) is c1
        assert local_model(tree, (1, 0)) is c0  # default fallback
        assert local_model(tree, ()) is c0

    def test_referential_transparency(self, space):
        tree = ImpreciseTree(space, Homogeneous(credal([0.4, 0.6], [0.6, 0.4])))
        assert local_model(tree, (0, 1)) is local_model(tree, (0, 1))

    def test_invalid_index_raises(self, space):
        tree = ImpreciseTree(space, Homogeneous(credal([0.5, 0.5])))
        with pytest.raises(InvalidInputError):
            local_model(tree, (2,))

    def test_table_entry_deeper_than_depth_rejected(self, space):
        with pytest.raises(InvalidInputError):
            Table(1, {(0, 1): credal([0.5, 0.5])}, credal([0.5, 0.5]))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0,): "leaf", (5,): None}, "imprecise tree expects CredalSet leaves"),
            ({(0,): None, (1, 2): None}, "state index 2 out of range for 2 states"),
            ({(-1,): None, (0,): "leaf"}, "state index -1 out of range for 2 states"),
            ({(0,): "wide"}, "local model over 3 states attached to a tree with 2 states"),
            ({(0,): "precise"}, "imprecise tree expects CredalSet leaves"),
        ],
    )
    def test_table_entries_are_checked_in_order(self, space, entries, message):
        # Keys and leaves are checked in one pass; a table that fails it
        # raises the first bad entry's message, key before leaf.
        leaves = {
            None: credal([0.5, 0.5]),
            "leaf": "not a model",
            "wide": credal([0.2, 0.3, 0.5]),
            "precise": MassFunction(np.array([0.5, 0.5])),
        }
        table = Table(2, {key: leaves[leaf] for key, leaf in entries.items()}, credal([0.5, 0.5]))
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            ImpreciseTree(space, table)

    def test_table_keys_need_only_equal_state_indices(self, space):
        c = credal([0.5, 0.5])
        tree = ImpreciseTree(space, Table(2, {(np.int64(1), 0): c, (1.0,): c}, c))
        assert local_model(tree, (1, 0)) is c

    def test_markov_needs_model_per_state(self, space):
        with pytest.raises(InvalidInputError):
            ImpreciseTree(space, Markov(credal([0.5, 0.5]), (credal([0.5, 0.5]),)))


class TestCompiledView:
    """Every assignment is read through its compiled ``step``/``leaf``/
    ``points`` arrays; the model of each situation must be the one the
    source object names, read here from its own fields."""

    @staticmethod
    def source_model(a, s):
        if isinstance(a, Homogeneous):
            return a.model
        if isinstance(a, Markov):
            return a.by_state[s[-1]] if s else a.root
        return a.entries.get(s, a.default) if len(s) <= a.depth else a.default

    @staticmethod
    def random_assignment(rng, k, kind, precise):
        def leaf():
            weights = rng.dirichlet(np.ones(k), size=1 if precise else int(rng.integers(1, 4)))
            return MassFunction(weights[0]) if precise else CredalSet(weights)

        if kind == "homogeneous":
            return Homogeneous(leaf())
        if kind == "markov":
            return Markov(leaf(), tuple(leaf() for _ in range(k)))
        depth = int(rng.integers(0, 4))
        keys = [s for s in all_situations(k, depth) if rng.uniform() < 0.6]
        rng.shuffle(keys)
        return Table(depth, {tuple(s): leaf() for s in keys}, leaf())

    @pytest.mark.parametrize("seed", range(40))
    def test_every_situation_reads_its_source_model(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        space = StateSpace(("a", "b", "c")[:k])
        precise = seed % 2 == 1
        a = self.random_assignment(rng, k, ("homogeneous", "markov", "table")[seed % 3], precise)
        tree = (PreciseTree if precise else ImpreciseTree)(space, a)
        depth = a.depth + 1 if isinstance(a, Table) else 3
        for s in all_situations(k, depth):
            assert local_model(tree, s) is self.source_model(a, s)
        assert a.points.shape[1] == (1 if precise else max(m.n_points for m in a.models))
        assert a.step.shape[1] == k and a.leaf.shape == (len(a.step),)

    @pytest.mark.parametrize("seed", range(24))
    def test_a_table_of_the_first_situations_is_the_trie_order(self, seed):
        # Entries for the first n situations, shortest first and
        # lexicographic (every one up to the depth, or the last level cut
        # short), in any order: the states are those situations and the
        # default, and every situation reads its source model.
        rng = np.random.default_rng(seed)
        k, depth = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        first = list(all_situations(k, depth))
        n = len(first) if seed % 2 else int(rng.integers(1, len(first) + 1))
        keys = first[:n]
        rng.shuffle(keys)
        leaf = lambda: CredalSet(rng.dirichlet(np.ones(k), size=int(rng.integers(1, 4))))
        a = Table(depth, {s: leaf() for s in keys}, leaf())
        tree = ImpreciseTree(StateSpace(("a", "b", "c")[:k]), a)
        for s in all_situations(k, depth + 1):
            assert local_model(tree, s) is self.source_model(a, s)
        assert len(a.step) == n + 1
        assert a.step[n].tolist() == [n] * k  # the default state loops

    def test_a_tables_states_are_the_prefixes_of_its_keys(self, space):
        c = credal([0.5, 0.5])
        a = Table(9, {(1, 1, 0): c, (0,): c}, c)
        ImpreciseTree(space, a)
        # (), (0,), (1,), (1, 1), (1, 1, 0), then the default state
        assert a.step.tolist() == [[1, 2], [5, 5], [5, 3], [4, 5], [5, 5], [5, 5]]
        assert a.leaf.tolist() == [0, 2, 0, 0, 1, 0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trie_positions_number_the_trie_step_states(self, k):
        # Both directions agree with the trie they name: a situation's
        # position is the state its path from the root reaches, and the
        # positions run through the situations in order.
        step, _ = trie_step(k, 3)
        for p, s in enumerate(all_situations(k, 3)):
            state = 0
            for y in s:
                state = step[state, y]
            assert trie_position(k, s) == state == p
            assert trie_situation(k, p) == s


class TestHullMembership:
    def test_extreme_points_are_members(self):
        v = np.array([[0.4, 0.6], [0.6, 0.4]])
        assert in_convex_hull(v[0], v)
        assert in_convex_hull(v[1], v)

    def test_midpoint_is_member(self):
        v = np.array([[0.4, 0.6], [0.6, 0.4]])
        assert in_convex_hull(np.array([0.5, 0.5]), v)

    def test_outside_point_rejected(self):
        v = np.array([[0.4, 0.6], [0.6, 0.4]])
        assert not in_convex_hull(np.array([0.7, 0.3]), v)

    def test_three_state_simplex(self):
        v = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        assert in_convex_hull(np.array([0.3, 0.3, 0.4]), v)
        assert not in_convex_hull(
            np.array([0.3, 0.3, 0.4]), np.array([[1.0, 0, 0], [0, 1.0, 0]])
        )


class TestCompatibility:
    def test_extreme_selection_is_compatible(self, imprecise_coin):
        for p in enumerate_compatible(imprecise_coin, 2):
            assert is_compatible(p, imprecise_coin, 2)

    def test_midpoint_tree_is_compatible(self, imprecise_coin):
        mid = PreciseTree(
            imprecise_coin.state_space, Homogeneous(MassFunction(np.array([0.5, 0.5])))
        )
        assert is_compatible(mid, imprecise_coin, 4)

    def test_outside_tree_rejected(self, imprecise_coin):
        out = PreciseTree(
            imprecise_coin.state_space, Homogeneous(MassFunction(np.array([0.7, 0.3])))
        )
        assert not is_compatible(out, imprecise_coin, 2)

    def test_counts(self, space, imprecise_coin):
        assert selections(imprecise_coin, 1) == 2
        assert selections(imprecise_coin, 2) == 8
        assert len(list(enumerate_compatible(imprecise_coin, 2))) == 8

    def test_singleton_model_gives_one_tree(self, space):
        tree = ImpreciseTree(space, Homogeneous(credal([0.5, 0.5])))
        assert selections(tree, 3) == 1
        assert len(list(enumerate_compatible(tree, 3))) == 1

    def test_cap_exceeded_names_cap(self, imprecise_coin):
        with pytest.raises(ResourceLimitError, match=r"^enumerating compatible trees exceeds the cap of 7$"):
            list(enumerate_compatible(imprecise_coin, 2, cap=7))

    def test_cap_trips_before_the_count_grows(self, imprecise_coin):
        # 2**(2**13 - 1) selections: the exact count has 2466 digits.
        assert len(str(selections(imprecise_coin, 13))) == 2466
        with pytest.raises(ResourceLimitError, match=r"the cap of 200000$"):
            next(enumerate_compatible(imprecise_coin, 13))

    def test_selections_distinct(self, imprecise_coin):
        seen = set()
        for p in enumerate_compatible(imprecise_coin, 2):
            key = tuple(
                tuple(local_model(p, s).weights) for s in ((), (0,), (1,))
            )
            assert key not in seen
            seen.add(key)
        assert len(seen) == 8


class TestSelection:
    """One assignment type serves every compatible precise tree: mass
    functions chosen at nodes of (level, base state, automaton state)."""

    def test_named_situations_and_the_first_point_elsewhere(self, space, imprecise_coin):
        low, high = (MassFunction(p) for p in imprecise_coin.assignment.model.points)
        mid = MassFunction(np.array([0.5, 0.5]))
        p = situation_selection(imprecise_coin, {(): mid, (1, 0): high})
        assert local_model(p, ()) is mid and local_model(p, [1, 0]) is high
        for s in ((0,), (1,), (0, 0), (1, 0, 0), (1, 0, 1, 1)):
            assert local_model(p, s) == low
        # Deeper than the longest key the view stops growing.
        a = p.assignment
        reached = {a.machine_init(())}
        for _ in range(6):
            reached |= {a.machine_step(t, y) for t in reached for y in range(2)}
        assert len(reached) == 1 + 2 + 4 + 1

    @pytest.mark.parametrize(
        "choices, message",
        [
            ({(2,): MassFunction(np.array([0.5, 0.5]))}, "state index 2 out of range for 2 states"),
            ({(): MassFunction(np.array([0.2, 0.3, 0.5]))}, "local model over 3 states attached to a tree with 2 states"),
            ({(0,): credal([0.5, 0.5])}, "precise tree expects MassFunction leaves"),
        ],
        ids=["key", "choice-size", "choice-type"],
    )
    def test_keys_and_choices_are_checked(self, imprecise_coin, choices, message):
        with pytest.raises(InvalidInputError, match=message):
            situation_selection(imprecise_coin, choices)

    @pytest.mark.parametrize(
        "base, message",
        [
            (Homogeneous(credal([0.2, 0.3, 0.5])), "local model over 3 states attached to a tree with 2 states"),
            (Markov(credal([0.5, 0.5]), (credal([0.5, 0.5]), MassFunction(np.array([0.5, 0.5])))),
             "imprecise tree expects CredalSet leaves"),
            (Markov(MassFunction(np.array([0.5, 0.5])), (credal([0.5, 0.5]),) * 2),
             "precise tree expects MassFunction leaves"),
            ("base", "unknown assignment type str"),
        ],
        ids=["size", "imprecise-mixed", "precise-mixed", "unknown"],
    )
    def test_base_is_checked_against_its_leaf_type(self, space, base, message):
        with pytest.raises(InvalidInputError, match=message):
            PreciseTree(space, Selection(base, np.zeros((1, 2), dtype=int), 0, {}))

    @pytest.mark.parametrize(
        "step, depth",
        [
            (np.array([[0, 2], [1, 0]]), 1),
            (np.array([[0, -1]]), 1),
            (np.array([[0.0, 0.0]]), 1),
            (np.zeros((1, 3), dtype=int), 1),
            (np.zeros((0, 2), dtype=int), 1),
            (np.zeros((1, 2), dtype=int), -1),
        ],
        ids=["beyond", "negative", "float", "width", "empty", "depth"],
    )
    def test_automaton_is_checked(self, space, step, depth):
        with pytest.raises(InvalidInputError, match="a selection needs a depth >= 0"):
            PreciseTree(space, Selection(Homogeneous(credal([0.5, 0.5])), step, depth, {}))

    @pytest.mark.parametrize("seed", range(48))
    def test_every_situation_reads_its_choice_or_the_first_point(self, seed):
        # Read from ``choices`` and the base's source models, not from the
        # selection's compiled arrays, to depth + 2.
        from iptree.engine import adversarial_selection
        from iptree.gambles import FinitaryGamble, truncated_hitting_time

        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        space = StateSpace(("a", "b", "c")[:k])
        precise = seed % 4 == 3
        base = TestCompiledView.random_assignment(rng, k, ("homogeneous", "markov", "table")[seed % 3], precise)
        tree = (PreciseTree if precise else ImpreciseTree)(space, base)
        if seed % 4 == 1:
            situations = [s for s in all_situations(k, 2) if rng.uniform() < 0.5]
            sel = situation_selection(tree, {s: MassFunction(local_model(tree, s).points[-1]) for s in situations})
        elif seed % 4 == 2:  # any automaton, choices at any node, past the depth too
            n_q, depth = int(rng.integers(1, 4)), int(rng.integers(0, 3))
            a = Selection(base, rng.integers(0, n_q, size=(n_q, k)), depth, {})
            nodes = {a.node(s) for s in all_situations(k, depth + 2) if rng.uniform() < 0.3}
            sel = PreciseTree(space, replace(a, choices={n: MassFunction(rng.dirichlet(np.ones(k))) for n in nodes}))
        else:
            depth = int(rng.integers(0, 4))
            f = FinitaryGamble(k, rng.uniform(-1, 1, size=(k,) * depth)) if seed % 2 else truncated_hitting_time(space, [0], depth + 1)
            sel = adversarial_selection(tree, f, tuple(int(y) for y in rng.integers(0, k, size=int(rng.integers(0, 3)))))
        a = sel.assignment
        for s in all_situations(k, a.depth + 2):
            got, chosen = local_model(sel, s), a.choices.get(a.node(s))
            if chosen is not None:
                assert got is chosen
            else:
                source = TestCompiledView.source_model(base, s)
                assert got.weights.tobytes() == (source.weights if precise else source.points[0]).tobytes()

    def test_compiling_takes_memory_in_proportion_to_the_nodes(self):
        # A dense gamble as deep as a full table: its 1024 last-level pairs
        # each reach two base states, while a lookup over every reachable
        # base state and every held automaton state would take 8 MB.
        import tracemalloc

        from iptree.engine import adversarial_selection
        from iptree.gambles import FinitaryGamble

        rng = np.random.default_rng(0)
        k, depth = 4, 5
        entries = {s: CredalSet(rng.dirichlet(np.ones(k), size=2)) for s in all_situations(k, depth)}
        tree = ImpreciseTree(StateSpace(tuple("abcd")), Table(depth, entries, credal([0.25] * 4)))
        tree.assignment._arrays
        a = adversarial_selection(tree, FinitaryGamble(k, rng.uniform(size=(k,) * depth))).assignment
        tracemalloc.start()
        try:
            a._arrays
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a.step) == 1 + 4 + 16 + 64 + 256 + 2 * 1024
        assert peak < 2e6

    def test_precise_base_and_no_credal_view(self, space, biased_coin):
        p = PreciseTree(space, Selection(biased_coin.assignment, np.zeros((1, 2), dtype=int), 0, {}))
        assert local_model(p, (0, 1)) is biased_coin.assignment.model
        with pytest.raises(InvalidInputError, match="imprecise tree expects CredalSet leaves"):
            ImpreciseTree(space, p.assignment)


class TestProductClosure:
    @pytest.mark.parametrize("seed", range(24))
    def test_both_lookups_number_alike(self, monkeypatch, seed):
        # A lookup array over every pair, and a search among the pairs met.
        rng = np.random.default_rng(seed)
        n_t, n_q, k = (int(x) for x in rng.integers(1, 12, size=3))
        t_step, q_step = rng.integers(0, n_t, size=(n_t, k)), rng.integers(0, n_q, size=(n_q, k))
        block = rng.permutation(n_t * n_q)[: int(rng.integers(1, 6))]
        dense = product_closure(t_step, q_step, block)
        monkeypatch.setattr(tree_module, "DENSE_PAIRS", 0)
        for a, b in zip(dense, product_closure(t_step, q_step, block)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(dense[1][: len(block)] * n_q + dense[2][: len(block)], block)


class TestSingletonView:
    def test_precise_tree_as_imprecise(self, space):
        p = PreciseTree(space, Homogeneous(MassFunction(np.array([0.3, 0.7]))))
        q = p.to_imprecise()
        leaf = local_model(q, (0, 1))
        assert leaf.n_points == 1
        assert np.allclose(leaf.points[0], [0.3, 0.7])


class TestModelJson:
    def test_round_trip_all_kinds(self):
        import numpy as np

        from iptree.modelio import dump_model, load_model
        from iptree.suites import random_tree

        rng = np.random.default_rng(41)
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(2, 4)))
            doc = dump_model(tree)
            again = load_model(doc)
            assert dump_model(again) == doc

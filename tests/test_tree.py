import numpy as np
import pytest

from iptree.errors import InvalidInputError, ResourceLimitError
from iptree.local import CredalSet, MassFunction, StateSpace
from iptree.tree import (
    Homogeneous,
    ImpreciseTree,
    Markov,
    PreciseTree,
    Table,
    all_situations,
    as_situation,
    count_compatible,
    enumerate_compatible,
    format_situation,
    in_convex_hull,
    is_compatible,
    local_model,
    parse_situation,
    situation_strings,
)


def credal(*rows):
    return CredalSet(np.array(rows, dtype=float))


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
        assert count_compatible(imprecise_coin, 1) == 2
        assert count_compatible(imprecise_coin, 2) == 8
        assert len(list(enumerate_compatible(imprecise_coin, 2))) == 8

    def test_singleton_model_gives_one_tree(self, space):
        tree = ImpreciseTree(space, Homogeneous(credal([0.5, 0.5])))
        assert count_compatible(tree, 3) == 1
        assert len(list(enumerate_compatible(tree, 3))) == 1

    def test_cap_exceeded_names_count(self, imprecise_coin):
        with pytest.raises(ResourceLimitError, match="8"):
            list(enumerate_compatible(imprecise_coin, 2, cap=7))

    def test_selections_distinct(self, imprecise_coin):
        seen = set()
        for p in enumerate_compatible(imprecise_coin, 2):
            key = tuple(
                tuple(local_model(p, s).weights) for s in ((), (0,), (1,))
            )
            assert key not in seen
            seen.add(key)
        assert len(seen) == 8


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

"""Hitting limits solved on the product closure: ``engine.limit_bounds``."""

from dataclasses import replace

import numpy as np
import pytest

import iptree.engine as engine
from iptree.engine import (
    Policy,
    StopReason,
    limit_bounds,
    limit_lower,
    limit_upper,
    lower_probability,
    upper_probability,
)
from iptree.errors import MonotonicityError
from iptree.extreal import INF
from iptree.gambles import (
    Direction,
    Hitting,
    LimitVariable,
    MachineGamble,
    hitting_event_variable,
    hitting_time_variable,
)
from iptree.local import CredalSet, StateSpace
from iptree.suites import random_credal, random_space
from iptree.tree import Homogeneous, ImpreciseTree, Markov, Table, all_situations

KINDS = (hitting_time_variable, hitting_event_variable)


def credal(*points) -> CredalSet:
    return CredalSet(np.array(points, dtype=float))


def homogeneous(space, *points) -> ImpreciseTree:
    return ImpreciseTree(space, Homogeneous(credal(*points)))


def random_tree(rng, k: int, kind: int) -> ImpreciseTree:
    space = random_space(k)
    if kind == 0:
        return ImpreciseTree(space, Homogeneous(random_credal(rng, k)))
    if kind == 1:
        return ImpreciseTree(space, Markov(random_credal(rng, k), tuple(random_credal(rng, k) for _ in range(k))))
    entries = {s: random_credal(rng, k) for s in all_situations(k, 2)}
    return ImpreciseTree(space, Table(2, entries, random_credal(rng, k)))


def solved(res) -> bool:
    return res.stop_reason is StopReason.SOLVED and res.converged


class TestExactValues:
    def test_coin(self, coin_space, imprecise_coin):
        for make, want in zip(KINDS, ((2.5, 5.0 / 3.0), (1.0, 1.0))):
            upper, lower = limit_bounds(imprecise_coin, make(coin_space, ["T"]))
            assert upper.value == pytest.approx(want[0], rel=1e-12, abs=0)
            assert lower.value == pytest.approx(want[1], rel=1e-12, abs=0)
            assert solved(upper) and solved(lower)

    def test_slow_chain(self, coin_space):
        # Target mass in [0.01, 0.03]: value iteration needs thousands of
        # iterates for what the solve gives at once.
        slow = homogeneous(coin_space, [0.99, 0.01], [0.97, 0.03])
        upper, lower = limit_bounds(slow, hitting_time_variable(coin_space, ["T"]))
        assert upper.value == pytest.approx(100.0, rel=1e-12, abs=0)
        assert lower.value == pytest.approx(100.0 / 3.0, rel=1e-12, abs=0)

    def test_a_mass_below_rounding(self, coin_space):
        # 1 - 1.0 is 0: the solve takes the mass that leaves a node, not one
        # minus the mass that stays, and 1e17 steps are 1e17 steps.
        tree = homogeneous(coin_space, [1.0, 1e-17])
        upper, lower = limit_bounds(tree, hitting_time_variable(coin_space, ["T"]))
        assert upper.value == lower.value == pytest.approx(1e17, rel=1e-12)

    def test_conditioning_counts_the_path(self, coin_space, imprecise_coin):
        time, prob = (make(coin_space, ["T"]) for make in KINDS)
        upper, lower = limit_bounds(imprecise_coin, time, (0, 0))
        assert (upper.value, lower.value) == pytest.approx((4.5, 2.0 + 5.0 / 3.0), rel=1e-12)
        # A hit on the path settles both values.
        for v, want in ((time, 2.0), (prob, 1.0)):
            upper, lower = limit_bounds(imprecise_coin, v, (0, 1, 0))
            assert upper.value == lower.value == want and solved(upper)


class TestGraphPass:
    """+inf times and 0 probabilities come out of the graph pass exactly."""

    def test_unreachable_target(self):
        space = StateSpace(("A", "B", "C"))
        tree = homogeneous(space, [0.5, 0.5, 0.0], [0.2, 0.8, 0.0])
        time, prob = (limit_bounds(tree, make(space, ["C"])) for make in KINDS)
        assert [r.value for r in time] == [INF, INF]
        assert [r.value for r in prob] == [0.0, 0.0]
        assert all(solved(r) for r in time + prob)

    @pytest.mark.parametrize("points", [([1.0, 0.0], [0.5, 0.5]), ([0.5, 0.5], [1.0, 0.0])])
    def test_a_point_that_avoids_the_target(self, coin_space, points):
        # Staying in H for good is one choice, hitting T almost surely another.
        # Listed first, the staying point is also the first greedy choice of
        # the largest hitting probability, which never leaves: it falls back.
        tree = homogeneous(coin_space, *points)
        upper, lower = limit_bounds(tree, hitting_event_variable(coin_space, ["T"]))
        assert (upper.value, lower.value) == (pytest.approx(1.0, rel=1e-12), 0.0)
        upper, lower = limit_bounds(tree, hitting_time_variable(coin_space, ["T"]))
        assert upper.value == INF
        assert lower.value == pytest.approx(2.0, rel=1e-12)

    def test_largest_probability_with_an_end_component(self):
        # A and B can pass the path back and forth for good, or each can
        # leave for T or the dead end C with equal chances.  Every value of
        # at least 0.5 solves the Bellman equation on {A, B}; the limit is
        # the least, 0.5.
        space = StateSpace(("A", "B", "C", "T"))
        leave = [0.0, 0.0, 0.5, 0.5]
        after = (
            credal([0.0, 1.0, 0.0, 0.0], leave),
            credal([1.0, 0.0, 0.0, 0.0], leave),
            credal([0.0, 0.0, 1.0, 0.0]),
            credal([0.0, 0.0, 0.0, 1.0]),
        )
        tree = ImpreciseTree(space, Markov(credal([1.0, 0.0, 0.0, 0.0]), after))
        v = hitting_event_variable(space, ["T"])
        upper, lower = limit_bounds(tree, v)
        assert (upper.value, lower.value) == (pytest.approx(0.5, rel=1e-12), 0.0)
        policy = Policy(tol=1e-13, max_horizon=50)
        assert limit_upper(tree, v, (), policy).value == pytest.approx(upper.value, rel=1e-12)
        time = [r.value for r in limit_bounds(tree, hitting_time_variable(space, ["T"]))]
        assert time == [INF, INF]

    def test_settled_without_a_linear_solve(self, coin_space, monkeypatch):
        # A sure-state process never leaves H, and every probability is 1
        # where no choice avoids the target: the graph pass alone decides.
        def no_solve(*args):
            raise AssertionError("no linear system should be solved")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        stuck = homogeneous(coin_space, [1.0, 0.0])
        assert [r.value for r in limit_bounds(stuck, hitting_time_variable(coin_space, ["T"]))] == [INF, INF]
        coin = homogeneous(coin_space, [0.4, 0.6], [0.6, 0.4])
        assert [r.value for r in limit_bounds(coin, hitting_event_variable(coin_space, ["T"]))] == [1.0, 1.0]


class TestCrossCheck:
    def test_agrees_with_long_value_iteration(self):
        # Iterates along the conditioning situation are settled and equal,
        # so value iteration starts at its last one, where it cannot stop
        # early.
        rng = np.random.default_rng(2019)
        compared = set()
        for trial in range(36):
            k, kind = int(rng.integers(2, 5)), trial % 3
            tree = random_tree(rng, k, kind)
            targets = [int(rng.integers(k))]
            s = tuple(int(x) for x in rng.integers(0, k, size=trial // 3 % 3))
            reference = Policy(tol=1e-13, max_horizon=20000, start_index=max(1, len(s)))
            for make in KINDS:
                v = make(tree.state_space, targets)
                for res, run in zip(limit_bounds(tree, v, s), (limit_upper, limit_lower)):
                    assert solved(res)
                    ref = run(tree, v, s, reference)
                    if ref.stop_reason is StopReason.STABILIZED:
                        assert res.value == pytest.approx(ref.value, rel=1e-9, abs=1e-12)
                        compared.add((kind, make, run, len(s) > 0))
        assert len(compared) == 3 * 2 * 2 * 2

    def test_never_below_a_horizon_on_sparse_models(self):
        # Local models with zero masses make traps and dead ends; the limit
        # still bounds every horizon value from above, and a probability
        # of 0 is a horizon value of 0.
        rng = np.random.default_rng(7)
        for trial in range(30):
            k = int(rng.integers(2, 5))
            space = random_space(k)
            sparse = []
            for _ in range(1 + k):
                points = rng.dirichlet(np.ones(k), size=int(rng.integers(1, 4)))
                points[rng.random(points.shape) < 0.4] = 0.0
                points[points.sum(axis=1) == 0.0, 0] = 1.0
                sparse.append(CredalSet(points / points.sum(axis=1, keepdims=True)))
            tree = ImpreciseTree(space, Markov(sparse[0], tuple(sparse[1:])))
            targets = [int(rng.integers(k))]
            for make in KINDS:
                v = make(space, targets)
                upper, lower = limit_bounds(tree, v)
                assert lower.value <= upper.value + 1e-9 * max(1.0, abs(upper.value))
                for res, run in ((upper, limit_upper), (lower, limit_lower)):
                    horizon = run(tree, v, (), Policy(start_index=200, max_horizon=1)).value
                    assert res.value >= horizon - 1e-9 * max(1.0, horizon)
                    if make is hitting_event_variable:
                        assert res.value <= 1.0 + 1e-9
                        assert res.value > 0.0 or horizon == 0.0

    def test_sparse_solve_equals_dense(self, monkeypatch):
        # k = 3 and a depth-5 table: hundreds of unknown nodes per side.
        rng = np.random.default_rng(11)
        space = random_space(3)
        entries = {s: random_credal(rng, 3) for s in all_situations(3, 5)}
        tree = ImpreciseTree(space, Table(5, entries, random_credal(rng, 3)))
        v = hitting_time_variable(space, [0])
        assert len(engine._closure(tree, v.automaton, ())[1]) > engine._DENSE_SOLVE
        sparse = limit_bounds(tree, v)
        monkeypatch.setattr(engine, "_DENSE_SOLVE", 10**6)
        dense = limit_bounds(tree, v)
        for a, b in zip(sparse, dense):
            assert a.value == pytest.approx(b.value, rel=1e-12)


class TestAuditTrail:
    def test_trail_is_the_audited_window(self, coin_space, imprecise_coin):
        v = hitting_time_variable(coin_space, ["T"])
        for audit, cap, start in ((4, 100, 1), (2, 100, 1), (4, 3, 1), (3, 100, 2)):
            policy = Policy(tol=1e-12, max_horizon=cap, monotone_audit=audit, start_index=start)
            upper, lower = limit_bounds(imprecise_coin, v, (), policy)
            window = replace(policy, max_horizon=min(cap, audit + 1))
            for res, ref in zip((upper, lower), (limit_upper(imprecise_coin, v, (), window),
                                                 limit_lower(imprecise_coin, v, (), window))):
                assert res.iterates == ref.iterates
                assert [m for m, _ in res.iterates] == list(range(start, start + min(cap, audit + 1)))

    def test_a_solve_below_an_iterate_raises(self, coin_space, imprecise_coin, monkeypatch):
        real = engine._hitting_values

        def low(*args):
            upper, lower = real(*args)
            return upper - 1.0, lower

        monkeypatch.setattr(engine, "_hitting_values", low)
        with pytest.raises(MonotonicityError, match=r"solved value 1\.5 lies below iterate 2 \(witness: 1\.6\)"):
            limit_bounds(imprecise_coin, hitting_time_variable(coin_space, ["T"]))

    def test_other_variables_fall_back_to_value_iteration(self, coin_space, imprecise_coin):
        steady = MachineGamble(2, 0, np.zeros((1, 2), dtype=int), np.array([[0.5, 1.0]]), np.zeros(1))
        hit = hitting_time_variable(coin_space, ["T"])
        policy = Policy(tol=1e-12, max_horizon=30)
        for v in (LimitVariable(steady, Direction.NON_DECREASING, 0.0), -hit):
            upper, lower = limit_bounds(imprecise_coin, v, (), policy)
            assert repr(upper) == repr(limit_upper(imprecise_coin, v, (), policy))
            assert repr(lower) == repr(limit_lower(imprecise_coin, v, (), policy))
            assert upper.lower is None and not solved(upper)




class TestPlateaus:
    """Equal iterates along the conditioning situation, or while a target
    is out of reach, are not a limit."""

    def test_hitting_event_given_a_situation_is_solved(self, coin_space, imprecise_coin):
        res = upper_probability(imprecise_coin, Hitting(("T",)), (0, 0))
        assert res.value == 1.0 and solved(res)

    def test_value_iteration_does_not_stop_along_the_situation(self, coin_space, imprecise_coin):
        res = limit_upper(imprecise_coin, hitting_event_variable(coin_space, ["T"]), (0, 0))
        assert res.iterates[:2] == ((1, 0.0), (2, 0.0))
        assert len(res.iterates) > 2 and res.stop_reason is StopReason.STABILIZED
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_target_out_of_reach_for_one_step(self, coin_space):
        # After a first H the lower side can keep T out of reach for a step,
        # so value iteration stops at 0.5; the limit is 1.
        half, sure_h = credal([0.5, 0.5]), credal([1.0, 0.0], [0.5, 0.5])
        tree = ImpreciseTree(coin_space, Table(1, {(): half, (0,): sure_h}, half))
        assert limit_lower(tree, hitting_event_variable(coin_space, ["T"])).value == 0.5
        lower = lower_probability(tree, Hitting(("T",)))
        assert repr(lower) == repr(limit_bounds(tree, hitting_event_variable(coin_space, ["T"]))[1])
        assert lower.value == pytest.approx(1.0, abs=1e-12) and solved(lower)

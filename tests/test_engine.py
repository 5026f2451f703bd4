import numpy as np
import pytest

from iptree.engine import (
    ApproxResult,
    Policy,
    StopReason,
    adversarial_selection,
    finitary_lower,
    finitary_upper,
    limit_lower,
    limit_upper,
    lower_probability,
    upper_probability,
    value_table,
)
from iptree.errors import InvalidInputError, MonotonicityError
from iptree.expr import compile_gamble, parse_gamble
from iptree.extreal import INF
from iptree.gambles import (
    Cylinder,
    Direction,
    FinitaryGamble,
    Hitting,
    LimitVariable,
    MachineGamble,
    UnionAtDepth,
    as_machine,
    hitting_event_variable,
    hitting_indicator,
    hitting_time_variable,
    pointwise_leq,
    truncated_hitting_time,
)
from iptree.local import CredalSet, upper_expectation
from iptree.oracle import precise_expectation
from iptree.suites import (
    degenerate_tree,
    random_credal,
    random_gamble,
    random_situation,
    random_space,
    random_tree,
)
from iptree.tree import Homogeneous, ImpreciseTree, Markov, Table, all_situations, local_model


def expr_gamble(source, space, **kw):
    return compile_gamble(parse_gamble(source, space), **kw)


def steady(reward: float) -> MachineGamble:
    """One-state coin automaton paying ``reward`` per step: m * reward at depth m."""
    return MachineGamble(2, 0, np.zeros((1, 2), dtype=int), np.full((1, 2), reward), np.zeros(1))


class TestFinitaryUpper:
    def test_fair_coin_one_step(self, coin_space, fair_coin):
        f = expr_gamble("ind(X[1]==H)", coin_space)
        assert finitary_upper(fair_coin, f) == 0.5

    def test_imprecise_coin_two_heads(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        # backward by hand: value at (H,) is 0.6, at (T,) is 0; root 0.6*0.6
        assert finitary_upper(imprecise_coin, f) == pytest.approx(0.36, abs=1e-12)
        assert finitary_upper(imprecise_coin, f, (0,)) == pytest.approx(0.6, abs=1e-12)
        assert finitary_upper(imprecise_coin, f, (1,)) == 0.0

    def test_conditioning_below_depth_reads_payoff(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        assert finitary_upper(imprecise_coin, f, (0, 0)) == 1.0
        assert finitary_upper(imprecise_coin, f, (0, 0, 1, 1)) == 1.0

    def test_lower_by_conjugacy(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H)", coin_space)
        assert finitary_lower(imprecise_coin, f) == pytest.approx(0.4, abs=1e-12)

    def test_constant_gamble(self, imprecise_coin):
        f = FinitaryGamble.constant(2, 7.25)
        assert finitary_upper(imprecise_coin, f) == 7.25
        assert finitary_lower(imprecise_coin, f) == 7.25

    def test_markov_tree_uses_last_state(self, coin_space):
        sticky = ImpreciseTree(
            coin_space,
            Markov(
                CredalSet(np.array([[0.5, 0.5]])),
                (
                    CredalSet(np.array([[0.9, 0.1]])),
                    CredalSet(np.array([[0.1, 0.9]])),
                ),
            ),
        )
        f = expr_gamble("ind(X[2]==H)", coin_space)
        assert finitary_upper(sticky, f, (0,)) == pytest.approx(0.9)
        assert finitary_upper(sticky, f, (1,)) == pytest.approx(0.1)
        assert finitary_upper(sticky, f) == pytest.approx(0.5)

    def test_state_space_mismatch(self, imprecise_coin):
        with pytest.raises(InvalidInputError):
            finitary_upper(imprecise_coin, FinitaryGamble(3, np.zeros((3,))))


class TestOneStepReduction:
    def test_exact_agreement_with_local_model(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(2, 4))
            tree = random_tree(rng, k)
            n = int(rng.integers(0, 3))
            x = tuple(int(v) for v in rng.integers(0, k, size=n))
            h = rng.uniform(-5, 5, size=k)
            table = np.ascontiguousarray(np.broadcast_to(h, (k,) * n + (k,)))
            got = finitary_upper(tree, FinitaryGamble(k, table), x)
            assert got == upper_expectation(local_model(tree, x), h)


class TestMachineDenseAgreement:
    def test_hitting_gambles_agree_with_dense_tables(self, coin_space):
        rng = np.random.default_rng(12)
        for _ in range(25):
            tree = random_tree(rng, 2)
            horizon = int(rng.integers(1, 7))
            machine = (
                truncated_hitting_time(coin_space, ["T"], horizon)
                if rng.uniform() < 0.5
                else hitting_indicator(coin_space, ["T"], horizon)
            )
            s = random_situation(rng, 2, horizon)
            dense = machine.to_dense()
            assert finitary_upper(tree, machine, s) == pytest.approx(
                finitary_upper(tree, dense, s), abs=1e-12
            )

    def test_automaton_view_gives_identical_values(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            k = int(rng.integers(2, 4))
            tree = random_tree(rng, k)
            f = random_gamble(rng, k, int(rng.integers(1, 5)))
            s = random_situation(rng, k, f.depth - 1)
            assert finitary_upper(tree, f, s) == finitary_upper(tree, as_machine(f), s)

    def test_table_tree_machine_path(self, coin_space):
        entries = {
            (): CredalSet(np.array([[0.2, 0.8]])),
            (0,): CredalSet(np.array([[0.9, 0.1], [0.5, 0.5]])),
        }
        tree = ImpreciseTree(coin_space, Table(1, entries, CredalSet(np.array([[0.5, 0.5]]))))
        machine = truncated_hitting_time(coin_space, ["T"], 5)
        assert finitary_upper(tree, machine) == pytest.approx(
            finitary_upper(tree, machine.to_dense()), abs=1e-12
        )


class TestDegenerateTreeRegression:
    """The model that surely stays in one state: the finite-horizon values of
    'ever leave' are all 0, and the monotone limit must be 0 as well (the
    coherence-only extension would jump to 1 on the limit)."""

    def test_finite_values_are_exactly_zero(self, coin_space):
        tree = degenerate_tree(coin_space, "H")
        for n in range(1, 21):
            f = hitting_indicator(coin_space, ["T"], n)
            assert finitary_upper(tree, f) == 0.0

    def test_limit_is_zero_not_one(self, coin_space):
        tree = degenerate_tree(coin_space, "H")
        v = hitting_event_variable(coin_space, ["T"])
        res = limit_upper(tree, v, (), Policy(tol=1e-12, max_horizon=50))
        assert res.value == 0.0
        assert res.converged and res.stop_reason is StopReason.STABILIZED
        assert res.iterates[0] == (1, 0.0)


class TestLimitUpper:
    def test_fair_coin_hitting_time(self, coin_space, fair_coin):
        v = hitting_time_variable(coin_space, ["T"])
        res = limit_upper(fair_coin, v, (), Policy(tol=1e-12, max_horizon=60))
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.converged

    def test_imprecise_coin_hitting_time_bounds(self, coin_space, imprecise_coin):
        v = hitting_time_variable(coin_space, ["T"])
        policy = Policy(tol=1e-12, max_horizon=100)
        up = limit_upper(imprecise_coin, v, (), policy)
        lo = limit_lower(imprecise_coin, v, (), policy)
        assert up.value == pytest.approx(2.5, abs=1e-8)
        assert lo.value == pytest.approx(5.0 / 3.0, abs=1e-8)

    def test_iterates_monotone(self, coin_space, imprecise_coin):
        v = hitting_time_variable(coin_space, ["T"])
        res = limit_upper(imprecise_coin, v, (), Policy(tol=1e-12, max_horizon=40))
        values = [x for _, x in res.iterates]
        assert values == sorted(values)

    def test_divergence_certified(self, imprecise_coin):
        v = LimitVariable(steady(1e5), Direction.NON_DECREASING, bound=0.0)
        res = limit_upper(imprecise_coin, v, (), Policy(tol=1e-15, max_horizon=99, divergence_threshold=1e6))
        assert res.iterates[-1] == (11, pytest.approx(1.1e6))
        assert res.value == INF
        assert res.stop_reason is StopReason.DIVERGING
        assert not res.converged

    def test_horizon_cap_reports_last_iterate(self, coin_space, fair_coin):
        v = hitting_time_variable(coin_space, ["T"])
        res = limit_upper(fair_coin, v, (), Policy(tol=1e-15, max_horizon=5))
        assert res.stop_reason is StopReason.HORIZON_CAP
        assert res.value == res.iterates[-1][1]

    def test_monotonicity_violation_raises_with_witness(self, imprecise_coin):
        bad = LimitVariable(steady(-1.0), Direction.NON_DECREASING, bound=-100.0)
        with pytest.raises(MonotonicityError):
            limit_upper(imprecise_coin, bad, (), Policy(max_horizon=10))

    def test_bound_violation_raises(self, imprecise_coin):
        bad = LimitVariable(steady(1.0), Direction.NON_DECREASING, bound=5.0)
        with pytest.raises(InvalidInputError):
            limit_upper(imprecise_coin, bad, (), Policy(max_horizon=10))

    def test_bound_violation_beyond_the_audit_window_raises(self, imprecise_coin):
        # States 0..5 count the first six steps and pay 1 each; state 6 pays
        # +1 on H and -1 on T.  The payoffs at depth m <= 6 are all m, so the
        # audited pairs (1, 2) .. (4, 5) hold, and the values keep rising
        # (the coin may favour H), but the all-T path pays 12 - m: below the
        # bound 0 first at m = 13.
        step = np.array([[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [6, 6]])
        reward = np.array([[1.0, 1.0]] * 6 + [[1.0, -1.0]])
        late = LimitVariable(MachineGamble(2, 0, step, reward, np.zeros(7)), Direction.NON_DECREASING, 0.0)
        assert late.generator(12).bounds()[0] == 0.0
        assert late.generator(13).bounds()[0] == -1.0
        with pytest.raises(InvalidInputError, match="approximation 13 attains -1.0"):
            limit_upper(imprecise_coin, late, (), Policy(tol=1e-12, max_horizon=30))

    @pytest.mark.parametrize("audit", [0, 2, 4])
    def test_pointwise_audit_covers_the_first_pairs(self, coin_space, imprecise_coin, monkeypatch, audit):
        import iptree.engine as engine

        compared = []

        def counting(f, g):
            compared.append((f.depth, g.depth))
            return pointwise_leq(f, g)

        monkeypatch.setattr(engine, "pointwise_leq", counting)
        v = hitting_time_variable(coin_space, ["T"])
        res = limit_upper(imprecise_coin, v, (), Policy(tol=1e-12, max_horizon=80, monotone_audit=audit))
        assert len(res.iterates) > audit + 1
        assert compared == [(m, m + 1) for m in range(1, audit + 1)]
        compared.clear()
        limit_lower(imprecise_coin, v, (), Policy(tol=1e-12, max_horizon=80, monotone_audit=audit))
        assert compared == [(m + 1, m) for m in range(1, audit + 1)]

    def test_negative_monotone_audit_rejected(self):
        # -1 would silently switch the pointwise audit off.
        with pytest.raises(InvalidInputError):
            Policy(monotone_audit=-1)


def _tree_of_kind(rng, k, kind):
    space = random_space(k)
    if kind == "homogeneous":
        return ImpreciseTree(space, Homogeneous(random_credal(rng, k)))
    if kind == "markov":
        return ImpreciseTree(
            space, Markov(random_credal(rng, k), tuple(random_credal(rng, k) for _ in range(k)))
        )
    entries = {s: random_credal(rng, k) for s in all_situations(k, 2)}
    return ImpreciseTree(space, Table(2, entries, random_credal(rng, k)))


class TestStationaryLimits:
    """Hitting variables carry a reward automaton, and limit_upper then
    advances one value vector by a Bellman step per iterate."""

    def test_iterates_equal_the_recursion_from_scratch(self):
        rng = np.random.default_rng(31)
        policy = Policy(tol=1e-300, max_horizon=12)
        seen = set()
        for trial in range(36):
            kind = ("homogeneous", "markov", "table")[trial % 3]
            k = int(rng.integers(2, 4))
            tree = _tree_of_kind(rng, k, kind)
            targets = [int(rng.integers(0, k))]
            other = [y for y in range(k) if y not in targets]
            # Not hit yet, already hit, and longer than most horizons.
            situation = (
                tuple(int(x) for x in rng.choice(other, size=int(rng.integers(0, 4)))),
                tuple(int(x) for x in rng.integers(0, k, size=int(rng.integers(0, 3))))
                + tuple(targets),
                tuple(int(x) for x in rng.choice(other, size=int(rng.integers(6, 15)))),
            )[trial // 3 % 3]
            for make in (hitting_time_variable, hitting_event_variable):
                v = make(tree.state_space, targets)
                for upper in (True, False):
                    res = (limit_upper if upper else limit_lower)(tree, v, situation, policy)
                    for m, val in res.iterates:
                        f = v.generator(m)
                        want = (finitary_upper if upper else finitary_lower)(tree, f, situation)
                        assert val == pytest.approx(want, rel=1e-12, abs=1e-12)
                        seen.add((kind, trial // 3 % 3, len(situation) > m))
        # Every tree kind met every situation shape, with m below and beyond len(s).
        assert len(seen) == 3 * 3 * 2

    @pytest.mark.parametrize("s", [(), (0, 0), (0, 0, 0, 0, 0, 0, 0)])
    def test_start_index_matches_generic_loop(self, s):
        # The generic loop: a full backward recursion on every horizon's gamble.
        rng = np.random.default_rng(32)
        trees = [_tree_of_kind(rng, 3, kind) for kind in ("homogeneous", "markov", "table")]
        policy = Policy(tol=1e-10, max_horizon=40, start_index=5)
        for tree in trees:
            for make in (hitting_time_variable, hitting_event_variable):
                v = make(tree.state_space, [2])
                for run, sweep in ((limit_upper, finitary_upper), (limit_lower, finitary_lower)):
                    res = run(tree, v, s, policy)
                    horizons = [m for m, _ in res.iterates]
                    assert horizons == list(range(5, 5 + len(horizons)))
                    for m, val in res.iterates:
                        want = sweep(tree, v.generator(m), s)
                        assert val == pytest.approx(want, rel=1e-12, abs=1e-12)
                    # The stop reason follows from the reported values past the
                    # situation; the iterates up to horizon len(s) are settled along it.
                    values = [val for _, val in res.iterates]
                    pairs = zip(res.iterates, res.iterates[1:])
                    steps = [abs(b - a) for (h, a), (_, b) in pairs if h >= len(s)]
                    if res.stop_reason is StopReason.STABILIZED:
                        assert steps[-1] < policy.tol and min(steps[:-1], default=1) >= policy.tol
                    else:
                        assert res.stop_reason is StopReason.HORIZON_CAP
                        assert len(values) == 40 and min(steps) >= policy.tol

    def test_negative_start_index_rejected(self):
        # Horizons are non-negative; a negative one would index the
        # conditioning situation from its end.
        with pytest.raises(InvalidInputError):
            Policy(start_index=-1)

    def test_slow_chain_reaches_the_exact_value(self, coin_space, monkeypatch):
        # Target mass in [0.01, 0.03]: the upper expected hitting time is 100,
        # and the iterates approach it like 100 * 0.99**m.  Thousands of
        # iterates are affordable only without a sweep per horizon.
        import iptree.engine as engine

        def no_sweeps(*args, **kwargs):
            raise AssertionError("the stationary path must not sweep per horizon")

        monkeypatch.setattr(engine, "finitary_upper", no_sweeps)
        slow = ImpreciseTree(
            coin_space, Homogeneous(CredalSet(np.array([[0.99, 0.01], [0.97, 0.03]])))
        )
        v = hitting_time_variable(coin_space, ["T"])
        res = limit_upper(slow, v, (), Policy(tol=1e-13, max_horizon=5000))
        assert res.stop_reason is StopReason.STABILIZED
        assert res.value == pytest.approx(100.0, abs=1e-9)

    def test_adversarial_selection_has_a_finite_view(self, coin_space, imprecise_coin):
        f = expr_gamble("sum(i=1..3, ind(X[i]==H))", coin_space)
        sel = adversarial_selection(imprecise_coin, f)
        a = sel.assignment
        reached = {a.machine_init(())}
        for _ in range(f.depth + 3):
            grown = reached | {a.machine_step(t, y) for t in reached for y in range(2)}
            if grown == reached:
                break
            reached = grown
        else:
            pytest.fail("the selection's finite-state view keeps growing")
        v = hitting_time_variable(coin_space, ["T"])
        res = limit_upper(sel, v, (), Policy(tol=1e-12, max_horizon=80))
        assert res.converged
        for m, val in res.iterates:
            assert val == pytest.approx(precise_expectation(sel, v.generator(m)), rel=1e-12)


class TestProbabilities:
    def test_cylinder_conditional_on_itself(self, imprecise_coin):
        assert upper_probability(imprecise_coin, Cylinder((0, 1)), (0, 1)) == 1.0
        assert lower_probability(imprecise_coin, Cylinder((0, 1)), (0, 1)) == 1.0

    def test_incompatible_cylinder_is_zero(self, imprecise_coin):
        assert upper_probability(imprecise_coin, Cylinder((0, 1)), (1,)) == 0.0

    def test_union_at_depth(self, coin_space, fair_coin):
        event = UnionAtDepth(2, ((0, 0), (1, 1)))
        assert upper_probability(fair_coin, event) == pytest.approx(0.5)

    def test_hitting_probability_tends_to_one(self, coin_space, imprecise_coin):
        policy = Policy(tol=1e-12, max_horizon=60)
        up = upper_probability(imprecise_coin, Hitting(("T",)), (), policy)
        lo = lower_probability(imprecise_coin, Hitting(("T",)), (), policy)
        assert isinstance(up, ApproxResult) and isinstance(lo, ApproxResult)
        assert up.value == pytest.approx(1.0, abs=1e-6)
        assert lo.value == pytest.approx(1.0, abs=1e-6)
        # first iterates by hand: adversary picks the extreme points
        assert up.iterates[0][1] == pytest.approx(0.6, abs=1e-12)
        assert up.iterates[1][1] == pytest.approx(0.84, abs=1e-12)

    def test_complement_identity_at_fixed_depth(self, coin_space, imprecise_coin):
        # lower prob of an event == 1 - upper prob of its complement
        event = UnionAtDepth(2, ((0, 0), (0, 1)))
        complement = UnionAtDepth(2, ((1, 0), (1, 1)))
        lo = lower_probability(imprecise_coin, event)
        up_c = upper_probability(imprecise_coin, complement)
        assert lo == pytest.approx(1.0 - up_c, abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tree = random_tree(rng, 2)
            event = UnionAtDepth(2, tuple({tuple(rng.integers(0, 2, 2)) for _ in range(2)}))
            p = upper_probability(tree, event)
            assert -1e-12 <= p <= 1 + 1e-12


class TestValueTable:
    def test_levels_match_conditionals(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        levels = value_table(imprecise_coin, f)
        assert levels[0] == pytest.approx(0.36)
        assert levels[1][0] == pytest.approx(0.6)
        assert levels[1][1] == 0.0
        assert np.array_equal(levels[2], f.table)

    def test_levels_equal_conditional_values_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            k = int(rng.integers(2, 4))
            tree = random_tree(rng, k)
            f = random_gamble(rng, k, int(rng.integers(1, 4)))
            levels = value_table(tree, f)
            for s in all_situations(k, f.depth):
                assert levels[len(s)][s] == finitary_upper(tree, f, s)


class TestAdversarialSelection:
    def test_dense_selection_attains_value(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            tree = random_tree(rng, k)
            f = random_gamble(rng, k, int(rng.integers(1, 4)))
            s = random_situation(rng, k, f.depth)
            adv = adversarial_selection(tree, f, s)
            assert precise_expectation(adv, f, s) == pytest.approx(
                finitary_upper(tree, f, s), abs=1e-10
            )

    def test_precise_tree_selects_its_own_masses(self, coin_space, biased_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==T)", coin_space)
        adv = adversarial_selection(biased_coin, f)
        assert precise_expectation(adv, f) == pytest.approx(0.24, abs=1e-12)

    def test_machine_selection_attains_value(self, coin_space, imprecise_coin):
        tau = truncated_hitting_time(coin_space, ["T"], 30)
        adv = adversarial_selection(imprecise_coin, tau)
        assert precise_expectation(adv, tau) == pytest.approx(
            finitary_upper(imprecise_coin, tau), abs=1e-10
        )


class TestFatouOscillating:
    def test_pointwise_min_bounded_by_min_value(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            tree = random_tree(rng, 2)
            gambles = [random_gamble(rng, 2, 2, lo=-3, hi=3) for _ in range(4)]
            point_min = FinitaryGamble(2, np.minimum.reduce([g.table for g in gambles]))
            lhs = finitary_upper(tree, point_min)
            rhs = min(finitary_upper(tree, g) for g in gambles)
            assert lhs <= rhs + 1e-9


class TestLiftInvariance:
    def test_lifted_gambles_give_identical_values(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            k = int(rng.integers(2, 4))
            tree = random_tree(rng, k)
            f = random_gamble(rng, k, int(rng.integers(1, 3)))
            s = random_situation(rng, k, f.depth)
            lifted = f.lift(f.depth + int(rng.integers(1, 3)))
            assert finitary_upper(tree, f, s) == pytest.approx(
                finitary_upper(tree, lifted, s), abs=1e-12
            )
            assert precise_expectation(
                adversarial_selection(tree, f, s), lifted, s
            ) == pytest.approx(
                precise_expectation(adversarial_selection(tree, f, s), f, s), abs=1e-10
            )


class TestNonIncreasingLimits:
    def test_all_heads_indicators_decrease_to_zero(self, coin_space, imprecise_coin):
        # v_m = 1 - ind(hit T by m): indicator that the first m states are
        # all H; non-increasing, bounded above by 1, pointwise limit 0 on
        # every path that ever sees T.
        v = LimitVariable(
            -1.0 * hitting_indicator(coin_space, ["T"], 1) + 1.0,
            Direction.NON_INCREASING,
            bound=1.0,
        )
        res = limit_upper(imprecise_coin, v, (), Policy(tol=1e-12, max_horizon=80))
        assert res.value == pytest.approx(0.0, abs=1e-6)
        values = [x for _, x in res.iterates]
        assert values[0] == pytest.approx(0.6, abs=1e-12)  # best case: stay on H
        assert values == sorted(values, reverse=True)


class TestConcurrency:
    def test_engine_is_safe_under_concurrent_use(self, coin_space, imprecise_coin):
        from concurrent.futures import ThreadPoolExecutor

        f = expr_gamble("sum(i=1..3, ind(X[i]==H))", coin_space)
        expected = finitary_upper(imprecise_coin, f)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: finitary_upper(imprecise_coin, f), range(64)))
        assert all(r == expected for r in results)


class TestTrieLayers:
    def test_a_trie_needs_no_lookups(self):
        # A dense gamble's prefix trie: the layers taken as they come equal
        # the layers found by looking every node up.
        import iptree.engine as engine
        from iptree.gambles import MachineStack

        rng = np.random.default_rng(41)
        for trial in range(12):
            k = int(rng.integers(2, 5))
            tree = _tree_of_kind(rng, k, ("homogeneous", "markov", "table")[trial % 3])
            f = random_gamble(rng, k, int(rng.integers(1, 5)))
            cols = MachineStack.of([f, -f])
            assert cols.trie
            s = random_situation(rng, k, int(rng.integers(0, f.depth + 1)))
            args = (tree, cols.step, s, cols.read(s)[1], cols.depth)
            fast, slow = engine._machine_layers(*args, trie=True), engine._machine_layers(*args)
            assert fast[0] == slow[0]
            for a, b in zip(fast[1:], slow[1:]):
                assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

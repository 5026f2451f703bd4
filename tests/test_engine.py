import dataclasses
import time

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
    limit_bounds,
    upper_probability,
    value_table,
    value_tables,
)
from iptree.errors import InvalidInputError, MonotonicityError, ResourceLimitError
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
from iptree.local import CredalSet, StateSpace, upper_expectation
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
    @pytest.mark.parametrize("evaluate", [limit_upper, limit_lower, limit_bounds])
    @pytest.mark.parametrize("at", [(), (0, 1)])
    def test_variable_on_another_state_space_rejected(self, imprecise_coin, evaluate, at):
        for labels in (("A", "B", "C"), ("A",)):
            v = hitting_time_variable(StateSpace(labels), [labels[-1]])
            with pytest.raises(InvalidInputError, match="gamble and tree live on different state spaces"):
                evaluate(imprecise_coin, v, at)

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
        v = LimitVariable(steady(1e11), Direction.NON_DECREASING, bound=0.0)
        res = limit_upper(imprecise_coin, v, (), Policy(tol=1e-15, max_horizon=99))
        assert res.iterates[-1] == (11, pytest.approx(1.1e12))
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
        # +1 on H and -1 on T.  The payoffs at depth m <= 6 are all m, and
        # the values keep rising (the coin may favour H), but the all-T path
        # pays 12 - m: below the bound 0 first at m = 13.  The proof finds
        # the first step down, from state 6, before any iterate.
        step = np.array([[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [6, 6]])
        reward = np.array([[1.0, 1.0]] * 6 + [[1.0, -1.0]])
        late = LimitVariable(MachineGamble(2, 0, step, reward, np.zeros(7)), Direction.NON_DECREASING, 0.0)
        assert late.generator(12).bounds()[0] == 0.0
        assert late.generator(13).bounds()[0] == -1.0
        with pytest.raises(MonotonicityError) as err:
            limit_upper(imprecise_coin, late, (), Policy(tol=1e-12, max_horizon=30))
        assert err.value.args == (
            "approximations 6 and 7 violate the declared direction"
            " (witness: string (0, 0, 0, 0, 0, 0, 1): 6.0 > 5.0)",
        )

    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_pointwise_audit_covers_the_first_pairs(self, coin_space, imprecise_coin, monkeypatch, length):
        # The proof compares the pairs (j, j + 1) up to the depth at which
        # the reachable states stop growing, whatever the conditioning
        # situation; the iterates start at horizon 1 all the same.
        import iptree.engine as engine

        compared = []

        def counting(f, g):
            compared.append((f.depth, g.depth))
            return pointwise_leq(f, g)

        monkeypatch.setattr(engine, "pointwise_leq", counting)
        policy, s = Policy(tol=1e-12, max_horizon=80), (0,) * length
        counter = LimitVariable(MachineGamble(2, 0, [[1, 1], [2, 2], [3, 3], [3, 3]], np.ones((4, 2)), np.zeros(4)),
                                Direction.NON_DECREASING, 0.0)
        for v, depth in ((hitting_event_variable(coin_space, ["T"]), 1), (counter, 3)):
            res = limit_upper(imprecise_coin, v, s, policy)
            assert res.iterates[0][0] == 1
            assert compared == [(m, m + 1) for m in range(depth + 1)]
            compared.clear()
            limit_upper(imprecise_coin, v, s, policy, with_lower=True)  # one proof, phrased for v
            assert compared == [(m, m + 1) for m in range(depth + 1)]
            compared.clear()
            limit_lower(imprecise_coin, v, s, policy)
            assert compared == [(m + 1, m) for m in range(depth + 1)]
            compared.clear()


class TestMonotonicityProof:
    """The approximations are proven monotone at every depth, over the
    automaton's reachable depth, before the first iterate."""

    @staticmethod
    def counter(n: int = 12) -> LimitVariable:
        """States 0..n-1 count the steps; each pays 1, but a T in state n-2
        pays -0.5 and the saturated state n-1 pays 0: every path with T at
        step n-1 drops there."""
        step = [[min(q + 1, n - 1)] * 2 for q in range(n)]
        reward = np.array([[1.0, 1.0]] * (n - 2) + [[1.0, -0.5], [0.0, 0.0]])
        return LimitVariable(MachineGamble(2, 0, step, reward, np.zeros(n)), Direction.NON_DECREASING, 0.0)

    @pytest.mark.parametrize("evaluate", [limit_upper, limit_lower, limit_bounds])
    def test_the_counter_raises(self, imprecise_coin, evaluate):
        # Without the proof, value iteration stabilizes at 10.4 above and
        # 10.1 below: the drop is smaller than the rise the coin allows.
        with pytest.raises(MonotonicityError) as err:
            evaluate(imprecise_coin, self.counter(), (), Policy(max_horizon=100))
        message = str(err.value)
        assert message.startswith("approximations 10 and 11 violate the declared direction")
        assert "string (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1):" in message

    def test_a_violation_first_reached_at_depth_10_raises(self, imprecise_coin):
        # State q counts the T's in a row, up to 10, and every step pays 1,
        # but an H after ten T's pays -2: only the path T^10 H drops.
        step = [[0, min(q + 1, 10)] for q in range(11)]
        reward = np.ones((11, 2))
        reward[10, 0] = -2.0
        v = LimitVariable(MachineGamble(2, 0, step, reward, np.zeros(11)), Direction.NON_DECREASING, 0.0)
        for evaluate in (limit_upper, limit_lower):
            with pytest.raises(MonotonicityError) as err:
                evaluate(imprecise_coin, v, (), Policy(max_horizon=5))
            assert str(err.value).startswith("approximations 10 and 11 violate the declared direction")
            assert "string (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0):" in str(err.value)

    def test_distinct_partial_sums_hit_the_cap_quickly(self, imprecise_coin):
        # A 30-state chain paying 1 on H and 1 + sqrt(2) / 2**q on T in state
        # q: every string's partial sum differs, so the comparison doubles
        # with every symbol and stops at the cap, not after minutes.
        n = 30
        step = [[min(q + 1, n - 1)] * 2 for q in range(n)]
        reward = np.array([[1.0, 1.0 + np.sqrt(2.0) * 2.0**-q] for q in range(n)])
        v = LimitVariable(MachineGamble(2, 0, step, reward, np.zeros(n)), Direction.NON_DECREASING, 0.0)
        began = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"automata of {n} and {n} states: 65536 .* cap of 65536"):
            limit_upper(imprecise_coin, v)
        assert time.perf_counter() - began < 1.0

    def test_raises_exactly_on_a_decreasing_pair(self):
        # Random automata with integer rewards, and integer terminal payoffs
        # half the time: the proof is exact, so it raises exactly when brute
        # force over every string up to depth states + 1 finds a pair that
        # moves the wrong way.
        rng = np.random.default_rng(71)
        outcomes = set()
        for trial in range(300):
            k, n = int(rng.integers(2, 4)), int(rng.integers(1, 7))
            tree = _tree_of_kind(rng, k, ("homogeneous", "markov", "table")[trial % 3])
            auto = MachineGamble(k, 0, rng.integers(0, n, size=(n, k)),
                                 rng.integers(-1, 3, size=(n, k)), rng.integers(-1, 3, size=n) * rng.integers(0, 2))
            up = bool(rng.integers(0, 2))
            direction = Direction.NON_DECREASING if up else Direction.NON_INCREASING
            v = LimitVariable(auto, direction, -1e9 if up else 1e9)
            tables = [v.generator(m).to_dense().lift(n + 1).table for m in range(n + 2)]
            steps = [(b - a) * (1 if up else -1) for a, b in zip(tables, tables[1:])]
            decreasing = min(step.min() for step in steps) < 0
            policy = Policy(tol=1e-12, max_horizon=8)
            for evaluate, finitary in ((limit_upper, finitary_upper), (limit_lower, finitary_lower)):
                try:
                    res = evaluate(tree, v, (), policy)
                except MonotonicityError as err:
                    assert decreasing and str(err).startswith("approximations ")
                    outcomes.add("raised")
                    continue
                assert not decreasing
                outcomes.add("passed")
                for m, val in res.iterates:
                    assert val == pytest.approx(finitary(tree, v.generator(m)), rel=1e-12, abs=1e-12)
        assert outcomes == {"raised", "passed"}


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
    def test_iterates_match_generic_loop(self, s):
        # The generic loop: a full backward recursion on every horizon's gamble.
        rng = np.random.default_rng(32)
        trees = [_tree_of_kind(rng, 3, kind) for kind in ("homogeneous", "markov", "table")]
        policy = Policy(tol=1e-10, max_horizon=40)
        for tree in trees:
            for make in (hitting_time_variable, hitting_event_variable):
                v = make(tree.state_space, [2])
                for run, sweep in ((limit_upper, finitary_upper), (limit_lower, finitary_lower)):
                    res = run(tree, v, s, policy)
                    horizons = [m for m, _ in res.iterates]
                    assert horizons == list(range(1, 1 + len(horizons)))
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

    def test_only_tol_and_max_horizon_are_settable(self):
        # Iterates start at horizon 1 and divergence is declared past a
        # fixed threshold: neither is a policy field.
        assert [f.name for f in dataclasses.fields(Policy)] == ["tol", "max_horizon"]
        for field in ("start_index", "divergence_threshold"):
            with pytest.raises(TypeError):
                Policy(**{field: 1})
        for bad in ({"tol": 0.0}, {"tol": INF}, {"max_horizon": 0}):
            with pytest.raises(InvalidInputError):
                Policy(**bad)

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
    def test_batched_tables_equal_one_by_one_bitwise(self):
        rng = np.random.default_rng(20)
        for trial in range(40):
            k = int(rng.integers(1, 4))
            tree = random_tree(rng, k) if k > 1 else degenerate_tree(random_space(1), 0)
            depth = int(rng.integers(0, 4))
            gambles = [random_gamble(rng, k, depth) for _ in range(int(rng.integers(1, 5)))]
            gambles += [-gambles[0], 0.0 * gambles[0]]
            for g, table in zip(gambles, value_tables(tree, gambles)):
                alone = value_table(tree, g)
                assert len(table) == len(alone) == depth + 1
                for m, (got, want) in enumerate(zip(table, alone)):
                    assert got.shape == want.shape == (k,) * m
                    assert got.tobytes() == want.tobytes(), (trial, m)

    def test_batched_tables_need_dense_gambles_of_one_depth(self, imprecise_coin):
        f, g = FinitaryGamble(2, np.zeros((2,))), FinitaryGamble(2, np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="share one automaton"):
            value_tables(imprecise_coin, [f, g])
        with pytest.raises(InvalidInputError, match="dense finitary gamble"):
            value_tables(imprecise_coin, [f, truncated_hitting_time(imprecise_coin.state_space, ["T"], 1)])

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
        # A dense gamble's prefix trie, never built: the tree states walked
        # level by level equal the layers found by looking every node up in
        # the materialised trie_step array, whose node i has the children
        # i * k .. i * k + k - 1 and whose deepest level is one run of
        # consecutive leaves, the payoff slice the sweep reads.
        from iptree.gambles import MachineStack
        from iptree.tree import prefix_levels, product_levels, trie_step

        rng = np.random.default_rng(41)
        for trial in range(12):
            k = int(rng.integers(2, 5))
            tree = _tree_of_kind(rng, k, ("homogeneous", "markov", "table")[trial % 3])
            f = random_gamble(rng, k, int(rng.integers(1, 5)))
            cols = MachineStack.of([f, -f])
            assert cols.trie and cols.step is None
            s = random_situation(rng, k, int(rng.integers(0, f.depth + 2)))
            a = tree.assignment
            args = (a.machine_init(s), cols.read(s)[1], cols.depth - len(s))
            states = prefix_levels(a.step, args[0], args[2])
            layers, transitions = product_levels(a.step, trie_step(k, f.depth)[0], *args)
            assert len(states) == len(layers)
            assert all(np.array_equal(t, want) for t, (want, _) in zip(states, layers))
            assert all(np.array_equal(step, np.arange(step.size).reshape(-1, k)) for step in transitions)
            leaves = layers[-1][1]
            assert np.array_equal(leaves, leaves[0] + np.arange(k ** max(args[2], 0)))


class TestArraysOnly:
    def test_sweeps_make_no_per_state_calls(self, tmp_path, monkeypatch):
        # The finitary sweep, the exact limit and ``check cert`` on a depth-5
        # table read the compiled arrays: no state is stepped one at a time.
        import json
        from collections import Counter

        from iptree.cli import main
        from iptree.modelio import dump_certificate, dump_model
        from iptree.supermartingale import canonical_supermartingale

        calls = Counter()
        for name in ("machine_step", "machine_leaf"):
            def counted(self, *args, _name=name, _read=getattr(Table, name)):
                calls[_name] += 1
                return _read(self, *args)

            monkeypatch.setattr(Table, name, counted)
        rng = np.random.default_rng(16)
        space = StateSpace(("A", "B", "C", "D"))
        tree = ImpreciseTree(space, Table(5, {s: random_credal(rng, 4) for s in all_situations(4, 5)}, random_credal(rng, 4)))
        f = expr_gamble("sum(i=1..5, ind(X[i]==A)) * ind(X[2]==B)", space)
        finitary_upper(tree, f, (1,))
        limit_bounds(tree, hitting_time_variable(space, ["D"]), (2,))
        model, cert = tmp_path / "model.json", tmp_path / "cert.json"
        model.write_text(json.dumps(dump_model(tree)))
        cert.write_text(json.dumps(dump_certificate(canonical_supermartingale(tree, f), space)))
        argv = ["check", "--model", str(model), "cert", str(cert), "--expr", "sum(i=1..5, ind(X[i]==A)) * ind(X[2]==B)"]
        assert main(argv) == 0
        assert calls == Counter()

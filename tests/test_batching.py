"""Batching invariance: a value does not depend on what it was evaluated with.

Every local expectation is the one ordered sum of ``extreal.weighted_sum``
(in the engine's node-last layout, ``engine._expectations``), so
a sweep over G gambles, a limit pass over both sides and a coherence check
over all its derived gambles give, bit for bit, what G one-by-one calls
give.
"""

import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import iptree
import iptree.cli
import iptree.engine
from iptree import suites
from iptree.engine import (
    Policy,
    adversarial_selection,
    finitary_lower,
    finitary_upper,
    finitary_uppers,
    limit_lower,
    limit_upper,
    value_table,
)
from iptree.errors import InvalidInputError, MonotonicityError
from iptree.extreal import weighted_sum
from iptree.gambles import (
    Direction,
    FinitaryGamble,
    LimitVariable,
    MachineGamble,
    hitting_event_variable,
    hitting_time_variable,
    truncated_hitting_time,
)
from iptree.local import (
    AxiomViolation,
    CredalSet,
    StateSpace,
    _coherence_axioms,
    check_coherence_axioms,
    lower_expectation,
    upper_expectation,
)
from iptree.oracle import precise_expectation
from iptree.suites import (
    model_axiom_suites,
    model_oracle_suite,
    process_suite,
    random_credal,
    random_gamble,
    random_situation,
    random_space,
)
from iptree.tree import Homogeneous, ImpreciseTree, Markov, Table, all_situations


def mixed_tree(rng, k, kind):
    """A tree whose local models have 1 to 4 extreme points."""

    def credal():
        return CredalSet(rng.dirichlet(np.ones(k), size=int(rng.integers(1, 5))))

    space = random_space(k)
    if kind == 0:
        return ImpreciseTree(space, Homogeneous(credal()))
    if kind == 1:
        return ImpreciseTree(space, Markov(credal(), tuple(credal() for _ in range(k))))
    entries = {s: credal() for s in all_situations(k, 2)}
    return ImpreciseTree(space, Table(2, entries, credal()))


def test_weighted_sum_is_left_to_right_and_batch_free():
    rng = np.random.default_rng(1)
    points = rng.dirichlet(np.ones(4), size=3)
    values = rng.uniform(-5, 5, size=(500, 4))
    batched = weighted_sum(points[None], values[:, None])
    for row, v in zip(batched, values):
        assert np.array_equal(row, weighted_sum(points, v))
        for p, got in zip(points, row):
            want = p[0] * v[0]
            for j in range(1, 4):
                want = want + p[j] * v[j]
            assert got == want


class TestSweepColumns:
    def test_columns_equal_one_by_one(self):
        rng = np.random.default_rng(61)
        for trial in range(60):
            k = int(rng.integers(2, 5))
            tree = mixed_tree(rng, k, trial % 3)
            depth = int(rng.integers(1, 4))
            # All-negative payoffs: a padded zero point would win the max.
            gambles = [random_gamble(rng, k, depth, lo=-5.0, hi=-0.5) for _ in range(3)]
            gambles += [random_gamble(rng, k, depth), -gambles[0], 0.0 * gambles[1]]
            s = random_situation(rng, k, depth + 1)
            values = finitary_uppers(tree, gambles, s)
            assert [repr(x) for x in values] == [repr(finitary_upper(tree, g, s)) for g in gambles]
            tables = [value_table(tree, g) for g in gambles]
            assert all(np.all(level < 0) for t in tables[:3] for level in t)
            # Payoffs carry no negative zeros, as in MachineGamble.
            assert np.signbit(gambles[-1].table).any() and not np.signbit(tables[-1][-1]).any()

    def test_sweep_levels_drop_negative_zeros(self):
        # Each product of the first level's sums underflows to -0.0, so
        # those values are -0.0; the level above adds 0.0 to them, as a
        # zero step reward does, and the root value is 0.0.
        tree = ImpreciseTree(StateSpace(("a", "b", "c")), Homogeneous(CredalSet(np.array([[0.4, 0.3, 0.3]]))))
        f = FinitaryGamble(3, np.full((3, 3), -5e-324))
        first = value_table(tree, f)[1]
        assert (first == 0.0).all() and np.signbit(first).all()
        for value in (finitary_upper(tree, f), value_table(tree, f)[0]):
            assert value == 0.0 and not np.signbit(value)

    def test_padded_points_never_win(self):
        # One situation has a single extreme point, the others three; every
        # payoff is negative.
        space = StateSpace(("a", "b"))
        three = CredalSet(np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]))
        one = CredalSet(np.array([[0.3, 0.7]]))
        tree = ImpreciseTree(space, Table(1, {(): three, (0,): one}, three))
        f = FinitaryGamble(2, np.array([[-4.0, -1.0], [-2.0, -3.0]]))
        assert finitary_upper(tree, f, (0,)) == upper_expectation(one, [-4.0, -1.0]) == 0.3 * -4.0 + 0.7 * -1.0
        want = upper_expectation(three, [finitary_upper(tree, f, (y,)) for y in range(2)])
        assert finitary_upper(tree, f) == want < 0
        # The attaining tree picks a real point, the lowest on ties.
        adv = adversarial_selection(tree, f)
        assert precise_expectation(adv, f) == pytest.approx(want, abs=1e-12)

    def test_automaton_and_negation_share_a_sweep(self):
        rng = np.random.default_rng(62)
        for trial in range(30):
            k = int(rng.integers(2, 4))
            tree = mixed_tree(rng, k, trial % 3)
            tau = truncated_hitting_time(tree.state_space, [0], int(rng.integers(1, 12)))
            s = random_situation(rng, k, 3)
            upper, negated = finitary_uppers(tree, [tau, -tau], s)
            assert upper == finitary_upper(tree, tau, s)
            assert -negated == finitary_lower(tree, tau, s)

    def test_gambles_must_share_an_automaton(self):
        tree = ImpreciseTree(StateSpace(("a", "b")), Homogeneous(CredalSet(np.eye(2))))
        f, g = FinitaryGamble(2, np.zeros((2,))), FinitaryGamble(2, np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="share one automaton"):
            finitary_uppers(tree, [f, g])
        with pytest.raises(InvalidInputError, match="different state spaces"):
            finitary_uppers(tree, [FinitaryGamble(3, np.zeros((3,)))])
        with pytest.raises(InvalidInputError, match="at least one gamble"):
            finitary_uppers(tree, [])

    def test_eval_reports_upper_and_lower_of_the_one_sweep(self, tmp_path, capsys):
        rng = np.random.default_rng(63)
        model = {"schema": 1, "states": ["H", "T", "X"], "model": {"kind": "table", "depth": 1, "entries": {
            "": rng.dirichlet(np.ones(3), size=3).tolist(), "T": rng.dirichlet(np.ones(3), size=1).tolist(),
        }, "default": rng.dirichlet(np.ones(3), size=2).tolist()}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        tree = iptree.load_model(model)
        source = "sum(i=1..4, 2 * ind(X[i]==H) - 3 * ind(X[i]==X)) - 7"
        f = iptree.compile_gamble(iptree.parse_gamble(source, tree.state_space))
        for at in ("", "T", "T,H"):
            assert iptree.cli.main(["eval", "--model", str(path), "--expr", source, "--at", at]) == 0
            (record,) = json.loads(capsys.readouterr().out)["results"]
            s = tuple(tree.state_space.index(x) for x in at.split(",") if x)
            assert record["upper"] == finitary_upper(tree, f, s)
            assert repr(record["lower"]) == repr(finitary_lower(tree, f, s))


class TestLimitPair:
    def test_pair_equals_the_sides_alone(self):
        rng = np.random.default_rng(64)
        stops = set()
        for trial in range(36):
            k = int(rng.integers(2, 4))
            tree = mixed_tree(rng, k, trial % 3)
            make = (hitting_time_variable, hitting_event_variable)[trial // 3 % 2]
            v = make(tree.state_space, [0])
            s = tuple(int(x) for x in rng.integers(1, k, size=int(rng.integers(0, 3))))
            policy = Policy(tol=float(rng.choice([1e-4, 1e-8, 1e-12])), max_horizon=40)
            both = limit_upper(tree, v, s, policy, with_lower=True)
            upper, lower = limit_upper(tree, v, s, policy), limit_lower(tree, v, s, policy)
            assert repr(both.lower) == repr(lower) and both.lower.lower is None
            assert repr(both) == repr(upper) and both == upper
            stops.add((len(upper.iterates) == len(lower.iterates), upper.stop_reason.value))
        # The sides stopped at the same and at different horizons.
        assert {same for same, _ in stops} == {True, False}

    @staticmethod
    def steps(reward_h, reward_t, direction=Direction.NON_DECREASING):
        auto = MachineGamble(2, 0, np.zeros((1, 2), dtype=int), np.array([[reward_h, reward_t]]), np.zeros(1))
        return LimitVariable(auto, direction, bound=-1e9)

    @staticmethod
    def unproven(monkeypatch):
        """Let every pair pass the monotonicity proof, so that the value
        audit and the bound check behind it are reached."""
        monkeypatch.setattr(iptree.engine, "pointwise_leq", lambda f, g: (True, None))

    def test_a_later_side_error_waits_for_the_earlier_side(self, imprecise_coin, monkeypatch):
        # Upper values rise by 0.2 a step, lower ones fall by 0.2: only the
        # lower side breaks the declared direction, and the pass raises its
        # error, as limit_lower alone does.
        v = self.steps(1.0, -1.0)
        policy = Policy(max_horizon=10)
        # The proof comes first and fails pair (0, 1), phrased for v, the first side.
        with pytest.raises(MonotonicityError) as proven:
            limit_upper(imprecise_coin, v, (), policy, with_lower=True)
        assert proven.value.args == (
            "approximations 0 and 1 violate the declared direction (witness: string (1,): 0.0 > -1.0)",
        )
        self.unproven(monkeypatch)
        assert limit_upper(imprecise_coin, v, (), policy).stop_reason.value == "horizon_cap"
        with pytest.raises(MonotonicityError) as alone:
            limit_lower(imprecise_coin, v, (), policy)
        with pytest.raises(MonotonicityError) as paired:
            limit_upper(imprecise_coin, v, (), policy, with_lower=True)
        assert str(paired.value) == str(alone.value)
        assert paired.value.args == alone.value.args

    def test_the_upper_side_error_wins(self, imprecise_coin, monkeypatch):
        v = self.steps(-1.0, -1.0)  # both sides fall
        policy = Policy(max_horizon=10)
        bad = LimitVariable(v.automaton, Direction.NON_DECREASING, bound=1.0)
        for variable in (v, bad):  # the proof comes before the bound check
            with pytest.raises(MonotonicityError, match=r"approximations 0 and 1 .* \(0,\): 0\.0 > -1\.0"):
                limit_upper(imprecise_coin, variable, (), policy, with_lower=True)
        self.unproven(monkeypatch)
        with pytest.raises(MonotonicityError) as alone:
            limit_upper(imprecise_coin, v, (), policy)
        with pytest.raises(MonotonicityError) as paired:
            limit_upper(imprecise_coin, v, (), policy, with_lower=True)
        assert paired.value.args == alone.value.args
        with pytest.raises(InvalidInputError) as alone:
            limit_upper(imprecise_coin, bad, (), policy)
        with pytest.raises(InvalidInputError) as paired:
            limit_upper(imprecise_coin, bad, (), policy, with_lower=True)
        assert str(paired.value) == str(alone.value) == (
            "approximation 1 attains -1.0, below the declared lower bound 1.0"
        )

    def test_an_earlier_lower_error_loses_to_a_later_upper_one(self, imprecise_coin, monkeypatch):
        # Two steps pay +1 on H and -1 on T, later steps -1: upper values go
        # 0.2, 0.4, -0.6 and fail at index 3; lower values go -0.2, -0.4 and
        # fail at index 2.  Run one after the other, the upper side raises.
        step = np.array([[1, 1], [2, 2], [2, 2]])
        reward = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, -1.0]])
        v = LimitVariable(MachineGamble(2, 0, step, reward, np.zeros(3)), Direction.NON_DECREASING, -1e9)
        policy = Policy(max_horizon=10)
        with pytest.raises(MonotonicityError, match=r"approximations 0 and 1 .* \(1,\): 0\.0 > -1\.0"):
            limit_upper(imprecise_coin, v, (), policy, with_lower=True)
        self.unproven(monkeypatch)
        with pytest.raises(MonotonicityError, match="at index 2"):
            limit_lower(imprecise_coin, v, (), policy)
        with pytest.raises(MonotonicityError) as alone:
            limit_upper(imprecise_coin, v, (), policy)
        with pytest.raises(MonotonicityError) as paired:
            limit_upper(imprecise_coin, v, (), policy, with_lower=True)
        assert "at index 3" in str(alone.value)
        assert paired.value.args == alone.value.args

    def test_lower_side_bound_audit(self, imprecise_coin):
        # Monotone payoffs of 0.5 to 1 against a declared bound of 2: each
        # side's audit phrases the violation for its own variable.
        v = LimitVariable(self.steps(1.0, 0.5).automaton, Direction.NON_DECREASING, bound=2.0)
        messages = {
            "approximation 1 attains -0.5, above the declared upper bound -2.0",
            "approximation 1 attains 0.5, below the declared lower bound 2.0",
        }
        for variable in (v, -v):
            with pytest.raises(InvalidInputError) as alone:
                limit_upper(imprecise_coin, -variable)
            with pytest.raises(InvalidInputError) as lower:
                limit_lower(imprecise_coin, variable)
            assert str(lower.value) == str(alone.value)
            messages.remove(str(lower.value))

    def test_pointwise_audit_runs_once_per_pair(self, imprecise_coin, monkeypatch):
        import iptree.engine as engine

        calls = []
        real = engine.pointwise_leq
        monkeypatch.setattr(engine, "pointwise_leq", lambda f, g: calls.append(1) or real(f, g))
        v = hitting_time_variable(imprecise_coin.state_space, ["T"])
        limit_upper(imprecise_coin, v, (), Policy(max_horizon=30), with_lower=True)
        assert len(calls) == 2

    def test_each_audited_approximation_is_built_once(self, imprecise_coin, monkeypatch):
        built = []
        real = LimitVariable.generator
        monkeypatch.setattr(LimitVariable, "generator", lambda self, m: built.append(m) or real(self, m))
        v = hitting_time_variable(imprecise_coin.state_space, ["T"])
        limit_upper(imprecise_coin, v, (), Policy(max_horizon=30), with_lower=True)
        assert built == [0, 1, 2]


class TestCoherenceColumns:
    @staticmethod
    def reference(credal, gambles, tol):
        """The checks with one upper_expectation call per value."""
        gambles = [np.asarray(g, dtype=float) for g in gambles]
        out = []

        def note(cond, axiom, detail, slack):
            out.append(None if cond else AxiomViolation(axiom, detail, slack))

        for i, f in enumerate(gambles):
            uf, lf = upper_expectation(credal, f), lower_expectation(credal, f)
            note(uf <= f.max() + tol, "upper-bound", f"gamble #{i}", uf - f.max())
            note(f.min() - tol <= lf <= uf + tol, "bounds", f"gamble #{i}", max(f.min() - lf, lf - uf))
            for lam in (0.0, 0.5, 1.0, 2.0):
                ulam = upper_expectation(credal, lam * f)
                note(abs(ulam - lam * uf) <= tol, "homogeneity", f"gamble #{i}, scale {lam}", abs(ulam - lam * uf))
            shift = 1.0 + 0.25 * i
            gap = abs(upper_expectation(credal, f + shift) - (uf + shift))
            note(gap <= tol, "constant-shift", f"gamble #{i}, shift {shift}", gap)
            ug = upper_expectation(credal, f + np.abs(gambles[(i + 1) % len(gambles)]))
            note(uf <= ug + tol, "monotonicity", f"gamble #{i} vs dominating partner", uf - ug)
        for i in range(len(gambles) - 1):
            f, g = gambles[i], gambles[i + 1]
            usum = upper_expectation(credal, f + g)
            bound = upper_expectation(credal, f) + upper_expectation(credal, g)
            note(usum <= bound + tol, "sub-additivity", f"gambles #{i}, #{i + 1}", usum - bound)
            gap = abs(upper_expectation(credal, f) - upper_expectation(credal, g))
            lip = float(np.abs(f - g).max())
            note(gap <= lip + tol, "lipschitz", f"gambles #{i}, #{i + 1}", gap - lip)
        return len(out), [v for v in out if v is not None]

    def test_one_product_equals_one_call_per_value(self):
        rng = np.random.default_rng(65)
        for trial in range(200):
            k = int(rng.integers(2, 5))
            credal = random_credal(rng, k, max_points=4)
            gambles = [rng.uniform(-5, 5, size=k) * 10.0 ** rng.integers(-3, 3) for _ in range(int(rng.integers(1, 9)))]
            # A negative tolerance fails checks, so the slacks are compared too.
            tol = float(rng.choice([1e-9, -1e-12, -1.0]))
            report = check_coherence_axioms(credal, gambles, tol)
            checks, violations = self.reference(credal, gambles, tol)
            assert report.checks_run == checks
            assert repr(report.violations) == repr(tuple(violations))

    def test_a_chunk_pass_equals_one_trial_at_a_time(self):
        rng = np.random.default_rng(68)
        mixed = 0
        for trial in range(120):
            k, n = int(rng.integers(2, 5)), int(rng.integers(1, 9))
            credals = [random_credal(rng, k, max_points=4) for _ in range(int(rng.integers(1, 7)))]
            scale = 10.0 ** rng.integers(-3, 3, size=(len(credals), 1, 1))
            gambles = rng.uniform(-5, 5, size=(len(credals), n, k)) * scale
            tol = float(rng.choice([1e-9, -1e-12, -1.0]))
            reports = _coherence_axioms([c.points for c in credals], gambles, tol)
            assert len(reports) == len(credals)
            for credal, g, report in zip(credals, gambles, reports):
                alone = check_coherence_axioms(credal, list(g), tol)
                assert report.checks_run == alone.checks_run
                assert repr(report.violations) == repr(alone.violations)
                assert report.passed == alone.passed
            mixed += len({c.n_points for c in credals}) > 1
        assert mixed > 30

    def test_overflowing_derived_gamble_raises(self):
        credal = CredalSet(np.array([[0.5, 0.5]]))
        for gambles in ([[1e308, 0.0]], [[1.0, 0.0], [1.7e308, 1.0], [1.7e308, 0.0]]):
            with pytest.raises(InvalidInputError, match="requires a finite-valued gamble"):
                check_coherence_axioms(credal, gambles)
        assert check_coherence_axioms(credal, [[1e307, 0.0]]).passed


@dataclass(frozen=True)
class _RootStartMarkov(Markov):
    """A Markov assignment whose sweeps conditioned on a situation start
    from the root's state (state 0) instead of the situation's last state."""

    def machine_init(self, s):
        return 0


def test_process_suite_checks_no_gamble_it_built(monkeypatch):
    # Every gamble of the battery is drawn finite or computed from drawn
    # ones, so none goes through FinitaryGamble's checks.
    checked = mock.Mock(side_effect=AssertionError("a gamble was checked"))
    monkeypatch.setattr(FinitaryGamble, "__post_init__", checked)
    assert process_suite(3, trials=20).passed
    space = StateSpace(("a", "b", "c"))
    tree = ImpreciseTree(space, Homogeneous(CredalSet(np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]))))
    assert process_suite(4, trials=20, tree_factory=lambda _rng: tree).passed


def test_process_suite_checks_the_conditioned_path():
    rng = np.random.default_rng(66)
    space = random_space(2)
    root, by_state = random_credal(rng, 2), (random_credal(rng, 2), random_credal(rng, 2))
    sound = process_suite(7, trials=20, tree_factory=lambda _rng: ImpreciseTree(space, Markov(root, by_state)))
    assert sound.passed
    broken = ImpreciseTree(space, _RootStartMarkov(root, by_state))
    report = process_suite(7, trials=20, tree_factory=lambda _rng: broken)
    assert report.checks == sound.checks
    # The root sweep of f is right; the iterated gamble's sweep conditioned
    # on each length-m situation is not.
    assert any("iterated law broken" in msg for msg in report.failures)


def test_oracle_suite_checks_the_conditioned_path():
    # The envelope steps to the conditioning situation's tree state from the
    # root, so it catches a sweep that starts from the wrong state.
    rng = np.random.default_rng(66)
    space = random_space(2)
    root, by_state = random_credal(rng, 2), (random_credal(rng, 2), random_credal(rng, 2))
    sound = model_oracle_suite(ImpreciseTree(space, Markov(root, by_state)), 7, 60)
    assert sound.passed
    report = model_oracle_suite(ImpreciseTree(space, _RootStartMarkov(root, by_state)), 7, 60)
    assert report.checks == sound.checks and report.failures
    # Only conditioned trials can fail: the root's state is the same.
    assert all("s=()" not in msg for msg in report.failures)


ROOT = Path(__file__).resolve().parents[1]
COIN = "demos/data/imprecise_coin.json"

#: sha256 of the JSON reports of ``iptree check --model COIN <what> --seed
#: <seed>`` as the batteries wrote them with one sweep per gamble.
BATTERY_REPORTS = {
    ("axioms", 0): "95e837c9f3febe554b5a6115183e23c9462992b3410c7a5b247c642546d6bff7",
    ("axioms", 5): "a9f612fcdc8dc5b5bae84608c0faf22110c44c6515c1bc05403a5046e3b0b231",
    ("oracle", 0): "22ca2f21c0a7599d89cd48a3f3fce2ad5482d12b0eb09e21e5a99c2cfcd53a26",
    ("oracle", 5): "5cc6313f68f73ab70cd89254be859187dd1d84dc74bd8e63c1f127c43fb83a3b",
}


def check_report(what: str, *flags: str) -> str:
    """``iptree check`` on the coin from the repository root, without
    IPTREE_* settings; returns the report it prints."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPTREE_")}
    out = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), contextlib.chdir(ROOT), contextlib.redirect_stdout(out):
        assert iptree.cli.main(["check", "--model", COIN, what, *flags]) == 0
    return out.getvalue()


def oracle_draws(seed: int, trials: int, depth: int, k: int) -> list:
    """The (gamble, situation) pairs ``model_oracle_suite`` draws."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        f = random_gamble(rng, k, int(rng.integers(1, depth + 1)))
        draws.append((f, random_situation(rng, k, 1) if rng.uniform() < 0.3 else ()))
    return draws


def process_groups(seed: int, trials: int, k: int) -> int:
    """The sweeps ``process_suite`` needs on a pinned tree: one root value
    table per depth, and one upper expectation per (depth, situation) of its
    one-step, derived and iterated gambles, counted from the same draws."""
    rng = np.random.default_rng(seed)
    depths, groups = set(), set()
    for _ in range(trials):
        n = int(rng.integers(0, 3))
        x = tuple(int(v) for v in rng.integers(0, k, size=n))
        rng.uniform(-5, 5, size=k)
        depth = int(rng.integers(1, 4))
        random_gamble(rng, k, depth)
        s = random_situation(rng, k, depth)
        m = int(rng.integers(0, depth))
        rng.uniform(0, 3, size=(k,) * depth)
        random_gamble(rng, k, depth)
        rng.uniform(0, 3), rng.uniform(-4, 4)
        depths.add(depth)
        groups |= {(n + 1, x), (depth, s)} | {(m + 1, x_m) for x_m in itertools.product(range(k), repeat=m)}
    return len(depths) + len(groups)


class TestBatteries:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        real = iptree.engine._sweep
        monkeypatch.setattr(iptree.engine, "_sweep", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    def test_oracle_battery_sweeps_each_group_once(self, sweeps):
        check_report("oracle", "--trials", "40", "--depth", "3", "--seed", "5")
        groups = {(f.depth, s) for f, s in oracle_draws(5, 40, 3, 2)}
        assert len(sweeps) == len(groups) < 40

    def test_axiom_battery_sweeps_each_group_once(self, sweeps):
        check_report("axioms", "--trials", "15", "--seed", "5")
        # The process suite of `check axioms` runs at seed + 1.
        assert len(sweeps) == process_groups(6, 15, 2) < 71

    @pytest.mark.parametrize("what, seed", sorted(BATTERY_REPORTS))
    def test_reports_are_pinned(self, what, seed):
        report = check_report(what, "--seed", str(seed))
        assert hashlib.sha256(report.encode()).hexdigest() == BATTERY_REPORTS[what, seed]

    def test_each_trial_is_checked_against_its_own_value(self, imprecise_coin, monkeypatch):
        assert model_oracle_suite(imprecise_coin, 5, 40).passed
        swapped = []
        real = suites.finitary_uppers

        def swapping(tree, gambles, s=()):
            values = real(tree, gambles, s)
            if len(gambles) > 1 and not swapped:
                swapped.extend(gambles[:2])
                values[0], values[1] = values[1], values[0]
            return values

        monkeypatch.setattr(suites, "finitary_uppers", swapping)
        report = model_oracle_suite(imprecise_coin, 5, 40)
        draws = oracle_draws(5, 40, 3, 2)
        hit = [t for t, (f, _) in enumerate(draws) if any(np.array_equal(f.table, g.table) for g in swapped)]
        assert len(hit) == 2
        assert [msg.split(":")[0] for msg in report.failures] == [f"trial {t}" for t in hit]

    def test_chunks_do_not_change_reports(self, imprecise_coin, monkeypatch):
        space = random_space(3)
        rng = np.random.default_rng(67)
        broken = ImpreciseTree(space, _RootStartMarkov(random_credal(rng, 3), tuple(random_credal(rng, 3) for _ in range(3))))

        mixed = mixed_tree(rng, 3, 2)  # local models of 1 to 4 extreme points
        coherence = suites._coherence_axioms

        def reports():
            sound = model_axiom_suites(mixed, 8, 30)
            # A tolerance below zero fails some coherence checks of every trial.
            with mock.patch.object(suites, "_coherence_axioms", lambda points, gambles: coherence(points, gambles, -1e-12)):
                forced = model_axiom_suites(mixed, 8, 30)
            return [
                process_suite(8, trials=30),
                process_suite(8, trials=30, tree_factory=lambda _rng: broken),
                model_oracle_suite(imprecise_coin, 8, 30, depth=4, tol=-1.0),  # every trial fails, naming its values
                *sound,
                *forced,
            ]

        whole = reports()
        assert whole[1].failures and len(whole[2].failures) == 30
        assert whole[3].passed and whole[4].passed
        assert len({msg.split(" at ")[0] for msg in whole[5].failures}) == 30 and whole[6] == whole[4]
        monkeypatch.setattr(suites, "_CHUNK_CELLS", 1)
        assert reports() == whole


def test_compile_once_per_expression_and_cap(tmp_path, monkeypatch, capsys):
    model = tmp_path / "coin.json"
    model.write_text(json.dumps({"schema": 1, "states": ["H", "T"], "model": {
        "kind": "homogeneous", "extreme_points": [[0.4, 0.6], [0.6, 0.4]]}}))
    a, b = "sum(i=1..5, ind(X[i]==H))", "ind(X[2]==T)"
    queries = [{"kind": kind, "expression": e, "policy": policy}
               for e in (a, b, a) for kind in ("eval", "lower") for policy in ({}, {"table_cap": 64})]
    path = tmp_path / "queries.json"
    path.write_text(json.dumps({"schema": 1, "queries": queries}))
    calls = []
    real = iptree.cli.compile_gamble
    monkeypatch.setattr(iptree.cli, "compile_gamble", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert iptree.cli.main(["eval", "--model", str(model), "--query", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == 12 and all(r["ok"] for r in results)
    assert len(calls) == 4  # two expressions, two caps


BANNED = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}


def test_oracle_imports_no_engine_sweep():
    # The oracle takes from the engine only the limit it checks samples
    # against and that limit's types: no sweep and no private name.
    src = Path(iptree.__file__).parent
    imported = set()
    for node in ast.walk(ast.parse((src / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("engine", "iptree.engine"):
            imported |= {a.name for a in node.names}
        if isinstance(node, (ast.Import, ast.ImportFrom)):  # nor the module itself
            assert not [a.name for a in node.names if a.name.split(".")[-1] == "engine"]
        # Nor the Bellman-step kernel, nor the tree views' node-last points.
        assert getattr(node, "attr", getattr(node, "id", None)) not in ("_expectations", "_node_points", "points_last")
    assert "limit_bounds" in imported
    assert imported <= {"limit_bounds", "ApproxResult", "Policy", "StopReason"}


def test_no_blas_products_outside_the_oracle():
    src = Path(iptree.__file__).parent
    for name in ("engine.py", "local.py", "supermartingale.py", "extreal.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            assert not isinstance(node, (ast.MatMult,)), name
            assert not (isinstance(node, ast.Attribute) and node.attr in BANNED), (name, node.attr)
            assert not (isinstance(node, ast.Name) and node.id in BANNED), (name, node.id)
    # The engine and the certificate check take every local expectation
    # from the one kernel, engine._expectations, not from weighted_sum.
    for name in ("engine.py", "supermartingale.py"):
        names = {n.id for n in ast.walk(ast.parse((src / name).read_text())) if isinstance(n, ast.Name)}
        assert "weighted_sum" not in names, name
    steps = {"engine.py": {"_sweep", "_limit_values", "_policy_values"}, "supermartingale.py": {"verify"}}
    for name, functions in steps.items():
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in functions:
                functions.discard(node.name)
                called = {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                assert "_expectations" in called, (name, node.name)
        assert not functions, (name, functions)
    # The oracle stays an independent implementation: its own arithmetic.
    for node in ast.walk(ast.parse((src / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            assert "weighted_sum" not in [a.name for a in node.names]
        if isinstance(node, ast.Attribute):
            assert node.attr != "weighted_sum"

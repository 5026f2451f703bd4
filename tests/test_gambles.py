from dataclasses import replace

import numpy as np
import pytest

from iptree.errors import InvalidInputError, ResourceLimitError
from iptree.gambles import (
    Direction,
    FinitaryGamble,
    LimitVariable,
    MachineGamble,
    MachineStack,
    as_machine,
    hitting_event_variable,
    hitting_indicator,
    hitting_time_variable,
    indicator_of_cylinder,
    pointwise_leq,
    restrict,
    truncated_hitting_time,
)
from iptree.local import StateSpace


def random_machine(rng, k, states, depth, integer=False):
    step = rng.integers(0, states, size=(states, k))
    reward, terminal = rng.uniform(-2, 2, size=(states, k)), rng.uniform(-2, 2, size=states)
    if integer:  # payoffs that tie often
        reward, terminal = np.round(reward), np.round(terminal)
    return MachineGamble(k, depth, step, reward, terminal)


@pytest.fixture
def space():
    return StateSpace(("H", "T"))


class TestFinitaryGamble:
    def test_constant_depth_zero(self):
        f = FinitaryGamble.constant(2, 3.5)
        assert f.depth == 0
        assert f.payoff(()) == 3.5
        assert f.payoff((0, 1)) == 3.5

    def test_payoff_lookup(self):
        f = FinitaryGamble(2, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert f.payoff((1, 0)) == 3.0
        assert f.payoff((1, 0, 1)) == 3.0  # extra states ignored
        with pytest.raises(InvalidInputError):
            f.payoff((1,))

    def test_rejects_infinite_payoffs(self):
        with pytest.raises(InvalidInputError):
            FinitaryGamble(2, np.array([np.inf, 0.0]))

    def test_lift_preserves_payoffs(self):
        f = FinitaryGamble(2, np.array([1.0, 2.0]))
        g = f.lift(3)
        assert g.depth == 3
        for string in np.ndindex(2, 2, 2):
            assert g.payoff(string) == f.payoff(string)

    def test_arithmetic_lifts_to_common_depth(self):
        f = FinitaryGamble(2, np.array([1.0, 2.0]))
        g = FinitaryGamble(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        h = f + g
        assert h.depth == 2
        assert h.payoff((1, 1)) == 3.0
        assert (-f).payoff((0,)) == -1.0
        assert (2.0 * f).payoff((1,)) == 4.0


class TestRestrict:
    def test_zero_off_the_situation(self, space):
        f = FinitaryGamble.constant(2, 1.0).lift(1)
        r = restrict(f, (0,))
        assert r.payoff((0,)) == 1.0
        assert r.payoff((1,)) == 0.0

    def test_idempotent(self):
        f = FinitaryGamble(2, np.arange(8.0).reshape(2, 2, 2))
        once = restrict(f, (1, 0))
        twice = restrict(once, (1, 0))
        assert np.array_equal(once.table, twice.table)

    def test_root_restriction_is_identity(self):
        f = FinitaryGamble(2, np.arange(4.0).reshape(2, 2))
        assert np.array_equal(restrict(f, ()).table, f.table)

    def test_too_long_situation_rejected(self):
        f = FinitaryGamble(2, np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            restrict(f, (0, 1))


class TestHittingConstructs:
    def test_truncated_hitting_time_payoffs(self, space):
        tau = truncated_hitting_time(space, ["T"], 3)
        assert tau.payoff((0, 0, 0)) == 3.0  # never hit within horizon
        assert tau.payoff((0, 1, 0)) == 2.0
        assert tau.payoff((1, 1, 1)) == 1.0

    def test_matches_dense_enumeration(self, space):
        tau = truncated_hitting_time(space, ["T"], 4)
        dense = tau.to_dense()
        for string in np.ndindex(*(2,) * 4):
            first = next((i + 1 for i, x in enumerate(string) if x == 1), 4)
            assert dense.payoff(string) == float(first) == tau.payoff(string)

    def test_indicator(self, space):
        ind = hitting_indicator(space, ["T"], 2)
        assert ind.payoff((0, 0)) == 0.0
        assert ind.payoff((0, 1)) == 1.0

    def test_empty_target_rejected(self, space):
        with pytest.raises(InvalidInputError):
            truncated_hitting_time(space, [], 3)
        with pytest.raises(InvalidInputError):
            truncated_hitting_time(space, ["T"], 0)

    def test_sequence_monotone_and_bounded(self, space):
        v = hitting_time_variable(space, ["T"])
        for m in range(1, 6):
            ok, _ = pointwise_leq(v.generator(m), v.generator(m + 1))
            assert ok
            assert v.generator(m).bounds()[0] >= 1.0

    def test_reward_automaton_pays_what_the_generator_pays(self):
        # Every hitting automaton, read to depth m, pays the first hit.
        space = StateSpace(("a", "b", "c"))
        for targets in (["b"], ["a", "c"]):
            hit = {space.index(t) for t in targets}
            for m in range(1, 6):
                gambles = {
                    "time": truncated_hitting_time(space, targets, m),
                    "event": hitting_indicator(space, targets, m),
                    "time variable": hitting_time_variable(space, targets).generator(m),
                    "event variable": hitting_event_variable(space, targets).generator(m),
                }
                for string in np.ndindex(*(3,) * (m + 1)):  # one symbol past the horizon
                    first = next((i + 1 for i, y in enumerate(string[:m]) if y in hit), None)
                    want = {"time": m if first is None else first, "event": float(first is not None)}
                    for name, f in gambles.items():
                        expected = want[name.split()[0]]
                        assert f.payoff(string) == expected
                        assert (-f).payoff(string) == -expected

    def test_dense_cap(self, space):
        tau = truncated_hitting_time(space, ["T"], 30)
        with pytest.raises(ResourceLimitError):
            tau.to_dense(cap=1024)


class TestMachineGamble:
    def test_negation_and_shift(self, space):
        tau = truncated_hitting_time(space, ["T"], 3)
        neg = -tau
        assert neg.payoff((0, 1, 0)) == -2.0
        shifted = tau + 1.5
        assert shifted.payoff((0, 1, 0)) == 3.5
        scaled = 2.0 * tau
        assert scaled.payoff((0, 0, 0)) == 6.0

    def test_as_machine_round_trip(self):
        f = FinitaryGamble(2, np.arange(8.0).reshape(2, 2, 2))
        m = as_machine(f)
        for string in np.ndindex(2, 2, 2):
            assert m.payoff(string) == f.payoff(string)
        assert np.array_equal(m.to_dense().table, f.table)

    def test_as_machine_numbers_the_trie_breadth_first(self):
        f = FinitaryGamble(3, np.arange(27.0).reshape(3, 3, 3))
        m = as_machine(f)
        assert len(m.terminal) == 1 + 3 + 9 + 27
        # Level-m prefixes are consecutive states in lexicographic order.
        for depth in range(4):
            first = sum(3**i for i in range(depth))
            for rank, prefix in enumerate(np.ndindex(*(3,) * depth)):
                _, q = replace(m, depth=depth).read(prefix)
                assert q == first + rank
        assert np.array_equal(m.terminal[13:], np.arange(27.0))
        assert not m.reward.any()
        # Leaves loop to themselves: read deeper, the trie still pays the table.
        deeper = replace(m, depth=5)
        for string in np.ndindex(3, 3, 3, 3, 3):
            assert deeper.payoff(string) == f.payoff(string)

    def test_rejects_malformed_arrays(self):
        ok = dict(k=2, depth=1, step=np.zeros((1, 2), dtype=int), reward=np.zeros((1, 2)), terminal=np.zeros(1))
        MachineGamble(**ok)
        for bad in (
            {"step": np.ones((1, 2), dtype=int)},  # leads to a state that does not exist
            {"step": np.zeros((1, 3), dtype=int)},
            {"reward": np.zeros((2, 2))},
            {"terminal": np.array([np.inf])},
            {"reward": np.array([[np.nan, 0.0]])},
            {"depth": -1},
        ):
            with pytest.raises(InvalidInputError):
                MachineGamble(**{**ok, **bad})

    def test_bounds_are_exact_over_strings(self):
        # Exact for integer payoffs; float sums may round differently, since
        # the bounds add the rewards from the last step backwards.
        rng = np.random.default_rng(41)
        for trial in range(80):
            k, states = int(rng.integers(2, 4)), int(rng.integers(1, 5))
            m = random_machine(rng, k, states, int(rng.integers(0, 5)), integer=trial % 2 == 0)
            table = m.to_dense().table
            want = (float(table.min()), float(table.max()))
            if trial % 2 == 0:
                assert m.bounds() == want
            else:
                assert m.bounds() == pytest.approx(want, rel=1e-12, abs=1e-12)
            for string in np.ndindex(*(k,) * m.depth):
                assert table[string] == m.payoff(string)


def assert_stored_alike(got, want, names):
    """``got`` holds what ``want`` (from the checking constructor) holds:
    the same bits, dtypes and shapes, every array read-only."""
    assert type(got) is type(want)
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if not isinstance(b, np.ndarray):
            assert type(a) is type(b) and a == b, name
            continue
        assert isinstance(a, np.ndarray), name
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert not a.flags.writeable, name


MACHINE_FIELDS = ("k", "depth", "step", "reward", "terminal")


def has_negative_zero(arr) -> bool:
    return bool(np.signbit(arr[arr == 0]).any())


class TestDerivedAutomata:
    """Truncations and negations skip the constructor's checks; they must
    store what the constructor would."""

    def variables(self, space):
        rng = np.random.default_rng(11)
        yield hitting_time_variable(space, ["T"])
        yield hitting_event_variable(space, ["H"])
        for seed in range(12):
            # Rounded payoffs hold zeros and negative zeros.
            a = random_machine(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)), seed % 4, integer=seed % 2)
            yield LimitVariable(a, Direction.NON_DECREASING, -100.0)

    def test_generator_matches_the_constructor(self, space):
        for v in self.variables(space):
            a = v.automaton
            for m in (0, 1, 2, 7):
                got = v.generator(m)
                assert_stored_alike(got, MachineGamble(a.k, m, a.step, a.reward, a.terminal), MACHINE_FIELDS)
                assert got.step is a.step and got.reward is a.reward and got.terminal is a.terminal

    def test_negation_matches_the_constructor(self, space):
        for v in self.variables(space):
            a = v.automaton
            want = MachineGamble(a.k, a.depth, a.step, -a.reward, -a.terminal)
            for got in (-a, (-v).automaton):
                assert_stored_alike(got, want, MACHINE_FIELDS)
                assert got.step is a.step
                assert not has_negative_zero(got.reward) and not has_negative_zero(got.terminal)
            assert_stored_alike((-v).generator(3), replace(want, depth=3), MACHINE_FIELDS)
            assert ((-v).direction, (-v).bound) == (Direction.NON_INCREASING, -v.bound)

    def test_stacking_an_automaton_and_its_negation_is_unchanged(self, space):
        for v in self.variables(space):
            a = v.automaton
            got = MachineStack.of([a, (-v).automaton])
            want = MachineStack.of([a, MachineGamble(a.k, a.depth, a.step, -a.reward, -a.terminal)])
            assert (got.k, got.depth, got.trie) == (want.k, want.depth, want.trie)
            for name in ("step", "reward", "terminal"):
                x, y = getattr(got, name), getattr(want, name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name

    def test_dense_negation_matches_the_constructor(self):
        # A dense table keeps its signed zeros, as the constructor does.
        rng = np.random.default_rng(4)
        for depth in range(4):
            table = np.round(rng.uniform(-2, 2, size=(3,) * depth))
            f = FinitaryGamble(3, table)
            assert_stored_alike(-f, FinitaryGamble(3, -f.table), ("k", "table"))
            assert (-(-f)).table.tobytes() == f.table.tobytes()
        assert_stored_alike(-FinitaryGamble.constant(2, 0.0), FinitaryGamble(2, np.asarray(-0.0)), ("k", "table"))

    def test_negative_depth_still_raises(self, space):
        with pytest.raises(InvalidInputError, match="depth must be non-negative"):
            hitting_time_variable(space, ["T"]).generator(-1)


class TestPointwiseLeq:
    def test_dense_vs_dense(self):
        f = FinitaryGamble(2, np.array([1.0, 2.0]))
        g = FinitaryGamble(2, np.array([[1.5, 0.5], [2.0, 2.5]]))
        ok, witness = pointwise_leq(f, g)
        assert not ok and witness is not None
        ok, _ = pointwise_leq(f, f + 0.0)
        assert ok

    def test_mixed_dense_machine(self, space):
        tau3 = truncated_hitting_time(space, ["T"], 3)
        dense = tau3.to_dense()
        assert pointwise_leq(dense, tau3)[0]
        assert pointwise_leq(tau3, dense)[0]
        bigger = truncated_hitting_time(space, ["T"], 4)
        assert pointwise_leq(tau3, bigger)[0]
        assert not pointwise_leq(bigger, tau3)[0]

    def test_agrees_with_enumeration_on_random_automata(self):
        rng = np.random.default_rng(42)
        verdicts = set()
        for _ in range(60):
            k = int(rng.integers(2, 4))
            f, g = (
                random_machine(rng, k, int(rng.integers(1, 4)), int(rng.integers(0, 4)), integer=True)
                for _ in range(2)
            )
            depth = max(f.depth, g.depth)
            strings = list(np.ndindex(*(k,) * depth))
            broken = [s for s in strings if f.payoff(s) > g.payoff(s)]
            ok, witness = pointwise_leq(f, g)
            assert ok == (not broken)
            if not ok:
                assert witness.startswith(f"string {broken[0]}")
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_witness_names_a_string(self, space):
        one = hitting_indicator(space, ["T"], 1)
        two = hitting_indicator(space, ["T"], 2)
        ok, witness = pointwise_leq(two, one)
        assert not ok
        assert "(0, 1)" in witness


class TestCylinders:
    def test_indicator_of_cylinder(self, space):
        ind = indicator_of_cylinder(space, (0,))
        assert ind.payoff((0,)) == 1.0
        assert ind.payoff((1,)) == 0.0

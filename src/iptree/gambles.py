"""Payoffs that depend on finitely many states.

A *finitary gamble* of depth ``n`` assigns a finite real payoff to every
length-``n`` state string.  Two interchangeable representations exist:

* :class:`FinitaryGamble` stores the payoffs as a dense ``(k,)*n`` table.
  This is the default, exact at desk scale, and capped in size.
* :class:`MachineGamble` is a deterministic reward automaton held in integer
  and float arrays: each symbol read moves it to a new state and pays a
  reward, and the payoff is the rewards of the first ``n`` symbols plus a
  terminal payoff of the state reached.  It represents deep-horizon payoffs
  whose dense tables would be astronomically large: truncated hitting times
  and hitting indicators are 2-state automata (not hit yet / hit).

Both expose ``depth``, ``payoff(string)``, negation and constant shifts; the
recursion engine accepts either, a dense table entering as the implicit
trie of its prefixes (:class:`MachineStack`): a prefix's state number gives
its children's, so only the table's cells are stored.
:func:`pointwise_leq` compares two gambles exactly without materializing
tables, reading the trie :func:`as_machine` builds; that is how the engine
proves a limit's approximations monotone, over its automaton's reachable
depth, before the first iterate.

A :class:`LimitVariable` is one automaton read to every depth, a monotone
sequence of finitary gambles, together with the direction of approximation
and a uniform bound on the appropriate side.  It is the computational handle
for payoffs that depend on the whole infinite path, such as unbounded
hitting times; because the arrays do not depend on the depth, the engine
gets the value of approximation m + 1 from that of approximation m with a
single Bellman step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .extreal import _derived, _frozen, check_no_nan
from .local import StateSpace
from .tree import Situation, as_situation, trie_position, trie_step

#: Default cap on dense-table size (cells); 2**12 keeps depth <= 12 for k=2.
DEFAULT_TABLE_CAP = 4096

#: Cap on one layer of :func:`pointwise_leq`'s walk, in (state, partial sum)
#: pairs: automata whose partial sums all differ double it with every symbol.
COMPARE_CAP = 1 << 16

#: NumPy arrays have at most this many axes (32 before NumPy 2), so no
#: dense table is deeper.
MAX_TABLE_DEPTH = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


@dataclass(frozen=True)
class FinitaryGamble:
    """Dense payoff table over the first ``depth`` states.

    ``table`` has shape ``(k,) * depth`` (a 0-d array for depth 0, i.e. a
    constant payoff).  All entries must be finite.
    """

    k: int
    table: np.ndarray

    def __post_init__(self):
        arr = check_no_nan(self.table, "payoff")
        if self.k < 1:
            raise InvalidInputError("state space size must be >= 1")
        if arr.shape != (self.k,) * arr.ndim:
            raise InvalidInputError(
                f"payoff table of shape {arr.shape} is not a ({self.k},)*n cube"
            )
        if not np.isfinite(arr).all():
            raise InvalidInputError("finitary gamble payoffs must be finite")
        object.__setattr__(self, "table", _frozen(arr.copy()))

    @classmethod
    def constant(cls, k: int, value: float) -> "FinitaryGamble":
        return cls(k, np.asarray(float(value)))

    @property
    def depth(self) -> int:
        return self.table.ndim

    def payoff(self, string: Situation) -> float:
        string = as_situation(string, self.k)
        if len(string) < self.depth:
            raise InvalidInputError(
                f"payoff needs at least {self.depth} states, got {len(string)}"
            )
        return float(self.table[string[: self.depth]])

    def lift(self, depth: int) -> "FinitaryGamble":
        """Same payoff viewed at a larger depth (constant over new states)."""
        if depth < self.depth:
            raise InvalidInputError("cannot lift a gamble to a smaller depth")
        if depth == self.depth:
            return self
        shape = self.table.shape + (1,) * (depth - self.depth)
        table = np.broadcast_to(self.table.reshape(shape), (self.k,) * depth)
        return FinitaryGamble(self.k, np.ascontiguousarray(table))

    def __neg__(self) -> "FinitaryGamble":
        # The table FinitaryGamble(k, -table) would store, unchecked: the
        # negation of a valid table is valid (``out`` keeps a 0-d table an array).
        table = np.negative(self.table, out=np.empty_like(self.table))
        return _derived(FinitaryGamble, k=self.k, table=_frozen(table))

    def __add__(self, other) -> "FinitaryGamble":
        if isinstance(other, (int, float)):
            return FinitaryGamble(self.k, self.table + float(other))
        if isinstance(other, FinitaryGamble):
            if other.k != self.k:
                raise InvalidInputError("gambles live on different state spaces")
            d = max(self.depth, other.depth)
            return FinitaryGamble(self.k, self.lift(d).table + other.lift(d).table)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, FinitaryGamble) else -float(other))

    def __mul__(self, scalar: float) -> "FinitaryGamble":
        return FinitaryGamble(self.k, self.table * float(scalar))

    __rmul__ = __mul__

    def bounds(self) -> tuple[float, float]:
        return float(self.table.min()), float(self.table.max())

    def to_dense(self, cap: int = DEFAULT_TABLE_CAP) -> "FinitaryGamble":
        return self


@dataclass(frozen=True, eq=False)
class MachineGamble:
    """Payoff computed by a deterministic reward automaton over state strings.

    States are ``range(len(terminal))`` and the start state is 0.  Reading
    symbol ``y`` in state ``q`` moves to ``step[q, y]`` and pays
    ``reward[q, y]``.  The payoff of a string is the reward of its first
    ``depth`` steps plus ``terminal`` of the state they reach; later symbols
    do not count.

    The constructor checks the arrays and stores read-only copies without
    negative zeros.  Automata derived from a checked one (its negation, and
    the truncations of :meth:`LimitVariable.generator`) share its frozen
    arrays, or hold frozen arrays computed from them, and are not checked
    again; nor are hitting automata, built from checked targets.
    """

    k: int
    depth: int
    step: np.ndarray  # (states, k) integers
    reward: np.ndarray  # (states, k)
    terminal: np.ndarray  # (states,)

    def __post_init__(self):
        step = np.array(self.step, dtype=np.intp)
        # Adding 0.0 turns -0.0 into 0.0: payoffs carry no negative zeros, and
        # neither do the values swept from them.
        reward = np.asarray(self.reward, dtype=float) + 0.0
        terminal = np.asarray(self.terminal, dtype=float) + 0.0
        if self.depth < 0:
            raise InvalidInputError("depth must be non-negative")
        n = len(terminal)
        if terminal.shape != (n,) or step.shape != (n, self.k) or reward.shape != (n, self.k):
            raise InvalidInputError(
                "an automaton needs (states, k) step and reward arrays and one terminal payoff per state"
            )
        if n == 0 or step.min() < 0 or step.max() >= n:
            raise InvalidInputError("automaton steps must lead to its states")
        if not (np.isfinite(reward).all() and np.isfinite(terminal).all()):
            check_no_nan(reward, "payoff")
            check_no_nan(terminal, "payoff")
            raise InvalidInputError("finitary gamble payoffs must be finite")
        for name, arr in (("step", step), ("reward", reward), ("terminal", terminal)):
            object.__setattr__(self, name, _frozen(arr))

    def read(self, string: Situation) -> tuple[float, int]:
        """The reward paid over the first ``depth`` symbols of ``string``
        and the state they lead to."""
        return _read(self, string)

    def payoff(self, string: Situation) -> float:
        string = as_situation(string, self.k)
        if len(string) < self.depth:
            raise InvalidInputError(
                f"payoff needs at least {self.depth} states, got {len(string)}"
            )
        paid, q = self.read(string)
        return float(paid + self.terminal[q])

    def extreme_payoffs(self, least: bool):
        """Per start state, the least (or, with ``least`` false, the
        largest) payoff of the strings of length r, for r = 0, 1, 2, ...

        One min (max) step over the arrays per length.  Every string is
        possible, so each bound is attained, up to rounding: the sums are
        formed from the last step backwards.
        """
        pick = np.minimum if least else np.maximum
        x = self.terminal
        while True:
            yield x
            x = pick.reduce(self.reward + x[self.step], axis=1)

    def bounds(self) -> tuple[float, float]:
        lo, hi = (next(itertools.islice(self.extreme_payoffs(least), self.depth, None)) for least in (True, False))
        return float(lo[0]), float(hi[0])

    def __neg__(self) -> "MachineGamble":
        # 0.0 - x is what the constructor stores for -x: no negative zeros.
        return _derived(
            MachineGamble, k=self.k, depth=self.depth, step=self.step,
            reward=_frozen(0.0 - self.reward), terminal=_frozen(0.0 - self.terminal),
        )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return MachineGamble(
                self.k, self.depth, self.step, self.reward, self.terminal + float(other)
            )
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar: float) -> "MachineGamble":
        scalar = float(scalar)
        return MachineGamble(
            self.k, self.depth, self.step, self.reward * scalar, self.terminal * scalar
        )

    __rmul__ = __mul__

    def to_dense(self, cap: int = DEFAULT_TABLE_CAP) -> FinitaryGamble:
        """Materialize the dense table (subject to the size cap and to
        :data:`MAX_TABLE_DEPTH`, which is checked first: past it,
        ``k**depth`` can have more digits than Python formats)."""
        if self.depth > MAX_TABLE_DEPTH:
            raise ResourceLimitError(
                f"table of depth {self.depth} exceeds the {MAX_TABLE_DEPTH} axes NumPy allows"
            )
        cells = self.k**self.depth
        if cells > cap:
            raise ResourceLimitError(
                f"dense table would need {cells} cells, cap is {cap}"
            )
        # All strings at once, in lexicographic order, summed as read() does.
        paid, states = np.zeros(1), np.zeros(1, dtype=np.intp)
        for _ in range(self.depth):
            paid = (paid[:, None] + self.reward[states]).reshape(-1)
            states = self.step[states].reshape(-1)
        table = (paid + self.terminal[states]).reshape((self.k,) * self.depth)
        return FinitaryGamble(self.k, table)


Gamble = Union[FinitaryGamble, MachineGamble]


def as_machine(f: Gamble) -> MachineGamble:
    """Automaton view of any gamble.

    A dense gamble becomes the trie of its prefixes
    (:func:`~iptree.tree.trie_step`), whose leaves pay the table as terminal
    payoff and whose steps pay nothing.  The trie has as many states as the
    table has cells and prefixes, so deep gambles should be born as
    :class:`MachineGamble`.
    """
    if isinstance(f, MachineGamble):
        return f
    step, leaves = trie_step(f.k, f.depth)
    terminal = np.zeros(len(step))
    terminal[leaves:] = f.table.reshape(-1)
    return MachineGamble(f.k, f.depth, step, np.zeros((len(step), f.k)), terminal)


@dataclass(frozen=True)
class MachineStack:
    """Gambles that share one automaton, as the columns of a gamble axis.

    ``step`` is the shared ``(states, k)`` transition array, ``reward`` has
    shape ``(states, k, G)`` and ``terminal`` ``(states, G)``: column ``g``
    holds gamble ``g``'s rewards and terminal payoffs.

    Dense gambles of one depth share the prefix trie of
    :func:`~iptree.tree.trie_step`, which is never built: ``step`` and
    ``reward`` are ``None`` (state ``q`` moves to ``k * q + 1 + y``, and no
    step pays), and ``terminal`` holds only the leaves' payoffs,
    ``(k**depth, G)``, in lexicographic order.
    """

    k: int
    depth: int
    step: np.ndarray | None
    reward: np.ndarray | None
    terminal: np.ndarray

    @classmethod
    def of(cls, gambles) -> "MachineStack":
        """Stack gambles of one state space: dense gambles of one depth share
        their prefix trie; automata must have equal step arrays and depths,
        like an automaton and its negation."""
        if not gambles:
            raise InvalidInputError("need at least one gamble")
        k, depth = gambles[0].k, gambles[0].depth
        if any(f.k != k for f in gambles):
            raise InvalidInputError("gambles live on different state spaces")
        if all(isinstance(f, FinitaryGamble) and f.depth == depth for f in gambles):
            # Adding 0.0 drops negative zeros, as as_machine's trie does.
            return cls(k, depth, None, None, np.stack([f.table.reshape(-1) for f in gambles], axis=1) + 0.0)
        machines = [as_machine(f) for f in gambles]
        step = machines[0].step
        if any(m.depth != depth or not (m.step is step or np.array_equal(m.step, step)) for m in machines):
            raise InvalidInputError("gambles evaluated together must share one automaton")
        reward = np.stack([m.reward for m in machines], axis=-1)
        return cls(k, depth, step, reward, np.stack([m.terminal for m in machines], axis=-1))

    @property
    def trie(self) -> bool:
        """Whether the automaton is the implicit prefix trie."""
        return self.step is None

    def read(self, string: Situation) -> tuple[np.ndarray, int]:
        """Each gamble's reward over the first ``depth`` symbols of
        ``string`` (0.0 for none), as :meth:`MachineGamble.read` pays it,
        and the state they lead to."""
        if self.trie:
            return 0.0, trie_position(self.k, string[: self.depth])
        return _read(self, string)

    def payoffs(self, q: np.ndarray) -> np.ndarray:
        """The terminal payoffs, ``(len(q), G)``, of the states ``q``: for
        the trie, leaves counted from the first leaf state."""
        if self.trie:
            return self.terminal[q - trie_position(self.k, (0,) * self.depth)]
        return self.terminal[q]


def _read(machine, string: Situation):
    """The reward of ``machine`` (a gamble, or a stack with a trailing
    gamble axis) over the first ``depth`` symbols of ``string``, summed in
    order, and the state reached."""
    paid, q = 0.0, 0
    for y in string[: machine.depth]:
        paid = paid + machine.reward[q, y]
        q = machine.step[q, y]
    return paid, int(q)


def restrict(f: FinitaryGamble, s: Situation) -> FinitaryGamble:
    """Zero the gamble outside the paths that pass through ``s``.

    The result has the same depth; on strings extending ``s`` it agrees with
    ``f``, elsewhere it pays 0.
    """
    if not isinstance(f, FinitaryGamble):
        raise InvalidInputError("restrict expects a dense finitary gamble")
    s = as_situation(s, f.k)
    if len(s) > f.depth:
        raise InvalidInputError(
            f"situation of length {len(s)} exceeds gamble depth {f.depth}"
        )
    table = np.zeros_like(f.table)
    table[s] = f.table[s]
    return _derived(FinitaryGamble, k=f.k, table=_frozen(table))  # zeros and f's payoffs: valid


def indicator_of_cylinder(space: StateSpace, s: Situation) -> FinitaryGamble:
    """Depth-``len(s)`` gamble paying 1 exactly on paths through ``s``."""
    s = as_situation(s, space.size)
    table = np.zeros((space.size,) * len(s))
    table[s] = 1.0
    return FinitaryGamble(space.size, table)


def indicator_of_strings(space: StateSpace, depth: int, strings) -> FinitaryGamble:
    """Indicator of a union of depth-``depth`` cylinders."""
    table = np.zeros((space.size,) * depth)
    for string in strings:
        string = as_situation(string, space.size)
        if len(string) != depth:
            raise InvalidInputError(
                f"event string {string} does not have the declared depth {depth}"
            )
        table[string] = 1.0
    return FinitaryGamble(space.size, table)


def _target_indices(space: StateSpace, targets) -> frozenset[int]:
    idx = frozenset(space.index(t) if isinstance(t, str) else int(t) for t in targets)
    if not idx:
        raise InvalidInputError("target state set must be non-empty")
    for i in idx:
        if not 0 <= i < space.size:
            raise InvalidInputError(f"target state index {i} out of range")
    return idx


def _hitting_arrays(space: StateSpace, idx: frozenset) -> tuple:
    """The frozen step array of the hitting automata of the target indices
    ``idx``, the rewards of the hitting time and of the hitting indicator,
    and the zero terminal payoffs, as the automaton constructor stores them.

    State 0 = not hit yet, 1 = hit.  min(tau, m) counts the steps i <= m
    taken while not yet hit, and the hitting indicator pays once, on the
    step that enters a target.  The arrays are kept on ``space`` per target
    set, so the hitting time and the hitting indicator of one target set
    share one ``step`` array, and with it the product closure a tree keeps
    (:meth:`~iptree.tree._View.closure`)."""
    built = vars(space).setdefault("_hitting_arrays", {})
    if idx not in built:
        hit = np.array([y in idx for y in range(space.size)])
        step = np.ones((2, space.size), dtype=np.intp)
        step[0] = hit
        time, event = np.zeros((2, space.size)), np.zeros((2, space.size))
        time[0], event[0] = 1.0, hit
        built[idx] = tuple(map(_frozen, (step, time, event, np.zeros(2))))
    return built[idx]


def _hitting_automaton(space: StateSpace, targets, depth: int, time: bool) -> MachineGamble:
    # Valid by construction once the targets are: not checked again.
    step, time_reward, event_reward, terminal = _hitting_arrays(space, _target_indices(space, targets))
    return _derived(
        MachineGamble, k=space.size, depth=depth, step=step,
        reward=time_reward if time else event_reward, terminal=terminal,
    )


def truncated_hitting_time(space: StateSpace, targets, horizon: int) -> MachineGamble:
    """Time of the first visit to ``targets``, truncated at ``horizon``.

    Pays ``min(first i <= horizon with X_i in targets, horizon)``; depends
    only on the first ``horizon`` states.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    return _hitting_automaton(space, targets, horizon, time=True)


def hitting_indicator(space: StateSpace, targets, horizon: int) -> MachineGamble:
    """Indicator of visiting ``targets`` within the first ``horizon`` states."""
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    return _hitting_automaton(space, targets, horizon, time=False)


class Direction(Enum):
    NON_DECREASING = "non_decreasing"
    NON_INCREASING = "non_increasing"


@dataclass(frozen=True)
class LimitVariable:
    """Monotone sequence of finitary gambles standing in for its limit.

    The m-th approximation, ``generator(m)``, is ``automaton`` read to depth
    m (its own ``depth`` is ignored).  Non-decreasing sequences must be
    bounded below by ``bound`` at every approximation m >= 1; non-increasing
    ones bounded above by it.  Approximation 0 is only the start of the
    monotonicity proof: a hitting time's pays 0, below its bound 1.  The
    engine proves monotonicity before it iterates, from horizon 1, and fails
    loudly on a violation.

    The approximations and the negation share the automaton's validated,
    frozen arrays (a negation holds their negated copies) instead of
    checking them again; only a negative depth is rejected.
    """

    automaton: MachineGamble
    direction: Direction
    bound: float

    def generator(self, m: int) -> MachineGamble:
        if m < 0:
            raise InvalidInputError("depth must be non-negative")
        a = self.automaton
        return _derived(MachineGamble, k=a.k, depth=m, step=a.step, reward=a.reward, terminal=a.terminal)

    def __neg__(self) -> "LimitVariable":
        flipped = (
            Direction.NON_INCREASING
            if self.direction is Direction.NON_DECREASING
            else Direction.NON_DECREASING
        )
        return LimitVariable(-self.automaton, flipped, -self.bound)


def hitting_time_variable(space: StateSpace, targets) -> LimitVariable:
    """Unbounded hitting time approximated by its truncations."""
    return LimitVariable(
        _hitting_automaton(space, targets, 0, time=True), Direction.NON_DECREASING, bound=1.0
    )


def hitting_event_variable(space: StateSpace, targets) -> LimitVariable:
    """Indicator of ever visiting ``targets``, via horizon indicators."""
    return LimitVariable(
        _hitting_automaton(space, targets, 0, time=False), Direction.NON_DECREASING, bound=0.0
    )


@dataclass(frozen=True)
class Cylinder:
    """Event: all paths passing through a situation."""

    situation: Situation


@dataclass(frozen=True)
class UnionAtDepth:
    """Event: union of cylinders of a common depth."""

    depth: int
    strings: tuple[Situation, ...]


@dataclass(frozen=True)
class Hitting:
    """Event: some state among ``targets`` is ever visited."""

    targets: tuple


EventSpec = Union[Cylinder, UnionAtDepth, Hitting]


def pointwise_leq(f: Gamble, g: Gamble) -> tuple[bool, str | None]:
    """Exact check that ``f <= g`` on every path, with a witness on failure.

    Both automata read the strings up to the larger depth (a gamble past its
    own depth stays put) and the reachable pairs of (state, reward paid so
    far) are compared at the end, the sums formed as :meth:`payoff` forms
    them.  The cost grows with the automaton sizes and the number of
    distinct partial sums: polynomially in the depth for hitting gambles
    (integer sums) and dense tables (no rewards), but as fast as the dense
    table for automata whose partial sums all differ.  So a layer whose
    next one could hold more than :data:`COMPARE_CAP` pairs raises
    :class:`~iptree.errors.ResourceLimitError` before it is walked.
    """
    if f.k != g.k:
        raise InvalidInputError("gambles live on different state spaces")
    mf, mg = as_machine(f), as_machine(g)
    sf, rf, sg, rg = mf.step.tolist(), mf.reward.tolist(), mg.step.tolist(), mg.reward.tolist()
    # Track a shortest witness prefix per reachable (qf, paid by f, qg, paid by g).
    layer: dict[tuple, Situation] = {(0, 0.0, 0, 0.0): ()}
    for level in range(1, max(f.depth, g.depth) + 1):
        if len(layer) * f.k > COMPARE_CAP:
            raise ResourceLimitError(
                f"comparing automata of {len(sf)} and {len(sg)} states: {len(layer)} (state, partial sum) "
                f"pairs at depth {level - 1}, times {f.k} symbols, pass the cap of {COMPARE_CAP}"
            )
        f_reads, g_reads = level <= mf.depth, level <= mg.depth
        nxt: dict[tuple, Situation] = {}
        for (qf, af, qg, ag), prefix in layer.items():
            if f_reads:
                f_steps, f_pays = sf[qf], rf[qf]
            if g_reads:
                g_steps, g_pays = sg[qg], rg[qg]
            for y in range(f.k):
                node = (
                    f_steps[y] if f_reads else qf, af + f_pays[y] if f_reads else af,
                    g_steps[y] if g_reads else qg, ag + g_pays[y] if g_reads else ag,
                )
                if node not in nxt:
                    nxt[node] = prefix + (y,)
        layer = nxt
    tf, tg = mf.terminal.tolist(), mg.terminal.tolist()
    for (qf, af, qg, ag), prefix in layer.items():
        pf, pg = af + tf[qf], ag + tg[qg]
        if pf > pg:
            return False, f"string {prefix}: {pf!r} > {pg!r}"
    return True, None

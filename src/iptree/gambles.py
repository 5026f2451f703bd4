"""Payoffs that depend on finitely many states.

A *finitary gamble* of depth ``n`` assigns a finite real payoff to every
length-``n`` state string.  Two interchangeable representations exist:

* :class:`FinitaryGamble` stores the payoffs as a dense ``(k,)*n`` table.
  This is the default, exact at desk scale, and capped in size.
* :class:`MachineGamble` computes the payoff with a small deterministic
  automaton that consumes the string one state at a time.  It represents
  deep-horizon payoffs (truncated hitting times, hitting indicators) whose
  dense tables would be astronomically large.

Both expose ``depth``, ``payoff(string)``, negation and constant shifts; the
recursion engine accepts either.  :func:`pointwise_leq` compares two gambles
exactly without materializing tables, which is how monotone approximating
sequences are audited.

A :class:`LimitVariable` is a monotone sequence of finitary gambles given by
a generator, together with the direction of approximation and a uniform bound
on the appropriate side.  It is the computational handle for payoffs that
depend on the whole infinite path, such as unbounded hitting times.  When
every approximation is the horizon-m gamble of one level-free
:class:`RewardAutomaton`, the variable carries that automaton too, and the
engine then gets iterate m + 1 from iterate m with a single Bellman step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .extreal import check_no_nan
from .local import StateSpace
from .tree import Situation, as_situation

#: Default cap on dense-table size (cells); 2**12 keeps depth <= 12 for k=2.
DEFAULT_TABLE_CAP = 4096


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
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @classmethod
    def constant(cls, k: int, value: float) -> "FinitaryGamble":
        return cls(k, np.asarray(float(value)))

    @classmethod
    def from_values(cls, k: int, depth: int, values) -> "FinitaryGamble":
        arr = np.asarray(values, dtype=float).reshape((k,) * depth)
        return cls(k, arr)

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
        return FinitaryGamble(self.k, -self.table)

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


@dataclass(frozen=True)
class MachineGamble:
    """Payoff computed by a deterministic automaton over state strings.

    ``step(level, state, symbol)`` consumes the symbol at position ``level``
    (1-based), ``final_payoff[state]`` is the payoff after ``depth`` symbols.
    States are integers in ``range(num_states)``.  The step function must be
    pure: gambles are evaluated repeatedly.
    """

    k: int
    depth: int
    num_states: int
    initial_state: int
    step: Callable[[int, int, int], int]
    final_payoff: np.ndarray
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        arr = check_no_nan(self.final_payoff, "payoff")
        if arr.shape != (self.num_states,):
            raise InvalidInputError("final_payoff must have one entry per state")
        if not np.isfinite(arr).all():
            raise InvalidInputError("finitary gamble payoffs must be finite")
        if self.depth < 0:
            raise InvalidInputError("depth must be non-negative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "final_payoff", arr)

    def state_after(self, string: Situation) -> int:
        state = self.initial_state
        for level, symbol in enumerate(string[: self.depth], start=1):
            state = self.step(level, state, symbol)
        return state

    def payoffs(self) -> np.ndarray:
        """Per-state payoffs at the final level, transform applied."""
        return self.scale * self.final_payoff + self.shift

    def payoff(self, string: Situation) -> float:
        string = as_situation(string, self.k)
        if len(string) < self.depth:
            raise InvalidInputError(
                f"payoff needs at least {self.depth} states, got {len(string)}"
            )
        return float(self.payoffs()[self.state_after(string)])

    def lift(self, depth: int) -> "MachineGamble":
        """Deeper view: extra symbols leave the state untouched."""
        if depth < self.depth:
            raise InvalidInputError("cannot lift a gamble to a smaller depth")
        if depth == self.depth:
            return self
        inner_depth = self.depth
        inner_step = self.step

        def step(level: int, state: int, symbol: int) -> int:
            return inner_step(level, state, symbol) if level <= inner_depth else state

        return MachineGamble(
            self.k, depth, self.num_states, self.initial_state, step,
            self.final_payoff, self.scale, self.shift,
        )

    def __neg__(self) -> "MachineGamble":
        return MachineGamble(
            self.k, self.depth, self.num_states, self.initial_state, self.step,
            self.final_payoff, -self.scale, -self.shift,
        )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return MachineGamble(
                self.k, self.depth, self.num_states, self.initial_state, self.step,
                self.final_payoff, self.scale, self.shift + float(other),
            )
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar: float) -> "MachineGamble":
        scalar = float(scalar)
        return MachineGamble(
            self.k, self.depth, self.num_states, self.initial_state, self.step,
            self.final_payoff, self.scale * scalar, self.shift * scalar,
        )

    __rmul__ = __mul__

    def bounds(self) -> tuple[float, float]:
        # Conservative: over all automaton states, not only reachable ones.
        vals = self.payoffs()
        return float(vals.min()), float(vals.max())

    def to_dense(self, cap: int = DEFAULT_TABLE_CAP) -> FinitaryGamble:
        """Materialize the dense table (subject to the size cap)."""
        cells = self.k**self.depth
        if cells > cap:
            raise ResourceLimitError(
                f"dense table would need {cells} cells, cap is {cap}"
            )
        payoffs = self.payoffs()
        table = np.empty((self.k,) * self.depth)
        for string in itertools.product(range(self.k), repeat=self.depth):
            table[string] = payoffs[self.state_after(string)]
        return FinitaryGamble(self.k, table)


Gamble = Union[FinitaryGamble, MachineGamble]


def as_machine(f: Gamble) -> MachineGamble:
    """Automaton view of any gamble.

    For a dense gamble the states at level ``m`` are the flattened length-m
    prefixes, so this is only sensible at small depths; deep gambles should
    be born as :class:`MachineGamble`.
    """
    if isinstance(f, MachineGamble):
        return f
    k, depth = f.k, f.depth

    def step(level: int, state: int, symbol: int) -> int:
        return state * k + symbol

    return MachineGamble(
        k, depth, max(k**depth, 1), 0, step, f.table.reshape(-1).astype(float)
    )


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
    return FinitaryGamble(f.k, table)


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


# Automaton states shared by the hitting constructs: 0 = not hit yet,
# i >= 1 = first hit happened at time i.
def _hitting_step(targets: frozenset[int]) -> Callable[[int, int, int], int]:
    def step(level: int, state: int, symbol: int) -> int:
        if state == 0 and symbol in targets:
            return level
        return state

    return step


def truncated_hitting_time(space: StateSpace, targets, horizon: int) -> MachineGamble:
    """Time of the first visit to ``targets``, truncated at ``horizon``.

    Pays ``min(first i <= horizon with X_i in targets, horizon)``; depends
    only on the first ``horizon`` states.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    idx = _target_indices(space, targets)
    payoff = np.arange(horizon + 1, dtype=float)
    payoff[0] = float(horizon)  # never hit within the horizon
    return MachineGamble(space.size, horizon, horizon + 1, 0, _hitting_step(idx), payoff)


def hitting_indicator(space: StateSpace, targets, horizon: int) -> MachineGamble:
    """Indicator of visiting ``targets`` within the first ``horizon`` states."""
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    idx = _target_indices(space, targets)
    payoff = np.ones(horizon + 1)
    payoff[0] = 0.0
    return MachineGamble(space.size, horizon, horizon + 1, 0, _hitting_step(idx), payoff)


@dataclass(frozen=True, eq=False)
class RewardAutomaton:
    """Level-free automaton that pays a reward on every step it takes.

    States are ``range(len(terminal))`` and the start state is 0.  Reading
    symbol ``y`` in state ``q`` moves to ``step[q, y]`` and pays
    ``reward[q, y]``.  The horizon-m gamble it describes pays the rewards of
    the first m steps plus ``terminal`` of the state reached, so one
    automaton describes a whole sequence of gambles, one per horizon.
    """

    step: np.ndarray  # (states, k) integers
    reward: np.ndarray  # (states, k)
    terminal: np.ndarray  # (states,)

    def __neg__(self) -> "RewardAutomaton":
        return RewardAutomaton(self.step, -self.reward, -self.terminal)


def _hitting_automaton(k: int, targets: frozenset[int], time: bool) -> RewardAutomaton:
    # State 0 = not hit yet, 1 = hit.  min(tau, m) counts the steps i <= m
    # taken while not yet hit, and the hitting indicator pays once, on the
    # step that enters a target.
    hit = np.array([y in targets for y in range(k)])
    step = np.ones((2, k), dtype=np.intp)
    step[0] = hit
    reward = np.zeros((2, k))
    reward[0] = 1.0 if time else hit
    return RewardAutomaton(step, reward, np.zeros(2))


class Direction(Enum):
    NON_DECREASING = "non_decreasing"
    NON_INCREASING = "non_increasing"


@dataclass(frozen=True)
class LimitVariable:
    """Monotone sequence of finitary gambles standing in for its limit.

    ``generator(m)`` (m >= 1) yields the m-th approximation.  Non-decreasing
    sequences must be uniformly bounded below by ``bound``; non-increasing
    ones uniformly bounded above by it.  Monotonicity is the caller's
    promise; consumers audit it up to a horizon and fail loudly on
    violations.

    ``stationary``, when given, is a :class:`RewardAutomaton` whose horizon-m
    gamble pays what ``generator(m)`` pays on every path.  The engine then
    computes the iterates from the automaton in one Bellman step each; the
    generator is still the one audited for bounds and monotonicity.
    """

    generator: Callable[[int], Gamble]
    direction: Direction
    bound: float
    stationary: RewardAutomaton | None = None

    def __neg__(self) -> "LimitVariable":
        gen = self.generator
        flipped = (
            Direction.NON_INCREASING
            if self.direction is Direction.NON_DECREASING
            else Direction.NON_DECREASING
        )
        stationary = None if self.stationary is None else -self.stationary
        return LimitVariable(lambda m: -gen(m), flipped, -self.bound, stationary)


def hitting_time_variable(space: StateSpace, targets) -> LimitVariable:
    """Unbounded hitting time approximated by its truncations."""
    idx = _target_indices(space, targets)
    return LimitVariable(
        lambda m: truncated_hitting_time(space, idx, m),
        Direction.NON_DECREASING,
        bound=1.0,
        stationary=_hitting_automaton(space.size, idx, time=True),
    )


def hitting_event_variable(space: StateSpace, targets) -> LimitVariable:
    """Indicator of ever visiting ``targets``, via horizon indicators."""
    idx = _target_indices(space, targets)
    return LimitVariable(
        lambda m: hitting_indicator(space, idx, m),
        Direction.NON_DECREASING,
        bound=0.0,
        stationary=_hitting_automaton(space.size, idx, time=False),
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

    Both gambles are lifted to the larger depth and compared over the
    reachable pairs of automaton states, so the cost is polynomial in the
    automaton sizes rather than exponential in the depth.
    """
    if f.k != g.k:
        raise InvalidInputError("gambles live on different state spaces")
    depth = max(f.depth, g.depth)
    mf, mg = as_machine(f).lift(depth), as_machine(g).lift(depth)
    pf, pg = mf.payoffs(), mg.payoffs()
    # Track a shortest witness prefix per reachable state pair.
    layer: dict[tuple[int, int], Situation] = {(mf.initial_state, mg.initial_state): ()}
    for level in range(1, depth + 1):
        nxt: dict[tuple[int, int], Situation] = {}
        for (qf, qg), prefix in layer.items():
            for y in range(f.k):
                pair = (mf.step(level, qf, y), mg.step(level, qg, y))
                if pair not in nxt:
                    nxt[pair] = prefix + (y,)
        layer = nxt
    for (qf, qg), prefix in layer.items():
        if pf[qf] > pg[qg]:
            return False, f"string {prefix}: {pf[qf]!r} > {pg[qg]!r}"
    return True, None

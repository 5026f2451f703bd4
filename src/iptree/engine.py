"""Conditional global upper and lower expectations.

For a finitary gamble the conditional upper expectation given a situation is
computed exactly by backward recursion: at the deepest level the values are
the payoffs themselves, and one level up the value at a prefix is the local
upper expectation of the values over the next state.  This is the law of
iterated upper expectations run backwards, and it characterizes the unique
most conservative global model consistent with the local ones; the same
number is the infimum of supermartingale certificates (see
:mod:`.supermartingale`) and the upper envelope over compatible precise trees
(see :mod:`.oracle`), which the test suite cross-checks.

One kernel runs the recursion for every gamble.  It walks the product of
the tree's finite-state view and the gamble's reward automaton (a dense
gamble enters through :func:`~iptree.gambles.as_machine`, whose states are
the prefixes) forward to collect the reachable nodes level by level, then
sweeps those product layers backwards, one batched matrix product per level:
a node's value is the local upper expectation of the step reward plus the
successor's value.  Upper expectations, the value at every situation and the
attaining compatible precise tree are all read off that one sweep.

Payoffs that depend on the whole infinite path enter through
:class:`~iptree.gambles.LimitVariable`, one automaton read to every depth:
the engine evaluates the monotone approximations until the values
stabilize, certify divergence, or hit the horizon cap, and reports the full
iterate history either way.  The iterates are finite-horizon value
iteration over the fixed set of (tree state, automaton state) nodes
reachable from the situation, one Bellman step per iterate, so a limit costs
time linear in the horizon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import InvalidInputError, MonotonicityError
from .extreal import INF
from .gambles import (
    Cylinder,
    Direction,
    EventSpec,
    FinitaryGamble,
    Gamble,
    Hitting,
    LimitVariable,
    MachineGamble,
    UnionAtDepth,
    as_machine,
    hitting_event_variable,
    indicator_of_cylinder,
    indicator_of_strings,
    pointwise_leq,
)
from .local import CredalSet, MassFunction
from .tree import PreciseTree, Situation, Tree, as_situation

#: Slack allowed when auditing that iterate values follow the declared
#: monotone direction (pure float noise; anything larger is a generator bug).
_VALUE_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class Policy:
    """Convergence policy for limit evaluations.

    ``monotone_audit`` consecutive approximation pairs are compared pointwise
    (exactly, via the automaton product); iterate values are audited for
    monotonicity throughout.  Divergence is declared only when the iterates
    are monotone and exceed ``divergence_threshold`` in the direction of
    approximation; no finite computation can truly certify an infinite limit,
    so the flag is a documented heuristic.
    """

    tol: float = 1e-9
    max_horizon: int = 100
    divergence_threshold: float = 1e12
    monotone_audit: int = 4
    start_index: int = 1

    def __post_init__(self):
        finite = 0 < self.tol < INF and 0 < self.divergence_threshold < INF
        counts = self.max_horizon >= 1 and self.monotone_audit >= 0 and self.start_index >= 0
        if not finite or not counts:
            raise InvalidInputError("policy fields must be positive and finite")


class StopReason(Enum):
    STABILIZED = "stabilized"
    HORIZON_CAP = "horizon_cap"
    DIVERGING = "diverging"


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of a monotone limit evaluation.

    ``value`` equals the last iterate when stabilized and +/-inf when
    divergence was certified; ``iterates`` is the full (horizon, value)
    history.
    """

    value: float
    iterates: tuple[tuple[int, float], ...]
    converged: bool
    stop_reason: StopReason
    tol: float

    def to_json(self) -> dict:
        from .extreal import fmt

        return {
            "value": fmt(self.value),
            "converged": self.converged,
            "stop_reason": self.stop_reason.value,
            "tol": self.tol,
            "iterates": [[m, fmt(v)] for m, v in self.iterates],
        }


def _points_of(leaf) -> np.ndarray:
    if isinstance(leaf, CredalSet):
        return leaf.points
    if isinstance(leaf, MassFunction):
        return leaf.weights[None, :]
    raise InvalidInputError(f"not a local model: {leaf!r}")


def _machine_layers(tree: Tree, f: MachineGamble, s: Situation):
    """Forward reachability of (tree state, gamble state) nodes from ``s``.

    Returns the tree states met above the deepest level, then per level the
    nodes (their tree states' positions in that list and their gamble
    states, in order of discovery) and the (node, symbol) -> next-node index
    tables for levels len(s)..depth.  Only the tree's finite-state view is
    called per tree state; the nodes move as arrays.
    """
    assignment, k, n_q = tree.assignment, tree.k, len(f.terminal)
    states = [assignment.machine_init(s)]
    ids = {states[0]: 0}  # tree state -> its position in `states`
    succ = np.zeros((0, k), dtype=np.intp)  # successors of the expanded tree states
    layers = [(np.zeros(1, dtype=np.intp), np.array([f.read(s)[1]], dtype=np.intp))]
    transitions: list[np.ndarray] = []
    for _ in range(len(s), f.depth):
        if len(succ) < len(states):  # tree states met on the last level
            grown = []
            for t in states[len(succ) :]:
                for y in range(k):
                    nxt = assignment.machine_step(t, y)
                    if nxt not in ids:
                        ids[nxt] = len(states)
                        states.append(nxt)
                    grown.append(ids[nxt])
            succ = np.concatenate([succ, np.array(grown, dtype=np.intp).reshape(-1, k)])
        t, q = layers[-1]
        index: dict[int, int] = {}  # node code -> its position in the level
        codes = (succ[t] * n_q + f.step[q]).ravel().tolist()
        targets = [index.setdefault(c, len(index)) for c in codes]
        transitions.append(np.array(targets, dtype=np.intp).reshape(-1, k))
        layers.append(np.divmod(np.array(list(index), dtype=np.intp), n_q))
    return states[: len(succ)], layers, transitions


def _local_points(tree: Tree, states) -> tuple[np.ndarray, np.ndarray]:
    """Extreme points of each tree state's local model, zero-padded to
    ``(states, most points, k)``, and the number of points of each."""
    leaves = [_points_of(tree.assignment.machine_leaf(t)) for t in states]
    counts = np.array([len(p) for p in leaves], dtype=np.intp)
    points = np.zeros((len(leaves), counts.max(initial=0), tree.k))
    for i, p in enumerate(leaves):
        points[i, : len(p)] = p
    return points, counts


def _batches(points: np.ndarray, counts: np.ndarray, rows: np.ndarray) -> list:
    """The nodes of one level grouped by extreme-point count, each group with
    its nodes' points.

    One batched product per count gives every node the BLAS call
    ``points @ values`` makes, so its value is bit-identical to the local
    upper expectation and independent of its neighbours.
    """
    count = counts[rows]
    if count.min() == count.max():
        return [(slice(None), points[rows, : count[0]])]
    batches = []
    for c in np.unique(count):
        sel = np.flatnonzero(count == c)
        batches.append((sel, points[rows[sel], :c]))
    return batches


def _bellman(batches: list, nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One backward step: each node's local upper expectation of ``nxt``
    (nodes, k), the step reward plus the value after each symbol, and the
    attaining extreme point."""
    vals = np.empty(len(nxt))
    best = np.empty(len(nxt), dtype=np.intp)
    nxt = nxt[:, :, None]
    for sel, pts in batches:
        scores = (pts @ nxt[sel])[:, :, 0]
        pick = scores.argmax(axis=1)
        best[sel] = pick
        vals[sel] = scores[np.arange(len(pick)), pick]
    return vals, best


def _sweep(tree: Tree, f: Gamble, s: Situation):
    """The backward recursion over the product layers below ``s``.

    Returns the tree states and layers of :func:`_machine_layers`, every
    node's value (the upper expectation of the rewards still to come plus the
    terminal payoff) and, for every node above the deepest level, the index
    of the extreme point attaining that value (the lowest on ties).  Each
    level costs a few array operations over all its nodes, whatever the
    number of tree states.
    """
    if f.k != tree.k:
        raise InvalidInputError("gamble and tree live on different state spaces")
    f = as_machine(f)
    states, layers, transitions = _machine_layers(tree, f, s)
    points, counts = _local_points(tree, states)
    values = [f.terminal[layers[-1][1]]]
    argmax: list[np.ndarray] = []
    for li in range(len(transitions) - 1, -1, -1):
        t, q = layers[li]
        vals, best = _bellman(_batches(points, counts, t), f.reward[q] + values[0][transitions[li]])
        values.insert(0, vals)
        argmax.insert(0, best)
    return states, layers, values, argmax


def finitary_upper(tree: Tree, f: Gamble, s: Situation = ()) -> float:
    """Conditional upper expectation of a finitary gamble given ``s``.

    Exact up to floating arithmetic; conditioning on a situation at or below
    the gamble's depth just reads the payoff off.  Accepts an imprecise or a
    precise tree (the latter behaves as its one-point credal sets).
    """
    s, f = as_situation(s, tree.k), as_machine(f)
    values = _sweep(tree, f, s)[2]
    return float(f.read(s)[0] + values[0][0])


def finitary_lower(tree: Tree, f: Gamble, s: Situation = ()) -> float:
    """Conjugate lower expectation: ``-upper(-f)``."""
    return -finitary_upper(tree, -f, s)


@dataclass(frozen=True)
class _MachineSelection:
    """Precise assignment keyed by the (tree state, gamble state) product.

    Realizes the extreme-point choices an adversarial recursion made at each
    product node as an ordinary tree over situations: both coordinates are
    deterministic functions of the situation, so the selection is
    well-defined everywhere.  Situations outside the recorded layers fall
    back to the first extreme point.  Past the gamble's depth nothing was
    recorded, so the level stays frozen there: the view then has finitely
    many states, as the stationary limit path needs.
    """

    base: object  # assignment of the tree the recursion ran on
    gamble: MachineGamble
    choices: dict  # (level, tree state, gamble state) -> extreme-point index

    def validate(self, k: int, leaf_type: type):
        if leaf_type is not MassFunction:
            raise InvalidInputError("machine selections provide mass-function leaves")

    def local(self, s: Situation) -> MassFunction:
        return self.machine_leaf(self.machine_init(s))

    def machine_init(self, s: Situation):
        level = min(len(s), self.gamble.depth)
        return (level, self.base.machine_init(s), self.gamble.read(s)[1])

    def machine_step(self, state, symbol: int):
        level, t, q = state
        if level == self.gamble.depth:
            return (level, self.base.machine_step(t, symbol), q)
        return (level + 1, self.base.machine_step(t, symbol), int(self.gamble.step[q, symbol]))

    def machine_leaf(self, state) -> MassFunction:
        _, t, _ = state
        points = _points_of(self.base.machine_leaf(t))
        return MassFunction(points[self.choices.get(state, 0)])


def adversarial_selection(tree: Tree, f: Gamble, s: Situation = ()) -> PreciseTree:
    """The compatible precise tree whose choices attain the recursion value.

    Replays the backward recursion and records, at every reachable node, the
    extreme point that achieves the maximum (ties broken by lowest index).
    The returned tree plays those choices and the first extreme point
    anywhere the recursion never looked; its expectation of ``f`` given
    ``s`` equals ``finitary_upper(tree, f, s)``.
    """
    s = as_situation(s, tree.k)
    machine = as_machine(f)
    states, layers, _, argmax = _sweep(tree, machine, s)
    picked = {
        (len(s) + li, states[t], q): best
        for li, picks in enumerate(argmax)
        for t, q, best in zip(*(a.tolist() for a in layers[li]), picks.tolist())
    }
    return PreciseTree(tree.state_space, _MachineSelection(tree.assignment, machine, picked))


def value_table(tree: Tree, f: FinitaryGamble) -> list[np.ndarray]:
    """Conditional upper expectations at every situation up to the depth.

    ``result[m]`` has shape ``(k,)*m`` and holds the value given each
    length-m situation; ``result[depth]`` is the payoff table itself.
    """
    if not isinstance(f, FinitaryGamble):
        raise InvalidInputError("value_table expects a dense finitary gamble")
    # Swept from the root, a dense gamble's product nodes at level m are the
    # length-m prefixes, one each, in lexicographic order.
    values = _sweep(tree, f, ())[2]
    return [vals.reshape((tree.k,) * m) for m, vals in enumerate(values)]


def _audit_bound(v: LimitVariable, lo: float, hi: float, m: int):
    if v.direction is Direction.NON_DECREASING and lo < v.bound - 1e-12:
        raise InvalidInputError(
            f"approximation {m} attains {lo}, below the declared lower bound {v.bound}"
        )
    if v.direction is Direction.NON_INCREASING and hi > v.bound + 1e-12:
        raise InvalidInputError(
            f"approximation {m} attains {hi}, above the declared upper bound {v.bound}"
        )


def _limit_values(tree: Tree, auto: MachineGamble, s: Situation, first: int):
    """Conditional upper expectations given ``s`` of the automaton read to
    depth m, for m = first, first + 1, ...

    Along ``s`` the payoff is settled: iterate m <= len(s) is the reward of
    the first m steps of ``s`` plus the terminal payoff.  Beyond, iterate m
    is the reward of all of ``s`` plus ``V_{m - len(s)}`` at the node
    (tree state, automaton state) that ``s`` leads to, where ``V_0`` is the
    terminal payoff and ``V_{r+1}`` is the local upper expectation of the
    step reward plus ``V_r`` at the successor.  Both coordinates are
    level-free, so ``V`` lives on the finite closure of nodes reachable from
    there, and each further iterate costs one Bellman step over it.
    """
    accs, qs = [0.0], [0]
    for y in s:
        accs.append(accs[-1] + auto.reward[qs[-1], y])
        qs.append(int(auto.step[qs[-1], y]))
    m = first
    while m <= len(s):
        yield float(accs[m] + auto.terminal[qs[m]])
        m += 1
    assignment = tree.assignment
    symbols = range(tree.k)
    step = auto.step.tolist()
    nodes = [(assignment.machine_init(s), qs[-1])]
    index = {nodes[0]: 0}  # node -> its position in `nodes`
    targets: list[int] = []
    successors: dict = {}  # tree state -> its successor after each symbol
    for t, q in nodes:  # grows while it is walked: a breadth-first closure
        succ = successors.get(t)
        if succ is None:
            succ = successors[t] = [assignment.machine_step(t, y) for y in symbols]
        for y in symbols:
            pair = (succ[y], step[q][y])
            j = index.get(pair)
            if j is None:
                j = index[pair] = len(nodes)
                nodes.append(pair)
            targets.append(j)
    trans = np.array(targets, dtype=np.intp).reshape(-1, tree.k)
    states: dict = {}  # tree state -> its row in `points`
    rows = np.array([states.setdefault(t, len(states)) for t, _ in nodes], dtype=np.intp)
    batches = _batches(*_local_points(tree, states), rows)
    q_of = np.array([q for _, q in nodes], dtype=np.intp)
    reward = auto.reward[q_of]
    values = auto.terminal[q_of]
    for _ in range(len(s) + 1, m):  # iterates before `first` are not reported
        values, _ = _bellman(batches, reward + values[trans])
    while True:
        values, _ = _bellman(batches, reward + values[trans])
        yield float(accs[-1] + values[0])


def limit_upper(
    tree: Tree, v: LimitVariable, s: Situation = (), policy: Policy = Policy()
) -> ApproxResult:
    """Upper expectation of a monotone limit of finitary gambles.

    Monotone limits of the approximations' values converge to the value of
    the limit variable, in both directions, so the iterates are the
    successive finitary upper expectations.  Stops when two successive
    iterates agree within ``policy.tol`` (stabilized), when the iterates
    grow monotonically past the divergence threshold (certified-diverging,
    value +/-inf), or at the horizon cap, in which case the last iterate is
    reported without extrapolation.

    The value vector over the reachable (tree state, automaton state) nodes
    is kept between iterates, so each costs one Bellman step and a limit of
    H iterates costs O(H) sweeps of a fixed node set.  Every approximation
    is audited against the declared bound (its exact payoff range, advanced
    by one min/max step per iterate), the first ``policy.monotone_audit``
    pairs pointwise, and the values for monotonicity.
    """
    s = as_situation(s, tree.k)
    first = policy.start_index
    values = _limit_values(tree, v.automaton, s, first)
    extremes = itertools.islice(v.automaton.extremes(), first, None)
    iterates: list[tuple[int, float]] = []
    prev_val: float | None = None
    non_decreasing = v.direction is Direction.NON_DECREASING
    for m, (lo, hi) in zip(range(first, first + policy.max_horizon), extremes):
        _audit_bound(v, float(lo[0]), float(hi[0]), m)
        if m > first and len(iterates) <= policy.monotone_audit:
            lo_g, hi_g = (m - 1, m) if non_decreasing else (m, m - 1)
            ok, witness = pointwise_leq(v.generator(lo_g), v.generator(hi_g))
            if not ok:
                raise MonotonicityError(
                    f"approximations {m - 1} and {m} violate the declared direction",
                    witness,
                )
        val = next(values)
        iterates.append((m, val))
        if prev_val is not None:
            drift = val - prev_val if non_decreasing else prev_val - val
            if drift < -_VALUE_MONOTONE_SLACK:
                raise MonotonicityError(
                    f"iterate values move against the declared direction at index {m}",
                    f"{prev_val!r} -> {val!r}",
                )
            if abs(val - prev_val) < policy.tol:
                return ApproxResult(val, tuple(iterates), True, StopReason.STABILIZED, policy.tol)
        if non_decreasing and val > policy.divergence_threshold:
            return ApproxResult(INF, tuple(iterates), False, StopReason.DIVERGING, policy.tol)
        if not non_decreasing and val < -policy.divergence_threshold:
            return ApproxResult(-INF, tuple(iterates), False, StopReason.DIVERGING, policy.tol)
        prev_val = val
    return ApproxResult(prev_val, tuple(iterates), False, StopReason.HORIZON_CAP, policy.tol)


def limit_lower(
    tree: Tree, v: LimitVariable, s: Situation = (), policy: Policy = Policy()
) -> ApproxResult:
    """Conjugate lower expectation of a limit variable: ``-upper(-v)``."""
    res = limit_upper(tree, -v, s, policy)
    return ApproxResult(
        -res.value,
        tuple((m, -x) for m, x in res.iterates),
        res.converged,
        res.stop_reason,
        res.tol,
    )


def upper_probability(
    tree: Tree, event: EventSpec, s: Situation = (), policy: Policy = Policy()
) -> Union[float, ApproxResult]:
    """Upper probability of an event: upper expectation of its indicator.

    Cylinder and fixed-depth union events resolve exactly through the
    finitary recursion; hitting events go through the monotone limit of
    horizon indicators and return the full :class:`ApproxResult`.
    """
    space = tree.state_space
    if isinstance(event, Cylinder):
        return finitary_upper(tree, indicator_of_cylinder(space, event.situation), s)
    if isinstance(event, UnionAtDepth):
        return finitary_upper(
            tree, indicator_of_strings(space, event.depth, event.strings), s
        )
    if isinstance(event, Hitting):
        return limit_upper(tree, hitting_event_variable(space, event.targets), s, policy)
    raise InvalidInputError(f"unknown event specification {event!r}")


def lower_probability(
    tree: Tree, event: EventSpec, s: Situation = (), policy: Policy = Policy()
) -> Union[float, ApproxResult]:
    """Lower probability of an event, by conjugacy."""
    space = tree.state_space
    if isinstance(event, Cylinder):
        return finitary_lower(tree, indicator_of_cylinder(space, event.situation), s)
    if isinstance(event, UnionAtDepth):
        return finitary_lower(
            tree, indicator_of_strings(space, event.depth, event.strings), s
        )
    if isinstance(event, Hitting):
        return limit_lower(tree, hitting_event_variable(space, event.targets), s, policy)
    raise InvalidInputError(f"unknown event specification {event!r}")

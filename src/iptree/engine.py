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
gamble enters as the trie of its prefixes) forward to collect the reachable
nodes level by level, then sweeps those product layers backwards: a node's
value is the local upper expectation of the step reward plus the
successor's value.  Values carry a trailing gamble axis, so gambles that
share an automaton (dense gambles of one depth, a gamble and its negation)
go through one sweep, and every local expectation is the one ordered sum
:func:`~iptree.extreal.weighted_sum`, whose bits do not depend on the batch.
Upper expectations, the value at every situation and the attaining
compatible precise tree are all read off that one sweep.

Payoffs that depend on the whole infinite path enter through
:class:`~iptree.gambles.LimitVariable`, one automaton read to every depth:
the engine evaluates the monotone approximations until the values
stabilize, certify divergence, or hit the horizon cap, and reports the full
iterate history either way.  The iterates are value iteration over the
fixed set of (tree state, automaton state) nodes reachable from the
situation, one Bellman step per iterate, so a limit costs time linear in
the horizon; the upper and the lower limit share the pass.

On that finite closure a hitting time or a hitting probability needs no
truncation: its limit is the least non-negative solution of the Bellman
equation, which :func:`limit_bounds` computes exactly, by a graph pass for
the infinite and zero values and policy iteration for the rest, keeping a
short run of audited iterates as the trail it checks the solution against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Union

import numpy as np

from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

from .errors import InvalidInputError, IptreeError, MonotonicityError
from .extreal import INF, fmt, weighted_sum
from .gambles import (
    Cylinder,
    Direction,
    EventSpec,
    FinitaryGamble,
    Gamble,
    Hitting,
    LimitVariable,
    MachineStack,
    UnionAtDepth,
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

#: Policy iteration switches a node's extreme point only when that gains
#: more than this, relative to the node's value (at least 1): ties and
#: rounding never switch.
_SWITCH_GAIN = 1e-12

#: Policy iteration rounds before giving up; each strictly improves the
#: values, so a finite closure needs finitely many.
_MAX_ROUNDS = 1000

#: Closures of up to this many unknown nodes are solved densely, larger
#: ones as sparse systems.
_DENSE_SOLVE = 256


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
    SOLVED = "solved"


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
    #: With ``limit_upper(..., with_lower=True)``, the lower limit from the
    #: same pass; an attachment, not part of this result's value or report.
    lower: Optional["ApproxResult"] = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
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


def _tree_moves(assignment, k: int, states: list, ids: dict, start: int) -> list:
    """The successors' positions in ``states`` of ``states[start:]``, one
    row of ``k`` per tree state; new tree states are appended to ``states``
    and ``ids`` (tree state -> position)."""
    rows = []
    for t in states[start:]:
        row = []
        for y in range(k):
            nxt = assignment.machine_step(t, y)
            if nxt not in ids:
                ids[nxt] = len(states)
                states.append(nxt)
            row.append(ids[nxt])
        rows.append(row)
    return rows


def _machine_layers(tree: Tree, step: np.ndarray, s: Situation, q0: int, depth: int, trie=False):
    """Forward reachability of (tree state, automaton state) nodes from
    ``s``, whose automaton state is ``q0``, level by level up to ``depth``
    (a node once per level).  With ``trie``, the automaton is a prefix trie
    (:func:`~iptree.gambles.trie_step`): its states name their prefixes, so
    every node of a level is new and none needs looking up.

    Returns the tree states met above the last level, the nodes per level
    (their tree states' positions in that list and their automaton states,
    in order of discovery) and the (node, symbol) -> node tables into the
    next level.  Only the tree's finite-state view is called per tree
    state; the nodes move as arrays.
    """
    assignment, k, n_q = tree.assignment, tree.k, len(step)
    states = [assignment.machine_init(s)]
    ids = {states[0]: 0}  # tree state -> its position in `states`
    succ = np.zeros((0, k), dtype=np.intp)  # successors of the expanded tree states
    layers = [(np.zeros(1, dtype=np.intp), np.array([q0], dtype=np.intp))]
    transitions: list[np.ndarray] = []
    for _ in range(len(s), depth):
        if len(succ) < len(states):  # tree states met on the last level
            grown = _tree_moves(assignment, k, states, ids, len(succ))
            succ = np.concatenate([succ, np.array(grown, dtype=np.intp).reshape(-1, k)])
        t, q = layers[-1]
        codes = (succ[t] * n_q + step[q]).ravel()
        if trie:  # distinct codes, kept in order of discovery
            transitions.append(np.arange(len(codes)).reshape(-1, k))
            layers.append(np.divmod(codes, n_q))
            continue
        index: dict = {}  # node code -> its position in the next level
        targets = [index.setdefault(c, len(index)) for c in codes.tolist()]
        transitions.append(np.array(targets, dtype=np.intp).reshape(-1, k))
        layers.append(np.divmod(np.array(list(index), dtype=np.intp), n_q))
    return states[: len(succ)], layers, transitions


def _local_points(tree: Tree, states) -> np.ndarray:
    """Extreme points of each tree state's local model, ``(states, most
    points, k)``.  A model with fewer points repeats its first point in the
    spare rows: a copy scores what the first point scores, so it never
    raises the maximum, and the argmax (the lowest index among ties) never
    picks it."""
    leaves = [_points_of(tree.assignment.machine_leaf(t)) for t in states]
    points = np.empty((len(leaves), max((len(p) for p in leaves), default=0), tree.k))
    for i, p in enumerate(leaves):
        points[i] = p[0]
        points[i, : len(p)] = p
    return points


def _scores(points: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Every extreme point's expectation of every gamble's next values:
    ``points`` (nodes, P, k), ``nxt`` (nodes, k, G) the step reward plus the
    value after each symbol; returns (nodes, P, G)."""
    return weighted_sum(points[:, :, None, :], nxt.swapaxes(1, 2)[:, None])


def _sweep(tree: Tree, cols: MachineStack, s: Situation, picks: bool = False):
    """The backward recursion over the product layers below ``s``.

    Returns the tree states and layers of :func:`_machine_layers`, every
    node's values (nodes, G): per gamble, the upper expectation of the
    rewards still to come plus the terminal payoff, and with ``picks`` the
    extreme point attaining each value above the deepest level (the lowest
    on ties).  A level costs a few array operations over all its nodes.
    """
    if cols.k != tree.k:
        raise InvalidInputError("gamble and tree live on different state spaces")
    states, layers, transitions = _machine_layers(
        tree, cols.step, s, cols.read(s)[1], cols.depth, cols.trie
    )
    points = _local_points(tree, states)
    values = [cols.terminal[layers[-1][1]]]
    argmax: list[np.ndarray] = []
    for li in range(len(transitions) - 1, -1, -1):
        t, q = layers[li]
        scores = _scores(points[t], cols.reward[q] + values[0][transitions[li]])
        values.insert(0, scores.max(axis=1))
        if picks:
            argmax.insert(0, scores.argmax(axis=1))
    return states, layers, values, argmax


def finitary_uppers(tree: Tree, gambles, s: Situation = ()) -> list[float]:
    """Conditional upper expectations given ``s`` of gambles that share one
    automaton, from one sweep: dense gambles of one depth, or an automaton
    and its negation.  Each value is bit-identical to ``finitary_upper`` of
    that gamble alone.
    """
    s = as_situation(s, tree.k)
    cols = MachineStack.of(gambles)
    values = _sweep(tree, cols, s)[2]
    return (cols.read(s)[0] + values[0][0]).tolist()


def finitary_upper(tree: Tree, f: Gamble, s: Situation = ()) -> float:
    """Conditional upper expectation of a finitary gamble given ``s``.

    Exact up to floating arithmetic; conditioning on a situation at or below
    the gamble's depth just reads the payoff off.  Accepts an imprecise or a
    precise tree (the latter behaves as its one-point credal sets).
    """
    return finitary_uppers(tree, [f], s)[0]


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
    gamble: MachineStack
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
    cols = MachineStack.of([f])
    states, layers, _, argmax = _sweep(tree, cols, s, picks=True)
    picked = {
        (len(s) + li, states[t], q): best
        for li, picks in enumerate(argmax)
        for t, q, best in zip(*(a.tolist() for a in layers[li]), picks[:, 0].tolist())
    }
    return PreciseTree(tree.state_space, _MachineSelection(tree.assignment, cols, picked))


def value_table(tree: Tree, f: FinitaryGamble) -> list[np.ndarray]:
    """Conditional upper expectations at every situation up to the depth.

    ``result[m]`` has shape ``(k,)*m`` and holds the value given each
    length-m situation; ``result[depth]`` is the payoff table itself.
    """
    if not isinstance(f, FinitaryGamble):
        raise InvalidInputError("value_table expects a dense finitary gamble")
    # Swept from the root, a dense gamble's product nodes at level m are the
    # length-m prefixes, one each, in lexicographic order.
    values = _sweep(tree, MachineStack.of([f]), ())[2]
    return [vals[:, 0].reshape((tree.k,) * m) for m, vals in enumerate(values)]


def _closure(tree: Tree, machine, s: Situation):
    """The finite closure of (tree state, automaton state) nodes reachable
    from the node ``s`` leads to, for an automaton read to every depth (a
    gamble or a stack of them).

    Both coordinates are level-free, so the nodes are finitely many; they
    are numbered breadth first, the node ``s`` leads to first.  Returns the
    reward paid along all of ``s`` (summed in order), the (nodes, k)
    successor table, each node's automaton state and the extreme points of
    each node's local model, (nodes, points, k).
    """
    step = machine.step.tolist()
    paid, q = 0.0, 0
    for y in s:
        paid, q = paid + machine.reward[q, y], step[q][y]
    assignment, k = tree.assignment, tree.k
    states = [assignment.machine_init(s)]
    ids = {states[0]: 0}  # tree state -> its position in `states`
    moves: list = []  # successors of the expanded tree states
    nodes = [(0, q)]
    index = {nodes[0]: 0}  # node -> its position in `nodes`
    trans = []
    for t, q in nodes:  # walked while it grows
        if t >= len(moves):
            moves += _tree_moves(assignment, k, states, ids, len(moves))
        row = []
        for node in zip(moves[t], step[q]):
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
            row.append(index[node])
        trans.append(row)
    t_of, q_of = np.array(nodes, dtype=np.intp).T
    return paid, np.array(trans, dtype=np.intp), q_of, _local_points(tree, states)[t_of]


def _limit_values(tree: Tree, cols: MachineStack, s: Situation, first: int):
    """Conditional upper expectations given ``s`` of the automata read to
    depth m, for m = first, first + 1, ..., one array of G values each.

    Along ``s`` the payoff is settled: iterate m <= len(s) is the reward of
    the first m steps of ``s`` plus the terminal payoff.  Beyond, iterate m
    is the reward of all of ``s`` plus ``V_{m - len(s)}`` at the node
    (tree state, automaton state) that ``s`` leads to, where ``V_0`` is the
    terminal payoff and ``V_{r+1}`` is the local upper expectation of the
    step reward plus ``V_r`` at the successor: each further iterate is one
    Bellman step over the :func:`_closure`.
    """
    accs, qs = [np.zeros(cols.terminal.shape[1])], [0]
    for y in s:
        accs.append(accs[-1] + cols.reward[qs[-1], y])
        qs.append(int(cols.step[qs[-1], y]))
    for m in range(first, len(s) + 1):
        yield accs[m] + cols.terminal[qs[m]]
    paid, trans, q_of, points = _closure(tree, cols, s)
    reward, values = cols.reward[q_of], cols.terminal[q_of]
    for r in itertools.count(len(s) + 1):
        values = _scores(points, reward + values[trans]).max(axis=1)
        if r >= first:  # iterates before `first` are not reported
            yield paid + values[0]


def _stop(v: LimitVariable, iterates: list, m: int, settled: int, policy: Policy) -> Optional[ApproxResult]:
    """Audit a side's newest iterate for monotonicity; its result if it
    stops there, stabilized (past horizon ``settled``) or certified diverging."""
    val = iterates[-1][1]
    sign = 1.0 if v.direction is Direction.NON_DECREASING else -1.0  # the direction of approach
    if len(iterates) > 1:
        prev_val = iterates[-2][1]
        if sign * (val - prev_val) < -_VALUE_MONOTONE_SLACK:
            raise MonotonicityError(
                f"iterate values move against the declared direction at index {m}",
                f"{prev_val!r} -> {val!r}",
            )
        if abs(val - prev_val) < policy.tol and m - 1 >= settled:
            return ApproxResult(val, tuple(iterates), True, StopReason.STABILIZED, policy.tol)
    if sign * val > policy.divergence_threshold:
        return ApproxResult(sign * INF, tuple(iterates), False, StopReason.DIVERGING, policy.tol)
    return None


def _limits(tree: Tree, v: LimitVariable, s: Situation, policy: Policy, signs) -> list:
    """The limits of ``v`` (sign 1) and ``-v`` (sign -1), for each sign in
    ``signs``, from one pass of :func:`_limit_values`; each side keeps its
    own iterates and stop reason.  The sides' payoff ranges and
    approximations are each other's negations, so one ``extremes()``
    advance and one ``pointwise_leq`` per pair audit them all, phrased for
    the first side still iterating.  As if the sides ran one after the
    other, a later side's error waits until every earlier side has stopped.
    Iterates up to horizon ``len(s)`` are read off the conditioning
    situation, so two equal ones stop a side only from there on.
    """
    s = as_situation(s, tree.k)
    first = policy.start_index
    sides = [v if sign > 0 else -v for sign in signs]
    values = _limit_values(tree, MachineStack.of([w.automaton for w in sides]), s, first)
    extremes = itertools.islice(v.automaton.extremes(), first, None)
    approximations: dict = {}  # (side, horizon) -> that side's approximation, built once
    iterates: list[list] = [[] for _ in sides]
    results: list = [None] * len(sides)  # per side: its result, or the error it waits to raise
    for m, (lo, hi) in zip(range(first, first + policy.max_horizon), extremes):
        lead = results.index(None)
        w, up = sides[lead], sides[lead].direction is Direction.NON_DECREASING
        lo, hi = float(lo[0]), float(hi[0])
        if signs[lead] < 0:
            lo, hi = 0.0 - hi, 0.0 - lo
        if (lo < w.bound - 1e-12) if up else (hi > w.bound + 1e-12):
            beyond = f"{lo}, below the declared lower" if up else f"{hi}, above the declared upper"
            raise InvalidInputError(f"approximation {m} attains {beyond} bound {w.bound}")
        if first < m <= first + policy.monotone_audit:
            for h in (m - 1, m):
                if (lead, h) not in approximations:
                    approximations[lead, h] = w.generator(h)
            lo_g, hi_g = (m - 1, m) if up else (m, m - 1)
            ok, witness = pointwise_leq(approximations[lead, lo_g], approximations[lead, hi_g])
            if not ok:
                raise MonotonicityError(
                    f"approximations {m - 1} and {m} violate the declared direction", witness
                )
        for i, val in enumerate(next(values).tolist()):
            if results[i] is None:
                iterates[i].append((m, val))
                try:
                    results[i] = _stop(sides[i], iterates[i], m, len(s), policy)
                except MonotonicityError as exc:
                    if i == lead:
                        raise
                    results[i] = exc
        if None not in results:
            break
    for i, res in enumerate(results):
        if isinstance(res, MonotonicityError):
            raise res
        if res is None:
            last, stop = iterates[i][-1][1], StopReason.HORIZON_CAP
            results[i] = ApproxResult(last, tuple(iterates[i]), False, stop, policy.tol)
    return results


def _negated(res: ApproxResult) -> ApproxResult:
    return replace(res, value=-res.value, iterates=tuple((m, -x) for m, x in res.iterates))


def limit_upper(
    tree: Tree,
    v: LimitVariable,
    s: Situation = (),
    policy: Policy = Policy(),
    *,
    with_lower: bool = False,
) -> ApproxResult:
    """Upper expectation of a monotone limit of finitary gambles.

    Monotone limits of the approximations' values converge to the value of
    the limit variable, in both directions, so the iterates are the
    successive finitary upper expectations.  Stops when two successive
    iterates past the conditioning situation ``s`` agree within
    ``policy.tol`` (stabilized), when the iterates grow monotonically past
    the divergence threshold (certified-diverging, value +/-inf), or at the
    horizon cap, in which case the last iterate is reported without
    extrapolation.

    The value vector over the reachable (tree state, automaton state) nodes
    is kept between iterates, so each costs one Bellman step and a limit of
    H iterates costs O(H) sweeps of a fixed node set.  Every approximation
    is audited against the declared bound (its exact payoff range, advanced
    by one min/max step per iterate), the first ``policy.monotone_audit``
    pairs pointwise, and the values for monotonicity.  With ``with_lower``
    the result's ``lower`` is :func:`limit_lower`'s, from the same pass.
    """
    if not with_lower:
        return _limits(tree, v, s, policy, (1,))[0]
    upper, lower = _limits(tree, v, s, policy, (1, -1))
    return replace(upper, lower=_negated(lower))


def limit_lower(
    tree: Tree, v: LimitVariable, s: Situation = (), policy: Policy = Policy()
) -> ApproxResult:
    """Conjugate lower expectation of a limit variable: ``-upper(-v)``."""
    return _negated(_limits(tree, v, s, policy, (-1,))[0])


def _hitting_kind(v: LimitVariable) -> Optional[bool]:
    """Whether ``v`` is a hitting time (True) or the indicator of a hit
    (False), as :func:`~iptree.gambles.hitting_time_variable` and
    :func:`~iptree.gambles.hitting_event_variable` build them, or neither
    (None): a non-decreasing two-state automaton whose state 1 (hit) is
    absorbing and pays nothing, and whose state 0 pays 1 on every step or
    on the step into state 1."""
    a = v.automaton
    if v.direction is not Direction.NON_DECREASING or len(a.terminal) != 2 or a.terminal.any():
        return None
    if not ((a.step[1] == 1).all() and (a.step[0] <= 1).all() and not a.reward[1].any()):
        return None
    if (a.reward[0] == 1.0).all():
        return True
    return False if np.array_equal(a.reward[0], a.step[0]) else None


def _attractor(pos: np.ndarray, trans: np.ndarray, goal: np.ndarray, allowed: np.ndarray):
    """Nodes from which some choice among the ``allowed`` (nodes, points)
    extreme points reaches ``goal`` with positive probability, and for each
    such node outside ``goal`` the first point that moves one rank closer
    to it with positive probability.  ``pos`` marks the (nodes, points, k)
    positive masses."""
    inside, choice = goal.copy(), np.zeros(len(goal), dtype=np.intp)
    while True:
        toward = allowed & (pos & inside[trans][:, None, :]).any(axis=2)
        new = toward.any(axis=1) & ~inside
        if not new.any():
            return inside, choice
        choice[new] = toward[new].argmax(axis=1)
        inside |= new


def _staying(pos: np.ndarray, trans: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """(nodes, points): whether the point surely keeps the path in ``inside``."""
    return (~pos | inside[trans][:, None, :]).all(axis=2)


def _trap(pos: np.ndarray, trans: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The largest set of ``live`` nodes in each of which some extreme point
    surely keeps the path inside the set."""
    trap = live
    while True:
        kept = trap & _staying(pos, trans, trap).any(axis=1)
        if (kept == trap).all():
            return trap
        trap = kept


def _exits(p: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Which unknown nodes leave the unknown set with positive probability
    under the chosen points ``p`` (unknown nodes, k); ``col`` is each
    successor's position among the unknown nodes, -1 outside."""
    step, out = p > 0, col < 0
    exits = (step & out).any(axis=1)
    while True:
        more = exits | (step & ~out & exits[col]).any(axis=1)
        if (more == exits).all():
            return exits
        exits = more


def _policy_values(points, trans, reward, unknown, fixed, allowed, choice, sign):
    """Values at every node: ``fixed`` outside ``unknown``, and on it the
    expected reward to come under the best (per node ``sign`` 1: largest,
    -1: least) stationary choice of ``allowed`` extreme points, by policy
    iteration.

    The first choice is greedy for the guess 1 at every unknown node.  A
    node then switches its point only when that gains more than
    :data:`_SWITCH_GAIN` relative to its value.  A choice that would keep a
    node among the unknown ones for good falls back to its entry in
    ``choice``, under which every unknown node leaves them with positive
    probability; allowed points put no mass on infinite ``fixed`` values.
    So each policy's linear system is nonsingular, and the iteration stops
    at a policy whose values solve the Bellman equation.  For a largest
    value that solution is the least one, the limit, because no policy does
    better than the limit, even where an end component admits larger
    solutions (de Alfaro 1997; Baier & Katoen 2008, section 10.6).  For a
    least value the solution is unique: on the unknown nodes every allowed
    choice leaves them almost surely, or pays a step each time it stays.
    """
    idx = np.flatnonzero(unknown)
    values = fixed.copy()
    n = len(idx)
    if not n:
        return values
    at = np.full(len(trans), -1)
    at[idx] = np.arange(n)
    pts, nxt, rew, allowed, choice = points[idx], trans[idx], reward[idx], allowed[idx], choice[idx]
    sign = sign[idx, None]
    col, rows = at[nxt], np.arange(n)
    stay = col == rows[:, None]  # steps back to the same node
    moves = (col >= 0) & ~stay  # steps to other unknown nodes
    entry = (np.repeat(rows, trans.shape[1])[moves.ravel()], col[moves])
    known = np.where(np.isinf(fixed), 0.0, fixed)  # no allowed point reaches an infinite value
    known[idx] = 0.0
    base = weighted_sum(pts, (rew + known[nxt])[:, None, :])  # reward and known values, per point
    known[idx] = 1.0
    for rounds in range(_MAX_ROUNDS):
        gained = sign * weighted_sum(pts, (rew + known[nxt])[:, None, :])
        gained[~allowed] = -INF
        best = gained.argmax(axis=1)
        if rounds:
            now = gained[rows, choice]
            switch = gained[rows, best] > now + _SWITCH_GAIN * np.maximum(1.0, np.abs(now))
            if not switch.any():
                return values
            best = np.where(switch, best, choice)
        stuck = ~_exits(pts[rows, best], col)
        best[stuck] = choice[stuck]
        if rounds and (best == choice).all():
            return values
        choice = best
        # I - P, its diagonal the mass that leaves the node: 1 - P[i, i]
        # would round a mass below eps away and make the system singular.
        p = pts[rows, choice]
        outflow = weighted_sum(p, ~stay)
        if n <= _DENSE_SOLVE:
            matrix = np.diag(outflow)
            np.subtract.at(matrix, entry, p[moves])
            values[idx] = known[idx] = np.linalg.solve(matrix, base[rows, choice])
        else:
            matrix = csc_matrix(
                (
                    np.concatenate([outflow, -p[moves]]),
                    (np.concatenate([rows, entry[0]]), np.concatenate([rows, entry[1]])),
                ),
                (n, n),
            )
            values[idx] = known[idx] = spsolve(matrix, base[rows, choice])
    raise IptreeError(f"policy iteration did not settle in {_MAX_ROUNDS} rounds")


def _hitting_values(trans, q_of, points, reward, time: bool):
    """Upper and lower limits of a hitting variable (:func:`_hitting_kind`)
    at every node of its closure: the least non-negative solutions of
    ``h = T(reward + h∘step)`` with ``T`` the local upper, resp. lower,
    expectation (Krak, T'Joens & De Bock 2019).

    A graph pass settles what needs no numbers, exactly.  A *trap* is a set
    of not-hit nodes in each of which some extreme point surely stays.
    From a node that cannot reach a trap every choice of points hits almost
    surely: the hitting probability is 1 there.  Where a trap can be
    reached the largest hitting time is +inf; the least hitting probability
    is 0 in a trap, and the largest is 0 where nothing hits at all.  The
    least hitting time is finite only where some choice hits almost surely,
    keeping to points that stay where it is.  Policy iteration solves the
    rest, for both sides at once; where a first choice would never leave
    the unknown nodes, it falls back to points that move toward a hit.
    """
    done, live = q_of == 1, q_of == 0
    pos = points > 0
    every = np.ones(points.shape[:2], dtype=bool)
    first = np.zeros(len(trans), dtype=np.intp)
    trap = _trap(pos, trans, live)
    doomed = _attractor(pos, trans, trap, every)[0]  # some choice may never hit
    if not time:
        surely = np.where(live & ~doomed, 1.0, 0.0)
        reach, choice = _attractor(pos, trans, ~doomed, every)
        upper = (doomed & reach, surely, every, choice)
        lower = (doomed & ~trap, surely, every, first)
    else:
        upper = (live & ~doomed, np.where(doomed, INF, 0.0), every, first)
        hits, allowed, choice = np.ones(len(trans), dtype=bool), every, first
        while doomed.any():  # shrink to where some choice hits almost surely
            allowed = _staying(pos, trans, hits)
            reached, choice = _attractor(pos, trans, ~doomed, allowed)
            if (reached == hits).all():
                break
            hits = reached
        lower = (live & hits, np.where(hits, 0.0, INF), allowed, choice)
    # One policy iteration for both sides: the lower side's nodes follow the
    # upper side's, and maximize the negated values.
    n = len(trans)
    both = [np.concatenate(parts) for parts in zip(upper, lower)]
    sign = np.repeat([1.0, -1.0], n)
    values = _policy_values(
        np.concatenate([points, points]), np.concatenate([trans, trans + n]),
        np.concatenate([reward, reward]), *both, sign,
    )
    return values[:n], values[n:]


def limit_bounds(
    tree: Tree, v: LimitVariable, s: Situation = (), policy: Policy = Policy()
) -> tuple[ApproxResult, ApproxResult]:
    """Upper and lower expectation of a limit variable, solved exactly for
    hitting times and hitting probabilities.

    For a hitting variable (:func:`~iptree.gambles.hitting_time_variable`,
    :func:`~iptree.gambles.hitting_event_variable`) the limit is the least
    non-negative fixed point of the Bellman operator on the closure of
    (tree state, automaton state) nodes, which :func:`_hitting_values`
    computes with a graph pass and policy iteration: +inf and 0 come out
    exactly, and the rest up to the rounding of a few linear solves.  Both
    results then have ``stop_reason`` solved and ``converged`` true, and
    their iterates are an audit trail: :func:`limit_upper` over horizons
    ``start_index`` to ``start_index + monotone_audit`` (at most
    ``max_horizon`` of them), with every audit it makes.  The solved value
    must not lie below any trail iterate.  Any other variable gets the
    value iteration of :func:`limit_upper` and :func:`limit_lower` under
    ``policy``.
    """
    s = as_situation(s, tree.k)
    time = _hitting_kind(v)
    if time is None:
        upper = limit_upper(tree, v, s, policy, with_lower=True)
        return replace(upper, lower=None), upper.lower
    window = replace(policy, max_horizon=min(policy.max_horizon, policy.monotone_audit + 1))
    trail = limit_upper(tree, v, s, window, with_lower=True)
    paid, trans, q_of, points = _closure(tree, v.automaton, s)
    solved = _hitting_values(trans, q_of, points, v.automaton.reward[q_of], time)
    results = []
    for res, values in zip((replace(trail, lower=None), trail.lower), solved):
        value = float(paid + values[0])
        for m, x in res.iterates:  # the iterates rise to the limit
            if value < x - _VALUE_MONOTONE_SLACK * max(1.0, abs(x)):
                raise MonotonicityError(f"solved value {value!r} lies below iterate {m}", repr(x))
        results.append(replace(res, value=value, converged=True, stop_reason=StopReason.SOLVED))
    return results[0], results[1]


def _event_value(tree: Tree, event: EventSpec, s: Situation, policy: Policy, finitary, side: int):
    space = tree.state_space
    if isinstance(event, Cylinder):
        return finitary(tree, indicator_of_cylinder(space, event.situation), s)
    if isinstance(event, UnionAtDepth):
        return finitary(tree, indicator_of_strings(space, event.depth, event.strings), s)
    if isinstance(event, Hitting):
        return limit_bounds(tree, hitting_event_variable(space, event.targets), s, policy)[side]
    raise InvalidInputError(f"unknown event specification {event!r}")


def upper_probability(
    tree: Tree, event: EventSpec, s: Situation = (), policy: Policy = Policy()
) -> Union[float, ApproxResult]:
    """Upper probability of an event: upper expectation of its indicator.

    Cylinder and fixed-depth union events resolve exactly through the
    finitary recursion; hitting events are solved on the closure by
    :func:`limit_bounds` and return its upper :class:`ApproxResult`
    (``stop_reason`` solved, the iterates an audit trail).
    """
    return _event_value(tree, event, s, policy, finitary_upper, 0)


def lower_probability(
    tree: Tree, event: EventSpec, s: Situation = (), policy: Policy = Policy()
) -> Union[float, ApproxResult]:
    """Lower probability of an event, by conjugacy; a hitting event's is
    the lower result of :func:`limit_bounds`."""
    return _event_value(tree, event, s, policy, finitary_lower, 1)

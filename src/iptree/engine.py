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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, MonotonicityError
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


def _machine_layers(tree: Tree, step: np.ndarray, s: Situation, q0: int, depth=None):
    """Forward reachability of (tree state, automaton state) nodes from
    ``s``, whose automaton state is ``q0``: level by level up to ``depth``
    (a node once per level), or without one the finite closure (a node
    once; its levels are the frontiers of new nodes).

    Returns the tree states met above the last level, the nodes per level
    (their tree states' positions in that list and their automaton states,
    in order of discovery) and the (node, symbol) -> node tables, into the
    next level or the whole closure.  Only the tree's finite-state view is
    called per tree state; the nodes move as arrays.
    """
    assignment, k, n_q = tree.assignment, tree.k, len(step)
    states = [assignment.machine_init(s)]
    ids = {states[0]: 0}  # tree state -> its position in `states`
    succ = np.zeros((0, k), dtype=np.intp)  # successors of the expanded tree states
    layers = [(np.zeros(1, dtype=np.intp), np.array([q0], dtype=np.intp))]
    transitions: list[np.ndarray] = []
    index = {q0: 0}  # node code -> its position in the level, or in the closure
    for _ in itertools.count() if depth is None else range(len(s), depth):
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
        if depth is not None:
            index = {}  # a node once per level
        known = len(index)
        codes = (succ[t] * n_q + step[q]).ravel().tolist()
        targets = [index.setdefault(c, len(index)) for c in codes]
        transitions.append(np.array(targets, dtype=np.intp).reshape(-1, k))
        if len(index) == known:  # the closure is complete
            break
        layers.append(np.divmod(np.array(list(index)[known:], dtype=np.intp), n_q))
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
    states, layers, transitions = _machine_layers(tree, cols.step, s, cols.read(s)[1], cols.depth)
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


def _limit_values(tree: Tree, cols: MachineStack, s: Situation, first: int):
    """Conditional upper expectations given ``s`` of the automata read to
    depth m, for m = first, first + 1, ..., one array of G values each.

    Along ``s`` the payoff is settled: iterate m <= len(s) is the reward of
    the first m steps of ``s`` plus the terminal payoff.  Beyond, iterate m
    is the reward of all of ``s`` plus ``V_{m - len(s)}`` at the node
    (tree state, automaton state) that ``s`` leads to, where ``V_0`` is the
    terminal payoff and ``V_{r+1}`` is the local upper expectation of the
    step reward plus ``V_r`` at the successor.  Both coordinates are
    level-free, so ``V`` lives on the closure of the nodes reachable from
    there: each further iterate is one Bellman step over it.
    """
    accs, qs = [np.zeros(cols.terminal.shape[1])], [0]
    for y in s:
        accs.append(accs[-1] + cols.reward[qs[-1], y])
        qs.append(int(cols.step[qs[-1], y]))
    for m in range(first, len(s) + 1):
        yield accs[m] + cols.terminal[qs[m]]
    states, layers, transitions = _machine_layers(tree, cols.step, s, qs[-1])
    trans, (t_of, q_of) = np.concatenate(transitions), np.concatenate(layers, axis=1)
    points = _local_points(tree, states)[t_of]
    reward, values = cols.reward[q_of], cols.terminal[q_of]
    for r in itertools.count(len(s) + 1):
        values = _scores(points, reward + values[trans]).max(axis=1)
        if r >= first:  # iterates before `first` are not reported
            yield accs[-1] + values[0]


def _stop(v: LimitVariable, iterates: list, m: int, policy: Policy) -> Optional[ApproxResult]:
    """Audit a side's newest iterate for monotonicity; its result if it
    stops there, stabilized or certified diverging."""
    val = iterates[-1][1]
    sign = 1.0 if v.direction is Direction.NON_DECREASING else -1.0  # the direction of approach
    if len(iterates) > 1:
        prev_val = iterates[-2][1]
        if sign * (val - prev_val) < -_VALUE_MONOTONE_SLACK:
            raise MonotonicityError(
                f"iterate values move against the declared direction at index {m}",
                f"{prev_val!r} -> {val!r}",
            )
        if abs(val - prev_val) < policy.tol:
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
    """
    s = as_situation(s, tree.k)
    first = policy.start_index
    sides = [v if sign > 0 else -v for sign in signs]
    values = _limit_values(tree, MachineStack.of([w.automaton for w in sides]), s, first)
    extremes = itertools.islice(v.automaton.extremes(), first, None)
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
            lo_g, hi_g = (m - 1, m) if up else (m, m - 1)
            ok, witness = pointwise_leq(w.generator(lo_g), w.generator(hi_g))
            if not ok:
                raise MonotonicityError(
                    f"approximations {m - 1} and {m} violate the declared direction", witness
                )
        for i, val in enumerate(next(values).tolist()):
            if results[i] is None:
                iterates[i].append((m, val))
                try:
                    results[i] = _stop(sides[i], iterates[i], m, policy)
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
    iterates agree within ``policy.tol`` (stabilized), when the iterates
    grow monotonically past the divergence threshold (certified-diverging,
    value +/-inf), or at the horizon cap, in which case the last iterate is
    reported without extrapolation.

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


def _event_value(tree: Tree, event: EventSpec, s: Situation, policy: Policy, finitary, limit):
    space = tree.state_space
    if isinstance(event, Cylinder):
        return finitary(tree, indicator_of_cylinder(space, event.situation), s)
    if isinstance(event, UnionAtDepth):
        return finitary(tree, indicator_of_strings(space, event.depth, event.strings), s)
    if isinstance(event, Hitting):
        return limit(tree, hitting_event_variable(space, event.targets), s, policy)
    raise InvalidInputError(f"unknown event specification {event!r}")


def upper_probability(
    tree: Tree, event: EventSpec, s: Situation = (), policy: Policy = Policy()
) -> Union[float, ApproxResult]:
    """Upper probability of an event: upper expectation of its indicator.

    Cylinder and fixed-depth union events resolve exactly through the
    finitary recursion; hitting events go through the monotone limit of
    horizon indicators and return the full :class:`ApproxResult`.
    """
    return _event_value(tree, event, s, policy, finitary_upper, limit_upper)


def lower_probability(
    tree: Tree, event: EventSpec, s: Situation = (), policy: Policy = Policy()
) -> Union[float, ApproxResult]:
    """Lower probability of an event, by conjugacy."""
    return _event_value(tree, event, s, policy, finitary_lower, limit_lower)

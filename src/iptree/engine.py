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

One sweep runs the recursion for every gamble.  It walks the nodes below
the situation forward, level by level, then sweeps them backwards: a
node's value is the local upper expectation of the step reward plus the
successor's value.  A gamble's reward automaton is walked in product with
the tree's finite-state view (the ``step``, ``leaf`` and ``points`` arrays
of :mod:`~iptree.tree`) by :func:`~iptree.tree.product_levels`.  A dense
gamble's nodes are the prefixes of its strings, a trie that is never built:
:func:`~iptree.tree.prefix_levels` walks only their tree states, node i's
children being nodes ``i * k`` to ``i * k + k - 1``, and the deepest
level's values are one slice of the payoffs.  Values carry a gamble axis,
so gambles that share an automaton (dense gambles of one depth, a gamble
and its negation) go through one sweep.

Every Bellman step here, in the sweeps, the limits and the policy solve
(and in :func:`~iptree.supermartingale.verify`), is one kernel,
:func:`_expectations`, with the nodes on the last axis: the extreme points
``(k, P, nodes)``, from the view's ``points_last``, times the next values
``(k, G, nodes)`` in one broadcast multiply, then the symbols added left to
right.  Those are the products and sums of
:func:`~iptree.extreal.weighted_sum`, in its order, so the bits do not
depend on the batch, and the inner loops run over the nodes.
Upper expectations (:func:`finitary_uppers`), the value at every situation
(:func:`value_tables`, the one-gamble case :func:`value_table`) and the
attaining compatible precise tree, a :class:`~iptree.tree.Selection` that
reads the gamble's automaton, are all read off that one sweep.

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
A closure in which every choice of points hits almost surely, because no
not-hit node has a point that surely stays among the not-hit nodes, skips
the graph pass.  The trail and the solve read one closure layout, which
the tree's view keeps with the closure (:meth:`~iptree.tree._View.closure`).
Its linear systems are solved with NumPy; only a closure of more than
``_DENSE_SOLVE`` unknown nodes imports SciPy, for a sparse solve.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, IptreeError, MonotonicityError
from .extreal import INF, fmt
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
from .local import MassFunction
from .tree import PreciseTree, Selection, Situation, Tree, as_situation, prefix_levels, product_levels, trie_position, trie_step

#: Slack allowed when auditing that iterate values follow the declared
#: monotone direction (pure float noise; anything larger is a generator bug).
_VALUE_MONOTONE_SLACK = 1e-9

#: Policy iteration switches a node's extreme point only when that gains
#: more than this, relative to the node's value (at least 1): ties and
#: rounding never switch.
_SWITCH_GAIN = 1e-12

#: Value iteration declares divergence once monotone iterates pass this in
#: their direction of approach; no finite computation can truly certify an
#: infinite limit, so the flag is a documented heuristic.
_DIVERGENCE_THRESHOLD = 1e12

#: Policy iteration rounds before giving up; each strictly improves the
#: values, so a finite closure needs finitely many.
_MAX_ROUNDS = 1000

#: Closures of up to this many unknown nodes are solved densely with NumPy,
#: larger ones as sparse systems with SciPy, imported on first use.
_DENSE_SOLVE = 256

#: Horizons in the audit trail of a solved hitting variable: 1 .. _TRAIL.
_TRAIL = 5


@dataclass(frozen=True)
class Policy:
    """Convergence policy for value iteration, which reports horizons 1,
    2, ...: it stops once two successive iterates past the conditioning
    situation agree within ``tol``, and at the latest at ``max_horizon``.
    """

    tol: float = 1e-9
    max_horizon: int = 100

    def __post_init__(self):
        if not 0 < self.tol < INF or self.max_horizon < 1:
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


def _node_points(tree: Tree, t: np.ndarray) -> np.ndarray:
    """Extreme points of the local model of each tree state in ``t``, nodes
    last, ``(k, P, len(t))``, padded as :mod:`~iptree.tree` pads them; a
    view with one model gives its ``(k, P, 1)`` points, which broadcast."""
    a = tree.assignment
    last = a.points_last
    return last if last.shape[2] == 1 else last.take(a.leaf[t], axis=2)


def _expectations(points: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """The kernel of every Bellman step: each extreme point's expectation
    of each column of next values, with the nodes on the last axis.

    ``points`` is (k, P, nodes) (or (k, P, 1), broadcast) and ``nxt``
    (k, G, nodes), the step reward plus the value after each symbol; the
    result is (P, G, nodes), and its maximum over the points is each node's
    local upper expectation.  One broadcast multiply into a
    (k, P, G, nodes) temporary, then the symbols added left to right: the
    products and sums of :func:`~iptree.extreal.weighted_sum`, in its
    order, so every bit is that sum's whatever the batch, while the inner
    loops run along the node axis.
    """
    terms = points[:, :, None, :] * nxt[:, None, :, :]
    total = terms[0]
    for y in range(1, len(terms)):
        total += terms[y]  # into the temporary's first slice, which nothing else reads
    return total


def _sweep(tree: Tree, cols: MachineStack, s: Situation, picks: bool = False):
    """The backward recursion over the nodes below ``s``.

    A dense gamble's nodes are the prefix-trie nodes of
    :func:`~iptree.tree.prefix_levels` (only their tree states are walked:
    node i's children are ``i * k`` to ``i * k + k - 1``), and its deepest
    level's values are one slice of its payoffs; an automaton's nodes are
    the product layers of :func:`~iptree.tree.product_levels`.  Returns each
    level's tree states, its automaton states (``None`` on the trie), every
    node's values (G, nodes): per gamble, the upper expectation of the
    rewards still to come plus the terminal payoff, and with ``picks`` the
    extreme point attaining each value above the deepest level (the lowest
    on ties).  A level costs a few array operations over all its nodes.
    """
    if cols.k != tree.k:
        raise InvalidInputError("gamble and tree live on different state spaces")
    a, k = tree.assignment, cols.k
    t0, q0, levels = a.machine_init(s), cols.read(s)[1], cols.depth - len(s)
    if cols.trie:
        ts, qs = prefix_levels(a.step, t0, levels), None
        # The leaves below s, in lexicographic order: one run of the payoffs.
        width = k ** max(levels, 0)
        row = (q0 - trie_position(k, (0,) * min(len(s), cols.depth))) * width
        values = [cols.terminal[row : row + width].T]
    else:
        layers, transitions = product_levels(a.step, cols.step, t0, q0, levels)
        ts, qs = [t for t, _ in layers], [q for _, q in layers]
        rewards = cols.reward.transpose(2, 1, 0)  # (G, k, states)
        values = [cols.payoffs(qs[-1]).T]
    argmax: list[np.ndarray] = []
    for li in range(len(ts) - 2, -1, -1):
        if qs is None:
            # The trie's steps pay nothing; adding 0.0 drops negative zeros,
            # as adding a zero reward does.
            nxt = values[0].reshape(len(values[0]), -1, k).transpose(2, 0, 1) + 0.0
        else:
            nxt = (rewards.take(qs[li], axis=2) + values[0].take(transitions[li].T, axis=1)).swapaxes(0, 1)
        scores = _expectations(_node_points(tree, ts[li]), nxt)
        values.insert(0, scores.max(axis=0))
        if picks:
            argmax.insert(0, scores.argmax(axis=0))
    return ts, qs, values, argmax


def finitary_uppers(tree: Tree, gambles, s: Situation = ()) -> list[float]:
    """Conditional upper expectations given ``s`` of gambles that share one
    automaton, from one sweep: dense gambles of one depth, or an automaton
    and its negation.  Each value is bit-identical to ``finitary_upper`` of
    that gamble alone.
    """
    s = as_situation(s, tree.k)
    cols = MachineStack.of(gambles)
    values = _sweep(tree, cols, s)[2]
    return (cols.read(s)[0] + values[0][:, 0]).tolist()


def finitary_upper(tree: Tree, f: Gamble, s: Situation = ()) -> float:
    """Conditional upper expectation of a finitary gamble given ``s``.

    Exact up to floating arithmetic; conditioning on a situation at or below
    the gamble's depth just reads the payoff off.  Accepts an imprecise or a
    precise tree (the latter behaves as its one-point credal sets).
    """
    return finitary_uppers(tree, [f], s)[0]


def finitary_lower(tree: Tree, f: Gamble, s: Situation = ()) -> float:
    """Conjugate lower expectation: ``-upper(-f)``, written ``0.0 - x`` so
    that a zero comes out as ``0.0``, not ``-0.0``."""
    return 0.0 - finitary_upper(tree, -f, s)


def adversarial_selection(tree: Tree, f: Gamble, s: Situation = ()) -> PreciseTree:
    """The compatible precise tree whose choices attain the recursion value.

    Replays the backward recursion and records, at every reachable node, the
    extreme point that achieves the maximum (ties broken by lowest index).
    The returned tree, a :class:`~iptree.tree.Selection` over the gamble's
    automaton, plays those choices and the first extreme point anywhere the
    recursion never looked; its expectation of ``f`` given ``s`` equals
    ``finitary_upper(tree, f, s)``.
    """
    s = as_situation(s, tree.k)
    cols = MachineStack.of([f])
    ts, qs, _, argmax = _sweep(tree, cols, s, picks=True)
    if cols.trie:  # the prefixes' trie_step states: q's children are k * q + 1 + y
        qs = [np.array([cols.read(s)[1]])]
        for _ in argmax[1:]:
            qs.append((cols.k * qs[-1][:, None] + np.arange(1, cols.k + 1)).ravel())
    a, step = tree.assignment, trie_step(cols.k, cols.depth)[0] if cols.trie else cols.step
    picked = {}
    for li, (t, q, picks) in enumerate(zip(ts, qs, argmax)):
        chosen = a.points[a.leaf[t], picks[0]]
        picked.update(((len(s) + li, node_t, node_q), MassFunction(p))
                      for node_t, node_q, p in zip(t.tolist(), q.tolist(), chosen))
    return PreciseTree(tree.state_space, Selection(a, step, cols.depth, picked))


def value_tables(tree: Tree, gambles) -> list[list[np.ndarray]]:
    """:func:`value_table` of each of several dense gambles of one depth,
    from one sweep; each table is bit-identical to that gamble's alone."""
    if not all(isinstance(f, FinitaryGamble) for f in gambles):
        raise InvalidInputError("value_table expects a dense finitary gamble")
    # Swept from the root, a dense gamble's nodes at level m are the
    # length-m prefixes, one each, in lexicographic order.
    values = _sweep(tree, MachineStack.of(gambles), ())[2]
    return [[vals[g].reshape((tree.k,) * m) for m, vals in enumerate(values)] for g in range(len(gambles))]


def value_table(tree: Tree, f: FinitaryGamble) -> list[np.ndarray]:
    """Conditional upper expectations at every situation up to the depth.

    ``result[m]`` has shape ``(k,)*m`` and holds the value given each
    length-m situation; ``result[depth]`` is the payoff table itself.
    """
    return value_tables(tree, [f])[0]


def _limit_values(tree: Tree, step: np.ndarray, reward: np.ndarray, terminal: np.ndarray, s: Situation):
    """Conditional upper expectations given ``s`` of the automata with the
    shared ``step`` and the ``reward`` (states, k, G) and ``terminal``
    (states, G) columns, read to depth m, for m = 1, 2, ..., one list of G
    values each.

    Along ``s`` the payoff is settled: iterate m <= len(s) is the reward of
    the first m steps of ``s`` plus the terminal payoff, summed in Python
    floats, one symbol at a time.  Beyond, iterate m is the reward of all of
    ``s`` plus ``V_{m - len(s)}`` at the node (tree state, automaton state)
    that ``s`` leads to, where ``V_0`` is the terminal payoff and
    ``V_{r+1}`` is the local upper expectation of the step reward plus
    ``V_r`` at the successor: each further iterate is one Bellman step over
    that node's closure, in the layout :meth:`~iptree.tree._View.closure`
    keeps, its rewards and values laid out node last once, so a step is one
    gather and one :func:`_expectations`.
    """
    paid, q = [0.0] * terminal.shape[1], 0
    for y in s:
        paid = [x + r for x, r in zip(paid, reward[q, y].tolist())]
        q = int(step[q, y])
        yield [x + t for x, t in zip(paid, terminal[q].tolist())]
    a = tree.assignment
    _, _, q_of, succ, points = a.closure(step, a.machine_init(s), q)
    rewards = np.ascontiguousarray(reward.take(q_of, axis=0).transpose(2, 1, 0))  # (G, k, nodes)
    values = np.ascontiguousarray(terminal.take(q_of, axis=0).T)  # (G, nodes)
    while True:
        values = _expectations(points, (rewards + values.take(succ, axis=1)).swapaxes(0, 1)).max(axis=0)
        yield [x + v for x, v in zip(paid, values[:, 0].tolist())]


def _stop(approach: float, iterates: list, m: int, settled: int, tol: float) -> Optional[StopReason]:
    """Audit a side's newest iterate for monotonicity, ``approach`` being
    its direction (1.0 non-decreasing, -1.0 non-increasing); why it stops
    there, if it does: stabilized (past horizon ``settled``) or certified
    diverging."""
    val = iterates[-1][1]
    if len(iterates) > 1:
        prev_val = iterates[-2][1]
        if approach * (val - prev_val) < -_VALUE_MONOTONE_SLACK:
            raise MonotonicityError(
                f"iterate values move against the declared direction at index {m}",
                f"{prev_val!r} -> {val!r}",
            )
        if abs(val - prev_val) < tol and m - 1 >= settled:
            return StopReason.STABILIZED
    if approach * val > _DIVERGENCE_THRESHOLD:
        return StopReason.DIVERGING
    return None


def _prove_monotone(w: LimitVariable) -> None:
    """Prove that the approximations of ``w`` move in its declared
    direction at every depth, or raise :class:`MonotonicityError` with a
    witness.  Approximations j and j + 1 differ by the step from the state
    reached after j symbols, so :func:`~iptree.gambles.pointwise_leq` on
    the pairs j = 0 .. J checks every step from every reachable state, J
    being the first depth at which the states reached within J steps stop
    growing.  Exact up to the rounding of the payoff sums."""
    succ, rising = w.automaton.step.tolist(), w.direction is Direction.NON_DECREASING
    reached, new, depth = {0}, {0}, 0
    while new := {q for p in new for q in succ[p]} - reached:
        reached |= new
        depth += 1
    approximations = [w.generator(j) for j in range(depth + 2)]
    for j, (f, g) in enumerate(zip(approximations, approximations[1:])):
        ok, witness = pointwise_leq(f, g) if rising else pointwise_leq(g, f)
        if not ok:
            raise MonotonicityError(f"approximations {j} and {j + 1} violate the declared direction", witness)


def _limits(tree: Tree, v: LimitVariable, s: Situation, policy: Policy, signs) -> list:
    """The upper limit of ``v`` (sign 1) and its lower limit (sign -1), for
    each sign in ``signs``, from one pass of :func:`_limit_values`: per
    side the :class:`ApproxResult` fields up to ``tol``, its own value,
    iterates, convergence and stop reason.  A lower side iterates and is
    audited as ``-v``, then negated, ``0.0 - x``.  The sides'
    approximations are each other's negations, so one
    :func:`_prove_monotone` and one bound check, both phrased for the first
    side, hold for all, before the first iterate: proven monotone, the
    approximations are least (largest, if non-increasing) at horizon 1, the
    first reported.  As if the sides ran one after the other, a later
    side's value error waits until every earlier side has stopped.
    Iterates up to horizon ``len(s)`` are read off the conditioning
    situation, so two equal ones stop a side only from there on.
    """
    if v.automaton.k != tree.k:
        raise InvalidInputError("gamble and tree live on different state spaces")
    s = as_situation(s, tree.k)
    up = v.direction is Direction.NON_DECREASING
    w = v if signs[0] > 0 else -v
    _prove_monotone(w)
    rising = w.direction is Direction.NON_DECREASING
    x = float(next(itertools.islice(w.automaton.extreme_payoffs(least=rising), 1, None))[0])
    if (x < w.bound - 1e-12) if rising else (x > w.bound + 1e-12):
        beyond = f"{x}, below the declared lower" if rising else f"{x}, above the declared upper"
        raise InvalidInputError(f"approximation 1 attains {beyond} bound {w.bound}")
    # Each side's columns as -v holds them: 0.0 - x, without negative zeros.
    a, flip = v.automaton, np.array(signs, dtype=float)
    values = _limit_values(tree, a.step, a.reward[..., None] * flip + 0.0, a.terminal[:, None] * flip + 0.0, s)
    approach = [1.0 if up == (sign > 0) else -1.0 for sign in signs]
    iterates: list[list] = [[] for _ in signs]
    reasons: list = [None] * len(signs)  # per side: why it stopped, or the error it waits to raise
    settled, tol = len(s), policy.tol
    for m, vals in zip(range(1, 1 + policy.max_horizon), values):
        for i, val in enumerate(vals):
            if reasons[i] is None:
                iterates[i].append((m, val))
                try:
                    reasons[i] = _stop(approach[i], iterates[i], m, settled, tol)
                except MonotonicityError as exc:
                    if None not in reasons[:i]:
                        raise
                    reasons[i] = exc
        if None not in reasons:
            break
    sides = []
    for sign, its, why, toward in zip(signs, iterates, reasons, approach):
        if isinstance(why, MonotonicityError):
            raise why
        why = why or StopReason.HORIZON_CAP
        value = toward * INF if why is StopReason.DIVERGING else its[-1][1]
        if sign < 0:
            value, its = 0.0 - value, [(m, 0.0 - val) for m, val in its]
        sides.append((value, tuple(its), why is StopReason.STABILIZED, why))
    return sides


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
    :data:`_DIVERGENCE_THRESHOLD` (certified-diverging, value +/-inf), or
    at the horizon cap, in which case the last iterate is reported without
    extrapolation.

    The value vector over the reachable (tree state, automaton state) nodes
    is kept between iterates, so each costs one Bellman step and a limit of
    H iterates costs O(H) sweeps of a fixed node set.  The approximations
    are first proven monotone at every depth (:func:`_prove_monotone`) and
    checked against the declared bound, the values audited throughout.
    With ``with_lower`` the ``lower`` is :func:`limit_lower`'s, same pass.

    For hitting times and hitting probabilities :func:`limit_bounds` is the
    exact path; value iteration is its audit trail, and can stop on a
    plateau where a target stays out of reach for a step.
    """
    sides = _limits(tree, v, s, policy, (1, -1) if with_lower else (1,))
    return ApproxResult(*sides[0], policy.tol, ApproxResult(*sides[1], policy.tol) if with_lower else None)


def limit_lower(
    tree: Tree, v: LimitVariable, s: Situation = (), policy: Policy = Policy()
) -> ApproxResult:
    """Conjugate lower expectation of a limit variable: ``-upper(-v)``.

    As for :func:`limit_upper`, hitting variables get their exact limits
    from :func:`limit_bounds`; value iteration can stop on a plateau.
    """
    return ApproxResult(*_limits(tree, v, s, policy, (-1,))[0], policy.tol)


def _hitting_kind(v: LimitVariable) -> Optional[bool]:
    """Whether ``v`` is a hitting time (True) or the indicator of a hit
    (False), as :func:`~iptree.gambles.hitting_time_variable` and
    :func:`~iptree.gambles.hitting_event_variable` build them, or neither
    (None): a non-decreasing two-state automaton whose state 1 (hit) is
    absorbing and pays nothing, and whose state 0 pays 1 on every step or
    on the step into state 1."""
    a = v.automaton
    if v.direction is not Direction.NON_DECREASING or len(a.terminal) != 2 or any(a.terminal.tolist()):
        return None
    (step0, step1), (reward0, reward1) = a.step.tolist(), a.reward.tolist()
    if any(q != 1 for q in step1) or any(q > 1 for q in step0) or any(reward1):
        return None
    if all(x == 1.0 for x in reward0):
        return True
    return False if reward0 == step0 else None


def _attractor(pos: np.ndarray, succ: np.ndarray, goal: np.ndarray, allowed: np.ndarray):
    """Nodes from which some choice among the ``allowed`` (points, nodes)
    extreme points reaches ``goal`` with positive probability, and for each
    such node outside ``goal`` the first point that moves one rank closer
    to it with positive probability.  ``pos`` marks the (k, points, nodes)
    positive masses and ``succ`` is the (k, nodes) successor table."""
    inside, choice = goal.copy(), np.zeros(len(goal), dtype=np.intp)
    if not inside.any():  # nothing reaches an empty goal
        return inside, choice
    while True:
        toward = allowed & (pos & inside[succ][:, None, :]).any(axis=0)
        new = toward.any(axis=0) & ~inside
        if not new.any():
            return inside, choice
        choice[new] = toward[:, new].argmax(axis=0)
        inside |= new


def _staying(zero: np.ndarray, succ: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """(points, nodes): whether the point surely keeps the path in
    ``inside``; ``zero`` marks the (k, points, nodes) zero masses."""
    return (zero | inside[succ][:, None, :]).all(axis=0)


def _trap(zero: np.ndarray, succ: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The largest set of ``live`` nodes in each of which some extreme point
    surely keeps the path inside the set."""
    trap = live
    while trap.any():
        kept = trap & _staying(zero, succ, trap).any(axis=0)
        if (kept == trap).all():
            break
        trap = kept
    return trap


def _exits(step: np.ndarray, out: np.ndarray, inward: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Which unknown nodes leave the unknown set with positive probability
    when ``step`` (k, unknown nodes) marks the positive masses of their
    chosen points; ``col`` is each successor's position among the unknown
    nodes (``inward``), -1 (``out``) outside."""
    exits, within = (step & out).any(axis=0), step & inward
    while not exits.all():
        more = exits | (within & exits[col]).any(axis=0)
        if (more == exits).all():
            break
        exits = more
    return exits


def _policy_values(succ, points, reward, unknown, values, allowed, choice):
    """Values at every node of the closure, for two sides laid end to end:
    the largest value at entry i and the least at entry ``nodes + i`` of
    each array.  The sides are given by their ``unknown`` nodes, fixed
    ``values``, ``allowed`` (points, 2 * nodes) extreme points and fallback
    ``choice`` of a point per node.  A side's values are ``values`` outside
    ``unknown``, and on it the expected reward to come under the best
    (largest, or least) stationary choice of ``allowed`` extreme points, by
    one policy iteration for both sides: the least side's nodes follow the
    largest side's and maximize the negated values.  Returns both sides'
    values, laid end to end.

    The first choice is greedy for the guess 1 at every unknown node.  A
    node then switches its point only when that gains more than
    :data:`_SWITCH_GAIN` relative to its value.  A choice that would keep a
    node among the unknown ones for good falls back to its entry in
    ``choice``, under which every unknown node leaves them with positive
    probability; ``choice`` is None where every point of every unknown node
    leaves them in one step with positive probability, as on a closure
    without a trap, so that no choice needs one.  Allowed points put no
    mass on infinite fixed values.
    So each policy's linear system is nonsingular, and the iteration stops
    at a policy whose values solve the Bellman equation.  For a largest
    value that solution is the least one, the limit, because no policy does
    better than the limit, even where an end component admits larger
    solutions (de Alfaro 1997; Baier & Katoen 2008, section 10.6).  For a
    least value the solution is unique: on the unknown nodes every allowed
    choice leaves them almost surely, or pays a step each time it stays.

    The unknown nodes' arrays are gathered once from the closure's layout,
    the (k, nodes) successors ``succ``, the (k, points, nodes) ``points``
    and the (nodes, k) ``reward``, symbol first and node last, so each
    round's expectations are one :func:`_expectations`.
    """
    idx = unknown.nonzero()[0]
    n = len(idx)
    if not n:
        return values
    size = succ.shape[1]
    at = np.full(len(values), -1)
    at[idx] = rows = np.arange(n)
    least, node = np.divmod(idx, size)  # each unknown node's side (1: least) and closure node
    pts = points.take(node, axis=2)  # (k, points, n)
    nxt, rew = succ.take(node, axis=1) + size * least, reward.take(node, axis=0).T  # (k, n)
    blocked = None if allowed.all() else ~allowed.take(idx, axis=1)
    direct = choice is None  # every point leaves the unknown nodes: no choice can be stuck
    choice, sign = None if direct else choice[idx], np.where(least, -1.0, 1.0)
    col = at[nxt]
    out, stay = col < 0, col == rows  # steps out of the unknown nodes, and back to the same node
    inward, leave = ~out, ~stay
    # Steps to other unknown nodes, node by node as the system lists them.
    row, sym = (inward & leave).T.nonzero()
    entry = (row, col[sym, row])
    known = np.where(np.isinf(values), 0.0, values)  # no allowed point reaches an infinite value
    known[idx] = 0.0
    base = _expectations(pts, (rew + known[nxt])[:, None])[:, 0]  # reward and known values, (points, n)
    known[idx] = 1.0
    for rounds in range(_MAX_ROUNDS):
        gained = sign * _expectations(pts, (rew + known[nxt])[:, None])[:, 0]
        if blocked is not None:
            gained[blocked] = -INF
        best = gained.argmax(axis=0)
        if rounds:
            now = gained[choice, rows]
            switch = gained[best, rows] > now + _SWITCH_GAIN * np.maximum(1.0, np.abs(now))
            if not switch.any():
                return values
            best = np.where(switch, best, choice)
        p = pts[:, best, rows]  # (k, n)
        if not direct:
            stuck = ~_exits(p > 0, out, inward, col)
            if stuck.any():
                best[stuck] = choice[stuck]
                p = pts[:, best, rows]
        if rounds and (best == choice).all():
            return values
        choice = best
        # I - P, its diagonal the mass that leaves the node: 1 - P[i, i]
        # would round a mass below eps away and make the system singular.
        outflow, off = _expectations(p[:, None], leave[:, None])[0, 0], p[sym, row]
        if n <= _DENSE_SOLVE:
            matrix = np.diag(outflow)
            np.subtract.at(matrix, entry, off)
            values[idx] = known[idx] = np.linalg.solve(matrix, base[choice, rows])
        else:
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import spsolve

            matrix = csc_matrix(
                (
                    np.concatenate([outflow, -off]),
                    (np.concatenate([rows, entry[0]]), np.concatenate([rows, entry[1]])),
                ),
                (n, n),
            )
            values[idx] = known[idx] = spsolve(matrix, base[choice, rows])
    raise IptreeError(f"policy iteration did not settle in {_MAX_ROUNDS} rounds")


def _hitting_values(layout: tuple, reward: np.ndarray, time: bool):
    """Upper and lower limits of a hitting variable (:func:`_hitting_kind`)
    at every node of its closure, whose :meth:`~iptree.tree._View.closure`
    ``layout`` it reads, ``reward`` being the automaton's: the least
    non-negative solutions of ``h = T(reward + h∘step)`` with ``T`` the
    local upper, resp. lower, expectation (Krak, T'Joens & De Bock 2019).

    A graph pass settles what needs no numbers, exactly.  A *trap* is a set
    of not-hit nodes in each of which some extreme point surely stays.  It
    starts with one test: if no not-hit node has an extreme point that
    surely stays among the not-hit nodes, there is no trap, and every
    choice of points hits almost surely from everywhere.  Then a hitting
    probability is 1 at every not-hit node, on both sides, and a hitting
    time goes straight to policy iteration, its unknown nodes the not-hit
    ones on both sides, every point allowed.  Otherwise: from a node that
    cannot reach a trap every choice of points hits almost surely, and the
    hitting probability is 1 there.  Where a trap can be reached the
    largest hitting time is +inf; the least hitting probability is 0 in a
    trap, and the largest is 0 where nothing hits at all.  The least
    hitting time is finite only where some choice hits almost surely,
    keeping to points that stay where it is.  Policy iteration solves the
    rest, for both sides at once; where a first choice would never leave
    the unknown nodes, it falls back to points that move toward a hit.
    """
    _, _, q_of, succ, points = layout
    size, live, zero = len(q_of), q_of == 0, points == 0
    kept = live & _staying(zero, succ, live).any(axis=0)
    if not kept.any():  # no trap
        if not time:
            surely = np.where(live, 1.0, 0.0)
            return surely, surely
        ends = (np.concatenate([live, live]), np.zeros(2 * size), np.ones((points.shape[1], 2 * size), dtype=bool))
        values = _policy_values(succ, points, reward.take(q_of, axis=0), *ends, None)
        return values[:size], values[size:]
    pos = ~zero
    every = np.ones(points.shape[1:], dtype=bool)
    first = np.zeros(size, dtype=np.intp)
    trap = _trap(zero, succ, kept)
    doomed = _attractor(pos, succ, trap, every)[0]  # some choice may never hit
    if not time:
        surely = np.where(live & ~doomed, 1.0, 0.0)
        reach, choice = _attractor(pos, succ, ~doomed, every)
        upper = (doomed & reach, surely, every, choice)
        lower = (doomed & ~trap, surely, every, first)
    else:
        upper = (live & ~doomed, np.where(doomed, INF, 0.0), every, first)
        hits, allowed, choice = np.ones(size, dtype=bool), every, first
        while doomed.any():  # shrink to where some choice hits almost surely
            allowed = _staying(zero, succ, hits)
            reached, choice = _attractor(pos, succ, ~doomed, allowed)
            if (reached == hits).all():
                break
            hits = reached
        lower = (live & hits, np.where(hits, 0.0, INF), allowed, choice)
    ends = (np.concatenate(parts, axis=-1) for parts in zip(upper, lower))
    values = _policy_values(succ, points, reward.take(q_of, axis=0), *ends)
    return values[:size], values[size:]


@functools.lru_cache(maxsize=8)
def _window(policy: Policy) -> Policy:
    """The audit trail's policy: ``policy`` with at most :data:`_TRAIL`
    horizons."""
    return replace(policy, max_horizon=min(policy.max_horizon, _TRAIL))


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
    exactly, and the rest up to the rounding of a few linear solves.  A
    closure without a trap, where every choice of points hits almost
    surely, skips the graph pass, and its hitting probability needs no
    solve.  Both results then have ``stop_reason`` solved and ``converged``
    true, and their iterates are an audit trail: :func:`limit_upper` over
    the horizons 1 .. :data:`_TRAIL` (at most ``max_horizon`` of them), with
    every audit it makes.  The trail and the solve read the one closure
    layout that the tree's view keeps (:meth:`~iptree.tree._View.closure`).
    The solved value must not lie below any trail iterate.  Any other
    variable gets the value iteration of :func:`limit_upper` and
    :func:`limit_lower` under ``policy``.
    """
    s = as_situation(s, tree.k)
    time = _hitting_kind(v)
    if time is None:
        upper = limit_upper(tree, v, s, policy, with_lower=True)
        return replace(upper, lower=None), upper.lower
    trail = limit_upper(tree, v, s, _window(policy), with_lower=True)
    a, paid, q = v.automaton, 0.0, 0
    reward, step = a.reward.tolist(), a.step.tolist()
    for y in s:
        paid, q = paid + reward[q][y], step[q][y]
    view = tree.assignment
    solved = _hitting_values(view.closure(a.step, view.machine_init(s), q), a.reward, time)
    results = []
    for res, values in zip((trail, trail.lower), solved):
        value = paid + values[0].item()
        for m, x in res.iterates:  # the iterates rise to the limit
            if value < x - _VALUE_MONOTONE_SLACK * max(1.0, abs(x)):
                raise MonotonicityError(f"solved value {value!r} lies below iterate {m}", repr(x))
        results.append(ApproxResult(value, res.iterates, True, StopReason.SOLVED, res.tol))
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

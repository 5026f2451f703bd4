"""Measure-theoretic side: precise trees, their expectations, and the
compatible-tree envelope used as a brute-force oracle.

A precise tree induces a conditional probability on finite-depth events by
the product rule: the probability of reaching ``z`` from ``x`` multiplies the
one-step probabilities along the way (1 when ``z`` is a prefix of ``x``, 0
when the strings disagree).  The expectation of a finitary gamble is the
finite weighted sum of its payoffs under those probabilities.

For an imprecise tree, every selection of one extreme point per situation is
a compatible precise tree; the supremum of their expectations is the
measure-theoretic upper envelope.  On finitary gambles that envelope equals
the backward-recursion value, which is exactly what makes exhaustive
enumeration a meaningful independent oracle for the engine.  For limit
variables only one-sided domination is finitely checkable, and
:func:`domination_check` verifies it for sampled compatible trees against
the engine's limit, which is solved exactly for hitting variables.

A tree is read through its finite-state view alone, and every compatible
tree built here (:func:`selection_tree`, :func:`sample_compatible`) is a
:class:`~iptree.tree.Selection`.  The envelope's enumeration walks the
tree states below the conditioning situation: it reaches that situation's
state from the root's, one ``machine_step`` per symbol (not through the
engine's shortcut ``machine_init``, which it thereby checks), gives each
child the state of one more ``machine_step`` and takes each situation's
extreme points from ``machine_leaf``.  That walk depends on the tree state
and the number of levels below it, not on the gamble, so it is laid out
once per such pair in a plan (:class:`_Plan`) kept on the tree's
assignment, and each call adds up its own payoffs through it.  The forward passes below are the
oracle's own: they share no code with the engine's sweeps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .engine import ApproxResult, Policy, StopReason, limit_bounds
from .errors import InvalidInputError, ResourceLimitError
from .gambles import FinitaryGamble, Gamble, LimitVariable, MachineGamble
from .local import MassFunction
from .tree import (
    DEFAULT_ENUM_CAP,
    ImpreciseTree,
    PreciseTree,
    Situation,
    all_situations,
    as_situation,
    is_compatible,
    local_model,
    situation_selection,
)

#: Agreement tolerance between the enumerated envelope and the recursion.
ORACLE_TOL = 1e-9


def conditional_prob(p: PreciseTree, z: Situation, x: Situation) -> float:
    """Probability of passing through ``z`` given passage through ``x``.

    Three cases: the product of one-step probabilities from ``x`` to ``z``
    when ``z`` strictly extends ``x``; 1 when ``z`` is a prefix of ``x``
    (the conditioning already implies it); 0 when the strings disagree.
    """
    z = as_situation(z, p.k)
    x = as_situation(x, p.k)
    n, m = len(x), len(z)
    if n < m:
        if z[:n] != x:
            return 0.0
        prob = 1.0
        for i in range(n, m):
            mass = local_model(p, z[:i])
            prob *= float(mass.weights[z[i]])
        return prob
    return 1.0 if z == x[:m] else 0.0


def _dense_precise(p: PreciseTree, f: FinitaryGamble, s: Situation) -> float:
    k = p.k
    n = f.depth
    if len(s) >= n:
        return float(f.table[s[:n]])
    rel = n - len(s)
    dist = np.ones(())
    for m in range(rel):
        out = np.empty((k,) * (m + 1))
        for prefix in np.ndindex(*(k,) * m):
            weights = local_model(p, s + prefix).weights
            out[prefix] = dist[prefix] * weights
        dist = out
    return float((dist * np.asarray(f.table[s], dtype=float)).sum())


def _state_of(assignment, s: Situation) -> int:
    """The tree state of situation ``s``: the root's state 0, then one
    ``machine_step`` per symbol."""
    return functools.reduce(assignment.machine_step, s, 0)


def _machine_levels(p: PreciseTree, f: MachineGamble, s: Situation):
    """Expectations given ``s`` of ``f`` read to each depth past ``len(s)``
    in turn, one level of the forward pass per value; ``f``'s own depth must
    exceed ``len(s)`` and is otherwise ignored."""
    assignment = p.assignment
    step, reward = f.step.tolist(), f.reward.tolist()
    paid, q0 = f.read(s)
    # Probability of each reachable (tree state, gamble state) pair, pushed
    # forward one level at a time by the product rule, and the expected
    # reward of the steps taken so far.
    dist = {(_state_of(assignment, s), q0): 1.0}
    expected = 0.0
    while True:
        nxt: dict[tuple, float] = {}
        for (t, q), prob in dist.items():
            weights = assignment.machine_leaf(t).weights
            for y in range(p.k):
                mass = prob * weights[y]
                expected += mass * reward[q][y]
                pair = (assignment.machine_step(t, y), step[q][y])
                nxt[pair] = nxt.get(pair, 0.0) + mass
        dist = nxt
        yield float(paid + expected + sum(prob * f.terminal[q] for (_, q), prob in dist.items()))


def _machine_precise(p: PreciseTree, f: MachineGamble, s: Situation) -> float:
    if len(s) >= f.depth:
        return f.payoff(s)
    return next(itertools.islice(_machine_levels(p, f, s), f.depth - len(s) - 1, None))


def precise_expectation(p: PreciseTree, f: Gamble, s: Situation = ()) -> float:
    """Expectation of a finitary gamble under a precise tree, given ``s``.

    The finite sum of payoffs weighted by :func:`conditional_prob`, organized
    as a forward pass; linear in the gamble and constant-additive.
    """
    s = as_situation(s, p.k)
    if f.k != p.k:
        raise InvalidInputError("gamble and tree live on different state spaces")
    if isinstance(f, FinitaryGamble):
        return _dense_precise(p, f, s)
    return _machine_precise(p, f, s)


@dataclass(frozen=True)
class EnvelopeResult:
    """Supremum of compatible-tree expectations over ``count`` selections,
    with a selection that attains it, decoded when ``argmax`` is first read."""

    value: float
    count: int
    decode: Callable[[], dict[Situation, int]] = field(repr=False, compare=False)

    @cached_property
    def argmax(self) -> dict[Situation, int]:
        return self.decode()


@dataclass(frozen=True, eq=False)
class _Plan:
    """The layout of an enumeration below one tree state, one or more
    levels deep: what every payoff table enumerated there shares.

    A selection is an extreme point of the state's own leaf, then one
    selection per child, so the values form an array of shape ``dims``:
    the leaf's unpadded points (a padded row would be one more selection),
    then each child's ``count``.  ``weights[y]`` is the points' column y
    shaped along the first axis and ``shapes[y]`` the shape that lays child
    y's values along axis ``y + 1``.  One level above the payoffs there are
    no children, and the weights are the plain columns."""

    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    children: tuple["_Plan", ...]
    shapes: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return math.prod(self.dims)

    def values(self, table: np.ndarray) -> np.ndarray:
        """Expectations of the payoff subtable ``table`` under every
        selection, flat: zeros plus ``weights[y]`` times child y's values
        (one level above the payoffs, ``table[y]``), in symbol order.
        Introspects nothing about the recursion engine."""
        acc = np.zeros(self.dims)
        if not self.children:
            for y, weight in enumerate(self.weights):
                acc += weight * table[y]
            return acc
        for y, (weight, child, shape) in enumerate(zip(self.weights, self.children, self.shapes)):
            acc += weight * child.values(table[y]).reshape(shape)
        return acc.reshape(-1)

    def decode(self, idx: int, t: Situation) -> dict[Situation, int]:
        """The extreme-point choice per situation of flat selection ``idx``
        below ``t``: ``t``'s own, then each child's, in symbol order."""
        combo = np.unravel_index(idx, self.dims)
        choices = {t: int(combo[0])}
        for y, child in enumerate(self.children):
            choices.update(child.decode(int(combo[y + 1]), t + (y,)))
        return choices


def _plan(assignment, state: int, levels: int) -> _Plan:
    """The :class:`_Plan` of ``levels`` levels below tree state ``state``,
    kept in the view's ``plans`` with every sub-plan it builds; each child
    gets the state of one ``machine_step`` and each leaf's points come from
    ``machine_leaf``."""
    plans = assignment.plans
    plan = plans.get((state, levels))
    if plan is None:
        points = assignment.machine_leaf(state).points
        n, k = points.shape
        if levels == 1:
            plan = _Plan((n,), tuple(points[:, y] for y in range(k)), (), ())
        else:
            children = tuple(_plan(assignment, assignment.machine_step(state, y), levels - 1) for y in range(k))
            dims = (n, *(child.count for child in children))
            shapes = tuple((1,) * (y + 1) + (dims[y + 1],) + (1,) * (k - 1 - y) for y in range(k))
            weights = tuple(points[:, y].reshape((n,) + (1,) * k) for y in range(k))
            plan = _Plan(dims, weights, children, shapes)
        plans[(state, levels)] = plan
    return plan


def _count_selections(assignment, k: int, state: int, levels: int, cap: int) -> int:
    """The number of selections over the situations of the ``levels``
    levels from tree state ``state`` down, or the first partial count past
    ``cap``.  The situations are walked level by level, each level in
    lexicographic order, the order of :func:`~iptree.tree.all_situations`;
    once the key has a plan, its count is read instead."""
    plan = assignment.plans.get((state, levels))
    if plan is not None:
        return plan.count
    count, level = 1, [state]
    for n in range(levels):
        if n:
            level = [assignment.machine_step(t, y) for t in level for y in range(k)]
        for t in level:
            count *= len(assignment.machine_leaf(t).points)
            if count > cap:  # stop here: the full count can have thousands of digits
                return count
    return count


def envelope_sup(
    q: ImpreciseTree,
    f: Gamble,
    s: Situation = (),
    method: str = "enumerate",
    cap: int = DEFAULT_ENUM_CAP,
) -> EnvelopeResult:
    """Upper envelope of compatible-tree expectations of a finitary gamble.

    Brute-forces every selection of one extreme point per situation in the
    subtree below ``s`` (the only choices the payoff can see) and reports a
    maximizing selection.  The enumeration walks the tree states below
    ``s``: ``s``'s state is stepped to from the root's, and each
    situation's children get theirs by one more ``machine_step``.  The
    selections are counted over those situations first, level by level,
    and more than ``cap`` of them raise before any is enumerated.

    What every gamble enumerated ``n`` levels below one tree state shares,
    the points, the broadcast shapes and the selection count, is laid out
    once in a plan kept on the tree's assignment (its ``plans``) for as
    long as the tree lives; each call still enumerates its own gamble, with
    the same sums in the same order.  This is the oracle: it shares no code
    with the engine, and agrees with its recursion within ``ORACLE_TOL`` on
    every input, which the acceptance suite enforces.  ``method`` names the
    enumeration, the only method there is.
    """
    s = as_situation(s, q.k)
    if method != "enumerate":
        raise InvalidInputError(f"unknown envelope method {method!r}")
    dense = f.to_dense()
    if len(s) >= dense.depth:
        return EnvelopeResult(float(dense.table[s[: dense.depth]]), 1, dict)
    assignment, levels = q.assignment, dense.depth - len(s)
    state = _state_of(assignment, s)
    if _count_selections(assignment, q.k, state, levels, cap) > cap:
        raise ResourceLimitError(f"enumerating compatible selections exceeds the cap of {cap}")
    plan = _plan(assignment, state, levels)
    values = plan.values(np.asarray(dense.table[s], dtype=float))
    best = int(np.argmax(values))
    return EnvelopeResult(float(values[best]), values.size, lambda: plan.decode(best, s))


def selection_tree(q: ImpreciseTree, choices: dict[Situation, int]) -> PreciseTree:
    """Build the compatible precise tree that realizes an argmax selection.

    Situations named in ``choices`` use the indicated extreme point; all
    others fall back to the first extreme point of their local model.
    """
    chosen = {
        sit: MassFunction(local_model(q, sit).points[e]) for sit, e in choices.items()
    }
    return situation_selection(q, chosen)


def sample_compatible(
    q: ImpreciseTree, depth: int, count: int, rng: np.random.Generator
) -> list[PreciseTree]:
    """Random compatible precise trees: hull mixtures up to ``depth``.

    Each sampled tree draws a Dirichlet-weighted mixture of the local extreme
    points at every situation of length < ``depth`` and uses the first
    extreme point beyond, so compatibility holds at every depth.
    """
    sits = list(all_situations(q.k, depth - 1)) if depth > 0 else []
    trees = []
    for _ in range(count):
        choices = {}
        for t in sits:
            points = local_model(q, t).points
            weights = rng.dirichlet(np.ones(points.shape[0]))
            choices[t] = MassFunction(weights @ points)
        trees.append(situation_selection(q, choices))
    return trees


@dataclass(frozen=True)
class SampleVerdict:
    limit: ApproxResult
    ok: bool
    gap: float  # engine upper value minus the sample's limit


@dataclass(frozen=True)
class DominationReport:
    upper: ApproxResult
    samples: tuple[SampleVerdict, ...]
    passed: bool

    def min_gap(self) -> float:
        return min(v.gap for v in self.samples)


def _precise_limit(
    p: PreciseTree, v: LimitVariable, s: Situation, policy: Policy
) -> ApproxResult:
    """The expectations of ``v``'s approximations from horizon 1 on, until
    two past ``s`` agree within ``tol``: read off ``s`` up to its length,
    then one level of a single forward pass per iterate.  Each is bitwise
    :func:`precise_expectation` of its approximation."""
    values = itertools.chain(
        (v.generator(m).payoff(s) for m in range(len(s) + 1)),
        _machine_levels(p, v.generator(len(s) + 1), s),
    )
    iterates = []
    prev = None
    for m, val in itertools.islice(enumerate(values), 1, 1 + policy.max_horizon):
        iterates.append((m, val))
        if prev is not None and abs(val - prev) < policy.tol and m - 1 >= len(s):
            return ApproxResult(val, tuple(iterates), True, StopReason.STABILIZED, policy.tol)
        prev = val
    return ApproxResult(prev, tuple(iterates), False, StopReason.HORIZON_CAP, policy.tol)


def domination_check(
    q: ImpreciseTree,
    v: LimitVariable,
    s: Situation = (),
    samples: list[PreciseTree] | None = None,
    policy: Policy = Policy(),
) -> DominationReport:
    """Verify that sampled compatible trees never beat the engine's value.

    Every sample must pass :func:`~iptree.tree.is_compatible` (to depth 4);
    its expectation limit along the approximating sequence (monotone for
    precise trees, so the limit exists) must stay below the engine's upper
    limit plus :data:`ORACLE_TOL`.  That limit is the upper result of
    :func:`~iptree.engine.limit_bounds`: solved exactly for hitting times
    and hitting probabilities, where value iteration can stop on a plateau.
    """
    s = as_situation(s, q.k)
    if samples is None or not samples:
        raise InvalidInputError("domination_check needs at least one sampled tree")
    for i, p in enumerate(samples):
        if not is_compatible(p, q, 4):
            raise InvalidInputError(f"sample #{i} is not compatible with the imprecise tree")
    upper = limit_bounds(q, v, s, policy)[0]
    verdicts = []
    for p in samples:
        res = _precise_limit(p, v, s, policy)
        gap = upper.value - res.value
        verdicts.append(SampleVerdict(res, gap >= -ORACLE_TOL, gap))
    return DominationReport(upper, tuple(verdicts), all(x.ok for x in verdicts))

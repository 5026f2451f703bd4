"""Situations and probability trees.

A *situation* is a finite string of state indices; the empty tuple is the
initial situation.  A probability tree assigns a local model to every
situation: a :class:`~iptree.local.CredalSet` for an imprecise tree, a
:class:`~iptree.local.MassFunction` for a precise one.  Three assignment
forms cover the practical cases:

* ``Homogeneous``: one model everywhere;
* ``Markov``: the model depends on the last observed state (plus a root
  model for the initial situation, where nothing has been observed);
* ``Table``: explicit per-situation models up to a declared depth, with a
  default model beyond.

Every assignment is read through its *finite-state view*, three frozen
arrays compiled on the first read: ``step``, the ``(states, k)`` successor
states (state 0 is the initial situation's); ``leaf``, the index of each
state's local model; and ``points``, each model's extreme points,
``(models, P, k)``, a model with fewer than ``P`` points repeating its first
one (a copy never raises a maximum and never wins a tie), so a precise tree
has ``P = 1``.  ``Homogeneous`` has one state and ``Markov`` k + 1.  A
``Table``'s states are the prefixes of its keys, numbered as in
:func:`trie_step` (all of that trie when every situation up to the depth has
an entry), and one self-looping default state for every other situation.
A view also keeps ``points_last``, the same points with the model axis
last, ``(k, P, models)``: the layout of the engine's Bellman steps.
``machine_init`` / ``machine_step`` / ``machine_leaf`` read the arrays one
state at a time, as :func:`local_model` does.  The product of a view and an
automaton is walked by :func:`product_levels`, level by level to a depth,
and :func:`product_closure`, to its level-free closure: the engine's sweeps
and limits and every :class:`Selection` use them.  The prefix trie of
dense gambles and certificates is walked by :func:`prefix_levels`, which
needs only the view's states.

A precise tree is *compatible* with an imprecise one when each of its mass
functions lies in the convex hull of the corresponding credal set's extreme
points; :func:`in_convex_hull` decides that by a small linear program, and
is the only function here that imports SciPy, on its first call.  Every
compatible tree built here is a :class:`Selection`.
:func:`enumerate_compatible` brute-forces the extreme-point selections; it is
the combinatorial backbone of the measure-theoretic envelope oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Hashable, Iterator, Mapping, Union

import numpy as np

from .errors import InvalidInputError, IptreeError, ResourceLimitError
from .extreal import _derived, _frozen
from .local import CredalSet, MassFunction, StateSpace

#: A situation: indices of the states observed so far.  () is the root.
Situation = tuple[int, ...]

#: Membership tolerance of the convex-hull check, :func:`in_convex_hull`.
HULL_TOL = 1e-9

#: Default cap on the number of compatible-tree selections to enumerate.
DEFAULT_ENUM_CAP = 200_000

#: The most pair codes :func:`product_closure` looks up in a dense array
#: (8 bytes each); a larger product is looked up among the codes met.
DENSE_PAIRS = 1 << 16

Leaf = Union[CredalSet, MassFunction]

def as_situation(states, k: int) -> Situation:
    """Validate a sequence of state indices against a state space of size k."""
    sit = tuple(int(x) for x in states)
    for x in sit:
        if not 0 <= x < k:
            raise InvalidInputError(f"state index {x} out of range for {k} states")
    return sit


def situation_from_labels(space: StateSpace, labels) -> Situation:
    return tuple(space.index(l) for l in labels)


def format_situation(space: StateSpace, s: Situation) -> str:
    return ",".join(space.labels[i] for i in s)


def parse_situation(space: StateSpace, text: str) -> Situation:
    """The situation named by comma-joined labels; ``""`` is the root."""
    if text == "":
        return ()
    labels = text.split(",")
    try:
        return tuple(map(space._index.__getitem__, labels))  # one lookup per label
    except KeyError:
        return situation_from_labels(space, labels)  # raises for the first unknown label


def situation_strings(space: StateSpace, depth: int) -> list[str]:
    """The strings of the situations of length <= ``depth``, shortest first
    and lexicographic, as :func:`format_situation` writes them: entry ``i`` names
    position ``i`` of a process's levels laid end to end.  They name
    situations one to one only when no label is empty or has a comma."""
    strings, level = [""], [""]
    tails = ["," + label for label in space.labels]
    for m in range(depth):
        level = [prefix + tail for prefix in level for tail in tails] if m else list(space.labels)
        strings += level
    return strings


def trie_step(k: int, depth: int) -> tuple[np.ndarray, int]:
    """The step array of the prefix trie of depth-``depth`` strings and its
    first leaf state.

    States are numbered breadth-first: the children of state ``q`` are
    ``k * q + 1 + y``, so the length-m prefixes are consecutive and in
    lexicographic order.  The leaves loop to themselves.
    """
    leaves = sum(k**m for m in range(depth))  # the first leaf state
    states = leaves + k**depth
    step = np.empty((states, k), dtype=np.intp)
    step[:leaves] = np.arange(1, states).reshape(-1, k)
    step[leaves:] = np.arange(leaves, states)[:, None]
    return step, leaves


def trie_position(k: int, situation: Situation) -> int:
    """The :func:`trie_step` state of ``situation``, a Python integer at
    any depth."""
    return functools.reduce(lambda p, y: p * k + int(y) + 1, situation, 0)


def trie_situation(k: int, position: int) -> Situation:
    """The situation at :func:`trie_step` state ``position``: the inverse
    of :func:`trie_position`."""
    situation = ()
    while position:
        position, y = divmod(position - 1, k)
        situation = (y, *situation)
    return situation


def first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``codes`` in order of first occurrence, and
    each entry's position among them."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[first.argsort()] = np.arange(len(first))
    return codes[np.sort(first)], rank[inverse]


def prefix_levels(t_step: np.ndarray, t0: int, levels: int) -> list[np.ndarray]:
    """The tree states of the prefix-trie nodes below tree state ``t0``,
    level by level for ``levels`` levels (none when ``levels`` <= 0), when
    a symbol y moves a state t to ``t_step[t, y]``.

    Level m + 1 is ``t_step[level m].ravel()``: node i's children are nodes
    ``i * k`` to ``i * k + k - 1``, in symbol order, so level m lists the
    length-m continuations in lexicographic order, as a dense gamble's
    payoffs are laid out, and nothing needs looking up.
    """
    states = [np.array([t0], dtype=np.intp)]
    for _ in range(levels):
        states.append(t_step[states[-1]].ravel())
    return states


def product_levels(t_step: np.ndarray, q_step: np.ndarray, t0: int, q0: int, levels: int):
    """The pairs (t, q) reachable from (t0, q0) in ``levels`` steps, level by
    level (a pair once per level), when a symbol y moves them to
    (t_step[t, y], q_step[q, y]).

    Returns each level's pairs as its t and q arrays, in order of discovery,
    and the (pairs, k) successor numbers into the next level.  A level costs
    a few array operations over all its pairs.
    """
    layers = [(np.array([t0], dtype=np.intp), np.array([q0], dtype=np.intp))]
    transitions: list[np.ndarray] = []
    for _ in range(levels):
        t, q = layers[-1]
        codes, position = first_seen((t_step[t] * len(q_step) + q_step[q]).ravel())
        transitions.append(position.reshape(-1, t_step.shape[1]))
        layers.append(np.divmod(codes, len(q_step)))
    return layers, transitions


def product_closure(t_step: np.ndarray, q_step: np.ndarray, block: np.ndarray):
    """The pairs (t, q) reachable from the distinct pair codes ``block``
    (t * len(q_step) + q), when a symbol y moves them to (t_step[t, y],
    q_step[q, y]), numbered breadth first: ``block`` first, in its order,
    then each block's successors in symbol order, a new pair taking the
    next number.

    Returns the (pairs, k) successor numbers and each pair's t and q.  A
    block of the walk costs a few array operations over all its pairs.  The
    numbers are looked up in an array over all ``len(t_step) * len(q_step)``
    pairs while that has at most :data:`DENSE_PAIRS` entries, and otherwise
    among the sorted codes met so far, so memory stays proportional to the
    pairs met.
    """
    n_q, k = q_step.shape
    dense = len(t_step) * n_q <= DENSE_PAIRS
    if dense:
        number = np.full(len(t_step) * n_q, -1, dtype=np.intp)  # per pair code; -1 if unmet
        number[block] = np.arange(len(block))
    else:
        met, number = np.sort(block), block.argsort()  # the codes met so far, and their numbers
    blocks, rows, count = [block], [], len(block)
    while len(block):
        t, q = np.divmod(block, n_q)
        codes = (t_step.take(t, axis=0) * n_q + q_step.take(q, axis=0)).ravel()
        if dense:
            ids = number[codes]
            fresh = (ids < 0).nonzero()[0]
            block = fresh  # empty: the walk is complete
            if len(fresh):
                new = codes[fresh]
                number[new] = len(codes)  # then each new pair's first place among the successors
                np.minimum.at(number, new, fresh)
                block = new[number[new] == fresh]
                number[block] = np.arange(count, count + len(block))
                ids[fresh] = number[new]
        else:
            at = np.minimum(met.searchsorted(codes), len(met) - 1)
            ids, fresh = number[at], met[at] != codes
            block, position = first_seen(codes[fresh])
            ids[fresh] = count + position
            order = block.argsort()
            at = met.searchsorted(block[order])
            met, number = np.insert(met, at, block[order]), np.insert(number, at, count + order)
        rows.append(ids)
        count += len(block)
        blocks.append(block)
    t_of, q_of = np.divmod(np.concatenate(blocks), n_q)
    return np.concatenate(rows).reshape(-1, k), t_of, q_of


def _points_of(leaf) -> np.ndarray:
    if isinstance(leaf, CredalSet):
        return leaf.points
    if isinstance(leaf, MassFunction):
        return leaf.weights[None, :]
    raise InvalidInputError(f"not a local model: {leaf!r}")


def _padded(rows: np.ndarray, sizes) -> np.ndarray:
    """Consecutive blocks of ``rows``, ``sizes[i]`` rows each, as one
    (blocks, largest size, k) array; a shorter block repeats its first row
    in the spare places."""
    sizes = np.asarray(sizes, dtype=np.intp)
    if (sizes == sizes[0]).all():
        return rows.reshape(len(sizes), sizes[0], rows.shape[1])
    starts = np.cumsum(sizes) - sizes
    j = np.arange(sizes.max())
    return rows[starts[:, None] + np.where(j < sizes[:, None], j, 0)]


def _stacked_points(models) -> np.ndarray:
    blocks = [_points_of(m) for m in models]
    return _padded(np.concatenate(blocks), list(map(len, blocks)))


class _View:
    """The finite-state view of an assignment: ``step``, ``leaf`` and
    ``points`` (see the module docstring), which ``_compile`` builds on the
    first read, and the readers of one state at a time."""

    @cached_property
    def _arrays(self) -> tuple:
        return tuple(map(_frozen, self._compile()))

    step = property(lambda self: self._arrays[0])
    leaf = property(lambda self: self._arrays[1])
    points = property(lambda self: self._arrays[2])

    @cached_property
    def points_last(self) -> np.ndarray:
        """``points`` with the model axis last, ``(k, P, models)``: the
        layout of the engine's Bellman steps, which read the models of many
        nodes at once, one symbol and point at a time."""
        return _frozen(np.ascontiguousarray(self.points.transpose(2, 1, 0)))

    def closure(self, q_step: np.ndarray, t0: int, q0: int) -> tuple:
        """:func:`product_closure` of ``step`` and ``q_step`` from (t0, q0),
        frozen, and its layout for the engine's Bellman steps: the (nodes,
        k) successor table, each node's tree state and automaton state, the
        same successors symbol first, ``(k, nodes)``, and each node's
        extreme points from ``points_last``, ``(k, P, nodes)``.

        The last one walked with a frozen ``q_step`` is kept, layout
        included, since an exact limit and its audit trail read the same
        closure, and so do the hitting time and the hitting indicator of
        one target set, whose automata share one frozen ``step``."""
        last = self.__dict__.get("_closure")
        if last is None or last[0] is not q_step or q_step.flags.writeable or last[1:3] != (t0, q0):
            block = np.array([t0 * len(q_step) + q0], dtype=np.intp)
            trans, t_of, q_of = product_closure(self.step, q_step, block)
            layout = (trans, t_of, q_of, np.ascontiguousarray(trans.T), self.points_last.take(self.leaf[t_of], axis=2))
            last = self.__dict__["_closure"] = (q_step, t0, q0, tuple(map(_frozen, layout)))
        return last[3]

    @cached_property
    def plans(self) -> dict:
        """The enumeration plans of :func:`~iptree.oracle.envelope_sup`,
        by (tree state, levels below it): laid out on first use and kept
        as long as this view, empty on a new one."""
        return {}

    def machine_init(self, s: Situation) -> int:
        state, step = 0, self.step
        for y in s:
            state = step[state, y]
        return int(state)

    def machine_step(self, state: int, symbol: int) -> int:
        return int(self.step[state, symbol])

    def machine_leaf(self, state: int) -> Leaf:
        return self.models[self.leaf[state]]


@dataclass(frozen=True)
class Homogeneous(_View):
    """Same local model in every situation: one state."""

    model: Leaf

    @property
    def models(self) -> tuple:
        return (self.model,)

    def _compile(self):
        k = _points_of(self.model).shape[1]
        return np.zeros((1, k), dtype=np.intp), np.zeros(1, dtype=np.intp), _stacked_points(self.models)


@dataclass(frozen=True)
class Markov(_View):
    """Local model determined by the last observed state.

    ``root`` covers the initial situation, where no state has been observed:
    state 0, while state ``1 + y`` follows the symbol y.
    """

    root: Leaf
    by_state: tuple[Leaf, ...]

    @property
    def models(self) -> tuple:
        return (self.root, *self.by_state)

    def _compile(self):
        step = np.empty((len(self.models), len(self.by_state)), dtype=np.intp)
        step[:] = np.arange(1, len(self.models))
        return step, np.arange(len(self.models)), _stacked_points(self.models)


def _prefix_trie(k: int, positions: list) -> tuple[np.ndarray, np.ndarray]:
    """The step array of the trie of the prefixes of the situations at
    :func:`trie_step` ``positions`` (Python integers, any depth), in that
    trie's order, with a last, self-looping state that every other
    situation leads to; and the state of each position.

    The positions are distinct.  When they are ``0 .. n - 1``, every
    situation before the n-th of :func:`trie_step` order, the trie is that
    order itself: position ``p`` is state ``p``, and its children are the
    states ``k * p + 1 + y`` below ``n``.
    """
    n = len(positions)
    if n and max(positions) == n - 1:
        step = np.minimum(np.arange(1, k * n + k + 1, dtype=np.intp).reshape(n + 1, k), n)
        return step, np.array(positions, dtype=np.intp)
    kept = {0}
    for p in positions:
        while p not in kept:
            kept.add(p)
            p = (p - 1) // k
    kept = sorted(kept)
    ids = dict(zip(kept, range(len(kept))))
    step = np.full((len(kept) + 1, k), len(kept), dtype=np.intp)
    parents = [ids[(p - 1) // k] for p in kept[1:]]
    step[parents, [(p - 1) % k for p in kept[1:]]] = np.arange(1, len(kept))
    return step, np.array([ids[p] for p in positions], dtype=np.intp)


class Table(_View):
    """Explicit models for situations of length <= depth; default beyond.

    Model 0 is the default and model ``i`` the i-th entry.  :meth:`of_rows`
    builds a table straight from checked extreme-point rows, as a model file
    is read; such a table names its ``entries`` only when they are read.
    """

    def __init__(self, depth: int, entries: Mapping[Situation, Leaf], default: Leaf):
        if depth < 0:
            raise InvalidInputError("table depth must be non-negative")
        for key in entries:
            if len(key) > depth:
                raise InvalidInputError(
                    f"table entry for situation of length {len(key)} exceeds declared depth {depth}"
                )
        self.depth, self.default, self.entries = depth, default, dict(entries)
        self._rows = None

    @classmethod
    def of_rows(cls, depth: int, positions: list, rows: np.ndarray, sizes) -> "Table":
        """The table whose default has the first ``sizes[0]`` of ``rows``
        and whose i-th entry is the situation at :func:`trie_step` position
        ``positions[i]`` (length <= depth), with the next ``sizes[i + 1]``:
        extreme points as :class:`~iptree.local.CredalSet` stores them."""
        default = _derived(CredalSet, points=rows[: sizes[0]])
        return _derived(cls, depth=depth, default=default, _positions=positions, _rows=rows, _sizes=sizes)

    @cached_property
    def models(self) -> tuple:
        if self._rows is None:
            return (self.default, *self.entries.values())
        ends = np.cumsum(self._sizes).tolist()
        return (self.default, *(_derived(CredalSet, points=self._rows[a:b]) for a, b in zip(ends, ends[1:])))

    @cached_property
    def entries(self) -> dict:
        situations = [trie_situation(self.default.k, p) for p in self._positions]
        return dict(zip(situations, self.models[1:]))

    def _compile(self):
        k = _points_of(self.default).shape[1]
        if self._rows is None:
            positions = [trie_position(k, key) for key in self.entries]
            points = _stacked_points(self.models)
        else:
            positions = self._positions
            points = _padded(self._rows, self._sizes)
        step, states = _prefix_trie(k, positions)
        leaf = np.zeros(len(step), dtype=np.intp)
        leaf[states] = np.arange(1, len(states) + 1)
        return step, leaf, points


@dataclass(frozen=True, eq=False)
class Selection(_View):
    """Precise assignment carved out of another one, node by node.

    A deterministic automaton (``automaton``: (states, k) integers, start
    state 0) reads the first ``depth`` states alongside ``base``: a
    situation's node (:meth:`node`) is (level, base state, automaton
    state), and past ``depth`` the level and the automaton state stay put,
    so the view has finitely many states.  ``choices`` maps nodes to mass
    functions; any other node plays the first extreme point of its base
    leaf.  :func:`~iptree.engine.adversarial_selection` reads the gamble's
    automaton, :func:`situation_selection` a prefix trie.

    The arrays are built on the first read, from :func:`product_levels` to
    the depth and :func:`product_closure` of the last level: building a
    selection costs only its choices.
    """

    base: "Assignment"
    automaton: np.ndarray
    depth: int
    choices: Mapping[Hashable, MassFunction]

    def node(self, s: Situation) -> tuple[int, int, int]:
        q = 0
        for y in s[: self.depth]:
            q = self.automaton[q, y]
        return min(len(s), self.depth), self.base.machine_init(s), int(q)

    def _compile(self):
        aut, base = np.asarray(self.automaton, dtype=np.intp), self.base
        n_q, k = aut.shape
        layers, steps = product_levels(base.step, aut, base.machine_init(()), 0, self.depth)
        sizes = [len(t) for t, _ in layers]
        rows = [step + start for step, start in zip(steps, np.cumsum(sizes).tolist())]
        # Past the depth a symbol moves only the base state: the last level
        # grows to its closure under a frozen automaton.
        t, q = layers[-1]
        frozen = np.repeat(np.arange(n_q)[:, None], k, axis=1)
        last, t_last, q_last = product_closure(base.step, frozen, t * n_q + q)
        rows.append(last + sum(sizes[:-1]))
        layers[-1], sizes[-1] = (t_last, q_last), len(t_last)
        t_of, q_of = (np.concatenate(x) for x in zip(*layers))
        leaf, n_base = base.leaf[t_of], len(base.points)
        if self.choices:
            # A node's key: its code, then its level.
            level = np.repeat(np.arange(len(layers)), sizes)
            keys = (t_of * n_q + q_of) * (self.depth + 1) + level
            level, t, q = np.array(list(self.choices), dtype=np.intp).reshape(-1, 3).T
            wanted = (t * n_q + q) * (self.depth + 1) + level
            order = keys.argsort()
            found = order[np.minimum(keys[order].searchsorted(wanted), len(order) - 1)]
            met = keys[found] == wanted  # nodes never reached choose nothing
            leaf[found[met]] = n_base + np.flatnonzero(met)
        chosen = [m.weights[None, None, :] for m in self.choices.values()]
        return np.concatenate(rows), leaf, np.concatenate([base.points[:, :1], *chosen]), t_of

    @cached_property
    def _chosen(self) -> tuple:
        return tuple(self.choices.values())

    def machine_leaf(self, state: int) -> MassFunction:
        i = int(self.leaf[state]) - len(self.base.points)
        if i >= 0:
            return self._chosen[i]
        leaf = self.base.machine_leaf(int(self._arrays[3][state]))
        return leaf if isinstance(leaf, MassFunction) else MassFunction(leaf.points[0])


@dataclass(frozen=True)
class _SingletonView(_View):
    """Credal view of a precise assignment: every leaf a one-point set."""

    base: "Assignment"

    def _compile(self):
        return self.base._arrays[:3]

    def machine_leaf(self, state: int) -> CredalSet:
        return CredalSet.singleton(self.base.machine_leaf(state))


Assignment = Union[Homogeneous, Markov, Table, Selection, _SingletonView]


def _root_leaf(a):
    """A model that tells a precise assignment from an imprecise one, read
    before ``a`` is checked and compiled."""
    for kind, name in ((Homogeneous, "model"), (Markov, "root"), (Table, "default")):
        if isinstance(a, kind):
            return getattr(a, name)
    return a.machine_leaf(0) if isinstance(a, Assignment) else None


def _check_assignment(assignment, k: int, leaf_type: type, kind: str):
    def check(leaf):
        if not isinstance(leaf, leaf_type):
            raise InvalidInputError(f"{kind} tree expects {leaf_type.__name__} leaves")
        if leaf.k != k:
            raise InvalidInputError(
                f"local model over {leaf.k} states attached to a tree with {k} states"
            )

    if isinstance(assignment, Homogeneous):
        check(assignment.model)
    elif isinstance(assignment, Markov):
        check(assignment.root)
        if len(assignment.by_state) != k:
            raise InvalidInputError(
                f"markov assignment needs one model per state ({k}), got {len(assignment.by_state)}"
            )
        for leaf in assignment.by_state:
            check(leaf)
    elif isinstance(assignment, Table):
        check(assignment.default)
        if assignment._rows is not None:  # rows checked as the model file was read
            return
        for s, leaf in assignment.entries.items():  # the first bad entry raises, key before leaf
            as_situation(s, k)
            check(leaf)
    elif isinstance(assignment, Selection):
        if leaf_type is not MassFunction:
            raise InvalidInputError(f"{kind} tree expects {leaf_type.__name__} leaves")
        # A selection carved out of a precise tree has a precise base.
        base, step = assignment.base, np.asarray(assignment.automaton)
        precise = isinstance(_root_leaf(base), MassFunction)
        _check_assignment(base, k, MassFunction if precise else CredalSet, "precise" if precise else "imprecise")
        if (step.dtype.kind not in "iu" or step.shape[1:] != (k,) or assignment.depth < 0
                or not (step.size and 0 <= step.min() and step.max() < len(step))):
            raise InvalidInputError(f"a selection needs a depth >= 0 and (states, {k}) integer steps that lead to its states")
        for leaf in assignment.choices.values():
            check(leaf)
    elif isinstance(assignment, _SingletonView):
        _check_assignment(assignment.base, k, MassFunction, "precise")
    else:
        raise InvalidInputError(f"unknown assignment type {type(assignment).__name__}")


@dataclass(frozen=True)
class ImpreciseTree:
    """Credal local model for every situation."""

    state_space: StateSpace
    assignment: Assignment

    def __post_init__(self):
        _check_assignment(self.assignment, self.state_space.size, CredalSet, "imprecise")

    @property
    def k(self) -> int:
        return self.state_space.size


@dataclass(frozen=True)
class PreciseTree:
    """Single mass function for every situation."""

    state_space: StateSpace
    assignment: Assignment

    def __post_init__(self):
        _check_assignment(self.assignment, self.state_space.size, MassFunction, "precise")

    @property
    def k(self) -> int:
        return self.state_space.size

    def to_imprecise(self) -> ImpreciseTree:
        """View each mass function as a one-point credal set."""
        return ImpreciseTree(self.state_space, _SingletonView(self.assignment))


Tree = Union[ImpreciseTree, PreciseTree]


def local_model(tree: Tree, s: Situation) -> Leaf:
    """Resolve the local model attached to situation ``s``: the leaf of the
    state the tree's finite-state view gives it."""
    assignment = tree.assignment
    return assignment.machine_leaf(assignment.machine_init(as_situation(s, tree.k)))


def situation_selection(tree: ImpreciseTree, choices: Mapping[Situation, MassFunction]) -> PreciseTree:
    """The compatible precise tree that plays ``choices[s]`` at each
    situation ``s`` named and the first extreme point elsewhere.

    Its automaton is the prefix trie one level past the longest key, with
    that last level merged into one state: each named situation is a node
    of its own, and the deeper ones are told apart by their base state only.
    """
    depth = max(map(len, choices), default=-1) + 1
    step, sink = trie_step(tree.k, depth)
    sel = Selection(tree.assignment, np.minimum(step[: sink + 1], sink), depth, {})
    nodes = [sel.node(as_situation(s, tree.k)) for s in choices]
    return PreciseTree(tree.state_space, replace(sel, choices=dict(zip(nodes, choices.values()))))


def all_situations(k: int, max_len: int) -> Iterator[Situation]:
    """All situations of length 0..max_len, shortest first, lexicographic."""
    for n in range(max_len + 1):
        yield from itertools.product(range(k), repeat=n)


def in_convex_hull(point, vertices) -> bool:
    """Whether ``point`` lies within :data:`HULL_TOL` (sup-norm, read at
    call time) of ``hull(vertices)``.

    Solved as a small LP: minimize t subject to ``|vertices^T w - point| <= t``,
    ``sum w = 1``, ``w >= 0``; membership is ``optimum <= HULL_TOL``.  SciPy's
    HiGHS solver is imported on the first call; a solve that fails raises
    :class:`~iptree.errors.IptreeError`.
    """
    from scipy.optimize import linprog

    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    point = np.asarray(point, dtype=float)
    m, k = vertices.shape
    if point.shape != (k,):
        raise InvalidInputError("point/vertex dimension mismatch")
    if m == 1:
        return bool(np.abs(vertices[0] - point).max() <= HULL_TOL)
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * k, m + 1))
    a_ub[:k, :m] = vertices.T
    a_ub[:k, -1] = -1.0
    a_ub[k:, :m] = -vertices.T
    a_ub[k:, -1] = -1.0
    b_ub = np.concatenate([point, -point])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * (m + 1), method="highs",
    )
    if not res.success:
        raise IptreeError(f"hull-membership LP failed: {res.message}")
    return bool(res.fun <= HULL_TOL)


def is_compatible(precise: PreciseTree, imprecise: ImpreciseTree, depth: int) -> bool:
    """Whether the precise tree selects a member of every local credal set.

    Checks the situations of length < ``depth``: the local models governing
    the first ``depth`` transitions of the process, each membership up to
    :data:`HULL_TOL` (:func:`in_convex_hull`).
    """
    if precise.state_space != imprecise.state_space:
        raise InvalidInputError("trees must share a state space")
    if depth < 0:
        raise InvalidInputError("depth must be non-negative")
    for s in all_situations(precise.k, depth - 1):
        mass = local_model(precise, s)
        credal = local_model(imprecise, s)
        if not in_convex_hull(mass.weights, credal.points):
            return False
    return True


def enumerate_compatible(
    tree: ImpreciseTree, depth: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[PreciseTree]:
    """Yield every extreme-point selection up to ``depth`` as a precise tree.

    A selection picks one extreme point of the local credal set at each
    situation of length < ``depth``; beyond that the first extreme point of
    the local model applies (payoffs that depend only on the first ``depth``
    states never see those choices).  The number of selections is the product
    of the per-situation extreme-point counts; exceeding ``cap`` raises
    :class:`~iptree.errors.ResourceLimitError` before any tree is built.
    """
    if depth < 0:
        raise InvalidInputError("depth must be non-negative")
    total = 1  # stops past the cap: the exact count can have thousands of digits
    for s in all_situations(tree.k, depth - 1):
        total *= local_model(tree, s).n_points
        if total > cap:
            raise ResourceLimitError(f"enumerating compatible trees exceeds the cap of {cap}")
    sits = list(all_situations(tree.k, depth - 1))
    choice_lists = [
        [MassFunction(p) for p in local_model(tree, s).points] for s in sits
    ]
    for combo in itertools.product(*choice_lists):
        yield situation_selection(tree, dict(zip(sits, combo)))

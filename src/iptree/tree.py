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

Every assignment also exposes a *finite-state view* (``machine_init`` /
``machine_step`` / ``machine_leaf``): a deterministic automaton over
situations whose state determines the local model.  The recursion engine
uses it to collapse long horizons without enumerating situations.

A precise tree is *compatible* with an imprecise one when each of its mass
functions lies in the convex hull of the corresponding credal set's extreme
points.  :func:`enumerate_compatible` brute-forces the extreme-point
selections; it is the combinatorial backbone of the measure-theoretic
envelope oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Union

import numpy as np
from scipy.optimize import linprog

from .errors import InvalidInputError, ResourceLimitError
from .local import CredalSet, MassFunction, StateSpace

#: A situation: indices of the states observed so far.  () is the root.
Situation = tuple[int, ...]

#: Membership tolerance for the convex-hull feasibility check.
HULL_TOL = 1e-9

#: Default cap on the number of compatible-tree selections to enumerate.
DEFAULT_ENUM_CAP = 200_000

Leaf = Union[CredalSet, MassFunction]

_DEFAULT_STATE = "<default>"


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


@dataclass(frozen=True)
class Homogeneous:
    """Same local model in every situation."""

    model: Leaf

    def local(self, s: Situation) -> Leaf:
        return self.model

    def machine_init(self, s: Situation) -> Hashable:
        return None

    def machine_step(self, state: Hashable, symbol: int) -> Hashable:
        return None

    def machine_leaf(self, state: Hashable) -> Leaf:
        return self.model


@dataclass(frozen=True)
class Markov:
    """Local model determined by the last observed state.

    ``root`` covers the initial situation, where no state has been observed.
    """

    root: Leaf
    by_state: tuple[Leaf, ...]

    def local(self, s: Situation) -> Leaf:
        return self.root if not s else self.by_state[s[-1]]

    def machine_init(self, s: Situation) -> Hashable:
        return s[-1] if s else -1

    def machine_step(self, state: Hashable, symbol: int) -> Hashable:
        return symbol

    def machine_leaf(self, state: Hashable) -> Leaf:
        return self.root if state == -1 else self.by_state[state]


@dataclass(frozen=True)
class Table:
    """Explicit models for situations of length <= depth; default beyond."""

    depth: int
    entries: Mapping[Situation, Leaf]
    default: Leaf

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidInputError("table depth must be non-negative")
        for key in self.entries:
            if len(key) > self.depth:
                raise InvalidInputError(
                    f"table entry for situation of length {len(key)} exceeds declared depth {self.depth}"
                )
        object.__setattr__(self, "entries", dict(self.entries))

    def local(self, s: Situation) -> Leaf:
        if len(s) <= self.depth:
            return self.entries.get(s, self.default)
        return self.default

    def machine_init(self, s: Situation) -> Hashable:
        return s if len(s) <= self.depth else _DEFAULT_STATE

    def machine_step(self, state: Hashable, symbol: int) -> Hashable:
        if state == _DEFAULT_STATE or len(state) >= self.depth:
            return _DEFAULT_STATE
        return state + (symbol,)

    def machine_leaf(self, state: Hashable) -> Leaf:
        if state == _DEFAULT_STATE:
            return self.default
        return self.entries.get(state, self.default)


@dataclass(frozen=True)
class SelectionOverlay:
    """Precise assignment carved out of a credal one.

    Explicit mass-function choices at finitely many situations; everywhere
    else the first extreme point of the underlying credal model.  This is the
    shape of the trees produced by :func:`enumerate_compatible`.
    """

    base: "Assignment"
    choices: Mapping[Situation, MassFunction]

    def __post_init__(self):
        object.__setattr__(self, "choices", dict(self.choices))
        depth = max((len(s) for s in self.choices), default=-1)
        object.__setattr__(self, "_track_depth", depth)

    def local(self, s: Situation) -> MassFunction:
        got = self.choices.get(s)
        if got is not None:
            return got
        return MassFunction(self.base.local(s).points[0])

    def machine_init(self, s: Situation) -> Hashable:
        prefix = s if len(s) <= self._track_depth else None
        return (prefix, self.base.machine_init(s))

    def machine_step(self, state: Hashable, symbol: int) -> Hashable:
        prefix, base_state = state
        if prefix is not None and len(prefix) < self._track_depth:
            new_prefix = prefix + (symbol,)
        else:
            new_prefix = None
        return (new_prefix, self.base.machine_step(base_state, symbol))

    def machine_leaf(self, state: Hashable) -> MassFunction:
        prefix, base_state = state
        if prefix is not None:
            got = self.choices.get(prefix)
            if got is not None:
                return got
        return MassFunction(self.base.machine_leaf(base_state).points[0])


@dataclass(frozen=True)
class _SingletonView:
    """Credal view of a precise assignment: every leaf a one-point set."""

    base: "Assignment"

    def local(self, s: Situation) -> CredalSet:
        return CredalSet.singleton(self.base.local(s))

    def machine_init(self, s: Situation) -> Hashable:
        return self.base.machine_init(s)

    def machine_step(self, state: Hashable, symbol: int) -> Hashable:
        return self.base.machine_step(state, symbol)

    def machine_leaf(self, state: Hashable) -> CredalSet:
        return CredalSet.singleton(self.base.machine_leaf(state))


Assignment = Union[Homogeneous, Markov, Table, SelectionOverlay, _SingletonView]


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
        entries = assignment.entries
        # One pass over every key's states and every leaf; only a table that
        # fails it is checked entry by entry, so the first bad entry raises.
        symbols = set(itertools.chain.from_iterable(entries))
        leaves_ok = all(isinstance(leaf, leaf_type) and leaf.k == k for leaf in entries.values())
        if not (leaves_ok and symbols <= set(range(k))):
            for s, leaf in entries.items():
                as_situation(s, k)
                check(leaf)
    elif isinstance(assignment, SelectionOverlay):
        _check_assignment(assignment.base, k, CredalSet, "imprecise")
        for s, leaf in assignment.choices.items():
            as_situation(s, k)
            check(leaf)
    elif isinstance(assignment, _SingletonView):
        _check_assignment(assignment.base, k, MassFunction, "precise")
    elif hasattr(assignment, "validate"):
        # Extension point for assignment strategies defined elsewhere.
        assignment.validate(k, leaf_type)
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
    """Resolve the local model attached to situation ``s``."""
    s = as_situation(s, tree.k)
    return tree.assignment.local(s)


def all_situations(k: int, max_len: int) -> Iterator[Situation]:
    """All situations of length 0..max_len, shortest first, lexicographic."""
    for n in range(max_len + 1):
        yield from itertools.product(range(k), repeat=n)


def in_convex_hull(point, vertices, tol: float = HULL_TOL) -> bool:
    """Whether ``point`` lies within ``tol`` (sup-norm) of ``hull(vertices)``.

    Solved as a small LP: minimize t subject to ``|vertices^T w - point| <= t``,
    ``sum w = 1``, ``w >= 0``; membership is ``optimum <= tol``.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    point = np.asarray(point, dtype=float)
    m, k = vertices.shape
    if point.shape != (k,):
        raise InvalidInputError("point/vertex dimension mismatch")
    if m == 1:
        return bool(np.abs(vertices[0] - point).max() <= tol)
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
        raise RuntimeError(f"hull-membership LP failed: {res.message}")
    return bool(res.fun <= tol)


def is_compatible(precise: PreciseTree, imprecise: ImpreciseTree, depth: int, tol: float = HULL_TOL) -> bool:
    """Whether the precise tree selects a member of every local credal set.

    Checks the situations of length < ``depth``: the local models governing
    the first ``depth`` transitions of the process.
    """
    if precise.state_space != imprecise.state_space:
        raise InvalidInputError("trees must share a state space")
    if depth < 0:
        raise InvalidInputError("depth must be non-negative")
    if depth == 0:
        return True
    for s in all_situations(precise.k, depth - 1):
        mass = local_model(precise, s)
        credal = local_model(imprecise, s)
        if not in_convex_hull(mass.weights, credal.points, tol):
            return False
    return True


def count_compatible(tree: ImpreciseTree, depth: int) -> int:
    """Number of extreme-point selections over situations of length < depth."""
    if depth <= 0:
        return 1
    count = 1
    for s in all_situations(tree.k, depth - 1):
        count *= local_model(tree, s).n_points
    return count


def enumerate_compatible(
    tree: ImpreciseTree, depth: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[PreciseTree]:
    """Yield every extreme-point selection up to ``depth`` as a precise tree.

    A selection picks one extreme point of the local credal set at each
    situation of length < ``depth``; beyond that the first extreme point of
    the local model applies (payoffs that depend only on the first ``depth``
    states never see those choices).  The number of selections is the product
    of the per-situation extreme-point counts; exceeding ``cap`` raises
    :class:`~iptree.errors.ResourceLimitError`.
    """
    if depth < 0:
        raise InvalidInputError("depth must be non-negative")
    total = count_compatible(tree, depth)
    if total > cap:
        raise ResourceLimitError(
            f"enumerating {total} compatible trees exceeds the cap of {cap}"
        )
    sits = list(all_situations(tree.k, depth - 1)) if depth > 0 else []
    choice_lists = [
        [MassFunction(p) for p in local_model(tree, s).points] for s in sits
    ]
    for combo in itertools.product(*choice_lists):
        overlay = SelectionOverlay(tree.assignment, dict(zip(sits, combo)))
        yield PreciseTree(tree.state_space, overlay)

"""Supermartingale certificates for upper expectations.

A process on situations is a supermartingale when, in every situation, the
local upper expectation of its next-step values does not exceed its current
value.  Bounded-below supermartingales are betting-capital processes: if such
a process eventually dominates a payoff on every path through ``s``, then its
value at ``s`` is a certified upper bound on the conditional upper
expectation of that payoff.  The recursion engine's value is the least bound
obtainable this way, and :func:`canonical_supermartingale` constructs the
process that attains it.

Only *tail-constant* processes are representable here: explicit values up to
a depth, frozen beyond.  That class is finitely checkable and suffices for
finitary gambles, where the canonical process is tail-constant and tight.
Entries may be +inf (harmless above a bound); -inf is rejected because it
breaks the bounded-below reading.

Checking is level by level, with the recursion engine's machinery: the
tree's ``step`` array, walked along the prefix trie of the process
(:func:`~iptree.tree.prefix_levels`), gives every situation of a level its
local model, and one call of the engine's Bellman-step kernel over the
level, with the situations on the last axis, gives each situation the same
local upper expectation :func:`~iptree.local.upper_expectation` computes.
Only situations whose next values include +inf are evaluated one by one, in
extended arithmetic.
Domination of the payoff is one array comparison over the deepest level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _expectations, _node_points, finitary_upper, value_table
from .errors import InvalidInputError
from .extreal import INF, check_no_nan
from .gambles import FinitaryGamble
from .local import CredalSet, extended_upper_expectation
from .tree import Situation, Tree, as_situation, local_model, prefix_levels

#: Verification slack: a situation counts as violating only beyond this.
VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class TailConstantProcess:
    """Extended-real process on situations, constant past ``depth``.

    ``levels[m]`` has shape ``(k,)*m`` and stores the value at every
    length-m situation; for longer situations the value is the one at the
    length-``depth`` prefix.  Values are finite or +inf, and the finite
    entries provide the lower bound that makes the process a legal capital
    process.
    """

    k: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.levels:
            raise InvalidInputError("process needs at least the root level")
        frozen = []
        for m, arr in enumerate(self.levels):
            arr = check_no_nan(arr, "process value")
            if arr.shape != (self.k,) * m:
                raise InvalidInputError(
                    f"level {m} has shape {arr.shape}, expected ({self.k},)*{m}"
                )
            if (arr == -INF).any():
                raise InvalidInputError("process values must be bounded below; -inf rejected")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "levels", tuple(frozen))

    @classmethod
    def of_checked(cls, k: int, levels: tuple[np.ndarray, ...]) -> "TailConstantProcess":
        """The process of read-only levels that have passed its checks, not
        checked or copied again."""
        process = object.__new__(cls)
        object.__setattr__(process, "k", k)
        object.__setattr__(process, "levels", levels)
        return process

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def value(self, s: Situation) -> float:
        s = as_situation(s, self.k)
        m = min(len(s), self.depth)
        return float(self.levels[m][s[:m]])

    def lower_bound(self) -> float:
        return min(float(arr[np.isfinite(arr)].min()) if np.isfinite(arr).any() else INF
                   for arr in self.levels)

    def __add__(self, other) -> "TailConstantProcess":
        if isinstance(other, (int, float)):
            return TailConstantProcess(
                self.k, tuple(arr + float(other) for arr in self.levels)
            )
        if isinstance(other, TailConstantProcess):
            if other.k != self.k:
                raise InvalidInputError("processes live on different state spaces")
            a, b = self, other
            if a.depth < b.depth:
                a, b = b, a
            levels = []
            for m, arr in enumerate(a.levels):
                if m <= b.depth:
                    levels.append(arr + b.levels[m])
                else:
                    # b is tail-constant: broadcast its deepest level.
                    tail = b.levels[b.depth].reshape(
                        b.levels[b.depth].shape + (1,) * (m - b.depth)
                    )
                    levels.append(arr + tail)
            return TailConstantProcess(self.k, tuple(levels))
        return NotImplemented

    __radd__ = __add__


@dataclass(frozen=True)
class Violation:
    situation: Situation
    value: float
    required: float

    @property
    def slack(self) -> float:
        return self.value - self.required


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checked: int
    min_margin: float  # most negative value-minus-required margin (0 if none finite)
    max_margin: float  # most positive finite margin; both ~0 for tight processes
    violations: tuple[Violation, ...]

    def __str__(self):
        if self.passed:
            return f"supermartingale: all {self.checked} situations verified"
        lines = [f"supermartingale: {len(self.violations)} violating situation(s)"]
        lines += [
            f"  at {v.situation}: value {v.value!r} < required {v.required!r}"
            for v in self.violations
        ]
        return "\n".join(lines)


def _situation(i: int, k: int, m: int) -> Situation:
    """The ``i``-th length-``m`` situation in lexicographic order."""
    return tuple(int(y) for y in np.unravel_index(i, (k,) * m))


def verify(process: TailConstantProcess, tree: Tree, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check the supermartingale inequality at every situation above the tail.

    At each situation of length < depth the local upper expectation of the
    next-level values (extended arithmetic, since +inf entries are allowed)
    must not exceed the value at the situation, up to ``tol``.  Levels at and
    beyond the tail are constant, and a constant's upper expectation is
    itself, so they verify automatically.

    The check runs level by level.  The situations of a level find their
    local models through the tree's ``step`` and ``leaf`` arrays, walked
    along the prefix trie of the process by
    :func:`~iptree.tree.prefix_levels`, so that situation i's children are
    situations ``i * k`` to ``i * k + k - 1`` of the next level, as the
    levels lay them out.  Each gets its local upper expectation from one
    :func:`~iptree.engine._expectations` over the level, with the
    situations on the last axis: the products and sums of the
    :func:`~iptree.extreal.weighted_sum` that
    :func:`~iptree.local.upper_expectation` uses, in its order.  Only
    situations with a +inf next value go through
    :func:`~iptree.local.extended_upper_expectation` one by one.
    """
    if tree.k != process.k:
        raise InvalidInputError("process and tree live on different state spaces")
    k, depth = process.k, process.depth
    violations = []
    checked = 0
    lo, hi = 0.0, 0.0
    states = prefix_levels(tree.assignment.step, 0, depth)
    for m in range(depth):
        value = process.levels[m].reshape(-1)
        nxt = process.levels[m + 1].reshape(-1, k).T  # (k, situations)
        infinite = np.flatnonzero(np.isinf(nxt).any(axis=0))
        finite = nxt.copy()
        finite[:, infinite] = 0.0
        required = _expectations(_node_points(tree, states[m]), finite[:, None, :]).max(axis=0)[0]
        for i in infinite.tolist():
            leaf = local_model(tree, _situation(i, k, m))
            credal = leaf if isinstance(leaf, CredalSet) else CredalSet.singleton(leaf)
            required[i] = extended_upper_expectation(credal, nxt[:, i])
        checked += len(value)
        with np.errstate(invalid="ignore"):  # inf - inf: no margin
            margin = value - required
        known = margin[np.isfinite(margin)]
        if known.size:
            lo = min(lo, float(known.min()))
            hi = max(hi, float(known.max()))
        for i in np.flatnonzero(margin < -tol).tolist():
            violations.append(Violation(_situation(i, k, m), float(value[i]), float(required[i])))
    return VerificationReport(not violations, checked, lo, hi, tuple(violations))


def canonical_supermartingale(tree: Tree, f: FinitaryGamble) -> TailConstantProcess:
    """The tight certificate for a finitary gamble.

    Values are the conditional upper expectations of ``f`` at every
    situation up to the gamble's depth; the deepest level is the payoff
    itself, so the tail-constant extension dominates ``f`` on every path, and
    the supermartingale inequality holds with equality everywhere.  Its value
    at every situation matches the recursion engine.
    """
    levels = value_table(tree, f)
    return TailConstantProcess(tree.k, tuple(levels))


@dataclass(frozen=True)
class Certificate:
    """Outcome of checking a claimed certificate for an upper expectation."""

    valid: bool
    bound: float
    engine_value: float
    situation: Situation
    verification: VerificationReport
    domination_witnesses: tuple[Situation, ...]

    @property
    def gap(self) -> float:
        return self.bound - self.engine_value


def certified_upper_bound(
    process: TailConstantProcess,
    f: FinitaryGamble,
    tree: Tree,
    s: Situation = (),
    tol: float = VERIFY_TOL,
) -> Certificate:
    """Validate ``process`` as an upper-expectation certificate for ``f``.

    The certificate is valid when the process verifies as a supermartingale
    and its deepest level dominates the (lifted) payoffs on every string
    extending ``s``; its value at ``s`` is then a sound upper bound on the
    conditional upper expectation, which is also reported for comparison.
    Domination failures are returned as witness strings.
    """
    s = as_situation(s, tree.k)
    if process.depth < f.depth:
        raise InvalidInputError(
            f"certificate depth {process.depth} is below the gamble depth {f.depth}"
        )
    if len(s) > process.depth:
        raise InvalidInputError("conditioning situation lies beyond the certificate depth")
    report = verify(process, tree, tol)
    lifted = f.lift(process.depth).table
    below = process.levels[process.depth][s + (...,)] < lifted[s + (...,)] - tol
    witnesses = [s + tuple(rel) for rel in np.argwhere(below).tolist()]
    valid = report.passed and not witnesses
    return Certificate(
        valid=valid,
        bound=process.value(s),
        engine_value=finitary_upper(tree, f, s),
        situation=s,
        verification=report,
        domination_witnesses=tuple(witnesses),
    )

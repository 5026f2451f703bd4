"""Reference values for checking iptree's answers, computed without iptree.

The benchmark generates every model itself, so it can solve the same
recursions on its own plain NumPy representation:

* dense conditional upper/lower expectations, by the backward recursion
  vectorized per level;
* horizon-m upper/lower expectations of truncated hitting times and hitting
  indicators, by value iteration on the model's finite-state view, which
  costs O(horizon) instead of the engine's O(horizon^3).

Agreement with the engine is required within ``REL_TOL`` relative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Relative tolerance for engine values against the references.
REL_TOL = 1e-9


def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


@dataclass
class Model:
    """An imprecise tree as the benchmark generates it.

    ``leaves[i]`` is an ``(points, k)`` array of extreme points.  Homogeneous
    models use leaf 0 everywhere; Markov models use leaf 0 at the root and
    leaf ``1 + y`` after state ``y``; table models use ``entries`` (situation
    -> leaf) up to ``depth`` and leaf 0 (the default) elsewhere.
    """

    labels: tuple[str, ...]
    kind: str
    leaves: list[np.ndarray]
    entries: dict[tuple[int, ...], int] = field(default_factory=dict)
    depth: int = 0

    @property
    def k(self) -> int:
        return len(self.labels)

    def doc(self) -> dict:
        """The model as an iptree model JSON document."""

        def pts(i):
            return [[float(x) for x in row] for row in self.leaves[i]]

        if self.kind == "homogeneous":
            model = {"kind": "homogeneous", "extreme_points": pts(0)}
        elif self.kind == "markov":
            model = {
                "kind": "markov",
                "root": pts(0),
                "by_state": {label: pts(1 + y) for y, label in enumerate(self.labels)},
            }
        else:
            model = {
                "kind": "table",
                "depth": self.depth,
                "entries": {
                    ",".join(self.labels[y] for y in sit): pts(i)
                    for sit, i in sorted(self.entries.items())
                },
                "default": pts(0),
            }
        return {"schema": 1, "states": list(self.labels), "model": model}

    def leaf_of(self, sit: tuple[int, ...]) -> int:
        if self.kind == "homogeneous":
            return 0
        if self.kind == "markov":
            return 1 + sit[-1] if sit else 0
        if len(sit) <= self.depth:
            return self.entries.get(sit, 0)
        return 0

    def selections(self, s: tuple[int, ...], depth: int) -> int:
        """Extreme-point selections a depth-``depth`` payoff sees below ``s``."""
        count = 1
        for rel in range(depth - len(s)):
            for prefix in itertools.product(range(self.k), repeat=rel):
                count *= len(self.leaves[self.leaf_of(s + prefix)])
        return count

    @cached_property
    def padded(self) -> np.ndarray:
        """Leaves stacked to ``(leaves, max points, k)``, padded by repeating
        the first point (which changes no max or min)."""
        width = max(len(p) for p in self.leaves)
        return np.stack([
            np.vstack([p] + [p[:1]] * (width - len(p))) for p in self.leaves
        ])


def _level_leaves(model: Model, s: tuple[int, ...], rel: int) -> np.ndarray:
    """Leaf ids of every situation ``s + prefix`` with ``len(prefix) == rel``,
    in row-major prefix order."""
    k = model.k
    if model.kind == "homogeneous":
        return np.zeros(k**rel, dtype=np.int64)
    if model.kind == "markov":
        if rel == 0:
            return np.array([model.leaf_of(s)])
        return 1 + np.arange(k**rel) % k
    return np.array([
        model.leaf_of(s + prefix) for prefix in itertools.product(range(k), repeat=rel)
    ])


def dense_value(model: Model, table: np.ndarray, s: tuple[int, ...], upper: bool) -> float:
    """Conditional upper (or lower) expectation of a dense payoff table."""
    n = table.ndim
    if len(s) >= n:
        return float(table[s[:n]])
    k = model.k
    pts = model.padded
    g = np.asarray(table[s], dtype=float).reshape(-1)
    for rel in range(n - len(s) - 1, -1, -1):
        local = pts[_level_leaves(model, s, rel)]
        vals = np.einsum("apk,ak->ap", local, g.reshape(-1, k))
        g = vals.max(axis=1) if upper else vals.min(axis=1)
    return float(g[0])


def _machine(model: Model):
    """The model's finite-state view: (transition table, leaf per state, init)."""
    k = model.k
    if model.kind == "homogeneous":
        return np.zeros((1, k), dtype=np.int64), np.zeros(1, dtype=np.int64), lambda s: 0
    if model.kind == "markov":
        trans = np.tile(1 + np.arange(k), (k + 1, 1))
        return trans, np.arange(k + 1), lambda s: 1 + s[-1] if s else 0
    sits = [
        sit for n in range(model.depth + 1)
        for sit in itertools.product(range(k), repeat=n)
    ]
    index = {sit: i for i, sit in enumerate(sits)}
    default = len(sits)
    trans = np.full((default + 1, k), default, dtype=np.int64)
    for sit, i in index.items():
        if len(sit) < model.depth:
            trans[i] = [index[sit + (y,)] for y in range(k)]
    leaves = np.array([model.leaf_of(sit) for sit in sits] + [0])
    return trans, leaves, lambda s: index.get(s, default)


def hitting_iterates(
    model: Model, targets: frozenset[int], s: tuple[int, ...], kind: str, upper: bool, horizon: int
) -> list[float]:
    """Values ``[V_1, ..., V_horizon]`` of the horizon-m truncations given ``s``.

    ``kind`` is ``"hit_time"`` (payoff ``min(first hit, m)``) or
    ``"hit_prob"`` (indicator of a hit within the first m states).
    """
    hit_at = next((i + 1 for i, y in enumerate(s) if y in targets), None)
    trans, leaves, init = _machine(model)
    local = model.padded[leaves]
    in_target = np.array([y in targets for y in range(model.k)], dtype=float)
    # u[r] is the value of the remaining r steps from each machine state,
    # given no hit so far.
    u = np.zeros(len(leaves))
    remaining = [u]
    for _ in range(horizon):
        nxt = u[trans] * (1.0 - in_target)
        if kind == "hit_prob":
            nxt = nxt + in_target
        vals = np.einsum("spk,sk->sp", local, nxt)
        u = vals.max(axis=1) if upper else vals.min(axis=1)
        if kind == "hit_time":
            u = u + 1.0
        remaining.append(u)
    n = len(s)
    start = init(s)
    out = []
    for m in range(1, horizon + 1):
        if kind == "hit_time":
            if hit_at is not None:
                out.append(float(min(hit_at, m)))
            elif m <= n:
                out.append(float(m))
            else:
                out.append(n + float(remaining[m - n][start]))
        else:
            if hit_at is not None:
                out.append(1.0 if hit_at <= m else 0.0)
            elif m <= n:
                out.append(0.0)
            else:
                out.append(float(remaining[m - n][start]))
    return out


def hitting_limit_bound(model: Model, targets: frozenset[int], s: tuple[int, ...], kind: str, upper: bool) -> float:
    """The limit value where it has a closed form, else a bound beyond it.

    Every extreme point of every generated model puts mass on the targets,
    so the hitting probability is 1.  For hitting times from a situation of
    length n without a hit, a homogeneous model gives ``n + 1/p`` with ``p``
    the least (upper) or largest (lower) target mass; other models are
    bounded above by ``n + 1/p_min`` over all leaves.
    """
    if kind == "hit_prob":
        return 1.0
    mask = np.array([y in targets for y in range(model.k)])
    masses = [leaf[:, mask].sum(axis=1) for leaf in model.leaves]
    if model.kind == "homogeneous" and not upper:
        p = float(masses[0].max())
    else:
        p = float(min(m.min() for m in masses))
    return len(s) + 1.0 / p

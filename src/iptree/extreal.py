"""Extended-real arithmetic.

Extended reals are plain Python/NumPy floats, with ``math.inf`` standing in
for the two infinities.  IEEE semantics are deliberately overridden in two
places:

* ``+inf + (-inf)`` evaluates to ``+inf`` (IEEE would give NaN), and
* ``0 * (+/-inf)`` evaluates to ``0`` (IEEE would give NaN).

NaN is never a legal value anywhere in this package.  The module also holds
:func:`weighted_sum`, the one ordered sum that every local expectation in
the package is computed with: :mod:`.local` and :func:`xdot` call it, and
the engine's kernel (:func:`~iptree.engine._expectations`) forms the same
products and additions in the same order, with the nodes on the last axis.

Two helpers carry the package's "validate once" rule for every value type:
:func:`_frozen` makes an array read-only, as each value stores its arrays,
and :func:`_derived` adopts a value derived from a checked one without
checking it again.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

INF = math.inf


def check_no_nan(values, what: str = "value") -> np.ndarray:
    """Return ``values`` as a float array, raising if any entry is NaN."""
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).any():
        raise InvalidInputError(f"NaN is not a valid {what}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place."""
    arr.flags.writeable = False
    return arr


def _derived(cls, **fields):
    """An instance of ``cls`` holding ``fields`` as given, without running
    its checks: for values derived from a checked instance and already in
    the form its constructor stores."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # past a frozen __setattr__, as the constructor sets them
    return obj


def weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_j weights[..., j] * values[..., j]``, added left to right.

    Every local expectation in the package is this one sum.  :mod:`.local`
    and :func:`xdot` call it; the engine's sweeps, limits and policy solve
    and the certificate check form the same products and additions in the
    same order through :func:`~iptree.engine._expectations`, whose symbol
    axis comes first and node axis last, so that its inner loops are long.
    Each entry is the same chain of elementwise products and additions
    whatever the leading axes hold, so a value does not depend on how many
    nodes or gambles were evaluated with it (a BLAS product's rounding
    changes with its batch shape).  The leading axes broadcast; the last
    axes must have one, equal, positive length.
    """
    total = weights[..., 0] * values[..., 0]
    for j in range(1, weights.shape[-1]):
        total = total + weights[..., j] * values[..., j]
    return total


def xdot(weights: np.ndarray, values: np.ndarray) -> float:
    """Weighted sum of extended reals under the package conventions.

    ``weights`` must be finite and non-negative; ``values`` may contain
    infinities.  Zero-weight infinities contribute nothing, and a positive
    weight on a +inf coordinate makes the whole sum +inf regardless of any
    -inf coordinates.
    """
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    pos = values == INF
    neg = values == -INF
    if weights[pos].sum() > 0.0:
        return INF
    if weights[neg].sum() > 0.0:
        return -INF
    finite = ~(pos | neg)
    if not finite.any():
        return 0.0
    return float(weighted_sum(weights[finite], values[finite]))


def fmt(value: float) -> str | float:
    """JSON-safe rendering: infinities become the strings '+inf'/'-inf'."""
    if value == INF:
        return "+inf"
    if value == -INF:
        return "-inf"
    return value

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


def xadd(a: float, b: float) -> float:
    """Add two extended reals; any +inf operand dominates."""
    if a == INF or b == INF:
        return INF
    if a == -INF or b == -INF:
        return -INF
    return a + b


def xmul(scale: float, value: float) -> float:
    """Multiply a finite non-negative scale by an extended real.

    ``0 * (+/-inf) == 0``; a positive scale preserves infinities.
    """
    if scale < 0.0:
        raise InvalidInputError("xmul expects a non-negative scale")
    if scale == 0.0:
        return 0.0
    if value == INF or value == -INF:
        return value
    return scale * value


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

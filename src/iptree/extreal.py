"""Extended-real arithmetic.

Extended reals are plain Python/NumPy floats, with ``math.inf`` standing in
for the two infinities.  IEEE semantics are deliberately overridden in two
places:

* ``+inf + (-inf)`` evaluates to ``+inf`` (IEEE would give NaN), and
* ``0 * (+/-inf)`` evaluates to ``0`` (IEEE would give NaN).

Every helper here rejects NaN inputs: NaN is never a legal value anywhere in
this package.
"""

from __future__ import annotations

import math
from typing import Iterable

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


def xsum(terms: Iterable[float]) -> float:
    """Sum extended reals: finite terms first, then +inf terms, then -inf.

    With that fixed order the ``+inf - inf == +inf`` convention makes the
    result +inf as soon as a single +inf term is present, and -inf when only
    -inf terms accompany the finite ones.
    """
    finite = 0.0
    has_pos = False
    has_neg = False
    for t in terms:
        if t == INF:
            has_pos = True
        elif t == -INF:
            has_neg = True
        else:
            finite += t
    if has_pos:
        return INF
    if has_neg:
        return -INF
    return finite


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
    return float(weights[finite] @ values[finite])


def fmt(value: float) -> str | float:
    """JSON-safe rendering: infinities become the strings '+inf'/'-inf'."""
    if value == INF:
        return "+inf"
    if value == -INF:
        return "-inf"
    return value

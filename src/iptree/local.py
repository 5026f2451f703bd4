"""Local uncertainty models on a finite state space.

A local model describes beliefs about the *next* state of the process.  It is
a credal set: a finite list of probability mass functions (its extreme
points), and the induced upper expectation of a payoff vector ``f`` is the
maximum of ``sum_x f(x) p(x)`` over those points.  The conjugate lower
expectation is ``-upper(-f)``.

Payoff vectors ("local gambles") are plain float arrays of length ``k``.
Finite-valued gambles are the primary domain; vectors with +/-inf entries are
supported through :func:`extended_upper_expectation`, which evaluates each
extreme point under the extended-arithmetic conventions of :mod:`.extreal`,
and through :func:`cut_limit_upper`, an independent evaluation of the same
quantity as the exact double limit of clipped finite gambles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .extreal import INF, _derived, _frozen, check_no_nan, weighted_sum, xdot

#: |sum(weights) - 1| beyond this is rejected instead of renormalized.
MASS_SUM_TOL = 1e-9

#: Tolerance of the coherence-axiom checker.
AXIOM_TOL = 1e-9


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of state labels; index <-> label is stable."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise InvalidInputError("state space needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("state labels must be distinct")
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInputError(
                f"unknown state label {label!r}; states are {list(self.labels)}"
            ) from None


@dataclass(frozen=True)
class MassFunction:
    """Probability mass function on the state space.

    Weights must be non-negative and sum to 1 within ``MASS_SUM_TOL``; they
    are renormalized exactly on construction, so stored weights sum to 1 to
    machine precision.
    """

    weights: np.ndarray

    def __post_init__(self):
        arr = check_no_nan(self.weights, "probability weight")
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("mass function must be a non-empty vector")
        if (arr < 0).any():
            raise InvalidInputError("mass function weights must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise InvalidInputError(
                f"mass function weights sum to {total!r}, not 1 (tolerance {MASS_SUM_TOL})"
            )
        # Renormalize only outside the invariant band: division by a sum one
        # ulp away from 1 is not idempotent and would break round-trips.
        if abs(total - 1.0) > 1e-12:
            arr = arr / total
        object.__setattr__(self, "weights", _frozen(arr.copy()))

    @property
    def k(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        return isinstance(other, MassFunction) and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash(self.weights.tobytes())


def _mass_rows(arr: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a NaN-free ``(n, k)`` matrix as :class:`MassFunction`
    stores them, in consecutive blocks of ``sizes`` rows, each block
    without its bitwise-duplicate rows (the first is kept): one new frozen
    matrix, and the blocks' sizes in it.

    Every row passes the checks of MassFunction, all at once: the first
    failing row raises what ``MassFunction(row)`` would.  Row sums of a
    C-ordered matrix are bit-identical to the sums of its rows.  Rows that
    differ in a hash of their block number and bits are distinct; only
    when two hashes meet are duplicates looked for, by sorting the rows'
    bits with their block numbers and comparing neighbours.
    """
    arr = np.array(arr, dtype=float, order="C")
    sizes = np.asarray(sizes, dtype=np.intp)
    totals = arr.sum(axis=1)
    off = np.abs(totals - 1.0)
    if (arr < 0).any() or (off > MASS_SUM_TOL).any():
        negative = (arr < 0).any(axis=1)
        i = (negative | (off > MASS_SUM_TOL)).argmax()
        if negative[i]:
            raise InvalidInputError("mass function weights must be non-negative")
        raise InvalidInputError(
            f"mass function weights sum to {float(totals[i])!r}, not 1 "
            f"(tolerance {MASS_SUM_TOL})"
        )
    renorm = off > 1e-12
    if renorm.any():
        arr = np.where(renorm[:, None], arr / totals[:, None], arr)
    if len(arr) > len(sizes):  # some block has two rows or more
        block = np.repeat(np.arange(len(sizes), dtype=np.uint64), sizes)
        bits = arr.view(np.uint64)
        hashes = block
        for column in bits.T:
            hashes = hashes * np.uint64(0x9E3779B97F4A7C15) + column  # wraps around
        hashes = np.sort(hashes)
        if (hashes[1:] == hashes[:-1]).any():
            # A row's key is its block number and its bits; a stable sort of
            # the keys puts each row right after the first of its equals.
            keys = np.column_stack([block, bits])
            keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
            order = np.argsort(keys, kind="stable")
            dup = np.zeros(len(arr), dtype=bool)
            dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
            arr = arr[~dup]
            sizes = np.bincount(block[~dup].astype(np.intp), minlength=len(sizes))
    return _frozen(arr), sizes


@dataclass(frozen=True)
class CredalSet:
    """Non-empty finite set of mass functions, stored as a (m, k) matrix.

    Rows are extreme points.  Exact (bitwise) duplicates are dropped on
    construction; no convex-hull reduction is attempted.
    """

    points: np.ndarray = field()

    def __post_init__(self):
        arr = check_no_nan(self.points, "extreme point weight")
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInputError("credal set needs a non-empty (m, k) matrix of extreme points")
        object.__setattr__(self, "points", _mass_rows(arr, [len(arr)])[0])

    @classmethod
    def singleton(cls, mass: MassFunction) -> "CredalSet":
        """The one-point set of a mass function, whose weights passed the same checks."""
        return _derived(cls, points=mass.weights[None, :])

    @property
    def k(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, CredalSet) and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash(self.points.tobytes())


def _check_gamble(credal: CredalSet, f, require_finite: bool) -> np.ndarray:
    arr = check_no_nan(f, "gamble payoff")
    if arr.ndim != 1 or arr.size != credal.k:
        raise InvalidInputError(
            f"gamble has length {arr.size if arr.ndim == 1 else arr.shape}, "
            f"state space has size {credal.k}"
        )
    if require_finite and not np.isfinite(arr).all():
        raise InvalidInputError("this operation requires a finite-valued gamble")
    return arr


def upper_expectation(credal: CredalSet, f) -> float:
    """Maximum of ``p . f`` over the extreme points, for finite ``f``."""
    arr = _check_gamble(credal, f, require_finite=True)
    return float(weighted_sum(credal.points, arr).max())


def lower_expectation(credal: CredalSet, f) -> float:
    """Conjugate of :func:`upper_expectation`: ``-upper(-f)``."""
    return -upper_expectation(credal, -np.asarray(f, dtype=float))


def extended_upper_expectation(credal: CredalSet, f) -> float:
    """Upper expectation of a possibly infinite-valued payoff vector.

    Each extreme point is evaluated with :func:`iptree.extreal.xdot`
    (finite terms first, then +inf terms, then -inf terms, with
    ``+inf - inf == +inf``), and the maximum is returned.  Coincides with
    :func:`upper_expectation` on finite gambles.
    """
    arr = _check_gamble(credal, f, require_finite=False)
    if np.isfinite(arr).all():
        return upper_expectation(credal, arr)
    return max(xdot(p, arr) for p in credal.points)


def cut_limit_upper(credal: CredalSet, f) -> float:
    """Upper expectation of ``f`` as a double limit of clipped gambles.

    Evaluates ``lim_{c -> -inf} lim_{d -> +inf} upper(min(max(f, c), d))``.
    Every clipped gamble is finite.  For a fixed clip level the value of
    each extreme point is affine in the clip magnitude, and a maximum of
    finitely many monotone affine functions commutes with the limit, which is
    what makes the double limit exactly computable:

    * inner limit (d): +inf as soon as some extreme point puts positive mass
      on a +inf coordinate, otherwise already stabilized;
    * outer limit (c): discard points with positive mass on -inf coordinates;
      -inf when none survive.

    Serves as an independent check of :func:`extended_upper_expectation`;
    the two must agree exactly on every input.
    """
    return _cut_limit(credal, _check_gamble(credal, f, require_finite=False))


def _cut_limit(credal: CredalSet, arr: np.ndarray) -> float:
    """:func:`cut_limit_upper` of a NaN-free gamble of the right length."""
    finite = np.isfinite(arr)
    if (credal.points[:, arr == INF].sum(axis=1) > 0.0).any():
        return INF
    # No point can reach +inf; drop the points dragged to -inf by the outer cut.
    survivors = credal.points[:, arr == -INF].sum(axis=1) == 0.0
    if not survivors.any():
        return -INF
    return float(weighted_sum(credal.points[np.ix_(survivors, finite)], arr[finite]).max())


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    detail: str
    slack: float


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    checks_run: int
    violations: tuple[AxiomViolation, ...]

    def __str__(self):
        if self.passed:
            return f"coherence axioms: all {self.checks_run} checks passed"
        lines = [f"coherence axioms: {len(self.violations)} violation(s) in {self.checks_run} checks"]
        lines += [f"  {v.axiom}: {v.detail} (slack {v.slack:.3e})" for v in self.violations]
        return "\n".join(lines)


def check_coherence_axioms(credal: CredalSet, sample_gambles) -> AxiomReport:
    """Assert the coherence axioms of the upper expectation on sample gambles.

    Checked properties, writing ``U`` for the upper expectation and ``L`` for
    its conjugate lower expectation:

    * upper bound:        U(f) <= sup f
    * sub-additivity:     U(f+g) <= U(f) + U(g)   (consecutive sample pairs)
    * homogeneity:        U(a f) == a U(f) for a in {0, 0.5, 1, 2}
    * monotonicity:       f <= g  =>  U(f) <= U(g)   (via f and f + |h|)
    * bounds:             inf f <= L(f) <= U(f) <= sup f
    * constant shift:     U(f + m) == U(f) + m
    * Lipschitz bound:    |U(f) - U(g)| <= sup|f - g|

    Each comparison allows a slack of :data:`AXIOM_TOL`, read at call time.
    Returns a report listing every violated check with a witness description.
    This is the one-trial case of :func:`_coherence_axioms`.
    """
    gambles = [_check_gamble(credal, g, require_finite=True) for g in sample_gambles]
    if not gambles:
        raise InvalidInputError("need at least one sample gamble")
    return _coherence_axioms([credal.points], np.array(gambles)[None])[0]


def _coherence_axioms(points: list, gambles: np.ndarray) -> list[AxiomReport]:
    """The :func:`check_coherence_axioms` report of each of several trials:
    trial ``r`` checks the finite gambles ``gambles[r]``, an ``(n, k)``
    slice of the ``(trials, n, k)`` array with ``n >= 1``, against the
    extreme points ``points[r]``, an ``(m, k)`` matrix.

    Every gamble the checks need (each sample, its negation, scalings and
    shift, its dominating partner, and each consecutive sum) of every trial
    is evaluated in one product over the trials' extreme points; a trial
    with fewer points than the most repeats its last one, which changes no
    maximum, so each value is the one :func:`upper_expectation` gives for
    that gamble alone.  Each check is then one array comparison over the
    samples (or the consecutive pairs) of all trials, and a violation, with
    its witness and slack, is built only where a comparison fails.  The
    slack is :data:`AXIOM_TOL`, read at call time.
    """
    tol = AXIOM_TOL
    trials, n, _ = gambles.shape
    g = gambles
    scales = np.array([0.0, 0.5, 1.0, 2.0])
    shifts = 1.0 + 0.25 * np.arange(n)
    # A sample near the float range overflows here; the check below rejects it.
    with np.errstate(over="ignore"):
        rows = np.concatenate([
            g,
            -g,
            (g[:, :, None, :] * scales[:, None]).reshape(trials, 4 * n, -1),
            g + shifts[:, None],
            g + np.abs(np.concatenate((g[:, 1:], g[:, :1]), axis=1)),
            g[:, :-1] + g[:, 1:],
        ], axis=1)
    if not np.isfinite(rows).all():
        raise InvalidInputError("this operation requires a finite-valued gamble")
    most = np.arange(max(map(len, points)))
    padded = np.stack([p[np.minimum(most, len(p) - 1)] for p in points])
    values = weighted_sum(padded[:, :, None, :], rows[:, None, :, :]).max(axis=1)
    upper, lower, fmax, fmin = values[:, :n], -values[:, n : 2 * n], g.max(axis=2), g.min(axis=2)
    scaled_gap = np.abs(values[:, 2 * n : 6 * n].reshape(trials, n, 4) - scales * upper[:, :, None])
    shift_gap = np.abs(values[:, 6 * n : 7 * n] - (upper + shifts))
    partner, summed = values[:, 7 * n : 8 * n], values[:, 8 * n :]
    bound = upper[:, :-1] + upper[:, 1:]
    gap, lip = np.abs(upper[:, :-1] - upper[:, 1:]), np.abs(g[:, :-1] - g[:, 1:]).max(axis=2)
    # Each check's outcome, per trial one row per gamble (then per
    # consecutive pair) and one column per check in report order.
    per_gamble = np.dstack([
        upper <= fmax + tol,
        (fmin - tol <= lower) & (lower <= upper + tol),
        scaled_gap <= tol,
        shift_gap <= tol,
        upper <= partner + tol,
    ])
    per_pair = np.dstack([summed <= bound + tol, gap <= lip + tol])
    checks = per_gamble[0].size + per_pair[0].size

    # A violation's slack is the expression the scalar checks gave, of the
    # same type: the upper-bound and bounds slacks subtract a NumPy maximum
    # or minimum and print as NumPy floats.
    def gamble_violation(r: int, i: int, j: int) -> AxiomViolation:
        if j == 0:
            return AxiomViolation("upper-bound", f"gamble #{i}", upper[r, i] - fmax[r, i])
        if j == 1:
            return AxiomViolation("bounds", f"gamble #{i}", max(fmin[r, i] - lower[r, i], float(lower[r, i] - upper[r, i])))
        if j < 6:
            return AxiomViolation("homogeneity", f"gamble #{i}, scale {scales[j - 2]}", float(scaled_gap[r, i, j - 2]))
        if j == 6:
            return AxiomViolation("constant-shift", f"gamble #{i}, shift {1.0 + 0.25 * i}", float(shift_gap[r, i]))
        return AxiomViolation("monotonicity", f"gamble #{i} vs dominating partner", float(upper[r, i] - partner[r, i]))

    def pair_violation(r: int, i: int, j: int) -> AxiomViolation:
        if j == 0:
            return AxiomViolation("sub-additivity", f"gambles #{i}, #{i + 1}", float(summed[r, i] - bound[r, i]))
        return AxiomViolation("lipschitz", f"gambles #{i}, #{i + 1}", float(gap[r, i] - lip[r, i]))

    failed = ~(per_gamble.all(axis=(1, 2)) & per_pair.all(axis=(1, 2)))
    reports = []
    for r in range(trials):
        violations = []
        if failed[r]:
            violations = [gamble_violation(r, int(i), int(j)) for i, j in zip(*np.nonzero(~per_gamble[r]))]
            violations += [pair_violation(r, int(i), int(j)) for i, j in zip(*np.nonzero(~per_pair[r]))]
        reports.append(AxiomReport(not violations, checks, tuple(violations)))
    return reports

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
quantity as a double limit of clipped finite gambles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .extreal import INF, check_no_nan, weighted_sum, xdot

#: |sum(weights) - 1| beyond this is rejected instead of renormalized.
MASS_SUM_TOL = 1e-9

#: Default tolerance for the coherence-axiom checker.
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


def _frozen_array(values, what: str) -> np.ndarray:
    arr = check_no_nan(values, what).copy()
    arr.flags.writeable = False
    return arr


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
        object.__setattr__(self, "weights", _frozen_array(arr, "probability weight"))

    @property
    def k(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        return isinstance(other, MassFunction) and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash(self.weights.tobytes())


def _mass_blocks(arr: np.ndarray, sizes) -> list[np.ndarray]:
    """The rows of a NaN-free ``(n, k)`` matrix as :class:`MassFunction`
    stores them, split into consecutive blocks of ``sizes`` rows, each block
    without its bitwise-duplicate rows (the first is kept): frozen views of
    one new matrix.

    Every row passes the checks of MassFunction, all at once: the first
    failing row raises what ``MassFunction(row)`` would.  Row sums of a
    C-ordered matrix are bit-identical to the sums of its rows.
    """
    arr = np.array(arr, dtype=float, order="C")
    negative = (arr < 0).any(axis=1)
    totals = arr.sum(axis=1)
    off = np.abs(totals - 1.0)
    bad = negative | (off > MASS_SUM_TOL)
    if bad.any():
        i = bad.argmax()
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
        # A row's key is its block number and its bits.
        keys = np.empty((len(arr), arr.shape[1] + 1), dtype=np.uint64)
        keys[:, 0] = np.repeat(np.arange(len(sizes)), sizes)
        keys[:, 1:] = arr.view(np.uint64)
        raw, width = keys.tobytes(), keys.itemsize * keys.shape[1]
        rows = [raw[i : i + width] for i in range(0, len(raw), width)]
        first = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))  # key -> first row
        if len(first) < len(rows):
            keep = np.sort(np.fromiter(first.values(), dtype=np.intp))
            arr = arr[keep]
            sizes = np.bincount(keys[keep, 0].astype(np.intp), minlength=len(sizes))
    arr.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    return [arr[start:end] for start, end in zip([0, *ends], ends)]


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
        object.__setattr__(self, "points", _mass_blocks(arr, [len(arr)])[0])

    @classmethod
    def stacked(cls, rows: np.ndarray, sizes) -> list["CredalSet"]:
        """The credal sets of consecutive blocks of ``rows``, ``sizes[i]``
        rows each: what ``cls(block)`` gives for each block, errors included
        (the first failing block raises), with the checks run once over all
        the rows.  ``rows`` is an ``(n, k)`` matrix and every size is >= 1.
        """
        try:
            blocks = _mass_blocks(check_no_nan(rows, "extreme point weight"), sizes)
        except InvalidInputError:
            for block in np.split(rows, np.cumsum(sizes)[:-1]):
                cls(block)
            raise
        out = []
        for points in blocks:
            credal = object.__new__(cls)
            object.__setattr__(credal, "points", points)
            out.append(credal)
        return out

    @classmethod
    def singleton(cls, mass: MassFunction) -> "CredalSet":
        return cls(mass.weights[None, :])

    @classmethod
    def vacuous(cls, k: int) -> "CredalSet":
        """All degenerate mass functions: the least informative model."""
        return cls(np.eye(k))

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


def upper_cut(f, c: float) -> np.ndarray:
    """Pointwise ``min(f, c)``."""
    return np.minimum(np.asarray(f, dtype=float), c)


@dataclass(frozen=True)
class CutLimitResult:
    """Trace of a cut-limit evaluation: clip levels with their finite values."""

    value: float
    iterates: tuple[tuple[float, float], ...]  # (cut magnitude, clipped value)


def cut_limit_upper(credal: CredalSet, f, schedule=None) -> float:
    """Upper expectation of ``f`` as a double limit of clipped gambles.

    Evaluates ``lim_{c -> -inf} lim_{d -> +inf} upper(min(max(f, c), d))``.
    Every clipped gamble is finite, so the inner evaluations go through
    :func:`upper_expectation` untouched.  For a fixed clip level the value of
    each extreme point is affine in the clip magnitude, and a maximum of
    finitely many monotone affine functions commutes with the limit, which is
    what makes the double limit exactly computable:

    * inner limit (d): +inf as soon as some extreme point puts positive mass
      on a +inf coordinate, otherwise already stabilized;
    * outer limit (c): discard points with positive mass on -inf coordinates;
      -inf when none survive.

    Serves as an independent check of :func:`extended_upper_expectation`;
    the two must agree exactly on every input.

    ``schedule`` is an increasing sequence of clip magnitudes used for the
    reported finite evaluations (defaults to a doubling schedule past the
    largest finite payoff).  Use :func:`cut_limit_trace` to inspect them.
    """
    return cut_limit_trace(credal, f, schedule).value


def cut_limit_trace(credal: CredalSet, f, schedule=None) -> CutLimitResult:
    arr = _check_gamble(credal, f, require_finite=False)
    finite = np.isfinite(arr)
    base = float(np.abs(arr[finite]).max()) if finite.any() else 0.0
    if schedule is None:
        start = max(1.0, base + 1.0)
        schedule = [start * (2.0**i) for i in range(4)]
    schedule = [float(c) for c in schedule]
    if any(c2 <= c1 for c1, c2 in zip(schedule, schedule[1:])) or not schedule:
        raise InvalidInputError("cut schedule must be non-empty and strictly increasing")

    iterates = tuple(
        (c, upper_expectation(credal, np.clip(arr, -c, c))) for c in schedule
    )

    pos = arr == INF
    neg = arr == -INF
    pos_mass = credal.points[:, pos].sum(axis=1)
    if (pos_mass > 0.0).any():
        return CutLimitResult(INF, iterates)
    # No point can reach +inf; drop the points dragged to -inf by the outer cut.
    survivors = credal.points[:, neg].sum(axis=1) == 0.0
    if not survivors.any():
        return CutLimitResult(-INF, iterates)
    vals = weighted_sum(credal.points[np.ix_(survivors, finite)], arr[finite])
    return CutLimitResult(float(vals.max()), iterates)


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


def check_coherence_axioms(credal: CredalSet, sample_gambles, tol: float = AXIOM_TOL) -> AxiomReport:
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

    Returns a report listing every violated check with a witness description.

    Every gamble the checks need (each sample, its negation, scalings and
    shift, its dominating partner, and each consecutive sum) is evaluated
    in one product over the extreme points; each value is the one
    :func:`upper_expectation` gives for that gamble alone.
    """
    gambles = [_check_gamble(credal, g, require_finite=True) for g in sample_gambles]
    if not gambles:
        raise InvalidInputError("need at least one sample gamble")
    n = len(gambles)
    scales = (0.0, 0.5, 1.0, 2.0)
    # A sample near the float range overflows here; the check below rejects it.
    with np.errstate(over="ignore"):
        derived = [-f for f in gambles]
        derived += [lam * f for f in gambles for lam in scales]
        derived += [f + (1.0 + 0.25 * i) for i, f in enumerate(gambles)]
        derived += [f + np.abs(gambles[(i + 1) % n]) for i, f in enumerate(gambles)]
        derived += [f + g for f, g in zip(gambles, gambles[1:])]
    rows = np.array(gambles + derived)
    if not np.isfinite(rows).all():
        raise InvalidInputError("this operation requires a finite-valued gamble")
    values = weighted_sum(credal.points[:, None, :], rows[None, :, :]).max(axis=0).tolist()
    upper, negated, scaled, shifted, partner, summed = (
        values[:n],
        values[n : 2 * n],
        values[2 * n : 6 * n],
        values[6 * n : 7 * n],
        values[7 * n : 8 * n],
        values[8 * n :],
    )
    violations: list[AxiomViolation] = []
    checks = 0

    def note(cond: bool, axiom: str, detail: str, slack: float):
        nonlocal checks
        checks += 1
        if not cond:
            violations.append(AxiomViolation(axiom, detail, slack))

    for i, f in enumerate(gambles):
        uf = upper[i]
        lf = -negated[i]
        note(uf <= f.max() + tol, "upper-bound", f"gamble #{i}", uf - f.max())
        note(f.min() - tol <= lf <= uf + tol, "bounds", f"gamble #{i}", max(f.min() - lf, lf - uf))
        for j, lam in enumerate(scales):
            ulam = scaled[4 * i + j]
            note(
                abs(ulam - lam * uf) <= tol,
                "homogeneity",
                f"gamble #{i}, scale {lam}",
                abs(ulam - lam * uf),
            )
        shift = 1.0 + 0.25 * i
        note(
            abs(shifted[i] - (uf + shift)) <= tol,
            "constant-shift",
            f"gamble #{i}, shift {shift}",
            abs(shifted[i] - (uf + shift)),
        )
        note(
            uf <= partner[i] + tol,
            "monotonicity",
            f"gamble #{i} vs dominating partner",
            uf - partner[i],
        )

    for i in range(n - 1):
        f, g = gambles[i], gambles[i + 1]
        usum = summed[i]
        bound = upper[i] + upper[i + 1]
        note(usum <= bound + tol, "sub-additivity", f"gambles #{i}, #{i + 1}", usum - bound)
        gap = abs(upper[i] - upper[i + 1])
        lip = float(np.abs(f - g).max())
        note(gap <= lip + tol, "lipschitz", f"gambles #{i}, #{i + 1}", gap - lip)

    return AxiomReport(not violations, checks, tuple(violations))

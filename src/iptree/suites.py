"""Randomized property suites.

Each suite draws random instances from a seeded generator, asserts a family
of exact or toleranced identities, and returns a :class:`SuiteReport` listing
every failure with a witness.  The suites are the package's evidence that the
recursion engine, the local models, and the brute-force oracle agree with
each other and with the calculus they implement.  The tests run them all;
the CLI ``check`` command runs only the two anchored to a model,
:func:`model_axiom_suites` (which runs :func:`process_suite` with the tree
pinned) and :func:`model_oracle_suite`.

The batteries anchored to a model (``check oracle`` and the process suite
of ``check axioms``) run in three phases: draw every trial, with the same
random calls in the same order as one trial at a time would; sweep each
group of gambles that share a tree, a depth and a conditioning situation
once, through :func:`~iptree.engine.finitary_uppers` (root value tables
through :func:`~iptree.engine.value_tables`); then check the trials in
order.  The engine's values do not depend on the batch, so the reports are
those of one sweep per gamble.  Trials go through the phases in chunks that
bound the memory a long battery holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .engine import finitary_lower, finitary_upper, finitary_uppers, value_tables
from .errors import InvalidInputError, ResourceLimitError
from .extreal import INF, xadd, xmul
from .gambles import DEFAULT_TABLE_CAP, MAX_TABLE_DEPTH, FinitaryGamble, _derived, _read_only, restrict
from .local import (
    CredalSet,
    MassFunction,
    StateSpace,
    _coherence_axioms,
    _cut_limit,
    check_coherence_axioms,
    cut_limit_upper,
    extended_upper_expectation,
    lower_expectation,
    upper_cut,
    upper_expectation,
)
from .oracle import envelope_sup, precise_expectation
from .supermartingale import canonical_supermartingale, certified_upper_bound, verify
from .tree import (
    DEFAULT_ENUM_CAP,
    Homogeneous,
    ImpreciseTree,
    Markov,
    PreciseTree,
    Situation,
    Table,
    Tree,
    all_situations,
    local_model,
)

_LABELS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    checks: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "checks": self.checks,
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def __str__(self):
        status = "pass" if self.passed else f"FAIL ({len(self.failures)})"
        out = f"{self.name}: {status} [{self.checks} checks over {self.trials} trials]"
        for msg in self.failures[:10]:
            out += f"\n  {msg}"
        return out


class _Recorder:
    def __init__(self, name: str, trials: int):
        self.name = name
        self.trials = trials
        self.checks = 0
        self.failures: list[str] = []

    def check(self, cond: bool, message: Callable[[], str]):
        """Count a check; on failure, record the text ``message()`` builds,
        which passing checks never format."""
        self.checks += 1
        if not cond:
            self.failures.append(message())

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, self.trials, self.checks, tuple(self.failures))


# --- random instance generators ----------------------------------------------

def random_space(k: int) -> StateSpace:
    return StateSpace(_LABELS[:k])


def random_mass(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k) * rng.uniform(0.4, 2.0))


def random_credal(rng: np.random.Generator, k: int, max_points: int = 3) -> CredalSet:
    m = int(rng.integers(1, max_points + 1))
    return CredalSet(np.vstack([random_mass(rng, k) for _ in range(m)]))


def random_tree(
    rng: np.random.Generator,
    k: int,
    max_points: int = 3,
    table_depth: int = 2,
    selection_budget: int | None = None,
) -> ImpreciseTree:
    """Random imprecise tree of a random assignment kind.

    With a ``selection_budget`` the per-situation extreme-point counts are
    trimmed so the product over situations of length < ``table_depth + 1``
    stays under it, which keeps enumeration oracles affordable.
    """
    space = random_space(k)
    kind = rng.integers(0, 3)
    budget = selection_budget or 10**9
    # Selections multiply across situations; a depth-d payoff only sees the
    # situations of length < d, so cap points per situation at
    # floor(budget ** (1/#those situations)) to keep enumeration affordable
    # even for homogeneous and last-state models.
    n_sits = max(1, sum(k**m for m in range(table_depth)))
    uniform_cap = max(1, min(max_points, int(budget ** (1.0 / n_sits) + 1e-9)))
    if kind == 0:
        return ImpreciseTree(space, Homogeneous(random_credal(rng, k, uniform_cap)))
    if kind == 1:
        return ImpreciseTree(
            space,
            Markov(
                random_credal(rng, k, uniform_cap),
                tuple(random_credal(rng, k, uniform_cap) for _ in range(k)),
            ),
        )
    # Tables can afford richer local sets at a few situations: spend the
    # budget greedily and fall back to singletons once it runs out.
    entries = {}
    product = 1
    for s in all_situations(k, table_depth):
        cap = max_points if product * max_points <= budget else 1
        credal = random_credal(rng, k, cap)
        product *= credal.n_points
        entries[s] = credal
    return ImpreciseTree(space, Table(table_depth, entries, CredalSet(np.eye(k)[:1])))


def random_precise_tree(rng: np.random.Generator, k: int, table_depth: int = 2) -> PreciseTree:
    space = random_space(k)
    kind = rng.integers(0, 3)
    if kind == 0:
        return PreciseTree(space, Homogeneous(MassFunction(random_mass(rng, k))))
    if kind == 1:
        return PreciseTree(
            space,
            Markov(
                MassFunction(random_mass(rng, k)),
                tuple(MassFunction(random_mass(rng, k)) for _ in range(k)),
            ),
        )
    entries = {
        s: MassFunction(random_mass(rng, k)) for s in all_situations(k, table_depth)
    }
    return PreciseTree(space, Table(table_depth, entries, MassFunction(random_mass(rng, k))))


def random_gamble(
    rng: np.random.Generator, k: int, depth: int, lo: float = -5.0, hi: float = 5.0
) -> FinitaryGamble:
    return FinitaryGamble(k, rng.uniform(lo, hi, size=(k,) * depth))


def random_situation(rng: np.random.Generator, k: int, max_len: int) -> Situation:
    n = int(rng.integers(0, max_len + 1))
    return tuple(int(x) for x in rng.integers(0, k, size=n))


def random_extended(rng: np.random.Generator, k: int, p_inf: float = 0.3) -> np.ndarray:
    vals = rng.uniform(-5, 5, size=k)
    for i in range(k):
        u = rng.uniform()
        if u < p_inf / 2:
            vals[i] = INF
        elif u < p_inf:
            vals[i] = -INF
    return vals


# --- suites -------------------------------------------------------------------

def coherence_suite(seed: int, trials: int = 50, gambles_per_trial: int = 10, k_max: int = 3) -> SuiteReport:
    """C-axioms of local upper expectations on random credal sets."""
    rng = np.random.default_rng(seed)
    rec = _Recorder("local-coherence", trials)
    for t in range(trials):
        k = int(rng.integers(2, k_max + 1))
        credal = random_credal(rng, k)
        gambles = [rng.uniform(-5, 5, size=k) for _ in range(gambles_per_trial)]
        report = check_coherence_axioms(credal, gambles)
        rec.checks += report.checks_run
        for v in report.violations:
            rec.failures.append(f"trial {t}: {v.axiom} violated ({v.detail}, slack {v.slack:.2e})")
        # Conjugacy is bitwise: lower(f) == -upper(-f) by construction.
        for i, f in enumerate(gambles):
            rec.check(
                lower_expectation(credal, f) == -upper_expectation(credal, -np.asarray(f)),
                lambda: f"trial {t}: conjugacy broken on gamble #{i}",
            )
    return rec.report()


def extended_suite(seed: int, trials: int = 50, k_max: int = 3) -> SuiteReport:
    """Extended-domain axioms and the cut-limit cross-check.

    Asserts, on random credal sets and extended payoff vectors: constants are
    preserved; sub-additivity and positive homogeneity hold under extended
    arithmetic; monotone domination is respected; upper cuts converge from
    below; and the extended evaluation agrees *exactly* with the independent
    cut-limit evaluation.
    """
    rng = np.random.default_rng(seed)
    rec = _Recorder("extended-local", trials)
    for t in range(trials):
        k = int(rng.integers(2, k_max + 1))
        credal = random_credal(rng, k)
        f = random_extended(rng, k)
        g = random_extended(rng, k)

        rec.check(
            extended_upper_expectation(credal, f) == cut_limit_upper(credal, f),
            lambda: f"trial {t}: extended value disagrees with cut limit on {f.tolist()}",
        )
        c = float(rng.uniform(-4, 4))
        rec.check(
            abs(extended_upper_expectation(credal, np.full(k, c)) - c) <= 1e-9,
            lambda: f"trial {t}: constant {c} not preserved",
        )
        fg = np.array([xadd(a, b) for a, b in zip(f, g)])
        lhs = extended_upper_expectation(credal, fg)
        rhs = xadd(extended_upper_expectation(credal, f), extended_upper_expectation(credal, g))
        rec.check(lhs <= rhs + 1e-9 if np.isfinite(rhs) else lhs <= rhs,
                  lambda: f"trial {t}: sub-additivity broken: {lhs} > {rhs}")
        lam = float(rng.uniform(0.1, 3.0))
        scaled = np.array([xmul(lam, x) for x in f])
        lhs = extended_upper_expectation(credal, scaled)
        rhs = xmul(lam, extended_upper_expectation(credal, f))
        ok = lhs == rhs if not np.isfinite(rhs) else abs(lhs - rhs) <= 1e-9
        rec.check(ok, lambda: f"trial {t}: homogeneity broken at scale {lam}: {lhs} vs {rhs}")
        bump = rng.uniform(0, 3, size=k)
        dominated = np.array([xadd(a, b) for a, b in zip(f, bump)])
        rec.check(
            extended_upper_expectation(credal, f)
            <= extended_upper_expectation(credal, dominated) + 1e-9,
            lambda: f"trial {t}: monotonicity broken",
        )
        # Upper cuts: non-decreasing, and they reach the value (or certify
        # its divergence) once the cut passes every finite payoff.
        target = extended_upper_expectation(credal, np.array([x if x != -INF else -6.0 for x in f]))
        cuts = [upper_expectation(credal, upper_cut(np.where(f == -INF, -6.0, f), c))
                for c in (6.0, 12.0, 24.0)]
        rec.check(
            all(a <= b + 1e-12 for a, b in zip(cuts, cuts[1:])),
            lambda: f"trial {t}: upper cuts not monotone",
        )
        if target == INF:
            rec.check(cuts[-1] > cuts[0], lambda: f"trial {t}: cuts fail to grow toward +inf")
        else:
            rec.check(abs(cuts[-1] - target) <= 1e-9, lambda: f"trial {t}: cuts stop short of the value")
    return rec.report()


def _drawn(k: int, table) -> FinitaryGamble:
    """The gamble of a finite payoff table of shape ``(k,) * n`` that a
    battery drew or computed from its own gambles, as
    ``FinitaryGamble(k, table)`` stores it but not checked again."""
    return _derived(FinitaryGamble, k=k, table=_read_only(np.array(table, dtype=float)))


def _one_step_gamble(k: int, n: int, h: np.ndarray) -> FinitaryGamble:
    return _drawn(k, np.broadcast_to(np.asarray(h, dtype=float), (k,) * n + (k,)))


#: The batteries draw, sweep and check their trials in chunks of about this
#: many drawn payoff cells (at least one trial each), so their memory does
#: not grow with the number of trials.
_CHUNK_CELLS = 1 << 14


def _chunks(trials: int, draw, cells):
    """``(trial number, draw())`` for every trial, in lists of about
    :data:`_CHUNK_CELLS` cells as ``cells`` counts a trial's draws.  A list
    is drawn only when it is asked for, so a battery that checks one before
    asking for the next draws everything in trial order."""
    chunk, total = [], 0
    for t in range(trials):
        chunk.append((t, draw()))
        total += cells(chunk[-1][1])
        if total >= _CHUNK_CELLS:
            yield chunk
            chunk, total = [], 0
    if chunk:
        yield chunk


def _in_groups(sweep, requests) -> list:
    """``sweep(tree, gambles, s)`` over ``(tree, gamble, s)`` requests, one
    call per group of gambles that share a tree (the object), a depth and a
    situation; each request's result, in request order.  The engine's
    values do not depend on the batch, so each is bit-identical to the
    request's own sweep."""
    groups: dict = {}  # (tree id, depth, situation) -> request positions
    for i, (tree, f, s) in enumerate(requests):
        groups.setdefault((id(tree), f.depth, s), []).append(i)
    results: list = [None] * len(requests)
    for members in groups.values():
        tree, _, s = requests[members[0]]
        for i, result in zip(members, sweep(tree, [requests[i][1] for i in members], s)):
            results[i] = result
    return results


class _ProcessTrial(NamedTuple):
    tree: Tree
    n: int
    x: Situation
    h: np.ndarray
    f: FinitaryGamble
    s: Situation
    m: int
    g: FinitaryGamble
    g2: FinitaryGamble
    lam: float
    mu: float


def _draw_process_trial(rng: np.random.Generator, max_depth: int, tree_factory) -> _ProcessTrial:
    if tree_factory is None:
        k = int(rng.integers(2, 4))
        tree = random_tree(rng, k)
    else:
        tree = tree_factory(rng)
        k = tree.k
    # Every draw of the trial, in the order of the checks.
    n = int(rng.integers(0, 3))
    x = tuple(int(v) for v in rng.integers(0, k, size=n))
    h = rng.uniform(-5, 5, size=k)
    depth = int(rng.integers(1, max_depth + 1))
    f = _drawn(k, rng.uniform(-5, 5, size=(k,) * depth))
    s = random_situation(rng, k, depth)
    m = int(rng.integers(0, depth))
    g = _drawn(k, f.table + rng.uniform(0, 3, size=(k,) * depth))
    g2 = _drawn(k, rng.uniform(-5, 5, size=(k,) * depth))
    lam = float(rng.uniform(0, 3))
    mu = float(rng.uniform(-4, 4))
    return _ProcessTrial(tree, n, x, h, f, s, m, g, g2, lam, mu)


def _process_uppers(chunk: list) -> list:
    """Per trial of ``chunk``, the upper expectations its checks compare:
    the one-step gamble given ``x``, the eight gambles of ``f``'s depth
    given ``s``, and the iterated gamble given each length-``m`` situation.

    The root value tables of ``f`` are swept per tree and depth, then every
    upper expectation of the chunk per tree, depth and situation."""
    tables = _in_groups(lambda tree, fs, _s: value_tables(tree, fs), [(tr.tree, tr.f, ()) for _, tr in chunk])
    requests, counts = [], []
    for (_, tr), table in zip(chunk, tables):
        k, f = tr.tree.k, tr.f
        # f + g2, lam * f and f + mu as f's arithmetic builds them, unchecked.
        derived = [f, restrict(f, tr.s), tr.g, -f, _drawn(k, f.table + tr.g2.table), tr.g2,
                   _drawn(k, f.table * tr.lam), _drawn(k, f.table + tr.mu)]
        iterated = _drawn(k, table[tr.m + 1])
        asked = [(_one_step_gamble(k, tr.n, tr.h), tr.x)] + [(d, tr.s) for d in derived]
        asked += [(iterated, x_m) for x_m in itertools.product(range(k), repeat=tr.m)]
        requests += [(tr.tree, gamble, at) for gamble, at in asked]
        counts.append(len(asked))
    values = iter(_in_groups(finitary_uppers, requests))
    return [(table, list(itertools.islice(values, c))) for table, c in zip(tables, counts)]


def process_suite(seed: int, trials: int = 60, max_depth: int = 3, tree_factory=None) -> SuiteReport:
    """Global-model identities on random trees, gambles, and situations.

    * one-step payoffs reduce exactly to the local upper expectation;
    * conditioning sees only the payoffs on paths through the situation;
    * the recursion satisfies the law of iterated upper expectations;
    * pointwise domination is respected;
    * conditional bounds, sub-additivity, positive homogeneity, and constant
      additivity all hold given any situation.

    ``tree_factory(rng)`` pins the tree under test; by default a fresh random
    tree is drawn per trial.  The trials are drawn first, then swept, one
    sweep per group of gambles sharing a tree, a depth and a conditioning
    situation (:func:`_in_groups`), then checked in trial order.
    """
    rng = np.random.default_rng(seed)
    rec = _Recorder("global-process", trials)
    draw = partial(_draw_process_trial, rng, max_depth, tree_factory)
    for chunk in _chunks(trials, draw, lambda tr: tr.f.table.size):
        for (t, tr), (table, values) in zip(chunk, _process_uppers(chunk)):
            f, s, x, m = tr.f, tr.s, tr.x, tr.m
            u_one, uf, u_restricted, ug, u_neg, u_sum, ug2, u_scaled, u_shifted = values[:9]

            # one-step reduction, exact
            rec.check(
                u_one == upper_expectation(local_model(tr.tree, x), tr.h),
                lambda: f"trial {t}: one-step value differs from the local model at {x}",
            )
            rec.check(
                uf == u_restricted,
                lambda: f"trial {t}: value changed by zeroing payoffs off the situation {s}",
            )

            # The root sweep of f against sweeps of the iterated gamble
            # conditioned on each length-m situation: the law ties the two paths.
            for x_m, rhs in zip(itertools.product(range(tr.tree.k), repeat=m), values[9:]):
                lhs = float(table[m][x_m])
                rec.check(
                    abs(lhs - rhs) <= 1e-9,
                    lambda: f"trial {t}: iterated law broken at {x_m}: {lhs} vs {rhs}",
                )

            rec.check(
                uf <= ug + 1e-12,
                lambda: f"trial {t}: domination not respected at {s}",
            )

            sub = f.table[s] if len(s) <= f.depth else f.table[s[: f.depth]]
            rec.check(
                float(np.min(sub)) - 1e-12 <= -u_neg <= uf <= float(np.max(sub)) + 1e-12,
                lambda: f"trial {t}: conditional bounds broken at {s}",
            )
            rec.check(
                u_sum <= uf + ug2 + 1e-9,
                lambda: f"trial {t}: conditional sub-additivity broken at {s}",
            )
            rec.check(
                abs(u_scaled - tr.lam * uf) <= 1e-9,
                lambda: f"trial {t}: conditional homogeneity broken at {s}",
            )
            rec.check(
                abs(u_shifted - (uf + tr.mu)) <= 1e-9,
                lambda: f"trial {t}: constant additivity broken at {s}",
            )
    return rec.report()


def oracle_suite(
    seed: int,
    trials: int = 50,
    max_depth: int = 4,
    ks: tuple[int, ...] = (2, 3),
    max_points: int = 3,
    budget: int = 65536,
    tol: float = 1e-9,
) -> SuiteReport:
    """Enumerated compatible-tree envelope against the recursion engine."""
    rng = np.random.default_rng(seed)
    rec = _Recorder("oracle-equivalence", trials)
    for t in range(trials):
        k = int(rng.choice(ks))
        depth = int(rng.integers(1, max_depth + 1))
        tree = random_tree(rng, k, max_points=max_points, table_depth=depth, selection_budget=budget)
        f = random_gamble(rng, k, depth)
        s = random_situation(rng, k, 1) if rng.uniform() < 0.3 else ()
        enum = envelope_sup(tree, f, s, cap=budget)
        rec_val = finitary_upper(tree, f, s)
        rec.check(
            abs(enum.value - rec_val) <= tol,
            lambda: f"trial {t}: envelope {enum.value!r} vs recursion {rec_val!r} "
            f"(k={k}, depth={depth}, s={s}, {enum.count} selections)",
        )
    return rec.report()


def precise_collapse_suite(seed: int, trials: int = 50, max_depth: int = 4, tol: float = 1e-10) -> SuiteReport:
    """On precise trees: upper, lower, and the product-rule sum all agree."""
    rng = np.random.default_rng(seed)
    rec = _Recorder("precise-collapse", trials)
    for t in range(trials):
        k = int(rng.integers(2, 4))
        p = random_precise_tree(rng, k)
        depth = int(rng.integers(1, max_depth + 1))
        f = random_gamble(rng, k, depth)
        s = random_situation(rng, k, depth)
        q = p.to_imprecise()
        upper = finitary_upper(q, f, s)
        lower = finitary_lower(q, f, s)
        direct = precise_expectation(p, f, s)
        rec.check(abs(upper - lower) <= tol, lambda: f"trial {t}: upper {upper!r} != lower {lower!r}")
        rec.check(abs(upper - direct) <= tol, lambda: f"trial {t}: recursion {upper!r} != product-rule sum {direct!r}")
    return rec.report()


def fatou_suite(seed: int, trials: int = 50, max_stable_index: int = 6, tol: float = 1e-9) -> SuiteReport:
    """Lower semicontinuity along uniformly bounded-below stabilizing sequences."""
    rng = np.random.default_rng(seed)
    rec = _Recorder("fatou", trials)
    for t in range(trials):
        k = int(rng.integers(2, 4))
        tree = random_tree(rng, k)
        depth = int(rng.integers(1, 3))
        n_stable = int(rng.integers(1, max_stable_index + 1))
        seq = [random_gamble(rng, k, depth, lo=-3.0, hi=3.0) for _ in range(n_stable + 1)]
        s = random_situation(rng, k, depth)
        # Constant from index n_stable on: the pointwise liminf is the tail
        # member, and liminf of the values is the eventual (constant) value.
        liminf_gamble = seq[n_stable]
        values = [finitary_upper(tree, g, s) for g in seq]
        lhs = finitary_upper(tree, liminf_gamble, s)
        rhs = values[n_stable]
        rec.check(lhs <= rhs + tol, lambda: f"trial {t}: Fatou broken: {lhs!r} > {rhs!r}")
        # A genuinely oscillating variant: cycle through the first few
        # members; the liminf is their pointwise minimum.
        lifted = [g.lift(depth) for g in seq]
        point_min = FinitaryGamble(k, np.minimum.reduce([g.table for g in lifted]))
        rec.check(
            finitary_upper(tree, point_min, s) <= min(values) + tol,
            lambda: f"trial {t}: Fatou broken on the oscillating variant",
        )
    return rec.report()


def certificate_suite(seed: int, trials: int = 50, tol: float = 1e-9) -> SuiteReport:
    """Canonical certificates are tight; valid perturbations stay above the value."""
    rng = np.random.default_rng(seed)
    rec = _Recorder("certificates", trials)
    for t in range(trials):
        k = int(rng.integers(2, 4))
        tree = random_tree(rng, k)
        depth = int(rng.integers(1, 4))
        f = random_gamble(rng, k, depth)
        s = random_situation(rng, k, depth - 1)
        canonical = canonical_supermartingale(tree, f)
        report = verify(canonical, tree)
        rec.check(report.passed, lambda: f"trial {t}: canonical process fails verification")
        rec.check(
            max(abs(report.min_margin), abs(report.max_margin)) <= 1e-10,
            lambda: f"trial {t}: canonical process not tight "
            f"(margins {report.min_margin:.2e}..{report.max_margin:.2e})",
        )
        value = finitary_upper(tree, f, s)
        rec.check(
            abs(canonical.value(s) - value) <= 1e-10,
            lambda: f"trial {t}: canonical value {canonical.value(s)!r} != engine {value!r}",
        )
        kind = int(rng.integers(0, 3))
        if kind == 0:
            perturbed = canonical + float(rng.uniform(0, 2))
        elif kind == 1:
            extra = random_gamble(rng, k, depth, lo=0.0, hi=2.0)
            perturbed = canonical + canonical_supermartingale(tree, extra)
        else:
            g = random_gamble(rng, k, depth)
            perturbed = canonical_supermartingale(tree, g) + canonical_supermartingale(tree, f - g)
        cert = certified_upper_bound(perturbed, f, tree, s)
        rec.check(cert.valid, lambda: f"trial {t}: perturbed certificate (kind {kind}) invalid")
        rec.check(
            cert.bound >= value - tol,
            lambda: f"trial {t}: perturbed bound {cert.bound!r} fell below the value {value!r}",
        )
    return rec.report()


def envelope_axiom_suite(seed: int, trials: int = 40, tol: float = 1e-9) -> SuiteReport:
    """Global-model identities asserted for the *enumerated envelope* itself.

    Runs the one-step, conditioning, iterated-law, and domination identities
    with the brute-force envelope as the expectation operator, bypassing the
    recursion engine entirely.
    """
    rng = np.random.default_rng(seed)
    rec = _Recorder("envelope-axioms", trials)
    for t in range(trials):
        k = 2
        depth = int(rng.integers(1, 4))
        tree = random_tree(rng, k, max_points=2, table_depth=depth, selection_budget=4096)

        def env(g: FinitaryGamble, sit: Situation) -> float:
            return envelope_sup(tree, g, sit, cap=DEFAULT_ENUM_CAP).value

        n = int(rng.integers(0, 2))
        x = tuple(int(v) for v in rng.integers(0, k, size=n))
        h = rng.uniform(-5, 5, size=k)
        rec.check(
            abs(env(_one_step_gamble(k, n, h), x) - upper_expectation(local_model(tree, x), h)) <= tol,
            lambda: f"trial {t}: envelope one-step reduction broken at {x}",
        )
        f = random_gamble(rng, k, depth)
        s = random_situation(rng, k, depth)
        rec.check(
            abs(env(f, s) - env(restrict(f, s), s)) <= tol,
            lambda: f"trial {t}: envelope conditioning broken at {s}",
        )
        m = int(rng.integers(0, depth))
        iterated_table = np.empty((k,) * (m + 1))
        for z in np.ndindex(*(k,) * (m + 1)):
            iterated_table[z] = env(f, z)
        for x_m in np.ndindex(*(k,) * m):
            lhs = env(f, tuple(x_m))
            rhs = env(FinitaryGamble(k, iterated_table), tuple(x_m))
            rec.check(
                abs(lhs - rhs) <= tol,
                lambda: f"trial {t}: envelope iterated law broken at {tuple(x_m)}",
            )
        g = f + FinitaryGamble(k, rng.uniform(0, 2, size=(k,) * depth))
        rec.check(env(f, s) <= env(g, s) + tol, lambda: f"trial {t}: envelope domination broken")
    return rec.report()


class _LocalTrial(NamedTuple):
    s: Situation
    credal: CredalSet
    gambles: np.ndarray  # (8, k)
    f: np.ndarray  # extended


def model_axiom_suites(tree: ImpreciseTree, seed: int, trials: int = 50) -> list[SuiteReport]:
    """Axiom checks anchored to one concrete model.

    Runs the local coherence axioms and the extended/cut-limit agreement on
    the tree's own local credal sets (sampled over situations), then the
    global-model identity suite with the tree pinned.  The local trials are
    drawn first, a chunk at a time (:func:`_chunks`), and the coherence
    axioms of a whole chunk are checked in one pass
    (:func:`~iptree.local._coherence_axioms`); the extended value and the
    cut limit stay one call each per trial.
    """
    rng = np.random.default_rng(seed)
    rec = _Recorder("model-local-coherence", trials)

    def draw() -> _LocalTrial:
        s = random_situation(rng, tree.k, 4)
        # Eight gambles of k draws each, as eight calls would draw them.
        return _LocalTrial(s, local_model(tree, s), rng.uniform(-5, 5, size=(8, tree.k)), random_extended(rng, tree.k))

    # A chunk's coherence pass holds each drawn cell once per extreme point.
    for chunk in _chunks(trials, draw, lambda tr: tr.gambles.size * tr.credal.n_points):
        # The gambles are drawn finite and of the right length.
        points, gambles = [tr.credal.points for _, tr in chunk], np.stack([tr.gambles for _, tr in chunk])
        for (t, tr), report in zip(chunk, _coherence_axioms(points, gambles)):
            rec.checks += report.checks_run
            for v in report.violations:
                rec.failures.append(f"trial {t} at {tr.s}: {v.axiom} violated ({v.detail})")
            rec.check(
                extended_upper_expectation(tr.credal, tr.f) == _cut_limit(tr.credal, tr.f),
                lambda: f"trial {t} at {tr.s}: extended value disagrees with cut limit",
            )
    local_rep = rec.report()
    proc_rep = process_suite(seed + 1, trials, tree_factory=lambda _rng: tree)
    return [local_rep, proc_rep]


def model_oracle_suite(
    tree: ImpreciseTree,
    seed: int,
    trials: int = 50,
    depth: int = 3,
    cap: int = DEFAULT_ENUM_CAP,
    tol: float = 1e-9,
) -> SuiteReport:
    """Envelope-vs-recursion agreement on one concrete model.

    The trials are drawn first; the recursion then sweeps each group of
    gambles that share a depth and a conditioning situation once
    (:func:`_in_groups`), and each trial's envelope is checked against its
    value in trial order.  The envelope stays the oracle's own enumeration.

    Raises :class:`~iptree.errors.ResourceLimitError` before drawing anything
    when a gamble of ``depth`` would need more than ``DEFAULT_TABLE_CAP``
    cells, or more than :data:`~iptree.gambles.MAX_TABLE_DEPTH` axes.
    """
    k = tree.k
    # Any k >= 2 passes the cap by the power of its bit length, so a huge
    # depth is rejected without computing k**depth.
    if k ** min(depth, DEFAULT_TABLE_CAP.bit_length()) > DEFAULT_TABLE_CAP:
        raise ResourceLimitError(
            f"gambles of depth {depth} would need {k}**{depth} cells, cap is {DEFAULT_TABLE_CAP}"
        )
    if depth > MAX_TABLE_DEPTH:  # a one-state model passes every cell cap
        raise ResourceLimitError(f"gambles of depth {depth} exceed the {MAX_TABLE_DEPTH} axes NumPy allows")
    rng = np.random.default_rng(seed)
    rec = _Recorder("model-oracle", trials)

    def draw():
        f = _drawn(k, rng.uniform(-5, 5, size=(k,) * int(rng.integers(1, depth + 1))))
        return f, random_situation(rng, k, 1) if rng.uniform() < 0.3 else ()

    for chunk in _chunks(trials, draw, lambda fs: fs[0].table.size):
        uppers = _in_groups(finitary_uppers, [(tree, f, s) for _, (f, s) in chunk])
        for (t, (f, s)), rec_val in zip(chunk, uppers):
            enum = envelope_sup(tree, f, s, cap=cap)
            rec.check(
                abs(enum.value - rec_val) <= tol,
                lambda: f"trial {t}: envelope {enum.value!r} vs recursion {rec_val!r} (depth={f.depth}, s={s})",
            )
    return rec.report()


def degenerate_tree(space: StateSpace, state: int | str) -> ImpreciseTree:
    """The tree that moves to one fixed state with certainty, everywhere."""
    idx = space.index(state) if isinstance(state, str) else int(state)
    if not 0 <= idx < space.size:
        raise InvalidInputError(f"state index {idx} out of range")
    point = np.zeros(space.size)
    point[idx] = 1.0
    return ImpreciseTree(space, Homogeneous(CredalSet(point[None, :])))

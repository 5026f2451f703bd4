"""Randomized property suites that check the package against itself.

The acceptance gate (``tests/test_acceptance.py``) and the unit tests run
these suites; ``iptree check`` does not, so they live with the tests.  They
share the recorder and the random instance generators of
:mod:`iptree.suites`, which holds the batteries the command line runs.
The extended-real sum and scaling (:func:`xadd`, :func:`xmul`) that the
extended-local suite checks against are here too, as only it uses them.
"""

from __future__ import annotations

import numpy as np

from iptree.engine import finitary_lower, finitary_upper
from iptree.errors import InvalidInputError
from iptree.extreal import INF
from iptree.gambles import FinitaryGamble, restrict
from iptree.local import (
    MassFunction,
    check_coherence_axioms,
    cut_limit_upper,
    extended_upper_expectation,
    lower_expectation,
    upper_expectation,
)
from iptree.oracle import envelope_sup, precise_expectation
from iptree.suites import (
    SuiteReport,
    _one_step_gamble,
    _Recorder,
    random_credal,
    random_extended,
    random_gamble,
    random_mass,
    random_situation,
    random_space,
    random_tree,
)
from iptree.supermartingale import canonical_supermartingale, certified_upper_bound, verify
from iptree.tree import DEFAULT_ENUM_CAP, Homogeneous, Markov, PreciseTree, Situation, Table, all_situations, local_model


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
        cuts = [upper_expectation(credal, np.minimum(np.where(f == -INF, -6.0, f), c))
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
        seq = [FinitaryGamble(k, rng.uniform(-3.0, 3.0, size=(k,) * depth)) for _ in range(n_stable + 1)]
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
            extra = FinitaryGamble(k, rng.uniform(0.0, 2.0, size=(k,) * depth))
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

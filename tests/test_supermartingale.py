import warnings

import numpy as np
import pytest

from iptree.engine import finitary_upper
from iptree.errors import InvalidInputError
from iptree.expr import compile_gamble, parse_gamble
from iptree.extreal import INF
from iptree.gambles import FinitaryGamble
from iptree.local import CredalSet, extended_upper_expectation
from iptree.supermartingale import (
    VERIFY_TOL,
    TailConstantProcess,
    Violation,
    canonical_supermartingale,
    certified_upper_bound,
    verify,
)
from iptree.suites import random_gamble, random_situation, random_space, random_tree
from iptree.tree import Homogeneous, ImpreciseTree, Markov, Table, all_situations, local_model
from property_suites import random_precise_tree


def expr_gamble(source, space):
    return compile_gamble(parse_gamble(source, space))


class TestTailConstantProcess:
    def test_value_uses_tail_rule(self):
        p = TailConstantProcess(2, (np.asarray(1.0), np.array([2.0, 3.0])))
        assert p.value(()) == 1.0
        assert p.value((1,)) == 3.0
        assert p.value((1, 0, 1)) == 3.0  # frozen past the depth

    def test_minus_inf_rejected(self):
        with pytest.raises(InvalidInputError):
            TailConstantProcess(2, (np.asarray(-INF),))

    def test_plus_inf_allowed(self):
        p = TailConstantProcess(2, (np.asarray(0.0), np.array([INF, 0.0])))
        assert p.value((0,)) == INF

    def test_sum_lifts_tail(self):
        a = TailConstantProcess(2, (np.asarray(1.0), np.array([2.0, 3.0])))
        b = TailConstantProcess(
            2, (np.asarray(0.5), np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        )
        c = a + b
        assert c.depth == 2
        assert c.value(()) == 1.5
        assert c.value((1, 0)) == 3.0 + 3.0

    def test_scalar_shift(self):
        a = TailConstantProcess(2, (np.asarray(1.0),))
        assert (a + 2.0).value(()) == 3.0


class TestVerify:
    def test_constant_process_passes(self, imprecise_coin):
        p = TailConstantProcess(2, (np.asarray(4.0), np.full(2, 4.0)))
        assert verify(p, imprecise_coin).passed

    def test_canonical_passes_with_zero_slack(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        report = verify(canonical_supermartingale(imprecise_coin, f), imprecise_coin)
        assert report.passed
        assert abs(report.min_margin) <= 1e-12 and abs(report.max_margin) <= 1e-12

    def test_growth_at_root_fails(self, imprecise_coin):
        p = TailConstantProcess(2, (np.asarray(0.0), np.full(2, 1.0)))
        report = verify(p, imprecise_coin)
        assert not report.passed
        assert report.violations[0].situation == ()
        assert report.violations[0].slack == pytest.approx(-1.0)

    def test_infinite_value_dominates_anything(self, imprecise_coin):
        p = TailConstantProcess(2, (np.asarray(INF), np.full(2, 1e9)))
        assert verify(p, imprecise_coin).passed


class TestCanonical:
    def test_fair_coin_one_step(self, coin_space, fair_coin):
        f = expr_gamble("ind(X[1]==H)", coin_space)
        m = canonical_supermartingale(fair_coin, f)
        assert m.value(()) == 0.5
        assert m.value((0,)) == 1.0
        assert m.value((1,)) == 0.0

    def test_imprecise_coin_two_heads(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        m = canonical_supermartingale(imprecise_coin, f)
        assert m.value(()) == pytest.approx(0.36)
        assert m.value((0,)) == pytest.approx(0.6)
        assert m.value((1,)) == 0.0
        assert np.array_equal(m.levels[2], f.table)

    def test_constant_gamble_gives_constant_process(self, imprecise_coin):
        f = FinitaryGamble.constant(2, 3.0).lift(1)
        m = canonical_supermartingale(imprecise_coin, f)
        assert m.value(()) == 3.0 and m.value((0,)) == 3.0


class TestCertificates:
    def test_canonical_certificate_is_tight(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        cert = certified_upper_bound(canonical_supermartingale(imprecise_coin, f), f, imprecise_coin)
        assert cert.valid
        assert cert.gap == pytest.approx(0.0, abs=1e-12)

    def test_shifted_certificate_bound(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        m = canonical_supermartingale(imprecise_coin, f) + 0.25
        cert = certified_upper_bound(m, f, imprecise_coin)
        assert cert.valid
        assert cert.gap == pytest.approx(0.25, abs=1e-12)

    def test_domination_failure_lists_witnesses(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        m = canonical_supermartingale(imprecise_coin, f)
        broken = TailConstantProcess(
            2, (m.levels[0], m.levels[1], m.levels[2] - np.eye(2)[0][:, None] * 2.0)
        )
        cert = certified_upper_bound(broken, f, imprecise_coin)
        assert not cert.valid
        assert (0, 0) in cert.domination_witnesses

    def test_depth_too_small_rejected(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H && X[2]==H)", coin_space)
        shallow = TailConstantProcess(2, (np.asarray(1.0), np.full(2, 1.0)))
        with pytest.raises(InvalidInputError):
            certified_upper_bound(shallow, f, imprecise_coin)

    def test_minimality_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            tree = random_tree(rng, k)
            f = random_gamble(rng, k, int(rng.integers(1, 4)))
            s = random_situation(rng, k, f.depth - 1)
            m = canonical_supermartingale(tree, f) + float(rng.uniform(0, 1))
            cert = certified_upper_bound(m, f, tree, s)
            assert cert.valid
            assert cert.bound >= finitary_upper(tree, f, s) - 1e-9

    def test_sum_of_verified_processes_verifies(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            tree = random_tree(rng, k)
            m1 = canonical_supermartingale(tree, random_gamble(rng, k, 2))
            m2 = canonical_supermartingale(tree, random_gamble(rng, k, int(rng.integers(1, 4))))
            assert verify(m1 + m2, tree).passed


# --- the level-by-level verify against the per-situation definition -------------

def reference_verify(process, tree, tol=VERIFY_TOL):
    """One situation at a time: the local model's extended upper
    expectation of the next values against the value."""
    violations = []
    checked = 0
    lo, hi = 0.0, 0.0
    for m in range(process.depth):
        nxt = process.levels[m + 1]
        for prefix in np.ndindex(*(process.k,) * m):
            leaf = local_model(tree, prefix)
            credal = leaf if isinstance(leaf, CredalSet) else CredalSet.singleton(leaf)
            required = extended_upper_expectation(credal, nxt[prefix])
            value = float(process.levels[m][prefix])
            checked += 1
            margin = value - required
            if np.isfinite(margin):
                lo = min(lo, margin)
                hi = max(hi, margin)
            if margin < -tol:
                violations.append(Violation(prefix, value, required))
    return passed_report(not violations, checked, lo, hi, violations)


def passed_report(passed, checked, lo, hi, violations):
    return (passed, checked, repr(lo), repr(hi),
            [(v.situation, repr(v.value), repr(v.required)) for v in violations])


def as_compared(report):
    return passed_report(report.passed, report.checked, report.min_margin, report.max_margin,
                         report.violations)


def reference_witnesses(process, f, s, tol=VERIFY_TOL):
    lifted = f.lift(process.depth).table
    deepest = process.levels[process.depth]
    return tuple(
        s + rel
        for rel in np.ndindex(*(process.k,) * (process.depth - len(s)))
        if deepest[s + rel] < lifted[s + rel] - tol
    )


def sparse_tree(rng, k):
    """Extreme points with exact zeros, so +inf next values can carry zero
    weight."""
    def credal():
        rows = rng.dirichlet(np.ones(k), size=int(rng.integers(1, 4)))
        rows[rng.uniform(size=rows.shape) < 0.4] = 0.0
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        return CredalSet(rows / rows.sum(axis=1, keepdims=True))

    space = random_space(k)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return ImpreciseTree(space, Homogeneous(credal()))
    if kind == 1:
        return ImpreciseTree(space, Markov(credal(), tuple(credal() for _ in range(k))))
    return ImpreciseTree(space, Table(2, {s: credal() for s in all_situations(k, 2)}, credal()))


def any_tree(rng, k):
    u = rng.uniform()
    if u < 0.35:
        return random_tree(rng, k)
    if u < 0.55:
        return random_precise_tree(rng, k)
    if u < 0.65:
        return random_precise_tree(rng, k).to_imprecise()
    return sparse_tree(rng, k)


def perturbed_process(rng, tree, depth):
    """The canonical certificate of a random gamble, shifted, with random
    entries lowered, raised, zeroed (signed) or made +inf."""
    f = random_gamble(rng, tree.k, depth)
    levels = [lvl.copy() for lvl in canonical_supermartingale(tree, f).levels]
    shift = float(rng.choice([0.0, 0.0, 0.25]))
    for m, lvl in enumerate(levels):
        flat = lvl.reshape(-1)
        flat += shift
        for i in np.flatnonzero(rng.uniform(size=flat.size) < 0.25):
            flat[i] = rng.choice([INF, 0.0, -0.0, flat[i] - 0.5, flat[i] + 0.5, flat[i] - 1e-10])
        levels[m] = flat.reshape(lvl.shape)
    return TailConstantProcess(tree.k, tuple(levels)), f


class TestLevelByLevel:
    def test_verify_matches_the_per_situation_loop(self):
        rng = np.random.default_rng(31)
        reports = set()
        for _ in range(240):
            k = int(rng.integers(2, 4))
            tree = any_tree(rng, k)
            process, _ = perturbed_process(rng, tree, int(rng.integers(0, 4)))
            got = as_compared(verify(process, tree))
            assert got == reference_verify(process, tree)
            reports.add((got[0], got[2] != "0.0", got[3] != "0.0"))
        assert len(reports) >= 5  # passes and failures, with and without margins

    def test_plus_inf_next_values_with_zero_and_positive_weight(self, coin_space):
        tree = ImpreciseTree(coin_space, Homogeneous(CredalSet(np.array([[1.0, 0.0], [0.5, 0.5]]))))
        zero_weight = TailConstantProcess(2, (np.asarray(1.0), np.array([1.0, INF])))
        report = verify(zero_weight, tree)
        assert as_compared(report) == reference_verify(zero_weight, tree)
        assert not report.passed and report.violations[0].required == INF
        precise = ImpreciseTree(coin_space, Homogeneous(CredalSet(np.array([[1.0, 0.0]]))))
        report = verify(zero_weight, precise)
        assert as_compared(report) == reference_verify(zero_weight, precise)
        assert report.passed and report.checked == 1

    def test_infinite_value_over_infinite_requirement_is_quiet(self, imprecise_coin):
        p = TailConstantProcess(2, (np.asarray(INF), np.array([INF, 0.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify(p, imprecise_coin)
        assert as_compared(report) == reference_verify(p, imprecise_coin)
        assert report.passed and (report.min_margin, report.max_margin) == (0.0, 0.0)

    def test_domination_at_the_tolerance_is_not_a_witness(self, coin_space, imprecise_coin):
        f = expr_gamble("ind(X[1]==H)", coin_space)
        deepest = f.table - VERIFY_TOL
        deepest[1] = np.nextafter(deepest[1], -INF)
        p = TailConstantProcess(2, (np.asarray(1.0), deepest))
        cert = certified_upper_bound(p, f, imprecise_coin)
        assert cert.domination_witnesses == reference_witnesses(p, f, ()) == ((1,),)

    def test_domination_witnesses_match_the_per_string_loop(self):
        rng = np.random.default_rng(32)
        found = 0
        for _ in range(200):
            k = int(rng.integers(2, 4))
            tree = any_tree(rng, k)
            depth = int(rng.integers(0, 4))
            process, f = perturbed_process(rng, tree, depth)
            s = random_situation(rng, k, depth)
            cert = certified_upper_bound(process, f, tree, s)
            assert cert.domination_witnesses == reference_witnesses(process, f, s)
            assert all(type(y) is int for w in cert.domination_witnesses for y in w)
            assert cert.valid == (cert.verification.passed and not cert.domination_witnesses)
            found += bool(cert.domination_witnesses)
        assert found >= 20

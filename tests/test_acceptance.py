"""Acceptance gate: every criterion the package must meet, at its stated
tolerance, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from iptree.engine import Policy, StopReason, adversarial_selection, finitary_upper, limit_lower, limit_upper
from iptree.gambles import hitting_event_variable, hitting_indicator, hitting_time_variable
from iptree.local import CredalSet, StateSpace
from iptree.oracle import domination_check, envelope_sup, sample_compatible
from iptree.suites import degenerate_tree, oracle_suite, process_suite
from iptree.tree import Homogeneous, ImpreciseTree, local_model
from property_suites import certificate_suite, coherence_suite, extended_suite, fatou_suite, precise_collapse_suite


def _report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {name}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def coin_space():
    return StateSpace(("H", "T"))


@pytest.fixture(scope="module")
def imprecise_coin(coin_space):
    return ImpreciseTree(
        coin_space, Homogeneous(CredalSet(np.array([[0.4, 0.6], [0.6, 0.4]])))
    )


def test_criterion_1_sure_state_regression(coin_space):
    """Degenerate tree (next state surely H): the finite-horizon values of
    'ever see T' are exactly 0 and so is the monotone limit; an extension
    satisfying only the bounded-coherence axioms would jump to 1."""
    tree = degenerate_tree(coin_space, "H")
    finite_ok = all(
        finitary_upper(tree, hitting_indicator(coin_space, ["T"], n)) == 0.0
        for n in range(1, 21)
    )
    res = limit_upper(
        tree, hitting_event_variable(coin_space, ["T"]), (), Policy(tol=1e-12, max_horizon=30)
    )
    limit_ok = (
        res.value == 0.0
        and res.converged
        and res.stop_reason is StopReason.STABILIZED
        and res.iterates[0] == (1, 0.0)
    )
    _report(1, "sure-state regression: limit stays 0", finite_ok and limit_ok)


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    report = oracle_suite(seed=202, trials=200, max_depth=4, ks=(2, 3), max_points=3, tol=1e-9)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "brute-force envelope equals backward recursion",
        report.passed and elapsed < 30.0,
        f"200 instances in {elapsed:.1f}s" + ("" if report.passed else f"; {report.failures[0]}"),
    )


def test_criterion_3_precise_collapse():
    report = precise_collapse_suite(seed=303, trials=200, tol=1e-10)
    _report(
        3,
        "precise trees: upper == lower == product-rule expectation",
        report.passed,
        f"{report.checks} checks",
    )


def test_criterion_4_axiom_suites():
    coherence = coherence_suite(seed=404, trials=50, gambles_per_trial=10)  # 500 gambles
    extended = extended_suite(seed=405, trials=200)
    process = process_suite(seed=406, trials=100)
    passed = coherence.passed and extended.passed and process.passed
    detail = f"{coherence.checks + extended.checks + process.checks} checks, zero violations"
    if not passed:
        first = (coherence.failures + extended.failures + process.failures)[0]
        detail = f"first failure: {first}"
    _report(4, "coherence, extended, and global-model axiom suites", passed, detail)


def test_criterion_5_monotone_convergence(coin_space, imprecise_coin):
    from iptree.local import MassFunction
    from iptree.tree import PreciseTree

    fair = PreciseTree(
        coin_space, Homogeneous(MassFunction(np.array([0.5, 0.5])))
    ).to_imprecise()
    tau = hitting_time_variable(coin_space, ["T"])
    hit = hitting_event_variable(coin_space, ["T"])

    fair_time = limit_upper(fair, tau, (), Policy(tol=1e-12, max_horizon=40))
    up_time = limit_upper(imprecise_coin, tau, (), Policy(tol=1e-12, max_horizon=80))
    lo_time = limit_lower(imprecise_coin, tau, (), Policy(tol=1e-12, max_horizon=80))
    up_hit = limit_upper(imprecise_coin, hit, (), Policy(tol=1e-12, max_horizon=40))
    lo_hit = limit_lower(imprecise_coin, hit, (), Policy(tol=1e-12, max_horizon=40))

    checks = {
        "fair hitting time -> 2.0 (1e-9 by horizon 40)": abs(fair_time.value - 2.0) <= 1e-9,
        "upper hitting time -> 2.5 (1e-8 by horizon 80)": abs(up_time.value - 2.5) <= 1e-8,
        "lower hitting time -> 5/3 (1e-8 by horizon 80)": abs(lo_time.value - 5.0 / 3.0) <= 1e-8,
        "upper hitting prob -> 1 (1e-6 by horizon 40)": abs(up_hit.value - 1.0) <= 1e-6,
        "lower hitting prob -> 1 (1e-6 by horizon 40)": abs(lo_hit.value - 1.0) <= 1e-6,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _report(
        5,
        "monotone limits of hitting times and probabilities",
        not failed,
        "; ".join(failed) if failed else "all five limits reached",
    )


def test_criterion_6_certificate_tightness():
    report = certificate_suite(seed=606, trials=100, tol=1e-9)
    _report(
        6,
        "canonical certificates verify (slack <= 1e-10) and stay tight",
        report.passed,
        f"{report.checks} checks" if report.passed else report.failures[0],
    )


def test_criterion_7_fatou_on_stabilizing_sequences():
    report = fatou_suite(seed=707, trials=100, max_stable_index=6, tol=1e-9)
    _report(
        7,
        "lower semicontinuity on stabilizing sequences",
        report.passed,
        f"{report.checks} checks" if report.passed else report.failures[0],
    )


def test_criterion_8_domination(coin_space, imprecise_coin):
    rng = np.random.default_rng(808)
    tau = hitting_time_variable(coin_space, ["T"])
    policy = Policy(tol=1e-13, max_horizon=90)
    samples = sample_compatible(imprecise_coin, 4, 20, rng)
    sampled = domination_check(imprecise_coin, tau, (), samples, policy)
    adv = adversarial_selection(imprecise_coin, tau.generator(80))
    closing = domination_check(imprecise_coin, tau, (), [adv], policy)
    gap = abs(closing.min_gap())
    # cross-check against the exhaustive argmax at an enumerable horizon
    env = envelope_sup(imprecise_coin, tau.generator(3).to_dense(), ())
    root_choice = local_model(adv, ()).weights
    argmax_agrees = np.allclose(root_choice, local_model(imprecise_coin, ()).points[env.argmax[()]])
    _report(
        8,
        "sampled compatible trees dominated; adversarial selection closes the gap",
        sampled.passed and closing.passed and gap < 1e-6 and argmax_agrees,
        f"20 samples ok, gap {gap:.2e}",
    )

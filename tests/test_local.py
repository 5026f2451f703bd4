import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iptree.errors import InvalidInputError
from iptree.extreal import INF
from iptree.local import (
    CredalSet,
    MassFunction,
    StateSpace,
    check_coherence_axioms,
    cut_limit_upper,
    extended_upper_expectation,
    lower_expectation,
    upper_expectation,
)
from iptree.suites import random_credal, random_extended


def credal(*rows):
    return CredalSet(np.array(rows, dtype=float))


class TestStateSpace:
    def test_labels_must_be_distinct_and_nonempty(self):
        with pytest.raises(InvalidInputError):
            StateSpace(())
        with pytest.raises(InvalidInputError):
            StateSpace(("a", "a"))

    def test_index_round_trip(self):
        space = StateSpace(("x", "y", "z"))
        assert [space.index(l) for l in space.labels] == [0, 1, 2]
        with pytest.raises(InvalidInputError):
            space.index("w")


class TestMassFunction:
    def test_normalizes_within_band(self):
        m = MassFunction(np.array([0.5, 0.5 + 4e-10]))
        assert abs(m.weights.sum() - 1.0) < 1e-15

    def test_rejects_outside_band(self):
        with pytest.raises(InvalidInputError):
            MassFunction(np.array([0.5, 0.6]))

    def test_rejects_negative_and_nan(self):
        with pytest.raises(InvalidInputError):
            MassFunction(np.array([-0.1, 1.1]))
        with pytest.raises(InvalidInputError):
            MassFunction(np.array([np.nan, 1.0]))


def outcome(build, arr):
    try:
        return build(arr)
    except InvalidInputError as exc:
        return str(exc)


def noisy_rows(rng, k, m, defects):
    """Random extreme points, each within the renormalization band, or with
    ``defects`` also outside it, rejected, negative or infinite; sometimes
    with an exact duplicate."""
    kinds = ("in_band", "out_of_band", "rejected", "negative", "infinite")
    arr = rng.dirichlet(np.ones(k), size=m)
    for i in range(m):
        kind = kinds[int(rng.integers(0, len(kinds)))] if defects else "in_band"
        if kind == "in_band":
            arr[i] *= 1.0 + rng.uniform(-9e-13, 9e-13)
        elif kind == "out_of_band":
            arr[i] *= 1.0 + rng.uniform(-5e-10, 5e-10)
        elif kind == "rejected":
            arr[i] *= 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(2e-9, 0.5)
        elif kind == "negative":
            arr[i, rng.integers(0, k)] = -rng.uniform(0.0, 1e-3)
        elif kind == "infinite":
            arr[i, rng.integers(0, k)] = rng.choice([INF, -INF])
    if m > 1 and rng.random() < 0.5:
        arr[rng.integers(0, m)] = arr[rng.integers(0, m)]  # exact duplicate
    return arr


class TestCredalSet:
    def test_exact_duplicates_dropped(self):
        c = credal([0.4, 0.6], [0.4, 0.6], [0.6, 0.4])
        assert c.n_points == 2

    def test_near_duplicates_kept(self):
        c = credal([0.4, 0.6], [0.4 + 1e-12, 0.6 - 1e-12])
        assert c.n_points == 2

    def test_matches_row_by_row_construction(self):
        # Reference: each row through MassFunction, exact duplicates dropped
        # in first-seen order, the first invalid row raising.
        def row_by_row(arr):
            rows, seen = [], set()
            for row in arr:
                p = MassFunction(row).weights
                if p.tobytes() not in seen:
                    seen.add(p.tobytes())
                    rows.append(p)
            return np.vstack(rows)

        rng = np.random.default_rng(21)
        for trial in range(400):
            k, m = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            arr = noisy_rows(rng, k, m, defects=trial % 2 == 1)
            if rng.random() < 0.3:
                arr = np.asfortranarray(arr)
            got = outcome(lambda a: CredalSet(a).points, arr)
            want = outcome(row_by_row, arr)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable and arr.flags.writeable

    def test_singleton_keeps_the_checked_weights(self):
        # A mass function's weights passed the checks a credal set makes: its
        # one-point set holds them as they are, bit for bit what checking
        # them again gives, renormalized masses included, and read-only.
        rng = np.random.default_rng(22)
        for trial in range(5000):
            k = int(rng.integers(1, 6))
            row = rng.dirichlet(np.ones(k))
            if trial % 2:
                row *= 1.0 + rng.uniform(-5e-10, 5e-10)  # renormalized on construction
            mass = MassFunction(row)
            got, want = CredalSet.singleton(mass).points, CredalSet(mass.weights[None, :]).points
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
            assert not got.flags.writeable

    def test_vacuous(self):
        v = CredalSet.vacuous(3)
        assert v.n_points == 3
        assert upper_expectation(v, [1.0, 2.0, 5.0]) == 5.0
        assert lower_expectation(v, [1.0, 2.0, 5.0]) == 1.0


class TestUpperLower:
    def test_single_point_dot_product(self):
        assert upper_expectation(credal([0.5, 0.5]), [1.0, 0.0]) == 0.5

    def test_max_over_two_points(self):
        c = credal([0.4, 0.6], [0.6, 0.4])
        assert upper_expectation(c, [1.0, 0.0]) == 0.6
        assert lower_expectation(c, [1.0, 0.0]) == 0.4

    def test_constants_forced(self):
        c = credal([0.2, 0.8], [0.7, 0.3])
        assert upper_expectation(c, [3.0, 3.0]) == pytest.approx(3.0, abs=1e-12)

    def test_vacuous_lower_is_inf_of_gamble(self):
        assert lower_expectation(credal([1.0, 0.0], [0.0, 1.0]), [1.0, 0.0]) == 0.0

    def test_singleton_self_conjugate(self):
        c = credal([0.3, 0.7])
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.uniform(-5, 5, 2)
            assert lower_expectation(c, f) == pytest.approx(upper_expectation(c, f), abs=1e-12)

    def test_conjugacy_is_bitwise(self):
        c = credal([0.4, 0.6], [0.6, 0.4])
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.uniform(-9, 9, 2)
            assert lower_expectation(c, f) == -upper_expectation(c, -f)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            upper_expectation(credal([0.5, 0.5]), [1.0, 2.0, 3.0])

    def test_requires_finite(self):
        with pytest.raises(InvalidInputError):
            upper_expectation(credal([0.5, 0.5]), [INF, 0.0])

    @given(st.integers(2, 4), st.integers(0, 10_000))
    def test_bounds_hold(self, k, seed):
        rng = np.random.default_rng(seed)
        c = random_credal(rng, k)
        f = rng.uniform(-5, 5, k)
        lo, up = lower_expectation(c, f), upper_expectation(c, f)
        assert f.min() - 1e-12 <= lo <= up <= f.max() + 1e-12


class TestExtended:
    def test_half_weight_on_plus_inf(self):
        assert extended_upper_expectation(credal([0.5, 0.5]), [INF, 1.0]) == INF

    def test_zero_weight_on_plus_inf(self):
        assert extended_upper_expectation(credal([0.0, 1.0]), [INF, 1.0]) == 1.0

    def test_minus_inf_on_both_points(self):
        c = credal([0.4, 0.6], [0.6, 0.4])
        assert extended_upper_expectation(c, [-INF, 2.0]) == -INF

    def test_agrees_with_finite_on_gambles(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            c = random_credal(rng, 3)
            f = rng.uniform(-5, 5, 3)
            assert extended_upper_expectation(c, f) == upper_expectation(c, f)

    def test_plus_inf_beats_minus_inf_within_one_point(self):
        assert extended_upper_expectation(credal([0.5, 0.5]), [INF, -INF]) == INF


class TestCutLimit:
    def test_equals_extended_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            c = random_credal(rng, k)
            f = random_extended(rng, k, p_inf=0.5)
            assert cut_limit_upper(c, f) == extended_upper_expectation(c, f)

    def test_finite_gambles_are_untouched(self):
        c = credal([0.4, 0.6], [0.6, 0.4])
        f = np.array([2.0, -1.0])
        assert cut_limit_upper(c, f) == upper_expectation(c, f)

    def test_divergent_payoff_is_plus_inf(self):
        assert cut_limit_upper(credal([0.5, 0.5]), [INF, 1.0]) == INF

    def test_all_minus_inf(self):
        assert cut_limit_upper(credal([0.5, 0.5]), [-INF, -INF]) == -INF


class TestAxiomChecker:
    @pytest.mark.parametrize(
        "gamble, message",
        [
            ([0.0, np.nan], "NaN is not a valid gamble payoff"),
            ([1.0, 2.0, 3.0], "gamble has length 3, state space has size 2"),
        ],
    )
    def test_public_checks_validate_their_gambles(self, gamble, message):
        # The model battery hands its own finite draws over unchecked; the
        # public entry points still check what they are given.
        c = credal([0.4, 0.6], [0.6, 0.4])
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            check_coherence_axioms(c, [[1.0, 0.0], gamble])
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            cut_limit_upper(c, gamble)

    def test_singleton_credal_passes(self):
        rng = np.random.default_rng(5)
        gambles = [rng.uniform(-10, 10, 3) for _ in range(100)]
        report = check_coherence_axioms(credal([0.2, 0.3, 0.5]), gambles)
        assert report.passed

    def test_subadditivity_example_by_hand(self):
        c = credal([0.4, 0.6], [0.6, 0.4])
        f, g = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert upper_expectation(c, f + g) == pytest.approx(1.0, abs=1e-12)
        assert upper_expectation(c, f) + upper_expectation(c, g) == pytest.approx(1.2)

    def test_zero_scale_convention(self):
        c = credal([0.4, 0.6], [0.6, 0.4])
        assert upper_expectation(c, 0.0 * np.array([5.0, -3.0])) == 0.0

    def test_violations_reported_with_witness(self):
        # A deliberately broken "credal set" cannot be built through the
        # public type, so check the reporting path with a fine model and an
        # impossible tolerance instead.
        c = credal([0.4, 0.6], [0.6, 0.4])
        report = check_coherence_axioms(c, [np.array([1.0, 0.0])], tol=-1.0)
        assert not report.passed
        assert report.violations

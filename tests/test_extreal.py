import numpy as np
import pytest

from iptree.errors import InvalidInputError
from iptree.extreal import INF, check_no_nan, fmt, xdot
from property_suites import xadd, xmul


def test_plus_inf_dominates_minus_inf():
    assert xadd(INF, -INF) == INF
    assert xadd(-INF, INF) == INF
    assert xadd(INF, 5.0) == INF
    assert xadd(-INF, 5.0) == -INF


def test_zero_times_infinity_is_zero():
    assert xmul(0.0, INF) == 0.0
    assert xmul(0.0, -INF) == 0.0
    assert xmul(0.5, INF) == INF
    assert xmul(2.0, -INF) == -INF


def test_negative_scale_rejected():
    with pytest.raises(InvalidInputError):
        xmul(-1.0, 3.0)


def test_xdot_conventions():
    # zero weight kills an infinity; positive weight on +inf wins
    assert xdot(np.array([0.0, 1.0]), np.array([INF, 1.0])) == 1.0
    assert xdot(np.array([0.5, 0.5]), np.array([INF, 1.0])) == INF
    assert xdot(np.array([0.5, 0.5]), np.array([INF, -INF])) == INF
    assert xdot(np.array([0.5, 0.5]), np.array([-INF, 2.0])) == -INF
    assert xdot(np.array([0.25, 0.75]), np.array([4.0, 8.0])) == 7.0


def test_nan_rejected_everywhere():
    with pytest.raises(InvalidInputError):
        check_no_nan([1.0, float("nan")])


def test_fmt_maps_infinities_to_strings():
    assert fmt(INF) == "+inf"
    assert fmt(-INF) == "-inf"
    assert fmt(1.5) == 1.5

import numpy as np
import pytest

from iptree import modelio
from iptree.local import CredalSet, MassFunction, StateSpace
from iptree.tree import Homogeneous, ImpreciseTree, PreciseTree


@pytest.fixture(autouse=True)
def no_kept_string_maps():
    """Every test starts with no situation-string map kept, so that test
    order cannot hide a bug that only a cold cache shows."""
    modelio._POSITIONS.clear()


@pytest.fixture
def coin_space():
    return StateSpace(("H", "T"))


@pytest.fixture
def imprecise_coin(coin_space):
    """Heads probability anywhere in [0.4, 0.6]."""
    return ImpreciseTree(
        coin_space, Homogeneous(CredalSet(np.array([[0.4, 0.6], [0.6, 0.4]])))
    )


@pytest.fixture
def fair_coin(coin_space):
    return PreciseTree(coin_space, Homogeneous(MassFunction(np.array([0.5, 0.5]))))


@pytest.fixture
def biased_coin(coin_space):
    return PreciseTree(coin_space, Homogeneous(MassFunction(np.array([0.6, 0.4]))))

import random

import pytest
from hypothesis import settings

from weylhh.weyl import SymplecticData

# Property tests draw the same examples on every run: a tier-1 result never
# depends on which inputs a random draw happened to find.
settings.register_profile("weylhh", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("weylhh")


@pytest.fixture
def sym1():
    return SymplecticData.canonical(1)


@pytest.fixture
def sym2():
    return SymplecticData.canonical(2)


@pytest.fixture
def rng():
    return random.Random(20240817)

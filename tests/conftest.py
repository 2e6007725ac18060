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


@pytest.fixture
def d8():
    """The dihedral group of order 8 in Sp(4, Q), from kappa = diag(-1, -1, 1, 1)
    and the swap S of the pairs (q1, p1) and (q2, p2).  It is not abelian:
    S kappa S = kappabar.  Each conjugacy class is listed from its first
    member on, so the classes come out with sizes 1, 2, 2, 2, 1."""
    from weylhh.groups import FiniteGroup, GroupElement
    from weylhh.scalars import ONE, ZERO

    kappa = GroupElement.diagonal([-ONE, -ONE, ONE, ONE], "kappa")
    swap = GroupElement.from_rows(
        [[ONE if j == (i + 2) % 4 else ZERO for j in range(4)] for i in range(4)], "S")
    kappabar = swap * kappa * swap
    minus = kappa * kappabar
    labels = {"1": GroupElement.identity(4), "kappa": kappa, "kappabar": kappabar,
              "S": swap, "-S": minus * swap, "S kappa": swap * kappa,
              "kappa S": kappa * swap, "-1": minus}
    return FiniteGroup(list(labels.values())), labels

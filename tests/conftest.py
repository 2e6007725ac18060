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


def close_group(*generators):
    """The finite group the generators' matrices generate, closed under
    linalg.mat_mul from the identity on; elements come in the order they are
    first reached, and each generator is kept as given, with its label."""
    from weylhh import linalg
    from weylhh.groups import FiniteGroup, GroupElement

    elements = [GroupElement.identity(generators[0].size)]
    seen = {elements[0].matrix}
    for a in elements:
        for g in generators:
            ag = linalg.mat_mul(a.matrix, g.matrix)
            if ag not in seen:
                seen.add(ag)
                elements.append(g if ag == g.matrix else GroupElement(ag))
    return FiniteGroup(elements)


@pytest.fixture
def d8():
    """The dihedral group of order 8 in Sp(4, Q), from kappa = diag(-1, -1, 1, 1)
    and the swap S of the pairs (q1, p1) and (q2, p2).  It is not abelian:
    S kappa S = kappabar.  Each conjugacy class is listed from its first
    member on, so the classes come out with sizes 1, 2, 2, 2, 1."""
    from weylhh.groups import GroupElement
    from weylhh.scalars import ONE, ZERO

    kappa = GroupElement.diagonal([-ONE, -ONE, ONE, ONE], "kappa")
    swap = GroupElement.from_rows(
        [[ONE if j == (i + 2) % 4 else ZERO for j in range(4)] for i in range(4)], "S")
    group = close_group(kappa, swap)
    mul = group.product
    kappabar = mul(mul(swap, kappa), swap)
    minus = mul(kappa, kappabar)
    labels = {"1": group.identity, "kappa": kappa, "kappabar": kappabar,
              "S": swap, "-S": mul(minus, swap), "S kappa": mul(swap, kappa),
              "kappa S": mul(kappa, swap), "-1": minus}
    assert len(set(labels.values())) == len(group.elements) == 8
    return group, labels


@pytest.fixture(scope="session")
def kleinian():
    """Finite subgroups of Sp(2) = SL(2) at n = 1 with elements g != g^-1:
    the cyclic groups of orders 3, 4 and 6 over the integers, and the
    quaternion group Q8, the one non-abelian group here."""
    from weylhh.groups import GroupElement
    from weylhh.scalars import I, ONE, ZERO

    def gen(rows):
        return GroupElement.from_rows(rows)

    return {
        "Z3": close_group(gen([[ZERO, -ONE], [ONE, -ONE]])),
        "Z4": close_group(gen([[ZERO, ONE], [-ONE, ZERO]])),
        "Z6": close_group(gen([[ONE, -ONE], [ONE, ZERO]])),
        "Q8": close_group(GroupElement.diagonal([I, -I]),
                          gen([[ZERO, ONE], [-ONE, ZERO]])),
    }

import itertools
import random
import time
from fractions import Fraction

import pytest

from weylhh import linalg
from weylhh.descent import descent_cocycle
from weylhh.errors import AmbientMismatchError
from weylhh.ffs import ffs_cocycle
from weylhh.forms import FormElement, sector_volume
from weylhh.groups import (ClassFunction, FiniteGroup, GroupElement,
                           SmashElement, afls_dims, higher_spin_preset,
                           make_zeta_g, theta_cocycle, theta_element,
                           twisted_cocycle, twisted_cycle)
from weylhh.hochschild import SampleSpec, pair_chain, verify_cocycle
from weylhh.poly import Poly, Y
from weylhh.sampling import random_smash, random_weyl
from weylhh.scalars import I, ONE, ZERO, Scalar
from weylhh.weyl import SymplecticData, WeylElement, star

from oracles import (commutator_terms, conjugate_by, conjugate_cochain,
                     kfold_sector_volume, leibniz_det, theta_equation_defects)


def frac(a, b):
    return Scalar.of(Fraction(a, b))


@pytest.fixture(scope="module")
def preset():
    return higher_spin_preset()


def test_group_element_checks(preset, sym2):
    group, ambient, labels = preset
    for g in group:
        g.check_symplectic(ambient)
    assert labels["kappa"].moved_rank() == 2
    assert labels["kappakappabar"].moved_rank() == 4
    assert labels["1"].moved_rank() == 0
    # diag(-1, 1) moves one direction, which no symplectic map does.
    with pytest.raises(ValueError, match="rank[(]1 - g[)] is odd; g cannot be symplectic"):
        GroupElement.diagonal([-ONE, ONE]).twist_pairs()


def test_group_elements_equal_by_matrix_alone():
    # A label names an element and takes no part in equality: elements that
    # differ only in label are equal, hash equal and are one dict key.
    a = GroupElement.diagonal([-ONE, -ONE], "kappa")
    b = GroupElement.diagonal([-ONE, -ONE], "minus one")
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1 and {a: "entry"}[b] == "entry"
    assert a != GroupElement.identity(2)


@pytest.mark.parametrize("build", [
    lambda sym, g: make_zeta_g(sym, g),
    lambda sym, g: theta_element(sym, g, g.fixed_projector(), 4),
    lambda sym, g: twisted_cycle(sym, g, 4),
], ids=["make_zeta_g", "theta_element", "twisted_cycle"])
@pytest.mark.parametrize("entries, message", [
    # rank(1 - g) = 2, an even moved rank, but g scales omega by 4.
    ([2, 2], "does not preserve the symplectic form"),
    ([-1, -1, -1, -1], "matrix is 4 x 4, not 2n x 2n, n = 1"),
], ids=["scaling", "size"])
def test_non_symplectic_twist_is_refused(sym1, build, entries, message):
    g = GroupElement.diagonal([Scalar.of(e) for e in entries])
    with pytest.raises(ValueError, match=message):
        build(sym1, g)


def test_act_identity_and_generators(preset, rng):
    group, ambient, labels = preset
    e, kappa = labels["1"], labels["kappa"]
    for _ in range(5):
        a = random_weyl(rng, ambient, 3)
        assert group.act(e, a) == a
    for j, sign in ((1, -1), (2, -1), (3, 1), (4, 1)):
        y = WeylElement.generator(j, ambient)
        assert group.act(kappa, y) == y.scale(Scalar.of(sign))


def test_act_is_automorphism(preset, rng):
    group, ambient, labels = preset
    for _ in range(25):
        g = rng.choice(group.elements)
        a = random_weyl(rng, ambient, 3)
        b = random_weyl(rng, ambient, 3)
        assert group.act(g, star(a, b)) == star(group.act(g, a), group.act(g, b))


def test_smash_relations(preset):
    group, ambient, labels = preset
    kappa = labels["kappa"]
    k = SmashElement.group_unit(kappa, group, ambient)
    assert k * k == SmashElement.group_unit(labels["1"], group, ambient)
    y1 = SmashElement.embed(WeylElement.generator(1, ambient), group)
    # kappa y = -y kappa on the flipped sector
    assert k * y1 == -(y1 * k)
    y3 = SmashElement.embed(WeylElement.generator(3, ambient), group)
    assert k * y3 == y3 * k


def test_smash_sum_over_two_groups_is_refused(preset):
    # An equal group built again is another object: its elements do not add.
    group, ambient, _ = preset
    again = FiniteGroup(group.elements)
    one = WeylElement.one(ambient)
    with pytest.raises(AmbientMismatchError, match="different data"):
        SmashElement.embed(one, group) + SmashElement.embed(one, again)


def test_smash_lowest_term(preset):
    # The lowest-degree term across the group terms, kept on its element.
    group, ambient, labels = preset
    y1, y2 = WeylElement.generator(1, ambient), WeylElement.generator(2, ambient)
    kappa = SmashElement.group_unit(labels["kappa"], group, ambient)
    y2_kappa = SmashElement.embed(y2, group) * kappa
    x = SmashElement.embed(star(y1, y1) + star(y2, y2), group) + y2_kappa
    assert x.lowest_term() == (1, y2_kappa)
    assert (x - y2_kappa).lowest_term() == (2, SmashElement.embed(star(y1, y1), group))


def test_smash_associativity(preset, rng):
    group, ambient, labels = preset
    for _ in range(25):
        x = random_smash(rng, group, ambient, 2)
        y = random_smash(rng, group, ambient, 2)
        z = random_smash(rng, group, ambient, 2)
        assert (x * y) * z == x * (y * z)


def test_afls_dims_trivial_group(sym1):
    trivial = FiniteGroup([GroupElement.identity(2)])
    dims = {p: len(basis) for p, basis in afls_dims(trivial).items()}
    assert dims == {0: 1}


def test_afls_dims_order_two(sym1):
    minus = GroupElement.diagonal([Scalar.of(-1), Scalar.of(-1)], "-1")
    group = FiniteGroup([GroupElement.identity(2), minus])
    dims = {p: len(basis) for p, basis in afls_dims(group).items()}
    assert dims == {0: 1, 2: 1}


def test_afls_dims_higher_spin(preset):
    group, _, _ = preset
    dims = afls_dims(group)
    assert {p: len(basis) for p, basis in dims.items()} == {0: 1, 2: 2, 4: 1}
    # each basis function is the indicator of one conjugacy class in the
    # stratum, i.e. one independent cocycle per class
    for p, basis in dims.items():
        for cf in basis:
            support = [g for g in group if not cf(g).is_zero()]
            assert all(g.moved_rank() == p for g in support)


def test_class_function_validation(preset):
    group, _, labels = preset
    with_values = ClassFunction.indicator(group, [labels["kappa"]])
    assert with_values(labels["kappa"]) == ONE
    assert with_values(labels["kappabar"]) == Scalar.of(0)


def test_dihedral_group_table(d8, sym2):
    # The first non-abelian group here: h g h^-1 and h g h differ, and the
    # table must agree with the matrices it replaces.
    group, labels = d8
    for g in group:
        g.check_symplectic(sym2)
    assert len(group.elements) == 8
    assert [len(cls) for cls in group.conjugacy_classes()] == [1, 2, 2, 2, 1]
    for a in group:
        inv = linalg.mat_inverse(a.matrix)
        assert group.inverse(a).matrix == inv
        for b in group:
            ab = linalg.mat_mul(a.matrix, b.matrix)
            assert group.product(a, b).matrix == ab
            assert group.conjugate(a, b).matrix == linalg.mat_mul(ab, inv)
    assert group.conjugate(labels["S"], labels["kappa"]) is labels["kappabar"]
    dims = afls_dims(group)
    assert {p: len(basis) for p, basis in dims.items()} == {0: 1, 2: 2, 4: 2}
    with pytest.raises(ValueError, match="not constant on conjugacy classes"):
        ClassFunction(group, {labels["kappa"]: ONE})
    outside = GroupElement.diagonal([ONE, ONE, -ONE, ONE])
    with pytest.raises(ValueError, match="does not belong"):
        group.product(outside, labels["S"])
    with pytest.raises(ValueError, match="does not belong"):
        group.inverse(outside)


def test_theta_element_reflection_sectors(preset, sym1):
    # lambda = -1 sectors have vanishing exponent: the element is exactly 1
    minus = GroupElement.diagonal([Scalar.of(-1), Scalar.of(-1)], "-1")
    theta = theta_element(sym1, minus, minus.fixed_projector(), truncation=6)
    assert theta == WeylElement.one(sym1)


def integer_element(rows, label=""):
    return GroupElement.from_rows([[Scalar.of(x) for x in row] for row in rows], label)


# Z3 (+) 1 at n = 2, and its conjugate by an integer symplectic S that mixes
# the two pairs, so that neither sector is spanned by generators.
Z3_PLUS_ONE = integer_element([[0, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
MIXER = integer_element([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
THETA_CASES = {
    "diag(i, -i)": GroupElement.diagonal([I, -I]),
    "diag(i, -i, 1, 1)": GroupElement.diagonal([I, -I, ONE, ONE]),
    "diag(1, 1, i, -i)": GroupElement.diagonal([ONE, ONE, I, -I]),
    "Z3 + 1": Z3_PLUS_ONE,
    "S^-1 (Z3 + 1) S": GroupElement(linalg.mat_mul(
        linalg.mat_inverse(MIXER.matrix),
        linalg.mat_mul(Z3_PLUS_ONE.matrix, MIXER.matrix))),
}


@pytest.mark.parametrize("case", ["Z3", "Z4", "Z6", "Q8", *THETA_CASES])
def test_theta_equations(kleinian, case):
    # For each generator y_j, Theta * v + (v o g) * Theta = 0 on its moved
    # part v and Theta * w = w * Theta on its fixed part w: on every
    # nontrivial class of each Kleinian group, none of them diagonal but
    # diag(i, -i) in Q8, and on the cases above.  The second pair alone
    # moves in diag(1, 1, i, -i), so a rule that misreads the moved pair's
    # index shows there.  The parts come from Q = g.fixed_projector(), a
    # projector that 1 - g kills on either side.
    if case in kleinian:
        elements = [cls[0] for cls in kleinian[case].conjugacy_classes()
                    if not cls[0].is_identity()]
    else:
        elements = [THETA_CASES[case]]
    for g in elements:
        ambient = SymplecticData.canonical(g.size // 2)
        g.check_symplectic(ambient)
        q = g.fixed_projector()
        one_minus = linalg.mat_sub(linalg.identity(g.size), g.matrix)
        zero = ((ZERO,) * g.size,) * g.size
        assert linalg.mat_mul(q, q) == q
        assert linalg.mat_mul(q, one_minus) == linalg.mat_mul(one_minus, q) == zero
        assert all(d.is_zero() for d in theta_equation_defects(ambient, g, truncation=10))


def test_twisted_pairings(preset, sym1):
    minus = GroupElement.diagonal([Scalar.of(-1), Scalar.of(-1)], "-1")
    tau = twisted_cocycle(sym1, minus)
    assert pair_chain(tau, twisted_cycle(sym1, minus, 8)) == frac(1, 2)

    group, ambient, labels = preset
    tau_k = twisted_cocycle(ambient, labels["kappa"])
    assert pair_chain(tau_k, twisted_cycle(ambient, labels["kappa"], 8)) == frac(1, 2)


def test_twisted_cocycle_condition(preset):
    group, ambient, labels = preset
    tau_k = twisted_cocycle(ambient, labels["kappa"])
    report = verify_cocycle(tau_k, SampleSpec(seed=23, count=8, max_degree=2))
    assert report.ok


def test_equivariance(preset, rng):
    # tau_g transformed by h equals tau_{h g h^-1}; abelian preset makes the
    # right side tau_g itself, so this is exact G-invariance of each basis
    # cocycle.
    group, ambient, labels = preset
    kappa = labels["kappa"]
    tau_k = descent_cocycle(make_zeta_g(ambient, kappa))
    for h in group:
        conj = conjugate_cochain(group, tau_k, h)
        tau_target = descent_cocycle(
            make_zeta_g(ambient, group.conjugate(h, kappa)))
        for _ in range(3):
            a = random_weyl(rng, ambient, 2)
            b = random_weyl(rng, ambient, 2)
            lhs = conj(a, b)
            rhs = tau_target(a, b)
            t = min(lhs.truncation, rhs.truncation)
            assert lhs.restrict(t) == rhs.restrict(t)


def test_theta_zero_is_unit(preset):
    group, ambient, labels = preset
    gamma = ClassFunction.indicator(group, [labels["1"]])
    theta0 = theta_cocycle(group, ambient, gamma, 0)
    assert theta0() == SmashElement.group_unit(labels["1"], group, ambient)


def test_theta2_factorization(preset, rng):
    # on factorized arguments a(y')b(y'') the degree-two cocycle collapses to
    # (sector cocycle) x (star product) x kappa, with the sign fixed by the
    # wedge-power normalization of the twisted prefactor.
    group, ambient, labels = preset
    kappa = labels["kappa"]
    gamma = ClassFunction.indicator(group, [kappa])
    theta2 = theta_cocycle(group, ambient, gamma, 2)
    sym1 = SymplecticData.canonical(1)
    tau2 = ffs_cocycle(sym1)

    def unbarred(w):
        return WeylElement(w.poly, ambient)

    def barred(w):
        out = Poly.zero()
        for m, c in w.poly.triple_terms().items():
            out = out + Poly.monomial([(Y, i + 2, e) for _, i, e in m], c)
        return WeylElement(out, ambient)

    for _ in range(10):
        a1, a2 = (random_weyl(rng, sym1, 2) for _ in range(2))
        b1, b2 = (random_weyl(rng, sym1, 2) for _ in range(2))
        x1 = SmashElement.embed(star(unbarred(a1), barred(b1)), group)
        x2 = SmashElement.embed(star(unbarred(a2), barred(b2)), group)
        got = theta2(x1, x2)
        coeff = unbarred(WeylElement(tau2(a1, a2).poly, sym1))
        want_weyl = star(coeff, star(barred(b1), barred(b2))).scale(Scalar.of(-1))
        assert set(got.terms) <= {kappa}
        lhs = got.terms.get(kappa, WeylElement(Poly(), ambient))
        t = lhs.truncation
        assert lhs == want_weyl.restrict(t)


def test_theta_vanishes_on_group_algebra(preset, rng):
    group, ambient, labels = preset
    gamma = ClassFunction.indicator(group, [labels["kappa"]])
    theta2 = theta_cocycle(group, ambient, gamma, 2)
    for g in group:
        unit = SmashElement.group_unit(g, group, ambient)
        probe = random_smash(rng, group, ambient, 2)
        assert theta2(unit, probe).is_zero()
        assert theta2(probe, unit).is_zero()


def test_theta2_smash_cocycle(preset):
    group, ambient, labels = preset
    gamma = ClassFunction.indicator(group, [labels["kappa"]])
    theta2 = theta_cocycle(group, ambient, gamma, 2)
    report = verify_cocycle(theta2, SampleSpec(seed=41, count=6, max_degree=1,
                                               group=group))
    assert report.ok


def test_theta_g_invariance(preset, rng):
    group, ambient, labels = preset
    gamma = ClassFunction.indicator(group, [labels["kappa"]])
    theta2 = theta_cocycle(group, ambient, gamma, 2)
    for h in group:
        for _ in range(2):
            x1 = random_smash(rng, group, ambient, 1)
            x2 = random_smash(rng, group, ambient, 1)
            hinv = group.inverse(h)
            lhs = conjugate_by(theta2(conjugate_by(x1, hinv), conjugate_by(x2, hinv)), h)
            rhs = theta2(x1, x2)
            assert lhs == rhs


def test_smash_act_is_automorphism(preset, rng):
    group, ambient, labels = preset
    for h in group:
        for _ in range(5):
            x = random_smash(rng, group, ambient, 2)
            y = random_smash(rng, group, ambient, 2)
            assert conjugate_by(x * y, h) == conjugate_by(x, h) * conjugate_by(y, h)


def test_group_action_inverts_no_matrix(preset, rng, monkeypatch):
    # The group's table holds every inverse: a smash product and a theta
    # evaluation act by its elements without a Gauss-Jordan inversion.
    group, ambient, labels = preset
    gamma = ClassFunction.indicator(group, [labels["kappa"]])
    theta2 = theta_cocycle(group, ambient, gamma, 2)
    x, y = (random_smash(rng, group, ambient, 1) for _ in range(2))
    calls = []
    real = linalg.mat_inverse

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "mat_inverse", counted)
    assert not (x * y).is_zero()
    theta2(x, y)
    assert calls == []


def test_unlabelled_elements_print_their_rows(kleinian):
    # A failing smash report names its element: the elements close_group
    # makes carry no label, so each prints its matrix rows, and every
    # element of Z3 and of Q8 prints differently.
    assert [str(g) for g in kleinian["Z3"]] == ["1", "[0 -1; 1 -1]", "[-1 1; -1 0]"]
    assert len({str(g) for g in kleinian["Q8"]}) == 8


@pytest.mark.parametrize("name", ["Z3", "Z4", "Z6", "Q8"])
def test_kleinian_theta_cocycles(kleinian, sym1, name):
    # Elements with g != g^-1 tell tau_g from tau_{g^-1}, and Q8 also tells
    # the group part g h_1 ... h_p from h_1 ... h_p g.
    group = kleinian[name]
    spec = SampleSpec(seed=2, count=3, max_degree=1, group=group)
    for g in group:
        g.check_symplectic(sym1)
    for cls in group.conjugacy_classes():
        if cls[0].moved_rank() == 2:
            gamma = ClassFunction.indicator(group, cls)
            assert verify_cocycle(theta_cocycle(group, sym1, gamma, 2), spec).ok


@pytest.mark.parametrize("name, pair", [("kappa", (1, 2)), ("kappabar", (3, 4))])
def test_vasiliev_deformed_oscillators(preset, name, pair):
    # -g on g's own spinor sector and 0 on the other five pairs: to first
    # order [y_1, y_2] = 2i(1 + (i nu / 2) kappa), kappa the Klein operator.
    group, ambient, labels = preset
    g = labels[name]
    for i, j in itertools.combinations(range(1, 5), 2):
        want = {g: Poly.const(-ONE)} if (i, j) == pair else {}
        assert commutator_terms(group, ambient, [g], i, j) == want


@pytest.mark.parametrize("name, moved", [("Z2", 1), ("Z3", 2), ("Z4", 3), ("Z6", 5),
                                         ("Q8", 7)])
def test_kleinian_deformed_oscillators(kleinian, sym1, name, moved):
    # Exactly -det((1 - g)/2) g for each g of a class of moved rank 2, one
    # constant term each, although theta is a series there; the determinant
    # is the oracle's, not read off the package's prefactor.  In Q8 the
    # classes {i, -i}, {j, -j} and {k, -k} give -1/2 on each member, and
    # {-1} gives -1.
    group = (FiniteGroup([GroupElement.identity(2), GroupElement.diagonal([-ONE, -ONE])])
             if name == "Z2" else kleinian[name])
    classes = [cls for cls in group.conjugacy_classes() if cls[0].moved_rank() == 2]
    assert sum(map(len, classes)) == moved
    for cls in classes:
        want = {}
        for g in cls:
            one_minus = linalg.mat_sub(linalg.identity(2), g.matrix)
            det = leibniz_det([[c * frac(1, 2) for c in row] for row in one_minus])
            if name == "Q8":
                assert det == (ONE if len(cls) == 1 else frac(1, 2))
            want[g] = Poly.const(-det)
        assert commutator_terms(group, sym1, cls, 1, 2) == want


@pytest.mark.parametrize("name, order, classes",
                         [("Z3", 3, 3), ("Z4", 4, 4), ("Z6", 6, 6), ("Q8", 8, 5)])
def test_kleinian_afls_dims(kleinian, name, order, classes):
    # One degree-2 class per nontrivial conjugacy class (Etingof-Ginzburg).
    group = kleinian[name]
    assert (len(group.elements), len(group.conjugacy_classes())) == (order, classes)
    dims = {p: len(basis) for p, basis in afls_dims(group).items()}
    assert dims == {0: 1, 2: classes - 1}


def test_kleinian_equivariance_q8(kleinian, sym1, rng):
    # Conjugation in Q8 moves g to h g h^-1 != g, and tau_g transformed by h
    # is tau_{h g h^-1}.
    group = kleinian["Q8"]
    moved = 0
    for g in group:
        if g.is_identity():
            continue
        tau_g = descent_cocycle(make_zeta_g(sym1, g))
        for h in group:
            target = group.conjugate(h, g)
            moved += target is not g
            conj = conjugate_cochain(group, tau_g, h)
            tau_target = descent_cocycle(make_zeta_g(sym1, target))
            for _ in range(2):
                a, b = (random_weyl(rng, sym1, 1) for _ in range(2))
                lhs = conj(a, b)
                rhs = tau_target(a, b)
                t = min(lhs.truncation, rhs.truncation)
                assert lhs.restrict(t) == rhs.restrict(t)
    assert moved > 0


def test_group_construction_refusals():
    # A repeated matrix, and a set missing a product: {1, i} lacks i^2 = -1.
    one = GroupElement.identity(2)
    with pytest.raises(ValueError, match="duplicate group elements"):
        FiniteGroup([one, GroupElement.identity(2)])
    quarter = GroupElement.diagonal([Scalar.of(0, 1), Scalar.of(0, -1)], "i")
    with pytest.raises(ValueError, match="not closed under products"):
        FiniteGroup([one, quarter])
    # The swap sends omega to -omega: a group of it would have a degree-1
    # class ({0: 1, 1: 1}) that no symplectic group has.  A 3 x 3 matrix
    # has no canonical omega at all.
    swap = integer_element([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="does not preserve the symplectic form"):
        FiniteGroup([one, swap])
    with pytest.raises(ValueError, match="matrix is 3 x 3, not 2n x 2n"):
        FiniteGroup([GroupElement.identity(3)])


def test_non_semisimple_refusals(sym2):
    # The double shear is symplectic, but ker(1 - g) meets im(1 - g): it has
    # no fixed-sector projector, so no Theta and no cycle, and its twisted
    # generator's prefactor vanishes.
    shear = integer_element([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    shear.check_symplectic(sym2)
    message = "g is not semisimple: ker[(]1 - g[)] meets im[(]1 - g[)]"
    with pytest.raises(ValueError, match=message):
        shear.fixed_projector()
    with pytest.raises(ValueError, match=message):
        twisted_cycle(sym2, shear, truncation=4)
    with pytest.raises(ValueError, match="degenerate twisted prefactor"):
        make_zeta_g(sym2, shear)


def one_forms(rows):
    """Row i as the one-form {(l + 1,): rows[i][l]} over its nonzero entries."""
    return [{(l + 1,): c for l, c in enumerate(row) if not c.is_zero()} for row in rows]


def test_sector_volume_matches_kfold_power(preset, kleinian, d8):
    # The degree-2k part of prod_l (1 + tau_l) against the k-fold wedge
    # power over k! that it replaced: on the rows of u = (1 - g)/2 (the
    # generator's) and of 1 - Q (the dual cycle's) for every element of the
    # preset, the Kleinian groups and D8 and for diagonal and mixing cases,
    # and on random rows at n <= 3 for every k <= n.
    half = frac(1, 2)
    diagonals = [GroupElement.diagonal([Scalar.of(e) for e in entries]) for entries in
                 ([-1, -1], [2, Fraction(1, 2)], [3, Fraction(1, 3)], [-1, -1, -1, -1, 1, 1])]
    elements = [*preset[0], *d8[0], *THETA_CASES.values(), *diagonals,
                *(g for group in kleinian.values() for g in group)]
    for g in elements:
        omega = SymplecticData.canonical(g.size // 2).omega
        ident = linalg.identity(g.size)
        u = [[c * half for c in row] for row in linalg.mat_sub(ident, g.matrix)]
        moved = linalg.mat_sub(ident, g.fixed_projector())
        k = g.twist_pairs()
        for rows in (u, moved):
            assert sector_volume(one_forms(rows), k) == kfold_sector_volume(rows, omega, k)
    rng = random.Random("sector-volume")
    for n in (1, 2, 3):
        omega = SymplecticData.canonical(n).omega
        for _ in range(3):
            rows = [[Scalar.of(rng.randint(-2, 2), rng.randint(-1, 1)) if rng.random() < 0.5
                     else ZERO for _ in range(2 * n)] for _ in range(2 * n)]
            for k in range(n + 1):
                assert sector_volume(one_forms(rows), k) == kfold_sector_volume(rows, omega, k)


def test_minus_sector_builds_at_rank_24():
    # The -1 sector at n = 24: its generator and its dual cycle are built in
    # time polynomial in n (the k-fold wedge power took 5 s at n = 16).
    # Its volume is prod_l (-dz_(2l-1) dz_(2l)), (+1) vol_dz at even n.
    sym = SymplecticData.canonical(24)
    minus = GroupElement.diagonal([-ONE] * 48, "-1")
    start = time.process_time()
    gen = make_zeta_g(sym, minus)
    assert time.process_time() - start < 1
    assert gen.form_degree == 48 and gen.prefactor == FormElement.dz(range(1, 49), sym)
    start = time.process_time()
    cycle = twisted_cycle(sym, minus, 4)
    assert time.process_time() - start < 1
    gens = tuple(WeylElement.generator(j, sym) for j in range(1, 49))
    assert [(theta.poly, args) for theta, args in cycle.terms] == [(Poly.one(), gens)]

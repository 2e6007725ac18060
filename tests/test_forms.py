from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylhh.errors import BudgetError
from weylhh.forms import (FormElement, ext_d, form_star, homotopy_s, proj_p,
                          sector_volume, wedge_expand, wedge_merge)
from weylhh.poly import Poly, Y, Z
from weylhh.sampling import random_form, random_weyl
from weylhh.scalars import Scalar
from weylhh.weyl import SymplecticData, WeylElement


def test_wedge_merge():
    assert wedge_merge((1,), (2,)) == (1, (1, 2))
    assert wedge_merge((2,), (1,)) == (-1, (1, 2))
    assert wedge_merge((1,), (1,)) is None
    assert wedge_merge((2, 4), (1, 3)) == (-1, (1, 2, 3, 4))


def test_wedge_expand_keeps_one_degree():
    # (1 + dz1 + dz2)(1 - dz1 + 2 dz2): the degree-1 part is 3 dz2, where
    # dz1 cancels, and the degree-2 part 2 dz1 dz2 - dz2 dz1 = 3 dz1 dz2.
    one = Scalar.of(1)
    first = {(): one, (1,): one, (2,): one}
    second = {(): one, (1,): -one, (2,): Scalar.of(2)}
    assert wedge_expand([first, second], 0) == {(): one}
    assert wedge_expand([first, second], 1) == {(2,): Scalar.of(3)}
    assert wedge_expand([first, second], 2) == {(1, 2): Scalar.of(3)}
    assert wedge_expand([first, second], 3) == {}


def test_sector_volume_orientation():
    # The -1 sector's u = dz at n = 1 and 2: prod_l (-dz_(2l-1) dz_(2l)),
    # so -vol at n = 1 and +vol at n = 2; k = 1 at n = 2 sums the two tau_l.
    one = Scalar.of(1)
    dz = [{(j,): one} for j in range(1, 5)]
    assert sector_volume(dz[:2], 1) == {(1, 2): -one}
    assert sector_volume(dz, 2) == {(1, 2, 3, 4): one}
    assert sector_volume(dz, 1) == {(1, 2): -one, (3, 4): -one}
    assert sector_volume(dz, 0) == {(): one}


def test_unit_and_exterior_signs(sym1):
    dz1 = FormElement.dz([1], sym1)
    dz2 = FormElement.dz([2], sym1)
    one = WeylElement.one(sym1)
    b = FormElement({(1,): Poly.variable(Z, 2)}, sym1)
    assert form_star(one, b) == b
    assert form_star(dz1, dz2) == FormElement.dz([1, 2], sym1)
    assert form_star(dz2, dz1) == FormElement({(1, 2): -Poly.one()}, sym1)


def test_first_order_mixed_star(sym1):
    # y1 * (z2 dz1) - (z2 dz1) * y1 expanded once by hand: i dz1.
    y1 = WeylElement.generator(1, sym1)
    f = FormElement({(1,): Poly.variable(Z, 2)}, sym1)
    comm = form_star(y1, f) - form_star(f, y1)
    assert comm == FormElement({(1,): Poly.const(Scalar.of(0, 1))}, sym1)


def test_form_star_associativity(rng):
    for n in (1, 2):
        sym = SymplecticData.canonical(n)
        for _ in range(25):
            a = random_weyl(rng, sym, 3)
            b = random_form(rng, sym, 2)
            c = random_form(rng, sym, 2)
            left = form_star(form_star(a, b), c)
            right = form_star(a, form_star(b, c))
            assert left == right


def test_ext_d_basics(sym1):
    z1 = FormElement.from_poly(Poly.variable(Z, 1), sym1)
    assert ext_d(z1) == FormElement.dz([1], sym1)
    f = FormElement({(1,): Poly.variable(Z, 1) * Poly.variable(Z, 2)}, sym1)
    assert ext_d(f) == FormElement({(1, 2): -Poly.variable(Z, 1)}, sym1)


def test_d_squared_zero(rng):
    for _ in range(50):
        n = rng.choice((1, 2))
        sym = SymplecticData.canonical(n)
        a = random_form(rng, sym, 3)
        assert ext_d(ext_d(a)).is_zero()


def test_homotopy_examples(sym1):
    assert homotopy_s(FormElement.dz([1], sym1)) == FormElement.from_poly(
        Poly.variable(Z, 1), sym1)
    got = homotopy_s(FormElement({(1,): Poly.variable(Z, 2)}, sym1))
    want = FormElement.from_poly(
        (Poly.variable(Z, 1) * Poly.variable(Z, 2)).scale(Scalar.of(Fraction(1, 2))),
        sym1)
    assert got == want
    assert homotopy_s(FormElement.from_poly(Poly.variable(Y, 1), sym1)).is_zero()


def test_homotopy_refuses_exponent_past_field(sym1):
    # s multiplies by z1 as a key sum: z1^255 dz1 would carry z1's field
    # into its neighbour's, so it is refused; z1^254 dz1 still fits.
    top = FormElement({(1,): Poly.monomial([(Z, 1, 255)])}, sym1)
    with pytest.raises(ValueError, match="overflows"):
        homotopy_s(top)
    got = homotopy_s(FormElement({(1,): Poly.monomial([(Z, 1, 254)])}, sym1))
    assert got == FormElement.from_poly(
        Poly.monomial([(Z, 1, 255)], Scalar.of(Fraction(1, 255))), sym1)


def test_s_squared_zero(rng):
    for _ in range(50):
        n = rng.choice((1, 2))
        sym = SymplecticData.canonical(n)
        a = random_form(rng, sym, 3)
        assert homotopy_s(homotopy_s(a)).is_zero()


def test_homotopy_identity_all_degrees(rng):
    # s d + d s = id - p across every form degree, both ranks.
    count = 0
    while count < 100:
        n = rng.choice((1, 2))
        sym = SymplecticData.canonical(n)
        for q in range(2 * n + 1):
            a = random_form(rng, sym, 3, degree=q)
            lhs = homotopy_s(ext_d(a)) + ext_d(homotopy_s(a))
            assert lhs == a - proj_p(a)
            count += 1


def test_proj_p(sym1):
    f = FormElement.from_poly(Poly.variable(Y, 1) + Poly.variable(Z, 1), sym1)
    assert proj_p(f) == FormElement.from_poly(Poly.variable(Y, 1), sym1)
    assert proj_p(FormElement.dz([1], sym1)).is_zero()
    z1 = FormElement.from_poly(Poly.variable(Z, 1), sym1)
    assert proj_p(z1).is_zero()
    lhs = homotopy_s(ext_d(z1)) + ext_d(homotopy_s(z1))
    assert lhs == z1


def test_truncated_star_refused(sym1):
    a = FormElement.from_poly(Poly.one(), sym1, truncation=3)
    b = FormElement.from_poly(Poly.one(), sym1, truncation=3)
    with pytest.raises(BudgetError):
        form_star(a, b)


def test_truncation_certificate_shrinks(sym1):
    series = FormElement.from_poly(Poly.one() + Poly.monomial([(Z, 1, 2)]),
                                   sym1, truncation=4)
    quadratic = WeylElement(Poly.monomial([(Y, 1, 2)]), sym1)
    out = form_star(quadratic, series)
    assert out.truncation == 2
    assert all(p.degree() <= 2 for p in out.components.values())
    # A zero factor has degree 0 and costs nothing; d costs one degree.
    assert form_star(FormElement({}, sym1), series).truncation == 4
    assert ext_d(series).truncation == 3


@pytest.mark.parametrize("idx", [(0, 1), (-3,), (3,), (2, 1), (1, 1)])
def test_form_rejects_bad_dz_index(sym1, idx):
    # dz indices are strictly increasing and lie in 1..2n.
    with pytest.raises(ValueError):
        FormElement({idx: Poly.one()}, sym1)


def _unit_interval_integral(t_exponent):
    """int_0^1 t^e dt = [t^(e+1) / (e+1)] from 0 to 1."""
    return Fraction(1, t_exponent + 1)


def _radial_reference(a: FormElement) -> FormElement:
    """The radial integral with an explicit t exponent: strip the r-th dz
    index, scale z -> t z (t to the z-degree), weight by t^(q-1), integrate t
    over [0, 1], multiply by that z with sign (-1)^r."""
    out = {}
    for idx, poly in a.components.items():
        q = len(idx)
        if q == 0:
            continue
        integrated = Poly.zero()
        for m, c in poly.triple_terms().items():
            t_exponent = sum(e for b, _, e in m if b == Z) + q - 1
            weight = Scalar.of(_unit_interval_integral(t_exponent))
            integrated = integrated + Poly.monomial(list(m), c * weight)
        for r, stripped in enumerate(idx):
            term = integrated * Poly.variable(Z, stripped)
            rest = idx[:r] + idx[r + 1:]
            out[rest] = out.get(rest, Poly.zero()) + (-term if r % 2 else term)
    t = None if a.truncation is None else a.truncation + 1
    return FormElement(out, a.ambient, t)


@st.composite
def forms(draw):
    n = draw(st.sampled_from((1, 2)))
    size = 2 * n
    sym = SymplecticData.canonical(n)
    var = st.tuples(st.sampled_from((Y, Z)), st.integers(1, size))
    term = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                     st.lists(var, max_size=4))
    components = {}
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(1, size))
        idx = tuple(sorted(draw(st.sets(st.integers(1, size), min_size=q, max_size=q))))
        poly = Poly.zero()
        for re, im, factors in draw(st.lists(term, min_size=1, max_size=4)):
            poly = poly + Poly.monomial([(b, i, 1) for b, i in factors],
                                        Scalar.of(re, im))
        components[idx] = components.get(idx, Poly.zero()) + poly
    truncation = draw(st.none() | st.integers(2, 5))
    return FormElement(components, sym, truncation)


@given(forms())
def test_homotopy_matches_radial_integral(a):
    assert homotopy_s(a) == _radial_reference(a)

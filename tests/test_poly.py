import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from weylhh.poly import (MAX_INDEX, Poly, Y, Z, _triples, mono_degree, mono_divides,
                         mono_factorial, mono_lcm, mono_z_degree, rename)
from weylhh.scalars import Scalar
from weylhh.weyl import SymplecticData, WeylElement


def y(i, e=1):
    return Poly.monomial([(Y, i, e)])


def test_trivial_products():
    assert y(1) * y(1) == y(1, 2)
    lhs = (y(1) + Poly.const(Scalar.of(0, 1))) * (y(1) - Poly.const(Scalar.of(0, 1)))
    assert lhs == y(1, 2) + Poly.one()


def test_schoolbook_square():
    # (2 z1 + z2 y2)^2 expanded by hand.
    p = Poly.variable(Z, 1, Scalar.of(2)) + Poly.monomial([(Z, 2, 1), (Y, 2, 1)])
    sq = p * p
    expect = (Poly.monomial([(Z, 1, 2)], Scalar.of(4))
              + Poly.monomial([(Z, 2, 1), (Y, 2, 1), (Z, 1, 1)], Scalar.of(4))
              + Poly.monomial([(Z, 2, 2), (Y, 2, 2)]))
    assert sq == expect


def test_diff():
    assert y(1, 3).diff(Y, 1) == y(1, 2).scale(Scalar.of(3))
    assert (y(1) * Poly.variable(Z, 1)).diff(Z, 2).is_zero()
    z = Poly.monomial([(Z, 1, 2), (Z, 2, 1)])
    assert z.diff(Z, 1) == Poly.monomial([(Z, 1, 1), (Z, 2, 1)], Scalar.of(2))


def _random_poly(rng, max_degree=4, nvars=6):
    out = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(0, max_degree)
        exps = {}
        for _ in range(deg):
            bank = rng.choice([Y, Z])
            idx = rng.randint(1, nvars // 2)
            exps[(bank, idx)] = exps.get((bank, idx), 0) + 1
        coeff = Scalar.of(rng.randint(-5, 5), rng.randint(-5, 5))
        out = out + Poly.monomial([(b, i, e) for (b, i), e in exps.items()], coeff)
    return out


def test_ring_axioms_sampled():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_derivatives_commute_sampled():
    rng = random.Random(12)
    for _ in range(60):
        a = _random_poly(rng)
        assert a.diff(Y, 1).diff(Z, 2) == a.diff(Z, 2).diff(Y, 1)
        assert a.diff(Y, 1).diff(Y, 2) == a.diff(Y, 2).diff(Y, 1)


_var = st.tuples(st.sampled_from((Y, Z)), st.integers(1, 3))


def _polys(var):
    """Polynomials of up to 5 terms, each of up to 4 factors drawn from var."""
    term = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                     st.lists(st.tuples(var, st.integers(1, 3)), max_size=4))

    def build(terms):
        p = Poly.zero()
        for re, im, factors in terms:
            p = p + Poly.monomial([(b, i, e) for (b, i), e in factors], Scalar.of(re, im))
        return p

    return st.lists(term, max_size=5).map(build)


@given(_polys(_var), _var)
def test_diff_returns_canonical_monomials(p, var):
    bank, index = var
    got = p.diff(bank, index)
    want = Poly.zero()
    for m, c in p.triple_terms().items():
        e = dict(((b, i), x) for b, i, x in m).get(var, 0)
        if e:
            lowered = [(b, i, x - 1 if (b, i) == var else x) for b, i, x in m]
            want = want + Poly.monomial(lowered, c.scale_fraction(e))
    assert got == want


@given(_polys(st.tuples(st.just(Y), st.integers(1, 3))), _polys(_var), _polys(_var),
       st.integers(-1, 12))
def test_cut_product_is_truncated_product(p, q, r, d):
    # mul_into cuts by total degree alone (its cut left factors carry no z),
    # keeping the terms of degree <= d, and sums onto the terms out holds.
    assert Poly(p.mul_into(q, {}, d)) == (p * q).truncate(d)
    assert Poly(p.mul_into(q, dict(r.terms), d)) == r + (p * q).truncate(d)


def test_degree_queries():
    p = Poly.monomial([(Y, 1, 2), (Z, 3, 1)]) + Poly.monomial([(Z, 1, 5)])
    assert p.degree() == 5 and Poly().degree() == 0
    # truncate keeps the terms of degree <= its bound, and self when all are.
    assert p.truncate(3) == Poly.monomial([(Y, 1, 2), (Z, 3, 1)])
    assert p.truncate(5) is p and p.truncate(None) is p and not p.truncate(2)
    assert sorted(map(mono_z_degree, p.terms)) == [1, 5]
    assert mono_z_degree(next(iter(y(1, 2).terms))) == 0


def test_linear_subst_flip():
    m = ((Scalar.of(-1), Scalar.of(0)), (Scalar.of(0), Scalar.of(1)))
    p = y(1) + y(2) + y(1, 2)
    assert p.linear_subst(Y, m) == -y(1) + y(2) + y(1, 2)
    # y1 -> y1 + y2: y1^3 is three products by y1's image.
    shear = ((Scalar.of(1), Scalar.of(1)), (Scalar.of(0), Scalar.of(1)))
    want = (y(1, 3) + Poly.monomial([(Y, 1, 2), (Y, 2, 1)], Scalar.of(3))
            + Poly.monomial([(Y, 1, 1), (Y, 2, 2)], Scalar.of(3)) + y(2, 3))
    assert (y(1, 3) + y(1)).linear_subst(Y, shear) == want + y(1) + y(2)


def test_json_roundtrip_canonical():
    rng = random.Random(14)
    for _ in range(40):
        p = _random_poly(rng)
        assert Poly.from_json(p.to_json()) == p
    # canonical order is deterministic: serialize twice, identical bytes
    p = _random_poly(rng)
    assert p.to_json() == Poly.from_json(p.to_json()).to_json()


def test_json_shape_matches_contract():
    p = Poly.monomial([(Y, 1, 2), (Z, 3, 1)], Scalar.of(Fraction(1, 2), 1))
    obj = p.to_json()
    assert obj == {"terms": [{
        "coeff": {"re": ["1", "2"], "im": ["1", "1"]},
        "exps": [["Y", 1, 2], ["Z", 3, 1]],
    }]}
    # Terms in graded-lex order: by degree, then Y before Z, then index.
    terms = (Poly.variable(Z, 1) + Poly.variable(Y, 2) + y(1, 2)).to_json()["terms"]
    assert [t["exps"] for t in terms] == [[["Y", 2, 1]], [["Z", 1, 1]], [["Y", 1, 2]]]
    assert str(p + Poly.monomial([(Y, 2, 1)], Scalar.of(0, -1)) + Poly.one()) == (
        "(1) + (-1i)y2 + (1/2+1i)y1^2z3")


def test_no_zero_terms_stored():
    p = y(1) - y(1)
    assert p.terms == {}
    q = y(1) + y(2)
    assert all(not c.is_zero() for c in q.terms.values())


def test_from_json_merges_repeated_monomials():
    c = {"re": ["1", "2"], "im": ["0", "1"]}
    minus = {"re": ["-1", "2"], "im": ["0", "1"]}
    obj = {"terms": [{"coeff": c, "exps": [["Y", 1, 1]]},
                     {"coeff": c, "exps": [["Z", 2, 1], ["Y", 1, 1]]},
                     {"coeff": c, "exps": [["Y", 1, 1]]},
                     {"coeff": minus, "exps": [["Y", 1, 1], ["Z", 2, 1]]}]}
    assert Poly.from_json(obj) == Poly.monomial([(Y, 1, 1)])


@pytest.mark.parametrize("exps", [
    [["Y", 1, -2]], [["Y", 1, 0]], [["Y", 0, 1]], [["Y", -3, 1]],
    [["X", 1, 1]], [["T", 1, 1]], [[["Y"], 1, 1]], [["Y", 1]], [["Y", 1, 1.5]], [["Y", "1", 1]],
    # an exponent past the 8-bit field, alone or summed, and an index past the last field
    [["Y", 1, 256]], [["Z", 2, 200], ["Z", 2, 56]], [["Y", MAX_INDEX + 1, 1]],
])
def test_from_json_rejects_bad_exponents(exps):
    coeff = {"re": ["1", "1"], "im": ["0", "1"]}
    with pytest.raises(ValueError):
        Poly.from_json({"terms": [{"coeff": coeff, "exps": exps}]})


@pytest.mark.parametrize("obj", [[], {"terms": {}}, {"terms": [[]]},
                                 {"terms": [{"exps": []}]}])
def test_from_json_rejects_bad_shapes(obj):
    with pytest.raises(ValueError):
        Poly.from_json(obj)


def test_exp_quadratic_series(monkeypatch):
    q = (Poly.monomial([(Y, 1, 1), (Z, 2, 1)], Scalar.of(0, 2))
         + Poly.monomial([(Y, 2, 2)], Scalar.of(Fraction(-1, 3))))
    for degree in range(0, 8):
        want, power = Poly.zero(), Poly.one()
        for k in range(degree // 2 + 1):
            want = want + power.scale(Scalar.of(Fraction(1, factorial(k))))
            power = power * q
        assert q.exp_quadratic(degree) == want
    # q^k / k! is built from the previous term, and the power past the last
    # kept one is never formed: one product per kept power.
    products = []
    plain_mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: products.append(1) or plain_mul(a, b))
    q.exp_quadratic(7)
    assert len(products) == 3


def test_packed_field_overflow_is_refused():
    # The one guard on every key sum: a field that would reach 256 raises
    # rather than carrying into its neighbour (y1 into z1 here), and the
    # operands are unchanged.
    p = y(1, 255) + y(2)
    before = dict(p.terms)
    with pytest.raises(ValueError, match="overflows"):
        p * y(1)
    assert p.terms == before


@pytest.mark.parametrize("a, b", [
    (y(1, 200), y(1, 56)),
    (Poly.monomial([(Z, 3, 128)]), Poly.monomial([(Y, 1, 1), (Z, 3, 128)])),
    (Poly.monomial([(Z, MAX_INDEX, 255)]), Poly.variable(Z, MAX_INDEX)),
])
def test_product_reaching_256_raises(a, b):
    with pytest.raises(ValueError, match="overflows"):
        a * b
    with pytest.raises(ValueError, match="overflows"):
        b * a


def test_product_up_to_255_fits():
    assert y(1, 200) * y(1, 55) == y(1, 255)
    top = Poly.monomial([(Z, MAX_INDEX, 254)]) * Poly.variable(Z, MAX_INDEX)
    assert top == Poly.monomial([(Z, MAX_INDEX, 255)])
    assert top.degree() == 255
    assert top.triple_terms() == {((Z, MAX_INDEX, 255),): Scalar.of(1)}


def test_rename_past_last_index_is_refused():
    key = next(iter(y(MAX_INDEX).terms))
    assert rename(key, Y, Z, 0) == next(iter(Poly.variable(Z, MAX_INDEX).terms))
    # The last field's top bit is the key's last bit, and still inside it.
    top = next(iter(Poly.monomial([(Y, MAX_INDEX, 255)]).terms))
    assert rename(top, Y, Z, 0) == next(iter(Poly.monomial([(Z, MAX_INDEX, 255)]).terms))
    with pytest.raises(ValueError, match=f"renamed past {MAX_INDEX}"):
        rename(key, Y, Y, 1)


def test_monomial_rejects_exponent_past_field():
    with pytest.raises(ValueError):
        Poly.monomial([(Y, 1, 256)])
    with pytest.raises(ValueError):
        Poly.monomial([(Y, 1, 128), (Y, 1, 128)])


def test_constant_written_as_empty_triple_tuple():
    # (), the constant monomial of the triple-tuple keys, still reads as the
    # constant term when code outside the package writes it by hand.
    assert Poly({(): Scalar.of(2)}) == Poly.const(Scalar.of(2))
    assert Poly({0: Scalar.of(1), (): Scalar.of(2)}) == Poly.const(Scalar.of(3))
    assert Poly({(): Scalar.of(-1), 0: Scalar.of(1)}).is_zero()


def key(*triples):
    return next(iter(Poly.monomial(triples).terms))


def test_mono_divides_fieldwise():
    assert mono_divides(0, 0) and mono_divides(0, key((Y, 1, 255)))
    assert mono_divides(key((Y, 1, 255)), key((Y, 1, 255)))
    assert not mono_divides(key((Y, 1, 1)), 0)
    assert not mono_divides(key((Y, 1, 255)), key((Y, 1, 254), (Z, 5, 9)))
    # b - a borrows from z1 into y1: numerically smaller, not fieldwise.
    a, b = key((Y, 1, 2)), key((Y, 1, 1), (Z, 1, 1))
    assert a < b and not mono_divides(a, b) and not mono_divides(b, a)
    # Keys of different lengths: a higher field decides either way.
    assert mono_divides(key((Y, 1, 3)), key((Y, 1, 3), (Z, MAX_INDEX, 1)))
    assert not mono_divides(key((Y, 1, 3), (Z, MAX_INDEX, 1)), key((Y, 1, 3)))


def test_mono_lcm_is_fieldwise_max():
    a = key((Y, 1, 255), (Z, 1, 1))
    b = key((Y, 1, 0), (Z, 1, 2), (Y, 3, 7))
    assert mono_lcm(a, b) == mono_lcm(b, a) == key((Y, 1, 255), (Z, 1, 2), (Y, 3, 7))
    assert mono_lcm(a, 0) == a and mono_lcm(0, 0) == 0
    assert mono_lcm(key((Y, 1, 1), (Z, 1, 1)), key((Y, 1, 2))) == key((Y, 1, 2), (Z, 1, 1))
    assert mono_lcm(key((Y, 1, 4)), key((Z, MAX_INDEX, 255))) == key((Y, 1, 4), (Z, MAX_INDEX, 255))


def test_mono_divides_and_lcm_against_exponents():
    rng = random.Random(7)
    variables = [(Y, 1), (Z, 1), (Y, 2), (Z, 2)]

    def pick():
        return {v: rng.choice((0, 1, 2, 254, 255)) for v in variables}

    for _ in range(300):
        ea, eb = pick(), pick()
        a, b = (key(*[(bank, i, e[bank, i]) for bank, i in variables]) for e in (ea, eb))
        assert mono_divides(a, b) == all(ea[v] <= eb[v] for v in variables)
        assert mono_lcm(a, b) == key(*[(bank, i, max(ea[bank, i], eb[bank, i]))
                                       for bank, i in variables])


# Monomials as exponent maps over a few variables of both banks, the last
# index among them, with exponents up to the field's top.
_DEGREE_VARS = [(Y, 1), (Z, 1), (Y, 2), (Z, 3), (Y, 7), (Y, MAX_INDEX), (Z, MAX_INDEX)]
_exps = st.dictionaries(st.sampled_from(_DEGREE_VARS), st.integers(1, 255), max_size=4)


def _mono(exps):
    return key(*[(bank, i, e) for (bank, i), e in exps.items()])


@given(_exps, _exps, st.sampled_from(_DEGREE_VARS[:5]), st.integers(-3, 3))
def test_degree_fields_against_triples(ea, eb, var, offset):
    a, b = _mono(ea), _mono(eb)
    assert mono_degree(a) == sum(ea.values())
    assert mono_z_degree(a) == sum(e for (bank, _), e in ea.items() if bank == Z)
    assert _triples(a) == tuple(sorted(((bank, i, e) for (bank, i), e in ea.items()),
                                       key=lambda t: (t[0] == Z, t[1])))
    assert mono_factorial(a) == prod(map(factorial, ea.values()))
    both = set(ea) | set(eb)
    assert mono_divides(a, b) == all(ea.get(v, 0) <= eb.get(v, 0) for v in both)
    assert mono_lcm(a, b) == _mono({v: max(ea.get(v, 0), eb.get(v, 0)) for v in both})

    # A product key is the key sum, and its fields are the sums of its factors'.
    total = {v: ea.get(v, 0) + eb.get(v, 0) for v in both}
    if max(total.values(), default=0) <= 255:
        (ab,) = (Poly({a: Scalar.of(1)}) * Poly({b: Scalar.of(1)})).terms
        assert ab == a + b == _mono(total)
        assert mono_degree(ab) == mono_degree(a) + mono_degree(b)
        assert mono_z_degree(ab) == mono_z_degree(a) + mono_z_degree(b)

    # Each derivative lowers the exponent and the degree fields with it.
    bank, i = var
    e = ea.get(var, 0)
    lowered = {**ea, var: e - 1}
    want = Poly({_mono(lowered): Scalar.of(e)}) if e else Poly()
    got = Poly({a: Scalar.of(1)}).diff(bank, i)
    assert got == want
    for k in got.terms:
        assert (mono_degree(k), mono_z_degree(k)) == (mono_degree(a) - 1,
                                                      mono_z_degree(a) - (bank == Z))
    partner = (Y if bank == Z else Z, i)
    ep = ea.get(partner, 0)
    both_ways = want + (Poly({_mono({**ea, partner: ep - 1}): Scalar.of(ep)}) if ep else Poly())
    assert Poly({a: Scalar.of(1)}).directional_diff(i) == both_ways

    # rename moves one bank's fields and recomputes both degrees.
    for src, dst in ((Y, Z), (Z, Y), (Y, Y)):
        moved = {(dst, j + offset): x for (bank, j), x in ea.items()
                 if bank == src and 1 <= j + offset}
        if max((j for _, j in moved), default=0) > MAX_INDEX:
            with pytest.raises(ValueError, match="renamed past"):
                rename(a, src, dst, offset)
        else:
            assert rename(a, src, dst, offset) == _mono(moved)


@given(_exps)
def test_weyl_element_refuses_z_and_indices_past_2n(exps):
    sym = SymplecticData.canonical(2)
    poly = Poly({_mono(exps): Scalar.of(1)})
    if any(bank == Z for bank, _ in exps):
        with pytest.raises(ValueError, match="only Y-bank"):
            WeylElement(poly, sym)
    elif any(i > 4 for _, i in exps):
        with pytest.raises(ValueError, match="exceeds 2n"):
            WeylElement(poly, sym)
    else:
        assert WeylElement(poly, sym).poly == poly

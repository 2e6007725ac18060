import pytest
from hypothesis import given, strategies as st

from weylhh import linalg
from weylhh.errors import AmbientMismatchError, BudgetError
from weylhh.poly import Poly, Y, Z
from weylhh.sampling import random_weyl
from weylhh.scalars import I, ONE, ZERO, Scalar
from weylhh.weyl import (SymplecticData, WeylElement, _star_kernel, bform,
                         involution, star, supertrace)

from oracles import gram_rank_upto, parity_parts


def gens(sym):
    return [WeylElement.generator(j, sym) for j in range(1, 2 * sym.n + 1)]


def test_canonical_data_valid():
    for n in (1, 2, 3):
        sym = SymplecticData.canonical(n)
        assert sym.n == n
        assert sym.pi == tuple(
            tuple((ONE if j % 2 == 0 else -ONE) if k == j ^ 1 else ZERO
                  for k in range(2 * n)) for j in range(2 * n))
        assert linalg.mat_mul(sym.omega, sym.pi) == linalg.identity(2 * n)
        assert sym.omega == tuple(tuple(-c for c in row) for row in sym.pi)


def test_canonical_is_a_constant():
    for n in (1, 2, 3):
        assert SymplecticData.canonical(n) is SymplecticData.canonical(n)


def test_ambient_keys():
    # ykeys[j] is the key of y_j and ykeys[0] = 0, the unit's key, so sums
    # of ykeys entries give every monomial up to their count; foreign holds
    # every bit but those of y_1 .. y_2n.
    for n in (1, 2):
        sym = SymplecticData.canonical(n)
        gens = [next(iter(Poly.variable(Y, j).terms)) for j in range(1, 2 * n + 1)]
        assert sym.ykeys == (next(iter(Poly.one().terms)), *gens)
        assert [k & sym.foreign for k in gens] == [0] * (2 * n)
        assert next(iter(Poly.variable(Y, 2 * n + 1).terms)) & sym.foreign
        assert next(iter(Poly.variable(Z, 1).terms)) & sym.foreign


def test_defining_relations(sym1, sym2):
    for sym in (sym1, sym2):
        gs = gens(sym)
        for j, a in enumerate(gs):
            for k, b in enumerate(gs):
                comm = star(a, b) - star(b, a)
                want = Poly.const(Scalar.of(0, 2) * sym.pi[j][k])
                assert comm.poly == want


def test_unit_is_neutral(sym1, rng):
    one = WeylElement.one(sym1)
    for _ in range(10):
        a = random_weyl(rng, sym1, 4)
        assert star(one, a) == a
        assert star(a, one) == a


def test_square_star_square():
    sym = SymplecticData.canonical(1)
    a = WeylElement(Poly.monomial([(Y, 1, 2)]), sym)
    b = WeylElement(Poly.monomial([(Y, 2, 2)]), sym)
    # order-by-order expansion of the bidifferential exponential: three
    # surviving orders, computed by hand.
    expect = (Poly.monomial([(Y, 1, 2), (Y, 2, 2)])
              + Poly.monomial([(Y, 1, 1), (Y, 2, 1)], Scalar.of(0, 4))
              + Poly.const(Scalar.of(-2)))
    assert star(a, b).poly == expect


def test_star_associativity_sampled(rng):
    for n in (1, 2):
        sym = SymplecticData.canonical(n)
        for _ in range(50):
            a = random_weyl(rng, sym, 4)
            b = random_weyl(rng, sym, 4)
            c = random_weyl(rng, sym, 4)
            assert star(star(a, b), c) == star(a, star(b, c))


def test_ambient_mismatch(sym1, sym2):
    with pytest.raises(AmbientMismatchError):
        star(WeylElement.one(sym1), WeylElement.one(sym2))


def test_involution(sym1, rng):
    a = WeylElement(Poly.variable(Y, 1) + Poly.monomial([(Y, 1, 2)]), sym1)
    assert involution(a).poly == -Poly.variable(Y, 1) + Poly.monomial([(Y, 1, 2)])
    for _ in range(20):
        b = random_weyl(rng, sym1, 4)
        assert involution(involution(b)) == b
    y1, y2 = gens(sym1)
    assert involution(star(y1, y2)) == star(involution(y1), involution(y2))


def test_involution_automorphism_sampled(rng):
    sym = SymplecticData.canonical(2)
    for _ in range(20):
        a = random_weyl(rng, sym, 3)
        b = random_weyl(rng, sym, 3)
        assert involution(star(a, b)) == star(involution(a), involution(b))


def test_supertrace(sym1):
    y1, y2 = gens(sym1)
    assert supertrace(WeylElement.one(sym1)) == ONE
    assert supertrace(y1) == Scalar.of(0)
    assert supertrace(star(y1, y2)) == I


def test_bform_values(sym1):
    y1, y2 = gens(sym1)
    one = WeylElement.one(sym1)
    assert bform(one, one) == ONE
    assert bform(y1, y2) == I
    assert bform(y2, y1) == -I


def test_bform_involution_adjoint_sampled(rng):
    sym = SymplecticData.canonical(1)
    for _ in range(50):
        a = random_weyl(rng, sym, 4)
        b = random_weyl(rng, sym, 4)
        assert bform(a, b) == bform(involution(b), a)


def test_graded_symmetry_and_orthogonality(rng):
    sym = SymplecticData.canonical(1)
    for _ in range(60):
        a = random_weyl(rng, sym, 4)
        b = random_weyl(rng, sym, 4)
        even_a, odd_a = parity_parts(a)
        even_b, odd_b = parity_parts(b)
        # parity-homogeneous graded symmetry
        assert bform(even_a, even_b) == bform(even_b, even_a)
        assert bform(odd_a, odd_b) == -bform(odd_b, odd_a)
        # even/odd orthogonality
        assert bform(even_a, odd_b) == Scalar.of(0)
        # graded trace property
        assert supertrace(star(odd_a, odd_b)) == -supertrace(star(odd_b, odd_a))
        assert supertrace(star(even_a, b)) == supertrace(star(b, even_a))


@pytest.mark.parametrize("n", [1, 2])
def test_element_refuses_foreign_variables(n):
    # One mask per n checks every term; the message names the first rule a
    # term breaks: a Z variable, then an index past 2n.
    sym = SymplecticData.canonical(n)
    top = Poly.variable(Y, 2 * n)
    assert WeylElement(top, sym).poly == top
    for bad, why in [(Poly.variable(Z, 1), "only Y-bank variables"),
                     (Poly.variable(Z, 2 * n + 1), "only Y-bank variables"),
                     (Poly.variable(Y, 2 * n + 1), "index exceeds 2n"),
                     (Poly.variable(Y, 2 * n + 1) + Poly.variable(Z, 1),
                      "only Y-bank variables")]:
        with pytest.raises(ValueError, match=why):
            WeylElement(top + bad, sym)
        with pytest.raises(ValueError, match=why):
            WeylElement(bad, sym, truncation=0)


def test_memos_match_fresh_values(sym2, rng):
    # key() and degree() are kept after their first call; every derived
    # element computes its own.
    def fresh(x):
        return (x.ambient.n, x.truncation, x.poly.key()), x.poly.degree()

    a = random_weyl(rng, sym2, 3)
    assert (a.key(), a.degree()) == fresh(a)
    swap = [[ONE if j == (i + 2) % 4 else Scalar.of(0) for j in range(4)]
            for i in range(4)]
    derived = [a.restrict(2), a.restrict(1), a.scale(Scalar.of(0, 3)),
               a.apply_matrix(swap), -a, a.restrict(2).apply_matrix(swap)]
    for x in derived:
        assert (x.key(), x.degree()) == fresh(x)
        assert (x.key(), x.degree()) == fresh(x)
    assert len({x.key() for x in [a] + derived}) == len(derived) + 1
    # Equal values give equal keys; truncations tell them apart.
    same = WeylElement(a.poly, sym2)
    assert same is not a and same.key() == a.key()
    low = WeylElement(Poly.one(), sym2)
    assert len({low.key(), low.restrict(3).key(), low.restrict(4).key()}) == 3


def test_gram_rank_full():
    # degree <= 3 keeps this test fast; the acceptance suite runs degree 6.
    rank, size = gram_rank_upto(SymplecticData.canonical(1), 3)
    assert rank == size == 10


def test_sum_keeps_the_lower_truncation(sym1):
    series = WeylElement(Poly.one() + Poly.monomial([(Y, 1, 2)]), sym1, truncation=2)
    exact = WeylElement(Poly.variable(Y, 1), sym1)
    assert (series + exact).truncation == (exact + series).truncation == 2
    assert (exact + exact).truncation is None


def test_truncated_star_rules(sym1):
    series = WeylElement(Poly.one() + Poly.monomial([(Y, 1, 2)]), sym1, truncation=2)
    poly = WeylElement(Poly.variable(Y, 1), sym1)
    # Either factor's truncation, less the other's degree.
    assert star(poly, series).truncation == star(series, poly).truncation == 1
    with pytest.raises(BudgetError):
        star(series, series)
    tiny = WeylElement(Poly.one(), sym1, truncation=0)
    big = WeylElement(Poly.monomial([(Y, 1, 3)]), sym1)
    for a, b in ((big, tiny), (tiny, big)):
        with pytest.raises(BudgetError):
            star(a, b)
    assert str(series) == f"{series.poly} (trunc<=2)" and str(poly) == str(poly.poly)


def test_equal_pi_builds_equal_ambients():
    # Ambients built apart for one n are one key: equal, with equal hashes,
    # so _op_cache and the ffs lru_caches share their entries.
    canonical = SymplecticData.canonical(2)
    rebuilt = SymplecticData(2)
    assert rebuilt is not canonical
    assert rebuilt == canonical and hash(rebuilt) == hash(canonical)
    assert {canonical: "entry"}[rebuilt] == "entry"
    assert (rebuilt.pi, rebuilt.omega) == (canonical.pi, canonical.omega)
    assert rebuilt != SymplecticData.canonical(1)


@st.composite
def weyl_triples(draw):
    """Three polynomials of degree <= 3 over one ambient, n = 1 or 2."""
    n = draw(st.sampled_from((1, 2)))
    sym = SymplecticData.canonical(n)
    term = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                     st.lists(st.integers(1, 2 * n), max_size=3))

    def element():
        poly = Poly.zero()
        for re, im, factors in draw(st.lists(term, max_size=4)):
            poly = poly + Poly.monomial([(Y, i, 1) for i in factors],
                                        Scalar.of(re, im))
        return WeylElement(poly, sym)

    return element(), element(), element()


@given(weyl_triples(), st.integers(-3, 3), st.integers(-3, 3))
def test_star_bilinear(abc, re, im):
    a, b, c = abc
    k = Scalar.of(re, im)
    assert star(a + b, c) == star(a, c) + star(b, c)
    assert star(a, b + c) == star(a, b) + star(a, c)
    assert star(a.scale(k), b) == star(a, b).scale(k) == star(a, b.scale(k))


@given(weyl_triples())
def test_star_associative(abc):
    a, b, c = abc
    assert star(star(a, b), c) == star(a, star(b, c))


@st.composite
def capped_products(draw):
    """A Weyl left factor, a form coefficient with z and a pair of caps,
    n = 1 or 2."""
    n = draw(st.sampled_from((1, 2)))
    sym = SymplecticData.canonical(n)

    def poly(banks, max_size):
        var = st.tuples(st.sampled_from(banks), st.integers(1, 2 * n))
        term = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                         st.lists(var, max_size=max_size))
        out = Poly.zero()
        for re, im, factors in draw(st.lists(term, max_size=4)):
            out = out + Poly.monomial([(b, i, 1) for b, i in factors],
                                      Scalar.of(re, im))
        return out

    caps = (draw(st.integers(-1, 3)), draw(st.integers(0, 6)))
    return sym, poly((Y,), 3), poly((Y, Z), 5), caps


def reference_right_d(poly, j, sym):
    """The j-th right derivative bank by bank: sum_k pi^{jk} D_k poly,
    D_k = d/dy_k + d/dz_k."""
    out = Poly.zero()
    for k, c in enumerate(sym.pi[j - 1], 1):
        if not c.is_zero():
            d = poly.diff(Y, k) + poly.diff(Z, k)
            out = out + d.scale(c)
    return out


@st.composite
def right_factors(draw, n):
    """A polynomial in a right factor's banks, (Y,) for a Weyl element or
    (Y, Z) for a form, and a pair of caps."""
    banks = draw(st.sampled_from(((Y,), (Y, Z))))
    var = st.tuples(st.sampled_from(banks), st.integers(1, 2 * n))
    term = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                     st.lists(var, max_size=5))
    poly = Poly.zero()
    for re, im, factors in draw(st.lists(term, max_size=5)):
        poly = poly + Poly.monomial([(b, i, 1) for b, i in factors],
                                    Scalar.of(re, im))
    caps = (draw(st.integers(-1, 3)), draw(st.integers(-1, 5)))
    return poly, caps


@pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
@given(data=st.data())
def test_right_d_is_bank_by_bank_derivative(n, data):
    # Row j of pi D is +-D at j's partner, + for odd j: one directional_diff
    # pass at the partner, signed as the star walk signs its node, gives the
    # bank-by-bank derivative, and with caps exactly its terms inside them.
    sym = SymplecticData.canonical(n)
    poly, caps = data.draw(right_factors(n))
    for j in range(1, 2 * n + 1):
        partner, sign = (j + 1, ONE) if j % 2 else (j - 1, -ONE)
        want = reference_right_d(poly, j, sym)
        assert poly.directional_diff(partner).scale(sign) == want
        assert poly.directional_diff(partner, caps).scale(sign) == want.capped(*caps)


@given(capped_products())
def test_capped_kernel_is_pruned_product(case):
    # The capped kernel computes exactly the terms the caps keep.
    sym, p, q, caps = case
    assert _star_kernel(p, q, sym, caps) == _star_kernel(p, q, sym).capped(*caps)

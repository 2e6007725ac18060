import random
from fractions import Fraction
from functools import reduce

import pytest

from weylhh.errors import AmbientMismatchError
from weylhh.forms import FormElement, form_star
from weylhh.groups import GroupElement, group_twist, higher_spin_preset, twisted_cycle
from weylhh.hochschild import (Chain, Cochain, Report, SampleSpec,
                               constant_cochain, hochschild_d, hochschild_d1,
                               hochschild_d2, pair_chain, verify_cocycle,
                               wedge_eval)
from weylhh.poly import Poly, Z, mono_degree
from weylhh.sampling import (cocycle_tuples, monomials_upto, random_form, random_weyl,
                             weyl_tuples)
from weylhh.scalars import ONE, Scalar
from weylhh.weyl import SymplecticData, WeylElement, involution, star

from oracles import cochain_ext_d, cochain_s


def dual_cochain(sym, arity, fn):
    return Cochain(arity, sym, involution, fn)


def template_form_cochain(rng, sym, arity):
    """A star-multiplication template f(a_1..a_p) = c0 * a_1 * c1 * ... * cp."""
    forms = [random_form(rng, sym, 2) for _ in range(arity + 1)]

    def ev(*args):
        out = forms[0]
        for a, c in zip(args, forms[1:]):
            out = form_star(a, out)
            out = form_star_left_poly(out, c)
        return out

    def form_star_left_poly(x, c):
        # keep the left factor polynomial: multiply by c on the left
        return form_star(c, x) if c.truncation is None else x

    return Cochain(arity, sym, involution, ev)


def test_involution_twist_on_constant_unit(sym1, rng):
    f = constant_cochain(WeylElement.one(sym1), sym1, involution)
    df = hochschild_d(f)
    for _ in range(20):
        a = random_weyl(rng, sym1, 4)
        # The involution twist leaves twice the odd part of a, read off degrees.
        odd = Poly({m: c for m, c in a.poly.terms.items() if mono_degree(m) % 2})
        assert df(a) == WeylElement(odd, sym1).scale(Scalar.of(2))


def test_d_squared_zero_on_templates(rng):
    for n in (1, 2):
        sym = SymplecticData.canonical(n)
        for arity in (1, 2):
            for _ in range(10):
                f = template_form_cochain(rng, sym, arity)
                ddf = hochschild_d(hochschild_d(f))
                for args in weyl_tuples(rng, sym, arity + 2, 3, 2):
                    assert ddf(*args).is_zero()


def test_d_squared_zero_group_twist(rng):
    sym = SymplecticData.canonical(1)
    flip = tuple(tuple(Scalar.of(-1) if i == j else Scalar.of(0)
                       for j in range(2))
                 for i in range(2))
    twist = group_twist(flip)
    forms = [random_form(rng, sym, 2) for _ in range(2)]
    f = Cochain(1, sym, twist,
                lambda a: form_star(a, forms[0]) + forms[1])
    ddf = hochschild_d(hochschild_d(f))
    for args in weyl_tuples(rng, sym, 3, 5, 2):
        assert ddf(*args).is_zero()


def test_d_splits(rng):
    sym = SymplecticData.canonical(1)
    for _ in range(20):
        f = template_form_cochain(rng, sym, rng.choice((1, 2)))
        df = hochschild_d(f)
        d1f = hochschild_d1(f)
        d2f = hochschild_d2(f)
        for args in weyl_tuples(rng, sym, f.arity + 1, 2, 2):
            assert df(*args) == d1f(*args) + d2f(*args)


def test_d1_on_constant(sym1, rng):
    m = FormElement.from_poly(Poly.variable(Z, 1), sym1)
    f = Cochain(0, sym1, involution, lambda: m)
    d1f = hochschild_d1(f)
    for _ in range(5):
        a = random_weyl(rng, sym1, 3)
        assert d1f(a) == form_star(a, m)


def test_d2_s_anticommute(rng):
    # with the arity dressing on the homotopy, d2 s + s d2 = 0 exactly
    for n in (1, 2):
        sym = SymplecticData.canonical(n)
        for _ in range(10):
            f = template_form_cochain(rng, sym, rng.choice((1, 2)))
            lhs = hochschild_d2(cochain_s(f))
            rhs = cochain_s(hochschild_d2(f))
            for args in weyl_tuples(rng, sym, f.arity + 1, 2, 2):
                assert (lhs(*args) + rhs(*args)).is_zero()


def test_d_ext_anticommute(rng):
    for n in (1, 2):
        sym = SymplecticData.canonical(n)
        for _ in range(10):
            f = template_form_cochain(rng, sym, rng.choice((1, 2)))
            lhs = hochschild_d(cochain_ext_d(f))
            rhs = cochain_ext_d(hochschild_d(f))
            for args in weyl_tuples(rng, sym, f.arity + 1, 2, 2):
                assert (lhs(*args) + rhs(*args)).is_zero()


def test_normalized_subcomplex(rng):
    sym = SymplecticData.canonical(1)
    from weylhh.ffs import ffs_cocycle

    tau = ffs_cocycle(sym)
    df = hochschild_d(tau)
    one = WeylElement.one(sym)
    for _ in range(10):
        a = random_weyl(rng, sym, 3)
        b = random_weyl(rng, sym, 3)
        for args in ((one, a, b), (a, one, b), (a, b, one)):
            assert df(*args).is_zero()


def test_wedge_eval_convention(sym1):
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)

    def fn(a, b):
        return star(a, b)

    f = dual_cochain(sym1, 2, fn)
    anti = wedge_eval(f, (y1, y2))
    want = star(y1, y2) - star(y2, y1)
    assert anti == want.scale(Scalar.of(Fraction(1, 2)))
    with pytest.raises(AmbientMismatchError, match="arity"):
        wedge_eval(f, (y1, y2, y1))


def test_pair_chain_values(sym1):
    from weylhh.ffs import ffs_cocycle

    zero = dual_cochain(sym1, 2, lambda a, b: WeylElement(Poly(), sym1))
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)
    c2 = Chain([(WeylElement.one(sym1), (y1, y2))])
    assert pair_chain(zero, c2) == Scalar.of(0)
    tau = ffs_cocycle(sym1)
    assert pair_chain(tau, c2) == Scalar.of(Fraction(1, 2))


def certificate_chain(kind, n):
    """(ambient, right twist, chain): the volume chain (1, (y_1, ..., y_2n)),
    or twisted_cycle for -1 or a preset element, with its sector's twist."""
    sym = SymplecticData.canonical(n)
    if kind == "volume":
        gens = tuple(WeylElement.generator(j, sym) for j in range(1, 2 * n + 1))
        return sym, involution, Chain([(WeylElement.one(sym), gens)])
    g = GroupElement.diagonal([-ONE, -ONE]) if kind == "-1" else higher_spin_preset()[2][kind]
    return sym, group_twist(g.matrix), twisted_cycle(sym, g, truncation=8)


def stripped_products(rng, sym, arity):
    """(a_1 - a_1(0)) * ... * (a_p - a_p(0)) * m for a random m."""
    m = random_weyl(rng, sym, 3)
    return lambda *args: reduce(star, [WeylElement(a.poly - Poly.const(a.poly.constant_term()),
                                                   sym) for a in args] + [m])


def monomial_maps(rng, sym, arity):
    """L_1(a_1) * ... * L_p(a_p), each L_k a random linear map on the monomials
    of degree 1 and 2, zero on the unit and above degree 2."""
    keys = [k for b in monomials_upto(sym, 2) if b.degree() for k in b.poly.terms]
    maps = [{k: random_weyl(rng, sym, 2) for k in keys} for _ in range(arity)]
    return lambda *args: reduce(star, [
        sum((L[k].scale(c) for k, c in a.poly.terms.items() if k in L), WeylElement(Poly(), sym))
        for L, a in zip(maps, args)])


@pytest.mark.parametrize("kind, n", [("volume", 1), ("volume", 2), ("-1", 1), ("kappa", 2),
                                     ("kappabar", 2), ("kappakappabar", 2)])
@pytest.mark.parametrize("family", [stripped_products, monomial_maps])
def test_coboundaries_pair_to_zero(kind, n, family):
    # A pairing certifies a cocycle only against a cycle: the coboundary of
    # every normalized cochain with the chain's twist pairs to zero with it
    # (kappakappabar is -1 at n = 2).
    sym, twist, chain = certificate_chain(kind, n)
    arity = len(chain.terms[0][1]) - 1
    rng = random.Random(f"{kind} {n} {family.__name__}")
    for _ in range(3):
        beta = Cochain(arity, sym, twist, family(rng, sym, arity))
        assert pair_chain(hochschild_d(beta), chain) == Scalar.of(0)


def test_verify_cocycle_on_coboundary(sym1, rng):
    m = random_weyl(rng, sym1, 2)
    g = dual_cochain(sym1, 1, lambda a: star(a, m))
    dg = hochschild_d(g)
    report = verify_cocycle(dg, SampleSpec(seed=5, count=15, max_degree=3))
    assert report.ok
    assert report.checked == 15


def test_verify_cocycle_negative_control(sym1):
    from weylhh.ffs import ffs_cocycle

    tau = ffs_cocycle(sym1)

    def perturbed(a, b):
        return tau(a, b) + star(a, b)

    bad = dual_cochain(sym1, 2, perturbed)
    samples = SampleSpec(seed=7, count=15, max_degree=2)
    report = verify_cocycle(bad, samples)
    assert not report.ok
    # The report names the first failing tuple's residual: its lowest-degree
    # term and that degree.
    d_bad = hochschild_d(bad)
    args, residual = next((args, v) for args in cocycle_tuples(bad, samples)
                          if not (v := d_bad(*args)).is_zero())
    low = min(map(mono_degree, residual.poly.terms))
    terms = [str(WeylElement(Poly({m: c}), sym1))
             for m, c in residual.poly.terms.items() if mono_degree(m) == low]
    prefix = "(" + ", ".join(map(str, args)) + "): residual "
    assert report.first_failure.startswith(prefix)
    assert report.first_failure.endswith(f" at degree {low}")
    assert report.first_failure[len(prefix):-len(f" at degree {low}")] in terms


def test_report_json_contract(sym1):
    from weylhh.ffs import ffs_cocycle

    report = verify_cocycle(ffs_cocycle(sym1),
                            SampleSpec(seed=3, count=4, max_degree=2))
    obj = report.to_json()
    assert set(obj) >= {"checked", "passed", "first_failure", "seed",
                        "degree_bound"}
    assert obj["checked"] == 4 and obj["passed"] == 4
    assert obj["first_failure"] is None
    assert obj["seed"] == 3


def test_report_that_checked_nothing_is_not_ok(sym1):
    from weylhh.ffs import ffs_cocycle

    f = ffs_cocycle(sym1)
    empty = verify_cocycle(f, SampleSpec(seed=0, count=0, max_degree=1))
    assert empty.checked == 0 and not empty.ok
    assert verify_cocycle(f, SampleSpec(seed=0, count=1, max_degree=1)).ok


def test_reports_do_not_share_detail():
    first, second = Report(0, 0), Report(0, 0)
    first.detail["lines"] = []
    assert second.detail == {} and "detail" not in second.to_json()

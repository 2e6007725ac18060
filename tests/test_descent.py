import itertools
import random
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from weylhh import descent, linalg
from weylhh.descent import (SuffixCache, auto_budget,
                            build_trace, descend, descent_cocycle, make_zeta,
                            verify_descent)
from weylhh.errors import BudgetError
from weylhh.ffs import cached_symbol, ffs_apply, monomial_table
from weylhh.forms import FormElement, ext_d, form_star, homotopy_s
from weylhh.groups import GroupElement, make_zeta_g, twisted_cocycle, twisted_cycle
from weylhh.hochschild import (SampleSpec, hochschild_d, pair_chain, verify_cocycle,
                               wedge_eval)
from weylhh.poly import Poly, Y, Z
from weylhh.sampling import monomials_upto, random_scalar, random_weyl
from weylhh.scalars import I, ZERO, Scalar
from weylhh.weyl import SymplecticData, WeylElement, _star_kernel, supertrace

from oracles import invariance_defect, leibniz_det, theta_equation_defects


def frac(a, b):
    return Scalar.of(Fraction(a, b))


def test_zeta_expansion_low_orders(sym1):
    z = make_zeta(sym1)
    assert z.expand(0).components == {(1, 2): Poly.one()}
    assert z.expand(1).components == {(1, 2): Poly.one()}
    # degree two holds exactly the one-term Taylor content:
    # 1 + 2i (z2 y1 - z1 y2) against the volume form, with omega.pi = id
    first = z.expand(2)
    want = (Poly.one()
            + Poly.monomial([(Y, 1, 1), (Z, 2, 1)], Scalar.of(0, 2))
            - Poly.monomial([(Y, 2, 1), (Z, 1, 1)], Scalar.of(0, 2)))
    assert first.components == {(1, 2): want}


def test_zeta_top_form_closed(sym1):
    z = make_zeta(sym1)
    assert ext_d(z.expand(6)).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_generator_invariance(n):
    sym = SymplecticData.canonical(n)
    z = make_zeta(sym)
    for degree in (4, 6, 8):
        for j in range(1, 2 * n + 1):
            assert invariance_defect(z, j, degree).is_zero()


def test_twisted_generator_identity_element(sym1):
    e = GroupElement.identity(2)
    zg = make_zeta_g(sym1, e)
    assert zg.form_degree == 0
    assert zg.expand(4) == FormElement.from_poly(Poly.one(), sym1, truncation=4)


def test_descend_identity_twist(sym1, sym2):
    # The identity moves nothing: its generator is the 0-form 1, which takes
    # no argument and no homotopy, so its value is 1 to the budget; it has
    # no descent ladder to trace.
    for sym in (sym1, sym2):
        zg = make_zeta_g(sym, GroupElement.identity(2 * sym.n))
        one = WeylElement.one(sym)
        assert descend(zg, []) == one.restrict(auto_budget([], sym.n))
        assert descend(zg, [], budget=0) == one.restrict(0)
        with pytest.raises(BudgetError, match=r"^budget -1 is below 0, the argument "
                                              r"degrees \[\] less one per homotopy$"):
            descend(zg, [], budget=-1)
        assert descent_cocycle(zg)() == one.restrict(auto_budget([], sym.n))
        with pytest.raises(ValueError, match="takes 0 arguments"):
            descend(zg, [one])
        with pytest.raises(ValueError, match="no descent ladder"):
            build_trace(zg, 4)


def test_twisted_generator_reflection(sym1):
    minus = GroupElement.diagonal([Scalar.of(-1), Scalar.of(-1)], "-1")
    zg = make_zeta_g(sym1, minus)
    z = make_zeta(sym1)
    # the exponent doubles into the untwisted one and the prefactor is the
    # negated volume form: zeta_g = -zeta exactly, order by order
    assert zg.quad == z.quad
    assert zg.prefactor == FormElement({(1, 2): -Poly.one()}, sym1)
    for d in (2, 5):
        assert zg.expand(d) == z.expand(d).scale(Scalar.of(-1))


def test_twisted_generator_invariance_quarter_turn(sym1):
    gi = GroupElement.diagonal([Scalar.of(0, 1), Scalar.of(0, -1)], "i")
    zg = make_zeta_g(sym1, gi)
    for degree in (3, 5, 7):
        for j in (1, 2):
            assert invariance_defect(zg, j, degree).is_zero()


def test_twisted_generator_invariance_klein(sym2):
    kappa = GroupElement.diagonal(
        [Scalar.of(-1), Scalar.of(-1), Scalar.of(1), Scalar.of(1)], "kappa")
    zg = make_zeta_g(sym2, kappa)
    assert zg.form_degree == 2
    for degree in (3, 5):
        for j in range(1, 5):
            assert invariance_defect(zg, j, degree).is_zero()


def test_descend_generators(sym1):
    z = make_zeta(sym1)
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)
    v = descend(z, [y1, y2])
    assert v.poly == Poly.const(frac(1, 2))
    v_swapped = descend(z, [y2, y1])
    assert v_swapped.poly == Poly.const(frac(-1, 2))


def test_volume_chain_value_through_rank_six():
    # (y1 .. y2n) has a z cap of 0 at every level, so each suffix cache
    # expands the generator to its prefactor alone, not to the budget: the
    # value 1/(2n)! for n = 3 .. 6 takes well under a second together
    # (expanded to the budget, n = 5 took 30 s).
    start = time.process_time()
    for n in range(3, 7):
        sym = SymplecticData.canonical(n)
        gens = [WeylElement.generator(j, sym) for j in range(1, 2 * n + 1)]
        assert descend(make_zeta(sym), gens).poly == Poly.const(frac(1, factorial(2 * n)))
    assert time.process_time() - start < 1


def test_minus_sector_is_the_untwisted_cocycle_up_to_sign(sym1, sym2):
    # The FFS symbol is a second route for the -1 sector: its descent value
    # times (-1)^n equals ffs_apply on criterion 06's n = 1 pairs (every
    # monomial pair of total degree <= 6) and on a sample of n = 2
    # 4-tuples of slot degree 1 or 2.
    minus1 = make_zeta_g(sym1, GroupElement.diagonal([Scalar.of(-1)] * 2, "-1"))
    monos = monomials_upto(sym1, 6)
    pairs = [(a, b) for a, b in itertools.product(monos, repeat=2)
             if a.degree() + b.degree() <= 6]
    for a, b in pairs:
        d = descend(minus1, [a, b])
        f = ffs_apply(cached_symbol(1, 8), [a, b])
        assert f.restrict(d.truncation) == -d
    minus2 = make_zeta_g(sym2, GroupElement.diagonal([Scalar.of(-1)] * 4, "-1"))
    rng = random.Random("minus-sector-n2")
    monos = monomials_upto(sym2, 2)[1:]  # a unit argument gives 0
    for _ in range(60):
        tup = [rng.choice(monos) for _ in range(4)]
        d = descend(minus2, tup)
        f = ffs_apply(cached_symbol(2, 8), tup)
        assert f.restrict(d.truncation) == d


def test_descend_unit_argument_kills(sym1, rng):
    z = make_zeta(sym1)
    one = WeylElement.one(sym1)
    for _ in range(5):
        a = random_weyl(rng, sym1, 3)
        assert descend(z, [one, a]).is_zero()
        assert descend(z, [a, one]).is_zero()


def test_budget_error_surfaces(sym1):
    z = make_zeta(sym1)
    a = WeylElement(Poly.monomial([(Y, 1, 2)]), sym1)
    b = WeylElement(Poly.monomial([(Y, 2, 2)]), sym1)
    with pytest.raises(BudgetError):
        descend(z, [a, b], budget=1)


def test_cross_route_monomials_n1(sym1):
    z = make_zeta(sym1)
    symbol = cached_symbol(1, 6)
    for m1, m2 in itertools.product(monomials_upto(sym1, 3), repeat=2):
        d = descend(z, [m1, m2])
        f = ffs_apply(symbol, [m1, m2])
        assert f.restrict(d.truncation) == d


def test_cross_route_random_n1(sym1, rng):
    z = make_zeta(sym1)
    symbol = cached_symbol(1, 8)
    for _ in range(20):
        a = random_weyl(rng, sym1, 4)
        b = random_weyl(rng, sym1, 4)
        d = descend(z, [a, b])
        f = ffs_apply(symbol, [a, b])
        assert f.restrict(d.truncation) == d


def test_cross_route_n2_generators(sym2):
    z = make_zeta(sym2)
    gens = [WeylElement.generator(j, sym2) for j in (1, 2, 3, 4)]
    d = descend(z, gens)
    f = ffs_apply(cached_symbol(2, 4), gens)
    assert f.restrict(d.truncation) == d
    assert f.poly == Poly.const(frac(1, 24))


def test_descent_cocycle_verifies(sym1):
    tau = descent_cocycle(make_zeta(sym1))
    report = verify_cocycle(tau, SampleSpec(seed=31, count=10, max_degree=2))
    assert report.ok


def test_trace_identities(sym1):
    trace = build_trace(make_zeta(sym1), budget=8)
    report = verify_descent(trace, seed=5, count=3, max_degree=2)
    assert report.ok, report.detail


def test_trace_identities_n2(sym2):
    # At n = 2 the ladder has four rungs, so its bottom xi_0 is the last of
    # them, not the second as at n = 1.
    trace = build_trace(make_zeta(sym2), budget=6)
    report = verify_descent(trace, seed=5, count=1, max_degree=1)
    assert report.ok and report.checked == 5, report.detail


def test_trace_identities_twisted(sym1):
    minus = GroupElement.diagonal([Scalar.of(-1), Scalar.of(-1)], "-1")
    trace = build_trace(make_zeta_g(sym1, minus), budget=8)
    report = verify_descent(trace, seed=6, count=3, max_degree=2)
    assert report.ok, report.detail


def test_trace_negative_control(sym1):
    # dropping the homotopy from one rung must break the matching identity
    trace = build_trace(make_zeta(sym1), budget=8)
    from weylhh.hochschild import hochschild_d

    corrupted = hochschild_d(trace.xis[0]).map_values(lambda v: -v)
    trace.xis[1] = corrupted
    report = verify_descent(trace, seed=7, count=3, max_degree=1)
    assert not report.ok
    # Each FAIL line names the residual's lowest-degree term and its degree.
    first = "d-level-1 ((1)y2,): residual [(-1/2i)] dz2 at degree 0"
    assert report.first_failure == first
    assert report.detail["lines"][0] == f"FAIL {first}"


def test_suffix_cache_matches_descend(sym1, rng):
    z = make_zeta(sym1)
    cache = SuffixCache(z, budget=10, slot_degree=3)
    for _ in range(10):
        a = random_weyl(rng, sym1, 3)
        b = random_weyl(rng, sym1, 3)
        via_cache = cache.value((a, b))
        direct = descend(z, [a, b])
        t = min(via_cache.truncation, direct.truncation)
        assert via_cache.restrict(t) == direct.restrict(t)


def test_suffix_cache_homotopy_once_per_entry(monkeypatch, sym1):
    # s runs once per suffix: once per `_cache` entry, the right factor of
    # every argument in front of that tail, and once per `_final` table for
    # the longest suffixes, which only their table reads and which therefore
    # skip `_cache`; a hit never calls it.
    calls = []
    real = descent.homotopy_s

    def counted(form):
        calls.append(form)
        return real(form)

    monkeypatch.setattr(descent, "homotopy_s", counted)
    cache = SuffixCache(make_zeta(sym1), budget=8, slot_degree=1)
    basis = [WeylElement.one(sym1)] + [WeylElement.generator(j, sym1)
                                      for j in (1, 2)]
    for args in itertools.product(basis, repeat=2):
        cache.value(args)
    assert len(calls) == len(cache._cache) + len(cache._final) == len(basis) + 1
    for args in itertools.product(basis, repeat=2):
        cache.value(args)
    assert len(calls) == len(cache._cache) + len(cache._final)


def test_suffix_cache_keyed_by_value(sym1):
    # Equal arguments built apart share one entry: the cache keys by value,
    # not by identity.
    cache = SuffixCache(make_zeta(sym1), budget=8, slot_degree=1)

    def fresh(j):
        return WeylElement(Poly.variable(Y, j), sym1)

    first = cache.value((fresh(1), fresh(2)))
    other_head = cache.value((fresh(2), fresh(2)))
    assert len(cache._final) == 1
    assert cache.value((fresh(1), fresh(2))) == first != other_head
    cache.value((fresh(2), fresh(1)))
    assert len(cache._final) == 2


def test_suffix_cache_refuses_wrong_arity(sym2):
    # As descend does: a short tuple or a long one is not a value of zero.
    cache = SuffixCache(make_zeta(sym2), budget=12, slot_degree=2)
    y1, y2 = WeylElement.generator(1, sym2), WeylElement.generator(2, sym2)
    for args in [(y1, y2), (y1, y2, y1, y2, y1)]:
        with pytest.raises(ValueError, match="form degree 4 takes 4 arguments"):
            cache.value(args)
    with pytest.raises(ValueError, match="form degree 4 takes 4 slot degree bounds"):
        SuffixCache(make_zeta(sym2), budget=12, slot_degree=[2, 2])


def test_suffix_cache_refuses_argument_past_its_slot_bound(sym1):
    # A degree-2 argument in a slot bounded by 1 would read cut suffixes.
    cache = SuffixCache(make_zeta(sym1), budget=8, slot_degree=1)
    y1 = WeylElement.generator(1, sym1)
    y1_squared = WeylElement(Poly.monomial([(Y, 1, 2)]), sym1)
    with pytest.raises(BudgetError, match="exceeds the cache's slot bound"):
        cache.value((y1_squared, y1))


def _full_differential_value(gen, args, degree):
    """The last descent step through the complete Hochschild differential of
    the ladder bottom instead of its first term alone, projected to z = 0."""
    trace = build_trace(gen, degree)
    form = hochschild_d(trace.xis[-1])(*args).scale(Scalar.of(-1))
    poly = form.component(()).set_bank_zero(Z)
    return WeylElement(poly, gen.ambient, form.truncation)


def test_full_differential_route_agrees(sym1, rng):
    # the complete-differential route must reproduce the first-term-only
    # alternation after the z = 0 projection (the extra terms have no
    # z-constant part)
    z = make_zeta(sym1)
    for _ in range(5):
        a = random_weyl(rng, sym1, 2)
        b = random_weyl(rng, sym1, 2)
        via_full = _full_differential_value(z, [a, b], 10)
        direct = descend(z, [a, b], budget=10)
        t = min(via_full.truncation, direct.truncation)
        assert via_full.restrict(t) == direct.restrict(t)


def test_full_differential_pairing(sym1):
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)
    gen = make_zeta(sym1)
    budget = auto_budget([y1, y2], 1)
    v = _full_differential_value(gen, [y1, y2], budget)
    # the budget+2 stability recheck descend makes on its own route
    recomputed = _full_differential_value(gen, [y1, y2], budget + 2)
    assert recomputed.restrict(v.truncation) == v
    assert v.poly == Poly.const(frac(1, 2))


def test_stability_assertion_runs(sym1):
    z = make_zeta(sym1)
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)
    v1 = descend(z, [y1, y2])
    v2 = descend(z, [y1, y2], budget=auto_budget([y1, y2], 1) + 2)
    assert v2.restrict(v1.truncation) == v1


@st.composite
def heads_and_tails(draw):
    """An n = 1 head and tail argument of degree <= 2, as polynomials."""
    sym = SymplecticData.canonical(1)
    term = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                     st.lists(st.integers(1, 2), max_size=2))

    def element():
        poly = Poly.zero()
        for re, im, factors in draw(st.lists(term, max_size=3)):
            poly = poly + Poly.monomial([(Y, i, 1) for i in factors],
                                        Scalar.of(re, im))
        return WeylElement(poly, sym)

    return element(), element()


def _table_is_projected_kernel(budget, heads, rest) -> bool:
    """value reads the suffix's z = 0 derivative table; it must equal each
    head's whole star product with s(tail)'s 0-form, projected to z = 0."""
    sym = rest[0].ambient
    cache = SuffixCache(make_zeta(sym), budget=budget, slot_degree=2)
    f = cache.tail(rest).component(())
    return all(cache.value((head,) + rest)
               == WeylElement(_star_kernel(head.poly, f, sym).set_bank_zero(Z),
                              sym, cache.target)
               for head in heads)


@settings(max_examples=40)
@given(heads_and_tails())
def test_suffix_cache_table_is_projected_kernel(args):
    # The drawn head and every monomial head in front of a drawn n = 1 tail.
    heads = [args[0]] + monomials_upto(args[0].ambient, 2)
    for budget in (8, 10):
        assert _table_is_projected_kernel(budget, heads, args[1:])


def test_suffix_cache_table_n2(sym2):
    # Every monomial head of degree <= 2 in front of one n = 2 suffix.
    y = [WeylElement.generator(j, sym2) for j in range(1, 5)]
    rest = (y[1] * y[2], y[0], y[3] * y[3])
    for budget in (12, 14):
        assert _table_is_projected_kernel(budget, monomials_upto(sym2, 2), rest)


def test_budget_error_names_residual(monkeypatch, sym1):
    # The budget+2 value differs from the budget's in degrees 3 and 4: the
    # error names the lowest of them and the residual there.
    real = SuffixCache.value

    def unstable(self, args):
        value = real(self, args)
        if self.budget == 8 + len(args):
            return value
        extra = (Poly.monomial([(Y, 1, 1), (Y, 2, 2)], Scalar.of(5))
                 + Poly.monomial([(Y, 1, 4)]))
        return WeylElement(value.poly + extra, sym1, value.truncation)

    monkeypatch.setattr(SuffixCache, "value", unstable)
    y1, y2 = WeylElement.generator(1, sym1), WeylElement.generator(2, sym1)
    with pytest.raises(BudgetError, match=r"at degree 3, \(5\)y1y2\^2;"):
        descend(make_zeta(sym1), [y1, y2], budget=8)


def test_budget_below_argument_degrees_names_them(sym1):
    a = WeylElement(Poly.monomial([(Y, 1, 2)]), sym1)
    with pytest.raises(BudgetError, match=r"budget 1 is below 2, the argument "
                                          r"degrees \[2, 2\] less one per homotopy"):
        descend(make_zeta(sym1), [a, a], budget=1)
    with pytest.raises(BudgetError, match=r"budget 3 is below 4, the sum of "
                                          r"the slot degree bounds \[2, 2\]"):
        SuffixCache(make_zeta(sym1), 3, 2)
    # (1, y2^2) at budget 0 passes the whole tuple's bound (2 - 2 = 0), but
    # the last argument's product needs 2 - 1: the precheck names that
    # suffix before any SuffixCache is built.
    one, b = WeylElement.one(sym1), WeylElement(Poly.monomial([(Y, 2, 2)]), sym1)
    gen = make_zeta(sym1)
    with pytest.raises(BudgetError, match=r"^budget 0 is below 1, the last 1 "
                                          r"argument degrees \[2\] less one per "
                                          r"homotopy$"):
        descend(gen, [one, b], budget=0)
    assert not gen._suffix_caches
    assert descend(gen, [one, b], budget=1).is_zero()


def reference_chain_value(gen, args, degree):
    """The alternation by one capped form_star per argument, from the last:
    with args[:k] still to come, the level keeps z-degree <= sum(deg - 1)
    over them and total degree <= the target plus that."""
    degrees = [a.degree() for a in args]
    target = degree + len(args) - sum(degrees)
    z_caps = [sum(degrees[:k]) - k for k in range(len(args) + 1)]
    expanded = gen.expand(degree)
    value = FormElement({i: p.capped(z_caps[-1], target + z_caps[-1])
                         for i, p in expanded.components.items()},
                        gen.ambient, degree)
    for k in range(len(args) - 1, -1, -1):
        value = form_star(args[k], homotopy_s(value), (z_caps[k], target + z_caps[k]))
    assert set(value.components) <= {()}
    poly = value.component(()).set_bank_zero(Z)
    return WeylElement(poly, gen.ambient, value.truncation)


def reference_descend(gen, args, budget):
    d = auto_budget(args, gen.ambient.n) if budget is None else budget
    value = reference_chain_value(gen, args, d)
    recomputed = reference_chain_value(gen, args, d + 2)
    if recomputed.restrict(value.truncation) != value:
        raise BudgetError("unstable")
    return value


def budget_outcome(fn, *args):
    try:
        value = fn(*args)
    except BudgetError:
        return "BudgetError"
    return value.truncation, value.poly


def mixed_degree_arg(rng, sym, degree):
    """A sum of a monomial of exactly this degree and lower-degree noise."""
    exps = [0] * (2 * sym.n)
    for _ in range(degree):
        exps[rng.randrange(len(exps))] += 1
    top = Poly.monomial([(Y, i + 1, e) for i, e in enumerate(exps) if e],
                        random_scalar(rng))
    noise = random_weyl(rng, sym, max(degree - 1, 0), terms=2)
    return WeylElement(top + noise.poly, sym)


@pytest.mark.parametrize("case", ["zeta-n1", "zeta_-1-n1", "zeta-n2"])
def test_descend_matches_reference_chain(case):
    # Each slot's degree is its own cap: descend through the cache against
    # the per-argument chain it replaced, on arguments of unequal degrees,
    # at the automatic budget and at budgets small enough to fail.
    rng = random.Random(f"descend-{case}")
    n = 2 if case == "zeta-n2" else 1
    sym = SymplecticData.canonical(n)
    if case == "zeta_-1-n1":
        gen = make_zeta_g(sym, GroupElement.diagonal([Scalar.of(-1)] * 2, "-1"))
    else:
        gen = make_zeta(sym)
    p = gen.form_degree
    top, count = (2, 32) if n == 2 else (4, 48)
    outcomes = set()
    for _ in range(count):
        degrees = [rng.randint(1, top) for _ in range(p)]
        args = [mixed_degree_arg(rng, sym, d) for d in degrees]
        # Explicit budgets straddle the least one, sum(degrees) - p.
        low = sum(degrees) - p
        budget = rng.choice([None, rng.randint(max(low - 2, 0), low + 2)])
        rng.random()  # unused; drawn so the sampled cases stay fixed
        got = budget_outcome(descend, gen, args, budget)
        assert got == budget_outcome(reference_descend, gen, args, budget)
        outcomes.add(got if got == "BudgetError" else "value")
    assert outcomes == {"BudgetError", "value"}


def test_descend_reuses_generator_caches(sym1):
    # A second descend with the same degree profile and suffix reads the
    # caches the first built (one at the budget, one for the budget+2
    # recheck, each raised by the two homotopies): no new cache, no new
    # tail or table entry, and the value a fresh generator gives.
    a1, a2, b = (WeylElement(Poly.monomial([(Y, 1, 2)]), sym1),
                 WeylElement(Poly.monomial([(Y, 1, 1), (Y, 2, 1)]), sym1),
                 WeylElement.generator(2, sym1))
    zeta = make_zeta(sym1)
    descend(zeta, [a1, b])
    caches = dict(zeta._suffix_caches)
    d = auto_budget([a1, b], 1)
    assert sorted(caches) == [(d + 2, (2, 1)), (d + 4, (2, 1))]
    sizes = [(len(c._cache), len(c._final)) for c in caches.values()]
    value = descend(zeta, [a2, b])
    assert zeta._suffix_caches == caches and len(caches) == 2
    assert [(len(c._cache), len(c._final)) for c in caches.values()] == sizes
    assert value == descend(make_zeta(sym1), [a2, b])


def test_degree_one_sweep_n3():
    # Every 6-tuple of n = 3 generators through suffix caches at two budgets
    # (stability), against the exact monomial-basis table of the symbol.
    sym3 = SymplecticData.canonical(3)
    zeta = make_zeta(sym3)
    table = monomial_table(cached_symbol(3, 6), sym3, 1)
    gens = [WeylElement.generator(j, sym3) for j in range(1, 7)]
    lo = SuffixCache(zeta, budget=6, slot_degree=1)
    hi = SuffixCache(zeta, budget=8, slot_degree=1)
    mismatches = unstable = 0
    for tup in itertools.product(gens, repeat=6):
        v1, v2 = lo.value(tup), hi.value(tup)
        unstable += v2.restrict(v1.truncation) != v1
        key = tuple(next(iter(g.poly.terms)) for g in tup)
        mismatches += table.get(key, Poly.zero()).truncate(v1.truncation) != v1.poly
    assert (mismatches, unstable) == (0, 0)
    assert len(table) == 720


def one_object_each(values) -> bool:
    """Whether equal values among those held are one object."""
    seen = {}
    return all(seen.setdefault(v, v) is v for v in values)


def held(polys):
    """Every key int and coefficient of the polys, repeats included."""
    return [x for p in polys for term in p.terms.items() for x in term]


def test_caches_hold_one_object_per_key_and_coefficient(sym2):
    # What a SuffixCache keeps (its tails, its z = 0 tables and their
    # gamma keys) and monomial_table's values hold each distinct key int and
    # coefficient once, where the values alone repeat them; every value
    # still equals the symbol route's.
    table = monomial_table(cached_symbol(2, 8), sym2, 2)
    y = [WeylElement.generator(j, sym2) for j in range(1, 5)]
    monos = [y[0], y[2] * y[3], y[1] * y[1]]
    zeta = make_zeta(sym2)
    for budget in (12, 14):
        cache = SuffixCache(zeta, budget, 2)
        for tup in itertools.product(monos, repeat=4):
            value = cache.value(tup)
            key = tuple(next(iter(a.poly.terms)) for a in tup)
            assert table.get(key, Poly.zero()).truncate(value.truncation) == value.poly
        kept = held(p for tail in cache._cache.values() for p in tail.components.values())
        kept += held(p for entries in cache._final.values() for p in entries.values())
        kept += [g for entries in cache._final.values() for g in entries]
        assert len(kept) > 2 * len(set(kept)) and one_object_each(kept)
    values = held(table.values())
    assert len(values) > 2 * len(set(values)) and one_object_each(values)


@pytest.mark.parametrize("moved, pairing",
                         [(1, frac(1, 2)), (2, frac(1, 24)), (3, frac(1, 720))])
def test_twisted_cocycles_n3(moved, pairing):
    # The rank-2, rank-4 and rank-6 twists diag(-1, .., -1, 1, ..) at n = 3:
    # each cocycle verifies, its cycle coefficient solves its defining
    # equations, and the pair comes to 1/(2k)!.  The rank-6 pairing's 720
    # orderings share the generator's two suffix caches.
    sym3 = SymplecticData.canonical(3)
    signs = [Scalar.of(-1)] * (2 * moved) + [Scalar.of(1)] * (6 - 2 * moved)
    g = GroupElement.diagonal(signs, f"rank{2 * moved}")
    tau = twisted_cocycle(sym3, g)
    report = verify_cocycle(tau, SampleSpec(seed=3, count=3, max_degree=1))
    assert (report.passed, report.checked) == (3, 3)
    assert all(d.is_zero() for d in theta_equation_defects(sym3, g, truncation=10))
    assert pair_chain(tau, twisted_cycle(sym3, g, truncation=10)) == pairing


HALF = frac(1, 2)


def integer_rows(rows):
    return [[x if isinstance(x, Scalar) else Scalar.of(x) for x in row] for row in rows]


Z3_PLUS_ONE = [[0, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
MIXER = integer_rows([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]])


@pytest.mark.parametrize("rows, pairing", [
    ([[-1, 0], [0, -1]], frac(1, 2)),
    ([[I, 0], [0, -I]], frac(1, 4)),
    ([[2, 0], [0, HALF]], frac(-1, 16)),
    ([[3, 0], [0, frac(1, 3)]], frac(-1, 6)),
    ([[I, 0, 0, 0], [0, -I, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], frac(1, 4)),
    ([[0, 1], [-1, -1]], frac(3, 8)),  # Z3
    ([[-1, -1], [1, 0]], frac(3, 8)),  # its square
    ([[0, 1], [-1, 0]], frac(1, 4)),  # Z4
    ([[1, 1], [-1, 0]], frac(1, 8)),  # Z6
    ([[0, I], [I, 0]], frac(1, 4)),  # in Q8
    (Z3_PLUS_ONE, frac(3, 8)),
    (linalg.mat_mul(linalg.mat_inverse(MIXER),
                    linalg.mat_mul(integer_rows(Z3_PLUS_ONE), MIXER)), frac(3, 8)),
])
def test_twisted_pairing_is_det_over_factorial(rows, pairing):
    # The pairing is det((1 - g)/2) on the moved sector over (2k)!, not
    # 1/(2k)! alone: the two agree only where that determinant is 1, as for
    # g = -1.  On the moved sector means det((1 - g)/2 + Q), with Q the
    # fixed-sector projector, which is 1 on the fixed sector.  wedge_eval
    # reads the pairing here, term by term of twisted_cycle's chain: at
    # n = 1 (and with one moved pair at n = 2) each value is a constant and
    # theta(0) = 1, so B(c theta, value) is c times that constant.
    # (pair_chain refuses where theta is a series, as for g = diag(i, -i).)
    g = GroupElement.from_rows(integer_rows(rows), "g")
    sym = SymplecticData.canonical(g.size // 2)
    half_moved = [[c * HALF + q for c, q in zip(r, rq)] for r, rq in zip(
        linalg.mat_sub(linalg.identity(g.size), g.matrix),
        g.fixed_projector())]
    assert leibniz_det(half_moved).scale_fraction(1, 2) == pairing  # k = 1: (2k)! = 2
    tau = twisted_cocycle(sym, g)
    total = ZERO
    for theta, args in twisted_cycle(sym, g, truncation=4).terms:
        value = wedge_eval(tau, args)
        assert value.poly == Poly.const(supertrace(value))
        total = total + supertrace(theta) * supertrace(value)
    assert total == pairing

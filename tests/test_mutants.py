"""Known-wrong variants of the kernels, each caught by its oracle.

Every case installs one mutant with monkeypatch: the real function's source
with one known-wrong edit, compiled in a copy of its module's namespace.  It
then runs the oracle that guards that kernel at the smallest size that
catches the mutant, and checks that the oracle holds on the real code and
reports the mismatch on the mutant.  A refactor of a kernel that makes one of
these edits miss (the source no longer contains it) fails here too, so the
list is kept in step with the code it mutates.  Installing a mutant empties
the value memos (ffs.clear_memos), so no value an earlier call kept reaches
the mutated code, and every test ends by emptying them again, so no value
the mutant made outlives it.
"""

import __future__
import inspect
import itertools
import textwrap
from fractions import Fraction

import pytest

from weylhh import (descent, ffs, forms, groups, hochschild, linalg, poly, scalars,
                    simplex, weyl)
from weylhh.descent import SuffixCache, descend, make_zeta
from weylhh.errors import BudgetError, NonGenericConfigError
from weylhh.ffs import cached_symbol, ffs_apply
from weylhh.forms import FormElement, ext_d, proj_p
from weylhh.hochschild import (SampleSpec, constant_cochain, hochschild_d,
                               pair_chain, verify_cocycle)
from weylhh.poly import Poly, Y, Z
from weylhh.sampling import monomials_upto
from weylhh.scalars import ONE, Scalar
from weylhh.weyl import SymplecticData, WeylElement, involution, star

from oracles import commutator_terms, delta, theta_equation_defects


def install(monkeypatch, module, name, old, new, owner=None, also=()):
    """Replace owner.name (owner defaults to module) by its source with old
    replaced by new; `also` lists further modules that imported it by name."""
    owner = owner or module
    src = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert src.count(old) == 1, f"{name} no longer contains {old!r}"
    namespace = dict(vars(module))
    code = compile(src.replace(old, new), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    for target in (owner,) + tuple(also):
        monkeypatch.setattr(target, name, namespace[name])
    ffs.clear_memos()


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the value memos once the test's monkeypatch has put the real
    functions back: pytest sets autouse fixtures up first and so tears
    this one down last."""
    yield
    ffs.clear_memos()


def y(sym, *exps):
    return WeylElement(Poly.monomial([(Y, i, e) for i, e in enumerate(exps, 1) if e]),
                       sym)


def homotopy_identity_holds(a: FormElement) -> bool:
    """s d + d s = id - p."""
    s = forms.homotopy_s
    return s(ext_d(a)) + ext_d(s(a)) == a - proj_p(a)


def routes_agree(sym, *args, budget=None) -> bool:
    """The descent value against the simplex-symbol value (descend and
    make_zeta are read off their module, so a mutant of either installed
    there is the one run)."""
    d = descent.descend(descent.make_zeta(sym), list(args), budget=budget)
    f = ffs_apply(cached_symbol(sym.n, sum(a.degree() for a in args)), args)
    return f.restrict(d.truncation) == d


def square_route_agrees(a, b) -> bool:
    """The unit-square value against the simplex-symbol value (n = 1)."""
    f = ffs_apply(cached_symbol(1, a.degree() + b.degree()), [a, b])
    return ffs.ffs_hypercube_n1([a, b]) == f


def table_matches_apply(sym, slot_degree) -> bool:
    """monomial_table against ffs_apply on every tuple of basis monomials of
    per-slot degree <= slot_degree (an absent key means zero)."""
    m = 2 * sym.n
    symbol = cached_symbol(sym.n, m * slot_degree)
    table = ffs.monomial_table(symbol, sym, slot_degree)
    for tup in itertools.product(monomials_upto(sym, slot_degree), repeat=m):
        key = tuple(next(iter(a.poly.terms)) for a in tup)
        if table.get(key, Poly.zero()) != ffs_apply(symbol, list(tup)).poly:
            return False
    return True


def uniform_cache_agrees(sym, a, b) -> bool:
    """A SuffixCache value with one int bound for every slot, as bulk
    evaluation builds it, against the simplex-symbol value."""
    slot = max(a.degree(), b.degree())
    budget = 2 * slot + 2 * sym.n + 4
    via_cache = SuffixCache(make_zeta(sym), budget, slot).value((a, b))
    f = ffs_apply(cached_symbol(sym.n, a.degree() + b.degree()), [a, b])
    return f.restrict(via_cache.truncation) == via_cache


def cache_sweep_agrees(sym, slot) -> bool:
    """Every pair of monomials of degree <= slot through one SuffixCache,
    against the simplex-symbol value."""
    cache = SuffixCache(make_zeta(sym), 2 * slot + 2 * sym.n + 4, slot)
    for a, b in itertools.product(monomials_upto(sym, slot), repeat=2):
        value = cache.value((a, b))
        f = ffs_apply(cached_symbol(sym.n, a.degree() + b.degree()), [a, b])
        if f.restrict(value.truncation) != value:
            return False
    return True


def shared_generator_agrees(sym, calls) -> bool:
    """descend through one generator's memoized caches, call after call,
    against a fresh generator per call."""
    zeta = make_zeta(sym)
    try:
        return all(descend(zeta, args, budget) == descend(make_zeta(sym), args, budget)
                   for args, budget in calls)
    except BudgetError:
        return False


# Poly.directional_diff calls and output terms: every pair of n = 1
# monomials of degree <= 2 through one cache at budget 8, then one cold
# descend, whose head table walks every monomial up to the head's degree.
# A cut that stops cutting changes no value, only these.
PINNED_WORK = ((43, 107), (22, 78))


def derivative_work(sym):
    """The derivative work of PINNED_WORK's two runs, as (calls, terms)."""
    real = Poly.directional_diff
    counts = [0, 0]

    def counted(self, *args):
        out = real(self, *args)
        counts[0] += 1
        counts[1] += len(out.terms)
        return out

    zeta = make_zeta(sym)
    monos = monomials_upto(sym, 2)
    Poly.directional_diff = counted
    try:
        cache = SuffixCache(zeta, 8, 2)
        for pair in itertools.product(monos, repeat=2):
            cache.value(pair)
        first = tuple(counts)
        counts[:] = [0, 0]
        descend(zeta, [y(sym, 0, 2), y(sym, 1, 1)])
    finally:
        Poly.directional_diff = real
    return first, tuple(counts)


def hit_work(sym):
    """The Poly.key and Poly.__mul__ calls of a second pass of every pair of
    n = 1 monomials of degree <= 2 through one cache, every suffix cached:
    a hit reads memoized keys and sums its products into one map, making no
    intermediate Poly product."""
    real_key, real_mul = Poly.key, Poly.__mul__
    counts = [0, 0]

    def key(self):
        counts[0] += 1
        return real_key(self)

    def mul(self, other):
        counts[1] += 1
        return real_mul(self, other)

    pairs = list(itertools.product(monomials_upto(sym, 2), repeat=2))
    cache = SuffixCache(make_zeta(sym), 8, 2)
    for pair in pairs:
        cache.value(pair)
    Poly.key, Poly.__mul__ = key, mul
    try:
        for pair in pairs:
            cache.value(pair)
    finally:
        Poly.key, Poly.__mul__ = real_key, real_mul
    return tuple(counts)


def hit_builds(sym):
    """The WeylElement constructions of hit_work's second pass, and the
    nonzero values among them: a zero value is the cache's one zero
    element, so only a nonzero value builds one."""
    real = WeylElement.__init__
    counts = [0]

    def init(self, *args):
        counts[0] += 1
        real(self, *args)

    pairs = list(itertools.product(monomials_upto(sym, 2), repeat=2))
    cache = SuffixCache(make_zeta(sym), 8, 2)
    for pair in pairs:
        cache.value(pair)
    WeylElement.__init__ = init
    try:
        values = [cache.value(pair) for pair in pairs]
    finally:
        WeylElement.__init__ = real
    return counts[0], sum(not v.is_zero() for v in values)


def dz_anticommute(sym) -> bool:
    """dz1 dz2 = -dz2 dz1."""
    dz1, dz2 = FormElement.dz([1], sym), FormElement.dz([2], sym)
    return dz1 * dz2 == -(dz2 * dz1)


def associative(a, b, c) -> bool:
    return star(star(a, b), c) == star(a, star(b, c))


def theta_cocycles_hold(group) -> bool:
    """The degree-2 theta cocycle of every conjugacy class of rank 2 passes
    verify_cocycle."""
    ambient = SymplecticData.canonical(group.identity.size // 2)
    spec = SampleSpec(seed=2, count=3, max_degree=1, group=group)
    return all(
        verify_cocycle(groups.theta_cocycle(
            group, ambient, groups.ClassFunction.indicator(group, cls), 2), spec).ok
        for cls in group.conjugacy_classes() if cls[0].moved_rank() == 2)


def refuses_overflow() -> bool:
    """A product whose y1 field would reach 256 raises."""
    try:
        Poly.monomial([(Y, 1, 255)]) * Poly.monomial([(Y, 1, 1)])
    except ValueError:
        return True
    return False


def test_homotopy_weight_off_by_one(monkeypatch, sym1):
    # 1/(k+q+1) for 1/(k+q): s(dz1) = z1 / 2, so s d + d s gives dz1 / 2.
    a = FormElement.dz([1], sym1)
    assert homotopy_identity_holds(a)
    install(monkeypatch, forms, "homotopy_s",
            "q + mono_z_degree(m)", "q + mono_z_degree(m) + 1")
    assert not homotopy_identity_holds(a)


def test_dropped_alpha_factorial(monkeypatch, sym1):
    # Without alpha! a slot term y^alpha contracts with the wrong weight once
    # some exponent reaches 2: total degree 3 is the least that shows it.
    a, b = y(sym1, 2), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, ffs, "_slot_terms",
            "c.scale_fraction(mono_factorial(mono))", "c")
    assert not routes_agree(sym1, a, b)


def test_pair_factor_without_power(monkeypatch, sym1):
    # One W factor for its count-th power: wrong from the first squared
    # factor on, W01^2 on (y1^3, y2) at total degree 4.
    a, b = y(sym1, 3), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, ffs, "_operator_product", "range(count)", "range(1)")
    assert not routes_agree(sym1, a, b)


def test_det_operator_without_det_pi(monkeypatch, sym1):
    # det(pi) = 1 leaves each permutation's sign as its coefficient; every
    # sign +1 turns the determinant into the permanent.  (y1, y2) reads only
    # the identity permutation and agrees; (y2, y1) reads the odd one.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b) and routes_agree(sym1, b, a)
    install(monkeypatch, ffs, "_det_operator", "ONE if perm_sign(perm) > 0 else -ONE",
            "ONE")
    assert routes_agree(sym1, a, b)
    assert not routes_agree(sym1, b, a)


def test_table_fold_without_coefficient(monkeypatch, sym1):
    # Each operator product walked without the symbol coefficient of its
    # W-monomial as its starting factor: already wrong at n = 1 with slot
    # degree 3, against ffs_apply on every basis pair.
    assert table_matches_apply(sym1, 3)
    install(monkeypatch, ffs, "monomial_table",
            "_operator_product(ambient, mono, None, coeff)",
            "_operator_product(ambient, mono, None)")
    assert not table_matches_apply(sym1, 3)


def test_unbounded_walk_pruned_to_unit_fields(monkeypatch, sym1):
    # The unbounded walk pruned to copy fields of at most 1, as if the box
    # of a need of ones bounded every need: the table loses each term that
    # pairs with a square, first seen at n = 1 with slot degree 2.
    assert table_matches_apply(sym1, 2)
    install(monkeypatch, ffs, "_operator_product", "return p\n",
            "return Poly({k: c for k, c in p.terms.items() if mono_divides(k, "
            "index_mask(2 * ambient.n, Y) | DEGREES "
            "| (index_mask(8, Y) | index_mask(8, Z)) // 255)})\n")
    assert not table_matches_apply(sym1, 2)


def test_table_value_shared_by_its_keys_alone(monkeypatch, sym1):
    # Values shared by their output keys alone, without their coefficients:
    # a row takes the first value seen with its monomials, already wrong at
    # n = 1 with slot degree 3.
    assert table_matches_apply(sym1, 3)
    install(monkeypatch, ffs, "monomial_table", "frozenset(terms.items())",
            "frozenset(terms)")
    assert not table_matches_apply(sym1, 3)


def test_operator_box_gcd_for_lcm(monkeypatch, sym1):
    # The fieldwise minimum for the maximum shrinks the box an operator is
    # built in to what every key of a slot reaches, dropping the groups on
    # its edge: with two degree-1 terms in the first slot, (y1 + y2, y2) at
    # total degree 2 loses its determinant term.  Single-term slots never
    # reach the lcm.
    a, b = y(sym1, 1) + y(sym1, 0, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, poly, "mono_lcm", "map(max,", "map(min,", also=(ffs,))
    assert not routes_agree(sym1, a, b)


def test_diff_without_exponent(monkeypatch, sym1):
    # d/dy2 y2^2 = y2 instead of 2 y2, reached through y2 * y2 (no triple
    # of lower total degree catches it).
    a, b, c = y(sym1, 0, 1), y(sym1, 0, 1), y(sym1, 1)
    assert associative(a, b, c)
    install(monkeypatch, poly, "diff",
            "c if e == 1 else c.scale_fraction(e)", "c", owner=Poly)
    assert not associative(a, b, c)


def test_diff_without_degree_unit(monkeypatch, sym1):
    # A derivative that lowers the exponent field but not the degree fields
    # leaves keys that name no monomial: the star walk's left derivative of
    # y1 is the constant with degree 1, so the descent value on (y1, y2)
    # no longer equals the symbol's.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, poly, "diff", "out[m - unit]", "out[m - (1 << off)]", owner=Poly)
    assert not routes_agree(sym1, a, b)


def test_star_coefficient_without_factorial(monkeypatch, sym1):
    # i^k for i^k / k!: wrong from the first order-two term on, which needs
    # total degree 4.
    a, b, c = y(sym1, 2), y(sym1, 0, 1), y(sym1, 0, 1)
    assert associative(a, b, c)
    install(monkeypatch, weyl, "_walk", "(cc * (I if j % 2 else -I)).scale_fraction(1, order)",
            "cc * (I if j % 2 else -I)")
    assert not associative(a, b, c)


def test_overflow_guard_removed(monkeypatch):
    assert refuses_overflow()
    install(monkeypatch, poly, "mul_into",
            "if check and (m ^ m1 ^ m2) & _CARRIES:", "if False:", owner=Poly)
    assert not refuses_overflow()


def test_perm_sign_always_even(monkeypatch, sym1):
    # Every permutation even: the determinant operator becomes the
    # permanent.  (y1, y2) meets only the even permutation and agrees;
    # (y2, y1) reads the odd one.
    y1, y2 = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, y1, y2) and routes_agree(sym1, y2, y1)
    install(monkeypatch, linalg, "perm_sign",
            "-1 if sum(x > y for x, y in combinations(items, 2)) % 2 else 1", "1",
            also=(ffs, hochschild))
    assert routes_agree(sym1, y1, y2)
    assert not routes_agree(sym1, y2, y1)


def test_wedge_sign_always_even(monkeypatch, sym1):
    # The wedge's sign read as even for every merge: dz loses its sign on
    # the first swap.
    assert dz_anticommute(sym1)
    install(monkeypatch, forms, "wedge_merge", "-1 if odd else 1", "1")
    assert not dz_anticommute(sym1)


def test_square_integral_by_sum(monkeypatch, sym1):
    # t0^a t1^b integrated as 1/(a+b+2) for 1/((a+1)(b+1)): the cocycle is
    # normalized, so total degree 2 is the least with a value, and (y1, y2)
    # already shows it.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert square_route_agrees(a, b)
    install(monkeypatch, ffs, "ffs_hypercube_n1",
            "Scalar.rational(1, (t[0] + 1) * (t[1] + 1))", "Scalar.rational(1, t[0] + t[1] + 2)")
    assert not square_route_agrees(a, b)


def test_exp_series_without_count_factorial(monkeypatch, sym1):
    # W^count without its 1/count!: both ffs routes read the one exp series,
    # so the square route shares the fault and still agrees with the symbol;
    # descent is the oracle.  Every count is 1 on (y1, y2), so it agrees
    # there; (y1^3, y2^3) and (y1^2 y2, y1 y2^2) read counts above 1 and show it.
    pairs = [(y(sym1, 3), y(sym1, 0, 3)), (y(sym1, 2, 1), y(sym1, 1, 2))]
    assert all(routes_agree(sym1, a, b) for a, b in pairs)
    install(monkeypatch, ffs, "_exp_coefficient", "denom *= factorial(count)", "pass")
    assert routes_agree(sym1, y(sym1, 1), y(sym1, 0, 1))
    assert all(square_route_agrees(a, b) for a, b in pairs)
    assert not any(routes_agree(sym1, a, b) for a, b in pairs)


def test_linear_factor_slope_halved(monkeypatch, sym1):
    # 1 + 2 u_i - u_j for 1 + 2 u_i - 2 u_j changes every coefficient with
    # a W factor: (y1^2, y2) reads W01 once.  The symbol's coefficients are
    # memoised, so the mutant is read only because installing it empties
    # the memos; a test run before this one that filled them (tests/test_ffs.py
    # does) would otherwise hide it.
    a, b = y(sym1, 2), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, ffs, "_linear_factor", "out[m] = out.get(m, 0) - 2",
            "out[m] = out.get(m, 0) - 1")
    assert not routes_agree(sym1, a, b)


def test_linear_subst_reads_columns(monkeypatch):
    # Row j's image read from column j substitutes by the transpose, which
    # reverses composition: substituting by A and then by B must equal
    # substituting by AB, and for two shears that do not commute the
    # transpose gives BA instead, already on y1.  (tests/test_poly.py's
    # test_linear_subst_flip catches it too, by its shear's expansion.)
    one, zero = Scalar.of(1), Scalar.of(0)
    upper, lower = ((one, one), (zero, one)), ((one, zero), (one, one))
    p = Poly.monomial([(Y, 1, 1)])

    def composes():
        return (p.linear_subst(Y, upper).linear_subst(Y, lower)
                == p.linear_subst(Y, linalg.mat_mul(upper, lower)))

    assert composes()
    install(monkeypatch, poly, "linear_images", "for row in matrix]",
            "for row in zip(*matrix)]", also=(groups,))
    assert not composes()


def test_delta_without_orientation_factor(monkeypatch):
    # Dropping (-1)^dim flips every odd dimension: the positively oriented
    # segment from -1 to 1 reads -1.  Dimension 2 cannot see it.
    segment = [(Fraction(-1),), (Fraction(1),)]
    assert delta(segment) == 1
    install(monkeypatch, simplex, "_sign_rule",
            "return -sign if dim % 2 else sign", "return sign")
    assert delta(segment) == -1


def test_delta_cofactor_without_sign(monkeypatch):
    # Cofactors without (-1)^(dim+k) give half the barycentric coordinates
    # the wrong sign and det M the wrong value: membership is misread, and
    # the top cocycle identity, whose facets share the one sign rule, fails
    # on the first generic quadruple in the plane.
    assert simplex.fuzz(2, 1, seed=0)["failed"] == 0
    install(monkeypatch, simplex, "_sign_rule", "(-1) ** (dim + k) * ", "")
    assert simplex.fuzz(2, 1, seed=0)["failed"] == 1


def test_tid_minor_by_facet_position(monkeypatch):
    # Facet k's minor for its i-th point read at column i, not at the
    # point's own index: past point k each facet reads the minor of the
    # point before, and at i = k the empty diagonal, so every configuration
    # looks as if the origin sat on a facet and the fuzzer can sample none.
    # The real identity needs no resample at seed 0.
    report = simplex.fuzz(2, 1, seed=0)
    assert (report["failed"], report["resampled"]) == (0, 0)
    install(monkeypatch, simplex, "tid_check",
            "for j in cols if j != k]", "for j in range(len(points) - 1)]")
    with pytest.raises(NonGenericConfigError, match="could not sample"):
        simplex.fuzz(2, 1, seed=0)


def test_fraction_text_without_gcd(monkeypatch):
    # Each part printed over its denominator unreduced: a failing fuzz names
    # its first configuration in 840ths, and 1/4 + i/2 prints as 1/4+2/4i.
    # Checked against the text Fractions print.
    monkeypatch.setattr(simplex, "tid_check", lambda config: False)
    # The first configuration seed 9 draws.
    first = [(3, Fraction(-32, 3)), (-53, Fraction(-7, 4)), (27, -15),
             (Fraction(86, 7), Fraction(-57, 8))]

    def texts():
        return (simplex.fuzz(2, 1, seed=9)["first_failure"],
                str(Scalar.of(Fraction(1, 4), Fraction(1, 2))))

    want = ([[str(c) for c in p] for p in first], f"{Fraction(1, 4)}+{Fraction(1, 2)}i")
    assert texts() == want
    install(monkeypatch, scalars, "fraction_text", "g = gcd(num, den)", "g = 1",
            also=(simplex,))
    got = texts()
    assert got[0] != want[0] and got[1] != want[1]


def test_conjugate_without_inverse(monkeypatch, d8):
    # h g h for h g h^-1 agrees on every involution, so only a group with an
    # element of order 4 shows it: in D8, S kappa squares to -1, which joins
    # the identity's class.
    group, _ = d8
    sizes = [1, 2, 2, 2, 1]
    assert [len(cls) for cls in group.conjugacy_classes()] == sizes
    install(monkeypatch, groups, "conjugate", "self.inverse(h)", "h",
            owner=groups.FiniteGroup)
    assert [len(cls) for cls in group.conjugacy_classes()] != sizes


def test_theta_sector_twisted_by_g(monkeypatch, kleinian):
    # The sector of g needs tau_{g^-1}, whose right twist b -> b^g matches
    # the smash product; tau_g agrees only where g = g^-1, as on the
    # preset's involutions.
    preset = groups.higher_spin_preset()[0]
    assert theta_cocycles_hold(kleinian["Z3"]) and theta_cocycles_hold(preset)
    install(monkeypatch, groups, "theta_cocycle",
            "twisted_cocycle(ambient, group.inverse(g))", "twisted_cocycle(ambient, g)")
    assert not theta_cocycles_hold(kleinian["Z3"])
    assert theta_cocycles_hold(preset)


def test_theta_group_part_order_swapped(monkeypatch, kleinian):
    # The value's group part is g h_1 ... h_p; h_1 ... h_p g agrees on every
    # abelian group, so only Q8 shows it.
    preset = groups.higher_spin_preset()[0]
    assert theta_cocycles_hold(kleinian["Q8"]) and theta_cocycles_hold(preset)
    install(monkeypatch, groups, "theta_cocycle",
            "group.product(g, running)", "group.product(running, g)")
    assert not theta_cocycles_hold(kleinian["Q8"])
    assert theta_cocycles_hold(kleinian["Z6"]) and theta_cocycles_hold(preset)


def test_theta_scaled_by_gamma_of_inverse(monkeypatch, kleinian, sym1):
    # Sector g scaled by gamma(g^-1) for gamma(g): equal wherever g = g^-1,
    # as on the preset, and for every class function of Q8, whose classes
    # hold each element's inverse.  On Z3 the indicator of g then scales g's
    # sector by 0, a cocycle still, so only the commutator pin shows it.
    group = kleinian["Z3"]
    g = next(h for h in group if h.moved_rank() == 2)
    want = {g: Poly.const(Scalar.rational(-3, 4))}
    assert commutator_terms(group, sym1, [g], 1, 2) == want
    install(monkeypatch, groups, "theta_cocycle", "tau(*twisted).scale(gamma(g))",
            "tau(*twisted).scale(gamma(group.inverse(g)))")
    assert theta_cocycles_hold(group)
    assert commutator_terms(group, sym1, [g], 1, 2) != want


def test_theta_exponent_q_index(monkeypatch):
    # The exponent w(y, A^-1 y) read with A^-1 transposed, which swaps the
    # index each entry pairs: a symmetric A^-1, as for every diagonal g and
    # for [[0, i], [i, 0]] in Q8, hides it, so only the equations of the
    # non-diagonal Z3, Z4 and Z6 generators and of Z3 + 1 show it.
    def defects_vanish(rows):
        g = groups.GroupElement.from_rows(
            [[x if isinstance(x, Scalar) else Scalar.of(x) for x in row] for row in rows])
        ambient = SymplecticData.canonical(g.size // 2)
        return all(d.is_zero() for d in theta_equation_defects(ambient, g, 8))

    i, half = Scalar.of(0, 1), Scalar.of(Fraction(1, 2))
    hidden = [[[i, 0], [0, -i]], [[2, 0], [0, half]], [[0, i], [i, 0]],
              [[i, 0, 0, 0], [0, -i, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
              [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, i, 0], [0, 0, 0, -i]]]
    shown = [[[0, 1], [-1, -1]], [[0, 1], [-1, 0]], [[1, 1], [-1, 0]],
             [[0, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    assert all(defects_vanish(rows) for rows in hidden + shown)
    install(monkeypatch, groups, "theta_element", "a_inv = linalg.mat_inverse(a)",
            "a_inv = linalg.mat_transpose(linalg.mat_inverse(a))")
    assert all(defects_vanish(rows) for rows in hidden)
    assert not any(defects_vanish(rows) for rows in shown)


def test_twisted_prefactor_without_half(monkeypatch, sym1):
    # u = (dz - dz^g)/2 puts det((1 - g)/2) into the pairing; u = dz - dz^g
    # multiplies it by 2^(2k), so g = -1 pairs to 2 for 1/2.
    minus = groups.GroupElement.diagonal([-ONE, -ONE], "-1")

    def pairing():
        return pair_chain(groups.twisted_cocycle(sym1, minus),
                          groups.twisted_cycle(sym1, minus, 4))

    assert pairing() == Scalar.of(Fraction(1, 2))
    install(monkeypatch, descent, "sector_generator", "half = Scalar.rational(1, 2)",
            "half = Scalar.rational(1, 1)", also=(groups,))
    assert pairing() == Scalar.of(2)


def test_coefficient_memo_shared_across_n(monkeypatch, sym1, sym2):
    # Reading the coefficients of every n at m = 2 hands n = 1's values to
    # the n = 2 W-monomials with the same pairs: the empty monomial gives
    # the n = 2 value on (y1, .., y4) as 1/2 for 1/24.
    pair = y(sym1, 1), y(sym1, 0, 1)
    gens = [WeylElement.generator(j, sym2) for j in (1, 2, 3, 4)]
    assert routes_agree(sym1, *pair) and routes_agree(sym2, *gens)
    install(monkeypatch, ffs, "terms", "_coefficient(mono, m)",
            "_coefficient(mono, 2)", owner=ffs.FFSSymbol)
    assert routes_agree(sym1, *pair)
    assert not routes_agree(sym2, *gens)


def test_operator_memo_key_without_bound(monkeypatch, sym1):
    # Keyed without its bound, the memo hands an operator built for one
    # box to a caller asking for another: the determinant's groups z1 y4
    # and z2 y3 are asked for one at a time by (y1, y2) and (y2, y1), so
    # the second reads the first's narrow operator and gets 0 for -1/2.
    y1, y2 = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, y1, y2) and routes_agree(sym1, y2, y1)
    install(monkeypatch, ffs, "_operator_for", "key = (ambient, mono, bound)",
            "key = (ambient, mono)")
    assert routes_agree(sym1, y1, y2)
    assert not routes_agree(sym1, y2, y1)


def test_monomial_index_leaves_no_determinant_derivative(monkeypatch, sym1):
    # Completing c_0k from need_k - 2 forgets that the determinant takes one
    # derivative from each slot: every monomial listed for need has slot
    # degrees need - 1, and (y1, y2) reads no monomial at all.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, ffs, "_monos_for", "d - 1 for d in need", "d - 2 for d in need")
    assert not routes_agree(sym1, a, b)


def test_chain_value_z_cap_too_small(monkeypatch, sym1):
    # Each slot still to come may consume its bound less one z's beyond its
    # homotopy's; one z fewer drops terms that still reach z = 0, and the
    # descent value on (y1, y2), each argument's degree its slot's bound,
    # loses them.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, descent, "__init__",
            "sum(bounds[:r]) - r ", "sum(bounds[:r]) - r - 1 ", owner=SuffixCache)
    assert not routes_agree(sym1, a, b)


def test_suffix_cache_slot_cap_too_small(monkeypatch, sym1):
    # One int bound for every slot: each slot still to come may consume
    # slot_degree - 1 z's beyond its homotopy's; capping at slot_degree - 2
    # shows at slot degree 1 on (y1, y2).
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert uniform_cache_agrees(sym1, a, b)
    install(monkeypatch, descent, "__init__",
            "sum(bounds[:r]) - r ", "sum(bounds[:r]) - 2 * r ", owner=SuffixCache)
    assert not uniform_cache_agrees(sym1, a, b)


def test_pool_entry_without_imaginary_part(monkeypatch, sym1):
    # Each coefficient a cache keeps pooled under its real part and
    # denominator alone: a later one that differs only in its imaginary
    # part is stored as the first one's object.  The pairs of degree <= 2
    # at n = 1 show it.
    assert cache_sweep_agrees(sym1, 2)
    install(monkeypatch, poly, "pooled", "get(c, c)", "get(c[::2], c)", owner=Poly)
    assert not cache_sweep_agrees(sym1, 2)


def test_d2_without_twist(monkeypatch, sym1):
    # The right action untwisted: for the involution-twisted constant unit,
    # d(1)(y1) = y1 - involution(y1) = 2 y1 becomes y1 - y1 = 0.
    one = constant_cochain(WeylElement.one(sym1), sym1, involution)
    y1 = y(sym1, 1)
    assert hochschild_d(one)(y1) == y1.scale(Scalar.of(2))
    install(monkeypatch, hochschild, "hochschild_d2", "f.twist(args[-1])", "args[-1]")
    assert hochschild_d(one)(y1).is_zero()


def test_star_kernel_without_z_derivative(monkeypatch, sym1):
    # Right derivatives that skip the Z bank turn the shifted form product
    # into the plain one, so the descent value no longer matches the symbol.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, poly, "directional_diff", "(kz.bit_length() - 1, kz, True)", "",
            owner=Poly)
    assert not routes_agree(sym1, a, b)


def test_star_kernel_drops_coefficient_on_right(monkeypatch, sym1):
    # The kernel scales the shorter factor by the node coefficient; skipping
    # it when that is the right derivative shows once the left factor keeps
    # two terms under a derivative: (y2 * (y1 + y2)) * y1 loses its
    # first-order term.  No triple of monomials at total degree 3 catches it.
    a, b, c = y(sym1, 0, 1), y(sym1, 1) + y(sym1, 0, 1), y(sym1, 1)
    assert associative(a, b, c)
    install(monkeypatch, weyl, "_star_kernel", "dq = dq.scale(coeff)", "pass",
            also=(forms,))
    assert not associative(a, b, c)


def test_capped_kernel_z_cap_too_small(monkeypatch, sym1):
    # A walk that cuts its right derivatives at one z fewer than the level
    # allows drops terms that still reach z = 0: the descent value on
    # (y1, y2) loses them.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, weyl, "_walk",
            "caps[0] + slack", "caps[0] + slack - 1", also=(descent,))
    assert not routes_agree(sym1, a, b)


def test_capped_kernel_cut_without_slack(monkeypatch, sym1):
    # A right derivative cut to the caps themselves drops the terms that the
    # derivatives still to come would bring inside them.  After one
    # derivative a degree-1 left factor is a leaf, whose slack is 0 anyway,
    # so the second argument needs degree 2: total degree 3, (y1, y2^2), is
    # the least that shows it.
    a, b = y(sym1, 1), y(sym1, 0, 2)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, weyl, "_walk",
            "(caps[0] + slack, caps[1] + slack)", "caps", also=(descent,))
    assert not routes_agree(sym1, a, b)


def test_z0_table_without_factorial(monkeypatch, sym1):
    # i^|gamma| for i^|gamma| / gamma! in the walk the z = 0 table reads
    # (the star kernel keeps the real one): wrong from the first order-two
    # entry on, which a head of degree 2 reads.
    a, b = y(sym1, 2), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, weyl, "_walk", "(cc * (I if j % 2 else -I)).scale_fraction(1, order)",
            "cc * (I if j % 2 else -I)", owner=descent)
    assert not routes_agree(sym1, a, b)


def test_head_left_past_its_bound(monkeypatch, sym1):
    # The head slot's left factor one degree past its bound: the table
    # gains entries no head of that degree divides, and every right
    # derivative a wider cut, but the yielded cut keeps each value.
    assert derivative_work(sym1) == PINNED_WORK
    install(monkeypatch, descent, "__init__",
            "combinations_with_replacement(ys, bounds[0])",
            "combinations_with_replacement(ys, bounds[0] + 1)", owner=SuffixCache)
    assert derivative_work(sym1) != PINNED_WORK


def test_suffix_cache_memo_without_budget(monkeypatch, sym1):
    # A memo keyed by the bounds alone hands the budget+2 recheck the
    # budget's own cache, and a later budget an earlier budget's values.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    calls = [((a, b), 4), ((a, b), 6)]
    assert shared_generator_agrees(sym1, calls)
    install(monkeypatch, descent, "suffix_cache", "(budget, tuple(bounds))",
            "tuple(bounds)", owner=descent.GaussianGenerator)
    assert not shared_generator_agrees(sym1, calls)


def test_suffix_cache_memo_without_bounds(monkeypatch, sym1):
    # A memo keyed by the budget alone serves a degree profile from a cache
    # bounded for another: the head y1^2 meets a slot bounded by 1.
    b = y(sym1, 0, 1)
    calls = [((y(sym1, 1), b), 4), ((y(sym1, 2), b), 4)]
    assert shared_generator_agrees(sym1, calls)
    install(monkeypatch, descent, "suffix_cache", "(budget, tuple(bounds))",
            "budget", owner=descent.GaussianGenerator)
    assert not shared_generator_agrees(sym1, calls)


def test_walk_slack_one_larger(monkeypatch, sym1):
    # Right derivatives made one degree and one z past the caps plus D: no
    # node is then a leaf, so every yielded right factor is cut and each
    # value is kept; only the work shows it.
    assert derivative_work(sym1) == PINNED_WORK
    install(monkeypatch, weyl, "_walk", "slack = max(degrees)", "slack = max(degrees) + 1",
            also=(descent,))
    assert derivative_work(sym1) != PINNED_WORK


def test_element_key_not_memoized(monkeypatch, sym1):
    # A key recomputed on every call sorts the element's terms again at
    # every hit; each value is the same, only the work shows it.
    assert hit_work(sym1) == (0, 0)
    install(monkeypatch, weyl, "key", "if self._key is None:", "if True:",
            owner=WeylElement)
    assert hit_work(sym1) != (0, 0)


def test_zero_value_built_per_hit(monkeypatch, sym1):
    # Products that leave nothing return the cache's zero element; one
    # built afresh equals it, so every value oracle passes and only the
    # work shows it: of the 36 hits, 13 are nonzero, 6 read an empty table
    # and 17 a table whose products cancel or fall past the target.
    assert hit_builds(sym1) == (13, 13)
    install(monkeypatch, descent, "value", "if not out:", "if False:", owner=SuffixCache)
    assert cache_sweep_agrees(sym1, 2)
    assert hit_builds(sym1) == (30, 13)


def cut_at_target(monkeypatch):
    """Poly.mul_into cutting at < max_degree instead of <= it."""
    install(monkeypatch, poly, "mul_into", "> max_degree", ">= max_degree", owner=Poly)


def test_head_product_cut_at_target(monkeypatch, sym1):
    # The head's products keep the terms of degree <= target; cutting at
    # < target loses the top degree, which only a tight budget reaches: at
    # budget 0 the target is 0 and (y1, y2) loses its value 1/2, while its
    # budget+2 value keeps it, so descend's recheck refuses the value.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b, budget=0)
    cut_at_target(monkeypatch)
    assert routes_agree(sym1, a, b)
    with pytest.raises(BudgetError, match="unstable at budget 0.*degree 0, [(]1/2[)]"):
        descend(make_zeta(sym1), [a, b], budget=0)


def test_descend_recheck_skipped(monkeypatch, sym1):
    # The budget+2 recheck is the oracle for a value its budget cut wrongly:
    # with the cut-at-target fault above and no comparison, descend at
    # budget 0 returns 0 for (y1, y2) instead of refusing.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    cut_at_target(monkeypatch)
    with pytest.raises(BudgetError):
        routes_agree(sym1, a, b, budget=0)
    install(monkeypatch, descent, "descend", "if recomputed != value:", "if False:")
    assert descent.descend(make_zeta(sym1), [a, b], budget=0).is_zero()
    assert not routes_agree(sym1, a, b, budget=0)


def test_product_z_cut_inclusive(monkeypatch, sym1):
    # A product is cut in z through its right factor, which keeps the terms
    # of Z-degree <= z_cap; cutting at < z_cap empties every z = 0 table,
    # whose z_cap is 0, so the descent value on (y1, y2) is lost.
    a, b = y(sym1, 1), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, poly, "capped", "m >> _DEG_BITS & _DEGREE <= z_cap",
            "m >> _DEG_BITS & _DEGREE < z_cap", owner=Poly)
    assert not routes_agree(sym1, a, b)


def test_star_kernel_mixed_products_uncut(monkeypatch, sym1):
    # Where the left factor mixes degrees its right factor is cut only for
    # the lowest, so the products of the higher ones must be cut to the
    # total cap as they are summed.  The root of y1 + y1^2 + y2 mixes degrees 1 and 2, so
    # under the caps (1, 3) its right factor keeps y1 z1, and y1^2 y1 z1
    # passes the total cap.
    p = (y(sym1, 1) + y(sym1, 2) + y(sym1, 0, 1)).poly
    q = Poly.monomial([(Y, 1, 1), (Z, 1, 1)])

    def cut_is_capped():
        kernel = weyl._star_kernel
        return kernel(p, q, sym1, (1, 3)) == kernel(p, q, sym1).capped(1, 3)

    assert cut_is_capped()
    install(monkeypatch, weyl, "_star_kernel", "caps[1] if mixed else None", "None",
            also=(forms,))
    assert not cut_is_capped()


def test_generator_expanded_to_z_cap(monkeypatch, sym1):
    # Every term of Q carries a z, so Q^m has z-degree at least m and
    # degree 2m: a level of z cap c needs the expansion to degree 2c.  Cut
    # at c, it loses the powers past c/2.  (y1, y2) has a z cap of 0 and
    # reads only the prefactor; (y1^2, y2^2) has 2 and loses Q^2.
    a, b = y(sym1, 2), y(sym1, 0, 2)
    assert routes_agree(sym1, y(sym1, 1), y(sym1, 0, 1)) and routes_agree(sym1, a, b)
    install(monkeypatch, descent, "_contract", "min(caps[1], 2 * caps[0])",
            "min(caps[1], caps[0])", owner=SuffixCache)
    assert routes_agree(sym1, y(sym1, 1), y(sym1, 0, 1))
    assert not routes_agree(sym1, a, b)


def test_zeta_without_sign(monkeypatch, sym1, sym2):
    # The -1 sector's generator without the (-1)^n that makes it the
    # untwisted one negates every value at odd n: (y1, y2) gives -1/2 for
    # 1/2.  At n = 2 the sign is 1 and the mutant is the real code, so no
    # oracle there can catch it; at n = 3, (y1 .. y6) gives -1/720.
    y1, y2 = y(sym1, 1), y(sym1, 0, 1)
    gens2 = [WeylElement.generator(j, sym2) for j in (1, 2, 3, 4)]
    sym3 = SymplecticData.canonical(3)
    gens3 = [WeylElement.generator(j, sym3) for j in range(1, 7)]
    assert routes_agree(sym1, y1, y2) and routes_agree(sym2, *gens2)
    assert descend(descent.make_zeta(sym3), gens3).poly == Poly.const(Scalar.of(Fraction(1, 720)))
    install(monkeypatch, descent, "make_zeta", "Scalar.of((-1) ** ambient.n)", "ONE")
    assert not routes_agree(sym1, y1, y2)
    assert routes_agree(sym2, *gens2)
    assert descend(descent.make_zeta(sym3), gens3).poly == Poly.const(Scalar.of(Fraction(-1, 720)))

import contextlib
import functools
import io
import itertools
import random
import time
from fractions import Fraction
from math import factorial, prod

import pytest

from weylhh import ffs
from weylhh.cli import main
from weylhh.descent import descend, make_zeta
from weylhh.errors import InsufficientExpansionError
from weylhh.ffs import (FFSSymbol, cached_symbol, ffs_apply, ffs_build,
                        ffs_cocycle, ffs_hypercube_n1)
from weylhh.hochschild import Chain, SampleSpec, pair_chain, verify_cocycle
from weylhh.poly import Poly, Y, Z, _triples, mono_degree, mono_divides, mono_lcm
from weylhh.sampling import monomials_upto, random_weyl
from weylhh.scalars import I, ONE, Scalar
from weylhh.weyl import SymplecticData, WeylElement

from oracles import (copy_box, expanded_coefficient, filtered_monos, full_box, permutation_det,
                     simplex_moment)


def halves(x, den):
    return Scalar.of(Fraction(x, den))


def test_simplex_moments():
    assert simplex_moment((0, 0)) == halves(1, 2)
    assert simplex_moment((0, 0, 0, 0)) == halves(1, 24)
    assert simplex_moment((1, 0)) == halves(1, 6)
    # iterated power-rule oracle for a couple of cases
    # int_0^1 du2 int_0^{u2} u1^2 u2 du1 = int u2^4/3 = 1/15
    assert simplex_moment((2, 1)) == halves(1, 15)


def test_moment_matches_brute_force_iterated_integration():
    # independent oracle: integrate u_1 from 0 to u_2, ..., u_m from 0 to 1,
    # carrying the exponent that each inner integral hands to the next
    # variable (int_0^x u^e du = x^(e+1)/(e+1)).
    def brute(exps):
        value = Fraction(1)
        carried = 0
        for e in exps:
            t_exponent = e + carried
            value /= t_exponent + 1
            carried = t_exponent + 1
        return Scalar.of(value)

    rng = random.Random(3)
    for _ in range(20):
        exps = tuple(rng.randint(0, 3) for _ in range(rng.choice((2, 4))))
        assert simplex_moment(exps) == brute(exps)


def test_iterated_integral_matches_expansion():
    # The coefficients integrated one simplex variable at a time against the
    # whole product expanded and integrated moment by moment: every
    # monomial of every need up to 5 at m = 2, 3 at m = 4 and 2 at m = 6,
    # and a seeded sample at m = 6 with need 3 (2,578 monomials) and at
    # m = 8 with need 2 (764), where the expansion costs most.
    rng = random.Random(57)
    for m, top in ((2, 5), (4, 3), (6, 2)):
        for need in itertools.product(range(1, top + 1), repeat=m):
            for mono in ffs._monos_for(m, need):
                assert ffs._coefficient(mono, m) == expanded_coefficient(mono, m), mono
    for m, need, count in ((6, 3, 40), (8, 2, 100)):
        for mono in rng.sample(ffs._monos_for(m, (need,) * m), count):
            assert ffs._coefficient(mono, m) == expanded_coefficient(mono, m), mono


def symbol_coeffs(symbol):
    """Every nonzero coefficient the symbol reads, over all slot degrees
    need with sum(need) <= budget."""
    m = 2 * symbol.n
    return {mono: coeff
            for need in itertools.product(range(1, symbol.budget + 1), repeat=m)
            if sum(need) <= symbol.budget
            for mono, coeff in symbol.terms(need)}


def test_symbols_equal_by_value():
    # Symbols built apart from one (n, budget) are equal and one key.
    a, b = FFSSymbol(2, 8), FFSSymbol(2, 8)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != FFSSymbol(2, 6)


def test_symbol_order_one_coefficient():
    coeffs = symbol_coeffs(ffs_build(1, 8))
    # the pairing of the two argument slots carries int(1 + 2u1 - 2u2) = 1/6
    assert coeffs[(((1, 2), 1),)] == I * halves(1, 6)
    # order zero: the simplex volume
    assert coeffs[()] == halves(1, 2)


def test_symbol_reversal_symmetry():
    # moments are invariant under u_k -> 1 - u_{2n+1-k} up to the sign of the
    # zero-sector order; checked on the stored coefficients directly.
    for n, budget in ((1, 6), (2, 6)):
        coeffs = symbol_coeffs(ffs_build(n, budget))
        m = 2 * n
        for mono, value in coeffs.items():
            flipped = []
            zero_order = 0
            for (i, j), count in mono:
                if i == 0:
                    zero_order += count
                    flipped.append(((0, m + 1 - j), count))
                else:
                    flipped.append(((m + 1 - j, m + 1 - i), count))
            key = tuple(sorted(flipped))
            partner = coeffs.get(key, Scalar.of(0))
            expect = -value if zero_order % 2 else value
            assert partner == expect, (mono, key)


# -- the index by slot degrees against the eager expansion it replaced ---------


def eager_monomials(m, max_weight):
    """All multisets of W-pairs with weighted derivative cost <= max_weight
    (W_0j costs one, W_ij two), in the order of the eager expansion: the
    pairs' counts compared lexicographically, (0, 1) first."""
    pairs = [(i, j) for i in range(0, m + 1) for j in range(i + 1, m + 1)]

    def rec(idx, remaining, current):
        if idx == len(pairs):
            yield tuple(current)
            return
        pair = pairs[idx]
        w = 1 if pair[0] == 0 else 2
        count = 0
        while count * w <= remaining:
            nxt = current + ([(pair, count)] if count else [])
            yield from rec(idx + 1, remaining - count * w, nxt)
            count += 1
    yield from rec(0, max_weight, [])


def slot_degrees(mono, m):
    """The derivative degree every operator term for mono has on each slot:
    one from the determinant, one from W_0j on j, one from W_ij on each of
    i and j."""
    need = [1] * m
    for (i, j), count in mono:
        if i:
            need[i - 1] += count
        need[j - 1] += count
    return need


@pytest.mark.parametrize("n, limit", [(1, 10), (2, 9)])
def test_monos_for_matches_eager_enumeration(n, limit):
    # A W-monomial's cost is sum(need) - m, so the eager expansion to cost
    # limit - m holds every monomial with sum(need) <= limit; grouped by
    # their slot degrees, in its order, they are what the index lists.
    m = 2 * n
    by_need = {}
    for mono in eager_monomials(m, limit - m):
        by_need.setdefault(tuple(slot_degrees(mono, m)), []).append(mono)
    needs = [need for need in itertools.product(range(limit + 1), repeat=m)
             if sum(need) <= limit]
    for need in needs:
        assert ffs._monos_for(m, need) == tuple(by_need.pop(need, ())), need
    assert not by_need


def test_monos_for_matches_filtered_product():
    # Placing each slot pair's count within what both of its slots have
    # left lists what filtering the full product of count ranges keeps, in
    # its order.  At m = 8 with every need 2 that product has 2^28 vectors
    # and keeps 764, the matchings of K_8.
    for m in (2, 4, 6):
        for need in itertools.product(range(4), repeat=m):
            if sum(need) <= 12:
                assert ffs._monos_for(m, need) == filtered_monos(m, need), need
    assert len(ffs._monos_for(8, (2,) * 8)) == 764


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_operator_matches_permutation_sum(n):
    # The wedge built inside a box against the signed permutation sum cut
    # to it: whole, and in the boxes of random argument tuples.
    sym = SymplecticData.canonical(n)
    assert ffs._det_operator(sym, None) == permutation_det(sym, None)
    rng = random.Random(n)
    sizes = set()
    for _ in range(20):
        box = copy_box([random_weyl(rng, sym, 2) for _ in range(2 * n)])
        det = ffs._det_operator(sym, box)
        assert det == permutation_det(sym, box)
        sizes.add(len(det.terms))
    assert 0 in sizes and len(sizes) > 2


def test_det_operator_in_degree_one_box():
    # In the box of (y_1 .. y_12) each slot holds one derivative symbol, so
    # the wedge has one term, the identity's, of the 12! the whole
    # determinant has.
    sym = SymplecticData.canonical(6)
    gens = [WeylElement.generator(j, sym) for j in range(1, 13)]
    identity = sum(ffs._copy_var(mu, mu, 6) for mu in range(1, 13))
    assert ffs._det_operator(sym, copy_box(gens)) == Poly({identity: ONE})


def test_volume_value_through_rank_eight():
    # Every operator's determinant is built in its box, so on (y_1 .. y_2n)
    # the symbol gives 1/(2n)! for n = 4 .. 8 well under a second together;
    # a determinant of (2n)! terms would take most of a minute at n = 5.
    start = time.process_time()
    for n in range(4, 9):
        sym = SymplecticData.canonical(n)
        gens = [WeylElement.generator(j, sym) for j in range(1, 2 * n + 1)]
        value = ffs_apply(cached_symbol(n, 2 * n), gens)
        assert value.poly == Poly.const(Scalar.rational(1, factorial(2 * n)))
    assert time.process_time() - start < 1


@pytest.mark.parametrize("n, budget", [(1, 10), (2, 8)])
def test_symbol_matches_eager_build(n, budget):
    # The nonzero coefficients read over sum(need) <= budget are those the
    # eager build kept.
    m = 2 * n
    eager = {}
    for mono in eager_monomials(m, budget - m):
        coeff = ffs._coefficient(mono, m)
        if not coeff.is_zero():
            eager[mono] = coeff
    assert symbol_coeffs(ffs_build(n, budget)) == eager


@pytest.fixture
def computed(monkeypatch):
    """The W-monomials whose coefficients are computed, from an empty memo:
    the memo's own function wraps the computation, so its misses are seen."""
    seen = []
    compute = ffs._coefficient.__wrapped__
    memo = functools.lru_cache(maxsize=None)(
        lambda mono, m: seen.append((m, mono)) or compute(mono, m))
    monkeypatch.setattr(ffs, "_coefficient", memo)
    return seen


def test_each_coefficient_computed_once(computed, sym1, rng):
    # Symbols at every budget read one memo keyed by (mono, m): however
    # often a coefficient is read, it is computed once.
    for budget in (5, 8, 9, 8):
        symbol_coeffs(cached_symbol(2, budget))
    for _ in range(10):
        a, b = random_weyl(rng, sym1, 4), random_weyl(rng, sym1, 4)
        ffs_apply(cached_symbol(1, 8), [a, b])
    symbol_coeffs(cached_symbol(1, 8))
    info = ffs._coefficient.cache_info()
    assert len(computed) == len(set(computed)) == info.misses == info.currsize
    assert info.hits > 0


def test_apply_computes_only_its_slot_degrees(computed, sym1):
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)
    ffs_apply(cached_symbol(1, 8), [y1, y2])
    assert computed
    assert all(slot_degrees(mono, m) == [1, 1] for m, mono in computed)


def test_cold_verify_all_computes_few_n2_coefficients(computed):
    # The eager build computed 441 n = 2 coefficients for this run.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--format", "json", "verify-all", "--seed", "57"]) == 0
    assert 0 < sum(m == 4 for m, _ in computed) <= 100


def test_generator_values(sym1):
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)
    symbol = cached_symbol(1, 4)
    assert ffs_apply(symbol, [y1, y2]).poly == Poly.const(halves(1, 2))
    assert ffs_apply(symbol, [WeylElement.one(sym1), y2]).is_zero()
    assert ffs_apply(symbol, [y1, y1]).is_zero()


def test_normalized_on_unit(sym1, rng):
    symbol = cached_symbol(1, 8)
    one = WeylElement.one(sym1)
    for _ in range(10):
        a = random_weyl(rng, sym1, 4)
        assert ffs_apply(symbol, [one, a]).is_zero()
        assert ffs_apply(symbol, [a, one]).is_zero()


def test_budget_errors(sym1):
    small = ffs_build(1, 2)
    big = WeylElement(Poly.monomial([(Y, 1, 3)]), sym1)
    y2 = WeylElement.generator(2, sym1)
    with pytest.raises(InsufficientExpansionError):
        ffs_apply(small, [big, y2])


def test_multilinearity(sym1, rng):
    symbol = cached_symbol(1, 8)
    for _ in range(10):
        a1 = random_weyl(rng, sym1, 3)
        a2 = random_weyl(rng, sym1, 3)
        b = random_weyl(rng, sym1, 3)
        c = Scalar.of(rng.randint(-4, 4), rng.randint(-4, 4))
        left = ffs_apply(symbol, [a1 + a2.scale(c), b])
        right = ffs_apply(symbol, [a1, b]) + ffs_apply(symbol, [a2, b]).scale(c)
        assert left == right


def test_hypercube_equals_simplex_route(sym1, rng):
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement.generator(2, sym1)
    assert ffs_hypercube_n1([y1, y2]).poly == Poly.const(halves(1, 2))
    assert ffs_hypercube_n1([WeylElement.one(sym1), y2]).is_zero()
    symbol = cached_symbol(1, 8)
    for _ in range(25):
        a = random_weyl(rng, sym1, 4)
        b = random_weyl(rng, sym1, 4)
        assert ffs_hypercube_n1([a, b]) == ffs_apply(symbol, [a, b])


def degree_two_tuple(sym, seed):
    """2n slots a (y_i y_j) + c y_k, with i < j, k and a, c drawn from the seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(2 * sym.n):
        i, j = sorted(rng.sample(range(1, 2 * sym.n + 1), 2))
        k = rng.randint(1, 2 * sym.n)
        a, c = (Scalar.of(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(2))
        out.append(WeylElement(Poly.monomial([(Y, i, 1), (Y, j, 1)]), sym).scale(a)
                   + WeylElement.generator(k, sym).scale(c))
    return out


def test_degree_two_routes_agree_n3():
    # At rank three and degree two the symbol reads coefficients with linear
    # factors on all six simplex variables; descend's value is the oracle,
    # exact on its certified truncation.  Every pair count is 1 at slot
    # degree 2, so the 1/count! is left to the rank-one checks.  Each tuple
    # has a matching (its value is nonzero); most random degree-two tuples
    # lack one and read zero by both routes, which tests nothing.
    sym3 = SymplecticData.canonical(3)
    cyclic = [WeylElement(Poly.monomial([(Y, j, 1), (Y, j % 6 + 1, 1)]), sym3)
              for j in range(1, 7)]
    zeta = make_zeta(sym3)
    for args in [degree_two_tuple(sym3, seed) for seed in (18, 19, 43)] + [cyclic]:
        d = descend(zeta, args)
        assert not d.is_zero()
        assert ffs_apply(cached_symbol(3, 12), args).restrict(d.truncation) == d


def test_both_routes_refuse_truncated_arguments(sym1):
    # An argument known only to degree 3 has no exact value; the routes
    # share the evaluator that refuses it.  No budget mends that, so it is a
    # usage error, not a BudgetError.
    y1 = WeylElement.generator(1, sym1)
    y2 = WeylElement(WeylElement.generator(2, sym1).poly, sym1, truncation=3)
    with pytest.raises(ValueError, match="exact"):
        ffs_apply(cached_symbol(1, 8), [y1, y2])
    with pytest.raises(ValueError, match="exact"):
        ffs_hypercube_n1([y1, y2])


@pytest.mark.parametrize("n, count, message", [
    (1, 1, "expected 2 arguments"),
    (2, 2, "specific to n = 1"),
])
def test_hypercube_refusals(n, count, message):
    sym = SymplecticData.canonical(n)
    with pytest.raises(ValueError, match=message):
        ffs_hypercube_n1([WeylElement.generator(1, sym)] * count)


def test_cocycle_n1(sym1):
    tau = ffs_cocycle(sym1)
    report = verify_cocycle(tau, SampleSpec(seed=17, count=25, max_degree=3))
    assert report.ok


def test_pairings(sym1, sym2):
    tau2 = ffs_cocycle(sym1)
    y = [WeylElement.generator(j, sym1) for j in (1, 2)]
    c2 = Chain([(WeylElement.one(sym1), tuple(y))])
    assert pair_chain(tau2, c2) == halves(1, 2)

    tau4 = ffs_cocycle(sym2)
    gens = [WeylElement.generator(j, sym2) for j in (1, 2, 3, 4)]
    c4 = Chain([(WeylElement.one(sym2), tuple(gens))])
    assert pair_chain(tau4, c4) == halves(1, 24)

    # The paper's pairing is 1/(2n)! for every n, not only n <= 2.
    sym3 = SymplecticData.canonical(3)
    gens = [WeylElement.generator(j, sym3) for j in range(1, 7)]
    c6 = Chain([(WeylElement.one(sym3), tuple(gens))])
    assert pair_chain(ffs_cocycle(sym3), c6) == halves(1, 720)


# -- the operator index against a term-by-term reference -----------------------


def reference_apply(symbol, tuples):
    """The cocycle on each tuple by walking every term of the operator Poly products.

    Independent of the packed index: each operator is det(p_1..p_2n) times
    its pair factors as a Poly, and each of its terms is matched against the
    argument coefficients, weighted by the factorials of its copy exponents.
    Operators are built once per (ambient, mono) within one call, so a mutant
    of _det_operator or _pair_operator installed before it is what they read.
    """
    coeffs = symbol_coeffs(symbol)
    ops = {}
    for args in tuples:
        ambient = args[0].ambient
        m = 2 * ambient.n
        degrees = [a.degree() for a in args]
        arg_terms = [a.poly.triple_terms() for a in args]
        out = Poly.zero()
        for mono, coeff in coeffs.items():
            need = [1] * (m + 1)  # need[0], the output, is not read
            for (i, j), count in mono:
                need[i] += count
                need[j] += count
            if any(need[mu] > degrees[mu - 1] for mu in range(1, m + 1)):
                continue
            if (ambient, mono) not in ops:
                op = ffs._det_operator(ambient, None)
                for pair, count in mono:
                    for _ in range(count):
                        op = op * ffs._pair_operator(ambient, *pair)
                ops[ambient, mono] = op.triple_terms()
            for op_mono, op_coeff in ops[ambient, mono].items():
                # Copies alternate between the banks, two to each block of m
                # indices: copy 1 on z_1..z_m, copy 2 on y_{m+1}..y_{2m}, ...
                output = [t for t in op_mono if t[0] == Y and t[1] <= m]
                alphas = {mu: [] for mu in range(1, m + 1)}
                for bank, idx, e in op_mono:
                    if bank == Z or idx > m:
                        block, j = divmod(idx - 1, m)
                        alphas[2 * block + (bank == Z)].append((Y, j + 1, e))
                value = coeff * op_coeff
                for mu, terms in enumerate(arg_terms, start=1):
                    c = terms.get(tuple(alphas[mu]))
                    if c is None:
                        break
                    weight = prod(factorial(e) for _, _, e in alphas[mu])
                    value = value * c.scale_fraction(weight)
                else:
                    out = out + Poly.monomial(output, value)
        yield WeylElement(out, ambient)


def _oracle_tuples(rng, sym, count, max_degree, terms):
    """Seeded mixed-degree tuples, plus tuples with a constant or a zero slot."""
    m = 2 * sym.n
    tuples = [[random_weyl(rng, sym, max_degree, terms) for _ in range(m)]
              for _ in range(count)]
    for special in (WeylElement(Poly.const(Scalar.of(2, -1)), sym), WeylElement(Poly(), sym)):
        tup = [random_weyl(rng, sym, max_degree, terms) for _ in range(m)]
        tup[rng.randrange(m)] = special
        tuples.append(tup)
    return tuples


def test_apply_matches_reference_contraction_n1(sym1):
    rng = random.Random(101)
    symbol = cached_symbol(1, 8)
    nonzero = 0
    tuples = _oracle_tuples(rng, sym1, 12, 4, terms=4)
    for args, want in zip(tuples, reference_apply(symbol, tuples)):
        value = ffs_apply(symbol, args)
        assert value == want
        nonzero += not value.is_zero()
    tuples = _oracle_tuples(rng, sym1, 12, 4, terms=4)
    for args, want in zip(tuples, reference_apply(symbol, tuples)):
        assert ffs_hypercube_n1(args) == want
        nonzero += not want.is_zero()
    assert nonzero >= 12


def test_apply_matches_reference_contraction_n2(sym2):
    rng = random.Random(202)
    symbol = cached_symbol(2, 8)
    nonzero = 0
    tuples = _oracle_tuples(rng, sym2, 8, 2, terms=8)
    for args, want in zip(tuples, reference_apply(symbol, tuples)):
        value = ffs_apply(symbol, args)
        assert value == want
        nonzero += not value.is_zero()
    assert nonzero >= 4


def test_operator_cache_contract():
    # The benchmark tracer reads ffs._op_cache by identity, counts its
    # entries and sums len(op.terms) over its values.  ffs_apply caches the
    # operators of just the symbol monomials whose per-slot degrees the
    # arguments have terms of, none for their prefixes, each keyed
    # (ambient, mono, bound) with the bound it was asked for.  The memos are
    # emptied first, so every entry is this call's.
    ffs.clear_memos()
    cache = ffs._op_cache
    sym = SymplecticData.canonical(1)
    a = WeylElement(Poly.monomial([(Y, 1, 3)]) + Poly.monomial([(Y, 2, 1)]), sym)
    b = WeylElement(Poly.monomial([(Y, 2, 2)]), sym)
    symbol = cached_symbol(1, 5)
    ffs_apply(symbol, [a, b])
    assert ffs._op_cache is cache
    new = list(cache.items())
    assert all(key[0] == sym for key, _ in new) and new
    assert all(isinstance(mono, tuple) and isinstance(bound, int)
               for (_, mono, bound), _ in new)
    assert sum(len(op.terms) for _, op in new) > 0
    reached = {mono for need in ((1, 2), (3, 2)) for mono, _ in symbol.terms(need)}
    assert {mono for (_, mono, _), _ in new} == reached
    assert len(new) == len(reached)
    assert (((0, 1), 2), ((0, 2), 1)) in reached


def test_operator_memo_builds_each_key_once(monkeypatch, sym1):
    # A second ffs_apply on the same arguments reads every operator back:
    # no _operator_product call and no new entry.  Two bounds for one
    # monomial leave two entries, and the first is never replaced.
    cache = {}
    monkeypatch.setattr(ffs, "_op_cache", cache)
    built = []
    product = ffs._operator_product
    monkeypatch.setattr(ffs, "_operator_product",
                        lambda *key: built.append(key) or product(*key))
    a = WeylElement(Poly.monomial([(Y, 1, 2)]) + Poly.monomial([(Y, 2, 1)]), sym1)
    b = WeylElement(Poly.monomial([(Y, 1, 1), (Y, 2, 1)]), sym1)
    symbol = cached_symbol(1, 5)
    first = ffs_apply(symbol, [a, b])
    entries = dict(cache)
    assert built and len(entries) == len(built)
    assert ffs_apply(symbol, [a, b]) == first
    assert cache == entries and len(built) == len(entries)
    assert all(cache[key] is op for key, op in entries.items())

    mono = (((0, 1), 1),)
    need = slot_degrees(mono, 2)
    narrow = next(iter(Poly.monomial([(Z, 1, 2)]).terms))
    wide = full_box(need, 1)
    cache.clear()
    op = ffs._operator_for(sym1, mono, narrow)
    assert ffs._operator_for(sym1, mono, wide) is not op
    assert set(cache) == {(sym1, mono, narrow), (sym1, mono, wide)}
    assert cache[(sym1, mono, narrow)] is op
    assert ffs._operator_for(sym1, mono, narrow) is op


def test_monomial_table_matches_apply_and_caches_nothing(sym1):
    # At n = 1 and slot degree 3 the table holds every basis pair, the unit
    # included (an absent key means zero), and equals ffs_apply on each.  It
    # walks each need's operator products into that need's rows and makes
    # them entries before the next need, so the operator cache is the same
    # object with the same entries after it (the other memos and the shared
    # values: test_monomial_table_invariants).
    symbol = cached_symbol(1, 6)
    cache = ffs._op_cache
    before = len(cache)
    table = ffs.monomial_table(symbol, sym1, 3)
    assert ffs._op_cache is cache and len(cache) == before
    monos = monomials_upto(sym1, 3)
    nonzero = 0
    for a, b in itertools.product(monos, repeat=2):
        key = (next(iter(a.poly.terms)), next(iter(b.poly.terms)))
        value = ffs_apply(symbol, [a, b]).poly
        assert table.get(key, Poly.zero()) == value
        nonzero += not value.is_zero()
    assert nonzero == len(table) >= 40


@pytest.mark.parametrize("n, slot_degree, distinct", [(2, 2, 1169), (1, 3, 42)])
def test_monomial_table_invariants(monkeypatch, n, slot_degree, distinct):
    # What the fold relies on and promises.  Every operator term walked for
    # a need (walked whole: with no bound) has copy slot degrees exactly
    # that need, so the need's rows are complete once its W-monomials are
    # walked.  Equal values are one object, and none is zero.  The call
    # adds no _op_cache entry and leaves every value memo but the symbol's
    # coefficients and index as it found them; the operator factors are
    # per-ambient constants, read here first.
    sym = SymplecticData.canonical(n)
    m = 2 * n
    ffs._det_operator(sym, None)
    for i, j in itertools.combinations(range(m + 1), 2):
        ffs._pair_operator(sym, i, j)
    cache = ffs._op_cache
    entries = dict(cache)
    kept = [memo for memo in ffs.MEMOIZED
            if memo not in (ffs._coefficient, ffs._monos_for)]
    before = [memo.cache_info()[1:] for memo in kept]  # misses, maxsize, currsize
    copies = [ffs._copy(mu, n) for mu in range(1, m + 1)]
    walked = []
    product = ffs._operator_product

    def checked(ambient, mono, bound, *coeff):
        op = product(ambient, mono, bound, *coeff)
        need = slot_degrees(mono, m)
        assert bound is None
        for k in op.terms:
            # Slot mu's degree: the exponent sum over copy mu's 2n variables.
            exps = _triples(k)
            assert [sum(e for b, i, e in exps if b == bank and offset < i <= offset + m)
                    for bank, offset in copies] == need
        walked.append(len(op.terms))
        return op

    monkeypatch.setattr(ffs, "_operator_product", checked)
    table = ffs.monomial_table(cached_symbol(n, m * slot_degree), sym, slot_degree)
    assert sum(walked) > len(table) > 0
    assert all(table.values())
    values = {frozenset(v.terms.items()) for v in table.values()}
    assert len({id(v) for v in table.values()}) == len(values) == distinct
    assert ffs._op_cache is cache and cache == entries
    assert [memo.cache_info()[1:] for memo in kept] == before


def test_monomial_table_skips_slots_past_the_budget(sym1):
    # Slot degrees (2, 1), (1, 2) and (2, 2) pass a budget of 2: the table
    # is the budget-4 one cut to keys of total degree <= 2.
    small = ffs.monomial_table(cached_symbol(1, 2), sym1, 2)
    full = ffs.monomial_table(cached_symbol(1, 4), sym1, 2)
    cut = {k: v for k, v in full.items() if sum(map(mono_degree, k)) <= 2}
    assert small == cut and len(small) == 2 and len(full) == 13


def _groups(op):
    return {k: dict(zip(flat[::2], flat[1::2])) for k, flat in op.terms.items()}


@pytest.mark.parametrize("n, budget, seed", [(1, 8, 301), (2, 7, 302)])
def test_operator_groups_on_demand(monkeypatch, n, budget, seed):
    # A bound asks for the groups whose copy key divides it: each one built
    # equals the full build's group, none inside the bound is missing and
    # none outside it is built.  Each bound gets its own entry.
    rng = random.Random(seed)
    m = 2 * n
    sym = SymplecticData.canonical(n)
    cache = {}
    monkeypatch.setattr(ffs, "_op_cache", cache)

    def random_box(need):
        triples = []
        for mu, d in enumerate(need, start=1):
            bank, offset = ffs._copy(mu, n)
            triples += [(bank, offset + j, rng.randint(0, d)) for j in range(1, m + 1)]
        return next(iter(Poly.monomial([t for t in triples if t[2]]).terms))

    monos = rng.sample(list(symbol_coeffs(ffs_build(n, budget))), 6)
    for mono in monos:
        need = slot_degrees(mono, m)
        full = _groups(ffs._operator_for(sym, mono, full_box(need, n)))
        assert full
        for _ in range(3):
            narrow, other = random_box(need), random_box(need)
            for bound in (narrow, other, mono_lcm(narrow, other)):
                op = ffs._operator_for(sym, mono, bound)
                assert ffs._op_cache is cache and cache[(sym, mono, bound)] is op
                built = _groups(op)
                assert all(full[k] == group for k, group in built.items())
                assert set(built) == {k for k in full if mono_divides(k, bound)}


def test_operator_overflow_is_refused(sym1):
    # Through the full box W12^255 asks for every group: the walk fills the
    # exponent fields of both copies to 255 and one more W12 factor raises
    # some to 256, which the Poly product refuses; nothing is cached for the
    # failed operator.
    def full(count):
        mono = (((1, 2), count),)
        return mono, full_box(slot_degrees(mono, 2), 1)

    before = len(ffs._op_cache)
    with pytest.raises(ValueError, match="overflows"):
        ffs._operator_for(sym1, *full(255))
    assert len(ffs._op_cache) == before
    assert ffs._operator_for(sym1, *full(254)).terms

"""Direct construction of the degree-2n dual cocycle from its integral symbol.

The symbol is a polynomial in pairing symbols W_{ij} = omega(p_i, p_j),
0 <= i < j <= 2n, where p_0 multiplies by i*y and p_mu (mu >= 1) applies
pi-twisted derivatives to the mu-th argument on its own variable copy.  The
exponential is expanded to a finite order with each u-monomial integrated
exactly over the ordered simplex 0 <= u_1 <= ... <= u_{2n} <= 1, and the
whole thing is multiplied by det(p_1, ..., p_{2n}).

Each W_{0j} consumes one derivative on argument j; each W_{ij} with i >= 1
consumes one on each of i and j; the determinant consumes one per argument.
So every operator term of a W-monomial has the same per-slot derivative
degrees need, and only argument terms of exactly those degrees meet it.  The
symbol is indexed by need: a W-monomial with given need is fixed by its
slot-pair counts (_monos_for lists them), and its coefficient is computed the
first time some symbol reads it.  Every memo here is keyed by exactly its
function's arguments and none has a policy of its own.  The expansion order
needed for a tuple of arguments is bounded by their total degree, and the
symbol refuses (loudly) to be applied beyond the budget it was built for.

Applying the symbol happens on disjoint variable copies: the output lives on
y_1..y_2n and argument mu on its own copy of 2n variables (see _copy), and a
product of derivative symbols evaluated at y_mu = 0 turns into exponent
bookkeeping against the argument coefficients.  Each symbol monomial's
operator is its W factors times the determinant (both factor kinds memoised
per argument), walked one Poly product at a time (_operator_product)
inside a divisibility box: only the terms whose copy part divides the
caller's bound.  One low mask splits each of its int monomial keys (see
poly) into the output part, whose degree is the monomial's number of W_0j
factors (_output_degree), and the copy part: the per-slot derivative
multi-index alpha, which pairs only with the argument terms y^alpha_mu
(weighted by alpha_mu!).  Copy parts only grow along the walk, so dropping
the terms outside the box after every product loses nothing inside it.
ffs_apply renames each argument key onto its copy and, for every
combination of its arguments' term degrees, reads the symbol at that need,
asks each operator for the lcm of the argument keys (_operator_for caches
the product grouped by copy part, once per bound) and looks each summed key
up; monomial_table reads the symbol at every need within its slot degree,
walks each operator's product whole, once, from its coefficient, adds its
terms straight into the rows of their copy parts and finishes that need's
rows before the next need, so that equal values share one object; one
shift per slot moves a copy part's fields back onto y_1..y_2n, and the
slot's degree is the need's.

A second, independent route for n = 1 integrates over the unit square after
the substitution u_1 = t_0 t_1, u_2 = t_0 (Jacobian t_0); the two must agree
exactly.  The routes differ only in that substitution and in their moments:
both read the W-monomials of _monos_for, take each coefficient from one
exponential series (_exp_coefficient) over integer polynomials keyed by
exponent tuples (in u_1 .. u_2n, or in t_0, t_1), integrated in closed form
(the simplex moment, or 1/((a+1)(b+1)) for t_0^a t_1^b over the square), and
apply them through one evaluator (_evaluate).  Both take their prefactor from
_det_operator; at n = 1 it is W_12, the square formula's w(p_1, p_2).
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import factorial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InsufficientExpansionError
from .hochschild import Cochain
from .linalg import perm_sign
from .poly import (DEGREES, Poly, Y, Z, _offset, index_mask, mono_degree, mono_divides,
                   mono_factorial, mono_lcm, rename, variable_key)
from .scalars import I, ONE, Scalar
from .weyl import SymplecticData, WeylElement, involution

Pair = Tuple[int, int]
WMono = Tuple[Tuple[Pair, int], ...]


def simplex_moment(exponents: Sequence[int]) -> Scalar:
    """Exact integral of u_1^a1 ... u_m^am over 0 <= u_1 <= ... <= u_m <= 1."""
    den = 1
    prefix = 0
    for k, a in enumerate(exponents, start=1):
        prefix += a
        den *= prefix + k
    return Scalar.rational(1, den)


def _u_mul(p1: Dict[Tuple[int, ...], int],
           p2: Dict[Tuple[int, ...], int]) -> Dict[Tuple[int, ...], int]:
    """Product of two integer polynomials keyed by exponent tuples."""
    out: Dict[Tuple[int, ...], int] = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _linear_factor(i: int, j: int, nvars: int) -> Dict[Tuple[int, ...], int]:
    """1 + 2 u_i - 2 u_j as a u-polynomial (u_0 = 0 is absent)."""
    zero = (0,) * nvars
    out = {zero: 1}
    if i >= 1:
        m = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        out[m] = out.get(m, 0) + 2
    m = tuple(1 if k == j - 1 else 0 for k in range(nvars))
    out[m] = out.get(m, 0) - 2
    return {m: c for m, c in out.items() if c}


class FFSSymbol(NamedTuple):
    """The symbol for argument tuples of total degree <= budget: a read of
    the per-n coefficient index by per-slot derivative degrees."""

    n: int
    budget: int

    def terms(self, need: Tuple[int, ...]) -> List[Tuple[WMono, Scalar]]:
        """The W-monomials with slot degrees need and nonzero coefficient,
        with their coefficients, in the canonical order."""
        m = 2 * self.n
        return _nonzero_terms(m, need, lambda mono: _coefficient(mono, m))


def _nonzero_terms(m: int, need: Tuple[int, ...],
                   coefficient: Callable[[WMono], Scalar]) -> List[Tuple[WMono, Scalar]]:
    """(mono, coefficient(mono)) for each mono of _monos_for(m, need) it keeps."""
    out = []
    for mono in _monos_for(m, need):
        coeff = coefficient(mono)
        if not coeff.is_zero():
            out.append((mono, coeff))
    return out


@lru_cache(maxsize=None)
def _monos_for(m: int, need: Tuple[int, ...]) -> Tuple[WMono, ...]:
    """Every W-monomial in 2n = m slots whose operator has the derivative
    degree need[k - 1] on slot k, in the canonical order: by the counts of
    the pairs (0, 1), .., (0, m), (1, 2), .., (m - 1, m), lexicographically.

    The determinant takes one derivative from each slot, so a monomial is
    fixed by its slot-pair counts c_ij (1 <= i < j <= m), and W_0k takes
    what is left on slot k: c_0k = need_k - 1 - sum_j c_kj >= 0.
    """
    inner = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    left = [d - 1 for d in need]
    found = []
    for counts in itertools.product(*(range(min(left[i - 1], left[j - 1]) + 1)
                                      for i, j in inner)):
        rest = list(left)
        for (i, j), c in zip(inner, counts):
            rest[i - 1] -= c
            rest[j - 1] -= c
        if min(rest) >= 0:
            found.append(tuple(rest) + counts)
    pairs = [(0, k) for k in range(1, m + 1)] + inner
    return tuple(tuple((pair, c) for pair, c in zip(pairs, counts) if c)
                 for counts in sorted(found))


def _exp_coefficient(mono: WMono, start: Dict[Tuple[int, ...], int],
                     factor: Callable[[Pair], Dict[Tuple[int, ...], int]],
                     moment: Callable[[Tuple[int, ...]], Scalar]) -> Scalar:
    """The exp series' coefficient of mono: i^order / prod count! times the
    integral, by moment, of start times each pair's factor to its count."""
    poly = start
    denom = 1
    for pair, count in mono:
        f = factor(pair)
        for _ in range(count):
            poly = _u_mul(poly, f)
        denom *= factorial(count)
    total = Scalar.of(0)
    for m, c in poly.items():
        total = total + moment(m).scale_fraction(c)
    return (total * (I ** sum(c for _, c in mono))).scale_fraction(1, denom)


@lru_cache(maxsize=None)
def _coefficient(mono: WMono, m: int) -> Scalar:
    """The symbol coefficient of one W-monomial in 2n = m slots; it depends
    on neither the budget nor the arguments."""
    return _exp_coefficient(mono, {(0,) * m: 1},
                            lambda pair: _linear_factor(*pair, m), simplex_moment)


def ffs_build(n: int, degree_budget: int) -> FFSSymbol:
    """The symbol for argument tuples of the given total degree.  Nothing is
    expanded here: each coefficient is computed the first time it is read."""
    return FFSSymbol(n, degree_budget)


# The same as ffs_build: every symbol for one n reads one memo.
cached_symbol = ffs_build


# -- applying the symbol ------------------------------------------------------


def _copy(mu: int, n: int) -> Tuple[str, int]:
    """The bank and index offset of argument mu's variable copy.

    Copies alternate between the banks, two to each block of 2n indices
    (copy 1 on z_1..z_2n, copy 2 on y_{2n+1}..y_{4n}, copy 3 on
    z_{2n+1}..z_{4n}, ...): using both banks halves the index range the
    operator keys span, and with it their length.
    """
    return (Z if mu % 2 else Y), mu // 2 * 2 * n


def _copy_var(mu: int, j: int, n: int) -> int:
    """The key of the derivative symbol d/dy_mu^j, a variable on copy mu."""
    bank, offset = _copy(mu, n)
    return variable_key(bank, offset + j)


def _sum_monomials(monomials) -> Poly:
    """The sum of (variable keys, coeff) monomials, each a product of
    distinct variables (so its key is the keys' sum), with distinct keys."""
    return Poly({sum(keys): c for keys, c in monomials if not c.is_zero()})


@lru_cache(maxsize=None)
def _det_operator(sym: SymplecticData) -> Poly:
    """det(p_1 .. p_{2n}) as a polynomial in the derivative symbols.

    With p_mu^a = pi^{ab} d/dy_mu^b and det(pi) = 1 it is
    sum_sigma sign(sigma) prod_mu d/dy_mu^sigma(mu): one monomial per
    permutation.
    """
    return _sum_monomials(
        ([_copy_var(mu, k, sym.n) for mu, k in enumerate(perm, start=1)],
         ONE if perm_sign(perm) > 0 else -ONE)
        for perm in itertools.permutations(range(1, 2 * sym.n + 1)))


@lru_cache(maxsize=None)
def _pair_operator(sym: SymplecticData, i: int, j: int) -> Poly:
    """The operator polynomial for one W_{ij} = w(p_i, p_j) factor.

    The pairing form w inside the symbol is the opposite-sign dual of pi
    (w . pi = -id, where the stored omega has omega . pi = +id); with that
    reading the cocycle identity holds exactly.  So
    W_{0j} = i y^k (w pi)_k^l d/dy_j^l = -i sum_k y^k d/dy_j^k, and
    W_{ij} = (pi^T w pi)^{ab} d/dy_i^a d/dy_j^b = pi^{ab} d/dy_i^a d/dy_j^b.
    """
    if i == 0:
        return _sum_monomials(([variable_key(Y, k), _copy_var(j, k, sym.n)], -I)
                              for k in range(1, 2 * sym.n + 1))
    return _sum_monomials(([_copy_var(i, a, sym.n), _copy_var(j, b, sym.n)], c)
                          for a, row in enumerate(sym.pi, start=1)
                          for b, c in enumerate(row, start=1))


class PackedOperator:
    """An operator indexed by the packed copy part of its monomials (their
    per-slot derivative multi-index): terms maps it to the flat tuple
    (output key, coeff, output key, coeff, ...).  It holds the groups whose
    copy key divides the bound it was built at (the last part of its
    _op_cache key), each complete, and none outside that box."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, tuple]):
        self.terms = terms


_op_cache: Dict[tuple, PackedOperator] = {}


def _operator_product(ambient: SymplecticData, mono: WMono, bound: Optional[int],
                      coeff: Scalar = ONE) -> Poly:
    """coeff times det(p_1..p_2n) times the W factors of a symbol monomial,
    walked one Poly product at a time from coeff (so it costs no product):
    the terms whose copy part divides bound, or all of them if bound is None."""
    # The output fields are never pruned, and the full degree fields let no
    # key borrow from them.
    box = None if bound is None else bound | index_mask(2 * ambient.n, Y) | DEGREES

    def inside(p: Poly) -> Poly:
        if box is None:
            return p
        return Poly({k: c for k, c in p.terms.items() if mono_divides(k, box)})

    # Copy parts only grow along the walk, so a term dropped outside the box
    # feeds no term inside it.
    product = Poly.const(coeff)
    for pair, count in mono:
        factor = inside(_pair_operator(ambient, *pair))
        for _ in range(count):
            product = inside(product * factor)
    return inside(product * inside(_det_operator(ambient)))


def _output_degree(mono: WMono) -> int:
    """The degree of the output part of every term of mono's operator: each
    W_0j factor brings one y, and no other factor any."""
    return sum(count for (i, _), count in mono if not i)


def _operator_for(ambient: SymplecticData, mono: WMono,
                  bound: int) -> PackedOperator:
    """The operator product for a symbol monomial, grouped by the copy part
    of its keys: the groups whose copy key divides bound.  ffs_apply reads
    it; monomial_table walks the products itself and never calls it.

    A plain memo: _op_cache[(ambient, mono, bound)] is built once, at
    exactly that bound, and never replaced.
    """
    key = (ambient, mono, bound)
    op = _op_cache.get(key)
    if op is not None:
        return op
    out_mask = index_mask(2 * ambient.n, Y)
    degree = _output_degree(mono)
    groups: Dict[int, list] = {}
    for k, c in _operator_product(ambient, mono, bound).terms.items():
        out = k & out_mask | degree
        groups.setdefault(k - out, []).extend((out, c))
    op = PackedOperator({k: tuple(v) for k, v in groups.items()})
    _op_cache[key] = op
    return op


# The package's value memos, which keep results a code change can alter, are
# _op_cache and these lru_caches (weyl's SymplecticData.canonical keeps one
# constant per n; tests/test_memos.py checks that no other lru_cache exists).
MEMOIZED = (_monos_for, _coefficient, _det_operator, _pair_operator)


def clear_memos() -> None:
    """Empty every value memo: _op_cache in place, since the benchmark
    tracer holds it by identity, and each lru_cache of MEMOIZED."""
    _op_cache.clear()
    for memo in MEMOIZED:
        memo.cache_clear()


def _slot_terms(args: Sequence[WeylElement]) -> List[Dict[int, list]]:
    """Per argument, its terms by degree as (key on its copy, coeff * alpha!)."""
    n = len(args) // 2
    slots = []
    for mu, arg in enumerate(args, start=1):
        bank, offset = _copy(mu, n)
        by_degree: Dict[int, list] = {}
        for mono, c in arg.poly.terms.items():
            by_degree.setdefault(mono_degree(mono), []).append(
                (rename(mono, Y, bank, offset), c.scale_fraction(mono_factorial(mono))))
        slots.append(by_degree)
    return slots


def _contract(terms: List[list], ambient: SymplecticData, mono: WMono,
              coeff: Scalar, acc: Dict[int, Scalar]) -> None:
    """Add coeff times the operator for mono, applied to the slot terms, to acc.

    terms holds, per slot, the argument terms of the operator's degree on it.
    """
    # The slots lie on disjoint fields, so the sum of their lcms is the lcm
    # of every combination's key.
    bound = sum(reduce(mono_lcm, [k for k, _ in t]) for t in terms)
    index = _operator_for(ambient, mono, bound).terms
    for combo in itertools.product(*terms):
        # Each slot key lives on its own copy's fields, so the sum cannot carry.
        flat = index.get(sum(k for k, _ in combo))
        if flat is None:
            continue
        value = coeff
        for _, c in combo:
            value = value * c
        for out, c in zip(flat[::2], flat[1::2]):
            c = value * c
            prev = acc.get(out)
            acc[out] = c if prev is None else prev + c


def _evaluate(args: Sequence[WeylElement],
              terms_at: Callable[[Tuple[int, ...]], List[Tuple[WMono, Scalar]]]
              ) -> WeylElement:
    """Contract each (W-monomial, coefficient) of terms_at(need), for every
    combination need of the arguments' term degrees; the determinant takes one
    derivative from each slot, so a constant term meets no operator."""
    if any(a.truncation is not None for a in args):  # a usage error: no budget mends it
        raise ValueError("arguments must be exact polynomials")
    ambient = args[0].ambient
    slots = _slot_terms(args)
    acc: Dict[int, Scalar] = {}
    for need in itertools.product(*([d for d in slot if d] for slot in slots)):
        terms = [slot[d] for slot, d in zip(slots, need)]
        for mono, coeff in terms_at(need):
            _contract(terms, ambient, mono, coeff, acc)
    return WeylElement(Poly({k: c for k, c in acc.items() if c}), ambient)


def ffs_apply(symbol: FFSSymbol, args: Sequence[WeylElement]) -> WeylElement:
    """Evaluate the cocycle on 2n arguments; exact polynomial output."""
    m = 2 * symbol.n
    if len(args) != m:
        raise ValueError(f"expected {m} arguments, got {len(args)}")
    total = sum(a.degree() for a in args)
    if total > symbol.budget:
        raise InsufficientExpansionError(f"symbol built for total degree {symbol.budget}, "
                                         f"arguments have total degree {total}")
    return _evaluate(args, symbol.terms)


def monomial_table(symbol: FFSSymbol, ambient: SymplecticData,
                   slot_degree: int) -> Dict[tuple, Poly]:
    """Values on every tuple of basis monomials with per-slot degree bound.

    A fold of the operator products: the copy part of an operator term is
    the one tuple of basis monomials (one per slot) it pairs with, and it
    contributes the term, walked from the symbol coefficient, times the
    factorials of the copy exponents.  Every term walked for need has copy
    slot degrees need, so a need's rows become entries before the next
    need is walked.  Equal values share one Poly, and equal key ints and
    coefficients one object (Poly.pooled, through a map local to the call).
    Absent keys mean the value is zero; ffs_apply on the same tuple agrees
    entry by entry.
    """
    m = 2 * symbol.n
    out_mask = index_mask(m, Y)
    # One right shift moves copy mu's fields onto y_1 .. y_2n.
    shifts = [_offset(bank, offset + 1) - _offset(Y, 1)
              for bank, offset in (_copy(mu, symbol.n) for mu in range(1, m + 1))]
    # A key int, a coefficient or a value's terms, to its one object.
    shared: Dict[object, object] = {}
    table: Dict[tuple, Poly] = {}
    for need in itertools.product(range(1, slot_degree + 1), repeat=m):
        if sum(need) > symbol.budget:
            continue
        rows: Dict[int, Dict[int, Scalar]] = {}
        for mono, coeff in symbol.terms(need):
            degree = _output_degree(mono)
            for k, c in _operator_product(ambient, mono, None, coeff).terms.items():
                out = k & out_mask | degree
                row = rows.setdefault(k - out, {})
                prev = row.get(out)
                row[out] = c if prev is None else prev + c
        while rows:  # popping frees each row as its table entry is made
            copy_key, row = rows.popitem()
            weight = mono_factorial(copy_key)
            terms = {out: c if weight == 1 else c.scale_fraction(weight)
                     for out, c in row.items() if c}
            if terms:
                # Slot mu's basis monomial: copy mu's fields, of degree need[mu - 1].
                key = tuple(shared.setdefault(k, k) for k in (
                    copy_key >> shift & out_mask | d for shift, d in zip(shifts, need)))
                frozen = frozenset(terms.items())
                value = shared.get(frozen)
                if value is None:
                    value = shared[frozen] = Poly(terms).pooled(shared)
                table[key] = value
    return table


def ffs_cocycle(sym: SymplecticData):
    """The 2n-cocycle as a normalized dual-valued evaluator."""
    def ev(*args):
        return ffs_apply(cached_symbol(sym.n, sum(a.degree() for a in args)), args)

    return Cochain(2 * sym.n, sym, involution, ev)


# -- independent unit-square route for n = 1 ---------------------------------


# Each pair's factor after the substitution, keyed by (a, b) of t0^a t1^b.
_SQUARE_FACTORS = {(0, 1): {(0, 0): 1, (1, 1): -2}, (0, 2): {(0, 0): 1, (1, 0): -2},
                   (1, 2): {(0, 0): 1, (1, 0): -2, (1, 1): 2}}


def ffs_hypercube_n1(args: Sequence[WeylElement]) -> WeylElement:
    """Same two-argument cocycle via iterated integrals over the unit square.

    Expands exp(i [ W01 (1 - 2 t0 t1) + W02 (1 - 2 t0) + W12 (1 - 2 t0 + 2 t0 t1) ])
    against the Jacobian factor t0, integrating each t0^a t1^b over the
    square as 1/((a+1)(b+1)).
    """
    if len(args) != 2:
        raise ValueError("expected 2 arguments")
    if args[0].ambient.n != 1:
        raise ValueError("the unit-square route is specific to n = 1")

    def coefficient(mono: WMono) -> Scalar:
        return _exp_coefficient(mono, {(1, 0): 1}, _SQUARE_FACTORS.__getitem__,
                                lambda t: Scalar.rational(1, (t[0] + 1) * (t[1] + 1)))

    return _evaluate(args, lambda need: _nonzero_terms(2, need, coefficient))

"""Cocycles from the injective form-resolution: generators and descent.

A Gaussian generator is a closed top-degree-on-its-sector form

    prefactor . exp(Q)

with Q a quadratic exponent coupling z to y.  `sector_generator` builds each
one from a linear symplectic g: the untwisted one (`make_zeta`) is (-1)^n
times g = -1's, and groups.make_zeta_g checks g before building its own.

The cocycle itself is the alternation

    value(a_1 .. a_p) = a_1 * s( a_2 * s( ... a_p * s(generator) )) | z=0

computed on a degree-D expansion of exp(Q), certified to total degree
D + p - sum(deg a_i).  One rule cuts every level: with r arguments still
to come, only terms of z-degree <= sum_{i<r}(deg a_i - 1) and total degree
<= that plus the certified degree can reach the value (every term of Q
carries a z, so exp(Q) is expanded to twice the z cap).  Each star product,
and the closing z = 0 projection, reads one derivative walk (`weyl._walk`)
that cuts every derivative to those caps as it is made.  Every public entry
point recomputes at D+2 and insists the certified parts agree.

The audited descent trace solves, with the plain (undressed) exterior
differential on cochains,

    d xi_top = generator,   d xi_k = -dH xi_{k+1},   dH xi_0 = -value,

via xi_k = -s(dH xi_{k+1}); verify_descent replays those identities on
sampled arguments.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BudgetError
from .forms import FormElement, ext_d, form_star, homotopy_s, sector_volume
from .hochschild import Cochain, Report, constant_cochain, hochschild_d
from .poly import Poly, Y, Z, mono_divides, mono_factorial
from .sampling import weyl_tuples
from .scalars import I, ONE, ZERO, Scalar
from .weyl import SymplecticData, WeylElement, _min_trunc, _walk, involution

DEFAULT_BUDGET_MARGIN = 4


def _omega_bilinear(sym: SymplecticData, left: List[Poly], right: List[Poly]) -> Poly:
    """omega(left, right); the canonical omega pairs row j only with j ^ 1."""
    out: Dict[int, Scalar] = {}
    for j, row in enumerate(sym.omega):
        left[j].scale(row[j ^ 1]).mul_into(right[j ^ 1], out)
    return Poly(out)


def _vector(bank: str, sym: SymplecticData) -> List[Poly]:
    return [Poly.variable(bank, j + 1) for j in range(2 * sym.n)]


class GaussianGenerator:
    """prefactor . exp(quad), a form of degree 2k expandable to any finite degree."""

    def __init__(self, ambient: SymplecticData, quad: Poly,
                 prefactor: FormElement, twist: Callable, form_degree: int):
        self.ambient = ambient
        self.quad = quad
        self.prefactor = prefactor
        self.twist = twist
        self.form_degree = form_degree
        self._expansions: Dict[int, FormElement] = {}
        self._suffix_caches: Dict[Tuple[int, Tuple[int, ...]], SuffixCache] = {}

    def expand(self, degree: int) -> FormElement:
        """All terms of (y,z)-degree <= degree, marked with that truncation."""
        cached = self._expansions.get(degree)
        if cached is not None:
            return cached
        series = self.quad.exp_quadratic(degree)
        comps = {idx: series * p for idx, p in self.prefactor.components.items()}
        out = FormElement(comps, self.ambient, truncation=degree)
        self._expansions[degree] = out
        return out

    def suffix_cache(self, budget: int, bounds: Sequence[int]) -> "SuffixCache":
        """The one SuffixCache of this generator at a budget and per-slot
        degree bounds, kept as long as the generator."""
        key = (budget, tuple(bounds))
        cache = self._suffix_caches.get(key)
        if cache is None:
            cache = self._suffix_caches[key] = SuffixCache(self, budget, bounds)
        return cache


def sector_generator(ambient: SymplecticData, rows: Sequence[Dict[int, Scalar]],
                     k: int, twist: Callable, sign: Scalar) -> GaussianGenerator:
    """sign times the generator of the sector g moves, from g's nonzero
    entries (rows[j] maps l to g_jl, 0-based) and k = rank(1 - g)/2:
    Q = i w(z, y + (z - y)^g) and the sector volume of u = (dz - dz^g)/2,
    which carries det((1 - g)/2) on the moved sector into the pairing."""
    y, z = _vector(Y, ambient), _vector(Z, ambient)
    half = Scalar.rational(1, 2)
    shifted, ones = [], []
    for j, row in enumerate(rows):
        shifted.append(sum(((z[l] - y[l]).scale(c) for l, c in row.items()), y[j]))
        u = {(l + 1,): -c * half for l, c in row.items()}
        ones.append({**u, (j + 1,): u.get((j + 1,), ZERO) + half})
    quad = _omega_bilinear(ambient, z, shifted).scale(I)
    prefactor = FormElement({idx: Poly.const(c * sign) for idx, c in
                             sector_volume(ones, k).items()}, ambient)
    return GaussianGenerator(ambient, quad, prefactor, twist, 2 * k)


def make_zeta(ambient: SymplecticData) -> GaussianGenerator:
    """The untwisted generator exp(2i w(z,y)) vol_dz, involution-twisted:
    (-1)^n times the -1 sector's, whose u = dz has the volume
    prod_l (-dz_(2l-1) dz_(2l)) = (-1)^n vol_dz."""
    minus = [{j: -ONE} for j in range(2 * ambient.n)]
    return sector_generator(ambient, minus, ambient.n, involution,
                            Scalar.of((-1) ** ambient.n))


# -- the descent value --------------------------------------------------------


def auto_budget(args: Sequence[WeylElement], n: int) -> int:
    return sum(a.degree() for a in args) + 2 * n + DEFAULT_BUDGET_MARGIN


class DescentTrace(NamedTuple):
    """The audited ladder: cochains xi_top .. xi_0 plus the resulting cocycle."""

    generator: GaussianGenerator
    budget: int
    xis: List[Cochain]
    cocycle: Cochain


def descend(gen: GaussianGenerator, args: Sequence[WeylElement],
            budget: Optional[int] = None):
    """Evaluate the descent cocycle on concrete arguments.

    Reads the generator's SuffixCache for the budget and the argument
    degrees, so calls with one degree profile share their suffixes.  Every
    value of positive arity is recomputed at budget+2 and its certified part
    must agree; a mismatch means the budget was too small for these
    arguments and surfaces as a BudgetError.  There is no unchecked path.
    """
    p = gen.form_degree
    if len(args) != p:
        raise ValueError(f"generator of form degree {p} takes {p} arguments")
    d = auto_budget(args, gen.ambient.n) if budget is None else budget
    degrees = [a.degree() for a in args]
    # The product of the last j arguments with their j homotopies needs a
    # budget of at least their degrees less j; j = p is the whole tuple.
    low, j = max(((sum(degrees[p - j:]) - j, j) for j in range(1, p + 1)),
                 default=(0, 0))
    if d < low:
        which = "the argument" if j == p else f"the last {j} argument"
        raise BudgetError(f"budget {d} is below {low}, {which} degrees "
                          f"{degrees[p - j:]} less one per homotopy")

    if not p:
        # No argument and no homotopy: the generator's 0-form at z = 0.
        return WeylElement(gen.expand(d).component(()).set_bank_zero(Z),
                           gen.ambient, d)
    # Each of the p homotopies raises the truncation by one.
    value = gen.suffix_cache(d + p, degrees).value(args)
    recomputed = gen.suffix_cache(d + 2 + p, degrees).value(args)
    recomputed = recomputed.restrict(value.truncation)
    if recomputed != value:
        low, term = (recomputed.poly - value.poly).lowest_term()
        raise BudgetError(
            f"descent value unstable at budget {d}: the budget+2 value "
            f"minus the budget value is first nonzero at degree {low}, "
            f"{term}; rerun with a larger one")
    return value


def descent_cocycle(gen: GaussianGenerator, budget: Optional[int] = None) -> Cochain:
    """The descent value as a dual-valued normalized cochain; each value is
    rechecked at budget+2 as `descend` does."""
    def ev(*args):
        return descend(gen, args, budget=budget)

    return Cochain(gen.form_degree, gen.ambient, gen.twist, ev)


class SuffixCache:
    """Shared partial chains for bulk evaluation over many argument tuples.

    The inner alternation s(a_k * s(...)) depends only on the argument tail,
    so tuples sharing a tail share the work: each `_cache` entry is the
    homotopy of a tail's chain, the right factor every argument in front of
    that tail multiplies against.  A single cache is valid for one generator,
    budget and list of per-slot degree bounds (an int bounds every slot
    alike).  The value is certified to target = budget - sum(bounds), and
    the bounds cap each level to the terms that can still reach it through
    the remaining argument derivatives; the star kernel computes only those.
    `descend` reads the generator's cache for its budget and argument
    degrees (`GaussianGenerator.suffix_cache`).

    The head a_1 meets its suffix's 0-form F = s(a_2 * s(...)) only through
    the closing z = 0 projection, and a_1 has no z, so

        (a_1 * F)|_{z=0} = sum_gamma (i^|gamma| / gamma!) d_y^gamma a_1 . R[gamma],
        R[gamma] = ((pi D)^gamma F)|_{z=0},   D = d_y + d_z,

    over |gamma| <= the head's degree bound.  `_final` holds, per suffix,
    that table of y-polynomials with their coefficients, keyed by y^gamma,
    so a head costs one product per entry dividing one of its monomials and
    no star kernel.  Only the table reads the longest suffixes' s(tail), so
    those are not kept in `_cache`.  A zero value is the cache's one zero
    element, built once through the checked constructor like every other.
    """

    def __init__(self, gen: GaussianGenerator, budget: int,
                 slot_degree: Union[int, Sequence[int]]):
        self.gen = gen
        self.budget = budget
        self.arity = gen.form_degree
        bounds = ([slot_degree] * self.arity if isinstance(slot_degree, int)
                  else list(slot_degree))
        if len(bounds) != self.arity:
            raise ValueError(f"generator of form degree {self.arity} "
                             f"takes {self.arity} slot degree bounds")
        self.bounds = bounds
        self.target = budget - sum(bounds)
        if self.target < 0:
            raise BudgetError(f"budget {budget} is below {sum(bounds)}, "
                              f"the sum of the slot degree bounds {bounds}")
        self._cache: Dict[tuple, FormElement] = {}
        self._final: Dict[tuple, Dict[int, Poly]] = {}
        # What a miss stores takes its key ints and coefficients from here
        # (Poly.pooled), so the cache holds each distinct one once.
        self._pool: Dict[object, object] = {}
        # The caps of a tail of c arguments: the r = arity - c slots still to
        # come consume at most their bound less one z's each beyond the one
        # their homotopy adds.  The last, (0, target), cuts the z = 0 table.
        z_caps = [sum(bounds[:r]) - r for r in range(self.arity, -1, -1)]
        self._caps = [(z, self.target + z) for z in z_caps]
        # `_z0_table`'s left factor, read for its support: every monomial up
        # to the head slot's bound.
        ys = gen.ambient.ykeys
        self._head_left = Poly(
            {sum(c): ONE for c in combinations_with_replacement(ys, bounds[0])})
        self._zero = WeylElement(Poly(), gen.ambient, self.target)

    def _check_slot(self, k: int, arg: WeylElement) -> None:
        if arg.degree() > self.bounds[k]:
            raise BudgetError("argument degree exceeds the cache's slot bound")

    def tail(self, args: Sequence[WeylElement]) -> FormElement:
        """s(args[0] * s(... args[-1] * s(generator))), each level cut to its caps."""
        key = tuple(a.key() for a in args)
        got = self._cache.get(key)
        if got is None:
            got = self._contract(args)
            got.components = {i: p.pooled(self._pool) for i, p in got.components.items()}
            self._cache[key] = got
        return got

    def _contract(self, args: Sequence[WeylElement]) -> FormElement:
        """tail(args), computed afresh at this level (shorter tails cached)."""
        caps = self._caps[len(args)]
        if not args:
            # Q^m has z-degree >= m and degree 2m: the powers past the z cap
            # are cut whole.
            gen = self.gen.expand(min(caps[1], 2 * caps[0]))
            chain = FormElement({i: p.capped(*caps) for i, p in gen.components.items()},
                                gen.ambient, caps[1])
        else:
            self._check_slot(-len(args), args[0])
            chain = form_star(args[0], self.tail(args[1:]), caps)
        return homotopy_s(chain)

    def value(self, args: Sequence[WeylElement]) -> WeylElement:
        if len(args) != self.arity:
            raise ValueError(f"generator of form degree {self.arity} "
                             f"takes {self.arity} arguments")
        head, rest = args[0], args[1:]
        self._check_slot(0, head)
        key = tuple([a.key() for a in rest])
        table = self._final.get(key)
        if table is None:
            # Only the table reads this suffix's s(tail), so it is not cached.
            table = self._z0_table(self._contract(rest).component(()))
            self._final[key] = table
        if not table:
            return self._zero
        # The head's products, summed into one term map; no term above the
        # target degree is made.
        out: Dict[int, Scalar] = {}
        for m, c in head.poly.terms.items():
            top = None
            for g, r in table.items():
                if mono_divides(g, m):
                    # d_y^gamma y^alpha = alpha! / (alpha - gamma)! y^(alpha - gamma)
                    top = top or mono_factorial(m)
                    d = c.scale_fraction(top // mono_factorial(m - g))
                    Poly({m - g: d}).mul_into(r, out, self.target)
        if not out:
            return self._zero
        return WeylElement(Poly(out), self.gen.ambient, self.target)

    def _z0_table(self, f: Poly) -> Dict[int, Poly]:
        """The key of y^gamma -> (i^|gamma| / gamma!) ((pi D)^gamma f)|_{z=0}
        for the head slot's multi-indices, cut to what the head keeps of the
        target degree; zero entries are left out."""
        return {self._pool.setdefault(key, key): r.scale(coeff).pooled(self._pool)
                for key, _, r, coeff, _
                in _walk(self._head_left, f, self.gen.ambient, self._caps[-1])}


# -- the audited trace --------------------------------------------------------


def build_trace(gen: GaussianGenerator, budget: int) -> DescentTrace:
    """xi_top = s(gen), xi_k = -s(dH xi_{k+1}); plus the resulting cocycle."""
    p = gen.form_degree
    if not p:
        raise ValueError("a generator of form degree 0 has no descent ladder")
    ambient = gen.ambient
    expanded = gen.expand(budget)
    xi = constant_cochain(homotopy_s(expanded), ambient, gen.twist)
    xis = [xi]
    for _ in range(1, p):
        xi = hochschild_d(xi).map_values(lambda v: -homotopy_s(v))
        xis.append(xi)
    cocycle = descent_cocycle(gen, budget=budget)
    return DescentTrace(gen, budget, xis, cocycle)


def verify_descent(trace: DescentTrace, seed: int, count: int = 3,
                   max_degree: int = 1) -> Report:
    """Replay the descent identities on sampled arguments, exactly to budget."""
    gen = trace.generator
    ambient = gen.ambient
    rng = random.Random(seed)
    report = Report(seed, max_degree, detail={"budget": trace.budget, "lines": []})

    def record(name: str, lhs: FormElement, rhs: FormElement,
               args: Sequence[WeylElement] = ()) -> None:
        # lhs = rhs to the lower truncation; a failure names its arguments and
        # the residual.
        t = _min_trunc(lhs.truncation, rhs.truncation)
        text = report.record(lambda: f"{name} {args}" if args else name,
                             lhs.restrict(t) - rhs.restrict(t))
        if text is not None:
            report.detail["lines"].append(f"FAIL {text}")

    # d xi_top = generator (a 0-cochain identity).
    record("d-top", ext_d(trace.xis[0]()), gen.expand(trace.budget))

    # d xi_k = -dH xi_{k+1} on sampled tuples.
    for level in range(1, len(trace.xis)):
        upper = trace.xis[level - 1]
        lower = trace.xis[level]
        for args in weyl_tuples(rng, ambient, lower.arity, count, max_degree):
            record(f"d-level-{level}", ext_d(lower(*args)),
                   hochschild_d(upper)(*args).scale(Scalar.of(-1)), args)

    # dH xi_0 = -value, including vanishing of all z-dependence.
    bottom = trace.xis[-1]
    for args in weyl_tuples(rng, ambient, bottom.arity + 1, count, max_degree):
        lhs = hochschild_d(bottom)(*args)
        value = trace.cocycle(*args)
        record("dH-bottom", lhs,
               FormElement.from_poly(-value.poly, ambient, value.truncation),
               args)

    return report

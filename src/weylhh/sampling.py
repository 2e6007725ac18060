"""Seeded random elements for property checks and cocycle verification.

Everything is drawn from a caller-supplied seed, so verdicts are reproducible
run to run; since the arithmetic is exact, changing the seed may change which
tuples are checked but never whether an identity holds on them.

The argument pool for cocycle verification is degree-stratified: all
monomials up to degree two enter the pool, topped up with random higher
degree combinations, because multilinearity makes monomial coverage complete
degree by degree.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .forms import FormElement
from .poly import Poly, Y, Z
from .scalars import Scalar
from .weyl import SymplecticData, WeylElement, monomials_upto


def random_scalar(rng: random.Random) -> Scalar:
    s = Scalar.of(rng.randint(-3, 3), rng.randint(-3, 3))
    return s if not s.is_zero() else Scalar.of(1)


def random_weyl(rng: random.Random, sym: SymplecticData, max_degree: int,
                terms: int = 3) -> WeylElement:
    size = 2 * sym.n
    poly = Poly.zero()
    for _ in range(rng.randint(1, terms)):
        deg = rng.randint(0, max_degree)
        exps = [0] * size
        for _ in range(deg):
            exps[rng.randrange(size)] += 1
        poly = poly + Poly.monomial(
            [(Y, i + 1, e) for i, e in enumerate(exps) if e],
            random_scalar(rng))
    return WeylElement(poly, sym)


def random_form_poly(rng: random.Random, sym: SymplecticData, max_degree: int) -> Poly:
    size = 2 * sym.n
    poly = Poly.zero()
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(0, max_degree)
        exps = {}
        for _ in range(deg):
            bank = rng.choice([Y, Z])
            idx = rng.randint(1, size)
            exps[(bank, idx)] = exps.get((bank, idx), 0) + 1
        poly = poly + Poly.monomial(
            [(b, i, e) for (b, i), e in exps.items()], random_scalar(rng))
    return poly


def random_form(rng: random.Random, sym: SymplecticData, max_degree: int,
                degree: Optional[int] = None):
    size = 2 * sym.n
    q = rng.randint(0, size) if degree is None else degree
    idx = tuple(sorted(rng.sample(range(1, size + 1), q)))
    return FormElement({idx: random_form_poly(rng, sym, max_degree)}, sym)


def weyl_pool(rng: random.Random, sym: SymplecticData, max_degree: int) -> List[WeylElement]:
    pool = monomials_upto(sym, min(2, max_degree))
    for _ in range(8):
        if max_degree > 2:
            pool.append(random_weyl(rng, sym, max_degree))
    return pool


def weyl_tuples(rng: random.Random, sym: SymplecticData, arity: int,
                count: int, max_degree: int) -> List[Tuple[WeylElement, ...]]:
    pool = weyl_pool(rng, sym, max_degree)
    return [tuple(rng.choice(pool) for _ in range(arity)) for _ in range(count)]


def random_smash(rng: random.Random, group, sym: SymplecticData,
                 max_degree: int):
    # Not at module top: groups imports hochschild, which samples through here.
    from .groups import SmashElement

    terms = {}
    for g in rng.sample(group.elements, rng.randint(1, min(2, len(group.elements)))):
        terms[g] = random_weyl(rng, sym, max_degree, terms=2)
    return SmashElement(group, sym, terms)


def smash_tuples(rng: random.Random, group, sym: SymplecticData, arity: int,
                 count: int, max_degree: int):
    return [tuple(random_smash(rng, group, sym, max_degree) for _ in range(arity))
            for _ in range(count)]


def cocycle_tuples(f, samples):
    """Argument tuples for verify_cocycle, sized for the differential of f."""
    rng = random.Random(samples.seed)
    arity = f.arity + 1
    if samples.group is not None:
        return smash_tuples(rng, samples.group, f.ambient, arity,
                            samples.count, samples.max_degree)
    return weyl_tuples(rng, f.ambient, arity, samples.count, samples.max_degree)

"""Seeded inputs for the benchmark workloads.

Every input is built here from `Poly` terms directly, not through
`weylhh.sampling`, so that a change to the sampling helpers cannot change a
workload.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from weylhh.poly import Poly, Y
from weylhh.scalars import Scalar
from weylhh.weyl import SymplecticData, WeylElement


def _monomial(exps: Sequence[int], coeff: Scalar) -> Poly:
    return Poly.monomial([(Y, i + 1, e) for i, e in enumerate(exps) if e], coeff)


# The eight n=2 basis monomials of the sweep, as exponent vectors over
# (y1, y2, y3, y4): the unit, three of the four degree-1 monomials and four of
# the ten degree-2 monomials.  The degree-2 ones cover all three kinds of
# quadratic monomial under the canonical form: squares, a product within a
# symplectic pair (y1 y2) and a product across the pairs (y1 y3).
SWEEP_N2_PATTERN: Tuple[Tuple[int, ...], ...] = (
    (0, 0, 0, 0),
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
    (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 2),
)

# Index permutations that keep the symplectic pairs {1, 2} and {3, 4}: each is,
# up to the signs of the variables, a symmetry of the canonical form, so every
# relabelled pattern costs the same to sweep.
PAIR_PERMUTATIONS: Tuple[Tuple[int, ...], ...] = (
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
)


def sweep_n2_monomials(seed: int) -> List[WeylElement]:
    """The sweep pattern under a seeded relabelling, in a seeded order."""
    rng = random.Random(f"sweep-n2:{seed}")
    perm = rng.choice(PAIR_PERMUTATIONS)
    sym = SymplecticData.canonical(2)
    out = [WeylElement(_monomial([exps[p] for p in perm], Scalar.of(1)), sym)
           for exps in SWEEP_N2_PATTERN]
    rng.shuffle(out)
    return out

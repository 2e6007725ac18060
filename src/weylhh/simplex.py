"""The oriented-simplex characteristic function and its top cocycle identity.

delta(v_0 .. v_2n) is 0 when the origin lies strictly outside the convex
hull, and otherwise the orientation sign of (v_1-v_0, ..., v_2n-v_0).
Membership is decided by the exact signs of the origin's barycentric
coordinates, read off integer determinants once one common denominator is
cleared, so the only undefined inputs are the genuine null sets: degenerate
simplices and origins sitting exactly on a facet.  Those raise instead of
guessing; the fuzzer treats them as a resample signal.  One sign rule,
_sign_rule, turns the minors of a simplex into its value.  The fuzzer draws
rational points on the grid 1/GRID and holds each coordinate as its integer
multiple of 1/GRID, a positive homothety that keeps every sign.

The alternating-sum coboundary over point tuples makes delta a top cocycle:
for any 2n+2 generic points the signed sum of the 2n+2 facet values cancels
pairwise.  tid_check reads every facet off one set of minors, each computed
once: the minors of the whole configuration scaled by one lcm.  Appending a
fixed auxiliary point exhibits delta as the coboundary of a cochain that is
neither symplectically invariant nor compactly supported; the test suite
pins a witness for that non-invariance.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import lcm
from typing import List, Sequence, Tuple

from . import linalg
from .errors import DegenerateSimplexError, NonGenericConfigError
from .scalars import fraction_text

# Coordinates are ints, or exact rationals with int numerator and denominator.
Point = Tuple[int, ...]
GRID = 840  # lcm(1..8): random_config's draws a/b, b <= 8, are ints over GRID


def _integer_rows(points: Sequence[Point], count: int) -> List[List[int]]:
    """The points as integer columns, coordinate rows, after one positive
    homothety: every point times the lcm of all their denominators.  That
    keeps both membership and orientation of every simplex they span."""
    dim = len(points[0])
    if len(points) != count:
        raise ValueError(f"need {count} points in dimension {dim}")
    if any(len(p) != dim for p in points):
        raise ValueError(f"points differ in dimension: {[len(p) for p in points]}")
    scale = lcm(*(c.denominator for p in points for c in p))
    return [[c.numerator * (scale // c.denominator) for c in coords]
            for coords in zip(*points)]


def _sign_rule(minors: Sequence[int]) -> int:
    """delta of a simplex from its minors det(P without column k), k = 0..dim.

    With M = [P; a row of ones], Cramer's rule gives the barycentric
    coordinates of the origin as lambda_k = c_k / det M, with the cofactors
    c_k = (-1)^(dim+k) minors[k]; expanding det M along its row of ones gives
    det M = sum_k c_k.  det M is (-1)^dim times the determinant of the edges
    v_k - v_0.
    """
    dim = len(minors) - 1
    cofactors = [(-1) ** (dim + k) * m for k, m in enumerate(minors)]
    det = sum(cofactors)
    if not det:
        raise DegenerateSimplexError("degenerate simplex")
    if not all(cofactors):
        raise DegenerateSimplexError("origin lies on a facet")
    if any((c > 0) != (det > 0) for c in cofactors):
        return 0
    sign = 1 if det > 0 else -1
    return -sign if dim % 2 else sign


def tid_check(points: Sequence[Point]) -> bool:
    """The top cocycle identity on 2n+2 points; non-generic configs resample.

    Facet k drops point k, so its minor for point j is the minor of the
    scaled configuration P without columns j and k: the C(2n+2, 2) minors of
    P serve all 2n+2 facets, each computed once, and _sign_rule reads each
    facet's value off them.  The facets are read in order, so a
    configuration is refused, with the same reason, exactly when delta
    refuses one of its facets.
    """
    rows = _integer_rows(points, len(points[0]) + 2)
    cols = range(len(points))
    pair_minor = [[0] * len(points) for _ in cols]
    for j, k in combinations(cols, 2):
        pair_minor[j][k] = pair_minor[k][j] = linalg.int_det(
            [r[:j] + r[j + 1:k] + r[k + 1:] for r in rows])
    total = 0
    try:
        for k in cols:
            value = _sign_rule([pair_minor[k][j] for j in cols if j != k])
            total += -value if k % 2 else value
    except DegenerateSimplexError as exc:
        raise NonGenericConfigError(str(exc))
    return total == 0


# -- seeded sampling -----------------------------------------------------------


def random_config(rng: random.Random, dim: int, count: int) -> List[Point]:
    """count points with coordinates a/b, -100 <= a <= 100 and 1 <= b <= 8,
    each held as the int a/b * GRID."""
    return [tuple(rng.randint(-100, 100) * (GRID // rng.randint(1, 8)) for _ in range(dim))
            for _ in range(count)]


# -- fuzz driver ---------------------------------------------------------------

# Draws per fuzz sample before it gives up on a generic configuration.
MAX_RESAMPLES = 50


def fuzz(dim: int, count: int, seed: int) -> dict:
    """Run the identity fuzzer; exact pass counts, deterministic per seed."""
    rng = random.Random(seed)
    passed = failed = resampled = 0
    first_failure = None
    for _ in range(count):
        for _ in range(MAX_RESAMPLES):
            config = random_config(rng, dim, dim + 2)
            try:
                ok = tid_check(config)
            except NonGenericConfigError:
                resampled += 1
                continue
            if ok:
                passed += 1
            else:
                failed += 1
                if first_failure is None:
                    first_failure = [[fraction_text(c, GRID) for c in p] for p in config]
            break
        else:
            raise NonGenericConfigError("could not sample a generic configuration")
    return {
        "dim": dim,
        "count": count,
        "passed": passed,
        "failed": failed,
        "resampled": resampled,
        "seed": seed,
        "first_failure": first_failure,
    }

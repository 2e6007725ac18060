"""The oriented-simplex characteristic function and its coboundary calculus.

delta(v_0 .. v_2n) is 0 when the origin lies strictly outside the convex
hull, and otherwise the orientation sign of (v_1-v_0, ..., v_2n-v_0).
Membership is decided by the exact signs of the origin's barycentric
coordinates, read off integer determinants once one common denominator is
cleared, so the only undefined inputs are the genuine null sets: degenerate
simplices and origins sitting exactly on a facet.  Those raise instead of
guessing; the fuzzers treat them as a resample signal.  One sign rule,
_sign_rule, turns the minors of a simplex into its value, for delta and for
the identity check alike.

The alternating-sum coboundary over point tuples makes delta a top cocycle:
for any 2n+2 generic points the signed sum of the 2n+2 facet values cancels
pairwise.  tid_check reads every facet off one set of minors, each computed
once: the minors of the whole configuration scaled by one lcm.  Appending a
fixed auxiliary point exhibits delta as the coboundary of a cochain that is
neither symplectically invariant nor compactly supported; a pinned witness
for that non-invariance lives here so the regression suite can assert it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, List, Sequence, Tuple

from . import linalg
from .errors import DegenerateSimplexError, NonGenericConfigError

Point = Tuple[Fraction, ...]


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


def delta(points: Sequence[Point]) -> int:
    """Characteristic value of the oriented simplex spanned by the points."""
    rows = _integer_rows(points, len(points[0]) + 1)
    return _sign_rule([linalg.int_det([r[:k] + r[k + 1:] for r in rows])
                       for k in range(len(points))])


def delta_w(w: Point, points: Sequence[Point]) -> int:
    """The potential cochain: delta with the auxiliary point prepended."""
    return delta([w] + list(points))


def as_coboundary(phi: Callable[..., object], points: Sequence[Point]):
    """Alternating sum of phi over the facets of the point tuple."""
    total = None
    for k in range(len(points)):
        value = phi(*(points[:k] + points[k + 1:]))
        if k % 2:
            value = -value
        total = value if total is None else total + value
    return total


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


def random_point(rng: random.Random, dim: int) -> Point:
    return tuple(Fraction(rng.randint(-100, 100), rng.randint(1, 8))
                 for _ in range(dim))


def random_config(rng: random.Random, dim: int, count: int) -> List[Point]:
    return [random_point(rng, dim) for _ in range(count)]


def random_symplectic(rng: random.Random, dim: int):
    """A random rational matrix preserving the standard symplectic form."""
    n = dim // 2

    def small() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    mat = linalg.identity(dim, Fraction(1), Fraction(0))
    for _ in range(4):
        kind = rng.randrange(2)
        sblock = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sblock[i][j] = sblock[j][i] = small()
        gen = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
               for i in range(dim)]
        for i in range(n):
            for j in range(n):
                if kind == 0:
                    gen[i][n + j] = sblock[i][j]
                else:
                    gen[n + i][j] = sblock[i][j]
        mat = linalg.mat_mul(mat, linalg.mat_from_rows(gen))
    return mat


def standard_form(dim: int):
    """The block form matrix J with J[i][n+i] = 1 used by random_symplectic."""
    n = dim // 2
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i] = Fraction(1)
        rows[n + i][i] = Fraction(-1)
    return linalg.mat_from_rows(rows)


def apply_matrix(matrix, point: Point) -> Point:
    return tuple(sum(matrix[i][j] * point[j] for j in range(len(point)))
                 for i in range(len(point)))


def non_invariance_witness():
    """A pinned (w, config, symplectic map) with delta_w(config) != delta_w(A config).

    The triangle (w, v0, v1) straddles the origin; after the quarter-turn
    both moved points sit above it, so the auxiliary-point cochain changes
    value while delta itself is unchanged termwise.
    """
    w = (Fraction(10), Fraction(0))
    config = [(Fraction(-5), Fraction(1)), (Fraction(-5), Fraction(-1))]
    rotate = linalg.mat_from_rows([
        [Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(0)],
    ])
    return w, config, rotate


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
                    first_failure = [[str(c) for c in p] for p in config]
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

import itertools
import random
from fractions import Fraction

import pytest

from weylhh import linalg
from weylhh.errors import DegenerateSimplexError
from weylhh.scalars import ONE, ZERO, Scalar
from weylhh.simplex import random_config

from oracles import cycle_sign, delta, leibniz_det


def _fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _scalar(rng):
    return Scalar.of(_fraction(rng), _fraction(rng))


FIELDS = [
    pytest.param(_fraction, Fraction(1), Fraction(0), id="fraction"),
    pytest.param(_scalar, ONE, ZERO, id="scalar"),
]


def _matrix(rng, entry, rows, cols):
    return tuple(tuple(entry(rng) for _ in range(cols)) for _ in range(rows))


def test_int_det_matches_leibniz():
    # Small entries make zero leading pivots (row swaps) and singular
    # matrices common; the empty matrix has determinant 1.
    rng = random.Random(2)
    assert linalg.int_det(()) == 1
    seen_zero = seen_swap = False
    for size in (1, 2, 3, 4, 5):
        for _ in range(60):
            a = tuple(tuple(rng.randint(-2, 2) for _ in range(size)) for _ in range(size))
            det = linalg.int_det(a)
            assert isinstance(det, int) and det == leibniz_det(a)
            seen_zero |= det == 0
            seen_swap |= a[0][0] == 0 and det != 0
    assert seen_zero and seen_swap


def test_inverse_and_solve():
    rng = random.Random(2)
    for size in (1, 2, 3, 4):
        a = _matrix(rng, _scalar, size, size)
        if leibniz_det(a) == ZERO:
            continue
        inv = linalg.mat_inverse(a)
        assert linalg.mat_mul(a, inv) == linalg.identity(size)


@pytest.mark.parametrize("entry, one, zero", FIELDS)
def test_rank_of_product(entry, one, zero):
    # U (n x r) and V (r x n) each hold an r x r identity block, so UV has
    # rank exactly r, from n = 1 (a single row) on; shuffling rows and
    # columns keeps the rank.  Its left null space, which takes Scalar
    # entries, then has n - r independent rows x, each with x UV = 0.
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for r in range(0, n + 1):
            u = [[one if i == j else zero for j in range(r)] for i in range(r)]
            u += [[entry(rng) for _ in range(r)] for _ in range(n - r)]
            v = [[one if i == j else zero for j in range(r)]
                 + [entry(rng) for _ in range(n - r)] for i in range(r)]
            if r == 0:
                prod = [[zero] * n for _ in range(n)]
            else:
                prod = [list(row) for row in linalg.mat_mul(u, v)]
            rng.shuffle(prod)
            cols = list(range(n))
            rng.shuffle(cols)
            prod = tuple(tuple(row[c] for c in cols) for row in prod)
            assert linalg.mat_rank(prod) == r
            if one is not ONE:
                continue
            basis = linalg.left_null_space(prod)
            assert len(basis) == linalg.mat_rank(basis) == n - r
            assert not any(any(linalg.mat_mul((x,), prod)[0]) for x in basis)


def test_singular_inverse_and_solve_raise():
    rng = random.Random(4)
    row = tuple(_scalar(rng) for _ in range(3))
    other = tuple(_scalar(rng) for _ in range(3))
    twice = tuple(x + x for x in row)
    singular = (row, other, twice)
    with pytest.raises(ZeroDivisionError):
        linalg.mat_inverse(singular)


def test_perm_sign_matches_cycle_count():
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            assert linalg.perm_sign(perm) == cycle_sign(perm)


def test_perm_sign_of_unsorted_items():
    assert linalg.perm_sign((3, 7)) == 1
    assert linalg.perm_sign((7, 3)) == -1
    assert linalg.perm_sign((2, 4, 1, 3)) == -1


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_delta_orientation_matches_edge_determinant(dim):
    rng = random.Random(5 + dim)
    seen = set()
    for _ in range(200):
        points = random_config(rng, dim, dim + 1)
        try:
            value = delta(points)
        except DegenerateSimplexError:
            continue
        if value == 0:
            continue
        # edges v_k - v_0 as the columns of a matrix
        edges = tuple(tuple(points[k][i] - points[0][i] for k in range(1, dim + 1))
                      for i in range(dim))
        assert value == (1 if leibniz_det(edges) > 0 else -1)
        seen.add(value)
    assert seen == {1, -1}

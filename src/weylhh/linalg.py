"""Small exact linear algebra: Scalar in the package, Fraction in the tests'
oracles.

mat_mul, mat_sub, mat_transpose, row_reduce and mat_rank work over any exact
field: entries only need +, -, *, / and truthiness for the zero test.
identity is the Scalar identity (ONE and ZERO), and mat_inverse and
left_null_space augment by it, so those two take Scalar matrices.  Matrices
are tuples of tuples and never mutated in place.  Rank, inverse and left null
space all read one Gauss-Jordan elimination, row_reduce, which keeps no
determinant.  The one determinant is int_det, the fraction-free (Bareiss)
determinant of an integer matrix: its divisions are exact and it never leaves
the integers, and simplex.tid_check needs only the signs of determinants,
where field arithmetic would cost more than the elimination itself.
"""

from __future__ import annotations

from itertools import combinations

from .scalars import ONE, ZERO


def mat_from_rows(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def identity(size: int) -> tuple:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(size))
        for i in range(size)
    )


def mat_mul(a, b) -> tuple:
    m, inner, p = len(a), len(b), len(b[0])
    out = []
    for i in range(m):
        row = []
        for j in range(p):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_sub(a, b) -> tuple:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mat_transpose(a) -> tuple:
    return tuple(zip(*a))


def row_reduce(a, width=None):
    """Gauss-Jordan elimination on the first width columns (all by default).

    Columns past width (an augmented right side) are carried along.  Returns
    (rows, rank): the reduced rows, whose first rank rows each hold a pivot 1
    with its column zero in every other row, and the rank.
    """
    rows = [list(r) for r in a]
    if not rows:
        return rows, 0
    n_rows = len(rows)
    width = len(rows[0]) if width is None else width
    rank = 0
    for col in range(width):
        pivot_row = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        pivot = prow[col]
        tail = prow[col:] = [x / pivot for x in prow[col:]]
        for r, row in enumerate(rows):
            factor = row[col]
            if factor and r != rank:
                row[col:] = [x - factor * y for x, y in zip(row[col:], tail)]
        rank += 1
        if rank == n_rows:
            break
    return rows, rank


def int_det(a) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Every entry after step k is a (k+1)-minor of a, so each division by the
    previous pivot is exact (Bareiss, Math. Comp. 22, 1968).  The empty
    matrix has determinant 1.
    """
    rows = [list(r) for r in a]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        prow = rows[k]
        pivot = prow[k]
        for row in rows[k + 1:]:
            factor = row[k]
            row[k + 1:] = [(pivot * x - factor * y) // prev
                           for x, y in zip(row[k + 1:], prow[k + 1:])]
        prev = pivot
    return sign * rows[-1][-1] if n else 1


def mat_rank(a) -> int:
    return row_reduce(a)[1]


def mat_inverse(a) -> tuple:
    """Inverse of a square matrix; raises ZeroDivisionError when singular."""
    n = len(a)
    augmented = [list(r) + list(e) for r, e in zip(a, identity(n))]
    rows, rank = row_reduce(augmented, n)
    if rank < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(r[n:]) for r in rows)


def left_null_space(a) -> tuple:
    """Rows spanning {x : x a = 0}: those of row_reduce([a | 1]) past the rank."""
    width = len(a[0])
    augmented = [list(r) + list(e) for r, e in zip(a, identity(len(a)))]
    rows, rank = row_reduce(augmented, width)
    return tuple(tuple(r[width:]) for r in rows[rank:])


def perm_sign(items) -> int:
    """Sign of the permutation that sorts distinct items: inversion parity."""
    return -1 if sum(x > y for x, y in combinations(items, 2)) % 2 else 1

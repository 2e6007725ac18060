"""Small exact linear algebra over any exact field (Scalar or Fraction).

Entries only need +, -, *, / and truthiness for the zero test; matrices are
tuples of tuples and never mutated in place.
"""

from __future__ import annotations


def mat_from_rows(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def identity(size: int, one, zero) -> tuple:
    return tuple(
        tuple(one if i == j else zero for j in range(size))
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


def mat_det(a):
    """Determinant by fraction-free-ish Gaussian elimination with division."""
    n = len(a)
    rows = [list(r) for r in a]
    det = None
    sign_flips = 0
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            zero = rows[0][0] - rows[0][0]
            return zero
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign_flips += 1
        pivot = rows[col][col]
        det = pivot if det is None else det * pivot
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                for c in range(col, n):
                    rows[r][c] = rows[r][c] - factor * rows[col][c]
    if sign_flips % 2:
        det = -det
    return det


def mat_rank(a) -> int:
    if not a:
        return 0
    rows = [list(r) for r in a]
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, n_rows):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                for c in range(col, n_cols):
                    rows[r][c] = rows[r][c] - factor * rows[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def mat_inverse(a, one, zero) -> tuple:
    n = len(a)
    rows = [list(r) + list(row_id) for r, row_id in zip(a, identity(n, one, zero))]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def solve(a, rhs):
    """Solve a*x = rhs for square a; raises ZeroDivisionError when singular."""
    n = len(a)
    rows = [list(r) + [b] for r, b in zip(a, rhs)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            raise ZeroDivisionError("singular system")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))

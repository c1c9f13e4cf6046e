"""Exact linear algebra in integers.

Matrices are lists of rows of ``int``/``Fraction``; nothing here is
numerical.  All elimination is one routine, :func:`eliminate`:
fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) on integer rows,
each update dividing exactly by the previous pivot.  Reduced row echelon
form, rank, kernels and determinants are read off it; the only other loop
is the back substitution inverting upper unitriangular matrices.

>>> rank([[1, 2], [2, 4]])
1
>>> eliminate([[2, -1], [-1, 2]])
([[3, 0], [0, 3]], [0, 1], 3)
>>> kernel_basis([[2, -4, 6]])
[[2, 1, 0], [-3, 0, 1]]
>>> invert_unitriangular([[1, 3], [0, 1]])
[[1, -3], [0, 1]]
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "eliminate",
    "rank",
    "kernel_basis",
    "invert_unitriangular",
    "rref",
]


def eliminate(mat):
    """Fraction-free Gauss-Jordan elimination; returns (rows, pivots, d).

    ``rows`` are integer rows in which every pivot column is zero except
    for the common pivot ``d`` in its own row, ``pivots`` are the pivot
    columns, and rows/d is the reduced row echelon form.  Where a pivot
    has to come from a lower row, that row is added rather than swapped
    in, so for a square matrix of full rank ``d`` is its determinant.
    """
    rows = []
    for row in mat:
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    d = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        k = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r] = [a + b for a, b in zip(rows[r], rows[k])]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or (not f and p == d):
                continue
            new = [p * a - f * b for a, b in zip(row, top)]
            if any(x % d for x in new):
                raise AssertionError("a fraction-free update must divide exactly")
            rows[i] = [x // d for x in new]
        pivots.append(c)
        d = p
    return rows, pivots, d


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows, pivots, d = eliminate(mat)
    return [[Fraction(x, d) for x in row] for row in rows], pivots


def rank(mat) -> int:
    return len(eliminate(mat)[1])


def kernel_basis(mat):
    """Basis of the right kernel {v : mat @ v = 0}, one vector per free column.

    Each vector is primitive in integers, positive at its free column and
    zero at the other free columns.
    """
    if not mat:
        return []
    rows, pivots, d = eliminate(mat)
    basis = []
    for f in range(len(rows[0])):
        if f not in pivots:
            vec = [0] * len(rows[0])
            vec[f] = d
            for r, p in enumerate(pivots):
                vec[p] = -rows[r][f]
            g = math.gcd(*vec) if d > 0 else -math.gcd(*vec)
            basis.append([x // g for x in vec])
    return basis


def invert_unitriangular(mat):
    """Inverse of an upper unitriangular integer matrix, by back substitution.

    Row i of the inverse is e_i minus mat[i][k] times row k, for k > i,
    updated in place over the nonzero columns of row k, which is finished
    by then; any other matrix raises ``ValueError``.
    """
    n = len(mat)
    if any(len(row) != n or row[i] != 1 or any(row[:i]) for i, row in enumerate(mat)):
        raise ValueError("matrix is not upper unitriangular")
    inverse = [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]
    support = [[i] for i in range(n)]  # the nonzero columns of each finished row
    for i in range(n - 2, -1, -1):
        row, coeffs = inverse[i], mat[i]
        for k in range(i + 1, n):
            c = coeffs[k]
            if c:
                other = inverse[k]
                for j in support[k]:
                    row[j] -= c * other[j]
        support[i] = [j for j in range(i, n) if row[j]]
    return inverse

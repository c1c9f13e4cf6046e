"""Exact linear algebra over the rationals.

Matrices are lists of lists (rows) of ``Fraction``/``int``; nothing here is
numerical.  Only the handful of routines the rest of the package needs:
row reduction, rank, kernel basis, the inverse of an upper unitriangular
matrix, and the pivots that give the signs of the leading principal minors.

>>> rank([[1, 2], [2, 4]])
1
>>> leading_pivots([[2, -1], [-1, 2]])
[Fraction(2, 1), Fraction(3, 2)]
>>> invert_unitriangular([[1, 3], [0, 1]])
[[1, -3], [0, 1]]
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "rank",
    "kernel_basis",
    "invert_unitriangular",
    "rref",
    "leading_pivots",
]


def _copy(mat):
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = _copy(mat)
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def leading_pivots(mat):
    """Pivots of elimination without row exchanges, up to the first zero one.

    While the leading principal minors D_1, ..., D_{k-1} are nonzero, pivot
    k is D_k / D_{k-1}.  The list stops after the first zero pivot, so it is
    shorter than the matrix exactly when a minor other than the last is 0.
    """
    rows = _copy(mat)
    pivots = []
    for c in range(len(rows)):
        pivot = rows[c][c]
        pivots.append(pivot)
        if pivot == 0:
            break
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / pivot
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return pivots


def rank(mat) -> int:
    if not mat or not mat[0]:
        return 0
    return len(rref(mat)[1])


def kernel_basis(mat):
    """Basis of the right kernel {v : mat @ v = 0}, as a list of vectors."""
    if not mat:
        return []
    n_cols = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def invert_unitriangular(mat):
    """Inverse of an upper unitriangular integer matrix, by back substitution.

    Row i of the inverse is e_i minus mat[i][k] times row k, for k > i; any
    other matrix raises ``ValueError``.
    """
    n = len(mat)
    if any(len(row) != n or row[i] != 1 or any(row[:i]) for i, row in enumerate(mat)):
        raise ValueError("matrix is not upper unitriangular")
    inverse = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 2, -1, -1):
        for k in range(i + 1, n):
            if mat[i][k]:
                inverse[i] = [a - mat[i][k] * b for a, b in zip(inverse[i], inverse[k])]
    return inverse

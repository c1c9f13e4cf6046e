"""Tests for the exact linear algebra helpers."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from weylkl.linalg import eliminate, invert_unitriangular, kernel_basis, rank, rref
from reference import leading_minors


def _leibniz(mat):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(mat))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        total += (-1) ** inversions * math.prod(mat[i][p] for i, p in enumerate(perm))
    return total


def _minor_rank(mat):
    """Largest k with a nonzero k-by-k minor."""
    m, n = len(mat), len(mat[0])
    return max((k for k in range(1, min(m, n) + 1)
                for rows in combinations(range(m), k) for cols in combinations(range(n), k)
                if _leibniz([[mat[i][j] for j in cols] for i in rows])), default=0)


def _random_matrix(rng, max_size=6):
    """Sparse, dense or low-rank product entries, integer or Fraction."""
    m, n = rng.randint(1, max_size), rng.randint(1, max_size)
    style = rng.randrange(3)
    if style == 0:
        r = rng.randint(0, min(m, n))
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        mat = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
    elif style == 1:
        mat = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)]
    else:
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.4:
        mat = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in mat]
    return mat


MATRICES = [_random_matrix(random.Random(seed)) for seed in range(400)]


def test_rref_is_reduced_echelon_and_spans_the_rows():
    for mat in MATRICES + [[[0, 0], [0, 0]], [[0, 1], [1, 0]]]:
        rows, pivots = rref(mat)
        n_cols = len(mat[0])
        assert pivots == sorted(set(pivots)) and len(rows) == len(mat)
        for r, row in enumerate(rows):
            if r >= len(pivots):
                assert not any(row), mat
                continue
            assert row[pivots[r]] == 1 and not any(row[:pivots[r]]), mat
            assert all(rows[s][pivots[r]] == 0 for s in range(len(rows)) if s != r), mat
        # each row of mat is the combination of the reduced rows read off its
        # pivot columns, so the reduced rows span the row space
        for row in mat:
            assert all(row[j] == sum(row[p] * rows[r][j] for r, p in enumerate(pivots))
                       for j in range(n_cols)), mat
        assert rank(mat) == len(pivots)
        if max(len(mat), n_cols) <= 4:
            assert len(pivots) == _minor_rank(mat), mat


def test_kernel_vectors_are_primitive_null_vectors():
    for mat in MATRICES:
        n_cols = len(mat[0])
        basis = kernel_basis(mat)
        assert rank(mat) + len(basis) == n_cols, mat
        free = [c for c in range(n_cols) if c not in rref(mat)[1]]
        for f, vec in zip(free, basis):
            assert all(type(x) is int for x in vec) and math.gcd(*vec) == 1, mat
            assert vec[f] > 0 and all(vec[g] == 0 for g in free if g != f), mat
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in mat), mat


def test_eliminate_keeps_integer_rows_with_one_common_pivot():
    rows, pivots, d = eliminate([[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), 1]])
    assert pivots == [0, 1]
    assert all(type(x) is int for row in rows for x in row)
    assert [rows[0][0], rows[1][1]] == [d, d]
    assert rref([[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), 1]])[0] == [
        [1, 0, Fraction(6, 5)], [0, 1, Fraction(-3, 5)]]


def test_leading_minors_match_leibniz():
    # eliminate's determinant on each leading block: zero entries make leading
    # minors vanish early, so the elimination has to take pivots from lower
    # rows and still return signed determinants
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 4)
        mat = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        assert leading_minors(mat) == [
            _leibniz([row[:k] for row in mat[:k]]) for k in range(1, n + 1)], mat


def test_invert_unitriangular_back_substitution():
    mat = [[1, 2, -1], [0, 1, 3], [0, 0, 1]]
    inverse = invert_unitriangular(mat)
    assert inverse == [[1, -2, 7], [0, 1, -3], [0, 0, 1]]
    assert all(type(x) is int for row in inverse for x in row)
    assert invert_unitriangular([]) == []


@pytest.mark.parametrize("mat", [
    [[1, 0], [2, 1]],    # lower triangular
    [[2, 1], [0, 1]],    # upper triangular without a unit diagonal
    [[1, 1], [0, -1]],
    [[1, 0, 0], [0, 1]],  # not square
])
def test_invert_unitriangular_refuses_other_matrices(mat):
    with pytest.raises(ValueError):
        invert_unitriangular(mat)

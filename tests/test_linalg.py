"""Tests for the exact linear algebra helpers."""

import pytest

from weylkl.linalg import invert_unitriangular


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

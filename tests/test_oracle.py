"""Tests for the brute-force Verma-module oracle."""

import gc
from fractions import Fraction

import pytest

from weylkl.rootdata import RationalCoweight, build_root_datum
from weylkl.endoscopy import stratify
from weylkl.multiplicity import multiplicity_matrix
from weylkl.oracle import (
    VermaModel,
    oracle_multiplicity_matrix,
    required_depth,
    singular_vectors,
)

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)


def test_sl2_integral_singular_vector():
    # <alpha, hw> = m = 2: the unique singular vector below the top sits at
    # depth m + 1 = 3
    vm = VermaModel(A1, (1,), 6)
    svs = singular_vectors(vm, 6)
    assert [(mu[0], d) for mu, d in svs] == [
        (1, 1), (0, 0), (-1, 0), (-2, 1), (-3, 0), (-4, 0), (-5, 0)]


def test_sl2_nonintegral_verma_is_simple():
    vm = VermaModel(A1, (Fraction(1, 3),), 8)
    svs = singular_vectors(vm, 8)
    assert svs[0][1] == 1  # the highest-weight vector itself
    assert all(d == 0 for _, d in svs[1:])


def test_sl3_antidominant_verma_is_simple():
    vm = VermaModel(A2, (-2, -2), 6)
    svs = singular_vectors(vm, 6)
    top = (Fraction(-2), Fraction(-2))
    assert all(d == 0 for mu, d in svs if mu != top)


def test_sl3_dominant_singular_pattern():
    # hw = 0: singular vectors below the top at the reflected weights
    # -coroot_1, -coroot_2 and the two length-two reflections
    vm = VermaModel(A2, (0, 0), 4)
    nonzero = {tuple(mu) for mu, d in singular_vectors(vm, 3) if d}
    assert nonzero == {(0, 0), (-1, 0), (0, -1), (-1, -2), (-2, -1)}


def test_weight_dimensions_match_partition_counts():
    vm = VermaModel(B2, (Fraction(3, 2), 1), 4)
    # partition counts over the positive coroots (1,0), (0,1), (1,1), (1,2)
    assert vm.weight_dimension((0, 0)) == 1
    assert vm.weight_dimension((1, 0)) == 1
    assert vm.weight_dimension((1, 1)) == 2
    assert vm.weight_dimension((2, 2)) == 4


def test_depth_bound_enforced():
    vm = VermaModel(A1, (1,), 3)
    with pytest.raises(ValueError):
        singular_vectors(vm, 5)
    with pytest.raises(ValueError):
        vm.simple_dimension((4,))
    with pytest.raises(ValueError):
        VermaModel(build_root_datum("A", 3), (0, 0, 0), 2)


def test_oracle_matches_kl_small():
    for letter, rank_, mu, n in (
            ("A", 1, (1,), 1),
            ("A", 1, (1,), 2),
            ("A", 2, (1, 1), 1),
            ("A", 2, (2, 1), 3),
            ("A", 2, (1, 1), 2),
            ("B", 2, (3, 2), 2)):
        datum = build_root_datum(letter, rank_)
        lam = RationalCoweight(mu, n)
        oracle = oracle_multiplicity_matrix(datum, lam)
        kl = [list(map(int, row))
              for row in multiplicity_matrix(stratify(datum, lam))]
        assert oracle == kl, (letter, rank_, mu, n)


def test_oracle_keeps_no_verma_model_alive():
    for datum, lam in ((A1, RationalCoweight((1,), 1)), (A1, RationalCoweight((2,), 1)),
                       (A1, RationalCoweight((3,), 1)), (A2, RationalCoweight((1, 1), 2))):
        oracle_multiplicity_matrix(datum, lam)
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, VermaModel)]


def test_oracle_sl2_values():
    assert oracle_multiplicity_matrix(A1, RationalCoweight((1,), 1)) == [
        [1, 1], [0, 1]]
    # no integral linkage at denominator four: a single simple Verma
    assert oracle_multiplicity_matrix(A1, RationalCoweight((1,), 4)) == [[1]]


def test_oracle_sl3_rho_bruhat_pattern():
    from weylkl.coxeter import bruhat_leq

    strat = stratify(A2, RationalCoweight((1, 1), 1))
    matrix = oracle_multiplicity_matrix(A2, RationalCoweight((1, 1), 1))
    idx = strat.index_set
    for i, w in enumerate(idx):
        for j, y in enumerate(idx):
            assert matrix[i][j] == (1 if bruhat_leq(w, y) else 0)


def test_depth_validation():
    need = required_depth(stratify(A2, RationalCoweight((1, 1), 1)))
    assert need == 6  # orbit diameter 2*rho has coroot height 4, margin 2
    with pytest.raises(ValueError) as err:
        oracle_multiplicity_matrix(A2, RationalCoweight((1, 1), 1), depth=3)
    assert "6" in str(err.value)


def test_rank_limit():
    A3 = build_root_datum("A", 3)
    with pytest.raises(ValueError):
        oracle_multiplicity_matrix(A3, RationalCoweight((1, 1, 1), 1))

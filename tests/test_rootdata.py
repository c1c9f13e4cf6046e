"""Tests for exact root-datum construction and pairings."""

import random
from fractions import Fraction

import pytest

from weylkl.endoscopy import endoscopic_system
from weylkl.rootdata import (
    RationalCoweight,
    RootDatum,
    build_root_datum,
    pairing,
    reflect,
    reflect_coweight_by_root,
)
from reference import dominance_compare, translation_length

POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 3): 9, ("D", 4): 12,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


@pytest.mark.parametrize("cartan_type,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_root_counts(cartan_type, rank):
    datum = build_root_datum(cartan_type, rank)
    assert len(datum.positive_roots) == POSITIVE_ROOT_COUNTS[(cartan_type, rank)]
    assert len(datum.positive_coroots) == len(datum.positive_roots)


@pytest.mark.parametrize("cartan_type,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_rho_pairs_to_one_with_simple_roots(cartan_type, rank):
    datum = build_root_datum(cartan_type, rank)
    for alpha in datum.simple_roots:
        assert pairing(datum, alpha, datum.rho) == 1


def test_simple_roots_are_unit_vectors_in_index_order():
    datum = build_root_datum("B", 3)
    assert datum.simple_roots == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert datum.simple_coroots == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_a2_tables():
    a2 = build_root_datum("A", 2)
    assert a2.cartan_matrix == ((2, -1), (-1, 2))
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert a2.highest_root == (1, 1)
    assert a2.rho == (1, 1)
    assert pairing(a2, a2.highest_root, a2.rho) == 2


def test_b2_tables():
    b2 = build_root_datum("B", 2)
    assert b2.cartan_matrix == ((2, -1), (-2, 2))
    assert set(b2.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    pairs = dict(zip(b2.positive_roots, b2.positive_coroots))
    assert pairs[(1, 0)] == (1, 0)
    assert pairs[(0, 1)] == (0, 1)
    assert pairs[(1, 1)] == (2, 1)  # short root: long coroot
    assert pairs[(1, 2)] == (1, 1)  # highest (long) root: short coroot
    assert b2.rho == (2, Fraction(3, 2))
    assert b2.highest_root == (1, 2)
    assert b2.highest_root_coroot == (1, 1)


def test_g2_tables():
    g2 = build_root_datum("G", 2)
    assert len(g2.positive_roots) == 6
    assert g2.rho == (3, 5)
    for alpha, alpha_vee in zip(g2.positive_roots, g2.positive_coroots):
        assert pairing(g2, alpha, alpha_vee) == 2


@pytest.mark.parametrize("cartan_type,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_root_coroot_pairing_is_two(cartan_type, rank):
    datum = build_root_datum(cartan_type, rank)
    for alpha, alpha_vee in zip(datum.positive_roots, datum.positive_coroots):
        assert pairing(datum, alpha, alpha_vee) == 2


def test_dual_swaps_b_and_c():
    b3 = build_root_datum("B", 3)
    assert b3.dual.cartan_type == "C"
    assert b3.dual.rank == 3
    assert b3.dual.cartan_matrix == tuple(zip(*b3.cartan_matrix))
    # the dual's roots are the original coroots (as sets; orderings differ)
    assert set(b3.dual.positive_roots) == set(b3.positive_coroots)
    assert set(b3.dual.positive_coroots) == set(b3.positive_roots)


def test_dual_of_simply_laced_is_isomorphic():
    a3 = build_root_datum("A", 3)
    assert a3.dual.cartan_matrix == a3.cartan_matrix
    assert set(a3.dual.positive_roots) == set(a3.positive_roots)


@pytest.mark.parametrize("cartan_type,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_simple_reflections_permute_other_positive_coroots(cartan_type, rank):
    datum = build_root_datum(cartan_type, rank)
    positives = set(datum.positive_coroots)
    for i in range(rank):
        simple = datum.simple_coroots[i]
        for vee in positives:
            image = tuple(reflect(datum, i, vee, side="coweight"))
            if vee == simple:
                assert image == tuple(-c for c in vee)
            else:
                assert image in positives


def test_reflect_root_side():
    a2 = build_root_datum("A", 2)
    assert reflect(a2, 0, (1, 0), side="root") == (-1, 0)
    assert reflect(a2, 0, (0, 1), side="root") == (1, 1)
    assert reflect(a2, 1, (1, 1), side="root") == (1, 0)


def test_reflect_coweight_by_root():
    a2 = build_root_datum("A", 2)
    theta, theta_vee = a2.highest_root, a2.highest_root_coroot
    lam = (Fraction(1), Fraction(0))
    image = reflect_coweight_by_root(a2, theta, theta_vee, lam)
    assert tuple(image) == (0, -1)


def _rebuilt(datum):
    """A new datum with the values of ``datum``, through the constructor."""
    return RootDatum(**{name: getattr(datum, name) for name in RootDatum.__slots__})


def test_equal_data_hash_equal():
    """A copy equal to a built datum hashes equal to it and finds the same
    cache entries, whose keys hash by type and rank alone."""
    for cartan_type, rank in sorted(POSITIVE_ROOT_COUNTS):
        datum = build_root_datum(cartan_type, rank)
        copy = _rebuilt(datum)
        assert copy is not datum and copy == datum
        assert hash(copy) == hash(datum) == hash((cartan_type, rank))
    b3 = build_root_datum("B", 3)
    assert endoscopic_system(_rebuilt(b3), (0, 1, 2)) is endoscopic_system(b3, (0, 1, 2))
    assert build_root_datum("B", 3) != build_root_datum("C", 3)


REFERENCE_TYPES = (
    [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 8)]
    + [("C", r) for r in range(2, 8)] + [("D", r) for r in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("cartan_type,rank", REFERENCE_TYPES)
def test_pairing_rows_and_root_index(cartan_type, rank):
    datum = build_root_datum(cartan_type, rank)
    assert len(datum.root_index) == len(datum.positive_roots)
    assert all(datum.positive_roots[k] == beta for beta, k in datum.root_index.items())
    rng = random.Random(f"pairing rows {cartan_type}{rank}")
    for _ in range(5):
        mu = tuple(rng.randint(-5, 5) for _ in range(rank))
        for row, beta in zip(datum.pairing_rows, datum.positive_roots):
            assert sum(r * m for r, m in zip(row, mu)) == pairing(datum, beta, mu)


def test_rational_coweight():
    lam = RationalCoweight((3, 2), 2)
    assert lam.vector == (Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        RationalCoweight((1, 2), 0)
    with pytest.raises(ValueError):
        RationalCoweight((Fraction(1, 2), 1), 2)


@pytest.mark.parametrize("n", [2.5, 2.0, Fraction(2), "2"])
def test_rational_coweight_denominator_must_be_an_integer(n):
    with pytest.raises(ValueError):
        RationalCoweight((1, 1), n)


def test_dominance_compare():
    assert dominance_compare((0, 0), (1, 2))
    assert dominance_compare((1, 2), (1, 2))
    assert not dominance_compare((2, 0), (1, 2))
    assert not dominance_compare((0, Fraction(1, 2)), (0, 1))  # non-integral gap


def test_translation_length_values():
    a1 = build_root_datum("A", 1)
    a2 = build_root_datum("A", 2)
    b2 = build_root_datum("B", 2)
    assert translation_length(a1, (1,)) == 2
    assert translation_length(a1, (-2,)) == 4
    assert translation_length(a2, (1, 0)) == 4
    assert translation_length(a2, (1, 1)) == 4
    assert translation_length(b2, (1, 0)) == 4
    assert translation_length(b2, (0, 1)) == 6


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        build_root_datum("H", 3)
    with pytest.raises(ValueError):
        build_root_datum("E", 9)
    with pytest.raises(ValueError):
        build_root_datum("B", 1)

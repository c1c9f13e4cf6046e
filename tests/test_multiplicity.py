"""Tests for composition multiplicities, inverses, and graded partitions."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import weylkl.multiplicity
from weylkl.rootdata import RationalCoweight, build_root_datum, pairing
from weylkl.coxeter import bruhat_leq, longest_element, multiply
from weylkl.endoscopy import coweight_orbit_action, stratify
from weylkl.kl import kl_polynomial
from weylkl.multiplicity import (
    _height_counts,
    _inverse_row,
    graded_partition_polynomial,
    graded_partition_series,
    index_highest_weights,
    inverse_multiplicity_matrix,
    multiplicity,
    multiplicity_matrix,
    multiplicity_polynomial,
    simple_module_dimension,
    simple_weight_multiplicity,
)
from reference import orbit_walk

A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)
SMALL_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "small_pool.json"


def test_regular_integral_a2_matrix_is_bruhat_indicator():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    matrix = multiplicity_matrix(strat)
    for i, w in enumerate(strat.index_set):
        for j, y in enumerate(strat.index_set):
            assert matrix[i][j] == (1 if bruhat_leq(w, y) else 0)


def test_highest_weights_a2_rho():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    weights = index_highest_weights(strat)
    assert weights[0] == (0, 0)
    assert weights[-1] == (-2, -2)  # lowest: w0(rho) - rho = -2 rho
    assert len(set(weights)) == 6


def test_matrix_unitriangular_and_inverse():
    for datum, lam in [
        (A2, RationalCoweight((1, 1), 1)),
        (A2, RationalCoweight((2, 1), 3)),
        (B2, RationalCoweight((3, 2), 2)),
        (B2, RationalCoweight((4, 3), 2)),
    ]:
        strat = stratify(datum, lam)
        matrix = multiplicity_matrix(strat)
        size = len(matrix)
        for i in range(size):
            assert matrix[i][i] == 1
            for j in range(i):
                assert matrix[i][j] == 0
        inverse = inverse_multiplicity_matrix(strat)
        for i in range(size):
            for j in range(size):
                total = sum(matrix[i][k] * inverse[k][j] for k in range(size))
                assert total == (1 if i == j else 0)


def test_inverse_row_is_the_row_of_the_inverse():
    """The forward solve of one row agrees with the whole inverse, row by
    row, on a regular, a singular and a near-regular block."""
    for datum, lam in [(A2, RationalCoweight((1, 1), 1)),
                       (B2, RationalCoweight((3, 2), 2)),
                       (build_root_datum("B", 4), RationalCoweight((2, 3, 1, 1), 1))]:
        strat = stratify(datum, lam)
        rows = [_inverse_row(strat, k) for k in range(len(strat.index_set))]
        assert rows == inverse_multiplicity_matrix(strat)


def test_dimension_refuses_before_solving(monkeypatch):
    def no_solve(strat, row):
        raise AssertionError("solved a row for a refused module")

    monkeypatch.setattr(weylkl.multiplicity, "_inverse_row", no_solve)
    strat = stratify(A2, RationalCoweight((3, 3), 1))
    with pytest.raises(ValueError, match="not finite dimensional"):
        simple_module_dimension(strat, strat.system.element((1,)))


def test_singular_block_multiplicities():
    strat = stratify(A2, RationalCoweight((2, 1), 3))
    assert len(strat.index_set) == 3
    matrix = multiplicity_matrix(strat)
    assert matrix == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def test_multiplicity_polynomial_values():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    e = strat.index_set[0]
    top = strat.index_set[-1]
    assert multiplicity_polynomial(strat, e, top) == (1,)
    assert multiplicity(strat, e, top) == 1
    assert multiplicity(strat, top, e) == 0
    # for a singular block the index set is a proper subset of the group:
    # elements outside it are rejected
    sing = stratify(A2, RationalCoweight((2, 1), 3))
    assert len(sing.index_set) == 3
    outside = sing.system.element((1, 2, 1))  # longest element, not a coset rep
    assert outside not in sing.index_set
    with pytest.raises(ValueError):
        multiplicity_polynomial(sing, sing.index_set[0], outside)


def test_dimensions_via_alternating_sums():
    # trivial module
    assert simple_module_dimension(stratify(A2, RationalCoweight((1, 1), 1))) == 1
    # first fundamental representation of the dual (3-dimensional)
    assert simple_module_dimension(stratify(A2, RationalCoweight((5, 4), 3))) == 3
    # adjoint (8-dimensional)
    assert simple_module_dimension(stratify(A2, RationalCoweight((2, 2), 1))) == 8
    # B2: standard four-dimensional representation of the dual (sp4) side;
    # Weyl dimension formula: (2/1)*(1/1)*(3/2)*(4/3) = 4
    strat = stratify(B2, RationalCoweight((3, 2), 1))  # lam = rho + first fundamental
    assert simple_module_dimension(strat) == 4


def test_dimension_refuses_a_module_that_is_not_finite_dimensional():
    # y(lam') is dominant only for y = e, so L(y(lam') - rho) is infinite
    # dimensional for every other index element
    for datum, lam, word in [(A2, (3, 3), (1,)),
                             (build_root_datum("A", 3), (2, 3, 2), (2,))]:
        strat = stratify(datum, RationalCoweight(lam, 1))
        y = strat.system.element(word)
        assert y in strat.index_set
        with pytest.raises(ValueError, match="not finite dimensional"):
            simple_module_dimension(strat, y)
    # the default y is the minimal mover, here w0
    with pytest.raises(ValueError, match="not finite dimensional"):
        simple_module_dimension(stratify(A2, RationalCoweight((-3, -3), 1)))
    sing = stratify(A2, RationalCoweight((2, 1), 3))
    with pytest.raises(ValueError, match="index-set element"):
        simple_module_dimension(sing, sing.system.element((1, 2, 1)))
    with pytest.raises(ValueError, match="pairing integrally"):
        simple_module_dimension(stratify(A2, RationalCoweight((1, 1), 2)))
    # lam' = 0: the weight cone has negative depth
    with pytest.raises(ValueError, match="not finite dimensional"):
        simple_module_dimension(stratify(A2, RationalCoweight((0, 0), 1)))


def _weyl_dimension(datum, lam):
    """prod <alpha, lam> / <alpha, rho> over the positive roots."""
    out = Fraction(1)
    for alpha in datum.positive_roots:
        out *= pairing(datum, alpha, lam) / pairing(datum, alpha, datum.rho)
    return out


WEYL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
              ("C", 3), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("letter,rank", WEYL_TYPES)
def test_dimension_is_weyls_formula_on_regular_dominant_weights(letter, rank):
    datum = build_root_datum(letter, rank)
    rng = random.Random(f"weyl dimension {letter}{rank}")
    checked = 0
    while checked < 4:
        strat = stratify(datum, RationalCoweight(
            tuple(rng.randint(-3, 3) for _ in range(rank)), 1))
        if strat.singular:
            continue
        expected = _weyl_dimension(datum, strat.lambda_prime)
        assert simple_module_dimension(strat, strat.index_set[0]) == expected
        checked += 1


def test_dimension_of_twice_rho_on_d4_is_fast():
    datum = build_root_datum("D", 4)
    start = time.perf_counter()
    strat = stratify(datum, RationalCoweight(tuple(int(2 * r) for r in datum.rho), 1))
    assert simple_module_dimension(strat) == 4096 == _weyl_dimension(datum, strat.lambda_prime)
    assert time.perf_counter() - start < 5


def _cone_walk_dimension(strat):
    """The weight-by-weight sum over the cone below the top weight, bounded
    by the lowest weight w0(lam' - rho): the reference for the height-count
    formula of :func:`simple_module_dimension` (y = e)."""
    if len(strat.integral_indices) != len(strat.datum.positive_roots):
        raise ValueError(
            "weight-multiplicity sums require a coweight pairing integrally "
            "with every positive root")
    coeffs = inverse_multiplicity_matrix(strat)[0]
    weights = index_highest_weights(strat)
    hw = weights[0]
    lowest = coweight_orbit_action(strat, longest_element(strat.system), hw)
    depth = sum(h - low for h, low in zip(hw, lowest))
    if depth < 0 or Fraction(depth).denominator != 1:
        raise ValueError("the requested simple module is not finite dimensional")
    coroots = strat.datum.positive_coroots
    total = 0
    seen = set()
    stack = [tuple(hw)]
    while stack:
        nu = stack.pop()
        if nu in seen:
            continue
        seen.add(nu)
        if sum(h - x for h, x in zip(hw, nu)) > depth:
            continue
        for coeff, top in zip(coeffs, weights):
            if coeff:
                gap = tuple(t - x for t, x in zip(top, nu))
                total += coeff * sum(graded_partition_polynomial(coroots, gap))
        for vee in coroots:
            stack.append(tuple(x - v for x, v in zip(nu, vee)))
    return total


def _outcome(function, strat):
    try:
        return function(strat)
    except ValueError as exc:
        return str(exc)


def test_dimension_matches_the_cone_walk_on_seeded_blocks():
    rng = random.Random("cone walk")
    types = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
    kinds = {"value": 0, "singular": 0, "refused": 0}
    for k in range(140):
        letter, rank = types[k % len(types)]
        n = rng.randint(1, 3)
        scale = n if k % 2 else 1
        mu = tuple(scale * rng.randint(-2, 2) for _ in range(rank))
        strat = stratify(build_root_datum(letter, rank), RationalCoweight(mu, n))
        expected = _outcome(_cone_walk_dimension, strat)
        got = _outcome(lambda s: simple_module_dimension(s, s.index_set[0]), strat)
        assert got == expected, (letter, rank, mu, n)
        if isinstance(got, str):
            kinds["refused"] += 1
        else:
            kinds["singular" if strat.singular else "value"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_dimension_matches_the_small_pool_and_the_cone_walk():
    pool = [entry for entry in json.loads(SMALL_POOL.read_text(encoding="utf-8"))
            if "dimension" in entry]
    assert len(pool) == 79
    for entry in pool:
        datum = build_root_datum(entry["type"], entry["rank"])
        strat = stratify(datum, RationalCoweight(tuple(entry["mu"]), entry["n"]))
        got = simple_module_dimension(strat, strat.index_set[0])
        assert got == entry["dimension"] == _cone_walk_dimension(strat), entry


def _fraction_drop_dimension(strat):
    """The height-count sum of :func:`simple_module_dimension` with its drops
    ht(lam' - w(lam')) summed in Fractions over the orbit walk's points."""
    top = strat.lambda_prime
    drops = []
    for _word, point in orbit_walk(strat.datum, strat.simple_roots,
                                   strat.simple_coroots, top):
        drop = sum(t - p for t, p in zip(top, point))
        assert drop >= 0 and drop.denominator == 1
        drops.append(int(drop))
    coroots = strat.datum.positive_coroots
    depth = drops[-1] - sum(map(sum, coroots))
    assert depth >= 0
    counts = _height_counts(coroots, depth)
    coeffs = inverse_multiplicity_matrix(strat)[0]
    return sum(coeff * counts[depth - drop]
               for coeff, drop in zip(coeffs, drops) if coeff and drop <= depth)


def test_dimension_matches_fraction_drops_over_the_orbit_walk():
    pool = [entry for entry in json.loads(SMALL_POOL.read_text(encoding="utf-8"))
            if "dimension" in entry]
    fractional = 0
    for entry in pool:
        datum = build_root_datum(entry["type"], entry["rank"])
        strat = stratify(datum, RationalCoweight(tuple(entry["mu"]), entry["n"]))
        got = simple_module_dimension(strat, strat.index_set[0])
        assert got == _fraction_drop_dimension(strat), entry
        fractional += any(c.denominator > 1 for c in strat.lambda_prime)
    assert fractional >= 1
    # lambda' with denominators 3 and 2: the walk's numerators are over d > 1
    # and every drop is their sum divided exactly by d
    for datum, lam, dimension in [(A2, RationalCoweight((4, 5), 3), 3),
                                  (build_root_datum("A", 3), RationalCoweight((5, 6, 5), 2), 15)]:
        strat = stratify(datum, lam)
        assert {c.denominator for c in strat.lambda_prime} - {1} == {lam.n}
        assert simple_module_dimension(strat, strat.index_set[0]) == dimension
        assert _fraction_drop_dimension(strat) == dimension


def test_weight_multiplicities_adjoint():
    strat = stratify(A2, RationalCoweight((2, 2), 1))
    y = strat.minimal_mover
    assert simple_weight_multiplicity(strat, y, (1, 1)) == 1
    assert simple_weight_multiplicity(strat, y, (0, 0)) == 2
    assert simple_weight_multiplicity(strat, y, (2, 1)) == 0
    assert simple_weight_multiplicity(strat, y, (-1, -1)) == 1


def test_weight_multiplicity_requires_integrality():
    strat = stratify(A2, RationalCoweight((1, 1), 2))
    with pytest.raises(ValueError):
        simple_weight_multiplicity(strat, strat.minimal_mover, (0, 0))


def test_weight_of_the_wrong_length_is_refused():
    strat = stratify(A2, RationalCoweight((2, 2), 1))
    e = strat.index_set[0]
    hw = index_highest_weights(strat)[0]
    assert simple_weight_multiplicity(strat, e, hw) == 1
    with pytest.raises(ValueError, match="the rank is 2"):
        simple_weight_multiplicity(strat, e, hw[:1])


def test_graded_partition_polynomial_basics():
    vectors = ((1, 0), (0, 1), (1, 1))
    assert graded_partition_polynomial(vectors, (0, 0)) == (1,)
    # (1,1) = (1,1) [one part] or (1,0)+(0,1) [two parts]
    assert graded_partition_polynomial(vectors, (1, 1)) == (0, 1, 1)
    assert graded_partition_polynomial(vectors, (-1, 0)) == ()
    assert graded_partition_polynomial(vectors, (Fraction(1, 2), 0)) == ()


@pytest.mark.parametrize("datum,height", [(A2, 6), (B2, 6)])
def test_graded_partition_identity(datum, height):
    """Sum of K_alpha(q) e^alpha against the geometric-series product."""
    vectors = datum.positive_coroots
    series = graded_partition_series(vectors, height)
    assert series[tuple([0] * datum.rank)] == (1,)
    for expo, poly in series.items():
        assert graded_partition_polynomial(vectors, expo) == poly
    # and nothing of small height is missed by the product expansion
    for expo, poly in series.items():
        assert sum(expo) <= height


def test_verma_weight_dimension_is_partition_count():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    weights = index_highest_weights(strat)
    matrix = multiplicity_matrix(strat)
    coroots = A2.positive_coroots
    # dim M(hw)_nu = K(hw - nu); check through the composition series:
    # sum over y of [M(w):L(y)] * dim L(y)_nu must equal the partition count
    for i, w in enumerate(strat.index_set):
        hw = weights[i]
        for nu in [(0, 0), (-1, 0), (-1, -1), (-2, -1)]:
            verma_dim = sum(graded_partition_polynomial(
                coroots, tuple(h - x for h, x in zip(hw, nu))))
            total = 0
            for j, y in enumerate(strat.index_set):
                if matrix[i][j]:
                    total += matrix[i][j] * simple_weight_multiplicity(strat, y, nu)
            assert total == verma_dim, (w.word_labels, nu)


# -- the parabolic engine against the full group --------------------------------


def _full_group_matrix(strat):
    """[P_{x w_J, y w_J}(1)] from the J = () table of the whole group."""
    system = strat.system
    wj = longest_element(system, strat.singular)
    shifted = [multiply(w, wj) for w in strat.index_set]
    return [[sum(kl_polynomial(system, x, y)) for y in shifted] for x in shifted]


def test_parabolic_matrices_match_the_full_group_on_the_small_pool():
    pool = json.loads(SMALL_POOL.read_text(encoding="utf-8"))
    rng = random.Random("parabolic reference")
    singular = 0
    for entry in rng.sample(pool, 200):
        datum = build_root_datum(entry["type"], entry["rank"])
        strat = stratify(datum, RationalCoweight(tuple(entry["mu"]), entry["n"]))
        singular += bool(strat.singular)
        assert multiplicity_matrix(strat) == _full_group_matrix(strat), entry
    assert singular >= 40


def test_parabolic_matrix_matches_the_full_group_on_a_b4_near_regular_block():
    strat = stratify(build_root_datum("B", 4), RationalCoweight((2, 3, 1, 1), 1))
    assert len(strat.index_set) == 96 and strat.singular
    assert multiplicity_matrix(strat) == _full_group_matrix(strat)

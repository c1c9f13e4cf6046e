"""Acceptance suite: one test per criterion, with a visible PASS/FAIL line.

Each test prints "[criterion N] <name>: PASS|FAIL" directly to the real
stdout so the verdict survives pytest's capture, then asserts as usual.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from weylkl.rootdata import RationalCoweight, build_root_datum
from weylkl.coxeter import CoxeterSystem, weyl_system
from weylkl.kl import format_kl_table, kl_polynomial, kl_table
from weylkl.endoscopy import stratify
from weylkl.multiplicity import (
    graded_partition_polynomial,
    graded_partition_series,
    multiplicity_matrix,
    simple_module_dimension,
)
from weylkl.affine import (
    AffineCoweight,
    LevelClass,
    affine_endoscopy,
    affine_index_set,
    affine_strata_index,
    classify_level,
    negate,
)
from weylkl.folding import coinvariant_map_a, fold
from weylkl.oracle import oracle_multiplicity_matrix
from reference import subgroup_matrices


class _criterion:
    """Context manager printing the PASS/FAIL line for one criterion."""

    def __init__(self, number, name, capfd):
        self.number, self.name, self.capfd = number, name, capfd

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        with self.capfd.disabled():
            print(f"\n[criterion {self.number}] {self.name}: {verdict}",
                  file=sys.stdout, flush=True)
        return False


# -- 1 ---------------------------------------------------------------------


ORACLE_SUITE = (
    ("A", 1, (1,), 1),   # integral regular
    ("A", 1, (1,), 2),   # denominator two
    ("A", 2, (1, 1), 1),  # regular integral (half-sum of coroots)
    ("A", 2, (2, 1), 3),  # singular integral (a fundamental coweight)
    ("A", 2, (1, 1), 2),  # rational half of the half-sum
    ("B", 2, (4, 3), 2),  # regular integral
    ("B", 2, (3, 2), 2),  # one half-integral pairing
)


def test_criterion_1_oracle_equivalence(capfd):
    with _criterion(1, "oracle equivalence on rank <= 2 suite", capfd):
        for letter, rank, mu, n in ORACLE_SUITE:
            datum = build_root_datum(letter, rank)
            lam = RationalCoweight(mu, n)
            start = time.monotonic()
            observed = oracle_multiplicity_matrix(datum, lam)
            predicted = [[int(x) for x in row]
                         for row in multiplicity_matrix(stratify(datum, lam))]
            elapsed = time.monotonic() - start
            assert observed == predicted, (letter, rank, mu, n)
            assert elapsed < 60.0, (letter, rank, mu, n, elapsed)


# -- 2 ---------------------------------------------------------------------


def test_criterion_2_known_kl_values(capfd):
    with _criterion(2, "known KL values", capfd):
        system = weyl_system(build_root_datum("A", 3))
        e = system.identity
        # the permutations 3412 and 4231 in one-line notation
        assert kl_polynomial(system, e, system.element((2, 1, 3, 2))) == (1, 1)
        assert kl_polynomial(system, e,
                             system.element((1, 2, 3, 2, 1))) == (1, 1)
        for letter, rank in (("A", 2), ("B", 2), ("G", 2)):
            table = kl_table(weyl_system(build_root_datum(letter, rank)))
            assert all(coeffs == (1,) for coeffs in table.values()), (
                letter, rank)


# -- 3 ---------------------------------------------------------------------


def _matrix_apply(matrix, vec):
    # matrix columns are the images of the simple coweights
    n = len(vec)
    return tuple(sum(matrix[j][i] * vec[j] for j in range(n))
                 for i in range(n))


def test_criterion_3_endoscopy_brute_force(capfd):
    with _criterion(3, "integral subgroup vs brute force, ranks <= 3", capfd):
        start = time.monotonic()
        for letter, rank in (("A", 1), ("A", 2), ("B", 2), ("C", 2),
                             ("G", 2), ("A", 3), ("B", 3), ("C", 3)):
            datum = build_root_datum(letter, rank)
            simple_idx = tuple(i for i, r in enumerate(datum.positive_roots)
                               if sum(r) == 1)
            full_group = subgroup_matrices(datum, simple_idx)
            generated = {}
            for mu in itertools.product(range(-3, 4), repeat=rank):
                for n in (1, 2, 3, 4):
                    lam = RationalCoweight(mu, n)
                    vec = lam.vector
                    strat = stratify(datum, lam)
                    brute = frozenset(
                        m for m in full_group
                        if all(Fraction(a - b).denominator == 1
                               for a, b in zip(vec, _matrix_apply(m, vec))))
                    key = strat.simple_indices
                    if key not in generated:
                        generated[key] = subgroup_matrices(datum, key)
                    assert brute == generated[key], (letter, rank, mu, n)
                    singular_idx = tuple(strat.simple_indices[label - 1]
                                         for label in sorted(strat.singular))
                    order_j = len(subgroup_matrices(datum, singular_idx))
                    assert len(strat.index_set) * order_j == len(
                        generated[key]), (letter, rank, mu, n)
        assert time.monotonic() - start < 300.0


# -- 4 ---------------------------------------------------------------------


def test_criterion_4_graded_character_identity(capfd):
    with _criterion(4, "graded partition identity to height 6", capfd):
        for letter, rank in (("A", 2), ("B", 2)):
            datum = build_root_datum(letter, rank)
            roots = datum.positive_roots
            series = graded_partition_series(roots, 6)
            # every exponent of the product expansion matches the recursion
            for alpha, coeffs in series.items():
                assert coeffs == graded_partition_polynomial(roots, alpha)
            # and the product misses no exponent with a nonzero polynomial
            for alpha in itertools.product(range(7), repeat=rank):
                if sum(alpha) > 6:
                    continue
                expected = graded_partition_polynomial(roots, alpha)
                assert series.get(alpha, ()) == expected, (letter, alpha)


# -- 5 ---------------------------------------------------------------------


def test_criterion_5_finite_dimensional_characters(capfd):
    with _criterion(5, "alternating character sums give Weyl dimensions", capfd):
        datum = build_root_datum("A", 2)
        rho_strat = stratify(datum, RationalCoweight((1, 1), 1))
        assert simple_module_dimension(rho_strat) == 1
        shifted = stratify(datum, RationalCoweight((5, 4), 3))
        assert simple_module_dimension(shifted) == 3
        # Weyl's formula at 2 rho: prod <2 rho, alpha>/<rho, alpha> = 2^|Phi+|;
        # test_multiplicity.py checks the formula on seeded regular weights
        for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                             ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
            datum = build_root_datum(letter, rank)
            twice_rho = RationalCoweight(tuple(int(2 * r) for r in datum.rho), 1)
            assert simple_module_dimension(stratify(datum, twice_rho)) == \
                2 ** len(datum.positive_roots), (letter, rank)


# -- 6 ---------------------------------------------------------------------


def test_criterion_6_affine_trichotomy_and_symmetry(capfd):
    with _criterion(6, "affine level trichotomy and +/- symmetry", capfd):
        for a in range(-3, 4):
            for b in range(-3, 4):
                if a == 0:
                    if b != 0:
                        with pytest.raises(ValueError):
                            classify_level(AffineCoweight((0,), (a, b), 1))
                    continue
                cls = classify_level(AffineCoweight((0,), (a, b), 1))
                if b == 0:
                    assert cls is LevelClass.CRITICAL
                elif a * b < 0:
                    assert cls is LevelClass.POSITIVE
                else:
                    assert cls is LevelClass.NEGATIVE
        datum = build_root_datum("A", 1)
        for mu, num, n in (((1,), 4, 2), ((0,), 1, 2), ((1,), 2, 2)):
            pos = AffineCoweight.from_level(mu, num, n)
            neg = negate(pos)
            assert classify_level(neg) is LevelClass.NEGATIVE
            sp = affine_endoscopy(datum, pos)
            sn = affine_endoscopy(datum, neg)
            assert sp.system.gcm == sn.system.gcm
            up = {w.word for w in affine_index_set(sp, 6)}
            un = {w.word for w in affine_index_set(sn, 6)}
            assert up == un
            for bound in (((0,), 0), ((1,), 0), ((1,), 1), ((2,), 1)):
                wp = {w.word for w, _ in affine_strata_index(sp, bound)}
                wn = {w.word for w, _ in affine_strata_index(sn, bound)}
                assert wp == wn, (mu, num, n, bound)


# -- 7 ---------------------------------------------------------------------


FOLDING_TABLE = (
    ("A", 3, (3, 2, 1), "C2", ((2, -2), (-1, 2))),
    ("D", 4, (3, 2, 4, 1), "G2", ((2, -3), (-1, 2))),
    ("E", 6, (6, 2, 5, 4, 3, 1), "F4",
     ((2, 0, -1, 0), (0, 2, 0, -1), (-1, 0, 2, -2), (0, -1, -1, 2))),
)


def _apply_permutation(sigma, vec):
    out = [0] * len(vec)
    for i, image in enumerate(sigma):
        out[image - 1] = vec[i]
    return tuple(out)


def test_criterion_7_folding_table(capfd):
    with _criterion(7, "folded Cartan tables and coinvariant map", capfd):
        rng = random.Random(11)
        for letter, rank, sigma, expected_type, expected_cartan in (
                FOLDING_TABLE):
            fd = fold(build_root_datum(letter, rank), sigma)
            assert f"{fd.folded.cartan_type}{fd.folded.rank}" == expected_type
            assert fd.invariant_cartan == expected_cartan
            # the node map realizes the folded Cartan inside the built table
            built = fd.folded.cartan_matrix
            pi = fd.folded_nodes
            for i in range(fd.folded.rank):
                for j in range(fd.folded.rank):
                    assert fd.invariant_cartan[i][j] == built[pi[i]][pi[j]]
            # well-definedness on the coinvariant lattice: adding any vector
            # of the form sigma(u) - u never changes the value
            for _ in range(100):
                alpha = tuple(rng.randint(-5, 5) for _ in range(rank))
                u = tuple(rng.randint(-5, 5) for _ in range(rank))
                shift = tuple(s - t
                              for s, t in zip(_apply_permutation(sigma, u), u))
                moved = tuple(x + s for x, s in zip(alpha, shift))
                assert coinvariant_map_a(fd, moved) == coinvariant_map_a(
                    fd, alpha)


# -- 8 ---------------------------------------------------------------------


def test_criterion_8_determinism_and_performance(capfd):
    with _criterion(8, "A4 KL table determinism under 60s", capfd):
        cartan = build_root_datum("A", 4).cartan_matrix
        start = time.monotonic()
        # two fresh systems, so the second table is recomputed, not re-read
        first = format_kl_table(kl_table(CoxeterSystem(cartan)))
        second = format_kl_table(kl_table(CoxeterSystem(cartan)))
        elapsed = time.monotonic() - start
        assert first == second
        assert elapsed < 60.0, elapsed

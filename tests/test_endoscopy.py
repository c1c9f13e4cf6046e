"""Tests for integral subsystems, their Coxeter systems, and stratification."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import weylkl
from weylkl.linalg import rref
from weylkl.multiplicity import (
    index_highest_weights,
    inverse_multiplicity_matrix,
    multiplicity_matrix,
)
from weylkl.rootdata import (
    RationalCoweight,
    build_root_datum,
    pairing,
    reflect_coweight_by_root,
)
from weylkl.coxeter import CoxeterSystem, parabolic_quotient
from weylkl.endoscopy import (
    Stratification,
    _endoscopic_system,
    coweight_orbit_action,
    endoscopic_system,
    indecomposable_indices,
    integral_positive_roots,
    strata_for_degree,
    stratify,
)
from reference import coweight_action, dominance_compare, orbit_walk, subgroup_matrices

SMALL_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "small_pool.json"

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


def roots_of(datum, indices):
    return {datum.positive_roots[k] for k in indices}


def test_integral_roots_for_integral_coweight():
    lam = RationalCoweight((1, 1), 1)
    assert len(integral_positive_roots(A2, lam)) == 3
    assert len(integral_positive_roots(B2, RationalCoweight((4, 3), 2))) == 4


def test_integral_roots_half_rho_a2():
    lam = RationalCoweight((1, 1), 2)
    idx = integral_positive_roots(A2, lam)
    assert roots_of(A2, idx) == {(1, 1)}  # only the highest root has even height


def test_integral_roots_half_integral_b2():
    lam = RationalCoweight((3, 2), 2)
    idx = integral_positive_roots(B2, lam)
    assert roots_of(B2, idx) == {(1, 0), (1, 2)}  # the two long roots


def test_integral_roots_empty():
    assert integral_positive_roots(A1, RationalCoweight((1,), 3)) == ()


def test_indecomposables_full_system():
    lam = RationalCoweight((1, 1), 1)
    idx = integral_positive_roots(A2, lam)
    assert roots_of(A2, indecomposable_indices(A2, idx)) == {(1, 0), (0, 1)}


def test_indecomposables_g2_half():
    lam = RationalCoweight((3, 5), 2)
    idx = integral_positive_roots(G2, lam)
    simple = indecomposable_indices(G2, idx)
    assert roots_of(G2, simple) == {(1, 1), (3, 1)}
    system = endoscopic_system(G2, simple)
    assert system.size() == 4  # two commuting reflections
    assert system.gcm == ((2, 0), (0, 2))


def _coefficients(simples, root):
    """Coordinates of ``root`` in ``simples``, or None outside their span."""
    columns = [list(col) + [r] for col, r in zip(zip(*simples), root)]
    rows, pivots = rref(columns)
    if len(simples) in pivots:
        return None
    return [rows[i][-1] for i in range(len(pivots))]


# past rank 4, seeded coweights stand in for every mu mod n
LARGE_TYPES = [("D", 5), ("B", 5), ("A", 6), ("E", 6), ("E", 7), ("E", 8)]


def _seeded_coweights(datum, count):
    """Seeded ``mu/n`` whose index sets stay small: multiples of a coroot
    over n <= 4, whose orbits have at most 240 points, and random mu over
    5 <= n <= 12, whose integral subsystems are small."""
    rng = random.Random(f"seeded coweights {datum.cartan_type}{datum.rank}")
    for i in range(count):
        if i % 2:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            yield RationalCoweight(tuple(k * c for c in rng.choice(datum.positive_coroots)),
                                   rng.randint(1, 4))
        else:
            n = rng.randint(5, 12)
            yield RationalCoweight(tuple(rng.randint(-3 * n, 3 * n) for _ in range(datum.rank)), n)


@pytest.mark.parametrize("letter,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)] + LARGE_TYPES)
def test_indecomposables_are_a_simple_system(letter, rank):
    # the definition: independent, and every integral positive root is a
    # nonnegative integer combination of them (mu mod n fixes integrality)
    datum = build_root_datum(letter, rank)
    if rank <= 4:
        coweights = [RationalCoweight(mu, n)
                     for n in range(1, 5) for mu in product(range(n), repeat=rank)]
    else:
        coweights = [RationalCoweight((0,) * rank, 1), *_seeded_coweights(datum, 12)]
    for lam in coweights:
        integral = integral_positive_roots(datum, lam)
        simple = indecomposable_indices(datum, integral)
        simples = [datum.positive_roots[k] for k in simple]
        if not simples:
            assert not integral
            continue
        assert len(rref(simples)[1]) == len(simples)
        for k in integral:
            coeffs = _coefficients(simples, datum.positive_roots[k])
            assert coeffs is not None
            assert all(c >= 0 and c.denominator == 1 for c in coeffs)


def test_endoscopic_system_interned():
    """The integral Coxeter system depends on its Cartan matrix alone: A1
    blocks from A2 (a simple root and the highest root), B2 and G2, and A2
    blocks from A2 and B3, share one system and one index set object."""
    lam = RationalCoweight((1, 1), 2)
    one = stratify(A2, lam).system
    two = stratify(A2, lam).system
    assert one is two
    for blocks in ([(A2, (0, 1), 2), (A2, (1, 1), 2), (B2, (1, 2), 3), (G2, (2, 1), 3)],
                   [(A2, (1, 1), 1), (build_root_datum("B", 3), (2, 1, 3), 3)]):
        strats = [stratify(datum, RationalCoweight(mu, n)) for datum, mu, n in blocks]
        first = strats[0]
        assert len({(strat.datum, strat.simple_roots) for strat in strats}) == len(strats)
        for strat in strats:
            assert not strat.singular
            assert strat.system is first.system
            assert strat.index_set is first.index_set
            assert strat.system is endoscopic_system(strat.datum, strat.simple_indices)


def _seeded_blocks(seed, count=300):
    pool = json.loads(SMALL_POOL.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    return [(build_root_datum(entry["type"], entry["rank"]),
             RationalCoweight(tuple(entry["mu"]), entry["n"]))
            for entry in rng.sample(pool, count)]


def test_the_system_cache_holds_one_system_per_cartan_matrix():
    _endoscopic_system.cache_clear()
    strats = [stratify(datum, lam) for datum, lam in _seeded_blocks("one per matrix")]
    gcms = {strat.system.gcm for strat in strats}
    assert _endoscopic_system.cache_info().currsize == len(gcms) < len(
        {(strat.datum, strat.simple_indices) for strat in strats})


def test_shared_tables_carry_no_state_between_blocks():
    """Blocks filled from cleared caches in two seeded orders give the same
    matrices as each other, and as a fill on a fresh system of their
    Cartan matrix."""
    blocks = _seeded_blocks("shared tables")
    results = []
    for seed in ("first order", "second order"):
        _endoscopic_system.cache_clear()
        order = list(range(len(blocks)))
        random.Random(seed).shuffle(order)
        result = {}
        for k in order:
            strat = stratify(*blocks[k])
            result[k] = (multiplicity_matrix(strat), inverse_multiplicity_matrix(strat))
        results.append(result)
    assert results[0] == results[1]
    for k, (datum, lam) in enumerate(blocks):
        strat = stratify(datum, lam)
        fresh = CoxeterSystem(strat.system.gcm)
        alone = Stratification(**{name: getattr(strat, name)
                                  for name in Stratification.__slots__}
                               | {"system": fresh,
                                  "index_set": parabolic_quotient(fresh, strat.singular)})
        assert (multiplicity_matrix(alone), inverse_multiplicity_matrix(alone)) == results[0][k]


def test_stratify_regular_integral():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    assert strat.system.size() == 6
    assert strat.lambda_prime == (1, 1)
    assert strat.minimal_mover.is_identity
    assert strat.singular == frozenset()
    assert len(strat.index_set) == 6


def test_stratify_singular():
    # <alpha2, lam> = 0: one singular generator, three strata
    strat = stratify(A2, RationalCoweight((2, 1), 3))
    assert strat.lambda_prime == (Fraction(2, 3), Fraction(1, 3))
    assert strat.minimal_mover.is_identity
    assert len(strat.singular) == 1
    assert len(strat.index_set) == 3


def test_stratify_antidominant_mover():
    strat = stratify(A2, RationalCoweight((-2, -1), 1))
    assert strat.lambda_prime == (1, 2)
    mover = strat.minimal_mover
    assert mover.length == 2
    assert tuple(coweight_orbit_action(strat, mover, strat.lambda_prime)) == (-2, -1)
    # the mover is an index-set element (minimal in its coset)
    assert mover in strat.index_set


def _fraction_straightening(strat):
    """Reference for ``stratify``'s lambda', mover labels and singular set:
    reflect ``lam.vector`` by the first simple root of the subsystem pairing
    negatively, in Fractions, until none does."""
    datum, roots, coroots = strat.datum, strat.simple_roots, strat.simple_coroots
    vec, labels = strat.lam.vector, []
    for _ in range(1000):
        negative = [i for i, beta in enumerate(roots) if pairing(datum, beta, vec) < 0]
        if not negative:
            break
        i = negative[0]
        labels.append(strat.system.labels[i])
        vec = reflect_coweight_by_root(datum, roots[i], coroots[i], vec)
    else:
        raise AssertionError("reference straightening did not terminate")
    singular = frozenset(i + 1 for i, beta in enumerate(roots) if pairing(datum, beta, vec) == 0)
    return vec, labels, singular


def _reference_blocks():
    pool = json.loads(SMALL_POOL.read_text(encoding="utf-8"))
    assert len(pool) == 2000
    for entry in pool:
        yield build_root_datum(entry["type"], entry["rank"]), RationalCoweight(
            tuple(entry["mu"]), entry["n"])
    rng = random.Random("fraction straightening")
    types = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
             ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]
    for _ in range(300):
        letter, rank = rng.choice(types)
        n = rng.randint(1, 12)
        yield build_root_datum(letter, rank), RationalCoweight(
            tuple(rng.randint(-3 * n, 3 * n) for _ in range(rank)), n)
    for letter, rank in LARGE_TYPES:
        datum = build_root_datum(letter, rank)
        for lam in _seeded_coweights(datum, 8):
            yield datum, lam


def test_stratify_matches_a_fraction_straightening():
    """lambda', the minimal mover, the singular set and the values of the
    simple roots at lambda' agree with Fraction pairings and reflections on
    the small pool, seeded rank <= 4 blocks and seeded blocks of D5, B5,
    A6, E6, E7 and E8."""
    singular = 0
    for datum, lam in _reference_blocks():
        strat = stratify(datum, lam)
        vec, labels, expected = _fraction_straightening(strat)
        assert strat.lambda_prime == vec, lam
        assert strat.minimal_mover == strat.system.element(labels), lam
        assert strat.minimal_mover.length == len(labels), lam
        assert strat.singular == expected, lam
        assert strat.values == tuple(pairing(datum, beta, vec) for beta in strat.simple_roots), lam
        assert all(type(value) is int for value in strat.values), lam
        assert strat.J == tuple(label - 1 for label in sorted(expected)), lam
        singular += bool(expected)
    assert singular >= 100


def test_stratify_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        stratify(A2, RationalCoweight((1,), 1))


def test_index_set_factorization():
    for datum, lam in [
        (A2, RationalCoweight((2, 1), 3)),
        (A2, RationalCoweight((0, -1), 1)),
        (B2, RationalCoweight((3, 2), 2)),
        (G2, RationalCoweight((3, 5), 2)),
    ]:
        strat = stratify(datum, lam)
        if strat.singular:
            pos = sorted(strat.system._position(j) for j in strat.singular)
            sub = CoxeterSystem([[strat.system.gcm[i][j] for j in pos] for i in pos])
            stabilizer = sub.size()
        else:
            stabilizer = 1
        assert len(strat.index_set) * stabilizer == strat.system.size()


def test_empty_subsystem_single_stratum():
    strat = stratify(A1, RationalCoweight((1,), 3))
    assert strat.system.size() == 1
    assert strat.index_set == (strat.system.identity,)
    assert strat.lambda_prime == (Fraction(1, 3),)


def test_subgroup_matrices_sizes():
    full = stratify(A2, RationalCoweight((1, 1), 1))
    assert len(subgroup_matrices(A2, full.simple_indices)) == 6
    half = stratify(A2, RationalCoweight((1, 1), 2))
    assert len(subgroup_matrices(A2, half.simple_indices)) == 2
    assert len(subgroup_matrices(A1, ())) == 1


def test_subgroup_matrices_match_brute_force_a2():
    """The reflection subgroup equals {w : lam - w(lam) integral} elementwise."""
    from weylkl.coxeter import weyl_system

    system = weyl_system(A2)
    tab = system._ensure_tables()
    elements = [system._element(tab["words"][g]) for g in range(tab["size"])]
    for mu, n in [((1, 1), 1), ((1, 1), 2), ((2, 1), 3), ((1, 0), 2)]:
        lam = RationalCoweight(mu, n)
        vec = lam.vector
        brute = set()
        for w in elements:
            moved = coweight_action(w, vec)
            if all((a - b).denominator == 1 for a, b in zip(vec, moved)):
                matrix = tuple(
                    tuple(coweight_action(w, tuple(int(i == j) for i in range(2))))
                    for j in range(2))
                brute.add(matrix)
        simple = indecomposable_indices(A2, integral_positive_roots(A2, lam))
        assert subgroup_matrices(A2, simple) == brute


def test_strata_for_degree_growth():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    sizes = [len(strata_for_degree(strat, alpha))
             for alpha in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]]
    assert sizes == [1, 2, 3, 4, 6]
    # every selected stratum stays selected as the degree grows
    small = set(strata_for_degree(strat, (1, 0)))
    large = set(strata_for_degree(strat, (2, 2)))
    assert small <= large


# -- the orbit walk ------------------------------------------------------------


def walk_of(strat, keep=None):
    return orbit_walk(strat.datum, strat.simple_roots, strat.simple_coroots,
                      strat.lambda_prime, keep=keep)


def _check_table_reads_against_the_walk(strat, rng):
    """The orbit walk lists the index set in order with its orbit points,
    and the readers of the table of W^J agree with it: the highest weights
    point by point, and ``strata_for_degree`` with a walk stopped at the
    degree bound, at a seeded degree near that of a random element.  That
    degree is also given in Fractions, and with one coordinate made
    negative or non-integral, which no stratum lies below."""
    lam = strat.lambda_prime
    walk = walk_of(strat)
    assert [word for word, _ in walk] == [w.word for w in strat.index_set]
    rho = strat.datum.rho
    assert index_highest_weights(strat) == tuple(
        tuple(c - r for c, r in zip(point, rho)) for _, point in walk)
    _, point = rng.choice(walk)
    alpha = tuple(int(a - b) + rng.randint(-1, 1) for a, b in zip(lam, point))
    i = rng.randrange(len(alpha))
    negative = alpha[:i] + (-rng.randint(1, 3),) + alpha[i + 1:]
    half = alpha[:i] + (max(alpha[i], 0) + Fraction(1, 2),) + alpha[i + 1:]
    fractions = tuple(Fraction(a) for a in alpha)
    for degree in (alpha, negative, half, fractions):
        def below(point):
            return dominance_compare(tuple(a - b for a, b in zip(lam, point)), degree)

        assert [w.word for w in strata_for_degree(strat, degree)] == [
            word for word, _ in walk_of(strat, keep=below)]
    assert strata_for_degree(strat, negative) == () == strata_for_degree(strat, half)
    assert strata_for_degree(strat, fractions) == strata_for_degree(strat, alpha)
    return walk


def test_orbit_walk_is_the_index_set_on_the_small_pool():
    """Words are the index set's canonical words, in its order, and points
    are the orbit, on every block of the benchmark's small-block pool."""
    pool = json.loads(SMALL_POOL.read_text(encoding="utf-8"))
    assert len(pool) == 2000
    rng = random.Random("table reads")
    for entry in pool:
        datum = build_root_datum(entry["type"], entry["rank"])
        strat = stratify(datum, RationalCoweight(tuple(entry["mu"]), entry["n"]))
        walk = _check_table_reads_against_the_walk(strat, rng)
        assert [point for _, point in walk] == [
            coweight_orbit_action(strat, w, strat.lambda_prime) for w in strat.index_set]


@pytest.mark.parametrize("letter,rank,mu,n,size", [
    ("F", 4, (0, 0, 3, 3), 1, 24),  # the benchmark's heavy blocks
    ("D", 5, (0, 0, 0, 2, 2), 1, 10),
    ("A", 5, (2, 1, 3, 2, 1), 1, 15),
    ("A", 6, (6, 5, 4, 3, 2, 1), 7, 7),
    ("B", 4, (2, 3, 1, 1), 1, 96),
    ("A", 5, (3, 2, 1, 3, 1), 1, 120),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), 1, 240)])
def test_table_reads_match_the_orbit_walk_on_heavy_blocks(letter, rank, mu, n, size):
    strat = stratify(build_root_datum(letter, rank), RationalCoweight(mu, n))
    assert len(strat.index_set) == size
    rng = random.Random(f"table reads {letter}{rank}")
    for _ in range(5):
        _check_table_reads_against_the_walk(strat, rng)


def test_degree_of_the_wrong_length_is_refused():
    strat = stratify(A2, RationalCoweight((2, 2), 1))
    assert len(strata_for_degree(strat, (1, 0))) == 1
    for alpha in [(1,), (1, 0, 5)]:
        with pytest.raises(ValueError, match="the rank is 2"):
            strata_for_degree(strat, alpha)


_NON_DOMINANT = """
import sys
from weylkl.endoscopy import Stratification, stratify
from weylkl.multiplicity import index_highest_weights
from weylkl.rootdata import RationalCoweight, build_root_datum
if not sys.flags.optimize:
    raise SystemExit("not running under -O")
strat = stratify(build_root_datum("A", 2), RationalCoweight((2, 2), 1))
values = {name: getattr(strat, name) for name in Stratification.__slots__}
index_highest_weights(Stratification(**dict(values, values=(-2, -2))))
"""


def test_non_dominant_lambda_prime_raises_under_optimize():
    """A step of the table that does not pair positively is a raise, so
    values of a lambda' that is not dominant are caught even when asserts
    are compiled away."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylkl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _NON_DOMINANT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "AssertionError: lambda' must be dominant" in proc.stderr


_MUTANT_STRAIGHTENING = """
import sys
from weylkl import endoscopy
from weylkl.rootdata import RationalCoweight, build_root_datum
guard, optimize = sys.argv[1], int(sys.argv[2])
if sys.flags.optimize != optimize:
    raise SystemExit("wrong optimize flag")
if guard == "length":  # the mover's length counted one too high
    inversions = endoscopy._inversions
    endoscopy._inversions = lambda values, k, d: inversions(values, k, d) + 1
else:  # every positive root taken for integral
    endoscopy._integral = lambda pairings, n: tuple(range(len(pairings)))
endoscopy.stratify(build_root_datum("A", 2), RationalCoweight((-3, 1), 2))
"""


@pytest.mark.parametrize("optimize", [0, 1])
@pytest.mark.parametrize("guard,message", [
    ("length", "the straightening word must have the mover's length"),
    ("integral", "integral pairings must stay integral")])
def test_finite_straightening_guards_fire_in_a_mutant(guard, message, optimize):
    """A mutant copy of stratify whose mover's length is off by one, or
    whose integral roots include non-integral ones, fails its certificate,
    with and without -O: the guards are raises, not asserts."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylkl.__file__).parents[1]))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", _MUTANT_STRAIGHTENING, guard,
                           str(optimize)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == f"AssertionError: {message}"


def test_orbit_walk_keep_refuses_everything_above():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    lam = strat.lambda_prime
    below = lambda point: sum(a - b for a, b in zip(lam, point)) <= 2
    kept = [word for word, _ in walk_of(strat, keep=below)]
    assert kept == [w.word for w in strat.index_set if w.length <= 1]
    assert walk_of(strat, keep=lambda point: False) == []


def test_orbit_walk_start_must_be_dominant():
    strat = stratify(A2, RationalCoweight((1, 1), 1))
    with pytest.raises(ValueError):
        orbit_walk(A2, strat.simple_roots, strat.simple_coroots, (-1, 2))


def test_orbit_walk_past_the_enumeration_limit_raises(monkeypatch):
    strat = stratify(build_root_datum("A", 3), RationalCoweight((3, 4, 3), 2))  # rho
    assert len(walk_of(strat)) == 24
    monkeypatch.setattr("weylkl.coxeter._ENUM_LIMIT", 10)
    with pytest.raises(ValueError, match="enumeration limit"):
        walk_of(strat)

"""Tests for the affine level classification and strata indexing."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from weylkl.rootdata import RationalCoweight, build_root_datum, pairing
from weylkl.cli import main
from weylkl.coxeter import _positions, affinization
from weylkl.endoscopy import _integer_point, _inversions, _pairings, stratify
from weylkl.affine import (
    AffineCoweight,
    LevelClass,
    _bound_coords,
    _degree_coords,
    affine_endoscopy,
    affine_index_set,
    affine_strata_index,
    classify_level,
    critical_strata_index,
    length_ratio,
    negate,
)
from reference import (
    double_coset_minimum,
    invariant_form,
    left_descents,
    orbit_walk,
    right_descents,
    symmetrizer,
)

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


# ---------------------------------------------------------------- level data


def test_affine_coweight_validation():
    with pytest.raises(ValueError):
        AffineCoweight((1,), (0, 0))
    with pytest.raises(ValueError):
        AffineCoweight((1,), (1, 2), 0)
    with pytest.raises(ValueError):
        AffineCoweight((Fraction(1, 2),), (1, 2))
    x = AffineCoweight((3, -1), (1, -2), 2)
    assert x.finite_part == (Fraction(3, 2), Fraction(-1, 2))
    assert x.level == 2


def test_level_sign_trichotomy():
    # opposite signs in the pair <=> positive level
    assert classify_level(AffineCoweight((0,), (1, -2))) is LevelClass.POSITIVE
    assert classify_level(AffineCoweight((0,), (-3, 1))) is LevelClass.POSITIVE
    # matching signs <=> negative level
    assert classify_level(AffineCoweight((0,), (1, 2))) is LevelClass.NEGATIVE
    assert classify_level(AffineCoweight((0,), (-2, -5))) is LevelClass.NEGATIVE
    # vanishing second coordinate <=> critical
    assert classify_level(AffineCoweight((0,), (3, 0))) is LevelClass.CRITICAL
    # vanishing first coordinate: no level is defined
    with pytest.raises(ValueError):
        classify_level(AffineCoweight((0,), (0, 5)))
    with pytest.raises(ValueError):
        AffineCoweight((0,), (0, 5)).level


def test_from_level_reduces():
    x = AffineCoweight.from_level((1,), 4, 2)  # level 4/2 = 2
    assert x.pair == (1, -2)
    assert x.level == 2
    y = AffineCoweight.from_level((0,), -3, 2)  # level -3/2
    assert y.pair == (2, 3)
    assert y.level == Fraction(-3, 2)
    z = AffineCoweight.from_level((0,), 0, 1)  # critical
    assert z.pair == (1, 0)
    assert classify_level(z) is LevelClass.CRITICAL


def test_negate_flips_level():
    x = AffineCoweight((2,), (1, -2), 3)
    y = negate(x)
    assert y.mu == (-2,) and y.pair == (1, 2) and y.n == 3
    assert y.level == -x.level


# ------------------------------------------------------- invariant form data


def test_length_ratio():
    # A2: all roots long
    for beta in A2.positive_roots:
        assert length_ratio(A2, beta) == 1
    # B2: alpha1 (the long root) ratio 1, alpha2 (short) ratio 2
    assert length_ratio(B2, (1, 0)) == 1
    assert length_ratio(B2, (0, 1)) == 2
    assert length_ratio(B2, (1, 1)) == 2
    assert length_ratio(B2, (1, 2)) == 1
    # G2 short roots have ratio 3
    assert length_ratio(G2, (1, 0)) == 3
    with pytest.raises(ValueError):
        length_ratio(B2, (2, 0))


def test_invariant_form_b2():
    # minimal even invariant form on the coweight lattice of B2:
    # gram matrix [[2, -2], [-2, 4]] in the simple-coroot basis
    e1, e2 = (1, 0), (0, 1)
    assert invariant_form(B2, e1, e1) == 2
    assert invariant_form(B2, e1, e2) == -2
    assert invariant_form(B2, e2, e1) == -2
    assert invariant_form(B2, e2, e2) == 4
    # form(x, beta coroot) == ratio * pairing(beta, x) for every root
    for beta in B2.positive_roots:
        r = length_ratio(B2, beta)
        idx = B2.positive_roots.index(beta)
        corootv = B2.positive_coroots[idx]
        for x in (e1, e2, (3, -2)):
            assert invariant_form(B2, x, corootv) == r * pairing(B2, beta, x)


REFERENCE_TYPES = (
    [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 8)]
    + [("C", r) for r in range(2, 8)] + [("D", r) for r in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _reference_ratio(datum, beta):
    """|theta|^2 / |beta|^2 from the symmetrized Cartan matrix d_i * a_ij,
    which is proportional to (alpha_i, alpha_j)."""
    d = symmetrizer(datum.cartan_matrix)
    gram = [[d[i] * a for a in row] for i, row in enumerate(datum.cartan_matrix)]

    def norm(vec):
        return sum(b * gram[i][j] * c for i, b in enumerate(vec) for j, c in enumerate(vec))

    return Fraction(norm(datum.highest_root), norm(beta))


@pytest.mark.parametrize("letter,rank", REFERENCE_TYPES)
def test_length_ratio_and_invariant_form_match_the_symmetrized_cartan_matrix(letter, rank):
    datum = build_root_datum(letter, rank)
    for beta in datum.positive_roots:
        ratio = _reference_ratio(datum, beta)
        assert length_ratio(datum, beta) == ratio
        assert length_ratio(datum, tuple(-b for b in beta)) == ratio
    for i, row in enumerate(datum.cartan_matrix):
        for j, a in enumerate(row):
            assert invariant_form(datum, datum.simple_coroots[i], datum.simple_coroots[j]) \
                == _reference_ratio(datum, datum.simple_roots[j]) * a


# ---------------------------------------------------------- affine endoscopy


def test_integral_regular_matches_affinization():
    # integral dominant regular coweight at level 2: every affine real root is
    # integral, so the endoscopic system is the full affinization
    x = AffineCoweight.from_level((1,), 4, 2)
    s = affine_endoscopy(A1, x)
    assert s.level_class is LevelClass.POSITIVE
    assert s.period == 1
    assert s.labels == (1, 0)
    assert s.simple_roots == (((1,), 0), ((-1,), 1))
    assert s.system.gcm == affinization(A1).gcm
    assert s.singular == frozenset()
    assert s.minimal_mover.word == ()
    assert s.delta_zeta == 1


def test_integral_level_one_wall():
    # level 1 with finite part 1/2 * fundamental: lies on the alcove wall
    # through the affine node, so that node is singular
    x = AffineCoweight.from_level((1,), 2, 2)
    s = affine_endoscopy(A1, x)
    assert classify_level(x) is LevelClass.POSITIVE
    assert s.simple_roots == (((1,), 0), ((-1,), 1))
    assert s.singular == frozenset({0})


def test_half_integral_a1_central():
    # level 1/2 with zero finite part: integral roots have even imaginary
    # part, and the finite node is the singular one
    x = AffineCoweight.from_level((0,), 1, 2)
    s = affine_endoscopy(A1, x)
    assert s.period == 2
    assert s.labels == (1, 0)
    assert s.simple_roots == (((1,), 0), ((-1,), 2))
    assert s.system.gcm == ((2, -2), (-2, 2))
    assert s.delta_zeta == 2
    # lambda' pairs to zero against the finite root
    assert s.singular == frozenset({1})
    assert s.lambda_prime == (0,)


def test_half_integral_a1_offset():
    # level 1/2 with finite part 1/4: integral roots have odd imaginary
    # part, so no node sits at imaginary degree zero
    x = AffineCoweight((1,), (2, -1), 4)
    assert x.level == Fraction(1, 2)
    s = affine_endoscopy(A1, x)
    assert s.labels == (0, -1)
    assert s.simple_roots == (((-1,), 1), ((1,), 1))
    assert s.finite_labels == ()
    assert s.delta_zeta == 2
    # (-alpha + delta) pairs to -1/2 + 1/2 = 0 against lambda'
    assert s.singular == frozenset({0})


def test_simple_roots_are_not_the_pairwise_indecomposables():
    # level 1/2, zero finite part: alpha + 2*delta is in the window and is
    # no sum of two window roots, yet s_{alpha+2delta} sends alpha to
    # -alpha - 4*delta, so it is not simple
    x = AffineCoweight((0,), (2, -1))
    s = affine_endoscopy(A1, x)
    window = s.integral_roots
    assert ((1,), 2) in window
    sums = {(b[0] + c[0], m + k) for b, m in window for c, k in window}
    assert ((1,), 2) not in sums
    assert s.simple_roots == (((1,), 0), ((-1,), 2))


@pytest.mark.parametrize("letter,rank,mu,n,level", [
    ("F", 4, (1, 0, 1, 1), 2, 1),
    ("B", 4, (1, 2, 0, 1), 3, 2),
])
def test_affine_endoscopy_of_rank_four_is_fast(letter, rank, mu, n, level):
    datum = build_root_datum(letter, rank)
    start = time.perf_counter()
    s = affine_endoscopy(datum, AffineCoweight.from_level(mu, level, n))
    assert time.perf_counter() - start < 5
    assert s.system.kind == "affine"


def test_denominator_three_a1():
    x = AffineCoweight.from_level((0,), 1, 3)
    s = affine_endoscopy(A1, x)
    assert s.period == 3
    assert s.simple_roots == (((1,), 0), ((-1,), 3))
    assert s.delta_zeta == 3


def test_critical_finite_part_matches_finite_endoscopy():
    # at critical level the finite-labelled simple roots agree with the
    # finite endoscopic datum of the underlying rational coweight
    x = AffineCoweight((1, 1), (1, 0), 2)
    s = affine_endoscopy(A2, x)
    assert s.level_class is LevelClass.CRITICAL
    fin = stratify(A2, RationalCoweight((1, 1), 2))
    affine_finite = tuple(
        beta for (beta, m), lab in zip(s.simple_roots, s.labels)
        if lab >= 1 and m == 0
    )
    assert affine_finite == fin.simple_roots
    assert s.finite_labels == (1,)
    assert s.delta_zeta == 1


def test_index_set_quotient():
    x = AffineCoweight.from_level((1,), 2, 2)
    s = affine_endoscopy(A1, x)
    reps = affine_index_set(s, length_bound=4)
    lengths = [w.length for w in reps]
    assert lengths == sorted(lengths)
    # singular node 0: representatives avoid right descents in {0}
    for w in reps:
        assert 0 not in right_descents(w)


# ----------------------------------------------------- bounded strata index


def test_strata_index_a1_integral():
    x = AffineCoweight.from_level((1,), 4, 2)
    s = affine_endoscopy(A1, x)
    # degree bound alpha1-coroot: exactly the identity and the finite
    # reflection qualify
    idx = affine_strata_index(s, ((1,), 0))
    assert [(w.word_labels, lc) for w, lc in idx] == [
        ((), LevelClass.POSITIVE),
        ((1,), LevelClass.POSITIVE),
    ]
    # degree bound zero: only the identity
    assert [w.word_labels for w, _ in affine_strata_index(s, ((0,), 0))] == [()]
    # one unit of imaginary degree admits the affine reflection
    idx2 = affine_strata_index(s, ((1,), 1))
    assert [w.word_labels for w, _ in idx2] == [(), (1,), (0,)]
    # the two-step element enters exactly at coroot-degree 2*alpha + delta
    idx3 = affine_strata_index(s, ((2,), 1))
    assert [w.word_labels for w, _ in idx3] == [(), (1,), (0,), (1, 0)]


def test_strata_index_monotone():
    x = AffineCoweight.from_level((1,), 4, 2)
    s = affine_endoscopy(A1, x)
    seen = set()
    for bound in (((0,), 0), ((1,), 0), ((1,), 1), ((2,), 1), ((2,), 2)):
        cur = {w.word for w, _ in affine_strata_index(s, bound)}
        assert seen <= cur
        seen = cur


def test_strata_index_a2_positive():
    x = AffineCoweight.from_level((1, 1), 3, 1)
    s = affine_endoscopy(A2, x)
    assert s.singular == frozenset()
    idx = affine_strata_index(s, ((1, 1), 0))
    assert [w.word_labels for w, _ in idx] == [(), (1,), (2,)]
    idx2 = affine_strata_index(s, ((1, 1), 1))
    assert len(idx2) == 9
    assert idx2[-1][0].word_labels == (1, 2, 1)


def test_positive_negative_bijection():
    # same words index the strata of x and of -x at the mirrored bound
    pos = AffineCoweight.from_level((1,), 4, 2)
    neg = negate(pos)
    assert classify_level(neg) is LevelClass.NEGATIVE
    sp = affine_endoscopy(A1, pos)
    sn = affine_endoscopy(A1, neg)
    assert sp.system.gcm == sn.system.gcm
    for bound in (((0,), 0), ((1,), 0), ((1,), 1), ((2,), 1)):
        wp = {w.word for w, _ in affine_strata_index(sp, bound)}
        wn = {w.word for w, _ in affine_strata_index(sn, bound)}
        assert wp == wn
    # rank two, mixed-level example
    pos2 = AffineCoweight.from_level((1, 1), 3, 1)
    neg2 = negate(pos2)
    sp2 = affine_endoscopy(A2, pos2)
    sn2 = affine_endoscopy(A2, neg2)
    for bound in (((1, 1), 0), ((1, 1), 1), ((2, 2), 1)):
        wp = {w.word for w, _ in affine_strata_index(sp2, bound)}
        wn = {w.word for w, _ in affine_strata_index(sn2, bound)}
        assert wp == wn


def test_strata_index_parabolic():
    # the index is closed under projection to minimal double-coset
    # representatives: its K-double quotient, the elements without a left
    # descent in K, is the image of the whole index
    x = AffineCoweight.from_level((1,), 4, 2)
    s = affine_endoscopy(A1, x)
    for bound in (((1,), 1), ((2,), 1), ((3,), 2)):
        plain = [w for w, _ in affine_strata_index(s, bound)]
        for K in (frozenset({0}), frozenset({1})):
            sub = [w for w in plain if not left_descents(w) & K]
            image = {
                double_coset_minimum(w, K, s.singular).word for w in plain
            }
            assert image == {w.word for w in sub}
            # parabolic labels act on the left, singular labels on the right
            for w in sub:
                assert not (right_descents(w) & s.singular)


def test_strata_index_rejects_critical():
    x = AffineCoweight((1,), (1, 0), 2)
    s = affine_endoscopy(A1, x)
    with pytest.raises(ValueError):
        affine_strata_index(s, ((1,), 0))


# ------------------------------------------------------- critical level


def test_critical_strata_a1():
    x = AffineCoweight((1,), (1, 0), 2)
    s = affine_endoscopy(A1, x)
    assert s.level_class is LevelClass.CRITICAL
    assert s.delta_zeta == 1
    # degree = alpha1 coroot: the finite reflection moves lambda' by exactly
    # that much, and no imaginary correction is needed
    sols = critical_strata_index(s, ((1,), 0))
    assert [(w.word_labels, alpha) for w, alpha in sols] == [((1,), (0,))]
    # degree zero: identity, zero correction
    assert [
        (w.word_labels, alpha)
        for w, alpha in critical_strata_index(s, ((0,), 0))
    ] == [((), (0,))]
    # purely imaginary degree 2*delta: identity with a weighted correction
    assert [
        (w.word_labels, alpha)
        for w, alpha in critical_strata_index(s, ((0,), 2))
    ] == [((), (2,))]
    # mixed degree
    assert [
        (w.word_labels, alpha)
        for w, alpha in critical_strata_index(s, ((1,), 1))
    ] == [((1,), (1,))]


def test_critical_strata_a2():
    x = AffineCoweight((1, 1), (1, 0), 2)
    s = affine_endoscopy(A2, x)
    # imaginary degree 3*delta: the correction coefficient satisfies
    # form(alpha, lambda') = 3 with unit weight, so alpha = 3.
    sols = critical_strata_index(s, ((0, 0), 3))
    assert [(w.word_labels, alpha) for w, alpha in sols] == [((), (3,))]
    # the highest coroot is reached by the single endoscopic reflection
    sols2 = critical_strata_index(s, ((1, 1), 0))
    assert [(w.word_labels, alpha) for w, alpha in sols2] == [((1,), (0,))]
    # unreachable finite degree: alpha1 coroot alone is not in the moved span
    assert critical_strata_index(s, ((1, 0), 0)) == ()


def test_critical_strata_rejects_noncritical():
    x = AffineCoweight.from_level((1,), 4, 2)
    s = affine_endoscopy(A1, x)
    with pytest.raises(ValueError):
        critical_strata_index(s, ((1,), 0))


def test_critical_strata_of_e7_walk_the_orbit_only():
    """The finite integral group is all of E7 (2.9 million elements, over the
    enumeration limit); the orbit of lambda' = theta^vee has 126 points."""
    e7 = build_root_datum("E", 7)
    start = time.perf_counter()
    s = affine_endoscopy(e7, AffineCoweight((0, 0, 0, 0, 0, 0, 1), (1, 0), 1))
    assert s.level_class is LevelClass.CRITICAL
    zero = critical_strata_index(s, ((0,) * 7, 0))
    assert [(w.word, alpha) for w, alpha in zero] == [((), (0,) * 7)]
    twice_theta = tuple(2 * c for c in e7.highest_root_coroot)
    far = critical_strata_index(s, (twice_theta, 0))
    assert [(w.length, alpha) for w, alpha in far] == [(33, (0,) * 7)]
    assert time.perf_counter() - start < 5


# ------------------------------------------- the walk of the W^J table


def _orbit_walk_index(s, bound):
    """The bounded index as the orbit walk of (lambda', 0) in Fraction
    points finds it, the imaginary part moved by the coroots."""
    datum = s.datum
    bound_c = _bound_coords(datum, bound)
    sign = 1 if s.level_class is LevelClass.POSITIVE else -1
    start = tuple(s.lambda_prime) + (0,)

    def below(point):
        degree = [sign * (a - b) for a, b in zip(start, point)]
        return all(c <= b for c, b in zip(_degree_coords(datum, degree[:-1], degree[-1]), bound_c))

    walk = orbit_walk(datum, [beta for beta, _m in s.simple_roots],
                      [coroot + (c,) for coroot, c in s.simple_coroots], start,
                      [m * s.level for _beta, m in s.simple_roots], sign, keep=below)
    return tuple((s.system._element(word), s.level_class) for word, _point in walk)


def _finite_orbit(s, keep=None):
    f = len(s.finite_labels)
    return orbit_walk(s.datum, [root for root, _m in s.simple_roots[:f]],
                      [coroot for coroot, _c in s.simple_coroots[:f]], s.lambda_prime, keep=keep)


def _benchmark_pairs():
    """The 50 affine pairs of the strata-sweep benchmark at 25 s, drawn as
    ``strata_setup`` in ``perfbench/worker.py`` draws them."""
    types = (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3))
    drawn = random.Random("strata-sweep/affine")
    for pair in range(50):
        letter, rank = types[pair % len(types)]
        n = drawn.randint(1, 3)
        mu = tuple(drawn.randint(-2 * n, 2 * n) for _ in range(rank))
        positive = AffineCoweight.from_level(mu, drawn.randint(1, 5), n)
        bound = (tuple(drawn.randint(1, 2) for _ in range(rank)), drawn.randint(0, 1))
        datum = build_root_datum(letter, rank)
        for x in (positive, negate(positive)):
            yield datum, x, bound


def test_strata_index_matches_the_orbit_walk_on_the_benchmark_pairs():
    cases = list(_benchmark_pairs())
    cases.append((A1, AffineCoweight.from_level((1,), 4, 2), ((1,), 1)))  # README
    sizes = []
    for datum, x, bound in cases:
        s = affine_endoscopy(datum, x)
        index = affine_strata_index(s, bound)
        assert index == _orbit_walk_index(s, bound), (datum.cartan_type, x, bound)
        sizes.append(len(index))
    assert len(cases) == 101 and sum(sizes) >= 298 and max(sizes) > 5


def test_strata_index_is_closed_downward_along_fld():
    """Every kept element's least left descent leads to a kept element: the
    walk reads degrees off the parent, so nothing is kept above a refusal."""
    for datum, x, bound in _benchmark_pairs():
        s = affine_endoscopy(datum, x)
        J = tuple(_positions(s.system, s.singular))
        ids = {s.system._id_of(w, J) for w, _ in affine_strata_index(s, bound)}
        tab = s.system._tabs[J]
        assert 0 in ids
        for g in ids - {0}:
            assert tab["lmult"][g][tab["fld"][g]] in ids


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_critical_strata_match_the_orbit_walk_on_seeded_coweights(letter, rank):
    """At degrees of orbit points and at random degrees with no imaginary
    part, where the only correction is alpha = 0, the solutions are the
    orbit walk's points at exactly that degree.  At a degree t*delta the
    solutions are e with every alpha whose invariant form with lambda'
    accounts for t, in units of the minimal imaginary coroot."""
    datum = build_root_datum(letter, rank)
    rng = random.Random(f"critical walk {letter}{rank}")
    solved = 0
    for _ in range(12):
        n = rng.randint(1, 3)
        x = AffineCoweight(tuple(rng.randint(-2 * n, 2 * n) for _ in range(rank)),
                           (rng.randint(1, 3), 0), n)
        s = affine_endoscopy(datum, x)
        lam = s.lambda_prime
        degrees = [tuple(a - b for a, b in zip(lam, point)) for _word, point in _finite_orbit(s)]
        for _ in range(3):
            if rng.random() < 0.7:
                beta_fin = rng.choice(degrees)
            else:
                beta_fin = tuple(rng.randint(0, 3) for _ in range(rank))

            def below(point):
                return all(a - b <= t for a, b, t in zip(lam, point, beta_fin))

            expected = tuple(
                (s.system._element(word), (0,) * len(s.finite_labels))
                for word, point in _finite_orbit(s, keep=below)
                if tuple(a - b for a, b in zip(lam, point)) == beta_fin)
            assert critical_strata_index(s, (beta_fin, 0)) == expected, (x, beta_fin)
            solved += bool(expected)
        forms = [invariant_form(datum, coroot, lam)
                 for coroot, _c in s.simple_coroots[:len(s.finite_labels)]]
        for t in range(4) if s.delta_zeta else (0,):
            target = Fraction(t, s.delta_zeta or 1)
            alphas = [alpha for alpha in product(*(range(t + 1) if form else (0,) for form in forms))
                      if sum(a * form for a, form in zip(alpha, forms)) == target]
            assert critical_strata_index(s, ((0,) * rank, t)) == tuple(
                (s.system.identity, alpha) for alpha in alphas), (x, t)
    assert solved >= 12


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2),
                                         ("B", 3), ("C", 3), ("D", 4)])
def test_singular_set_is_where_the_fraction_pairing_vanishes(letter, rank):
    """The singular labels are those of the simple roots beta + m*delta with
    <beta, lambda'> + m*k = 0 in Fractions, at all three level classes;
    at critical level (k = 0) the delta-roots among them too.  The stored
    values are sign * (<beta, lambda'> + m*k); at critical level a value
    times the squared-length ratio of beta is the invariant form of beta's
    coroot with lambda'.  At every level the straightening bound, the
    number of integral positive (affine) roots negative at x, is the
    mover's length, and so it is for the finite stratification of mu/n;
    the mover's word, replayed right to left on lambda' by the Fraction
    reflections v -> v - (<beta, v> + m*k) * beta^vee, gives x back."""
    datum = build_root_datum(letter, rank)
    rng = random.Random(f"singular set {letter}{rank}")
    seen = set()
    for case in range(30):
        n = rng.randint(1, 3)
        mu = tuple(rng.randint(-2 * n, 2 * n) for _ in range(rank))
        if case % 3 == 2:  # small coordinates, so that some delta-roots vanish
            x = AffineCoweight(tuple(c // 2 for c in mu), (rng.randint(1, 3), 0), n)
        else:
            x = AffineCoweight.from_level(mu, rng.randint(1, 5), n)
            x = negate(x) if case % 3 else x
        s = affine_endoscopy(datum, x)
        expected = frozenset(
            label for label, (beta, m) in zip(s.labels, s.simple_roots)
            if pairing(datum, beta, s.lambda_prime) + m * s.level == 0)
        assert s.singular == expected, x
        sign = -1 if s.level_class is LevelClass.NEGATIVE else 1
        assert s.values == tuple(sign * (pairing(datum, beta, s.lambda_prime) + m * s.level)
                                 for beta, m in s.simple_roots), x
        if s.level_class is LevelClass.CRITICAL:
            assert all(value * length_ratio(datum, beta)
                       == invariant_form(datum, coroot, s.lambda_prime)
                       for value, (beta, _m), (coroot, _c)
                       in zip(s.values, s.simple_roots, s.simple_coroots)), x
        vec = s.lambda_prime
        for p in reversed(s.minimal_mover.word):
            (beta, m), (coroot, _c) = s.simple_roots[p], s.simple_coroots[p]
            value = pairing(datum, beta, vec) + m * s.level
            vec = tuple(v - value * c for v, c in zip(vec, coroot))
        assert vec == x.finite_part, x
        d, point, (k,) = _integer_point(x.finite_part, [x.level])
        values = _pairings(datum, point)
        assert _inversions(values, k, d) == s.minimal_mover.length, x
        assert _inversions(values, 0, d) == stratify(
            datum, RationalCoweight(x.mu, x.n)).minimal_mover.length, x
        seen |= {(s.level_class, m > 0) for label, (_beta, m) in zip(s.labels, s.simple_roots)
                 if label in expected}
    assert {level for level, _delta in seen} == set(LevelClass)
    assert (LevelClass.CRITICAL, True) in seen


def test_affine_walks_past_the_enumeration_limit_raise(monkeypatch, capsys):
    positive = AffineCoweight.from_level((1, 1), 3, 1)
    assert len(affine_strata_index(affine_endoscopy(A2, positive), ((2, 2), 2))) > 10
    e7 = build_root_datum("E", 7)
    critical = affine_endoscopy(e7, AffineCoweight((0, 0, 0, 0, 0, 0, 1), (1, 0), 1))
    far = (tuple(2 * c for c in e7.highest_root_coroot), 0)
    monkeypatch.setattr("weylkl.coxeter._ENUM_LIMIT", 10)
    with pytest.raises(ValueError, match="enumeration limit"):
        affine_strata_index(affine_endoscopy(A2, positive), ((2, 2), 2))
    with pytest.raises(ValueError, match="enumeration limit"):
        critical_strata_index(critical, far)
    start = time.perf_counter()
    assert main(["affine", "--type", "A", "--rank", "2", "--lambda", "1,1/1",
                 "--level", "3", "--alpha", "2,2:2"]) == 1
    assert time.perf_counter() - start < 1
    assert "enumeration limit" in capsys.readouterr().err

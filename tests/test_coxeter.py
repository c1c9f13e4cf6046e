"""Tests for the Coxeter engine: words, enumeration, Bruhat order, affine model."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from weylkl.rootdata import build_root_datum, translation_length
from weylkl.coxeter import (
    CoxeterSystem,
    affine_decompose,
    affine_elements_up_to,
    affine_length_from_parts,
    affinization,
    bruhat_leq,
    coweight_action,
    double_coset_minimum,
    left_descents,
    longest_element,
    multiply,
    parabolic_project,
    parabolic_quotient,
    right_descents,
    translation_element,
    weyl_system,
)

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


def all_elements(system):
    tab = system._ensure_tables()
    return [system._element(tab["words"][g]) for g in range(tab["size"])]


# -- classification -------------------------------------------------------


def test_kind_finite():
    for datum in (A1, A2, A3, B2, G2, build_root_datum("F", 4)):
        assert weyl_system(datum).kind == "finite"


def test_kind_affine():
    for datum in (A1, A2, B2, G2):
        assert affinization(datum).kind == "affine"
    mixed = CoxeterSystem([[2, 0, 0], [0, 2, -2], [0, -2, 2]])
    assert mixed.kind == "affine"


def test_kind_indefinite():
    assert CoxeterSystem([[2, -3], [-3, 2]]).kind == "indefinite"


FINITE_TYPES_UP_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("letter,rank", FINITE_TYPES_UP_TO_RANK_8)
def test_kind_of_every_finite_type_and_its_affinization(letter, rank):
    datum = build_root_datum(letter, rank)
    assert CoxeterSystem(datum.cartan_matrix).kind == "finite"
    assert CoxeterSystem(affinization(datum).gcm).kind == "affine"


@pytest.mark.parametrize("gcm", [
    # leading minors 2, 0, -2: the zero minor is not the last one
    [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],
    [[2, -4, 0], [-1, 2, -1], [0, -1, 2]],
    [[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
])
def test_kind_zero_minor_before_the_last_is_indefinite(gcm):
    assert CoxeterSystem(gcm).kind == "indefinite"


def test_enumeration_limit_is_a_domain_error(monkeypatch):
    monkeypatch.setattr("weylkl.coxeter._ENUM_LIMIT", 10)
    with pytest.raises(ValueError, match="enumeration limit"):
        CoxeterSystem(A3.cartan_matrix).size()


def test_invalid_cartan_rejected():
    with pytest.raises(ValueError):
        CoxeterSystem([[2, 1], [-1, 2]])
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        CoxeterSystem([[2, 0], [-1, 2]])


# -- enumeration and words -------------------------------------------------


@pytest.mark.parametrize("datum,size", [(A1, 2), (A2, 6), (B2, 8), (G2, 12), (A3, 24)])
def test_group_sizes(datum, size):
    assert weyl_system(datum).size() == size


def test_longest_elements():
    assert longest_element(weyl_system(A2)).word_labels == (1, 2, 1)
    assert longest_element(weyl_system(B2)).word_labels == (1, 2, 1, 2)
    assert longest_element(weyl_system(G2)).length == 6
    w0 = longest_element(weyl_system(A3))
    assert w0.length == 6
    assert multiply(w0, w0).is_identity


def test_longest_element_of_parabolic():
    system = weyl_system(A3)
    w = longest_element(system, {1, 2})
    assert w.word_labels == (1, 2, 1)
    assert right_descents(w) == {1, 2}
    with pytest.raises(ValueError):
        longest_element(affinization(A1))


def test_canonical_words_are_lex_least_reduced():
    system = weyl_system(B2)
    # brute force: for every element collect all reduced words of its length
    for w in all_elements(system):
        if w.is_identity:
            continue
        candidates = [
            word for word in product(range(system.rank), repeat=w.length)
            if system._reduce(word) == word and system._canonical(word) == w.word
        ]
        assert w.word == min(candidates)


def test_element_canonicalization():
    system = weyl_system(B2)
    assert system.element((2, 1, 2, 1)).word_labels == (1, 2, 1, 2)
    assert system.element((1, 1)).is_identity
    assert system.element((2, 2, 1)).word_labels == (1,)


def test_multiply_inverse_random():
    system = weyl_system(A3)
    els = all_elements(system)
    rng = random.Random(7)
    for _ in range(150):
        x, y = rng.choice(els), rng.choice(els)
        xy = multiply(x, y)
        assert xy.length <= x.length + y.length
        assert multiply(xy, y.inverse()) == x
        assert multiply(x.inverse(), xy) == y
        assert x.inverse().inverse() == x


def test_descents():
    system = weyl_system(A2)
    w = system.element((1, 2))
    assert left_descents(w) == {1}
    assert right_descents(w) == {2}
    w0 = longest_element(system)
    assert left_descents(w0) == right_descents(w0) == {1, 2}


def test_cross_system_operations_rejected():
    with pytest.raises(ValueError):
        multiply(weyl_system(A2).identity, weyl_system(B2).identity)


# -- Bruhat order ----------------------------------------------------------


def brute_bruhat_leq(y, w):
    """Subword criterion applied to the canonical reduced word of w."""
    system = y.system
    ww = w.word
    for k in combinations(range(len(ww)), len(y.word)):
        cand = tuple(ww[i] for i in k)
        if len(system._reduce(cand)) == len(y.word) and system._canonical(cand) == y.word:
            return True
    return False


@pytest.mark.parametrize("datum", [A2, B2])
def test_bruhat_matches_subword_criterion(datum):
    system = weyl_system(datum)
    els = all_elements(system)
    for y in els:
        for w in els:
            assert bruhat_leq(y, w) == brute_bruhat_leq(y, w)


def test_bruhat_columns_match_pairwise_tests():
    system = weyl_system(B2)
    cols = system._bruhat_columns()
    tab = system._ensure_tables()
    for wid in range(tab["size"]):
        for yid in range(tab["size"]):
            y = system._element(tab["words"][yid])
            w = system._element(tab["words"][wid])
            assert bool((cols[wid] >> yid) & 1) == bruhat_leq(y, w)


def test_bruhat_on_affine_words():
    system = affinization(A1)
    e = system.identity
    s0 = system.element((0,))
    s010 = system.element((0, 1, 0))
    s101 = system.element((1, 0, 1))
    assert bruhat_leq(e, s010)
    assert bruhat_leq(s0, s010)
    assert bruhat_leq(system.element((1,)), s010)
    assert not bruhat_leq(s101, s010)
    assert bruhat_leq(s010, system.element((1, 0, 1, 0)))


# -- parabolic structure ----------------------------------------------------


def test_parabolic_quotient_a2():
    system = weyl_system(A2)
    reps = parabolic_quotient(system, {2})
    assert [w.word_labels for w in reps] == [(), (1,), (2, 1)]


@pytest.mark.parametrize("datum,J", [(B2, {1}), (B2, {2}), (A3, {1, 3}), (A3, {1, 2})])
def test_parabolic_quotient_properties(datum, J):
    system = weyl_system(datum)
    reps = parabolic_quotient(system, J)
    for w in reps:
        assert not (right_descents(w) & J)
    sub = longest_element(system, J)
    # |W| = |reps| * |W_J|; the parabolic subgroup size via its own system
    subsystem = CoxeterSystem(
        [[system.gcm[system._position(i)][system._position(j)] for j in sorted(J)]
         for i in sorted(J)])
    assert len(reps) * subsystem.size() == system.size()
    # each element factors uniquely through its representative
    for w in all_elements(system):
        u, v = parabolic_project(w, J)
        assert u in reps
        assert multiply(u, v) == w
        assert u.length + v.length == w.length
        assert set(v.word_labels) <= J


def test_parabolic_quotient_affine_needs_bound():
    system = affinization(A1)
    with pytest.raises(ValueError):
        parabolic_quotient(system, {1})
    reps = parabolic_quotient(system, {1}, length_bound=4)
    assert [w.word_labels for w in reps] == [
        (), (0,), (1, 0), (0, 1, 0), (1, 0, 1, 0)]


def test_double_coset_minimum():
    system = weyl_system(A3)
    w0 = longest_element(system)
    m = double_coset_minimum(w0, {1, 2}, {2, 3})
    assert m.length <= w0.length
    assert not (left_descents(m) & {1, 2})
    assert not (right_descents(m) & {2, 3})


# -- affinizations and translations -----------------------------------------


def test_affinization_cartan_matrices():
    assert affinization(A1).gcm == ((2, -2), (-2, 2))
    assert affinization(A2).gcm == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert affinization(B2).gcm == ((2, 0, -1), (0, 2, -1), (-2, -2, 2))


def test_affine_ball_sizes():
    system = affinization(A1)
    for bound in range(7):
        assert len(affine_elements_up_to(system, bound)) == 2 * bound + 1


def test_translation_element_values():
    aff1 = affinization(A1)
    t = translation_element(aff1, (1,))
    assert t.word_labels == (0, 1)
    assert translation_element(aff1, (-2,)).length == 4
    aff2 = affinization(A2)
    t = translation_element(aff2, (1, 0))
    assert t.length == 4
    assert t.word_labels == (0, 2, 0, 1)
    assert translation_element(affinization(B2), (1, 0)).length == \
        translation_length(B2, (1, 0))


def test_translation_additivity():
    rng = random.Random(3)
    for datum in (A1, A2, B2):
        aff = affinization(datum)
        for _ in range(5):
            mu = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            nu = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            lhs = multiply(translation_element(aff, mu), translation_element(aff, nu))
            rhs = translation_element(aff, tuple(a + b for a, b in zip(mu, nu)))
            assert lhs == rhs


@pytest.mark.parametrize("datum,bound", [(A1, 7), (A2, 4), (B2, 4), (G2, 4)])
def test_affine_length_formula_matches_enumeration(datum, bound):
    aff = affinization(datum)
    for w in affine_elements_up_to(aff, bound):
        wbar, mu = affine_decompose(w)
        assert affine_length_from_parts(datum, wbar, mu) == w.length
        rebuilt = multiply(translation_element(aff, mu), aff.element(wbar.word_labels))
        assert rebuilt == w


def test_translation_requires_affinization():
    with pytest.raises(ValueError):
        translation_element(weyl_system(A2), (1, 0))
    with pytest.raises(ValueError):
        affine_decompose(weyl_system(A2).identity)


# -- coweight action ---------------------------------------------------------


def test_coweight_action_orbit():
    system = weyl_system(A2)
    rho = (1, 1)
    orbit = {tuple(coweight_action(w, rho)) for w in all_elements(system)}
    assert len(orbit) == 6
    fundamental = (Fraction(2, 3), Fraction(1, 3))
    orbit = {tuple(coweight_action(w, fundamental)) for w in all_elements(system)}
    assert len(orbit) == 3


def test_coweight_action_matches_reflection():
    system = weyl_system(B2)
    s1 = system.element((1,))
    from weylkl.rootdata import pairing, reflect

    for vec in [(1, 0), (0, 1), (2, 3)]:
        assert tuple(coweight_action(s1, vec)) == tuple(reflect(B2, 0, vec, side="coweight"))

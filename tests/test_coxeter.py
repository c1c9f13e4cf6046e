"""Tests for the Coxeter engine: words, enumeration, Bruhat order, affine model."""

import random
import time
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest

from weylkl.affine import AffineCoweight, affine_endoscopy
from weylkl.rootdata import build_root_datum
from weylkl.coxeter import (
    CoxeterSystem,
    _classify,
    affinization,
    bruhat_leq,
    longest_element,
    multiply,
    parabolic_quotient,
    weyl_system,
)
from weylkl.kl import kl_table
from reference import (
    affine_decompose,
    affine_length_from_parts,
    cartan_kind,
    column_canonical,
    column_descents,
    column_interval,
    columns,
    coweight_action,
    double_coset_minimum,
    left_descents,
    parabolic_project,
    right_descents,
    translation_element,
    translation_length,
)

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


def all_elements(system):
    tab = system._ensure_tables()
    return [system._element(tab["words"][g]) for g in range(tab["size"])]


def kl_ideals(system):
    """The key set {y <= w} of each filled KL column, by id of w."""
    kl_table(system)
    kl = system._tabs[()]["kl"]
    return [set(kl[g]) for g in range(len(kl))]


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
    gcm = affinization(datum).gcm
    assert CoxeterSystem(gcm).kind == "affine"
    # the minimal imaginary coroot is alpha_0^vee + theta^vee
    marks = {i + 1: c for i, c in enumerate(datum.highest_root_coroot)}
    assert _classify(gcm, range(rank + 1)) == ("affine", {0: 1, **marks})


def test_twisted_affine_kind_and_null_marks():
    # A_2^(2): 2 alpha_0^vee + alpha_1^vee pairs to zero with both roots
    gcm = [[2, -1], [-4, 2]]
    assert CoxeterSystem(gcm).kind == "affine"
    assert _classify(gcm, [0, 1]) == ("affine", {0: 2, 1: 1})


@pytest.mark.parametrize("gcm,kind,marks", [
    (A2.cartan_matrix, "finite", {0: 1, 1: 1}),
    ([[2, -3], [-3, 2]], "indefinite", None),
], ids=["finite", "indefinite"])
def test_null_marks_of_a_non_affine_matrix_are_an_internal_error(monkeypatch, gcm, kind, marks):
    """A non-affine block has no null marks, and an integral affine system
    whose component classifies so is an internal error."""
    assert _classify(gcm, [0, 1]) == (kind, marks)
    monkeypatch.setattr("weylkl.affine._classify", lambda _gcm, _comp: _classify(gcm, [0, 1]))
    with pytest.raises(AssertionError, match="every component of an integral affine "
                                             "system must be affine"):
        affine_endoscopy(A1, AffineCoweight.from_level((1,), 1))


def _classification_stream(count):
    """``count`` seeded Cartan matrices of rank 1 to 6: sparse graphs with
    small entries, so that finite and affine blocks come up often, and
    non-symmetrizable cycles among the rest."""
    rng = random.Random("classification")
    pairs = [(-1, -1)] * 6 + [(-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2),
                              (-1, -4), (-4, -1), (-2, -3)]
    for _ in range(count):
        n = rng.randint(1, 6)
        density = rng.choice((0.3, 0.5, 0.7))
        gcm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in combinations(range(n), 2):
            if rng.random() < density:
                gcm[i][j], gcm[j][i] = rng.choice(pairs)
        yield gcm


def test_kind_matches_the_symmetrized_leading_minors():
    """Kac's trichotomy on one kernel agrees with the reference
    classification, symmetrize and read the leading minors, on 2,000
    seeded matrices of every kind, non-symmetrizable ones included."""
    seen = Counter()
    for gcm in _classification_stream(2000):
        kind = CoxeterSystem(gcm).kind
        assert kind == cartan_kind(gcm), gcm
        seen[kind, _symmetrizable(gcm)] += 1
    assert min(seen[kind, True] for kind in ("finite", "affine", "indefinite")) >= 100, seen
    assert seen["indefinite", False] >= 100 and sum(seen.values()) == 2000, seen


def test_non_symmetrizable_cartan_matrix_is_indefinite():
    """Finite and affine Cartan matrices are symmetrizable (Kac, ch. 4), so
    one without a symmetrizer is indefinite, and its group infinite."""
    assert CoxeterSystem([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]]).kind == "indefinite"
    system = CoxeterSystem([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
    assert system.kind == "indefinite"
    with pytest.raises(ValueError, match="system is infinite; a length bound is required"):
        system.size()
    with pytest.raises(ValueError, match="the requested parabolic subgroup is infinite"):
        longest_element(system)
    assert system._ensure_tables(up_to=3)["size"] == 20


def _symmetrizable(gcm):
    """Kac's cycle criterion (Infinite-dimensional Lie algebras, Ex. 2.1):
    a_{i1 i2} a_{i2 i3} ... a_{ik i1} = a_{i2 i1} a_{i3 i2} ... a_{i1 ik}
    on every cycle of distinct indices."""
    n = len(gcm)
    for k in range(3, n + 1):
        for cycle in permutations(range(n), k):
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            if prod(gcm[i][j] for i, j in edges) != prod(gcm[j][i] for i, j in edges):
                return False
    return True


def test_kind_of_the_non_symmetrizable_infinite_systems():
    """Every matrix without a symmetrizer in the seeded stream, up to the
    last one ``_infinite_systems`` keeps, is indefinite, so it is kept."""
    kept = {param.values[0].gcm for param in _infinite_systems(50)[3:]}
    matrices = _seeded_cartan_matrices()
    odd = []
    while kept:
        system = CoxeterSystem(next(matrices))
        kept.discard(system.gcm)
        if not _symmetrizable(system.gcm):
            odd.append(system)
    assert len(odd) >= 10
    assert all(system.kind == "indefinite" for system in odd)


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


@pytest.mark.parametrize("J", [(), (1,)])
def test_walk_stopped_by_the_limit_leaves_the_table_as_it_was(monkeypatch, J):
    """A walk that hits the limit mid-level gives back the table it started
    from: a smaller ball still walks, and a retry under a higher limit
    gives the whole table."""
    system = CoxeterSystem(A3.cartan_matrix)
    monkeypatch.setattr("weylkl.coxeter._ENUM_LIMIT", 10)
    for up_to in (0, 1):  # the second call walks a whole level before the limit
        before = deepcopy(system._ensure_tables(up_to=up_to, J=J))
        with pytest.raises(ValueError, match="enumeration limit"):
            system._ensure_tables(J=J)
        assert system._tabs[J] == before
    assert system._tabs[J] == CoxeterSystem(A3.cartan_matrix)._ensure_tables(up_to=1, J=J)
    monkeypatch.undo()
    tab = system._ensure_tables(J=J)
    assert tab == CoxeterSystem(A3.cartan_matrix)._ensure_tables(J=J)
    assert len(set(tab["words"])) == tab["size"] == 24 // (len(J) + 1)


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
            if len(system._canonical(word)) == len(word) and system._canonical(word) == w.word
        ]
        assert w.word == min(candidates)


def _table_word(tab, word):
    """Canonical word of ``word`` read off a complete table along lmult."""
    ident = 0
    for s in reversed(word):
        ident = tab["lmult"][ident][s]
    return tab["words"][ident]


@pytest.mark.parametrize("datum", [A3, build_root_datum("B", 3), G2])
def test_canonical_without_tables_matches_complete_tables(datum):
    tab = CoxeterSystem(datum.cartan_matrix)._ensure_tables()
    fresh = CoxeterSystem(datum.cartan_matrix)  # no tables: the one routine
    for word in tab["words"]:
        assert fresh._canonical(word) == word
        assert fresh._canonical(word[::-1]) == _table_word(tab, word[::-1])
    assert not fresh._tabs


@pytest.mark.parametrize("letter", ["D", "F"])
def test_canonical_of_random_words_matches_complete_tables(letter):
    datum = build_root_datum(letter, 4)
    tab = CoxeterSystem(datum.cartan_matrix)._ensure_tables()
    fresh = CoxeterSystem(datum.cartan_matrix)
    rng = random.Random(f"canonical {letter}4")
    for _ in range(500):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 30)))
        assert fresh._canonical(word) == _table_word(tab, word)
    assert not fresh._tabs


def test_descend_refuses_more_letters_than_its_bound():
    system = CoxeterSystem(A3.cartan_matrix)
    point = system._point((0, 1, 0))
    assert system._descend(point, 3)[0] == (0, 1, 0)
    with pytest.raises(AssertionError, match="length bound"):
        system._descend(point, 2)


def _seeded_cartan_matrices():
    """Seeded Cartan matrices of rank 2 to 4, without end."""
    rng = random.Random("indefinite")
    while True:
        n = rng.randint(2, 4)
        gcm = [[2] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.7:
                gcm[i][j], gcm[j][i] = -rng.randint(1, 3), -rng.randint(1, 3)
            else:
                gcm[i][j] = gcm[j][i] = 0
        yield gcm


def _infinite_systems(count):
    """A2~, B2~, G2~ and the first ``count`` seeded Cartan matrices that are
    neither finite nor affine (the non-symmetrizable ones among them)."""
    found = [pytest.param(CoxeterSystem(affinization(d).gcm), id=f"{d.cartan_type}2~")
             for d in (A2, B2, G2)]
    matrices = _seeded_cartan_matrices()
    while len(found) < count + 3:
        system = CoxeterSystem(next(matrices))
        if system.kind == "indefinite":
            found.append(pytest.param(system, id=f"indefinite-{len(found) - 3}"))
    return found


@pytest.mark.parametrize("system", _infinite_systems(50))
def test_point_action_matches_the_column_action_on_infinite_systems(system):
    """Canonical words, descents and the Bruhat order against the
    root-lattice column action of the reference, on seeded words."""
    rng = random.Random(f"point action {system.gcm}")
    n = system.rank
    for _ in range(4):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 10)))
        w = system._element(system._canonical(word))
        assert w.word == column_canonical(system, word)
        assert left_descents(w) == {
            system.labels[i] for i in column_descents(columns(system, w.word))}
        assert right_descents(w) == {
            system.labels[i] for i in column_descents(columns(system, w.word[::-1]))}
        below = column_interval(system, w.word)
        for _ in range(6):
            if rng.random() < 0.5:
                letters = [s for s in w.word if rng.random() < 0.6]
            else:
                letters = [rng.randrange(n) for _ in range(rng.randint(0, w.length))]
            y = system._element(system._canonical(tuple(letters)))
            assert bruhat_leq(y, w) == (y.word in below), (y, w)


def _right_products(system, tab):
    """g * s_i as (s_i * g^{-1})^{-1}: lmult of the inverse, read back."""
    lmult = tab["lmult"]
    inv = [system._id_of(system._element(word).inverse()) for word in tab["words"]]
    return [[None if h is None else inv[h] for h in lmult[inv[g]]]
            for g in range(tab["size"])]


@pytest.mark.parametrize("datum", [A3, B2, G2, build_root_datum("D", 4)])
def test_descents_from_columns_match_tables(datum):
    tables = CoxeterSystem(datum.cartan_matrix)
    tab = tables._ensure_tables()
    fresh = CoxeterSystem(datum.cartan_matrix)
    length, lmult = tab["length"], tab["lmult"]
    rmult = _right_products(tables, tab)
    for g, word in enumerate(tab["words"]):
        w = fresh._element(word)
        assert left_descents(w) == {
            fresh.labels[i] for i, h in enumerate(lmult[g]) if length[h] < length[g]}
        assert right_descents(w) == {
            fresh.labels[i] for i, h in enumerate(rmult[g]) if length[h] < length[g]}


def _right_products_are_involutive(tab, rmult):
    length = tab["length"]
    defined = 0
    for g in range(tab["size"]):
        for i, h in enumerate(rmult[g]):
            if h is None:
                assert length[g] == tab["max_len"] and not tab["complete"]
                continue
            defined += 1
            assert abs(length[h] - length[g]) == 1
            assert rmult[h][i] == g
    return defined


@pytest.mark.parametrize("datum", [A3, B2, G2, build_root_datum("A", 4),
                                   build_root_datum("F", 4)])
def test_right_products_on_complete_tables(datum):
    system = CoxeterSystem(datum.cartan_matrix)
    tab = system._ensure_tables()
    rmult = _right_products(system, tab)
    assert _right_products_are_involutive(tab, rmult) == tab["size"] * system.rank
    fresh = CoxeterSystem(datum.cartan_matrix)
    for g in range(0, tab["size"], 7):
        for i in range(system.rank):
            product = multiply(fresh._element(tab["words"][g]), fresh._element((i,)))
            assert tab["words"][rmult[g][i]] == product.word


@pytest.mark.parametrize("datum,bound", [(A1, 9), (A2, 6), (B2, 6), (G2, 7), (A3, 4)])
def test_right_products_on_affine_balls(datum, bound):
    system = CoxeterSystem(affinization(datum).gcm)
    tab = system._ensure_tables(up_to=bound)
    rmult = _right_products(system, tab)
    assert _right_products_are_involutive(tab, rmult) > 0
    fresh = CoxeterSystem(affinization(datum).gcm)
    for g in range(tab["size"]):
        for i in range(system.rank):
            word = multiply(fresh._element(tab["words"][g]), fresh._element((i,))).word
            h = rmult[g][i]
            assert (h is None) == (len(word) > bound)
            if h is not None:
                assert tab["words"][h] == word


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
        if len(system._canonical(cand)) == len(cand) and system._canonical(cand) == y.word:
            return True
    return False


def test_bruhat_leq_matches_bruhat_columns_on_d4():
    # equal lengths are compared as elements: stripping letters off y's
    # canonical word need not leave a canonical word
    system = weyl_system(build_root_datum("D", 4))
    ideals = kl_ideals(system)
    els = all_elements(system)
    for wid, w in enumerate(els):
        for yid, y in enumerate(els):
            assert (yid in ideals[wid]) == bruhat_leq(y, w)
    y, w = system.element((2, 3, 2, 1)), system.element((3, 4, 2, 1, 3))
    assert bruhat_leq(y, w)


@pytest.mark.parametrize("datum", [A2, B2])
def test_bruhat_matches_subword_criterion(datum):
    system = weyl_system(datum)
    els = all_elements(system)
    for y in els:
        for w in els:
            assert bruhat_leq(y, w) == brute_bruhat_leq(y, w)


def test_bruhat_columns_match_pairwise_tests():
    system = weyl_system(B2)
    ideals = kl_ideals(system)
    tab = system._ensure_tables()
    for wid in range(tab["size"]):
        for yid in range(tab["size"]):
            y = system._element(tab["words"][yid])
            w = system._element(tab["words"][wid])
            assert (yid in ideals[wid]) == bruhat_leq(y, w)


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


def test_parabolic_quotient_is_the_table_tuple():
    """A finite quotient is one shared tuple; a ball's representatives are
    a prefix of it, right as the ball grows and shrinks again."""
    system = weyl_system(B2)
    assert parabolic_quotient(system, {1}) is parabolic_quotient(system, [1])
    assert parabolic_quotient(system, ()) is parabolic_quotient(system, (), length_bound=4)
    gcm = affinization(A2).gcm
    system = CoxeterSystem(gcm)
    for bound in (3, 1, 5, 0, 4):
        reps = parabolic_quotient(system, {1}, length_bound=bound)
        fresh = parabolic_quotient(CoxeterSystem(gcm), {1}, length_bound=bound)
        assert [w.word for w in reps] == [w.word for w in fresh]
        assert max(w.length for w in reps) == bound


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
        assert len(parabolic_quotient(system, (), length_bound=bound)) == 2 * bound + 1


def _assert_ids_in_length_word_order(tab):
    """Ids run in (length, word) order and fld[x] is the first letter of
    x's canonical word."""
    keys = [(len(word), word) for word in tab["words"]]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert tab["length"] == [len(word) for word in tab["words"]]
    assert all(tab["fld"][x] == tab["words"][x][0] for x in range(1, tab["size"]))


@pytest.mark.parametrize("letter,rank", [
    (letter, rank) for letter, rank in FINITE_TYPES_UP_TO_RANK_8 if rank <= 4]
    + [("A", 5), ("D", 5)])
def test_table_ids_are_in_length_word_order_for_every_J(letter, rank):
    system = CoxeterSystem(build_root_datum(letter, rank).cartan_matrix)
    for k in range(rank + 1):
        for J in combinations(range(rank), k):
            _assert_ids_in_length_word_order(system._ensure_tables(J=J))


@pytest.mark.parametrize("datum,bound", [(A1, 9), (A2, 6), (B2, 6), (G2, 7), (A3, 4)])
def test_growing_affine_balls_keep_length_word_order(datum, bound):
    system = CoxeterSystem(affinization(datum).gcm)
    for J in [(), (1,)]:
        words = []
        for up_to in range(bound + 1):
            tab = system._ensure_tables(up_to=up_to, J=J)
            _assert_ids_in_length_word_order(tab)
            assert tab["words"][:len(words)] == words
            words = tab["words"][:]


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
    for w in parabolic_quotient(aff, (), length_bound=bound):
        wbar, mu = affine_decompose(w)
        assert affine_length_from_parts(datum, wbar, mu) == w.length
        rebuilt = multiply(translation_element(aff, mu), aff.element(wbar.word_labels))
        assert rebuilt == w


def test_e8_translation_decomposes_without_enumerating():
    e8 = build_root_datum("E", 8)
    aff = affinization(e8)
    mu = (1, -1, 2, 0, 1, -2, 1, 1)
    start = time.perf_counter()
    t = translation_element(aff, mu)
    wbar, nu = affine_decompose(t)
    assert time.perf_counter() - start < 5
    assert wbar.is_identity and nu == mu
    assert t.length == translation_length(e8, mu)
    assert not weyl_system(e8)._tabs


def test_long_affine_words_decompose_and_rebuild():
    """wbar read off the columns of w and mu = w(0): t_mu * wbar gives back
    random E8 words of 300 letters, whose finite parts are not trivial."""
    e8 = build_root_datum("E", 8)
    aff = affinization(e8)
    rng = random.Random(5)
    for _ in range(3):
        w = aff.element([rng.randrange(9) for _ in range(300)])
        wbar, mu = affine_decompose(w)
        assert not wbar.is_identity
        assert multiply(translation_element(aff, mu), aff.element(wbar.word_labels)) == w


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

"""Tests for Kazhdan-Lusztig polynomials, tables, mu-lists and the file cache."""

import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import weylkl
from weylkl.rootdata import RationalCoweight, build_root_datum
from weylkl.coxeter import (
    CoxeterSystem,
    _positions,
    affinization,
    bruhat_leq,
    longest_element,
    parabolic_quotient,
    weyl_system,
)
from weylkl.endoscopy import stratify
from weylkl.kl import (
    CACHE_ENV_VAR,
    KLFileCache,
    _fill,
    _table_order,
    file_cache_from_env,
    kl_mu,
    kl_polynomial,
    kl_table,
    poly_string,
)
from weylkl.multiplicity import multiplicity_matrix


def all_elements(system):
    tab = system._ensure_tables()
    return [system._element(tab["words"][g]) for g in range(tab["size"])]


@pytest.mark.parametrize("cartan_type,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_rank_two_polynomials_are_trivial(cartan_type, rank):
    system = weyl_system(build_root_datum(cartan_type, rank))
    els = all_elements(system)
    for y in els:
        for w in els:
            poly = kl_polynomial(system, y, w)
            assert poly in ((), (1,))
            assert (poly == (1,)) == bruhat_leq(y, w)


def test_a3_nontrivial_pairs():
    system = weyl_system(build_root_datum("A", 3))
    table = kl_table(system)
    nontrivial = {key for key, poly in table.items() if poly != (1,)}
    assert nontrivial == {
        ((), (2, 1, 3, 2)),
        ((2,), (2, 1, 3, 2)),
        ((), (1, 2, 3, 2, 1)),
        ((1,), (1, 2, 3, 2, 1)),
        ((3,), (1, 2, 3, 2, 1)),
        ((1, 3), (1, 2, 3, 2, 1)),
    }
    for key in nontrivial:
        assert table[key] == (1, 1)


def test_affine_ball_polynomials_are_trivial():
    system = affinization(build_root_datum("A", 1))
    els = parabolic_quotient(system, (), length_bound=6)
    for y in els:
        for w in els:
            assert kl_polynomial(system, y, w) in ((), (1,))


def test_inverse_symmetry_on_a3():
    system = weyl_system(build_root_datum("A", 3))
    els = all_elements(system)
    rng = random.Random(11)
    for _ in range(200):
        y, w = rng.choice(els), rng.choice(els)
        assert kl_polynomial(system, y, w) == \
            kl_polynomial(system, y.inverse(), w.inverse())


def test_constant_term_and_degree_bound_on_a4():
    system = weyl_system(build_root_datum("A", 4))
    for (yw, ww), poly in kl_table(system).items():
        assert poly[0] == 1
        if yw != ww:
            assert len(poly) - 1 <= (len(ww) - len(yw) - 1) // 2
        assert all(c >= 0 for c in poly)


def test_mu_values():
    system = weyl_system(build_root_datum("B", 2))
    e = system.identity
    s1 = system.element((1,))
    s121 = system.element((1, 2, 1))
    assert kl_mu(system, e, s1) == 1
    assert kl_mu(system, e, s121) == 0  # P = 1, no q term
    assert kl_mu(system, s1, s121) == 0  # even length gap
    a3 = weyl_system(build_root_datum("A", 3))
    assert kl_mu(a3, a3.element((2,)), a3.element((2, 1, 3, 2))) == 1


def test_zero_when_not_below():
    system = weyl_system(build_root_datum("A", 2))
    s1, s2 = system.element((1,)), system.element((2,))
    assert kl_polynomial(system, s1, s2) == ()
    assert kl_polynomial(system, longest_element(system), s1) == ()


def test_poly_string():
    assert poly_string(()) == "0"
    assert poly_string((1,)) == "1"
    assert poly_string((1, 1)) == "1 + q"
    assert poly_string((1, 0, 2)) == "1 + 2*q^2"


@pytest.mark.parametrize("system", [
    weyl_system(build_root_datum("A", 3)), weyl_system(build_root_datum("B", 3)),
    weyl_system(build_root_datum("G", 2)), affinization(build_root_datum("A", 2))],
    ids=repr)
def test_table_keys_come_in_table_order(system):
    table = kl_table(system, max_length=None if system.is_finite else 5)
    assert list(table) == sorted(table, key=_table_order)


def test_table_requires_bound_for_affine():
    system = affinization(build_root_datum("A", 1))
    with pytest.raises(ValueError):
        kl_table(system)
    table = kl_table(system, max_length=4)
    assert all(len(ww) <= 4 for (_, ww) in table)
    assert set(table.values()) == {(1,)}


def test_file_cache_roundtrip(tmp_path):
    path = str(tmp_path / "kl.cache")
    cache = KLFileCache(path)
    system = weyl_system(build_root_datum("A", 3))
    e = system.identity
    w = system.element((2, 1, 3, 2))
    poly = kl_polynomial(system, e, w, file_cache=cache)
    assert poly == (1, 1)
    assert len(cache) == 1 and cache.dirty
    cache.save()
    assert os.path.exists(path)

    reloaded = KLFileCache(path)
    assert reloaded.get(system, e, w) == (1, 1)
    assert not reloaded.dirty
    # a second save without changes is a no-op
    mtime = os.path.getmtime(path)
    reloaded.save()
    assert os.path.getmtime(path) == mtime


def test_file_cache_ignores_unnamed_systems(tmp_path):
    cache = KLFileCache(str(tmp_path / "kl.cache"))
    adhoc = CoxeterSystem([[2, -1], [-1, 2]])  # no tag: in-memory only
    e = adhoc.identity
    w = adhoc.element((1, 2, 1))
    kl_polynomial(adhoc, e, w, file_cache=cache)
    assert len(cache) == 0


def test_file_cache_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        KLFileCache(str(path))


@pytest.mark.parametrize("line", [
    "A 3 | - | 2,1,3,2 | 2,1",    # constant term other than 1
    "A 3 | - | 2,1,3,2 | 1,-1",   # negative coefficient
    "A 3 | - | 2,1,3,2 | 1,0,1",  # degree 2 above (4 - 0 - 1) / 2
    "A 3 | 1 | 1,2,1 | 1,1",      # degree 1 above (3 - 1 - 1) / 2
])
def test_file_cache_rejects_lines_that_are_not_kl_polynomials(tmp_path, line):
    path = tmp_path / "kl.cache"
    path.write_text(f"KLCACHE v1\nA 3 | - | 1,2,1 | 1\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
        KLFileCache(str(path))


def test_file_cache_save_leaves_no_temp_file(tmp_path):
    path = tmp_path / "kl.cache"
    system = weyl_system(build_root_datum("A", 3))
    for word in ((1, 2, 3, 2, 1), (2, 1, 3, 2)):  # a fresh file, then a replaced one
        cache = KLFileCache(str(path))
        kl_polynomial(system, system.identity, system.element(word), file_cache=cache)
        assert cache.dirty
        cache.save()
        assert sorted(os.listdir(tmp_path)) == ["kl.cache"]
    assert len(KLFileCache(str(path))) == 2


def test_file_cache_from_env(tmp_path, monkeypatch):
    path = str(tmp_path / "env.cache")
    monkeypatch.setenv(CACHE_ENV_VAR, path)
    cache = file_cache_from_env()
    assert cache.path == path
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert file_cache_from_env().path is None


def test_growing_affine_queries_walk_each_level_once(monkeypatch):
    """P_{e,w} on A2~ for l(w) = 3..9 extends the ball one level at a time,
    keeping the descent masks and KL columns already computed."""
    aff = affinization(build_root_datum("A", 2))
    system = CoxeterSystem(aff.gcm, labels=aff.labels)
    walked = []
    walk = CoxeterSystem._walk

    def counting_walk(self, tab, up_to):
        before = tab["max_len"]
        walk(self, tab, up_to)
        walked.append((before, tab["max_len"]))

    monkeypatch.setattr(CoxeterSystem, "_walk", counting_walk)
    word = (0, 1, 2) * 3
    kept, kept_desc = {}, []
    for length in range(3, 10):
        w = system.element(word[:length])
        assert w.length == length
        kl_polynomial(system, system.identity, w)
        tab = system._tabs[()]
        assert all(tab["kl"][g] is col for g, col in kept.items())
        assert tab["desc"][:len(kept_desc)] == kept_desc
        kept = dict(tab["kl"])
        kept_desc = tab["desc"][:]
    levels = [level for before, after in walked for level in range(before, after)]
    assert levels == list(range(9))
    monkeypatch.undo()
    fresh = CoxeterSystem(aff.gcm, labels=aff.labels)
    table = kl_table(fresh, max_length=9)
    for length in range(3, 10):
        w = system.element(word[:length])
        assert kl_polynomial(system, system.identity, w) == table[((), w.word_labels)]


def test_cold_e6_point_query_fills_only_the_ideal_of_w():
    """A cold P_{e,w} with l(w) = 14 in E6 (|W| = 51,840) walks the ball up
    to length 14 and fills exactly the columns of the y <= w in it."""
    system = CoxeterSystem(build_root_datum("E", 6).cartan_matrix)
    w = system.element((1, 3, 4, 3, 1, 5, 4, 2, 3, 1, 4, 6, 5, 4))
    assert w.length == 14
    start = time.perf_counter()
    assert kl_polynomial(system, system.identity, w) == (1, 2, 2, 1)
    assert time.perf_counter() - start < 10
    tab = system._tabs[()]
    below = {g for g in range(tab["size"])
             if bruhat_leq(system._element(tab["words"][g]), w)}
    assert set(tab["kl"]) == below


_CORRUPT_MU = """
import sys
from weylkl.coxeter import CoxeterSystem, bruhat_leq
from weylkl.kl import _fill
from weylkl.rootdata import build_root_datum
if not sys.flags.optimize:
    raise SystemExit("not running under -O")
system = CoxeterSystem(build_root_datum("B", 3).cartan_matrix)
tab = system._ensure_tables()
_fill(system, (), [g for g in range(tab["size"]) if tab["length"][g] <= 3])
for entries in tab["mu"].values():
    entries[:] = [(z, mu + 1) for z, mu in entries]
w = system.element((2, 3, 2, 1))
_fill(system, (), [g for g in range(tab["size"])
                   if bruhat_leq(system._element(tab["words"][g]), w)])
"""


def test_corrupt_mu_list_raises_under_optimize():
    """The fill's checks are raises, so a wrong mu-list entry is caught
    even when asserts are compiled away.  The second fill is the ideal of
    one element of length 4, which does not hold its inverse: its column
    is computed from the corrupted mu-lists, not read off its inverse's."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylkl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_MU], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "AssertionError: KL" in proc.stderr


# -- the table view and the mu-lists -------------------------------------------

FINITE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4), ("A", 5)]
SMALL_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "small_pool.json"
# the heavy strata-sweep bases: four big-W blocks, two near-regular ones
HEAVY_BASES = [("F", 4, (0, 0, 3, 3), 1), ("D", 5, (0, 0, 0, 2, 2), 1),
               ("A", 5, (2, 1, 3, 2, 1), 1), ("A", 6, (6, 5, 4, 3, 2, 1), 7),
               ("B", 4, (2, 3, 1, 1), 1), ("A", 5, (3, 2, 1, 3, 1), 1)]


def _eager_table(system, max_length=None):
    """The labelled dict that kl_table once built, from the filled columns."""
    tab = system._tabs[()]
    kl = tab["kl"]
    wids = [g for g in range(tab["size"])
            if max_length is None or tab["length"][g] <= max_length]
    labelled = [tuple(system.labels[p] for p in word) for word in tab["words"]]
    return {(labelled[y], labelled[w]): kl[w][y] for w in wids for y in sorted(kl[w])}


def _table_systems():
    for letter, rank in FINITE_TYPES:
        cartan = build_root_datum(letter, rank).cartan_matrix
        yield pytest.param(CoxeterSystem(cartan), None, id=f"{letter}{rank}")
    for rank, max_length in ((1, 6), (2, 5)):
        aff = affinization(build_root_datum("A", rank))
        yield pytest.param(CoxeterSystem(aff.gcm, labels=aff.labels), max_length,
                           id=f"A{rank}~-ball-{max_length}")


@pytest.mark.parametrize("system,max_length", list(_table_systems()))
def test_table_view_matches_the_eager_dict(system, max_length):
    table = kl_table(system, max_length=max_length)
    reference = _eager_table(system, max_length)
    assert dict(table) == reference
    assert list(table) == list(reference)
    assert list(table.items()) == list(reference.items())
    assert list(table.values()) == list(reference.values())
    assert len(table) == len(reference) == len(table.values())
    assert table == reference and reference == table

    words = [ww for _, ww in reference]
    longest = max(words, key=len)
    first = system.labels[0]
    missing = [
        ((), longest + (longest[-1], longest[-1])),  # a word that is not reduced
        ((first, first), longest),
        ((), (99,)),                                 # an unknown label
        ((99,), longest),
        (longest, ()),                               # y not below w
        "not a pair",
    ]
    if system.is_finite and system.rank > 1:  # a reduced word that is not canonical
        w0 = longest_element(system)
        last = system.generator(system.labels[-1])
        other = (system.labels[-1],) + (last * w0).word_labels
        assert other != w0.word_labels
        missing.append(((), other))
    if max_length is not None:  # w longer than the table, in canonical form
        cyclic = tuple(system.labels[i % system.rank] for i in range(max_length + 2))
        beyond = system.element(cyclic[:max_length + 1])
        assert beyond.length == max_length + 1
        missing.append(((), beyond.word_labels))
    for key in missing:
        with pytest.raises(KeyError):
            table[key]
        assert table.get(key) is None
        assert key not in table

    if max_length is not None:
        w = system.element(cyclic)
        assert w.length == max_length + 2
        kl_polynomial(system, system.identity, w)  # extends the same ball
        assert system._tabs[()]["max_len"] > max_length
        assert dict(table) == reference and list(table) == list(reference)
        assert len(table) == len(reference)
        for key in missing:
            assert key not in table
        assert ((), w.word_labels) not in table


def _mu_reference(tab):
    """mu-lists read off the whole columns: odd gap, top coefficient nonzero."""
    length = tab["length"]
    out = {}
    for w, col in tab["kl"].items():
        out[w] = []
        for y, poly in col.items():
            gap = length[w] - length[y]
            if gap % 2 and len(poly) > gap // 2 and poly[gap // 2]:
                out[w].append((y, poly[gap // 2]))
    return out


def test_mu_lists_match_the_whole_columns():
    for letter, rank in FINITE_TYPES:
        system = CoxeterSystem(build_root_datum(letter, rank).cartan_matrix)
        kl_table(system)
        tab = system._tabs[()]
        assert tab["mu"] == _mu_reference(tab), f"{letter}{rank}"
    aff = affinization(build_root_datum("A", 2))
    ball = CoxeterSystem(aff.gcm, labels=aff.labels)
    kl_table(ball, max_length=7)
    assert ball._tabs[()]["mu"] == _mu_reference(ball._tabs[()])

    pool = json.loads(SMALL_POOL.read_text(encoding="utf-8"))
    blocks = [(e["type"], e["rank"], tuple(e["mu"]), e["n"])
              for e in random.Random(16).sample(pool, 200)]
    checked = 0
    for letter, rank, mu, n in blocks + HEAVY_BASES:
        strat = stratify(build_root_datum(letter, rank), RationalCoweight(mu, n))
        multiplicity_matrix(strat)
        tab = strat.system._tabs[tuple(_positions(strat.system, strat.singular))]
        assert tab["mu"] == _mu_reference(tab), (letter, rank, mu, n)
        checked += sum(map(len, tab["mu"].values()))
    assert checked


def test_table_adds_no_copy_to_the_fill():
    """A table shares the fill's columns: on A5 (98,407 pairs) its peak
    allocation stays within 1 MB of the fill's own."""
    cartan = build_root_datum("A", 5).cartan_matrix
    peaks = []
    for run in (lambda system: _fill(system, (), range(system._tabs[()]["size"])),
                kl_table):
        system = CoxeterSystem(cartan)
        system._ensure_tables()
        tracemalloc.start()
        try:
            run(system)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    fill_peak, table_peak = peaks
    assert table_peak - fill_peak < 1 << 20, peaks


def _w_graph_generators(tab, rank):
    """At q = 1, each generator s on the KL basis C_w of a whole table:
    s C_w = -C_w when s is in desc[w], and otherwise C_w plus
    sum mu~(y, w) C_y over the y with s in desc[y], where mu~ is the
    fill's mu-lists made symmetric (the W-graph of KL 1979, section 1).
    Returns, per s, the w with s in desc[w] and the other w with their
    terms."""
    desc = tab["desc"]
    edges = [[] for _ in desc]
    for w, mus in tab["mu"].items():
        for y, mu in mus:
            edges[w].append((y, mu))
            edges[y].append((w, mu))
    gens = []
    for s in range(rank):
        bit = 1 << s
        down = [w for w, mask in enumerate(desc) if mask & bit]
        up = [(w, [(y, mu) for y, mu in edges[w] if desc[y] & bit])
              for w, mask in enumerate(desc) if not mask & bit]
        gens.append((down, up))
    return gens


def _act(gen, vec):
    down, up = gen
    out = list(vec)
    for w in down:
        out[w] = -vec[w]
    for w, terms in up:
        x = vec[w]
        if x:
            for y, mu in terms:
                out[y] += mu * x
    return out


@pytest.mark.parametrize("letter,rank", [("B", 4), ("A", 5), ("F", 4), ("D", 5), ("A", 6)])
def test_w_graph_of_the_fill_is_a_representation_of_w(letter, rank):
    """The mu-lists and descent masks of a whole table give the regular
    representation of W: on a seeded integer vector, s^2 = 1 and
    (st)^m_st = 1 for every pair of generators.  Each braid relation ties
    together mu values that the fill computed in separate columns.  A mu on
    an edge whose two descent masks are equal never acts, so this cannot
    see it; one on an edge with incomparable or strictly nested masks
    does act."""
    system = CoxeterSystem(build_root_datum(letter, rank).cartan_matrix)
    kl_table(system)
    tab = system._tabs[()]
    gens = _w_graph_generators(tab, rank)
    rng = random.Random(f"w-graph {letter}{rank}")
    vec = [rng.randint(-9, 9) for _ in tab["desc"]]
    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    for s in range(rank):
        assert _act(gens[s], _act(gens[s], vec)) == vec, s
        for t in range(s + 1, rank):
            out = vec
            for _ in range(orders[system.gcm[s][t] * system.gcm[t][s]]):
                out = _act(gens[s], _act(gens[t], out))
            assert out == vec, (s, t)

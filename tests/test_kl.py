"""Tests for Kazhdan-Lusztig polynomials, tables, and the file cache."""

import os
import random

import pytest

from weylkl.rootdata import build_root_datum
from weylkl.coxeter import (
    CoxeterSystem,
    affine_elements_up_to,
    affinization,
    bruhat_leq,
    longest_element,
    weyl_system,
)
from weylkl.kl import (
    CACHE_ENV_VAR,
    KLFileCache,
    file_cache_from_env,
    kl_mu,
    kl_polynomial,
    kl_table,
    poly_string,
)


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
    els = affine_elements_up_to(system, 6)
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


def test_file_cache_from_env(tmp_path, monkeypatch):
    path = str(tmp_path / "env.cache")
    monkeypatch.setenv(CACHE_ENV_VAR, path)
    cache = file_cache_from_env()
    assert cache.path == path
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert file_cache_from_env().path is None

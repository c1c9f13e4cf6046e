"""An independent check of the KL engine.

The reference computes P_{y,w} from the R-polynomial definition
(Kazhdan-Lusztig, Invent. Math. 53, 1979; Bjorner-Brenti, GTM 231, ch. 5):

    q^{l(w)-l(y)} P_{y,w}(1/q) - P_{y,w}(q) = sum_{y < z <= w} R_{y,z} P_{z,w}

with deg P_{y,w} <= (l(w)-l(y)-1)/2, and R by its descent recursion.  On a
quotient W^J it computes Deodhar's parabolic polynomials for u = -1 (J.
Algebra 111, 1987) from the same relation, with z in W^J and R^J, whose
recursion has a third case: for s x outside W^J, R^J_{x,w} = q R^J_{x,sw}.
It acts on words of a system that is never enumerated: canonical words come
from the root-lattice column action of ``tests/reference.py``, not from the
point action w(rho) of the engine, W^J from right descents, and the order
from products of subwords.  The engine's tables are further
checked against the symmetries P_{y,w} = P_{y^-1,w^-1} =
P_{w0 y w0, w0 w w0}, the KL inversion formula, and the inverse
multiplicity matrices of regular blocks, and the balls of B2~ and G2~
against the reference where mu exceeds 1.
"""

import random
from functools import lru_cache, partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weylkl.coxeter import (
    CoxeterSystem,
    affinization,
    longest_element,
    multiply,
    weyl_system,
)
from weylkl.endoscopy import stratify
from weylkl.kl import kl_polynomial, kl_table
from weylkl.multiplicity import inverse_multiplicity_matrix, multiplicity_polynomial
from weylkl.rootdata import RationalCoweight, build_root_datum

from reference import column_canonical, column_descents, columns


def _add(a, b, scale=1):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for k, c in enumerate(b):
        out[k] += scale * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class Reference:
    """KL polynomials of W^J (J = () gives W) from R-polynomials, on
    canonical words; ``J`` holds generator positions."""

    def __init__(self, gcm, J=()):
        self.system = CoxeterSystem(gcm)  # a fresh system: no tables
        self.J = J
        self.times = lru_cache(maxsize=None)(self._times)
        self.ideal = lru_cache(maxsize=None)(self._ideal)
        self.R = lru_cache(maxsize=None)(self._R)
        self.P = lru_cache(maxsize=None)(self._P)

    def _times(self, s, word):
        """Canonical word of s * w."""
        return column_canonical(self.system, (s,) + word)

    def minimal(self, word):
        """Whether w lies in W^J: no right descent in J."""
        # w^{-1} has them as left descents
        return not column_descents(columns(self.system, word[::-1])) & set(self.J)

    def _ideal(self, w):
        """{y in W^J : y <= w}.  With w = s*v, each y <= w is y <= v or s*y'
        for some y' <= v; when s*y is longer than y and in W^J, y itself is
        in W^J (a suffix), and when it is shorter it is below v already."""
        if not w:
            return frozenset({()})
        below = self.ideal(w[1:])  # suffixes of canonical words are canonical
        return below | {y for y in (self.times(w[0], x) for x in below) if self.minimal(y)}

    def _R(self, y, w):
        if y == w:
            return (1,)
        if len(y) >= len(w) or y not in self.ideal(w):
            return ()
        s, v = w[0], w[1:]
        sy = self.times(s, y)
        if len(sy) < len(y):
            return self.R(sy, v)
        if not self.minimal(sy):
            return _mul((0, 1), self.R(y, v))
        return _add(_mul((-1, 1), self.R(y, v)), _mul((0, 1), self.R(sy, v)))

    def _P(self, y, w):
        if y == w:
            return (1,)
        if y not in self.ideal(w):
            return ()
        rhs = ()
        for z in self.ideal(w):
            if len(z) > len(y):  # R_{y,z} = 0 unless y <= z
                rhs = _add(rhs, _mul(self.R(y, z), self.P(z, w)))
        top = (len(w) - len(y) - 1) // 2
        return _add((), rhs[:top + 1], -1)


RANK_3_4 = [("D", 4), ("F", 4), ("B", 4), ("A", 4), ("C", 4), ("A", 3), ("B", 3),
            ("C", 3)]
_REFERENCES = {}


def reference(letter, rank):
    if (letter, rank) not in _REFERENCES:
        _REFERENCES[letter, rank] = Reference(build_root_datum(letter, rank).cartan_matrix)
    return _REFERENCES[letter, rank]


@st.composite
def pairs(draw, letter, rank):
    """A reduced w of length 4 to 9, and y below w: a subword of at most
    half its letters (or, now and then, a random word)."""
    ref = reference(letter, rank)
    target = draw(st.integers(4, 9))
    w = ()
    for s in draw(st.lists(st.integers(0, rank - 1), min_size=30, max_size=30)):
        longer = ref.times(s, w)
        if len(w) < len(longer) <= target:
            w = longer
    if draw(st.integers(0, 4)) == 0:
        letters = draw(st.lists(st.integers(0, rank - 1), max_size=len(w)))
    else:
        kept = draw(st.sets(st.integers(0, len(w) - 1), max_size=len(w) // 2))
        letters = [s for k, s in enumerate(w) if k in kept]
    y = ()
    for s in reversed(letters):
        y = ref.times(s, y)
    return y, w


@pytest.mark.parametrize("letter,rank", RANK_3_4)
@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engine_matches_the_r_polynomial_definition(letter, rank, data):
    y, w = data.draw(pairs(letter, rank))
    ref = reference(letter, rank)
    system = weyl_system(build_root_datum(letter, rank))
    got = kl_polynomial(system, system._element(y), system._element(w))
    assert got == ref.P(y, w), (letter, rank, y, w)


def test_reference_knows_the_first_nontrivial_polynomials():
    ref = reference("A", 3)
    word = partial(column_canonical, ref.system)
    assert ref.P((), word((1, 0, 2, 1))) == (1, 1)  # P_{e, s2 s1 s3 s2} = 1 + q
    assert ref.P((0,), word((0, 1, 2, 1, 0))) == (1, 1)
    assert ref.P((0, 1), word((0, 1, 2, 1, 0))) == (1,)
    assert ref.R((), (0, 1)) == (1, -2, 1)  # (q - 1)^2


@pytest.mark.parametrize("letter,rank,mu,longest", [
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), 26),     # |W^J| = 126
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0), 24),  # |W^J| = 240
    ("E", 6, (1, 0, 0, 0, 0, 0), 16),
    ("F", 4, (0, 0, 3, 3), 15),
    ("D", 5, (0, 0, 0, 2, 2), 8)])
def test_singular_blocks_match_the_parabolic_r_polynomial_definition(
        letter, rank, mu, longest):
    """multiplicity_polynomial on singular blocks, E7 and E8 among them,
    against the reference on W^J, for three seeded columns y of length at
    most ``longest`` and every x of the index set."""
    strat = stratify(build_root_datum(letter, rank), RationalCoweight(mu, 1))
    system = strat.system
    ref = Reference(system.gcm, tuple(sorted(system._position(j) for j in strat.singular)))
    columns = [y for y in strat.index_set if y.length <= longest]
    nontrivial = 0
    for y in random.Random(f"parabolic {letter}{rank}").sample(columns, 3):
        for x in strat.index_set:
            poly = ref.P(x.word, y.word)
            assert multiplicity_polynomial(strat, x, y) == poly, (x, y)
            nontrivial += len(poly) > 1
    assert nontrivial


@pytest.mark.parametrize("letter,max_length,count,largest", [
    ("B", 10, 22, 3), ("G", 10, 8, 2)])
def test_affine_balls_with_mu_above_one_match_the_r_polynomial_definition(
        letter, max_length, count, largest):
    """The ball of B2~ or G2~ up to ``max_length`` against the reference:
    each of its ``count`` pairs with mu >= 2 (the largest is ``largest``),
    and 30 seeded pairs of columns w whose inverse comes first in the
    table, so that the fill reads them off the inverse's column."""
    aff = affinization(build_root_datum(letter, 2))
    ball = CoxeterSystem(aff.gcm, labels=aff.labels)  # labels are positions
    table = kl_table(ball, max_length=max_length)
    mus = {}
    for (yw, ww), poly in table.items():
        gap = len(ww) - len(yw)
        if gap % 2 and len(poly) > gap // 2 and poly[gap // 2] >= 2:
            mus[yw, ww] = poly[gap // 2]
    assert len(mus) == count and max(mus.values()) == largest
    later = {ww for _, ww in table if ball.element(ww[::-1]).word_labels < ww}
    read_off = [key for key in table if key[1] in later]
    ref = Reference(aff.gcm)
    for yw, ww in list(mus) + random.Random(f"mu {letter}").sample(read_off, 30):
        assert table[yw, ww] == ref.P(yw, ww), (yw, ww)


# -- identities on full tables -------------------------------------------------


FULL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
              ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4), ("A", 5)]


@pytest.mark.parametrize("letter,rank", FULL_TYPES)
def test_full_table_identities(letter, rank):
    """On the engine's full table:
    P_{y,w} = P_{y^-1,w^-1} = P_{w0 y w0, w0 w w0}, and the KL inversion
    formula sum_z (-1)^{l(x)+l(z)} P_{x,z} P_{w0 w, w0 z} = delta_{x,w}.

    For the inversion formula each polynomial is evaluated at q = 2^32,
    far above its coefficients, so the integer identity M N = 1 is the
    polynomial one; it is checked as M (N r) = r for a seeded vector r of
    64-bit entries (Freivalds), one pass over the table per product.
    """
    system = CoxeterSystem(build_root_datum(letter, rank).cartan_matrix)
    table = kl_table(system)
    words = sorted({ww for _, ww in table}, key=lambda ww: (len(ww), ww))
    number = {ww: k for k, ww in enumerate(words)}
    elements = [system.element(ww) for ww in words]
    assert [w.word_labels for w in elements] == words
    w0 = longest_element(system)
    inverse = [number[w.inverse().word_labels] for w in elements]
    conjugate = [number[multiply(multiply(w0, w), w0).word_labels] for w in elements]
    times_w0 = [number[multiply(w0, w).word_labels] for w in elements]
    length = [len(ww) for ww in words]
    polys = {(number[yw], number[ww]): poly for (yw, ww), poly in table.items()}
    for (y, w), poly in polys.items():
        assert polys[(inverse[y], inverse[w])] == poly, (words[y], words[w])
        assert polys[(conjugate[y], conjugate[w])] == poly, (words[y], words[w])

    at_big = {poly: sum(c << (32 * k) for k, c in enumerate(poly))
              for poly in set(polys.values())}
    value = {key: at_big[poly] for key, poly in polys.items()}
    rng = random.Random(f"inversion {letter}{rank}")
    r = [rng.randrange(1, 1 << 64) for _ in words]
    nr = [0] * len(words)  # N[z][w] = P_{w0 w, w0 z}, nonzero for z <= w
    for z, w in value:
        nr[z] += value[(times_w0[w], times_w0[z])] * r[w]
    mnr = [0] * len(words)  # M[x][z] = (-1)^{l(x)+l(z)} P_{x,z}
    for (x, z), val in value.items():
        mnr[x] += (-val if (length[x] + length[z]) % 2 else val) * nr[z]
    assert mnr == r


@pytest.mark.parametrize("letter,rank,shift", [
    ("A", 2, None), ("B", 2, None), ("G", 2, None), ("A", 3, None), ("C", 3, None),
    ("B", 2, (1, 0)), ("B", 3, (1, 0, 1)), ("A", 3, (0, 1, 0))])
def test_inverse_matrix_of_regular_blocks(letter, rank, shift):
    """On a regular block, entry (z, w) of the inverse multiplicity matrix
    is (-1)^{l(z)+l(w)} P_{w0 w, w0 z}(1); the block of rho, or of rho
    moved by half a coroot off the integral lattice."""
    datum = build_root_datum(letter, rank)
    mu = tuple(int(2 * r) + (s if shift else 0) for r, s in zip(datum.rho, shift or datum.rho))
    strat = stratify(datum, RationalCoweight(mu, 2))
    assert not strat.singular
    system, index = strat.system, strat.index_set
    w0 = longest_element(system)
    inverse = inverse_multiplicity_matrix(strat)
    for i, z in enumerate(index):
        for j, w in enumerate(index):
            sign = -1 if (z.length + w.length) % 2 else 1
            poly = kl_polynomial(system, multiply(w0, w), multiply(w0, z))
            assert inverse[i][j] == sign * sum(poly)

"""Integral-linkage data for a rational coweight.

Given a root datum and a rational coweight ``lam``, the positive roots
pairing integrally with ``lam`` form a closed subsystem.  Its simple system
(Dyer's reflection criterion, :func:`_dyer`) defines reflections
generating a finite reflection subgroup acting on the coweight lattice.
This module computes:

* the integral subsystem and its simple system,
* that subgroup as an intrinsic :class:`~weylkl.coxeter.CoxeterSystem`
  together with its action on ambient coweights,
* the dominant representative ``lam'`` of ``lam`` under that subgroup, the
  minimal element ``y`` moving one to the other, the generators fixing
  ``lam'``, and the minimal coset representatives modulo those generators,
  which index the strata attached to ``lam``,
* the degrees ``lam' - w(lam')``, read along the table of those
  representatives, for the degree filters, highest weights and dimensions.

The stratification runs in integers, and only its outputs are Fractions.
Every orbit moves by one rule, ``CoxeterSystem._reflect`` on the values
``<beta_j, x>`` of the simple roots at a coweight x.  The straightening
lets ``CoxeterSystem._descend`` strip the values of ``mu/n``: the stripped
word is the minimal mover, ``lam'`` is ``mu/n`` replayed along it, and the
singular generators are the positions whose value is left at 0.  The
stratification keeps those values of ``lam'``, and one walk of the table
of W^J (:func:`_walk_below`) moves them and adds up the degrees.  The
affine strata (:mod:`weylkl.affine`) hand :func:`_dyer` and
:func:`_straighten` the integers of their window of integral affine roots,
read once, and walk the same table.

>>> from weylkl.rootdata import build_root_datum, RationalCoweight
>>> strat = stratify(build_root_datum("A", 2), RationalCoweight((1, 1), 1))
>>> strat.system.size(), len(strat.index_set)
(6, 6)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import coxeter
from .coxeter import CoxeterElement, CoxeterSystem, parabolic_quotient
from .rootdata import (
    RationalCoweight,
    RootDatum,
    _Record,
    reflect_coweight_by_root,
)

__all__ = [
    "Stratification",
    "integral_positive_roots",
    "indecomposable_indices",
    "endoscopic_system",
    "stratify",
    "coweight_orbit_action",
    "strata_for_degree",
]


def integral_positive_roots(datum: RootDatum, lam: RationalCoweight):
    """Indices (into datum.positive_roots) of roots pairing integrally with lam."""
    return _integral(_pairings(datum, lam.mu), lam.n)


def _pairings(datum: RootDatum, point):
    """The integers ``<beta, point>`` of the positive roots beta, in order,
    for an integer vector ``point`` in coroot coordinates."""
    return [sum(map(mul, row, point)) for row in datum.pairing_rows]


def _integral(pairings, n):
    """Indices of the positive roots whose pairing numerator over ``n``
    is an integer."""
    return tuple(k for k, value in enumerate(pairings) if not value % n)


def _positive_data(datum: RootDatum, indices):
    """:func:`_dyer`'s ``(data, keys)`` of the positive roots ``indices``, by index."""
    rows, coroots, roots = datum.pairing_rows, datum.positive_coroots, datum.positive_roots
    return [(rows[k], coroots[k]) for k in indices], [(0, sum(roots[k])) for k in indices]


def _dyer(data, keys):
    """The simple roots among positive integral roots ``beta + m*delta``
    (``m = 0`` for finite roots), given by their integer ``data``
    (row, coroot) and ``keys`` ``(m, height of beta)``: ``{g: pairings}``
    for the simple positions g, in input order, with
    ``pairings[a] = <beta_a, beta_g^vee>``, row g of their Cartan matrix.

    Dyer's criterion (J. Algebra 135, 1990; Bjorner-Brenti, GTM 231,
    ch. 4): gamma = (beta, m) is simple iff s_gamma sends no other positive
    root of the subgroup to a negative root.  For alpha = (rho, n) and
    c = <rho, beta^vee> > 0, s_gamma(alpha) = (rho - c*beta) +
    (n - c*m)*delta is negative iff n < c*m, or n = c*m and rho - c*beta
    has negative height.  The roots must include every root of the
    subgroup whose delta-coefficient is at most that of a root tested: a
    non-simple gamma is refuted by a simple root below it (s_gamma has a
    descent in the support of gamma).  Finite roots need no window.
    """
    out = {}
    for g, (_, coroot) in enumerate(data):
        m, height = keys[g]
        pairings = []
        for a, (row, _) in enumerate(data):
            c = sum(map(mul, row, coroot))
            if c > 0 and a != g and (keys[a][0] - c * m, keys[a][1] - c * height) < (0, 0):
                break
            pairings.append(c)
        else:
            out[g] = pairings
    return out


def indecomposable_indices(datum: RootDatum, indices):
    """Sub-tuple of the integral positive roots ``indices`` forming their
    simple system: gamma is kept iff s_gamma sends no other root of
    ``indices`` to a negative root (:func:`_dyer` on their rows and
    coroots)."""
    return tuple(indices[g] for g in _dyer(*_positive_data(datum, indices)))


@lru_cache(maxsize=None)  # pays for itself: 2,000 pool blocks share 55 Cartan matrices
def _endoscopic_system(gcm):
    return CoxeterSystem(gcm, labels=range(1, len(gcm) + 1))


def endoscopic_system(datum: RootDatum, simple_indices) -> CoxeterSystem:
    """Coxeter system of the reflection subgroup on the given simple roots:
    one per Cartan matrix, whose tables every block with that matrix shares."""
    data, _ = _positive_data(datum, simple_indices)
    return _endoscopic_system(
        tuple(tuple(sum(map(mul, row, coroot)) for row, _ in data) for _, coroot in data))


class Stratification(_Record):
    """Everything the stratification of a rational coweight determines."""

    __slots__ = (
        "datum",
        "lam",  # the RationalCoweight
        "integral_indices",  # all integral positive roots (indices)
        "simple_indices",  # the indecomposable ones (indices)
        "system",  # intrinsic Coxeter system on those
        "lambda_prime",  # dominant representative, coroot coordinates
        "minimal_mover",  # y with lam = y(lambda_prime), minimal
        "values",  # <beta, lambda_prime> for the simple roots, integers
        "singular",  # generator labels fixing lambda_prime (a frozenset)
        "index_set",  # minimal coset representatives mod the singular part
    )

    def __init__(self, datum: RootDatum, lam: RationalCoweight, integral_indices: tuple,
                 simple_indices: tuple, system: CoxeterSystem, lambda_prime: tuple,
                 minimal_mover: CoxeterElement, values: tuple, singular: frozenset,
                 index_set: tuple):
        put = object.__setattr__
        put(self, "datum", datum)
        put(self, "lam", lam)
        put(self, "integral_indices", integral_indices)
        put(self, "simple_indices", simple_indices)
        put(self, "system", system)
        put(self, "lambda_prime", lambda_prime)
        put(self, "minimal_mover", minimal_mover)
        put(self, "values", values)
        put(self, "singular", singular)
        put(self, "index_set", index_set)

    @property
    def J(self):
        """Positions of the simple roots vanishing at lambda_prime."""
        return tuple(i for i, value in enumerate(self.values) if not value)

    @property
    def simple_roots(self):
        return tuple(self.datum.positive_roots[k] for k in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.datum.positive_coroots[k] for k in self.simple_indices)

    @property
    def integral_roots(self):
        return tuple(self.datum.positive_roots[k] for k in self.integral_indices)


def coweight_orbit_action(strat: Stratification, w: CoxeterElement, vec):
    """Apply a subgroup element to an ambient coweight vector."""
    if w.system != strat.system:
        raise ValueError("element does not belong to the stratification's system")
    datum = strat.datum
    roots, coroots = strat.simple_roots, strat.simple_coroots
    vec = tuple(Fraction(x) for x in vec)
    for p in reversed(w.word):
        vec = reflect_coweight_by_root(datum, roots[p], coroots[p], vec)
    return vec


def _integer_point(vec, shifts):
    """One common denominator ``d`` of the coweight vector ``vec`` and the
    ``shifts`` (ints or Fractions), and their numerators over ``d``:
    reflections then act on numerators alone."""
    vec = [Fraction(x) for x in vec]
    d = math.lcm(*(x.denominator for x in vec), *(s.denominator for s in shifts))
    return (d, tuple(x.numerator * (d // x.denominator) for x in vec),
            [s.numerator * (d // s.denominator) for s in shifts])


def _value(row, shift, point):
    """``<beta, v> + shift`` from the integer row of beta; coordinates of
    ``point`` past the row (an imaginary part) do not pair."""
    return sum(map(mul, row, point)) + shift


def _inversions(values, k, d):
    """The number of integral positive roots ``beta + m*delta`` with
    ``sign * (<beta, x> + m*k/d) < 0``, from the numerators ``values`` over
    ``d`` of ``<beta, x>`` for the positive finite roots; at ``k = 0`` the
    finite roots alone.  ``sign`` is that of k, and for each of +-beta the m
    counted are one residue class mod ``d/gcd(k, d)``, from 0 (1 for -beta)
    to where the value turns nonnegative."""
    if not k:
        return sum(1 for value in values if value < 0 and not value % d)
    b, sign = abs(k), 1 if k > 0 else -1
    g = math.gcd(b, d)
    q = d // g
    inverse = pow(b // g, -1, q)
    total = 0
    for value in values:
        for a, low in ((sign * value, 0), (-sign * value, 1)):
            top = (-a - 1) // b  # the last m with a + m*b < 0
            if top >= low and a % g == 0:
                r = -a // g * inverse % q  # a + m*b = 0 mod d iff m = r mod q
                total += (top - r) // q - (low - 1 - r) // q
    return total


def _straighten(system: CoxeterSystem, data, shifts, point, d, values, length, gens=None):
    """Move ``point``, numerators over ``d``, to the dominant chamber of
    the group generated by the roots with (row, coroot) ``data``.

    ``values`` are the roots' values at ``point``, numerators over ``d``:
    ``<beta, point>`` for finite roots beta, and
    ``sign * (<beta, point> + m*k)`` for affine roots ``(beta, m)`` at a
    level k, whose ``shifts`` are the numerators of m*k (0 for finite
    roots).  ``sign = -1`` at negative level straightens to the antidominant
    chamber, and at critical level only the generators ``gens`` (the
    finite roots) move.  ``system._descend`` strips the smallest negative
    value until none is left: the mover is a minimal coset representative,
    so that is its canonical word, and its ``length`` is the number of
    integral positive roots negative at ``point`` (:func:`_inversions`,
    refused past the enumeration limit).  ``point`` replayed along the word
    is ``lambda_prime``.  Returns ``(lambda_prime, mover, values)``:
    ``mover`` is the minimal element taking ``lambda_prime`` back to
    ``point / d``, and ``values`` are the integer values there; only
    ``lambda_prime`` is made of Fractions."""
    if length > coxeter._ENUM_LIMIT:
        raise ValueError(f"straightening takes {length} reflections, more than "
                         f"the enumeration limit {coxeter._ENUM_LIMIT}")
    if any(value % d for value in values):
        raise AssertionError("integral pairings must stay integral")
    word, values = system._descend(tuple(value // d for value in values), length, gens)
    if len(word) != length:
        raise AssertionError("the straightening word must have the mover's length")
    for i in word:
        row, coroot = data[i]
        value = _value(row, shifts[i], point)
        point = tuple([c - value * cr for c, cr in zip(point, coroot)])
    return tuple([Fraction(c, d) for c in point]), CoxeterElement(system, word), values


def stratify(datum: RootDatum, lam: RationalCoweight) -> Stratification:
    """Full stratification data for a rational coweight ``mu/n``: the
    numerators ``<beta, mu>`` give the integral roots, the mover's length
    and the simple roots' values, and the integral roots' rows and coroots,
    read once, give the simple system and its Cartan matrix (:func:`_dyer`)."""
    if len(lam.mu) != datum.rank:
        raise ValueError("coweight length does not match the rank")
    pairings = _pairings(datum, lam.mu)
    integral = _integral(pairings, lam.n)
    data, keys = _positive_data(datum, integral)
    kept = _dyer(data, keys)
    simple = tuple(integral[g] for g in kept)
    system = _endoscopic_system(tuple(tuple([row[a] for a in kept]) for row in kept.values()))
    lambda_prime, mover, values = _straighten(
        system, [data[g] for g in kept], [0] * len(kept), lam.mu, lam.n,
        [pairings[k] for k in simple], _inversions(pairings, 0, lam.n))
    singular = frozenset(i + 1 for i, value in enumerate(values) if not value)
    index_set = parabolic_quotient(system, singular)
    return Stratification(
        datum=datum, lam=lam, integral_indices=integral, simple_indices=simple,
        system=system, lambda_prime=lambda_prime, minimal_mover=mover,
        values=values, singular=singular, index_set=index_set)


def _walk_below(system: CoxeterSystem, J, values, steps, dim, bound=None):
    """``{id: degree}`` for the ids of the table of W^J whose degree, a
    vector of ``dim`` integers, is at most ``bound`` componentwise (every id
    when ``bound`` is None), in id order.

    ``values`` are those of the simple roots at lambda', from
    :func:`_straighten`: positive off J and zero on J.  Along the table, x = s*g with s = fld[x] and
    v = values(g)[s] > 0: values(x) is ``system._reflect(values(g), s)`` and
    degree(x) = degree(g) + v * steps[s].  Degrees only grow along the
    table, so x is kept when g is, and its degree is inside the bound; the
    ball is walked level by level and the walk stops at the first level
    that keeps nothing.
    """
    reflect = system._reflect
    kept = {0: (values, (0,) * dim)}
    x, level, found = 1, 0, True
    while found:
        level += 1
        tab = system._ensure_tables(up_to=level, J=J)
        length, fld, lmult = tab["length"], tab["fld"], tab["lmult"]
        found = False
        while x < len(length) and length[x] == level:
            s = fld[x]
            parent = kept.get(lmult[x][s])
            if parent is not None:
                vals, degree = parent
                v = vals[s]
                if v <= 0:
                    raise AssertionError("lambda' must be dominant with stabilizer W_J")
                degree = tuple(a + v * b for a, b in zip(degree, steps[s]))
                if bound is None or all(a <= b for a, b in zip(degree, bound)):
                    kept[x] = (reflect(vals, s), degree)
                    found = True
            x += 1
    return {x: degree for x, (_vals, degree) in kept.items()}


def _index_degrees(strat: Stratification, bound=None):
    """``{id: lambda' - w(lambda')}`` for the index set's w, by id (its
    position), that lie below ``bound`` (:func:`_walk_below`)."""
    return _walk_below(strat.system, strat.J, strat.values, strat.simple_coroots,
                       strat.datum.rank, bound)


def strata_for_degree(strat: Stratification, alpha):
    """Index-set elements w with lambda' - w(lambda') below alpha.

    ``alpha`` is an ambient coweight vector of the datum's rank; "below"
    means the difference is a componentwise nonnegative integer vector.
    Every such degree is one, so an ``alpha`` that is not has no strata.
    """
    rank = strat.datum.rank
    if len(alpha) != rank:
        raise ValueError(f"the degree has {len(alpha)} coordinates; the rank is {rank}")
    alpha = [Fraction(a) for a in alpha]
    if any(a < 0 or a.denominator != 1 for a in alpha):
        return ()
    return tuple(strat.index_set[x] for x in _index_degrees(strat, tuple(map(int, alpha))))

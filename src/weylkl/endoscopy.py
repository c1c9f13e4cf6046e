"""Integral-linkage data for a rational coweight.

Given a root datum and a rational coweight ``lam``, the positive roots
pairing integrally with ``lam`` form a closed subsystem.  Its simple system
(Dyer's reflection criterion, :func:`simple_system`) defines reflections
generating a finite reflection subgroup acting on the coweight lattice.
This module computes:

* the integral subsystem and its simple system,
* that subgroup as an intrinsic :class:`~weylkl.coxeter.CoxeterSystem`
  together with its action on ambient coweights,
* the dominant representative ``lam'`` of ``lam`` under that subgroup, the
  minimal element ``y`` moving one to the other, the generators fixing
  ``lam'``, and the minimal coset representatives modulo those generators,
  which index the strata attached to ``lam``,
* the orbit points ``w(lam')``, read along the table of those
  representatives, for the degree filters, highest weights and dimensions.

The stratification runs on integer numerators, and only its outputs are
Fractions: one straightening pass over the numerators ``mu`` of ``mu/n``
(:func:`straighten`) gives ``lam'``, the minimal mover and the singular
generators, the positions whose value vanishes at ``lam'``; the orbit
points are numerators over one common denominator as well.  The affine
strata (:mod:`weylkl.affine`) read the table of their own W^J the same way.

>>> from weylkl.rootdata import build_root_datum, RationalCoweight
>>> strat = stratify(build_root_datum("A", 2), RationalCoweight((1, 1), 1))
>>> strat.system.size(), len(strat.index_set)
(6, 6)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import coxeter
from .coxeter import CoxeterElement, CoxeterSystem, parabolic_quotient
from .rootdata import (
    RationalCoweight,
    RootDatum,
    dominance_compare,
    reflect_coweight_by_root,
)

__all__ = [
    "Stratification",
    "integral_positive_roots",
    "simple_system",
    "subsystem_cartan",
    "indecomposable_indices",
    "endoscopic_system",
    "straighten",
    "stratify",
    "coweight_orbit_action",
    "strata_for_degree",
]


def integral_positive_roots(datum: RootDatum, lam: RationalCoweight):
    """Indices (into datum.positive_roots) of roots pairing integrally with lam."""
    n = lam.n
    mu = lam.mu
    out = []
    for k, row in enumerate(datum.pairing_rows):
        total = 0
        for r, m in zip(row, mu):
            total += r * m
        if total % n == 0:
            out.append(k)
    return tuple(out)


def _integer_data(datum: RootDatum, roots):
    """Integer row (``<beta, mu> = row . mu``) and coroot of each finite root
    ``beta``; a negative root takes the negated data of its positive."""
    rows, where, coroots = datum.pairing_rows, datum.root_index, datum.positive_coroots
    out = []
    for beta in roots:
        k = where.get(beta)
        if k is not None:
            out.append((rows[k], coroots[k]))
        else:
            k = where[tuple(-c for c in beta)]
            out.append((tuple(-r for r in rows[k]), tuple(-c for c in coroots[k])))
    return out


def subsystem_cartan(datum: RootDatum, roots):
    """``(gcm, coroots)`` of finite roots of either sign, in integers, with
    ``gcm[i][j] = <roots[j], roots[i]^vee>``."""
    data = _integer_data(datum, roots)
    gcm = tuple(tuple(sum(map(mul, row, coroot)) for row, _ in data) for _, coroot in data)
    return gcm, tuple(coroot for _, coroot in data)


def simple_system(datum: RootDatum, items):
    """The items ``(beta, m)`` that are simple roots, in input order.

    ``items`` are positive integral roots ``beta + m*delta`` (``m = 0`` for
    finite roots).  Dyer's criterion (J. Algebra 135, 1990; Bjorner-Brenti,
    GTM 231, ch. 4): gamma = (beta, m) is simple iff s_gamma sends no other
    positive root of the subgroup to a negative root.  For alpha = (rho, n)
    and c = <rho, beta^vee> > 0, s_gamma(alpha) = (rho - c*beta) +
    (n - c*m)*delta is negative iff n < c*m, or n = c*m and rho - c*beta
    has negative height.

    ``items`` must hold every root of the subgroup whose delta-coefficient
    is at most that of a root tested: a non-simple gamma is refuted by a
    simple root below it (s_gamma has a descent in the support of gamma).
    """
    data = _integer_data(datum, [beta for beta, _m in items])
    heights = [sum(beta) for beta, _m in items]
    out = []
    for g, (_, coroot) in enumerate(data):
        m, height = items[g][1], heights[g]
        for a, (row, _) in enumerate(data):
            c = sum(map(mul, row, coroot))
            if c > 0 and a != g and (items[a][1] - c * m, heights[a] - c * height) < (0, 0):
                break
        else:
            out.append(items[g])
    return out


def indecomposable_indices(datum: RootDatum, indices):
    """Sub-tuple of the integral positive roots ``indices`` forming their
    simple system: gamma is kept iff s_gamma sends no other root of
    ``indices`` to a negative root (:func:`simple_system` with ``m = 0``;
    no window is needed, as every positive root of the subgroup is given)."""
    roots = datum.positive_roots
    kept = {beta for beta, _m in simple_system(datum, [(roots[k], 0) for k in indices])}
    return tuple(k for k in indices if roots[k] in kept)


@lru_cache(maxsize=None)  # pays for itself: 2,000 pool blocks share 517 subsystems
def _endoscopic_system(datum: RootDatum, simple_indices):
    gcm, _ = subsystem_cartan(datum, [datum.positive_roots[k] for k in simple_indices])
    return CoxeterSystem(gcm, labels=range(1, len(simple_indices) + 1))


def endoscopic_system(datum: RootDatum, simple_indices) -> CoxeterSystem:
    """Coxeter system of the reflection subgroup on the given simple roots."""
    return _endoscopic_system(datum, tuple(simple_indices))


@dataclass(frozen=True)
class Stratification:
    """Everything the stratification of a rational coweight determines."""

    datum: RootDatum
    lam: RationalCoweight
    integral_indices: tuple  # all integral positive roots (indices)
    simple_indices: tuple  # the indecomposable ones (indices)
    system: CoxeterSystem  # intrinsic Coxeter system on those
    lambda_prime: tuple  # dominant representative, coroot coordinates
    minimal_mover: CoxeterElement  # y with lam = y(lambda_prime), minimal
    singular: frozenset  # generator labels fixing lambda_prime
    index_set: tuple  # minimal coset representatives mod the singular part

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


def _integer_point(datum: RootDatum, roots, vec, shifts):
    """The integer rows of ``roots`` (:func:`_integer_data`), one common
    denominator ``d`` of ``vec`` and ``shifts``, and their numerators over
    ``d``: reflections then act on numerators alone.  A
    :class:`~weylkl.rootdata.RationalCoweight` ``mu/n`` gives its ``mu``
    over ``n`` as it stands."""
    rows = [row for row, _ in _integer_data(datum, roots)]
    if isinstance(vec, RationalCoweight):
        point, d = vec.mu, vec.n
    else:
        vec = [Fraction(x) for x in vec]
        d = math.lcm(*(x.denominator for x in vec))
        point = tuple(x.numerator * (d // x.denominator) for x in vec)
    if shifts is None:
        return rows, d, point, [0] * len(rows)
    shifts = [Fraction(s) for s in shifts]
    e = math.lcm(d, *(s.denominator for s in shifts))
    return (rows, e, tuple(c * (e // d) for c in point),
            [s.numerator * (e // s.denominator) for s in shifts])


def _value(row, shift, point):
    """``<beta, v> + shift`` from the integer row of beta; coordinates of
    ``point`` past the row (an imaginary part) do not pair."""
    return sum(map(mul, row, point)) + shift


def straighten(datum: RootDatum, system: CoxeterSystem, roots, coroots, vec,
               shifts=None, sign=1):
    """Move ``vec`` to the dominant chamber of the group generated by ``roots``.

    Repeatedly reflects by the first root i whose value
    ``sign * (<roots[i], vec> + shifts[i])`` is negative, recording i, until
    no such root is left.  ``vec`` is a coweight vector or a
    :class:`~weylkl.rootdata.RationalCoweight`; ``shifts`` (default 0) are
    the delta-parts ``m_i * k`` of affine roots at level k; ``sign = -1``
    straightens to the antidominant chamber.  Returns
    ``(lambda_prime, mover, zeros)`` where ``mover``, the element of
    ``system`` spelled by the recorded word, is the minimal element taking
    ``lambda_prime`` back to ``vec``, and ``zeros`` are the positions i
    whose value vanishes at ``lambda_prime``.  All of it runs on integer
    numerators; only ``lambda_prime`` is made of Fractions.
    """
    rows, d, point, shifts = _integer_point(datum, roots, vec, shifts)
    word = []
    for _ in range(100000):
        zeros = []
        for i, (row, shift) in enumerate(zip(rows, shifts)):
            value = _value(row, shift, point)
            if sign * value < 0:
                break
            if not value:
                zeros.append(i)
        else:
            mover = CoxeterElement(system, system._canonical(tuple(word)))
            if len(mover.word) != len(word):
                raise AssertionError("straightening word must be reduced")
            return tuple(Fraction(c, d) for c in point), mover, tuple(zeros)
        word.append(i)
        point = tuple(c - value * cr for c, cr in zip(point, coroots[i]))
    raise AssertionError("straightening did not terminate")


def stratify(datum: RootDatum, lam: RationalCoweight) -> Stratification:
    """Full stratification data for a rational coweight."""
    if len(lam.mu) != datum.rank:
        raise ValueError("coweight length does not match the rank")
    integral = integral_positive_roots(datum, lam)
    simple = indecomposable_indices(datum, integral)
    system = _endoscopic_system(datum, simple)
    roots = [datum.positive_roots[k] for k in simple]
    coroots = [datum.positive_coroots[k] for k in simple]

    lambda_prime, mover, zeros = straighten(datum, system, roots, coroots, lam)
    singular = frozenset(i + 1 for i in zeros)
    index_set = parabolic_quotient(system, singular)
    return Stratification(
        datum=datum, lam=lam, integral_indices=integral, simple_indices=simple,
        system=system, lambda_prime=lambda_prime, minimal_mover=mover,
        singular=singular, index_set=index_set)


def _index_numerators(strat: Stratification):
    """``(d, points)``: the numerators over ``d`` of w(lambda') for the index
    set's w, in its order, read along the table of W^J: with s = fld[x],
    p(x) = s(p(s*x)), where <beta_s, p(s*x)> > 0 as lambda' is dominant."""
    system, coroots = strat.system, strat.simple_coroots
    tab = system._ensure_tables(J=tuple(coxeter._positions(system, strat.singular)))
    rows, d, point, _ = _integer_point(strat.datum, strat.simple_roots,
                                       strat.lambda_prime, None)
    points = [point]
    for x, s in enumerate(tab["fld"][1:], 1):
        parent = points[tab["lmult"][x][s]]
        value = _value(rows[s], 0, parent)
        if value <= 0:
            raise AssertionError("lambda' must be dominant with stabilizer W_J")
        points.append(tuple(c - value * cr for c, cr in zip(parent, coroots[s])))
    return d, points


def strata_for_degree(strat: Stratification, alpha):
    """Index-set elements w with lambda' - w(lambda') below alpha.

    ``alpha`` is an ambient coweight vector of the datum's rank; "below"
    means the difference is a componentwise nonnegative integer vector.
    """
    rank = strat.datum.rank
    if len(alpha) != rank:
        raise ValueError(f"the degree has {len(alpha)} coordinates; the rank is {rank}")
    d, points = _index_numerators(strat)
    return tuple(w for w, point in zip(strat.index_set, points) if dominance_compare(
        tuple(Fraction(t - c, d) for t, c in zip(points[0], point)), alpha))

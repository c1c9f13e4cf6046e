"""Integral-linkage data for a rational coweight.

Given a root datum and a rational coweight ``lam``, the positive roots
pairing integrally with ``lam`` form a closed subsystem.  Its indecomposable
elements are a simple system; the reflections they define generate a finite
reflection subgroup acting on the coweight lattice.  This module computes:

* the integral subsystem and its simple system,
* that subgroup as an intrinsic :class:`~weylkl.coxeter.CoxeterSystem`
  together with its action on ambient coweights,
* the dominant representative ``lam'`` of ``lam`` under that subgroup, the
  minimal element ``y`` moving one to the other, the generators fixing
  ``lam'``, and the minimal coset representatives modulo those generators,
  which index the strata attached to ``lam``.

>>> from weylkl.rootdata import build_root_datum, RationalCoweight
>>> strat = stratify(build_root_datum("A", 2), RationalCoweight((1, 1), 1))
>>> strat.system.size(), len(strat.index_set)
(6, 6)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coxeter import CoxeterElement, CoxeterSystem, parabolic_quotient
from .rootdata import (
    RationalCoweight,
    RootDatum,
    dominance_compare,
    pairing,
    reflect_coweight_by_root,
)

__all__ = [
    "Stratification",
    "integral_positive_roots",
    "indecomposable_indices",
    "endoscopic_system",
    "straighten",
    "stratify",
    "coweight_orbit_action",
    "ambient_matrix",
    "subgroup_matrices",
    "strata_for_degree",
]


@lru_cache(maxsize=None)
def _pairing_rows(datum: RootDatum):
    """Integer rows r_k with <beta_k, mu> = r_k . mu, one per positive root."""
    cartan = datum.cartan_matrix
    n = datum.rank
    rows = []
    for beta in datum.positive_roots:
        rows.append(tuple(sum(cartan[j][i] * beta[i] for i in range(n))
                          for j in range(n)))
    return tuple(rows)


def integral_positive_roots(datum: RootDatum, lam: RationalCoweight):
    """Indices (into datum.positive_roots) of roots pairing integrally with lam."""
    n = lam.n
    mu = lam.mu
    out = []
    for k, row in enumerate(_pairing_rows(datum)):
        total = 0
        for r, m in zip(row, mu):
            total += r * m
        if total % n == 0:
            out.append(k)
    return tuple(out)


def indecomposable_indices(datum: RootDatum, indices):
    """Sub-tuple of ``indices`` whose roots are not sums of two others.

    For a closed subsystem of a finite root system the pairwise-sum test
    characterizes the simple system exactly.
    """
    chosen = set(indices)
    roots = {k: datum.positive_roots[k] for k in indices}
    vectors = {roots[k] for k in indices}
    out = []
    for k in indices:
        beta = roots[k]
        decomposable = False
        for j in indices:
            gamma = roots[j]
            rest = tuple(b - g for b, g in zip(beta, gamma))
            if any(rest) and rest in vectors:
                decomposable = True
                break
        if not decomposable:
            out.append(k)
    return tuple(out)


@lru_cache(maxsize=None)
def _endoscopic_system(datum: RootDatum, simple_indices):
    roots = [datum.positive_roots[k] for k in simple_indices]
    coroots = [datum.positive_coroots[k] for k in simple_indices]
    size = len(simple_indices)
    gcm = []
    for i in range(size):
        row = []
        for j in range(size):
            value = pairing(datum, roots[j], coroots[i])
            if value.denominator != 1:
                raise AssertionError("subsystem Cartan pairings must be integers")
            row.append(int(value))
        gcm.append(row)
    system = CoxeterSystem(gcm, labels=range(1, size + 1))
    system.subsystem_of = (datum, simple_indices)
    return system


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


def ambient_matrix(strat: Stratification, w: CoxeterElement):
    """Columns: images of the simple coweights under the subgroup element."""
    n = strat.datum.rank
    return tuple(coweight_orbit_action(strat, w, tuple(int(i == j) for i in range(n)))
                 for j in range(n))


@lru_cache(maxsize=None)
def _subgroup_matrices(datum: RootDatum, simple_indices):
    system = _endoscopic_system(datum, simple_indices)
    roots = [datum.positive_roots[k] for k in simple_indices]
    coroots = [datum.positive_coroots[k] for k in simple_indices]
    n = datum.rank
    identity = tuple(tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n))
    tab = system._ensure_tables()
    matrices = [None] * tab["size"]
    matrices[0] = identity
    order = sorted(range(tab["size"]), key=lambda g: tab["length"][g])
    for g in order[1:]:
        s = tab["fld"][g]
        h = tab["lmult"][g][s]  # shorter neighbour: g = s_s * h
        cols = []
        for col in matrices[h]:
            cols.append(reflect_coweight_by_root(datum, roots[s], coroots[s], col))
        matrices[g] = tuple(tuple(c) for c in cols)
    return frozenset(matrices)


def subgroup_matrices(datum: RootDatum, simple_indices) -> frozenset:
    """Ambient coweight-action matrices of the whole reflection subgroup."""
    return _subgroup_matrices(datum, tuple(simple_indices))


def straighten(datum: RootDatum, system: CoxeterSystem, roots, coroots, vec,
               shifts=None, sign=1):
    """Move ``vec`` to the dominant chamber of the group generated by ``roots``.

    Repeatedly reflects by the first root i whose value
    ``sign * (<roots[i], vec> + shifts[i])`` is negative, recording i, until
    no such root is left.  ``shifts`` (default 0) are the delta-parts
    ``m_i * k`` of affine roots at level k; ``sign = -1`` straightens to
    the antidominant chamber.  Returns ``(lambda_prime, mover)`` where
    ``mover``, the element of ``system`` spelled by the recorded word, is
    the minimal element taking ``lambda_prime`` back to ``vec``.
    """
    if shifts is None:
        shifts = (0,) * len(roots)
    vec = tuple(vec)
    word = []
    for _ in range(100000):
        for i, (beta, shift) in enumerate(zip(roots, shifts)):
            value = pairing(datum, beta, vec) + shift
            if sign * value < 0:
                break
        else:
            mover = CoxeterElement(system, system._canonical(tuple(word)))
            assert len(mover.word) == len(word), "straightening word must be reduced"
            return vec, mover
        word.append(i)
        vec = tuple(c - value * cr for c, cr in zip(vec, coroots[i]))
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

    lambda_prime, mover = straighten(datum, system, roots, coroots, lam.vector)
    singular = frozenset(
        i + 1 for i, beta in enumerate(roots) if pairing(datum, beta, lambda_prime) == 0)
    index_set = parabolic_quotient(system, singular)
    return Stratification(
        datum=datum, lam=lam, integral_indices=integral, simple_indices=simple,
        system=system, lambda_prime=lambda_prime, minimal_mover=mover,
        singular=singular, index_set=index_set)


def strata_for_degree(strat: Stratification, alpha):
    """Index-set elements w with lambda' - w(lambda') below alpha.

    ``alpha`` is an ambient coweight vector; "below" means the difference
    is a componentwise nonnegative integer vector.
    """
    alpha = tuple(Fraction(x) for x in alpha)
    out = []
    for w in strat.index_set:
        moved = coweight_orbit_action(strat, w, strat.lambda_prime)
        diff = tuple(a - b for a, b in zip(strat.lambda_prime, moved))
        if dominance_compare(diff, alpha):
            out.append(w)
    return tuple(out)

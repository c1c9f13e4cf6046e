"""Level classification and strata enumeration for affine rational coweights.

An affine rational coweight is a finite rational coweight together with a
one-parameter subgroup of the product of the curve-rotation circle and the
loop-rotation circle, recorded by its integer projection pair ``(a, b)``.
The sign of ``a*b`` splits the coweights into positive, negative and
critical classes; each class comes with its own stratification index:

* positive/negative level: length-enumerable parabolic quotients of the
  integral affine Weyl group, cut down by a dominance bound on the degree
  ``lambda' - w(lambda')`` (orientation flipped at negative level);
* critical level: pairs ``(w, alpha)`` of a finite integral Weyl group
  element and a nonnegative coroot combination solving an exact degree
  equation involving the minimal imaginary coroot.

Everything is exact: finite parts are `fractions.Fraction` vectors and the
affine real roots are pairs ``(beta, m)`` of a finite root and an integer
delta-coefficient.  Each integral root's integer row, coroot and value
``<beta, x>`` are read once, as :func:`weylkl.endoscopy.stratify` reads
them, and the simple system and the straightening are those of the finite
strata (:func:`weylkl.endoscopy._dyer`,
:func:`weylkl.endoscopy._straighten`), on the values ``<beta, x> + m*k``
of the simple roots at level k: ``lambda'``, the mover and the singular
labels come off one straightening, in which only the finite generators
move at critical level.  Both indices walk the table of the singular
quotient W^J level by level along ``fld``, with the values at
``w(lambda')`` and the degree carried in integers, and stop at the first
level with nothing inside the bound.

The simple roots of the integral affine roots are found by Dyer's criterion
(:func:`weylkl.endoscopy._dyer`: gamma is simple iff s_gamma sends no
other positive integral root to a negative one) over the window of
integral roots with delta-coefficient at most ``2 * period``.  The window
is exact: a non-simple gamma is refuted by a simple root below it, so in
the window; and a simple root has the least delta-coefficient of its finite
part, at most ``period`` (``(beta, m + period)`` is not simple already in
the rank-one system of ``+-beta``).  Every component of their Cartan matrix
is affine, and the marks that prove it (:func:`weylkl.coxeter._classify`)
sum the simple coroots to that component's imaginary coroot; the gcd of
their imaginary parts is ``delta_zeta``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .coxeter import CoxeterSystem, _classify, parabolic_quotient
from .endoscopy import (
    _dyer, _integer_point, _inversions, _pairings, _straighten, _walk_below)
from .rootdata import RootDatum, _Record


class LevelClass(Enum):
    """Trichotomy of affine coweights by the signs of the projection pair."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    CRITICAL = "critical"


class AffineCoweight(_Record):
    """A rational coweight of the affinized torus.

    ``mu/n`` is the finite part; ``pair = (a, b)`` is the integer projection
    of the defining one-parameter subgroup to the two circle factors.  The
    level is ``-b/a``; vertical subgroups (``a == 0``) carry no level.
    """

    __slots__ = ("mu", "pair", "n")

    def __init__(self, mu, pair, n: int = 1):
        if not isinstance(n, int) or n < 1:
            raise ValueError("denominator must be a positive integer")
        mu, pair = tuple(mu), tuple(pair)
        if not all(isinstance(c, int) for c in mu):
            raise ValueError("finite coordinates must be integers")
        if len(pair) != 2 or not all(isinstance(c, int) for c in pair):
            raise ValueError("projection pair must be a pair of integers")
        if pair == (0, 0):
            raise ValueError("projection pair must be nonzero")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_level(cls, mu, level_numerator, n=1):
        """Build the coweight ``(mu, level_numerator)/n`` in lowest pair form."""
        k = Fraction(level_numerator, n)
        return cls(tuple(mu), (k.denominator, -k.numerator), n)

    @property
    def finite_part(self):
        return tuple(Fraction(c, self.n) for c in self.mu)

    @property
    def level(self) -> Fraction:
        a, b = self.pair
        if a == 0:
            raise ValueError(
                "vertical one-parameter subgroup has no finite level")
        return Fraction(-b, a)


def classify_level(x: AffineCoweight) -> LevelClass:
    """Positive iff a*b < 0, negative iff a*b > 0, critical iff b == 0."""
    a, b = x.pair
    if a == 0:
        raise ValueError(
            "a vertical one-parameter subgroup is not assigned a level class")
    if b == 0:
        return LevelClass.CRITICAL
    return LevelClass.POSITIVE if a * b < 0 else LevelClass.NEGATIVE


def negate(x: AffineCoweight) -> AffineCoweight:
    """Invert the loop coordinate: swaps positive and negative level."""
    return AffineCoweight(
        tuple(-c for c in x.mu), (x.pair[0], -x.pair[1]), x.n)


# ---------------------------------------------------------------------------
# squared-length ratios


def length_ratio(datum: RootDatum, beta) -> int:
    """Squared-length ratio |theta|^2 / |beta|^2 of the highest root to the
    root ``beta`` (1, 2 or 3).  With beta = sum b_i alpha_i and its coroot
    sum c_i alpha_i^vee, c_i = b_i |alpha_i|^2 / |beta|^2, so the ratio is
    c_i theta_i / (b_i theta^vee_i) for any i with b_i != 0."""
    k = datum.root_index.get(tuple(beta))
    if k is None:
        k = datum.root_index.get(tuple(-b for b in beta))
    if k is None:
        raise ValueError("not a root of the datum")
    b, c = datum.positive_roots[k], datum.positive_coroots[k]
    i = next(i for i, b_i in enumerate(b) if b_i)
    return c[i] * datum.highest_root[i] // (b[i] * datum.highest_root_coroot[i])


# ---------------------------------------------------------------------------
# integral affine real roots


def _integral_window(datum: RootDatum, pairings, d, k_num, m_max):
    """Positive integral affine real roots ``(beta, m)`` with
    delta-coefficient <= m_max, from the numerators ``pairings`` over ``d``
    of ``<beta, x>`` for the positive finite roots and ``k_num`` of the
    level k: ``<beta, x> + m*k`` is an integer.  Returns the roots, their
    integer ``(row, coroot)`` and their values ``<beta, x>`` as numerators;
    a root ``-beta + m*delta`` takes the negated row, coroot and value."""
    roots = list(zip(datum.positive_roots, datum.pairing_rows, datum.positive_coroots, pairings))
    signed = roots + [(tuple(-c for c in beta), tuple(-c for c in row),
                       tuple(-c for c in coroot), -value) for beta, row, coroot, value in roots]
    found = [(root, 0) for root in roots if not root[3] % d]
    for m in range(1, m_max + 1):
        found += [(root, m) for root in signed if not (root[3] + m * k_num) % d]
    return ([(beta, m) for (beta, _row, _coroot, _value), m in found],
            [(row, coroot) for (_beta, row, coroot, _value), _m in found],
            [value for (_beta, _row, _coroot, value), _m in found])


# ---------------------------------------------------------------------------
# the affine stratification datum


class AffineStratification(_Record):
    """Integral affine combinatorics attached to an affine rational coweight.

    ``labels`` lists the system's generator labels in row order: the
    delta-free simple directions carry the finite labels ``1..f`` (matching
    the finite stratification's ordering), and each extra node with a
    positive delta-coefficient gets ``0, -1, -2, ...`` in turn.
    """

    __slots__ = (
        "datum",
        "x",                # the AffineCoweight
        "level_class",
        "period",
        "integral_roots",
        "labels",
        "simple_roots",     # pairs (finite root coords, delta coefficient)
        "simple_coroots",   # pairs (finite coroot coords, imaginary part)
        "system",
        "lambda_prime",
        "minimal_mover",
        "values",           # sign * (<beta, lambda'> + m*k) for the simple roots
        "singular",
        "delta_zeta",       # imaginary part of the minimal imaginary coroot
    )

    @property
    def level(self) -> Fraction:
        return self.x.level

    @property
    def J(self):
        """Positions of the simple roots vanishing at lambda'."""
        return tuple(i for i, value in enumerate(self.values) if not value)

    @property
    def finite_labels(self):
        return tuple(l for l in self.labels if l >= 1)


def affine_endoscopy(datum: RootDatum, x: AffineCoweight) -> AffineStratification:
    """Endoscopic datum of an affine rational coweight: integral affine real
    roots, their simple system, the straightened finite part with its
    moving word, singular labels and the minimal imaginary coroot."""
    if len(x.mu) != datum.rank:
        raise ValueError("coweight length does not match the rank")
    level_class = classify_level(x)
    k = x.level
    period = k.denominator
    d, point, (k_num,) = _integer_point(x.finite_part, [k])
    pairings = _pairings(datum, point)
    window, data, values = _integral_window(datum, pairings, d, k_num, 2 * period)
    kept = _dyer(data, [(m, sum(beta)) for beta, m in window])

    # the simple roots by (m, height, root): the finite ones come first
    order = sorted(kept, key=lambda g: (window[g][1], sum(window[g][0]), window[g][0]))
    roots = [window[g] for g in order]
    f = sum(1 for _beta, m in roots if not m)
    labels = tuple(range(1, f + 1)) + tuple(-i for i in range(len(roots) - f))
    gcm = tuple(tuple([kept[g][a] for a in order]) for g in order)
    coroots = [(data[g][1], m * length_ratio(datum, beta)) for g, (beta, m) in zip(order, roots)]
    system = CoxeterSystem(gcm, labels=labels)

    # at critical level only the finite roots move, and every root that
    # vanishes at lambda', delta-roots too, is singular
    sign = -1 if k < 0 else 1
    lam_prime, mover, values = _straighten(
        system, [data[g] for g in order], [m * k_num for _beta, m in roots], point, d,
        [sign * (values[g] + m * k_num) for g, (_beta, m) in zip(order, roots)],
        _inversions(pairings, k_num, d), None if k else range(f))
    singular = frozenset(label for label, value in zip(labels, values) if not value)

    imaginary = []
    for comp in system._components():
        kind, marks = _classify(gcm, comp)
        if kind != "affine":
            raise AssertionError("every component of an integral affine system must be affine")
        fin = [0] * datum.rank
        c_part = 0
        for pos, mark in marks.items():
            fin = [a + mark * b for a, b in zip(fin, coroots[pos][0])]
            c_part += mark * coroots[pos][1]
        if any(fin) or c_part <= 0:
            raise AssertionError("null marks must give a pure imaginary coroot")
        imaginary.append(c_part)
    delta_zeta = math.gcd(*imaginary) if imaginary else 0

    return AffineStratification(
        datum=datum, x=x, level_class=level_class, period=period,
        integral_roots=tuple(window), labels=labels, simple_roots=tuple(roots),
        simple_coroots=tuple(coroots), system=system,
        lambda_prime=lam_prime, minimal_mover=mover, values=values,
        singular=singular, delta_zeta=delta_zeta)


def affine_index_set(strat: AffineStratification, length_bound: int):
    """Minimal coset representatives modulo the singular parabolic, by length."""
    return parabolic_quotient(strat.system, strat.singular,
                              length_bound=length_bound)


# ---------------------------------------------------------------------------
# strata indices at positive/negative level


def _degree_coords(datum: RootDatum, finite_vec, imaginary):
    """Coordinates of (finite coroot vector, imaginary part) in the basis of
    the affinized simple coroots; None when outside the nonnegative cone."""
    theta_coroot = datum.positive_coroots[-1]
    coords = [imaginary]
    coords += [f + imaginary * t for f, t in zip(finite_vec, theta_coroot)]
    out = []
    for c in coords:
        frac = Fraction(c)
        if frac < 0 or frac.denominator != 1:
            return None
        out.append(int(frac))
    return tuple(out)


def _bound_coords(datum: RootDatum, bound):
    finite_vec, imaginary = bound
    if len(finite_vec) != datum.rank or not isinstance(imaginary, int):
        raise ValueError(
            "bound must be (finite coroot coordinates, delta multiplicity)")
    coords = _degree_coords(datum, finite_vec, imaginary)
    if coords is None:
        raise ValueError("bound must lie in the nonnegative affine coroot cone")
    return coords


def affine_strata_index(strat: AffineStratification, bound):
    """Stratification index at positive or negative level.

    Elements ``w`` of the singular parabolic quotient whose degree --
    ``lambda' - w(lambda')`` at positive level, ``w(lambda') - lambda'`` at
    negative level -- stays below ``bound = (finite coroot coordinates,
    delta multiplicity)`` in the affinized coroot cone.  Returns pairs
    ``(w, level_class)``, in (length, word) order.

    Read off the ball of the table of W^J (:func:`_walk_below`): each step
    s*g adds a positive multiple of the coroot of the simple root s, the
    imaginary part included, to the degree, so the walk stops at the bound.
    """
    if strat.level_class is LevelClass.CRITICAL:
        raise ValueError(
            "critical level has no bounded index; use critical_strata_index")
    if bound is None:
        raise ValueError("a degree bound is required: the group is infinite")
    datum = strat.datum
    bound_c = _bound_coords(datum, bound)
    steps = [_degree_coords(datum, coroot, c_part) for coroot, c_part in strat.simple_coroots]
    if None in steps:
        raise AssertionError(
            "positive integral coroots must lie in the affine coroot cone")
    system = strat.system
    kept = _walk_below(system, strat.J, strat.values, steps, len(bound_c), bound_c)
    words = system._tabs[strat.J]["words"]
    return tuple((system._element(words[x]), strat.level_class) for x in kept)


# ---------------------------------------------------------------------------
# strata index at critical level


def critical_strata_index(strat: AffineStratification, beta):
    """Solutions ``(w, alpha)`` of the critical-level degree equation.

    ``w`` runs over the singular quotient of the finite integral Weyl group,
    ``alpha`` over nonnegative combinations of the nonsingular finite simple
    coroots; the finite degree ``lambda' - w(lambda')`` must match ``beta``'s
    finite part exactly and the invariant pairing of ``alpha`` with the
    finite part accounts for ``beta``'s imaginary part in units of the
    minimal imaginary coroot.  ``alpha`` is returned as a coefficient tuple
    over the finite labels.

    The ``w`` are read off the table of W^J of the finite-labelled simple
    roots, which come first: their block of the Cartan matrix is a finite
    system whose positions are those of ``strat.system``.  The finite
    degree only grows along the table, so the walk stops past ``beta``
    (:func:`_walk_below`).
    """
    if strat.level_class is not LevelClass.CRITICAL:
        raise ValueError("the exact degree equation applies at critical level")
    beta_fin, beta_delta = beta
    _bound_coords(strat.datum, beta)  # cone membership validation
    datum = strat.datum
    f = len(strat.finite_labels)  # finite labels come first

    if not strat.delta_zeta and beta_delta != 0:
        return ()
    target = Fraction(beta_delta, strat.delta_zeta or 1)

    # the invariant form pairs the coroot of beta with lambda' to
    # |theta|^2/|beta|^2 * <beta, lambda'>, 0 for a singular beta
    weights = [value * length_ratio(datum, beta)
               for value, (beta, _m) in zip(strat.values[:f], strat.simple_roots)]
    if any(weight < 0 for weight in weights):
        raise AssertionError("nonsingular coroots must pair positively with lambda'")
    alphas = [((), target)]  # the counts so far, in lexicographic order, and what is left
    for weight in weights:
        alphas = [(alpha + (count,), rest - count * weight) for alpha, rest in alphas
                  for count in (range(rest // weight + 1) if weight else (0,))]
    alphas = [alpha for alpha, rest in alphas if rest == 0]
    if not alphas:
        return ()

    beta_target = tuple(Fraction(c) for c in beta_fin)
    finite = CoxeterSystem([row[:f] for row in strat.system.gcm[:f]])
    J = tuple(pos for pos in strat.J if pos < f)
    kept = _walk_below(finite, J, strat.values[:f],
                       [coroot for coroot, _c in strat.simple_coroots[:f]], datum.rank, beta_target)
    words = finite._tabs[J]["words"]
    return tuple((strat.system._element(words[x]), alpha) for x, degree in kept.items()
                 if degree == beta_target for alpha in alphas)

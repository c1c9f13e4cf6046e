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
delta-coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .coxeter import (
    CoxeterElement,
    CoxeterSystem,
    left_descents,
    parabolic_quotient,
    _symmetrizer,
)
from .endoscopy import straighten
from .linalg import kernel_basis
from .rootdata import RootDatum, pairing


class LevelClass(Enum):
    """Trichotomy of affine coweights by the signs of the projection pair."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    CRITICAL = "critical"


@dataclass(frozen=True)
class AffineCoweight:
    """A rational coweight of the affinized torus.

    ``mu/n`` is the finite part; ``pair = (a, b)`` is the integer projection
    of the defining one-parameter subgroup to the two circle factors.  The
    level is ``-b/a``; vertical subgroups (``a == 0``) carry no level.
    """

    mu: tuple
    pair: tuple
    n: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("denominator must be a positive integer")
        if not all(isinstance(c, int) for c in self.mu):
            raise ValueError("finite coordinates must be integers")
        if len(self.pair) != 2 or not all(isinstance(c, int) for c in self.pair):
            raise ValueError("projection pair must be a pair of integers")
        if self.pair == (0, 0):
            raise ValueError("projection pair must be nonzero")
        object.__setattr__(self, "mu", tuple(self.mu))
        object.__setattr__(self, "pair", tuple(self.pair))

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
# invariant bilinear form and squared-length ratios


@lru_cache(maxsize=None)
def _root_gram(datum: RootDatum):
    """Symmetrized Cartan matrix: entries proportional to (alpha_i, alpha_j)."""
    d = _symmetrizer(datum.cartan_matrix)
    n = datum.rank
    return tuple(
        tuple(d[i] * datum.cartan_matrix[i][j] for j in range(n)) for i in range(n))


def _root_norm(datum: RootDatum, beta) -> Fraction:
    gram = _root_gram(datum)
    n = datum.rank
    return sum(
        Fraction(beta[i]) * gram[i][j] * beta[j]
        for i in range(n) for j in range(n))


def length_ratio(datum: RootDatum, beta) -> int:
    """Squared-length ratio of the highest root to ``beta`` (1, 2 or 3)."""
    ratio = Fraction(_root_norm(datum, datum.highest_root)) / _root_norm(datum, beta)
    if ratio.denominator != 1 or ratio <= 0:
        raise ValueError("not a root of the datum")
    return int(ratio)


@lru_cache(maxsize=None)
def _coweight_gram(datum: RootDatum):
    """Minimal even invariant form on coweights, in simple-coroot coordinates.

    Column ``j`` of the Cartan matrix scaled by the squared-length ratio of
    the j-th simple root; coroots of long roots get squared length 2.
    """
    n = datum.rank
    ratios = [length_ratio(datum, datum.simple_roots[i]) for i in range(n)]
    return tuple(
        tuple(ratios[j] * datum.cartan_matrix[i][j] for j in range(n))
        for i in range(n))


def invariant_form(datum: RootDatum, v, w) -> Fraction:
    """The minimal even invariant form of two coweight vectors."""
    gram = _coweight_gram(datum)
    n = datum.rank
    return sum(
        Fraction(v[i]) * gram[i][j] * w[j] for i in range(n) for j in range(n))


@lru_cache(maxsize=None)
def _coroot_map(datum: RootDatum):
    table = {}
    for root, coroot in zip(datum.positive_roots, datum.positive_coroots):
        table[root] = coroot
        table[tuple(-c for c in root)] = tuple(-c for c in coroot)
    return table


# ---------------------------------------------------------------------------
# integral affine real roots and their indecomposables


def _affine_pairing(datum: RootDatum, beta, m, vec, k) -> Fraction:
    """Pairing of the affine real root ``beta + m*delta`` with ``(vec, k)``."""
    return pairing(datum, beta, vec) + m * k


def _integral_window(datum: RootDatum, vec, k, m_max):
    """Positive integral affine real roots with delta-coefficient <= m_max."""
    out = []
    finite = list(datum.positive_roots)
    finite += [tuple(-c for c in beta) for beta in datum.positive_roots]
    for m in range(m_max + 1):
        for beta in finite:
            if m == 0 and any(c < 0 for c in beta):
                continue
            if _affine_pairing(datum, beta, m, vec, k).denominator == 1:
                out.append((beta, m))
    return out


def _indecomposables(datum: RootDatum, items):
    """Elements of ``items`` that are not nonnegative combinations of others.

    Membership in the monoid generated by ``items`` is decided by a memoized
    search along a strictly decreasing height (pairwise-sum tests are not
    enough once delta-multiples re-enter the cone).
    """
    big = 2 * sum(datum.highest_root) + 1

    def flat(item):
        beta, m = item
        return beta + (m,)

    def height(v):
        return v[-1] * big + sum(v[:-1])

    pool = {flat(item) for item in items}
    memo = {}

    def in_cone(v):
        # nonempty nonnegative integral combination of pool elements
        if v in memo:
            return memo[v]
        memo[v] = False
        for u in pool:
            if v == u:
                memo[v] = True
                return True
            rest = tuple(a - b for a, b in zip(v, u))
            if height(rest) > 0 and in_cone(rest):
                memo[v] = True
                return True
        return False

    out = []
    for item in items:
        v = flat(item)
        decomposable = False
        for u in pool:
            if u == v:
                continue
            rest = tuple(a - b for a, b in zip(v, u))
            if rest == (0,) * len(rest) or (height(rest) > 0 and in_cone(rest)):
                decomposable = True
                break
        if not decomposable:
            out.append(item)
    return out


def _left_null_marks(gcm, positions):
    """Primitive positive integer left null vector of an affine sub-matrix."""
    idx = sorted(positions)
    # x with sum_i x_i * gcm[idx[i]][idx[j]] = 0: the kernel of the transpose
    basis = kernel_basis([[gcm[i][j] for i in idx] for j in idx])
    if len(basis) != 1:
        raise ValueError("component does not have a one-dimensional null space")
    sol = basis[0]
    denom = math.lcm(*(c.denominator for c in sol))
    ints = [int(c * denom) for c in sol]
    if all(c < 0 for c in ints):
        ints = [-c for c in ints]
    if not all(c > 0 for c in ints):
        raise ValueError("null marks of an affine component must be positive")
    g = math.gcd(*ints)
    return {pos: mark // g for pos, mark in zip(idx, ints)}


# ---------------------------------------------------------------------------
# the affine stratification datum


@dataclass(frozen=True)
class AffineStratification:
    """Integral affine combinatorics attached to an affine rational coweight.

    ``labels`` lists the system's generator labels in row order: the
    delta-free simple directions carry the finite labels ``1..f`` (matching
    the finite stratification's ordering), and each extra node with a
    positive delta-coefficient gets ``0, -1, -2, ...`` in turn.
    """

    datum: RootDatum
    x: AffineCoweight
    level_class: LevelClass
    period: int
    integral_roots: tuple
    labels: tuple
    simple_roots: tuple       # pairs (finite root coords, delta coefficient)
    simple_coroots: tuple     # pairs (finite coroot coords, imaginary part)
    system: CoxeterSystem
    lambda_prime: tuple
    minimal_mover: CoxeterElement
    singular: frozenset
    delta_zeta: int           # imaginary part of the minimal imaginary coroot

    @property
    def level(self) -> Fraction:
        return self.x.level

    @property
    def finite_labels(self):
        return tuple(l for l in self.labels if l >= 1)


def affine_endoscopy(datum: RootDatum, x: AffineCoweight) -> AffineStratification:
    """Endoscopic datum of an affine rational coweight: integral affine real
    roots, their indecomposables, the straightened finite part with its
    moving word, singular labels and the minimal imaginary coroot."""
    if len(x.mu) != datum.rank:
        raise ValueError("coweight length does not match the rank")
    level_class = classify_level(x)
    k = x.level
    period = k.denominator
    vec = x.finite_part
    window = tuple(_integral_window(datum, vec, k, 2 * period))
    simples = _indecomposables(datum, window)

    def sort_key(item):
        beta, m = item
        return (m, sum(beta), beta)

    finite = sorted((it for it in simples if it[1] == 0), key=sort_key)
    extra = sorted((it for it in simples if it[1] > 0), key=sort_key)
    roots = finite + extra
    labels = tuple(range(1, len(finite) + 1)) + tuple(
        -i for i in range(len(extra)))
    coroot_map = _coroot_map(datum)
    coroots = []
    for beta, m in roots:
        coroots.append((coroot_map[beta], m * length_ratio(datum, beta)))

    gcm = tuple(
        tuple(int(pairing(datum, bj, coroots[i][0]))
              for (bj, _mj) in roots)
        for i in range(len(roots)))
    system = CoxeterSystem(gcm, labels=labels)
    if len(roots) > 0 and system.kind != "affine":
        raise AssertionError("integral affine subsystem must be affine type")

    # the finite-labelled roots come first; at critical level only they move
    active = len(finite) if level_class is LevelClass.CRITICAL else len(roots)
    lam_prime, mover = straighten(
        datum, system, [beta for beta, _m in roots[:active]],
        [coroot for coroot, _c in coroots[:active]], vec,
        shifts=[m * k for _beta, m in roots[:active]],
        sign=-1 if level_class is LevelClass.NEGATIVE else 1)

    singular = frozenset(
        labels[i]
        for i, (beta, m) in enumerate(roots)
        if _affine_pairing(datum, beta, m, lam_prime, k) == 0)

    imaginary = []
    for comp in system._components():
        marks = _left_null_marks(gcm, comp)
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
        integral_roots=window, labels=labels, simple_roots=tuple(roots),
        simple_coroots=tuple(coroots), system=system,
        lambda_prime=lam_prime, minimal_mover=mover, singular=singular,
        delta_zeta=delta_zeta)


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


def affine_strata_index(strat: AffineStratification, bound, parabolic=(),
                        max_length=None):
    """Stratification index at positive or negative level.

    Elements ``w`` of the singular parabolic quotient (double quotient when
    ``parabolic`` labels are given) whose degree -- ``lambda' - w(lambda')``
    at positive level, ``w(lambda') - lambda'`` at negative level -- stays
    below ``bound = (finite coroot coordinates, delta multiplicity)`` in the
    affinized coroot cone.  Returns pairs ``(w, level_class)``.
    """
    if strat.level_class is LevelClass.CRITICAL:
        raise ValueError(
            "critical level has no bounded index; use critical_strata_index")
    if bound is None:
        raise ValueError("a degree bound is required: the group is infinite")
    bound_c = _bound_coords(strat.datum, bound)
    sign = 1 if strat.level_class is LevelClass.POSITIVE else -1
    datum, system, k = strat.datum, strat.system, strat.level
    jpos = {system._position(j) for j in strat.singular}
    kset = frozenset(parabolic)

    # ambient coordinate vector contributed by each endoscopic simple coroot
    steps = []
    for (beta, m), (coroot, c_part) in zip(strat.simple_roots,
                                           strat.simple_coroots):
        coords = _degree_coords(datum, coroot, c_part)
        if coords is None:
            raise AssertionError(
                "positive integral coroots must lie in the affine coroot cone")
        steps.append(coords)

    results = []
    frontier = {(): (strat.lambda_prime, (0,) * (datum.rank + 1))}
    seen = set()
    while frontier:
        nxt = {}
        for word, (cur, coords) in frontier.items():
            w = CoxeterElement(system, word)
            if not (kset & left_descents(w)):
                results.append((w, coords))
            if max_length is not None and len(word) >= max_length:
                continue
            for pos in range(len(strat.labels)):
                beta, m = strat.simple_roots[pos]
                val = _affine_pairing(datum, beta, m, cur, k)
                d = sign * val
                if d < 0:
                    continue  # a descent direction, not a new representative
                assert d == int(d), "integral pairings must stay integral"
                new_coords = tuple(
                    c + int(d) * s for c, s in zip(coords, steps[pos]))
                if any(c > b for c, b in zip(new_coords, bound_c)):
                    continue
                new_word = system._canonical((pos,) + word)
                if len(new_word) != len(word) + 1 or new_word in seen:
                    continue
                if any(system._right_descent(new_word, j) for j in jpos):
                    continue
                seen.add(new_word)
                coroot = strat.simple_coroots[pos][0]
                new_cur = tuple(
                    c - val * cr for c, cr in zip(cur, coroot))
                nxt[new_word] = (new_cur, new_coords)
        frontier = nxt
    results.sort(key=lambda pair: (pair[0].length, pair[0].word))
    return tuple((w, strat.level_class) for w, _coords in results)


# ---------------------------------------------------------------------------
# strata index at critical level


def _finite_subsystem(strat: AffineStratification) -> CoxeterSystem:
    positions = [strat.system._position(l) for l in strat.finite_labels]
    gcm = tuple(
        tuple(strat.system.gcm[i][j] for j in positions) for i in positions)
    return CoxeterSystem(gcm, labels=strat.finite_labels)


def critical_strata_index(strat: AffineStratification, beta):
    """Solutions ``(w, alpha)`` of the critical-level degree equation.

    ``w`` runs over the singular quotient of the finite integral Weyl group,
    ``alpha`` over nonnegative combinations of the nonsingular finite simple
    coroots; the finite degree ``lambda' - w(lambda')`` must match ``beta``'s
    finite part exactly and the invariant pairing of ``alpha`` with the
    finite part accounts for ``beta``'s imaginary part in units of the
    minimal imaginary coroot.  ``alpha`` is returned as a coefficient tuple
    over the finite labels.
    """
    if strat.level_class is not LevelClass.CRITICAL:
        raise ValueError("the exact degree equation applies at critical level")
    beta_fin, beta_delta = beta
    _bound_coords(strat.datum, beta)  # cone membership validation
    datum = strat.datum
    lam = strat.lambda_prime
    fin_labels = strat.finite_labels
    j_fin = strat.singular & set(fin_labels)
    sub = _finite_subsystem(strat)
    reps = parabolic_quotient(sub, j_fin)

    target = Fraction(beta_delta, strat.delta_zeta) if strat.delta_zeta else None
    if target is None:
        if beta_delta != 0:
            return ()
        target = Fraction(0)

    weights = []
    for label in fin_labels:
        pos = strat.system._position(label)
        if label in j_fin:
            weights.append(None)
            continue
        coroot = strat.simple_coroots[pos][0]
        weights.append(invariant_form(datum, coroot, lam))
        assert weights[-1] > 0

    alphas = []

    def extend(idx, remaining, partial):
        if idx == len(fin_labels):
            if remaining == 0:
                alphas.append(tuple(partial))
            return
        if weights[idx] is None:
            extend(idx + 1, remaining, partial + [0])
            return
        count = 0
        while count * weights[idx] <= remaining:
            extend(idx + 1, remaining - count * weights[idx],
                   partial + [count])
            count += 1

    if target >= 0:
        extend(0, target, [])

    beta_target = tuple(Fraction(c) for c in beta_fin)
    out = []
    for rep in reps:
        cur = lam
        for pos in reversed(rep.word):
            label = fin_labels[pos]
            spos = strat.system._position(label)
            root, _m = strat.simple_roots[spos]
            coroot = strat.simple_coroots[spos][0]
            val = pairing(datum, root, cur)
            cur = tuple(c - val * cr for c, cr in zip(cur, coroot))
        diff = tuple(a - b for a, b in zip(lam, cur))
        if diff != beta_target:
            continue
        w = strat.system.element(rep.word_labels)
        for alpha in alphas:
            out.append((w, alpha))
    out.sort(key=lambda pair: (pair[0].length, pair[0].word, pair[1]))
    return tuple(out)

"""Dynkin diagram folding by a diagram automorphism.

A diagram automorphism ``sigma`` of a simply-laced root datum partitions the
nodes into orbits.  Summing Cartan rows over each orbit produces the Cartan
matrix of the invariant (fixed-point) subalgebra, which is non-simply-laced
whenever ``sigma`` is nontrivial:

* odd-rank ``A`` with the flip folds to type ``C``,
* ``D`` with the tail swap folds to type ``B``,
* ``D4`` with a three-cycle on the outer nodes folds to type ``G2``,
* ``E6`` with the flip folds to type ``F4``,
* even-rank ``A`` with the flip puts two adjacent nodes in one orbit; the
  quotient is the non-reduced case, flagged instead of folded.

Both the invariant type and its Langlands dual are exposed: on the dual side
the per-orbit integers ``d_i`` (half the squared length of the corresponding
simple root, short roots normalized to length two) equal the orbit sizes, and
their maximum is the order of ``sigma``.

The coinvariant-to-invariant map sends a class represented by a lattice
vector to the sum of its translates under the cyclic group generated by
``sigma``; it is independent of the representative and injective.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import permutations
from math import lcm

from .rootdata import RootDatum, _Record, build_root_datum

__all__ = [
    "FoldingDatum",
    "UntwistClass",
    "coinvariant_map_a",
    "fold",
    "untwist_classify",
]


class UntwistClass(Enum):
    """Whether fixed-point strata reduce to untwisted flag combinatorics."""

    UNTWISTED = "untwisted-describable"
    TWISTED = "twisted"


# ---------------------------------------------------------------------------
# validation helpers


def _is_simply_laced(datum: RootDatum) -> bool:
    a = datum.cartan_matrix
    n = datum.rank
    for i in range(n):
        for j in range(n):
            if i != j and (a[i][j] not in (0, -1) or a[i][j] != a[j][i]):
                return False
    return True


def _check_automorphism(datum: RootDatum, sigma) -> tuple:
    n = datum.rank
    sig = tuple(sigma)
    if sorted(sig) != list(range(1, n + 1)):
        raise ValueError(
            "sigma must be a permutation of the node labels 1..rank")
    a = datum.cartan_matrix
    for i in range(n):
        for j in range(n):
            if a[sig[i] - 1][sig[j] - 1] != a[i][j]:
                raise ValueError("sigma is not a diagram automorphism")
    return sig


def _orbits(sigma) -> tuple:
    n = len(sigma)
    seen = set()
    out = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        orbit = []
        node = start
        while node not in seen:
            seen.add(node)
            orbit.append(node)
            node = sigma[node - 1]
        out.append(tuple(sorted(orbit)))
    return tuple(out)


# ---------------------------------------------------------------------------
# identifying the folded Cartan matrix


def _match_type(cartan):
    """Find (letter, rank, node map) with cartan[i][j] == built[map[i]][map[j]].

    Identity relabelings are preferred so that the classical folding table
    (A-odd to C, D to B, E6 to F4, D4 to G2) is reported in its usual form.
    """
    m = len(cartan)
    candidates = []
    for letter in "ABCDEFG":
        try:
            built = build_root_datum(letter, m).cartan_matrix
        except ValueError:
            continue
        candidates.append((letter, built))
    for letter, built in candidates:
        if all(cartan[i][j] == built[i][j] for i in range(m) for j in range(m)):
            return letter, m, tuple(range(m))
    for letter, built in candidates:
        for pi in permutations(range(m)):
            if all(cartan[i][j] == built[pi[i]][pi[j]]
                   for i in range(m) for j in range(m)):
                return letter, m, pi
    raise ValueError("folded Cartan matrix is not of finite type")


# ---------------------------------------------------------------------------
# folding datum


class FoldingDatum(_Record):
    """A simply-laced root datum with a diagram automorphism and its folding.

    ``orbits`` are the sigma-orbits of node labels, ordered by least element;
    the folded system has one node per orbit in that order.  On the invariant
    side ``folded`` is the fixed-point subalgebra; ``dual_folded`` is its
    Langlands dual, whose simple-root squared half-lengths are the orbit
    sizes ``d_i``.  ``folded_nodes[o]`` is the 0-based node of ``folded``
    realizing orbit ``o`` (and likewise ``dual_nodes`` for ``dual_folded``);
    all four are ``None`` in the flagged non-reduced case.
    """

    __slots__ = ("source", "sigma", "d", "orbits", "d_i", "twisted_nonreduced",
                 "invariant_cartan", "dual_cartan", "folded", "folded_nodes",
                 "dual_folded", "dual_nodes")

    @property
    def orbit_index(self) -> tuple:
        """orbit_index[i-1] is the 1-based folded index of source node i."""
        out = [0] * self.source.rank
        for o, orbit in enumerate(self.orbits, start=1):
            for node in orbit:
                out[node - 1] = o
        return tuple(out)


def fold(source: RootDatum, sigma) -> FoldingDatum:
    """Fold a simply-laced root datum by the diagram automorphism ``sigma``.

    ``sigma`` is given as the image list of the node labels ``1..rank``.
    Orbits containing adjacent nodes (the even-rank type-A flip) produce no
    folded root datum and are flagged as the non-reduced twisted case.
    """
    if not _is_simply_laced(source):
        raise ValueError("the source root datum must be simply laced")
    sig = _check_automorphism(source, sigma)
    orbits = _orbits(sig)
    d = lcm(*(len(orbit) for orbit in orbits))
    d_i = tuple(len(orbit) for orbit in orbits)
    if d != max(d_i):
        raise AssertionError("automorphism order must equal the largest orbit")

    a = source.cartan_matrix
    m = len(orbits)
    cartan = tuple(
        tuple(sum(a[i - 1][orbits[oj][0] - 1] for i in orbits[oi])
              for oj in range(m))
        for oi in range(m))
    if any(cartan[o][o] != 2 for o in range(m)):
        # an orbit with adjacent nodes: the non-reduced quotient
        return FoldingDatum(
            source=source, sigma=sig, d=d, orbits=orbits, d_i=d_i,
            twisted_nonreduced=True, invariant_cartan=None, dual_cartan=None,
            folded=None, folded_nodes=None, dual_folded=None, dual_nodes=None)

    dual = tuple(tuple(cartan[j][i] for j in range(m)) for i in range(m))
    letter, rank, nodes = _match_type(cartan)
    dual_letter, _, dual_nodes = _match_type(dual)
    return FoldingDatum(
        source=source, sigma=sig, d=d, orbits=orbits, d_i=d_i,
        twisted_nonreduced=False, invariant_cartan=cartan, dual_cartan=dual,
        folded=build_root_datum(letter, rank), folded_nodes=nodes,
        dual_folded=build_root_datum(dual_letter, rank), dual_nodes=dual_nodes)


# ---------------------------------------------------------------------------
# coinvariants and the untwisting classification


def _apply_sigma(sigma, vector):
    out = [0] * len(vector)
    for i, v in enumerate(vector):
        out[sigma[i] - 1] = v
    return tuple(out)


def coinvariant_map_a(fd: FoldingDatum, alpha) -> tuple:
    """Sum the translates of a representative over the cyclic group.

    The input is a lattice vector representing a coinvariant class; the
    output is the invariant vector obtained by summing its sigma-translates.
    Adding ``sigma(beta) - beta`` to the representative does not change the
    result, so the map is well defined on coinvariants.  Library API that
    nothing in the package calls.
    """
    vec = tuple(alpha)
    if len(vec) != fd.source.rank:
        raise ValueError("vector length does not match the rank")
    total = [0] * len(vec)
    cur = vec
    for _ in range(fd.d):
        total = [t + c for t, c in zip(total, cur)]
        cur = _apply_sigma(fd.sigma, cur)
    return tuple(total)


def untwist_classify(fd: FoldingDatum, k) -> UntwistClass:
    """Classify a nonzero rational level against the automorphism order.

    Fixed-point strata admit an untwisted flag description exactly when the
    level's denominator is divisible by the order of the automorphism.
    """
    level = Fraction(k)
    if level == 0:
        raise ValueError(
            "the untwisting classification assumes a noncritical level")
    if level.denominator % fd.d == 0:
        return UntwistClass.UNTWISTED
    return UntwistClass.TWISTED

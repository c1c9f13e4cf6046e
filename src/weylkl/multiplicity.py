"""Verma-module composition multiplicities and graded character data.

For a stratification of a rational coweight ``lam`` with dominant
representative ``lam'``, the highest weights ``w(lam') - rho`` for ``w`` in
the index set label a block of Verma modules over the Langlands-dual Lie
algebra.  The multiplicity of the simple module with highest weight
``y(lam') - rho`` inside the Verma with highest weight ``w(lam') - rho``
equals the Kazhdan-Lusztig polynomial ``P_{w w0, y w0}`` of the subsystem's
Coxeter system evaluated at 1, where ``w0`` is the longest element of the
subgroup W_J generated by the generators fixing ``lam'``.  These are
Deodhar's parabolic polynomials (u = -1) on W^J, read off the column fill of
the table of W^J itself, whose ids are the index set's positions, so a
block costs only |W^J|.  The polynomial itself is the graded
(layer-by-layer) version of the multiplicity.

Graded partition counts for character manipulations live here as well: the
q-coefficient of a partition count records the number of parts, so that
summing ``K_alpha(q) e^alpha`` reproduces the product of geometric series
``1/(1 - q e^beta)`` over the relevant positive vectors.  A weight
multiplicity of a simple module is an alternating sum of such counts; its
total dimension needs only heights: the Verma with highest weight
``w(lam') - rho`` contributes the number of multisets of positive coroots of
total height at most ``depth - ht(lam' - w(lam'))``, one integer per index
element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import coxeter
from .coxeter import CoxeterElement
from .endoscopy import Stratification, _index_degrees
from .kl import _fill, _kl_column, _padd, _pshift
from .linalg import invert_unitriangular

__all__ = [
    "index_highest_weights",
    "multiplicity_polynomial",
    "multiplicity",
    "multiplicity_matrix",
    "inverse_multiplicity_matrix",
    "graded_partition_polynomial",
    "graded_partition_series",
    "simple_weight_multiplicity",
    "simple_module_dimension",
]


def index_highest_weights(strat: Stratification):
    """Highest weights w(lam') - rho, one per index-set element, in order."""
    lam, rho = strat.lambda_prime, strat.datum.rho
    return tuple(tuple(c - a - r for c, a, r in zip(lam, degree, rho))
                 for degree in _index_degrees(strat).values())


def multiplicity_polynomial(strat: Stratification, w: CoxeterElement,
                            y: CoxeterElement):
    """Graded multiplicity of the y-simple in the w-Verma (tuple of coeffs)."""
    if w not in strat.index_set or y not in strat.index_set:
        raise ValueError("multiplicities are indexed by the stratification's index set")
    return _kl_column(strat.system, y, strat.J).get(strat.index_set.index(w), ())


def multiplicity(strat: Stratification, w: CoxeterElement, y: CoxeterElement) -> int:
    """[Verma(w) : simple(y)]: the graded multiplicity evaluated at q = 1."""
    return sum(multiplicity_polynomial(strat, w, y))


def multiplicity_matrix(strat: Stratification):
    """Rows w, columns y (index-set order): [Verma(w) : simple(y)].

    Upper unitriangular: the index set is sorted by length, and the entry
    vanishes unless w is below y in the Bruhat order.  Built from the filled
    columns, {w <= y} for each y, evaluating each distinct polynomial at
    q = 1 once.
    """
    strat.system._ensure_tables(J=strat.J)
    n = len(strat.index_set)
    kl = _fill(strat.system, strat.J, range(n))
    matrix = [[0] * n for _ in range(n)]
    values = {}
    for y in range(n):
        for w, poly in kl[y].items():
            value = values.get(poly)
            if value is None:
                value = values[poly] = sum(poly)
            matrix[w][y] = value
    return matrix


def inverse_multiplicity_matrix(strat: Stratification):
    """Integer matrix A with simple(y) = sum_w A[y][w] * Verma(w) in characters.

    Library API that nothing in the package calls: weight multiplicities
    and dimensions read one row of it (:func:`_inverse_row`)."""
    return invert_unitriangular(multiplicity_matrix(strat))


# -- graded partition counts --------------------------------------------------


@lru_cache(maxsize=None)  # serves the oracle, whose partition counts repeat across a block
def _partition_memo(vectors):
    return {}


def graded_partition_polynomial(vectors, target):
    """Ways of writing ``target`` as an N-combination of ``vectors``, graded
    by the number of parts: coefficient of q^k counts k-part partitions."""
    vectors = tuple(tuple(v) for v in vectors)
    target = tuple(target)
    if any(Fraction(t).denominator != 1 for t in target):
        return ()
    target = tuple(int(t) for t in target)
    memo = _partition_memo(vectors)

    def recurse(t, idx):
        if not any(t):
            return (1,)
        if idx == len(vectors):
            return ()
        key = (t, idx)
        got = memo.get(key)
        if got is not None:
            return got
        vec = vectors[idx]
        out = recurse(t, idx + 1)
        reduced = tuple(a - b for a, b in zip(t, vec))
        if all(c >= 0 for c in reduced):
            out = _padd(out, _pshift(recurse(reduced, idx), 1))
        memo[key] = out
        return out

    if any(t < 0 for t in target):
        return ()
    return recurse(target, 0)


def graded_partition_series(vectors, max_height):
    """Product of 1/(1 - q e^v) over ``vectors``, truncated by coordinate sum.

    Returns {exponent vector: coefficient polynomial in q} for all exponent
    vectors of coordinate sum at most ``max_height``.  Independent of
    :func:`graded_partition_polynomial` (product expansion vs recursion).
    """
    vectors = [tuple(v) for v in vectors]
    series = {tuple(0 for _ in range(len(vectors[0]) if vectors else 0)): (1,)}
    for vec in vectors:
        height = sum(vec)
        if height <= 0:
            raise ValueError("vectors must have positive coordinate sum")
        updated = dict(series)
        # multiply by sum_k q^k e^{k v}, truncating above max_height
        for expo, coeff in series.items():
            base = sum(expo)
            k = 1
            while base + k * height <= max_height:
                target = tuple(e + k * v for e, v in zip(expo, vec))
                term = _pshift(coeff, k)
                updated[target] = _padd(updated.get(target, ()), term)
                k += 1
        series = updated
    return {expo: coeff for expo, coeff in series.items()
            if sum(expo) <= max_height}


# -- weight multiplicities of the simple modules -------------------------------


def _require_full_integrality(strat: Stratification):
    if len(strat.integral_indices) != len(strat.datum.positive_roots):
        raise ValueError(
            "weight-multiplicity sums require a coweight pairing integrally "
            "with every positive root")


def _index_position(strat, y):
    try:
        return strat.index_set.index(y)
    except ValueError:
        raise ValueError("y must be an index-set element") from None


def _inverse_row(strat, row):
    """Row ``row`` of the inverse multiplicity matrix M^-1: the a with
    a M = e_row, zero left of ``row``, solved forward along the filled
    columns {w: P_{w,y}} of the table of W^J, each polynomial at q = 1."""
    strat.system._ensure_tables(J=strat.J)
    n = len(strat.index_set)
    kl = _fill(strat.system, strat.J, range(n))
    a = [int(j == row) for j in range(n)]
    for j in range(row + 1, n):  # a[j] is still 0 in its own column
        a[j] = -sum(a[w] * sum(poly) for w, poly in kl[j].items() if a[w])
    return a


def simple_weight_multiplicity(strat: Stratification, y: CoxeterElement, nu) -> int:
    """dim of the nu-weight space of the simple module with h.w. y(lam') - rho.

    Evaluated through the inverse multiplicity matrix: an alternating sum of
    Verma weight-space dimensions, which are partition counts into the
    positive coroots.  ``nu`` must have the datum's rank.
    """
    rank = strat.datum.rank
    if len(nu) != rank:
        raise ValueError(f"the weight has {len(nu)} coordinates; the rank is {rank}")
    _require_full_integrality(strat)
    coeffs = _inverse_row(strat, _index_position(strat, y))
    weights = index_highest_weights(strat)
    coroots = strat.datum.positive_coroots
    nu = tuple(Fraction(x) for x in nu)
    total = 0
    for coeff, hw in zip(coeffs, weights):
        if coeff:
            gap = tuple(h - x for h, x in zip(hw, nu))
            total += coeff * sum(graded_partition_polynomial(coroots, gap))
    return total


def _height_counts(coroots, depth):
    """N(0..depth): N(h) counts the multisets of ``coroots`` of total height
    at most h, the prefix sums of prod 1/(1 - t^ht) over the coroots."""
    counts = [1] + [0] * depth
    for coroot in coroots:
        height = sum(coroot)
        for k in range(height, depth + 1):
            counts[k] += counts[k - height]
    for k in range(1, depth + 1):
        counts[k] += counts[k - 1]
    return counts


def simple_module_dimension(strat: Stratification, y: CoxeterElement = None) -> int:
    """Total dimension of the simple module with highest weight y(lam') - rho.

    ``y`` defaults to the minimal mover.  The module can be finite
    dimensional only when y(lam') is dominant, which in the index set means
    y = e; any other y raises ``ValueError``, as do a block not pairing
    integrally with every root and a depth < 0 or > the enumeration limit.

    With A the inverse-matrix row of e, the module's character is
    sum_w A_w ch M(w(lam') - rho).  Summed over the weights above the lowest
    one, w0(lam' - rho), the Verma with highest weight w(lam') - rho
    contributes N(depth - ht(lam' - w(lam'))), where
    depth = ht(lam' - w0(lam')) - 2 ht(rho) is the height of the whole weight
    cone and N(h) counts the multisets of positive coroots of total height at
    most h (N(h) = 0 for h < 0).  So, in integers,

        dim = sum_w A_w N(depth - ht(lam' - w(lam'))).

    This is Weyl's dimension formula for regular lam'.  For singular lam'
    the module L(lam' - rho) is infinite dimensional, and the value is the
    same alternating sum truncated at that depth, not a dimension.

    >>> from weylkl.rootdata import build_root_datum, RationalCoweight
    >>> from weylkl.endoscopy import stratify
    >>> simple_module_dimension(stratify(build_root_datum("A", 2),
    ...                                  RationalCoweight((2, 2), 1)))
    8
    """
    _require_full_integrality(strat)
    if y is None:
        y = strat.minimal_mover
    row = _index_position(strat, y)
    if not y.is_identity:  # the one index element with y(lam') dominant
        raise ValueError("the requested simple module is not finite dimensional")
    drops = [sum(degree) for degree in _index_degrees(strat).values()]
    coroots = strat.datum.positive_coroots
    depth = drops[-1] - sum(map(sum, coroots))
    if depth < 0:
        raise ValueError("the requested simple module is not finite dimensional")
    if depth > coxeter._ENUM_LIMIT:  # _height_counts keeps depth + 1 integers
        raise ValueError(f"the weight cone has depth {depth}, more than the "
                         f"enumeration limit {coxeter._ENUM_LIMIT}")
    coeffs = _inverse_row(strat, row)
    counts = _height_counts(coroots, depth)
    return sum(coeff * counts[depth - drop]
               for coeff, drop in zip(coeffs, drops) if coeff and drop <= depth)

"""Brute-force ground truth for Verma composition multiplicities, rank <= 2.

The block of category O attached to a rational coweight lives over the
Langlands-dual Lie algebra: highest weights are coweight vectors of the base
datum, lowering generators shift by the simple coroots, and the Cartan acts
through pairings against the simple roots.  Weight spaces are realized
concretely as spans of words in the lowering generators:

* raising operators act by the commutation relations alone (no structure
  constants), computed recursively and memoized;
* the kernel of the word representation is spanned by two-sided multiples
  of the Serre elements, so exact quotient bases are available and each
  weight-space dimension is checked against the Kostant partition count;
* the contravariant form is computed by transposing raises against lowers;
  its rank on a spanning set equals the simple quotient's weight-space
  dimension, since the radical is the maximal submodule.

Composition multiplicities are then assembled by peeling simple characters
from a Verma character, top weight first, and every resulting identity is
re-verified weight by weight.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from . import coxeter
from .rootdata import RootDatum, RationalCoweight
from .endoscopy import _index_degrees, stratify
from .multiplicity import graded_partition_polynomial, index_highest_weights
from .linalg import rank, rref

__all__ = [
    "VermaModel",
    "singular_vectors",
    "oracle_multiplicity_matrix",
    "required_depth",
]


def _dual_roots(datum: RootDatum):
    """Positive roots of the dual algebra: the positive coroots, as vectors."""
    return tuple(tuple(v) for v in datum.positive_coroots)


def _partition_count(datum: RootDatum, target) -> int:
    return sum(graded_partition_polynomial(_dual_roots(datum), target))


class VermaModel:
    """A Verma module over the dual algebra, spanned by lowering words.

    ``hw`` is the highest weight in coweight coordinates; weight spaces are
    indexed by the nonnegative integer vector ``beta`` with weight
    ``hw - beta``.  All spaces with coordinate sum of ``beta`` at most
    ``depth`` are available.
    """

    def __init__(self, datum: RootDatum, hw, depth: int):
        if datum.rank > 2:
            raise ValueError("oracle models are limited to rank <= 2")
        self.datum = datum
        self.hw = tuple(Fraction(x) for x in hw)
        self.depth = int(depth)
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        # scalar of the i-th dual coroot (= base simple root) on a weight
        a = datum.cartan_matrix
        self._h_cols = tuple(
            tuple(a[j][i] for j in range(datum.rank))
            for i in range(datum.rank))
        self._words_memo = {}
        self._contents_memo = {}
        self._raise_memo = {}
        self._form_memo = {}
        self._quotient_memo = {}
        self._gram_rank_memo = {}

    # -- word combinatorics ------------------------------------------------

    def _words(self, beta):
        """All lowering words (tuples of 0-based generator indices) of
        content ``beta``, lexicographically ordered."""
        out = self._words_memo.get(beta)
        if out is None:
            out = ((),) if not any(beta) else tuple(
                (i,) + w for i, b in enumerate(beta) if b > 0
                for w in self._words(tuple(c - (k == i) for k, c in enumerate(beta))))
            self._words_memo[beta] = out
        return out

    def _scalar(self, i, mu):
        return sum(m * c for m, c in zip(mu, self._h_cols[i]))

    def _content(self, word):
        out = [0] * self.datum.rank
        for i in word:
            out[i] += 1
        return tuple(out)

    # -- raising action and contravariant form ------------------------------

    def _raise(self, i, word):
        """e_i applied to the word, as {word: coefficient}."""
        key = (i, word)
        got = self._raise_memo.get(key)
        if got is not None:
            return got
        if not word:
            out = {}
        else:
            j, rest = word[0], word[1:]
            out = {}
            for w, c in self._raise(i, rest).items():
                out[(j,) + w] = out.get((j,) + w, 0) + c
            if i == j:
                mu = tuple(
                    h - r for h, r in zip(self.hw, self._content(rest)))
                scalar = self._scalar(i, mu)
                if scalar:
                    out[rest] = out.get(rest, 0) + scalar
            out = {w: c for w, c in out.items() if c}
        self._raise_memo[key] = out
        return out

    def _form(self, a, b):
        """Contravariant form of two lowering words of equal content."""
        if not a:
            return Fraction(1)
        key = (a, b)
        got = self._form_memo.get(key)
        if got is not None:
            return got
        total = Fraction(0)
        for w, c in self._raise(a[0], b).items():
            total += c * self._form(a[1:], w)
        self._form_memo[key] = total
        return total

    # -- exact weight-space bases -------------------------------------------

    def _serre_elements(self):
        """Degree-lowering Serre elements as (content, {word: coeff})."""
        n = self.datum.rank
        a = self.datum.cartan_matrix
        out = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                power = 1 - a[j][i]  # 1 - (dual Cartan)[i][j]
                combo = {}
                for k in range(power + 1):
                    word = (i,) * (power - k) + (j,) + (i,) * k
                    combo[word] = (-1) ** k * comb(power, k)
                content = tuple(
                    power * (t == i) + (t == j) for t in range(n))
                out.append((content, combo))
        return out

    def quotient_basis(self, beta):
        """Weight-space data at ``hw - beta``.

        Returns ``(words, basis_indices, reduction)`` where the words at the
        listed indices form a basis of the weight space and ``reduction``
        maps any {word: coeff} combination to its basis coordinates.
        """
        beta = tuple(int(b) for b in beta)
        got = self._quotient_memo.get(beta)
        if got is not None:
            return got
        if sum(beta) > self.depth:
            raise ValueError(
                f"depth {sum(beta)} exceeds the construction bound {self.depth}")
        words = self._words(beta)
        index = {w: k for k, w in enumerate(words)}
        relations = []
        for content, combo in self._serre_elements():
            remaining = tuple(b - c for b, c in zip(beta, content))
            if any(x < 0 for x in remaining):
                continue
            for left in self._all_contents(remaining):
                right = tuple(r - l for r, l in zip(remaining, left))
                for u in self._words(left):
                    for w in self._words(right):
                        row = [0] * len(words)
                        for mid, coeff in combo.items():
                            row[index[u + mid + w]] += coeff
                        relations.append(row)
        rows, pivots = rref(relations)
        basis = tuple(k for k in range(len(words)) if k not in pivots)
        expected = _partition_count(self.datum, beta)
        if len(basis) != expected:
            raise AssertionError(
                "weight-space dimension must equal the partition count")
        pivot_rows = {p: rows[r] for r, p in enumerate(pivots)}

        def reduction(combination):
            coords = [Fraction(0)] * len(basis)
            basis_pos = {k: t for t, k in enumerate(basis)}
            for word, coeff in combination.items():
                k = index[word]
                if k in basis_pos:
                    coords[basis_pos[k]] += coeff
                else:
                    row = pivot_rows[k]
                    for t, kb in enumerate(basis):
                        if row[kb]:
                            coords[t] -= coeff * row[kb]
            return coords

        out = (words, basis, reduction)
        self._quotient_memo[beta] = out
        return out

    def _all_contents(self, bound):
        """All nonnegative integer vectors coordinatewise at most ``bound``."""
        out = self._contents_memo.get(bound)
        if out is None:
            out = tuple(product(*(range(b + 1) for b in bound)))
            self._contents_memo[bound] = out
        return out

    def weight_dimension(self, beta) -> int:
        """Dimension of the Verma weight space at ``hw - beta``."""
        _, basis, _ = self.quotient_basis(beta)
        return len(basis)

    def simple_dimension(self, beta) -> int:
        """Dimension of the simple quotient's weight space at ``hw - beta``.

        The rank of the contravariant form on any spanning set: its radical
        is the maximal submodule.
        """
        beta = tuple(int(b) for b in beta)
        if any(b < 0 for b in beta):
            return 0
        got = self._gram_rank_memo.get(beta)
        if got is not None:
            return got
        if sum(beta) > self.depth:
            raise ValueError(
                f"depth {sum(beta)} exceeds the construction bound {self.depth}")
        words = self._words(beta)
        gram = [[self._form(a, b) for b in words] for a in words]
        out = rank(gram)
        self._gram_rank_memo[beta] = out
        return out

    def singular_dimension(self, beta) -> int:
        """Dimension of the joint kernel of the raising operators at
        ``hw - beta``, computed on the exact weight-space basis."""
        beta = tuple(int(b) for b in beta)
        words, basis, reduce_ = self.quotient_basis(beta)
        if not basis:
            return 0
        stacked = []
        for i in range(self.datum.rank):
            if beta[i] == 0:
                continue
            target = tuple(b - (k == i) for k, b in enumerate(beta))
            _, tbasis, treduce = self.quotient_basis(target)
            cols = [treduce(self._raise(i, words[k])) for k in basis]
            for r in range(len(tbasis)):
                stacked.append([col[r] for col in cols])
        if not stacked:
            return len(basis)
        return len(basis) - rank(stacked)


def singular_vectors(vm: VermaModel, depth: int):
    """Joint-kernel dimensions of the raising operators, weight by weight.

    Returns ``(weight, dimension)`` for every weight ``hw - beta`` with
    nonzero Verma weight space and coordinate sum of ``beta`` at most
    ``depth``.  A nonzero dimension below the top certifies a generating
    vector of an embedded Verma submodule.  Library API that nothing in the
    package calls: the oracle reads Gram ranks.
    """
    depth = int(depth)
    if depth > vm.depth:
        raise ValueError(
            f"depth {depth} exceeds the construction bound {vm.depth}")
    out = []
    grid = sorted(
        (beta for beta in _height_grid(vm.datum.rank, depth)),
        key=lambda b: (sum(b), b))
    for beta in grid:
        if _partition_count(vm.datum, beta) == 0:
            continue
        mu = tuple(h - b for h, b in zip(vm.hw, beta))
        out.append((mu, vm.singular_dimension(beta)))
    return out


def _height_grid(rank_, depth):
    if rank_ == 1:
        return [(h,) for h in range(depth + 1)]
    out = []
    for h in range(depth + 1):
        for first in range(h + 1):
            out.append((first, h - first))
    return out


def required_depth(strat) -> int:
    """Coroot-height diameter of the linkage orbit, plus a safety margin."""
    return max(map(sum, _index_degrees(strat).values())) + 2


def oracle_multiplicity_matrix(datum: RootDatum, lam: RationalCoweight,
                               depth: int | None = None):
    """Composition multiplicities of the block of ``lam``, from scratch.

    Returns the matrix aligned with the stratification index set (rows:
    Verma, columns: simple), computed purely from singular-vector linear
    algebra and character peeling -- no Hecke-algebra input.  Every peeled
    character identity is verified on all weights within the depth bound.

    The Gram matrices cost most: the model of index element k may form one
    at every beta with |beta| <= depth - |drop_k|, with C(|beta|; beta)^2
    entries, which sum to C(2h, h) over the beta of height h in rank 2
    (Vandermonde) and to 1 in rank 1.  Past the enumeration limit that
    count is refused before any model is built.
    """
    if datum.rank > 2:
        raise ValueError("the oracle is limited to rank <= 2")
    strat = stratify(datum, lam)
    need = required_depth(strat)
    if depth is None:
        depth = need
    elif depth < need:
        raise ValueError(
            f"depth {depth} is insufficient for the linkage orbit; "
            f"need at least {need}")
    hws = index_highest_weights(strat)
    size = len(hws)
    drops = list(_index_degrees(strat).values())
    entries = 0
    for drop in drops:
        for h in range(depth - sum(drop) + 1):
            entries += comb(2 * h, h) if datum.rank == 2 else 1
            if entries > coxeter._ENUM_LIMIT:
                raise ValueError(f"the oracle at depth {depth} forms more than "
                                 f"{coxeter._ENUM_LIMIT} Gram entries, the enumeration limit")
    order = sorted(range(size), key=lambda k: (sum(drops[k]), drops[k]))

    models = [
        VermaModel(datum, hws[k], depth - sum(drops[k])) for k in range(size)]

    def simple_dim(k, beta):
        if any(b < 0 for b in beta):
            return 0
        return models[k].simple_dimension(beta)

    matrix = [[0] * size for _ in range(size)]
    for w in range(size):
        for y in order:
            target = tuple(dy - dw for dy, dw in zip(drops[y], drops[w]))
            if any(t < 0 for t in target):
                continue
            val = _partition_count(datum, target)
            for z in order:
                if z == y or matrix[w][z] == 0:
                    continue
                rel = tuple(
                    dy - dz for dy, dz in zip(drops[y], drops[z]))
                val -= matrix[w][z] * simple_dim(z, rel)
            if val < 0:
                raise AssertionError("character peeling must stay nonnegative")
            matrix[w][y] = val
        # verify the peeled identity on every weight within the bound
        for gamma in _height_grid(datum.rank, depth):
            want = _partition_count(
                datum, tuple(g - d for g, d in zip(gamma, drops[w])))
            have = sum(
                matrix[w][y] * simple_dim(
                    y, tuple(g - d for g, d in zip(gamma, drops[y])))
                for y in range(size))
            if want != have:
                raise AssertionError("character identity failed inside the bound")
    return matrix

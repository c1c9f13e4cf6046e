"""Coxeter systems realized on integer weight lattices.

A :class:`CoxeterSystem` is backed by a generalized Cartan matrix acting on
its own weight lattice (``gcm[i][j] = <alpha_j, alpha_i^vee>``), which covers
every system this package needs: finite Weyl groups, reflection subgroups
presented by their own Cartan data, and affinizations.  Elements are stored
as canonical reduced words: the lexicographically least reduced expression.

Every canonical word and descent is read off one action: an element w is
given by the point w(rho) in fundamental-weight coordinates, which the
tables walk too.  rho lies inside the fundamental chamber, so its orbit is
free and the point determines w; s_i is a left descent of w exactly when
w(rho)_i < 0.  One routine, ``CoxeterSystem._descend``, strips the smallest
left descent until none is left, spelling the canonical word.  Descents,
parabolic projections, double coset minima and the Bruhat order all go
through it.

Parabolic quotients W^J (J = () gives W) of finite systems, and
length-bounded balls of affine ones, are walked lazily into tables along
the orbit of rho_J, one table per J, with left products, canonical words
and masks of left descents and stuck letters.

>>> system = weyl_system(build_root_datum("A", 2))
>>> w0 = longest_element(system)
>>> w0.word_labels
(1, 2, 1)
>>> bruhat_leq(system.element((2,)), w0)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import sub

from .linalg import eliminate, kernel_basis
from .rootdata import RootDatum, _simple_reflect_root, build_root_datum, pairing

__all__ = [
    "CoxeterSystem",
    "CoxeterElement",
    "weyl_system",
    "affinization",
    "multiply",
    "bruhat_leq",
    "left_descents",
    "right_descents",
    "parabolic_quotient",
    "parabolic_project",
    "double_coset_minimum",
    "longest_element",
]

_ENUM_LIMIT = 500_000


class CoxeterSystem:
    """A Coxeter system given by a generalized Cartan matrix."""

    def __init__(self, gcm, labels=None, tag=None, affine_of=None):
        gcm = tuple(tuple(int(x) for x in row) for row in gcm)
        n = len(gcm)
        if any(len(row) != n for row in gcm):
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if gcm[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if i != j and gcm[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (gcm[i][j] == 0) != (gcm[j][i] == 0):
                    raise ValueError("zero pattern of the Cartan matrix must be symmetric")
        self.gcm = gcm
        self.rank = n
        self.labels = tuple(labels) if labels is not None else tuple(range(1, n + 1))
        if len(set(self.labels)) != n:
            raise ValueError("generator labels must be distinct")
        self.tag = tag
        self.affine_of = affine_of  # RootDatum when this is an affinization
        self._label_pos = {lab: i for i, lab in enumerate(self.labels)}
        self._hash = hash((self.gcm, self.labels))
        self._alphas = tuple(zip(*gcm))  # alpha_i in fundamental-weight coordinates
        self._tabs = {}  # enumeration tables, one per parabolic J
        self._kind = None

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, CoxeterSystem)
                and self.gcm == other.gcm and self.labels == other.labels)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.tag:
            return f"CoxeterSystem({self.tag})"
        return f"CoxeterSystem(rank={self.rank})"

    # -- classification ------------------------------------------------

    def _components(self):
        n = self.rank
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if not seen[j] and self.gcm[i][j] != 0:
                        seen[j] = True
                        stack.append(j)
            comps.append(sorted(comp))
        return comps

    @property
    def kind(self):
        """'finite', 'affine' (a product of finite/affine parts), or 'indefinite'."""
        if self._kind is not None:
            return self._kind
        kinds = set()
        for comp in self._components():
            sub = [[self.gcm[i][j] for j in comp] for i in comp]
            d = _symmetrizer(sub)
            # positive definite, or positive semidefinite of corank one with
            # every proper leading block definite (an affine component)
            minors = _leading_minors([[d[i] * a for a in row] for i, row in enumerate(sub)])
            if all(m > 0 for m in minors):
                kinds.add("finite")
            elif all(m > 0 for m in minors[:-1]) and minors[-1] == 0:
                kinds.add("affine")
            else:
                kinds.add("indefinite")
        self._kind = ("finite" if kinds <= {"finite"}
                      else "indefinite" if "indefinite" in kinds else "affine")
        return self._kind

    @property
    def is_finite(self):
        return self.kind == "finite"

    # -- the point action ---------------------------------------------------
    #
    # An element w is read off its point w(rho) in fundamental-weight
    # coordinates, rho = (1, ..., 1).  v_i = <w(rho), alpha_i^vee> is the
    # height of the coroot w^{-1}(alpha_i^vee), so s_i is a left descent of w
    # exactly when v_i < 0 (Kac, Infinite-dimensional Lie algebras, 3.12).

    def _reflect(self, point, i):
        """s_i on a point in fundamental-weight coordinates:
        (s_i v)_j = v_j - v_i * gcm[j][i]."""
        return tuple(map(sub, point, map(point[i].__mul__, self._alphas[i])))

    def _point(self, word):
        """The point w(rho) of the element spelled by ``word``."""
        point = (1,) * self.rank
        for i in reversed(word):
            point = self._reflect(point, i)
        return point

    def _descend(self, point, bound, gens=None):
        """Strip the smallest left descent of w among ``gens`` while there is one.

        ``point`` is w(rho) and ``bound`` a length that the caller knows w
        not to exceed.  Returns the stripped letters and the point of what
        is left.  With ``gens`` left to all generators the letters are w's
        canonical word and what is left is the identity.
        """
        gens = range(self.rank) if gens is None else gens
        word = []
        while True:
            for i in gens:
                if point[i] < 0:
                    break
            else:
                return tuple(word), point
            if len(word) >= bound:
                raise AssertionError(
                    f"more than {bound} left descents; the length bound is wrong")
            word.append(i)
            point = self._reflect(point, i)

    def _canonical(self, word):
        """Lexicographically least reduced word equal to ``word``."""
        return self._descend(self._point(word), len(word))[0]

    # -- elements --------------------------------------------------------

    @property
    def identity(self):
        return CoxeterElement(self, ())

    def generator(self, label):
        return CoxeterElement(self, (self._position(label),))

    def _position(self, label):
        try:
            return self._label_pos[label]
        except KeyError:
            raise ValueError(f"unknown generator label {label!r}") from None

    def element(self, word_labels):
        """Element from a word in generator labels (canonicalized)."""
        word = tuple(self._position(lab) for lab in word_labels)
        return CoxeterElement(self, self._canonical(word))

    def _element(self, positions):
        """Element from an already-canonical positions word (internal)."""
        return CoxeterElement(self, tuple(positions))

    # -- enumeration -----------------------------------------------------

    def _ensure_tables(self, up_to=None, J=()):
        """The table of W^J (J = () gives W), or of its ball up to ``up_to``.

        W^J is walked as the orbit of rho_J (0 on the positions ``J``, 1
        elsewhere) under ``_reflect``.  At the point v of x, v_i > 0 makes
        s_i * x a longer element of W^J, v_i < 0 marks a left descent, and
        v_i = 0 is a stuck letter (s_i * x = x * s_j, s_j in W_J), recorded
        as lmult[x][i] = x.  desc[x] has bit i set when v_i <= 0: the left
        descents and stuck letters of x.  Breadth first, letters outside:
        the first to reach x, fld[x], is its least left descent, so ids run
        in (length, word) order.  The last level is kept: a larger
        ``up_to`` extends a ball.
        """
        if up_to is None and not self.is_finite:
            raise ValueError("system is infinite; a length bound is required")
        tab = self._tabs.get(J)
        if tab is None:
            n = self.rank
            rho = tuple(int(i not in J) for i in range(n))
            tab = self._tabs[J] = {
                "length": [0], "lmult": [[None] * n], "words": [()], "fld": [None],
                "desc": [sum(1 << i for i in J)],
                "frontier": [(0, rho)], "complete": False, "max_len": 0, "size": 1}
        if not (tab["complete"] or (up_to is not None and tab["max_len"] >= up_to)):
            self._walk(tab, up_to)
        return tab

    def _walk(self, tab, up_to):
        try:
            self._walk_levels(tab, up_to)
        except BaseException:
            # the limit (or an interrupt) struck mid-level: put the table back
            # as it was, the rows past the old size gone and the frontier's
            # upward and stuck letters unset again
            size = tab["size"]
            for key in ("length", "lmult", "words", "fld", "desc"):
                del tab[key][size:]
            for g, point in tab["frontier"]:
                row = tab["lmult"][g]
                for i, vi in enumerate(point):
                    if vi >= 0:
                        row[i] = None
            raise

    def _walk_levels(self, tab, up_to):
        length, lmult, words, fld = tab["length"], tab["lmult"], tab["words"], tab["fld"]
        desc = tab["desc"]
        n, reflect = self.rank, self._reflect
        frontier, cur_len = tab["frontier"], tab["max_len"]
        while frontier and (up_to is None or cur_len < up_to):
            nxt = {}
            for i in range(n):
                for g, point in frontier:
                    vi = point[i]
                    if vi < 0:
                        continue  # a left descent: s_i * g is already known
                    if vi == 0:
                        lmult[g][i] = g  # stuck
                        continue
                    image = reflect(point, i)
                    known = nxt.get(image)
                    if known is None:
                        known = len(length)
                        if known > _ENUM_LIMIT:
                            raise ValueError(
                                f"enumeration limit exceeded: more than "
                                f"{_ENUM_LIMIT} elements")
                        nxt[image] = known
                        length.append(cur_len + 1)
                        lmult.append([None] * n)
                        fld.append(i)
                        words.append((i,) + words[g])
                        desc.append(sum(1 << j for j, vj in enumerate(image) if vj <= 0))
                    lmult[g][i] = known
                    lmult[known][i] = g
            frontier = [(g, point) for point, g in nxt.items()]
            cur_len += 1
        tab.update(frontier=frontier, complete=not frontier, size=len(length),
                   max_len=length[-1])

    def size(self):
        return self._ensure_tables()["size"]

    def _id_of(self, element, J=()):
        """Id of an element of W^J in its table, read right to left."""
        lmult = self._tabs[J]["lmult"]
        ident = 0
        for s in reversed(element.word):
            ident = lmult[ident][s]
            if ident is None:
                raise ValueError("element lies outside the enumerated ball")
        return ident


def _symmetrizer(gcm):
    """The primitive positive integers d_i that make d_i * gcm[i][j]
    symmetric, for an indecomposable Cartan matrix: the kernel of the
    equations d_i * gcm[i][j] = d_j * gcm[j][i]."""
    n = len(gcm)
    equations = [[0] * n]  # keeps the column count when there is one node
    for i, j in combinations(range(n), 2):
        if gcm[i][j]:
            row = [0] * n
            row[i], row[j] = gcm[i][j], -gcm[j][i]
            equations.append(row)
    basis = kernel_basis(equations)
    if len(basis) != 1:
        raise ValueError("Cartan matrix is not symmetrizable")
    return basis[0]


def _leading_minors(gram):
    """D_1, ..., D_n: the determinants of the leading principal blocks."""
    minors = []
    for k in range(1, len(gram) + 1):
        _, pivots, d = eliminate([row[:k] for row in gram[:k]])
        minors.append(d if len(pivots) == k else 0)
    return minors


@dataclass(frozen=True)
class CoxeterElement:
    """Group element stored as its canonical (lex-least) reduced word."""

    system: CoxeterSystem
    word: tuple

    @property
    def length(self):
        return len(self.word)

    @property
    def word_labels(self):
        return tuple(self.system.labels[p] for p in self.word)

    @property
    def is_identity(self):
        return not self.word

    def __mul__(self, other):
        return multiply(self, other)

    def inverse(self):
        return CoxeterElement(self.system, self.system._canonical(tuple(reversed(self.word))))

    def apply_to_root(self, vec):
        """w(vec) for a root-coordinate vector."""
        vec = tuple(vec)
        for i in reversed(self.word):
            vec = _simple_reflect_root(self.system.gcm, i, vec)
        return vec

    def __repr__(self):
        if not self.word:
            return "e"
        return "s" + "*s".join(str(lab) for lab in self.word_labels)


def _require_same_system(*elements):
    system = elements[0].system
    for e in elements[1:]:
        if e.system != system:
            raise ValueError("elements belong to different Coxeter systems")
    return system


def multiply(a: CoxeterElement, b: CoxeterElement) -> CoxeterElement:
    system = _require_same_system(a, b)
    return CoxeterElement(system, system._canonical(a.word + b.word))


def _negative_labels(system, point):
    return {system.labels[i] for i, vi in enumerate(point) if vi < 0}


def left_descents(w: CoxeterElement):
    return _negative_labels(w.system, w.system._point(w.word))


def right_descents(w: CoxeterElement):
    return _negative_labels(w.system, w.system._point(w.word[::-1]))


def bruhat_leq(y: CoxeterElement, w: CoxeterElement) -> bool:
    """Bruhat order by the lifting property along w's canonical word.

    Its first letter s is a left descent of w, and y <= w iff
    min(y, s*y) <= s*w; once y is as long as what is left of w they must
    be equal.
    """
    system = _require_same_system(y, w)
    point, ylen, ww = system._point(y.word), y.length, w.word
    k = 0
    while 0 < ylen < len(ww) - k:
        s = ww[k]
        if point[s] < 0:
            point = system._reflect(point, s)
            ylen -= 1
        k += 1
    if ylen > len(ww) - k:
        return False
    if ylen == len(ww) - k:  # suffixes of canonical words are canonical
        return system._descend(point, ylen)[0] == ww[k:]
    return True


def parabolic_quotient(system: CoxeterSystem, J, length_bound=None):
    """Minimal-length coset representatives for W / W_J, sorted by (length, word).

    ``J`` is a collection of generator labels.  For infinite systems a
    ``length_bound`` is required and the representatives of length at most
    the bound are returned.  The k-th is id k of the table of W^J.
    """
    words = system._ensure_tables(up_to=length_bound, J=tuple(_positions(system, J)))["words"]
    return tuple(system._element(word) for word in words
                 if length_bound is None or len(word) <= length_bound)


def _positions(system, labels):
    return sorted(system._position(lab) for lab in labels)


def parabolic_project(w: CoxeterElement, J):
    """Write w = u * v with u the minimal coset representative and v in W_J.

    v^{-1} is what stripping the left descents in J takes off w^{-1}.
    """
    system = w.system
    v_inv = system._descend(system._point(w.word[::-1]), w.length,
                            _positions(system, J))[0]
    u = CoxeterElement(system, system._canonical(w.word + v_inv))
    v = CoxeterElement(system, system._canonical(v_inv[::-1]))
    return u, v


def double_coset_minimum(w: CoxeterElement, I, J) -> CoxeterElement:
    """The minimal-length element of the double coset W_I w W_J.

    Stripping left descents in I from the minimal u in w W_J creates no
    right descent in J, so it ends at the minimum.
    """
    system = w.system
    Ipos = _positions(system, I)
    u = parabolic_project(w, J)[0]
    stripped, point = system._descend(system._point(u.word), u.length, Ipos)
    return CoxeterElement(system, system._descend(point, u.length - len(stripped))[0])


def longest_element(system: CoxeterSystem, J=None) -> CoxeterElement:
    """Longest element of W_J (J defaults to the full generator set)."""
    Jpos = list(range(system.rank)) if J is None else _positions(system, J)
    if Jpos:
        sub = [[system.gcm[i][j] for j in Jpos] for i in Jpos]
        if not CoxeterSystem(sub).is_finite:
            raise ValueError("the requested parabolic subgroup is infinite")
    # append right ascents to w; the point of w^{-1} shows them
    point, length = system._point(()), 0
    while True:
        asc = next((i for i in Jpos if point[i] > 0), None)
        if asc is None:  # w0_J is an involution: this is its own point
            return CoxeterElement(system, system._descend(point, length)[0])
        point = system._reflect(point, asc)
        length += 1


# -- Weyl groups and affinizations ---------------------------------------


@lru_cache(maxsize=None)  # perfbench's isolation check reads its cache_info()
def weyl_system(datum: RootDatum) -> CoxeterSystem:
    """The (finite) Weyl group of a root datum; labels 1..rank."""
    system = CoxeterSystem(datum.cartan_matrix,
                           labels=range(1, datum.rank + 1),
                           tag=f"{datum.cartan_type} {datum.rank}")
    system.weyl_of = datum
    return system


@lru_cache(maxsize=None)  # one system per datum, so its balls grow in place
def affinization(datum: RootDatum) -> CoxeterSystem:
    """Untwisted affinization; node 0 is the added affine generator."""
    r = datum.rank
    theta = datum.highest_root
    theta_vee = datum.highest_root_coroot
    gcm = [[0] * (r + 1) for _ in range(r + 1)]
    gcm[0][0] = 2
    finite = datum.cartan_matrix
    for i in range(r):
        for j in range(r):
            gcm[i + 1][j + 1] = finite[i][j]
        gcm[0][i + 1] = -int(pairing(datum, datum.simple_roots[i], theta_vee))
        gcm[i + 1][0] = -sum(finite[i][j] * theta[j] for j in range(r))
    system = CoxeterSystem(gcm, labels=range(0, r + 1),
                           tag=f"{datum.cartan_type}~ {datum.rank}",
                           affine_of=datum)
    return system

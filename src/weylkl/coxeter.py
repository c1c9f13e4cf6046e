"""Coxeter systems realized on integer root lattices.

A :class:`CoxeterSystem` is backed by a generalized Cartan matrix acting on
its own root lattice (``gcm[i][j] = <alpha_j, alpha_i^vee>``), which covers
every system this package needs: finite Weyl groups, reflection subgroups
presented by their own Cartan data, and affinizations.  Elements are stored
as canonical reduced words: the lexicographically least reduced expression,
obtained by greedily taking the smallest left descent.

Finite systems (and length-bounded balls of affine ones) are enumerated
lazily into multiplication tables keyed by the matrix of the root-lattice
action, so products, descents and Bruhat tests are cheap afterwards.

>>> system = weyl_system(build_root_datum("A", 2))
>>> w0 = longest_element(system)
>>> w0.word_labels
(1, 2, 1)
>>> bruhat_leq(system.element((2,)), w0)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import leading_pivots
from .rootdata import (
    RootDatum,
    build_root_datum,
    pairing,
    reflect,
    reflect_coweight_by_root,
    translation_length,
)

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
    "coweight_action",
    "translation_element",
    "affine_decompose",
    "affine_elements_up_to",
    "affine_length_from_parts",
]

_COXETER_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}
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
        self._tab = None  # enumeration tables
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

    @property
    def coxeter_matrix(self):
        """m[i][j] with 0 standing for an infinite bond order."""
        n = self.rank
        out = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    out[i][j] = _COXETER_FROM_PRODUCT.get(self.gcm[i][j] * self.gcm[j][i], 0)
        return tuple(tuple(row) for row in out)

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
        if self.rank == 0:
            self._kind = "finite"
            return self._kind
        kinds = set()
        for comp in self._components():
            sub = [[self.gcm[i][j] for j in comp] for i in comp]
            d = _symmetrizer(sub)
            gram = [[d[i] * sub[i][j] for j in range(len(comp))] for i in range(len(comp))]
            # pivot k = minor_k / minor_{k-1}; the list stops short when a
            # minor before the last one is 0, which makes it indefinite
            pivots = leading_pivots(gram)
            head_positive = (len(pivots) == len(comp)
                             and all(p > 0 for p in pivots[:-1]))
            if head_positive and pivots[-1] > 0:
                kinds.add("finite")
            elif head_positive and pivots[-1] == 0:
                kinds.add("affine")
            else:
                kinds.add("indefinite")
        if kinds == {"finite"}:
            self._kind = "finite"
        elif "indefinite" in kinds:
            self._kind = "indefinite"
        else:
            self._kind = "affine"
        return self._kind

    @property
    def is_finite(self):
        return self.kind == "finite"

    # -- word engine (no enumeration required) --------------------------

    def _apply_gen(self, i, vec):
        """Simple reflection s_i on a root-coordinate vector."""
        row = self.gcm[i]
        pair = 0
        for j, v in enumerate(vec):
            if v:
                pair += row[j] * v
        out = list(vec)
        out[i] = vec[i] - pair
        return tuple(out)

    def _act(self, word, vec):
        """Apply the group element of ``word`` (letters composed left-to-right)."""
        for i in reversed(word):
            vec = self._apply_gen(i, vec)
        return vec

    def _simple_root(self, i):
        return tuple(int(j == i) for j in range(self.rank))

    @staticmethod
    def _is_negative(vec):
        return all(c <= 0 for c in vec)

    def _right_descent(self, word, i):
        return self._is_negative(self._act(word, self._simple_root(i)))

    def _left_descent(self, word, i):
        vec = self._simple_root(i)
        for t in word:  # apply the inverse: letters left-to-right
            vec = self._apply_gen(t, vec)
        return self._is_negative(vec)

    def _min_left_descent(self, word):
        for i in range(self.rank):
            if self._left_descent(word, i):
                return i
        return None

    def _strip_right(self, word, i):
        """Reduced word of w * s_i when that shortens w (strong exchange)."""
        vec = self._simple_root(i)
        for idx in range(len(word) - 1, -1, -1):
            if vec == self._simple_root(word[idx]):
                return word[:idx] + word[idx + 1:]
            vec = self._apply_gen(word[idx], vec)
        raise AssertionError("strong exchange failed; word was not reduced")

    def _strip_left(self, word, i):
        """Reduced word of s_i * w when that shortens w."""
        for k in range(len(word)):
            vec = self._simple_root(word[k])
            for t in reversed(word[:k]):
                vec = self._apply_gen(t, vec)
            if vec == self._simple_root(i):
                return word[:k] + word[k + 1:]
        raise AssertionError("strong exchange failed; word was not reduced")

    def _reduce(self, word):
        res = ()
        for s in word:
            if res and self._right_descent(res, s):
                res = self._strip_right(res, s)
            else:
                res = res + (s,)
        return res

    def _canonical(self, word):
        """Lexicographically least reduced word equal to ``word``."""
        if self._tab is not None and self._tab["complete"]:
            ident = 0
            rmult = self._tab["rmult"]
            for s in word:
                ident = rmult[ident][s]
            return self._tab["words"][ident]
        cur = self._reduce(tuple(word))
        out = []
        while cur:
            i = self._min_left_descent(cur)
            out.append(i)
            cur = self._strip_left(cur, i)
        return tuple(out)

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

    def _ensure_tables(self, up_to=None):
        """Enumerate the group (finite) or the length ball (affine)."""
        if up_to is None and not self.is_finite:
            raise ValueError("system is infinite; a length bound is required")
        if self._tab is not None:
            if self._tab["complete"] or (up_to is not None and self._tab["max_len"] >= up_to):
                return self._tab
        n = self.rank
        ident = tuple(self._simple_root(i) for i in range(n))
        cols = [ident]
        key2id = {ident: 0}
        length = [0]
        lmult = [[None] * n]
        frontier = [0]
        cur_len = 0
        complete = True
        while frontier:
            if up_to is not None and cur_len >= up_to:
                complete = False
                break
            nxt = []
            for g in frontier:
                gc = cols[g]
                for i in range(n):
                    key = tuple(self._apply_gen(i, col) for col in gc)
                    known = key2id.get(key)
                    if known is None:
                        known = len(cols)
                        if known > _ENUM_LIMIT:
                            raise ValueError(
                                f"enumeration limit exceeded: more than "
                                f"{_ENUM_LIMIT} elements")
                        cols.append(key)
                        key2id[key] = known
                        length.append(cur_len + 1)
                        lmult.append([None] * n)
                        nxt.append(known)
                    lmult[g][i] = known
                    lmult[known][i] = g
            frontier = nxt
            cur_len += 1
        size = len(cols)
        words = [None] * size
        words[0] = ()
        fld = [None] * size
        order = sorted(range(size), key=lambda g: length[g])
        for g in order[1:]:
            for i in range(n):
                h = lmult[g][i]
                if h is not None and length[h] < length[g]:
                    fld[g] = i
                    words[g] = (i,) + words[h]
                    break
        rmult = [[None] * n for _ in range(size)]
        for g in range(size):
            gc = cols[g]
            for i in range(n):
                key = tuple(
                    tuple(c - self.gcm[i][j] * ci for c, ci in zip(col, gc[i]))
                    if j != i else tuple(-c for c in gc[i])
                    for j, col in enumerate(gc)
                )
                rmult[g][i] = key2id.get(key)
        self._tab = {
            "cols": cols, "key2id": key2id, "length": length,
            "lmult": lmult, "rmult": rmult, "words": words, "fld": fld,
            "complete": complete, "max_len": cur_len if not complete else max(length),
            "size": size, "bruhat": None,
        }
        return self._tab

    def size(self):
        return self._ensure_tables()["size"]

    def _id_of(self, element):
        if self._tab is None:
            self._ensure_tables()
        tab = self._tab
        ident = 0
        for s in element.word:
            ident = tab["rmult"][ident][s]
            if ident is None:
                raise ValueError("element lies outside the enumerated ball")
        return ident

    def _bruhat_columns(self):
        """bruhat[w] = bitmask of {y : y <= w} over the enumerated elements.

        Works on complete tables and on affine length balls: an element on
        the ball boundary has every smaller element of the ball available,
        which is all the lifting recurrence consults.
        """
        if self._tab is None:
            self._ensure_tables()
        tab = self._tab
        if tab["bruhat"] is not None:
            return tab["bruhat"]
        size, length, lmult, fld = tab["size"], tab["length"], tab["lmult"], tab["fld"]
        order = sorted(range(size), key=lambda g: length[g])
        cols = [0] * size
        cols[0] = 1  # only e <= e
        for w in order[1:]:
            s = fld[w]
            sw = lmult[w][s]
            base = cols[sw]
            out = 0
            for y in range(size):
                sy = lmult[y][s]
                lift = sy if sy is not None and length[sy] < length[y] else y
                if (base >> lift) & 1:
                    out |= 1 << y
            cols[w] = out
        tab["bruhat"] = cols
        return cols


def _symmetrizer(gcm):
    n = len(gcm)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and gcm[i][j] != 0:
                    val = d[i] * Fraction(gcm[i][j], gcm[j][i])
                    if d[j] is None:
                        d[j] = val
                        stack.append(j)
                    elif d[j] != val:
                        raise ValueError("Cartan matrix is not symmetrizable")
    return d


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
        return self.system._act(self.word, tuple(vec))

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


def left_descents(w: CoxeterElement):
    system = w.system
    return {system.labels[i] for i in range(system.rank) if system._left_descent(w.word, i)}


def right_descents(w: CoxeterElement):
    system = w.system
    return {system.labels[i] for i in range(system.rank) if system._right_descent(w.word, i)}


def bruhat_leq(y: CoxeterElement, w: CoxeterElement) -> bool:
    """Subword criterion for the Bruhat order, via the lifting property."""
    system = _require_same_system(y, w)
    yw, ww = y.word, w.word
    while True:
        if len(yw) > len(ww):
            return False
        if len(yw) == len(ww):
            return yw == ww
        if not yw:
            return True
        s = ww[0]  # a left descent of w (canonical words start with one)
        ww = ww[1:]
        if system._left_descent(yw, s):
            yw = system._strip_left(yw, s)


def parabolic_quotient(system: CoxeterSystem, J, length_bound=None):
    """Minimal-length coset representatives for W / W_J, sorted by (length, word).

    ``J`` is a collection of generator labels.  For infinite systems a
    ``length_bound`` is required and the representatives of length at most
    the bound are returned.
    """
    Jpos = frozenset(system._position(j) for j in J)
    if system.is_finite:
        tab = system._ensure_tables()
    else:
        if length_bound is None:
            raise ValueError("system is infinite; a length bound is required")
        tab = system._ensure_tables(up_to=length_bound)
    rmult, length, words = tab["rmult"], tab["length"], tab["words"]
    out = []
    for g in range(tab["size"]):
        if length_bound is not None and length[g] > length_bound:
            continue
        ok = True
        for j in Jpos:
            h = rmult[g][j]
            if h is not None and length[h] < length[g]:
                ok = False
                break
        if ok:
            out.append(system._element(words[g]))
    out.sort(key=lambda w: (w.length, w.word))
    return tuple(out)


def parabolic_project(w: CoxeterElement, J):
    """Write w = u * v with u the minimal coset representative and v in W_J."""
    system = w.system
    Jpos = {system._position(j) for j in J}
    word = w.word
    v_rev = []
    while True:
        j = next((j for j in sorted(Jpos) if system._right_descent(word, j)), None)
        if j is None:
            break
        word = system._strip_right(word, j)
        v_rev.append(j)
    u = CoxeterElement(system, system._canonical(word))
    v = CoxeterElement(system, system._canonical(tuple(reversed(v_rev))))
    return u, v


def double_coset_minimum(w: CoxeterElement, I, J) -> CoxeterElement:
    """The minimal-length element of the double coset W_I w W_J."""
    system = w.system
    Ipos = {system._position(i) for i in I}
    Jpos = {system._position(j) for j in J}
    word = w.word
    changed = True
    while changed:
        changed = False
        for i in sorted(Ipos):
            if system._left_descent(word, i):
                word = system._strip_left(word, i)
                changed = True
        for j in sorted(Jpos):
            if system._right_descent(word, j):
                word = system._strip_right(word, j)
                changed = True
    return CoxeterElement(system, system._canonical(word))


def longest_element(system: CoxeterSystem, J=None) -> CoxeterElement:
    """Longest element of W_J (J defaults to the full generator set)."""
    Jpos = sorted(range(system.rank)) if J is None else sorted(system._position(j) for j in J)
    if Jpos:
        sub = [[system.gcm[i][j] for j in Jpos] for i in Jpos]
        if not CoxeterSystem(sub).is_finite:
            raise ValueError("the requested parabolic subgroup is infinite")
    word = ()
    while True:
        asc = next((i for i in Jpos if not system._right_descent(word, i)), None)
        if asc is None:
            return CoxeterElement(system, system._canonical(word))
        word = word + (asc,)


# -- Weyl groups and affinizations ---------------------------------------


@lru_cache(maxsize=None)
def weyl_system(datum: RootDatum) -> CoxeterSystem:
    """The (finite) Weyl group of a root datum; labels 1..rank."""
    system = CoxeterSystem(datum.cartan_matrix,
                           labels=range(1, datum.rank + 1),
                           tag=f"{datum.cartan_type} {datum.rank}")
    system.weyl_of = datum
    return system


@lru_cache(maxsize=None)
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


def coweight_action(w: CoxeterElement, vec):
    """Action of a Weyl-system element on a coweight (coroot coordinates)."""
    datum = getattr(w.system, "weyl_of", None)
    if datum is None:
        raise ValueError("coweight_action requires an element of a Weyl system")
    vec = tuple(Fraction(x) for x in vec)
    for p in reversed(w.word):
        vec = reflect(datum, p, vec, side="coweight")
    return vec


def _affine_gen_apply(datum, label, wbar_inv_cols, mu):
    """Left-multiply (wbar, mu) by the generator ``label`` of the affinization.

    ``wbar_inv_cols`` is the root-side action of wbar^{-1} as the tuple of
    images of the simple roots.  Returns the updated pair.
    """
    r = datum.rank
    if label == 0:
        theta, theta_vee = datum.highest_root, datum.highest_root_coroot
        mu = reflect_coweight_by_root(datum, theta, theta_vee, mu)
        mu = tuple(m + t for m, t in zip(mu, theta_vee))
        refl = lambda v: tuple(
            x - pairing(datum, v, theta_vee) * t for x, t in zip(v, theta)
        )
    else:
        i = label - 1
        mu = reflect(datum, i, mu, side="coweight")
        refl = lambda v: reflect(datum, i, v, side="root")
    # wbar <- s * wbar, hence wbar^{-1} <- wbar^{-1} * s: postcompose columns
    new_cols = []
    for b in range(r):
        basis = refl(tuple(int(j == b) for j in range(r)))
        img = [Fraction(0)] * r
        for coeff, col in zip(basis, wbar_inv_cols):
            if coeff:
                img = [x + coeff * c for x, c in zip(img, col)]
        new_cols.append(tuple(img))
    return tuple(new_cols), mu


def _affine_min_left_descent(datum, wbar_inv_cols, mu):
    """Smallest label i with l(s_i x) < l(x) for x = (wbar, mu); None at e."""
    theta = datum.highest_root
    # label 0: the affine root (-theta, 1) pulled back along x
    level = 1 - pairing(datum, theta, mu)
    if level < 0:
        return 0
    if level == 0:
        img = [Fraction(0)] * datum.rank
        for coeff, col in zip(theta, wbar_inv_cols):
            img = [x - coeff * c for x, c in zip(img, col)]
        if all(c <= 0 for c in img):
            return 0
    for i in range(datum.rank):
        c = pairing(datum, datum.simple_roots[i], mu)
        if c < 0:
            return i + 1
        if c == 0 and all(x <= 0 for x in wbar_inv_cols[i]):
            return i + 1
    return None


def translation_element(affsys: CoxeterSystem, mu) -> CoxeterElement:
    """The translation t_mu as an element of the affinization."""
    datum = affsys.affine_of
    if datum is None:
        raise ValueError("translation elements require an affinization system")
    mu = tuple(int(m) for m in mu)
    if len(mu) != datum.rank:
        raise ValueError("coweight length does not match the rank")
    wbar_inv = tuple(tuple(Fraction(int(i == j)) for j in range(datum.rank))
                     for i in range(datum.rank))
    cur = tuple(Fraction(m) for m in mu)
    expected = int(translation_length(datum, mu))
    word = []
    for _ in range(expected):
        lab = _affine_min_left_descent(datum, wbar_inv, cur)
        if lab is None:
            break
        word.append(lab)
        wbar_inv, cur = _affine_gen_apply(datum, lab, wbar_inv, cur)
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(datum.rank))
                     for i in range(datum.rank))
    assert wbar_inv == identity and all(c == 0 for c in cur), \
        "translation reduction must end at the identity"
    assert len(word) == expected, "word model disagrees with the translation length formula"
    return affsys._element(word)  # greedy min-descent words are canonical


def affine_decompose(w: CoxeterElement):
    """(finite part, translation part) of an affinization element.

    The element acts on coweights as v -> wbar(v) + mu; returns
    (wbar as an element of the finite Weyl system, mu as an integer tuple).
    """
    affsys = w.system
    datum = affsys.affine_of
    if datum is None:
        raise ValueError("affine_decompose requires an element of an affinization")
    fin = weyl_system(datum)
    wbar = fin.identity
    mu = tuple(Fraction(0) for _ in range(datum.rank))
    theta, theta_vee = datum.highest_root, datum.highest_root_coroot
    for p in w.word:  # positions equal labels in affinizations
        if p == 0:
            shift = coweight_action(wbar, theta_vee)
            mu = tuple(m + s for m, s in zip(mu, shift))
            wbar = multiply(wbar, fin.element((_theta_word(datum))))
        else:
            wbar = multiply(wbar, fin.generator(p))
    assert all(m.denominator == 1 for m in mu)
    return wbar, tuple(int(m) for m in mu)


@lru_cache(maxsize=None)
def _theta_word(datum: RootDatum):
    """Reduced word (labels) of the reflection in the highest root."""
    fin = weyl_system(datum)
    tab = fin._ensure_tables()
    theta, theta_vee = datum.highest_root, datum.highest_root_coroot
    target = []
    for b in range(datum.rank):
        basis = tuple(int(j == b) for j in range(datum.rank))
        pair = int(pairing(datum, basis, theta_vee))
        target.append(tuple(v - pair * t for v, t in zip(basis, theta)))
    g = tab["key2id"][tuple(target)]
    return fin._element(tab["words"][g]).word_labels


def affine_elements_up_to(affsys: CoxeterSystem, length_bound: int):
    """All elements of length <= bound, sorted by (length, word)."""
    tab = affsys._ensure_tables(up_to=length_bound)
    out = [affsys._element(tab["words"][g]) for g in range(tab["size"])
           if tab["length"][g] <= length_bound]
    out.sort(key=lambda w: (w.length, w.word))
    return tuple(out)


def affine_length_from_parts(datum: RootDatum, wbar: CoxeterElement, mu) -> int:
    """Length of (wbar, mu) by counting affine inversions (independent model)."""
    total = 0
    mu = tuple(Fraction(m) for m in mu)
    for root in datum.positive_roots:
        for gamma, j0 in ((root, 0), (tuple(-c for c in root), 1)):
            wg = wbar.apply_to_root(gamma)
            m = pairing(datum, wg, mu)
            lo = Fraction(j0)
            if m > lo:
                assert m.denominator == 1
                total += int(m - lo)
            if m >= lo and all(c <= 0 for c in wg):
                total += 1
    return total

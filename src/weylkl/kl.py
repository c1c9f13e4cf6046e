"""Kazhdan-Lusztig polynomials over any system from the Coxeter engine.

Polynomials in q are stored as tuples of integer coefficients, constant
term first; the empty tuple is the zero polynomial.  One engine computes
them: du Cloux's mu-list column fill (Experiment. Math. 11, 2002) on the
table of a parabolic quotient W^J (:meth:`CoxeterSystem._ensure_tables`),
column {y <= w} from the column of v = s*w and v's list of nonzero mu.
No Bruhat structure is stored.  The ideal [e, w] is [e, v] together with
s*[e, v] (the lifting property, Bjorner-Brenti, GTM 231, Prop. 2.2.7),
and only extremal pairs are computed: P_{y,w} = P_{ty,w} for every left
descent t of w with ty > y (Kazhdan-Lusztig, Invent. Math. 53, 1979,
2.3.g), as in du Cloux's Coxeter3.  J = () gives W (or an affine ball,
extended as it grows) for :func:`kl_polynomial`, which fills only the
lower Bruhat ideal of w, and :func:`kl_table`; there the column of w^-1,
once w's is filled, is w's relabelled by y -> y^-1 (P_{y,w} =
P_{y^-1,w^-1}, KL 1979), not computed.  Otherwise a stuck letter s
of x (s*x = x*s_j, s_j in W_J) reads as a descent with P_{sx,v} = P_{x,v},
giving Deodhar's parabolic polynomials for u = -1 (J. Algebra 111, 1987),
P^J_{x,y} = P_{x w_J, y w_J}, which the multiplicity matrices read.
Polynomials of the named systems can be kept in a text cache
(:class:`KLFileCache`).

>>> from weylkl.rootdata import build_root_datum
>>> from weylkl.coxeter import weyl_system, longest_element
>>> system = weyl_system(build_root_datum("A", 2))
>>> kl_polynomial(system, system.identity, longest_element(system))
(1,)
"""

from __future__ import annotations

import os
import re
import tempfile
from bisect import bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from itertools import chain

from .coxeter import CoxeterElement, CoxeterSystem

__all__ = [
    "kl_polynomial",
    "kl_mu",
    "kl_table",
    "format_kl_table",
    "poly_string",
    "KLFileCache",
    "file_cache_from_env",
]

CACHE_ENV_VAR = "WEYLKL_CACHE"
_CACHE_MAGIC = "KLCACHE v1"
_NAMED_TAG = re.compile(r"^[A-G]~? [1-8]$")


# -- polynomial helpers ------------------------------------------------------


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _pshift(a, k):
    return ((0,) * k + tuple(a)) if a else ()


def poly_string(coeffs) -> str:
    """Human-readable form: () -> '0', (1, 0, 2) -> '1 + 2*q^2'."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            q = "q" if i == 1 else f"q^{i}"
            parts.append(q if c == 1 else f"{c}*{q}")
    return " + ".join(parts) if parts else "0"


# -- the column fill ---------------------------------------------------------


_ONE = (1,)


def _fill(system: CoxeterSystem, J, wids):
    """Fill the KL columns of the ids ``wids``, which must be a lower ideal.

    Column w maps each y <= w to P_{y,w}.  With s = fld[w] and v = s*w,
    the ideal {y <= w} is the keys of v's column and their images under s
    (a stuck letter maps y to y), walked down from the highest id, so in
    non-increasing length.  A y with an ascent t that is a left descent
    or a stuck letter of w (a left descent of w*w_J) has
    P_{y,w} = P_{ty,w}, already filled; t is the lowest bit of
    desc[w] & ~desc[y].  Any other y has sy < y, or s stuck at y (which
    reads as sy = y), and

        P_{y,w} = P_{sy,v} + q P_{y,v}
                  - sum of mu(z,v) q^{(l(w)-l(z))/2} P_{y,z}

    over v's mu-list: the z < v with mu(z,v) != 0 and sz < z or s stuck
    at z.  Each distinct polynomial is stored once.  The mu-list of w is
    read in the same pass: a copied pair has degree at most
    (l(w) - l(y) - 2) / 2, one below the mu coefficient, unless ty = w,
    where P = 1 and mu = 1.

    On the table of W (J = (), not closed under inversion otherwise) a
    column w whose inverse u is already filled is read off u's:
    P_{y,w} = P_{y^-1,u}, and w's mu-list is u's relabelled, in the
    relabelled column's key order.  Such a column is not in descending
    order; ``inv`` (g -> id of g^-1) is kept in the table and built for the
    ids filled, whose ideals hold every derived column's keys.
    """
    tab = system._tabs[J]
    length, lmult, fld, desc = tab["length"], tab["lmult"], tab["fld"], tab["desc"]
    kl = tab.setdefault("kl", {})
    mulists = tab.setdefault("mu", {})
    polys = tab.setdefault("polys", {_ONE: _ONE})
    low = tab.get("low")
    if low is None:  # low[a]: the lowest bit of the mask a
        low = tab["low"] = [(a & -a).bit_length() - 1 for a in range(1 << system.rank)]
    inv = None
    if not J:  # inv[g]: the id of g^-1, g's word read left to right
        inv, words = tab.setdefault("inv", []), tab["words"]
        inv += [None] * (len(words) - len(inv))
        for g in wids:
            if inv[g] is None:
                h = 0
                for s in words[g]:
                    h = lmult[h][s]
                inv[g] = h
    for w in sorted(wids):
        if w in kl:
            continue
        if inv is not None and inv[w] in kl:  # P_{y,w} = P_{y^-1,w^-1}
            u = inv[w]
            kl[w] = {inv[y]: poly for y, poly in kl[u].items()}
            mulists[w] = [(inv[z], mu) for z, mu in mulists[u]]
            continue
        col = {w: _ONE}
        if w == 0:
            kl[w], mulists[w] = col, []
            continue
        s, lw, dw = fld[w], length[w], desc[w]
        v = lmult[w][s]
        Pv = kl[v]
        terms = [(kl[z], mu, (lw - length[z]) // 2)  # sz < z, or s stuck at z
                 for z, mu in mulists[v] if desc[z] >> s & 1]
        ideal = set(Pv).union([lmult[y][s] for y in Pv])
        mus = []
        for y in sorted(ideal, reverse=True)[1:]:  # w itself comes first
            ascents = dw & ~desc[y]
            if ascents:
                ty = lmult[y][low[ascents]]
                col[y] = col[ty]
                if ty == w:
                    mus.append((y, 1))
                continue
            gap = lw - length[y]
            if gap <= 2:
                col[y] = _ONE
                if gap == 1:
                    mus.append((y, 1))
                continue
            sy = lmult[y][s]
            Pyv = Pv.get(y)
            if Pyv is None:  # y is below neither v nor any z < v
                poly = Pv[sy]
            else:
                res = [0] * ((gap + 3) // 2)
                for k, c in enumerate(Pv[sy]):
                    res[k] += c
                for k, c in enumerate(Pyv):
                    res[k + 1] += c
                for Pz, mu, shift in terms:
                    for k, c in enumerate(Pz.get(y, ())):
                        res[k + shift] -= mu * c
                while res and res[-1] == 0:
                    res.pop()
                if not res or res[0] != 1:
                    raise AssertionError("constant term of a KL polynomial must be 1")
                if len(res) - 1 > (gap - 1) // 2:
                    raise AssertionError("KL degree bound violated")
                if min(res) < 0:
                    raise AssertionError("KL coefficients must be nonnegative")
                res = tuple(res)
                poly = polys.setdefault(res, res)
            col[y] = poly
            if gap % 2 and len(poly) > gap // 2 and poly[gap // 2]:
                mus.append((y, poly[gap // 2]))
        kl[w], mulists[w] = col, mus  # only whole columns are kept
    return kl


def _kl_column(system: CoxeterSystem, w: CoxeterElement, J=()):
    """Column {id of y: P_{y,w}} of w in the table of W^J, filling only the
    columns of the lower Bruhat ideal of w, built as I <- I | s*I along
    w's word read right to left."""
    lmult = system._ensure_tables(up_to=len(w.word), J=J)["lmult"]
    ideal, wid = {0}, 0
    for s in reversed(w.word):
        ideal |= {lmult[y][s] for y in ideal}
        wid = lmult[wid][s]
    return _fill(system, J, ideal)[wid]


def kl_polynomial(system: CoxeterSystem, y: CoxeterElement, w: CoxeterElement,
                  file_cache: "KLFileCache|None" = None):
    """Coefficient tuple of P_{y,w}; () when y is not below w."""
    if y.system != system or w.system != system:
        raise ValueError("elements do not belong to the given system")
    if y.word == w.word:
        return (1,)
    if len(y.word) >= len(w.word):
        return ()
    interesting = len(w.word) - len(y.word) >= 3
    if file_cache is not None and interesting:
        got = file_cache.get(system, y, w)
        if got is not None:
            return got
    res = _kl_column(system, w).get(system._id_of(y), ())
    if file_cache is not None and interesting and res:
        file_cache.put(system, y, w, res)
    return res


def kl_mu(system: CoxeterSystem, z: CoxeterElement, v: CoxeterElement) -> int:
    """The mu-coefficient: top-degree coefficient of P_{z,v} when the gap is odd.

    Library API that nothing in the package calls: the fill keeps its own
    mu-lists."""
    gap = len(v.word) - len(z.word)
    if gap <= 0 or gap % 2 == 0:
        return 0
    poly = kl_polynomial(system, z, v)
    half = (gap - 1) // 2
    return poly[half] if len(poly) > half else 0


# -- full tables -------------------------------------------------------------


def kl_table(system: CoxeterSystem, max_length=None):
    """All P_{y,w} for y <= w, keyed by (y label word, w label word).

    The J = () case of the column fill: every column of the table of W,
    which has no stuck letters, up to length ``max_length`` (required for
    infinite systems).  The result is a read-only mapping that shares the
    system's columns instead of copying them; ``dict(table)`` gives a
    copy.  A column read off its inverse's is stored unordered, and the
    mapping orders each column when it is read.  Keys come in
    :func:`_table_order` when the labels increase with the positions, as
    for every named system.
    """
    if max_length is None and not system.is_finite:
        raise ValueError("system is infinite; max_length is required")
    tab = system._ensure_tables(up_to=max_length)
    count = tab["size"] if max_length is None else bisect_right(tab["length"], max_length)
    _fill(system, (), range(count))  # ids run in length order
    return _TableView(system, count)


class _TableView(Mapping):
    """The filled columns 0 .. count - 1 of the table of W, read as a
    mapping (y label word, w label word) -> P_{y,w}, in id order: w
    ascending, then y ascending.  Each column is sorted when read: a
    computed one is filled from the top down, which ``sorted`` reverses in
    one pass, and one read off its inverse's is unordered."""

    def __init__(self, system, count):
        tab = system._tabs[()]
        self._label_pos, self._labels = system._label_pos, system.labels
        self._lmult, self._words, self._kl = tab["lmult"], tab["words"], tab["kl"]
        self._count = count
        self._len = sum(len(self._kl[w]) for w in range(count))

    def _id(self, word):
        """Id of a canonical label word among the filled columns, else None."""
        pos = tuple(map(self._label_pos.get, word))
        if None in pos:  # an unknown label
            return None
        g, lmult = 0, self._lmult
        for s in reversed(pos):
            g = lmult[g][s]
            if g is None:  # past the walked ball
                return None
        return g if g < self._count and self._words[g] == pos else None

    def __getitem__(self, key):
        try:
            yw, ww = key
            w, y = self._id(ww), self._id(yw)
        except (TypeError, ValueError):  # not a pair of label words
            raise KeyError(key) from None
        if w is None or y not in self._kl[w]:
            raise KeyError(key)
        return self._kl[w][y]

    def __len__(self):
        return self._len

    def _items(self):
        labels, words = self._labels, self._words
        labelled = [tuple(labels[p] for p in words[g]) for g in range(self._count)]
        for w in range(self._count):
            lw, col = labelled[w], self._kl[w]
            for y in sorted(col):
                yield (labelled[y], lw), col[y]

    def __iter__(self):
        return (key for key, _ in self._items())

    def items(self):
        return _TableItems(self)

    def values(self):
        return _TableValues(self)


class _TableItems(ItemsView):
    def __iter__(self):
        return self._mapping._items()


class _TableValues(ValuesView):
    def __iter__(self):
        kl = self._mapping._kl
        return chain.from_iterable(map(kl[w].__getitem__, sorted(kl[w]))
                                   for w in range(self._mapping._count))


def _word_text(word_labels):
    return ",".join(str(lab) for lab in word_labels) if word_labels else "-"


def _table_order(pair):
    """Sort key of a :func:`kl_table` pair (y, w): by w, then y, shorter first."""
    return len(pair[1]), pair[1], len(pair[0]), pair[0]


def format_kl_table(table) -> str:
    """Deterministic text rendering of a :func:`kl_table` result."""
    pairs = sorted(table.items(), key=lambda item: _table_order(item[0]))
    # each label word and polynomial is rendered once, not once per pair;
    # every y is also a w, by the pair (y, y)
    words = {ww: _word_text(ww) for ww in {ww for (_, ww), _ in pairs}}
    coeffs = {poly: ",".join(map(str, poly)) for poly in set(table.values())}
    return "\n".join(f"{words[yw]} | {words[ww]} | {coeffs[poly]}"
                     for (yw, ww), poly in pairs) + "\n"


# -- persistent cache --------------------------------------------------------


def _parse_word(text):
    return () if text == "-" else tuple(int(x) for x in text.split(","))


class KLFileCache:
    """Line-oriented text cache for KL polynomials of the named systems.

    Only systems carrying a parseable tag ("A 3", "A~ 1", ...) are
    persisted; systems constructed from ad-hoc Cartan data keep their
    polynomials in memory only.  Loading refuses, naming ``path:line``, a
    line that cannot be a KL polynomial: constant term other than 1, a
    negative coefficient, or degree above (l(w) - l(y) - 1) / 2.
    """

    def __init__(self, path=None):
        self.path = path
        self.entries = {}
        self.dirty = False
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().split("\n")
        except OSError as exc:
            raise ValueError(f"cannot read the KL cache {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read the KL cache {path}: not UTF-8 text") from exc
        if lines[0] != _CACHE_MAGIC:
            raise ValueError(f"not a KL cache file: {path}")
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line:
                continue
            try:
                tag, ytext, wtext, ctext = (part.strip() for part in line.split("|"))
                key = (tag, _parse_word(ytext), _parse_word(wtext))
                coeffs = tuple(int(c) for c in ctext.split(","))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed cache line") from exc
            gap = len(key[2]) - len(key[1])
            if coeffs[0] != 1 or min(coeffs) < 0 or 2 * (len(coeffs) - 1) > gap - 1:
                raise ValueError(f"{path}:{lineno}: not a KL polynomial of "
                                 f"a pair with length gap {gap}")
            self.entries[key] = coeffs

    @staticmethod
    def _key(system, y, w):
        tag = system.tag
        if tag is None or not _NAMED_TAG.match(tag):
            return None
        return (tag, y.word_labels, w.word_labels)

    def get(self, system, y, w):
        key = self._key(system, y, w)
        return self.entries.get(key) if key else None

    def put(self, system, y, w, coeffs):
        key = self._key(system, y, w)
        if key and self.entries.get(key) != tuple(coeffs):
            self.entries[key] = tuple(coeffs)
            self.dirty = True

    def save(self):
        if not self.path or not self.dirty:
            return
        # a temp file of our own beside the target, so concurrent writers
        # never share one; os.replace then swaps it in atomically
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(self.path)),
                                       suffix=".tmp")
        except OSError as exc:
            raise ValueError(f"cannot write the KL cache {self.path}: {exc.strerror}") from exc
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_CACHE_MAGIC + "\n")
                for (tag, yw, ww) in sorted(self.entries):
                    coeffs = ",".join(str(c) for c in self.entries[(tag, yw, ww)])
                    handle.write(f"{tag} | {_word_text(yw)} | {_word_text(ww)} | {coeffs}\n")
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.dirty = False

    def __len__(self):
        return len(self.entries)


def file_cache_from_env() -> KLFileCache:
    """Cache bound to $WEYLKL_CACHE; inert when the variable is unset."""
    return KLFileCache(os.environ.get(CACHE_ENV_VAR))

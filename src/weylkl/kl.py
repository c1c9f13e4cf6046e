"""Kazhdan-Lusztig polynomials over any system from the Coxeter engine.

Polynomials in q are stored as tuples of integer coefficients, constant
term first; the empty tuple is the zero polynomial.  Computation uses the
descent recursion with mu-corrections, memoized per system, over the
enumerated multiplication tables (complete for finite systems, length
balls for affine ones).  Tables for the built-in named systems can be
persisted in a small text cache (see :class:`KLFileCache`).

>>> from weylkl.rootdata import build_root_datum
>>> from weylkl.coxeter import weyl_system, longest_element
>>> system = weyl_system(build_root_datum("A", 2))
>>> kl_polynomial(system, system.identity, longest_element(system))
(1,)
"""

from __future__ import annotations

import os
import re

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


def _psub(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
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


# -- core recursion ----------------------------------------------------------


def _kl_ids(tab, cols, yid, wid, memo):
    if yid == wid:
        return (1,)
    if not (cols[wid] >> yid) & 1:
        return ()
    length = tab["length"]
    diff = length[wid] - length[yid]
    if diff <= 2:
        return (1,)
    key = (yid, wid)
    got = memo.get(key)
    if got is not None:
        return got
    lmult, fld = tab["lmult"], tab["fld"]
    s = fld[wid]
    vid = lmult[wid][s]  # sw, shorter than w
    syid = lmult[yid][s]
    if length[syid] > length[yid]:
        res = _kl_ids(tab, cols, syid, wid, memo)
    else:
        res = _padd(_kl_ids(tab, cols, syid, vid, memo),
                    _pshift(_kl_ids(tab, cols, yid, vid, memo), 1))
        lv, lw = length[vid], length[wid]
        mask = cols[vid]
        while mask:
            low = mask & -mask
            zid = low.bit_length() - 1
            mask ^= low
            szid = lmult[zid][s]
            if szid is None or length[szid] > length[zid]:
                continue  # need sz < z (this also skips z = v, since sv = w)
            if not (cols[zid] >> yid) & 1:
                continue  # need y <= z
            gap = lv - length[zid]
            if gap % 2 == 0:
                continue
            pzv = _kl_ids(tab, cols, zid, vid, memo)
            half = (gap - 1) // 2
            mu = pzv[half] if len(pzv) > half else 0
            if mu:
                term = _pshift(_kl_ids(tab, cols, yid, zid, memo),
                               (lw - length[zid]) // 2)
                res = _psub(res, tuple(mu * c for c in term))
        assert res and res[0] == 1, "constant term of a KL polynomial must be 1"
        assert len(res) - 1 <= (diff - 1) // 2, "KL degree bound violated"
        assert all(c >= 0 for c in res), "KL coefficients must be nonnegative"
    memo[key] = res
    return res


def _prepare(system: CoxeterSystem, needed_length: int):
    if system.is_finite:
        tab = system._ensure_tables()
    else:
        tab = system._ensure_tables(up_to=needed_length)
    cols = system._bruhat_columns()
    memo = tab.setdefault("klmemo", {})
    return tab, cols, memo


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
    tab, cols, memo = _prepare(system, len(w.word))
    res = _kl_ids(tab, cols, system._id_of(y), system._id_of(w), memo)
    if file_cache is not None and interesting and res:
        file_cache.put(system, y, w, res)
    return res


def kl_mu(system: CoxeterSystem, z: CoxeterElement, v: CoxeterElement,
          file_cache: "KLFileCache|None" = None) -> int:
    """The mu-coefficient: top-degree coefficient of P_{z,v} when the gap is odd."""
    gap = len(v.word) - len(z.word)
    if gap <= 0 or gap % 2 == 0:
        return 0
    poly = kl_polynomial(system, z, v, file_cache=file_cache)
    half = (gap - 1) // 2
    return poly[half] if len(poly) > half else 0


# -- full tables -------------------------------------------------------------


def kl_table(system: CoxeterSystem, max_length=None):
    """All P_{y,w} for y <= w, keyed by (y label word, w label word).

    The upper elements are filled in order of length, so every recursive
    call lands on pairs that are shorter or already memoized.  Infinite
    systems need ``max_length``, which bounds the length of w.
    """
    if max_length is None:
        if not system.is_finite:
            raise ValueError("system is infinite; max_length is required")
        tab, cols, memo = _prepare(system, 0)
        wids = range(tab["size"])
    else:
        tab, cols, memo = _prepare(system, max_length)
        wids = [g for g in range(tab["size"]) if tab["length"][g] <= max_length]
    words = tab["words"]
    labels = system.labels
    out = {}
    for wid in sorted(wids, key=lambda g: (tab["length"][g], words[g])):
        wkey = tuple(labels[p] for p in words[wid])
        mask = cols[wid]
        while mask:
            low = mask & -mask
            yid = low.bit_length() - 1
            mask ^= low
            poly = _kl_ids(tab, cols, yid, wid, memo)
            out[(tuple(labels[p] for p in words[yid]), wkey)] = poly
    return out


def _word_text(word_labels):
    return ",".join(str(lab) for lab in word_labels) if word_labels else "-"


def format_kl_table(table) -> str:
    """Deterministic text rendering of a :func:`kl_table` result."""
    lines = []
    for (yw, ww) in sorted(table, key=lambda k: (len(k[1]), k[1], len(k[0]), k[0])):
        coeffs = ",".join(str(c) for c in table[(yw, ww)])
        lines.append(f"{_word_text(yw)} | {_word_text(ww)} | {coeffs}")
    return "\n".join(lines) + "\n"


# -- persistent cache --------------------------------------------------------


def _parse_word(text):
    return () if text == "-" else tuple(int(x) for x in text.split(","))


class KLFileCache:
    """Line-oriented text cache for KL polynomials of the named systems.

    Only systems carrying a parseable tag ("A 3", "A~ 1", ...) are
    persisted; systems constructed from ad-hoc Cartan data keep their
    polynomials in memory only.
    """

    def __init__(self, path=None):
        self.path = path
        self.entries = {}
        self.dirty = False
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline().rstrip("\n")
            if first != _CACHE_MAGIC:
                raise ValueError(f"not a KL cache file: {path}")
            for lineno, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    tag, ytext, wtext, ctext = (part.strip() for part in line.split("|"))
                    key = (tag, _parse_word(ytext), _parse_word(wtext))
                    self.entries[key] = tuple(int(c) for c in ctext.split(","))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed cache line") from exc

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
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(_CACHE_MAGIC + "\n")
            for (tag, yw, ww) in sorted(self.entries):
                coeffs = ",".join(str(c) for c in self.entries[(tag, yw, ww)])
                handle.write(f"{tag} | {_word_text(yw)} | {_word_text(ww)} | {coeffs}\n")
        os.replace(tmp, self.path)
        self.dirty = False

    def __len__(self):
        return len(self.entries)


def file_cache_from_env() -> KLFileCache:
    """Cache bound to $WEYLKL_CACHE; inert when the variable is unset."""
    return KLFileCache(os.environ.get(CACHE_ENV_VAR))

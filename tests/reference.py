"""Reference implementations that the tests compare the library against.

None of these is called by the library; each computes something the
library computes another way, or checks a model the library does not use:

* :func:`orbit_walk`, a walk of the orbit of a dominant point in Fraction
  points with its own ordering and enumeration-limit check, against the
  W^J tables that the finite and affine strata read;
* the root-lattice column action, :func:`columns`,
  :func:`column_descents`, :func:`descend_columns`,
  :func:`column_canonical` and :func:`column_interval`, against the point
  action w(rho) that spells canonical words, descents and the Bruhat order;
* :func:`subgroup_matrices`, the whole reflection subgroup as coweight
  matrices, against the integral subsystem;
* the translation model of an affinization: :func:`coweight_action`,
  :func:`translation_element`, :func:`affine_decompose`,
  :func:`affine_length_from_parts` and :func:`translation_length`.
"""

from fractions import Fraction

from weylkl import coxeter
from weylkl.coxeter import CoxeterElement, CoxeterSystem, weyl_system
from weylkl.endoscopy import _integer_point, _value, endoscopic_system
from weylkl.rootdata import RootDatum, pairing, reflect, reflect_coweight_by_root


def orbit_walk(datum: RootDatum, roots, coroots, start, shifts=None, sign=1,
               keep=None):
    """Pairs ``(word, w(start))`` for the minimal coset representatives w
    modulo the stabilizer of ``start``, sorted by (length, word); words are
    positions into ``roots`` and points Fraction vectors.

    ``start`` must be dominant for the values
    ``sign * (<roots[i], v> + shifts[i])`` of
    :func:`weylkl.endoscopy.straighten`.  The representatives are in
    bijection with the orbit (Deodhar's lemma; Bjorner-Brenti, GTM 231,
    ch. 2): s_i * w is the next one exactly when value i is positive at
    w(start), and its canonical word is the least ``(i,) + word(w)`` found.
    Coroots may carry coordinates past the roots' (an imaginary part); they
    move but do not pair.  ``keep(point)`` may refuse a point, and must then
    refuse everything above it too, as a bound on the degree
    ``start - point`` does.  The walk itself runs on integer numerators.
    """
    rows, d, point, shifts = _integer_point(datum, roots, start, shifts)
    if any(sign * _value(row, shift, point) < 0 for row, shift in zip(rows, shifts)):
        raise ValueError("the start of an orbit walk must be dominant")

    def fractions(point):
        return tuple(Fraction(c, d) for c in point)

    out = []
    level = {point: ()} if keep is None or keep(fractions(point)) else {}
    while level:
        if len(out) + len(level) > coxeter._ENUM_LIMIT:
            raise ValueError(
                f"enumeration limit exceeded: more than {coxeter._ENUM_LIMIT} elements")
        ordered = sorted(level.items(), key=lambda item: item[1])
        out += [(word, fractions(point)) for point, word in ordered]
        nxt = {}
        for i, (row, shift, coroot) in enumerate(zip(rows, shifts, coroots)):
            for point, word in ordered:
                value = _value(row, shift, point)
                if sign * value <= 0:
                    continue
                image = tuple(c - value * cr for c, cr in zip(point, coroot))
                if image not in nxt:  # least letter first, then least word
                    kept = keep is None or keep(fractions(image))
                    nxt[image] = (i,) + word if kept else None
        level = {image: word for image, word in nxt.items() if word is not None}
    return out


def subgroup_matrices(datum: RootDatum, simple_indices) -> frozenset:
    """Ambient coweight-action matrices of the whole reflection subgroup."""
    simple_indices = tuple(simple_indices)
    system = endoscopic_system(datum, simple_indices)
    roots = [datum.positive_roots[k] for k in simple_indices]
    coroots = [datum.positive_coroots[k] for k in simple_indices]
    n = datum.rank
    identity = tuple(tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n))
    tab = system._ensure_tables()
    matrices = [identity]
    for g, s in enumerate(tab["fld"][1:], 1):  # g = s_s * h with h shorter
        matrices.append(tuple(reflect_coweight_by_root(datum, roots[s], coroots[s], col)
                              for col in matrices[tab["lmult"][g][s]]))
    return frozenset(matrices)


# -- the root-lattice column action -------------------------------------------
#
# An element w is read off its columns w^{-1}(alpha_j), j = 0..rank-1, each
# in root coordinates.  s_i is a left descent of w exactly when
# w^{-1}(alpha_i) is negative (Bjorner-Brenti, GTM 231, ch. 4), and the
# columns of s_i*w are w^{-1}(s_i alpha_j) = c_j - gcm[i][j] * c_i.


def reflect_columns(system: CoxeterSystem, cols, i):
    """Columns of s_i * w from the columns of w."""
    ci = cols[i]
    return tuple(tuple(x - a * y for x, y in zip(col, ci))
                 for col, a in zip(cols, system.gcm[i]))


def columns(system: CoxeterSystem, word):
    """Columns w^{-1}(alpha_j) of the element spelled by ``word``."""
    n = system.rank
    cols = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in reversed(word):
        cols = reflect_columns(system, cols, i)
    return cols


def column_descents(cols):
    """Positions of the left descents: the negative columns."""
    return {i for i, col in enumerate(cols) if min(col) < 0}


def descend_columns(system: CoxeterSystem, cols, bound):
    """Canonical word of the element with columns ``cols``, of length at
    most ``bound``: its smallest left descent, stripped until none is left."""
    word = []
    while True:
        i = min(column_descents(cols), default=None)
        if i is None:
            return tuple(word)
        if len(word) >= bound:
            raise AssertionError(f"more than {bound} left descents")
        word.append(i)
        cols = reflect_columns(system, cols, i)


def column_canonical(system: CoxeterSystem, word):
    """Lexicographically least reduced word equal to ``word``."""
    return descend_columns(system, columns(system, word), len(word))


def column_interval(system: CoxeterSystem, word) -> frozenset:
    """Canonical words of every y <= w, for w spelled by ``word``: the
    products of the subwords of a reduced word of w."""
    below = {()}
    for s in reversed(column_canonical(system, word)):
        below |= {column_canonical(system, (s,) + y) for y in below}
    return frozenset(below)


# -- the translation model of an affinization ---------------------------------


def translation_length(datum: RootDatum, mu) -> Fraction:
    """sum_{alpha > 0} |<alpha, mu>|; the affine length of the translation by mu."""
    return sum(abs(pairing(datum, alpha, mu)) for alpha in datum.positive_roots)


def coweight_action(w: CoxeterElement, vec):
    """Action of a Weyl-system element on a coweight (coroot coordinates)."""
    datum = getattr(w.system, "weyl_of", None)
    if datum is None:
        raise ValueError("coweight_action requires an element of a Weyl system")
    vec = tuple(Fraction(x) for x in vec)
    for p in reversed(w.word):
        vec = reflect(datum, p, vec, side="coweight")
    return vec


def translation_element(affsys: CoxeterSystem, mu) -> CoxeterElement:
    """The translation t_mu as an element of the affinization.

    Read off the columns of t_mu^{-1}, which sends beta + m*delta to
    beta + (m + <beta, mu>) delta, where delta = alpha_0 + theta.
    """
    datum = affsys.affine_of
    if datum is None:
        raise ValueError("translation elements require an affinization system")
    mu = tuple(int(m) for m in mu)
    if len(mu) != datum.rank:
        raise ValueError("coweight length does not match the rank")
    delta = (1,) + tuple(datum.highest_root)
    shifts = [-pairing(datum, datum.highest_root, mu)]  # alpha_0 = delta - theta
    shifts += [pairing(datum, alpha, mu) for alpha in datum.simple_roots]
    cols = tuple(
        tuple(int(i == j) + int(shift) * d for j, d in enumerate(delta))
        for i, shift in enumerate(shifts))
    expected = int(translation_length(datum, mu))
    word = descend_columns(affsys, cols, expected)
    if len(word) != expected:
        raise AssertionError("translation word disagrees with the length formula")
    return affsys._element(word)


def affine_decompose(w: CoxeterElement):
    """(finite part, translation part) of an affinization element.

    The element acts on coweights as v -> wbar(v) + mu; returns
    (wbar as an element of the finite Weyl system, mu as an integer tuple).
    With alpha_0 = delta - theta, the finite parts of the columns
    w^{-1}(alpha_j), j >= 1, are the columns of wbar; mu = w(0), where
    s_0 acts as v -> s_theta(v) + theta^vee.
    """
    affsys = w.system
    datum = affsys.affine_of
    if datum is None:
        raise ValueError("affine_decompose requires an element of an affinization")
    theta, theta_vee = datum.highest_root, datum.highest_root_coroot
    cols = tuple(tuple(c - col[0] * t for c, t in zip(col[1:], theta))
                 for col in columns(affsys, w.word)[1:])
    fin = weyl_system(datum)
    wbar = fin._element(descend_columns(fin, cols, len(datum.positive_roots)))
    theta_row = [sum(a * t for a, t in zip(row, theta)) for row in datum.cartan_matrix]
    mu = (0,) * datum.rank
    for p in reversed(w.word):  # positions equal labels in affinizations
        if p == 0:
            shift = 1 - sum(r * m for r, m in zip(theta_row, mu))
            mu = tuple(m + shift * t for m, t in zip(mu, theta_vee))
        else:
            mu = reflect(datum, p - 1, mu, side="coweight")
    return wbar, mu


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
                if m.denominator != 1:
                    raise AssertionError("affine inversion counts must be integral")
                total += int(m - lo)
            if m >= lo and all(c <= 0 for c in wg):
                total += 1
    return total

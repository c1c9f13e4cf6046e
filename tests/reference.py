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
* :func:`left_descents`, :func:`right_descents`,
  :func:`parabolic_project` and :func:`double_coset_minimum`, read off the
  point action, against the parabolic quotients and the affine strata;
* :func:`dominance_compare`, the dominance order on coweights, against the
  degree filters of the strata;
* :func:`cartan_kind`, the type of a Cartan matrix from the leading
  principal minors of its symmetrization (:func:`symmetrizer`,
  :func:`leading_minors`), against Kac's trichotomy read off one kernel;
* :func:`invariant_form`, the minimal even invariant form on coweights,
  against the critical-level weights ``<beta, lambda'>`` times the
  squared-length ratio of beta;
* the translation model of an affinization: :func:`coweight_action`,
  :func:`translation_element`, :func:`affine_decompose`,
  :func:`affine_length_from_parts` and :func:`translation_length`.
"""

from fractions import Fraction
from itertools import combinations

from weylkl import coxeter
from weylkl.coxeter import CoxeterElement, CoxeterSystem, _positions, weyl_system
from weylkl.endoscopy import _integer_point, _value, endoscopic_system
from weylkl.linalg import eliminate, kernel_basis
from weylkl.rootdata import RootDatum, pairing, reflect, reflect_coweight_by_root


def left_descents(w: CoxeterElement):
    """Labels of the left descents of w: the negative values of w(rho)."""
    return {w.system.labels[i] for i, v in enumerate(w.system._point(w.word)) if v < 0}


def right_descents(w: CoxeterElement):
    """Labels of the right descents of w, the left descents of w^{-1}."""
    return left_descents(w.inverse())


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
    u = parabolic_project(w, J)[0]
    stripped, point = system._descend(system._point(u.word), u.length, _positions(system, I))
    return CoxeterElement(system, system._descend(point, u.length - len(stripped))[0])


def dominance_compare(beta, alpha) -> bool:
    """True iff alpha - beta is a nonnegative *integer* combination of simple coroots."""
    for b, a in zip(beta, alpha):
        diff = Fraction(a) - Fraction(b)
        if diff.denominator != 1 or diff < 0:
            return False
    return True


def _pairing_row(datum: RootDatum, beta):
    """The integer row of the finite root ``beta`` (``<beta, mu> = row . mu``);
    a negative root takes the negated row of its positive."""
    k = datum.root_index.get(tuple(beta))
    if k is not None:
        return datum.pairing_rows[k]
    return tuple(-c for c in datum.pairing_rows[datum.root_index[tuple(-c for c in beta)]])


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
    rows = [_pairing_row(datum, beta) for beta in roots]
    d, point, shifts = _integer_point(start, shifts or [0] * len(roots))
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


def symmetrizer(gcm):
    """The primitive positive integers d_i that make d_i * gcm[i][j]
    symmetric, for an indecomposable Cartan matrix: the kernel of the
    equations d_i * gcm[i][j] = d_j * gcm[j][i], or None when there is none."""
    n = len(gcm)
    equations = [[0] * n]  # keeps the column count when there is one node
    for i, j in combinations(range(n), 2):
        if gcm[i][j]:
            row = [0] * n
            row[i], row[j] = gcm[i][j], -gcm[j][i]
            equations.append(row)
    basis = kernel_basis(equations)
    return basis[0] if len(basis) == 1 else None


def leading_minors(gram):
    """D_1, ..., D_n: the determinants of the leading principal blocks."""
    minors = []
    for k in range(1, len(gram) + 1):
        _, pivots, d = eliminate([row[:k] for row in gram[:k]])
        minors.append(d if len(pivots) == k else 0)
    return minors


def cartan_kind(gcm):
    """'finite', 'affine' or 'indefinite', as ``CoxeterSystem.kind``, from
    the symmetrized blocks: finite and affine matrices are symmetrizable
    (Kac, Infinite-dimensional Lie algebras, ch. 4); a finite block is
    positive definite, and an affine one positive semidefinite of corank
    one with every proper leading block definite."""
    kinds = set()
    for comp in CoxeterSystem(gcm)._components():
        block = [[gcm[i][j] for j in comp] for i in comp]
        d = symmetrizer(block)
        minors = [-1] if d is None else leading_minors(
            [[d[i] * a for a in row] for i, row in enumerate(block)])
        if all(m > 0 for m in minors):
            kinds.add("finite")
        elif all(m > 0 for m in minors[:-1]) and minors[-1] == 0:
            kinds.add("affine")
        else:
            kinds.add("indefinite")
    return ("finite" if kinds <= {"finite"}
            else "indefinite" if "indefinite" in kinds else "affine")


def invariant_form(datum: RootDatum, v, w) -> Fraction:
    """The minimal even invariant form of two coweight vectors.

    Its Gram matrix in simple coroots is column j of the Cartan matrix scaled
    by |theta|^2 / |alpha_j|^2 = theta_j / theta^vee_j; coroots of long roots
    get squared length 2.
    """
    ratios = [t // t_vee for t, t_vee in zip(datum.highest_root, datum.highest_root_coroot)]
    return sum(Fraction(v[i]) * ratios[j] * a * w[j]
               for i, row in enumerate(datum.cartan_matrix) for j, a in enumerate(row))


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

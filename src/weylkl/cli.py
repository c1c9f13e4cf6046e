"""Command-line surface: batch queries with table or JSON output.

Coweights are entered as ``c1,c2,…/n`` in simple-coroot coordinates (the
denominator defaults to 1), reduced words as comma-separated generator
labels with ``e`` for the identity; the extra affine generator carries the
label 0.  Domain errors exit with status 1 and the originating module's
message; argument errors exit with status 2; a reader that closes the
output pipe early leaves status 1 and no traceback.  A handler imports the
modules beyond ``rootdata``, ``coxeter`` and ``kl`` that it calls, so a
command loads only what it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .rootdata import RationalCoweight, RootDatum, build_root_datum
from .coxeter import _ENUM_LIMIT, CoxeterSystem, parabolic_quotient, weyl_system
from .kl import (
    KLFileCache,
    file_cache_from_env,
    format_kl_table,
    kl_polynomial,
    kl_table,
    poly_string,
)


# -- input parsing ------------------------------------------------------------


def _parse_int_vector(text, what):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer vector, "
                         f"got {text!r}") from None


def _parse_lambda(text) -> RationalCoweight:
    body, _, den = text.partition("/")
    mu = _parse_int_vector(body, "the coweight numerator")
    if den:
        try:
            n = int(den)
        except ValueError:
            raise ValueError(f"the coweight denominator must be an integer, "
                             f"got {den!r}") from None
    else:
        n = 1
    return RationalCoweight(mu, n)


def _parse_word(system: CoxeterSystem, text):
    if text == "e":
        return system.identity
    labels = _parse_int_vector(text, "a reduced word")
    return system.element(labels)


def _parse_alpha(text, rank_):
    """A finite degree ``c1,…,cr`` from ``--alpha``."""
    alpha = _parse_int_vector(text, "--alpha")
    if len(alpha) != rank_:
        raise ValueError(f"--alpha must have {rank_} entries")
    return alpha


def _parse_degree(text, rank_):
    """An affine degree ``c1,…,cr:m`` (``:m`` defaults to 0), from ``--alpha``."""
    body, _, imag = text.partition(":")
    finite = _parse_int_vector(body, "the finite part of --alpha")
    if len(finite) != rank_:
        raise ValueError(f"the finite part of --alpha must have {rank_} entries")
    try:
        m = int(imag) if imag else 0
    except ValueError:
        raise ValueError(f"the delta part of --alpha must be an integer, "
                         f"got {imag!r}") from None
    return finite, m


def _nonnegative(value, flag):
    """A length or depth bound from ``flag``, refused when negative."""
    if value is not None and value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


def _parse_source(text) -> RootDatum:
    letter, digits = text[:1].upper(), text[1:]
    if not digits.isdigit():
        raise ValueError(f"source must look like A3 or D4, got {text!r}")
    return build_root_datum(letter, int(digits))


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational number, got {text!r}") from None


# -- output helpers ------------------------------------------------------------


def _num(x):
    """JSON-safe scalar: exact integers stay ints, true fractions go textual."""
    frac = Fraction(x)
    return int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def _vec(v):
    return [_num(x) for x in v]


def _mat(m):
    return [_vec(row) for row in m]


def _labels_text(labels) -> str:
    return ",".join(str(lab) for lab in labels) if labels else "e"


def _word_text(w) -> str:
    return _labels_text(w.word_labels)


def _emit(args, payload, table_lines) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(table_lines)


def _matrix_lines(mat):
    cells = [[str(x) for x in row] for row in mat]
    widths = [max(len(cells[i][j]) for i in range(len(cells)))
              for j in range(len(cells[0]))] if cells else []
    return ["[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]"
            for row in cells]


# -- subcommand handlers --------------------------------------------------------


def _cmd_roots(args) -> str:
    datum = build_root_datum(args.type, args.rank)
    payload = {
        "cartan_type": datum.cartan_type,
        "rank": datum.rank,
        "cartan_matrix": _mat(datum.cartan_matrix),
        "positive_roots": _mat(datum.positive_roots),
        "positive_coroots": _mat(datum.positive_coroots),
        "rho": _vec(datum.rho),
        "weyl_order": datum.weyl_order(),
    }
    lines = [f"type {datum.cartan_type}{datum.rank}, "
             f"Weyl order {datum.weyl_order()}",
             "cartan matrix:"]
    lines += ["  " + line for line in _matrix_lines(datum.cartan_matrix)]
    lines.append("positive roots (root coords) / coroots (coroot coords):")
    for root, coroot in zip(datum.positive_roots, datum.positive_coroots):
        lines.append(f"  {tuple(root)}  ~  {tuple(coroot)}")
    return _emit(args, payload, lines)


# A table of n elements holds about 0.14 n^2 pairs, some 40 bytes each in
# the fill and more in its text: A6 (5,040 elements, 3.6M pairs) still
# runs, D6 (23,040 elements, about 74M pairs) would take gigabytes.
_TABLE_LIMIT = 6_000


def _enumerable_weyl_system(datum: RootDatum) -> CoxeterSystem:
    """The Weyl group, refused up front when it is too large to enumerate."""
    order = datum.weyl_order()
    if order > _ENUM_LIMIT:
        raise ValueError(
            f"the Weyl group of {datum.cartan_type}{datum.rank} has {order} "
            f"elements, more than the enumeration limit of {_ENUM_LIMIT}")
    return weyl_system(datum)


def _cmd_weyl(args) -> str:
    datum = build_root_datum(args.type, args.rank)
    system = _enumerable_weyl_system(datum)
    elements = parabolic_quotient(system, (),
                                  length_bound=_nonnegative(args.length, "--length"))
    words = [_word_text(w) for w in elements]
    payload = {"count": len(words), "elements": words}
    lines = [f"{len(words)} elements"
             + (f" of length <= {args.length}" if args.length is not None else "")]
    lines += ["  " + text for text in words]
    return _emit(args, payload, lines)


def _cmd_kl(args) -> str:
    datum = build_root_datum(args.type, args.rank)
    system = _enumerable_weyl_system(datum)
    if args.table:
        max_length = _nonnegative(args.length, "--length")
        size = datum.weyl_order()
        if max_length is not None and max_length < len(datum.positive_roots):
            size = sum(lw <= max_length
                       for lw in system._ensure_tables(up_to=max_length)["length"])
        if size > _TABLE_LIMIT:
            raise ValueError(
                f"the KL table of {datum.cartan_type}{datum.rank} would have "
                f"{size} columns, more than the table limit of {_TABLE_LIMIT}")
        table = kl_table(system, max_length=max_length)
        if args.format == "json":
            payload = {"pairs": [
                {"y": _labels_text(y), "w": _labels_text(w),
                 "coefficients": list(poly)}
                for (y, w), poly in table.items()]}
            return json.dumps(payload, indent=2, sort_keys=True)
        return format_kl_table(table)
    if args.y is None or args.w is None:
        raise ValueError("either --table or both --y and --w are required")
    cache = file_cache_from_env()
    y = _parse_word(system, args.y)
    w = _parse_word(system, args.w)
    coeffs = kl_polynomial(system, y, w, file_cache=cache)
    cache.save()
    payload = {"y": _word_text(y), "w": _word_text(w),
               "coefficients": list(coeffs),
               "polynomial": poly_string(coeffs)}
    return _emit(args, payload, [poly_string(coeffs)])


def _stratification(args):
    from .endoscopy import stratify

    datum = build_root_datum(args.type, args.rank)
    return datum, stratify(datum, _parse_lambda(args.lam))


def _cmd_endoscopy(args) -> str:
    datum, strat = _stratification(args)
    payload = {
        "lambda": f"{','.join(map(str, strat.lam.mu))}/{strat.lam.n}",
        "integral_positive_roots": _mat(strat.integral_roots),
        "subsystem_simple_roots": _mat(strat.simple_roots),
        "subsystem_simple_coroots": _mat(strat.simple_coroots),
        "subsystem_cartan_matrix": _mat(strat.system.gcm),
        "generator_labels": list(strat.system.labels),
        "lambda_prime": _vec(strat.lambda_prime),
        "minimal_mover": _word_text(strat.minimal_mover),
        "singular_labels": sorted(strat.singular),
        "index_size": len(strat.index_set),
    }
    lines = [
        f"integral positive roots: "
        + " ".join(str(tuple(r)) for r in strat.integral_roots),
        "subsystem simple roots: "
        + " ".join(str(tuple(r)) for r in strat.simple_roots),
        "subsystem cartan matrix:"]
    lines += ["  " + line for line in _matrix_lines(strat.system.gcm)]
    lines += [
        f"dominant representative: "
        + str(tuple(str(Fraction(x)) for x in strat.lambda_prime)),
        f"minimal mover: {_word_text(strat.minimal_mover)}",
        f"singular labels: {sorted(strat.singular)}",
        f"index size: {len(strat.index_set)}"]
    return _emit(args, payload, lines)


def _cmd_strata(args) -> str:
    from .endoscopy import strata_for_degree

    datum, strat = _stratification(args)
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha, datum.rank)
        chosen = strata_for_degree(strat, alpha)
        header = f"strata of degree below {tuple(alpha)}"
    else:
        chosen = strat.index_set
        header = "stratification index set"
    words = [_word_text(w) for w in chosen]
    payload = {"count": len(words), "index": words}
    lines = [f"{header}: {len(words)} elements"] + ["  " + t for t in words]
    return _emit(args, payload, lines)


def _cmd_multiplicity(args) -> str:
    from .multiplicity import multiplicity_matrix

    datum, strat = _stratification(args)
    matrix = multiplicity_matrix(strat)
    words = [_word_text(w) for w in strat.index_set]
    payload = {"index": words, "matrix": [[int(x) for x in row] for row in matrix]}
    width = max(len(t) for t in words)
    lines = [f"rows/columns indexed by: {' '.join(words)}"]
    for text, row in zip(words, _matrix_lines(matrix)):
        lines.append(f"{text.rjust(width)} {row}")
    return _emit(args, payload, lines)


def _cmd_character(args) -> str:
    from .endoscopy import stratify
    from .multiplicity import (
        graded_partition_series,
        index_highest_weights,
        simple_module_dimension,
        simple_weight_multiplicity,
    )

    datum = build_root_datum(args.type, args.rank)
    if args.lam is None:
        if args.depth is None:
            raise ValueError("character needs --lambda or --depth")
        series = graded_partition_series(datum.positive_coroots,
                                         _nonnegative(args.depth, "--depth"))
        items = sorted(series.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        payload = {"series": [
            {"degree": _vec(expo), "coefficients": list(coeffs),
             "polynomial": poly_string(coeffs)} for expo, coeffs in items]}
        lines = [f"graded partition series up to height {args.depth}:"]
        lines += [f"  {tuple(expo)}: {poly_string(coeffs)}"
                  for expo, coeffs in items]
        return _emit(args, payload, lines)
    strat = stratify(datum, _parse_lambda(args.lam))
    y = (_parse_word(strat.system, args.w) if args.w is not None
         else strat.minimal_mover)
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha, datum.rank)
        hw_index = strat.index_set.index(y) if y in strat.index_set else None
        if hw_index is None:
            raise ValueError("--w must be an index-set element")
        hw = index_highest_weights(strat)[hw_index]
        nu = tuple(h - a for h, a in zip(hw, alpha))
        value = simple_weight_multiplicity(strat, y, nu)
        payload = {"w": _word_text(y), "alpha": _vec(alpha),
                   "weight": _vec(nu), "multiplicity": value}
        return _emit(args, payload,
                     [f"weight multiplicity at drop {tuple(alpha)}: {value}"])
    value = simple_module_dimension(strat, y)
    payload = {"w": _word_text(y), "dimension": value}
    return _emit(args, payload, [f"simple module dimension: {value}"])


def _cmd_affine(args) -> str:
    from .affine import (
        AffineCoweight,
        LevelClass,
        affine_endoscopy,
        affine_index_set,
        affine_strata_index,
        critical_strata_index,
    )

    datum = build_root_datum(args.type, args.rank)
    lam = _parse_lambda(args.lam)
    if args.pair is not None:
        pair = _parse_int_vector(args.pair, "--pair")
        if len(pair) != 2:
            raise ValueError(f"--pair must be two integers a,b, got {args.pair!r}")
        a, b = pair
        x = AffineCoweight(lam.mu, (a, b), lam.n)
    elif args.level is not None:
        x = AffineCoweight.from_level(lam.mu, args.level, lam.n)
    else:
        raise ValueError("affine needs --level (numerator over the shared "
                         "denominator) or --pair a,b")
    strat = affine_endoscopy(datum, x)
    payload = {
        "level": _num(strat.level),
        "class": strat.level_class.value,
        "period": strat.period,
        "generator_labels": list(strat.labels),
        "simple_roots": [
            {"finite": _vec(root), "delta": m}
            for (root, m) in strat.simple_roots],
        "cartan_matrix": _mat(strat.system.gcm),
        "lambda_prime": _vec(strat.lambda_prime),
        "minimal_mover": _word_text(strat.minimal_mover),
        "singular_labels": sorted(strat.singular),
        "minimal_imaginary_coroot": strat.delta_zeta,
    }
    lines = [
        f"level {_num(strat.level)} ({strat.level_class.value}), "
        f"period {strat.period}",
        f"generator labels: {list(strat.labels)}",
        "simple roots (finite part, delta coefficient):"]
    lines += [f"  {tuple(root)} + {m}*delta" for root, m in strat.simple_roots]
    lines.append("cartan matrix:")
    lines += ["  " + line for line in _matrix_lines(strat.system.gcm)]
    lines += [
        f"dominant representative: "
        + str(tuple(str(Fraction(x)) for x in strat.lambda_prime)),
        f"minimal mover: {_word_text(strat.minimal_mover)}",
        f"singular labels: {sorted(strat.singular)}",
        f"minimal imaginary coroot: {strat.delta_zeta}*delta"]
    if args.alpha is not None:
        degree = _parse_degree(args.alpha, datum.rank)
        if strat.level_class is LevelClass.CRITICAL:
            solutions = critical_strata_index(strat, degree)
            payload["critical_strata"] = [
                {"w": _word_text(w), "alpha": list(alpha)}
                for w, alpha in solutions]
            lines.append(f"critical strata at degree {degree}:")
            lines += [f"  w={_word_text(w)} alpha={tuple(alpha)}"
                      for w, alpha in solutions]
        else:
            index = affine_strata_index(strat, degree)
            words = [_word_text(w) for w, _cls in index]
            payload["strata_index"] = words
            lines.append(f"strata index below degree {degree}: "
                         f"{len(words)} elements")
            lines += ["  " + t for t in words]
    elif args.length is not None:
        index = affine_index_set(strat, _nonnegative(args.length, "--length"))
        words = [_word_text(w) for w in index]
        payload["index"] = words
        lines.append(f"singular quotient up to length {args.length}: "
                     f"{len(words)} elements")
        lines += ["  " + t for t in words]
    return _emit(args, payload, lines)


def _cmd_fold(args) -> str:
    from .folding import fold, untwist_classify

    source = _parse_source(args.source)
    sigma = _parse_int_vector(args.sigma, "--sigma")
    fd = fold(source, sigma)
    payload = {
        "source": f"{source.cartan_type}{source.rank}",
        "orbits": [list(orbit) for orbit in fd.orbits],
        "order": fd.d,
        "orbit_sizes": list(fd.d_i),
        "twisted_nonreduced": fd.twisted_nonreduced,
    }
    lines = [f"source {source.cartan_type}{source.rank}, "
             f"automorphism order {fd.d}",
             "orbits: " + " ".join(str(tuple(o)) for o in fd.orbits)]
    if fd.twisted_nonreduced:
        payload["folded_type"] = None
        lines.append("orbit pattern is of non-reduced (twisted A-even) kind; "
                     "no folded root datum")
    else:
        payload["invariant_cartan_matrix"] = _mat(fd.invariant_cartan)
        payload["folded_type"] = f"{fd.folded.cartan_type}{fd.folded.rank}"
        payload["dual_folded_type"] = (
            f"{fd.dual_folded.cartan_type}{fd.dual_folded.rank}")
        lines.append(
            f"folded type {fd.folded.cartan_type}{fd.folded.rank}, "
            f"dual {fd.dual_folded.cartan_type}{fd.dual_folded.rank}")
        lines.append("invariant cartan matrix:")
        lines += ["  " + line for line in _matrix_lines(fd.invariant_cartan)]
    if args.level is not None:
        k = _parse_fraction(args.level)
        cls = untwist_classify(fd, k)
        payload["level_class"] = cls.value
        lines.append(f"level {args.level}: {cls.value}")
    return _emit(args, payload, lines)


def _cmd_oracle_check(args) -> str:
    from .endoscopy import stratify
    from .multiplicity import multiplicity_matrix
    from .oracle import oracle_multiplicity_matrix

    datum = build_root_datum(args.type, args.rank)
    lam = _parse_lambda(args.lam)
    strat = stratify(datum, lam)
    predicted = [[int(x) for x in row] for row in multiplicity_matrix(strat)]
    observed = oracle_multiplicity_matrix(datum, lam, depth=args.depth)
    if predicted != observed:
        raise ValueError(
            "multiplicity matrices disagree: "
            f"predicted {predicted}, oracle {observed}")
    words = [_word_text(w) for w in strat.index_set]
    payload = {"match": True, "index": words, "matrix": predicted}
    lines = [f"match on a {len(words)}x{len(words)} matrix"]
    lines += _matrix_lines(predicted)
    return _emit(args, payload, lines)


def _cmd_cache(args) -> str:
    if args.action == "show":
        cache = file_cache_from_env()
        path = cache.path or "(unset: set WEYLKL_CACHE to persist)"
        return f"cache path: {path}\nentries: {len(cache)}"
    if args.action == "export":
        if args.output is None:
            raise ValueError("cache export needs --output")
        src = file_cache_from_env()
        dst = KLFileCache(args.output)
        dst.entries.update(src.entries)
        dst.dirty = True
        dst.save()
        return f"exported {len(src)} entries to {args.output}"
    # import
    if args.input is None:
        raise ValueError("cache import needs --input")
    if not os.path.exists(args.input):
        raise ValueError(f"no cache file at {args.input}")
    src = KLFileCache(args.input)
    dst = file_cache_from_env()
    if dst.path is None:
        raise ValueError("WEYLKL_CACHE is not set; nowhere to import into")
    dst.entries.update(src.entries)
    dst.dirty = True
    dst.save()
    return f"imported {len(src)} entries into {dst.path}"


# -- parser ---------------------------------------------------------------------


def _add_type_rank(sub):
    sub.add_argument("--type", required=True, metavar="LETTER",
                     help="Cartan type letter A-G")
    sub.add_argument("--rank", required=True, type=int)


def _add_format(sub):
    sub.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkl",
        description="Weyl-group stratifications, Kazhdan-Lusztig "
                    "multiplicities, graded characters, affine levels and "
                    "diagram foldings, over exact rationals.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("roots", help="root datum tables")
    _add_type_rank(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_roots)

    sub = subs.add_parser("weyl", help="enumerate Weyl group elements")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--length", type=int, default=None)
    sub.set_defaults(handler=_cmd_weyl)

    sub = subs.add_parser("kl", help="Kazhdan-Lusztig polynomials")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--y", default=None, metavar="WORD")
    sub.add_argument("--w", default=None, metavar="WORD")
    sub.add_argument("--table", action="store_true",
                     help="print the full table instead of one pair")
    sub.add_argument("--length", type=int, default=None,
                     help="length bound for --table")
    sub.set_defaults(handler=_cmd_kl)

    sub = subs.add_parser("endoscopy",
                          help="integral subsystem of a rational coweight")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--lambda", dest="lam", required=True, metavar="MU/N")
    sub.set_defaults(handler=_cmd_endoscopy)

    sub = subs.add_parser("strata", help="stratification index set")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--lambda", dest="lam", required=True, metavar="MU/N")
    sub.add_argument("--alpha", default=None, metavar="VEC",
                     help="keep strata of degree componentwise below this")
    sub.set_defaults(handler=_cmd_strata)

    sub = subs.add_parser("multiplicity",
                          help="Verma-to-simple multiplicity matrix")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--lambda", dest="lam", required=True, metavar="MU/N")
    sub.set_defaults(handler=_cmd_multiplicity)

    sub = subs.add_parser("character",
                          help="graded partition series / simple characters")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--lambda", dest="lam", default=None, metavar="MU/N")
    sub.add_argument("--depth", type=int, default=None,
                     help="height bound for the graded series")
    sub.add_argument("--w", default=None, metavar="WORD",
                     help="index element naming the simple module")
    sub.add_argument("--alpha", default=None, metavar="VEC",
                     help="weight drop below the highest weight")
    sub.set_defaults(handler=_cmd_character)

    sub = subs.add_parser("affine", help="affine level classification")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--lambda", dest="lam", required=True, metavar="MU/N")
    sub.add_argument("--level", type=int, default=None, metavar="NUM",
                     help="level numerator over the coweight's denominator")
    sub.add_argument("--pair", default=None, metavar="A,B",
                     help="explicit loop/level pair instead of --level")
    sub.add_argument("--length", type=int, default=None,
                     help="enumerate the singular quotient up to this length")
    sub.add_argument("--alpha", default=None, metavar="VEC:M",
                     help="strata index below this degree "
                          "(finite part, delta multiplicity)")
    sub.set_defaults(handler=_cmd_affine)

    sub = subs.add_parser("fold", help="diagram folding by an automorphism")
    sub.add_argument("--source", required=True, metavar="TYPE",
                     help="simply-laced source, e.g. A3, D4, E6")
    sub.add_argument("--sigma", required=True, metavar="PERM",
                     help="images of the nodes 1..r, comma-separated")
    sub.add_argument("--level", default=None, metavar="K",
                     help="also classify this rational level")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_fold)

    sub = subs.add_parser("oracle-check",
                          help="compare the multiplicity matrix against the "
                               "brute-force realization (rank <= 2)")
    _add_type_rank(sub)
    _add_format(sub)
    sub.add_argument("--lambda", dest="lam", required=True, metavar="MU/N")
    sub.add_argument("--depth", type=int, default=None)
    sub.set_defaults(handler=_cmd_oracle_check)

    sub = subs.add_parser("cache", help="manage the KL polynomial cache")
    sub.add_argument("action", choices=("show", "export", "import"))
    sub.add_argument("--output", default=None)
    sub.add_argument("--input", default=None)
    sub.set_defaults(handler=_cmd_cache)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if output:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader went away: point stdout at devnull so that the
            # interpreter's flush at exit does not fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

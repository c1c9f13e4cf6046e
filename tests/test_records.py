"""The library's seven records are immutable values: equal and hashed by
their values (a root datum by its type and rank alone), refusing assignment
and deletion with ``AttributeError``, validating what they are built from,
and keeping their reprs.  The checks raise instead of asserting, so
:func:`check_records` runs under ``python -O`` as well."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

from weylkl.affine import AffineCoweight, affine_endoscopy
from weylkl.coxeter import weyl_system
from weylkl.endoscopy import stratify
from weylkl.folding import fold
from weylkl.rootdata import RationalCoweight, build_root_datum


def _require(condition, what):
    if not condition:
        raise AssertionError(what)


def _raises(error, action, match=""):
    try:
        action()
    except error as exc:
        _require(match in str(exc), f"{exc!r} does not say {match!r}")
    else:
        raise AssertionError(f"no {error.__name__} from {action}")


def _rebuilt(record):
    """A new record of the same class, through its constructor."""
    cls = type(record)
    return cls(**{name: getattr(record, name) for name in cls.__slots__})


def _check_record(record, other):
    """``record`` against a copy of itself and ``other``, a record of its
    class with different values."""
    name = type(record).__name__
    copy_ = _rebuilt(record)
    _require(copy_ is not record and copy_ == record and not copy_ != record,
             f"{name}: a copy is not equal")
    _require(hash(copy_) == hash(record), f"{name}: a copy hashes differently")
    _require(record != other and not record == other, f"{name}: different values are equal")
    _require(record != tuple(getattr(record, f) for f in type(record).__slots__),
             f"{name}: equal to the tuple of its values")
    for field in type(record).__slots__:
        value = getattr(record, field)
        _raises(AttributeError, lambda: setattr(record, field, None), "cannot assign")
        _raises(AttributeError, lambda: delattr(record, field), "cannot delete")
        _require(getattr(record, field) is value, f"{name}.{field} changed")
    _raises(AttributeError, lambda: setattr(record, "extra", 1))


def check_records():
    b3, c3 = build_root_datum("B", 3), build_root_datum("C", 3)
    _check_record(b3, c3)
    _require(hash(_rebuilt(b3)) == hash(("B", 3)), "RootDatum hashes by type and rank")
    _require(repr(b3) == "RootDatum(B3)", repr(b3))

    lam = RationalCoweight([1, 2], 3)
    _check_record(lam, RationalCoweight((1, 2), 1))
    _require(lam.mu == (1, 2), "RationalCoweight keeps mu as a tuple")
    _require(repr(lam) == "RationalCoweight(1,2/3)", repr(lam))
    _raises(ValueError, lambda: RationalCoweight((1, 2), 0), "denominator must be a positive integer")
    _raises(ValueError, lambda: RationalCoweight((1, 2), 1.0), "denominator must be a positive integer")
    _raises(ValueError, lambda: RationalCoweight((1, 0.5), 2), "mu must be a vector of integers")

    system = weyl_system(b3)
    w = system.element((1, 2))
    _check_record(w, system.element((2, 1)))
    _require(repr(w) == "s1*s2" and repr(system.identity) == "e", repr(w))

    strat = stratify(b3, RationalCoweight((1, 1, 1), 2))
    _check_record(strat, stratify(b3, RationalCoweight((1, 1, 1), 1)))
    _require(stratify(b3, RationalCoweight((1, 1, 1), 2)) == strat, "stratify is a value")

    x = AffineCoweight((1,), (1, -4), 2)
    _check_record(x, AffineCoweight((1,), (1, 4), 2))
    _require(AffineCoweight([1], [1, -4], 2) == x, "AffineCoweight keeps tuples")
    _require(repr(x) == "AffineCoweight(mu=(1,), pair=(1, -4), n=2)", repr(x))
    _raises(ValueError, lambda: AffineCoweight((1,), (1, 0), 0), "denominator must be a positive integer")
    _raises(ValueError, lambda: AffineCoweight((0.5,), (1, 0)), "finite coordinates must be integers")
    _raises(ValueError, lambda: AffineCoweight((1,), (1, 0, 0)), "projection pair must be a pair of integers")
    _raises(ValueError, lambda: AffineCoweight((1,), (1, 0.5)), "projection pair must be a pair of integers")
    _raises(ValueError, lambda: AffineCoweight((1,), (0, 0)), "projection pair must be nonzero")

    a1 = build_root_datum("A", 1)
    affine = affine_endoscopy(a1, x)
    _check_record(affine, affine_endoscopy(a1, AffineCoweight((1,), (1, 4), 2)))
    _require(affine_endoscopy(a1, x) == affine, "affine_endoscopy is a value")

    d4 = build_root_datum("D", 4)
    folding = fold(d4, (3, 2, 4, 1))
    _check_record(folding, fold(d4, (1, 2, 4, 3)))
    _require(repr(folding).startswith("FoldingDatum(source=RootDatum(D4), sigma=(3, 2, 4, 1), d=3,"),
             repr(folding))

    for record in (b3, lam, x, folding):
        _require(pickle.loads(pickle.dumps(record)) == record, f"{record!r} pickles")
        _require(copy.deepcopy(record) == record, f"{record!r} deep-copies")


def test_records_are_immutable_values():
    check_records()


def test_records_are_immutable_values_under_optimize():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = ("import sys\nif not sys.flags.optimize:\n    raise SystemExit('not under -O')\n"
            "import test_records\ntest_records.check_records()")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

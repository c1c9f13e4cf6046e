"""Exact highest-weight combinatorics over finite and affine root systems.

The central pipeline: build a root datum, stratify a rational coweight into
its integral subsystem, and evaluate Kazhdan-Lusztig polynomials into the
Verma-to-simple multiplicity matrix of that stratification, with graded
characters, affine level classifications, diagram foldings, and a
brute-force oracle alongside.

The names below load on first use: ``import weylkl`` imports no submodule,
and ``weylkl.stratify`` imports :mod:`weylkl.endoscopy` (and what it needs)
the first time it is read.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "RationalCoweight": "rootdata",
    "RootDatum": "rootdata",
    "build_root_datum": "rootdata",
    "CoxeterElement": "coxeter",
    "CoxeterSystem": "coxeter",
    "weyl_system": "coxeter",
    "kl_polynomial": "kl",
    "kl_table": "kl",
    "Stratification": "endoscopy",
    "stratify": "endoscopy",
    "multiplicity_matrix": "multiplicity",
    "AffineCoweight": "affine",
    "LevelClass": "affine",
    "affine_endoscopy": "affine",
    "FoldingDatum": "folding",
    "fold": "folding",
    "oracle_multiplicity_matrix": "oracle",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # relative to __package__, which stays "weylkl" when this file is
    # imported under another name
    return getattr(importlib.import_module(f".{source}", __package__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

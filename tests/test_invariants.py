"""The library states its invariants with ``raise``, so they hold under
``python -O``, every global name a function reads is bound, every name a
module imports is used, every private helper and every public name has a
caller (a public name may instead be listed with its reason), and every
module exports only names it defines."""

import ast
import builtins
import importlib
import re
import symtable
from pathlib import Path

import pytest

import weylkl

MODULES = sorted(Path(weylkl.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    assert {"coxeter.py", "kl.py", "endoscopy.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def _unbound_globals(path):
    """(line of the scope, name) for each global name that a function or
    class body of ``path`` reads but that neither the module nor builtins
    bind: a lazy import left out of a handler fails only when it runs."""
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    bound = {sym.get_name() for sym in top.get_symbols()
             if sym.is_assigned() or sym.is_imported()}
    read = {}
    scopes = list(top.get_children())
    while scopes:
        scope = scopes.pop()
        scopes += scope.get_children()
        for sym in scope.get_symbols():
            if sym.is_global() and sym.is_referenced():
                read.setdefault(sym.get_name(), scope.get_lineno())
            if sym.is_declared_global() and sym.is_assigned():
                bound.add(sym.get_name())
    return sorted((line, name) for name, line in read.items()
                  if name not in bound and not hasattr(builtins, name))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_undefined_global_names(path):
    unbound = _unbound_globals(path)
    assert not unbound, f"{path.name}: unbound global names {unbound}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_exported_name_exists(path):
    module = importlib.import_module(f"weylkl.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names {missing} that do not exist"


def _unused_imports(path):
    """(line, name) for each name that ``path`` imports but never reads; a
    name in ``__all__`` or on a ``>>>`` doctest line counts as read."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(getattr(importlib.import_module(f"weylkl.{path.stem}"), "__all__", ()))
    for line in source.splitlines():
        if line.lstrip().startswith(">>>"):
            read |= set(re.findall(r"[A-Za-z_]\w*", line))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name}: imported and never used {unused}"


def _uncalled_names():
    """(module, name) for each module-level name of ``src/weylkl``, private
    (``_name``) or in its module's ``__all__``, that no code in
    ``src/weylkl`` reads outside its own definition."""
    defined, read = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        public = set(getattr(importlib.import_module(f"weylkl.{path.stem}"), "__all__", ()))
        for stmt in tree.body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            defined += [(path.name, name) for name in own
                        if name in public or name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name not in own:
                    read.add(name)
    return sorted((module, name) for module, name in defined if name not in read)


def test_every_private_helper_has_a_caller_in_src():
    uncalled = [(module, name) for module, name in _uncalled_names() if name.startswith("_")]
    assert not uncalled, f"private helpers that nothing in src reads: {uncalled}"


# The public names that nothing in src calls, each with why it stays: the
# benchmark reads it, or it is library API that the README documents.  A
# name that only tests read belongs in tests/reference.py, or nowhere.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
UNCALLED_PUBLIC = {
    ("coxeter.py", "affinization"): "documented API: the README row of weylkl.coxeter",
    ("coxeter.py", "bruhat_leq"): "read by perfbench/",
    ("coxeter.py", "longest_element"): "read by perfbench/",
    ("endoscopy.py", "coweight_orbit_action"): "read by perfbench/",
    ("endoscopy.py", "endoscopic_system"): "read by perfbench/",
    ("endoscopy.py", "indecomposable_indices"): "read by perfbench/",
    ("endoscopy.py", "integral_positive_roots"): "read by perfbench/",
    ("folding.py", "coinvariant_map_a"): "documented API: the README row of weylkl.folding",
    ("kl.py", "kl_mu"): "documented API: the README row of weylkl.kl",
    ("multiplicity.py", "inverse_multiplicity_matrix"):
        "documented API: the README row of weylkl.multiplicity",
    ("multiplicity.py", "multiplicity"): "read by perfbench/",
    ("oracle.py", "singular_vectors"): "documented API: the README row of weylkl.oracle",
}


def test_every_public_name_has_a_caller_in_src_or_a_reason():
    uncalled = [(module, name) for module, name in _uncalled_names() if not name.startswith("_")]
    assert sorted(UNCALLED_PUBLIC) == uncalled
    benchmark = "\n".join(path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py"))
    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    for (module, name), reason in UNCALLED_PUBLIC.items():
        if reason == "read by perfbench/":
            assert re.search(rf"\b{name}\b", benchmark), (module, name, reason)
        else:
            assert f"`{name}`" in readme, (module, name, reason)


# Each module-level cache pins everything it ever returns, so a new one must
# argue in CHANGES.md that it pays for itself, and then join this set.
MODULE_CACHES = {
    "rootdata.build_root_datum", "coxeter.weyl_system", "coxeter.affinization",
    "endoscopy._endoscopic_system", "multiplicity._partition_memo",
}


def _cached_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    yield f"{path.stem}.{node.name}"


def test_module_caches_are_the_argued_five():
    found = [name for path in MODULES for name in _cached_functions(path)]
    assert sorted(found) == sorted(MODULE_CACHES)

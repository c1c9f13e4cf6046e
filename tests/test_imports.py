"""The package loads its names on first use, a command of the CLI loads
only the modules it runs and never ``dataclasses``, and every name the
benchmark imports exists."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkl
from test_cli import _readme_commands

SRC = Path(weylkl.__file__).parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# modules that the roots, weyl and kl commands have no use for
SUBCOMMAND_MODULES = {"weylkl.endoscopy", "weylkl.multiplicity", "weylkl.affine",
                      "weylkl.folding", "weylkl.oracle"}

# dataclasses and what it imports: 5-7 ms of every command's start-up, and
# each frozen dataclass compiles its methods at import
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_after(code):
    """``sys.modules`` after a fresh interpreter runs ``code``, with no
    ``$WEYLKL_CACHE``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WEYLKL_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\nprint(*sorted(sys.modules))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@functools.cache
def _bare():
    return _modules_after("pass")


def loaded_after(code):
    """The modules in ``sys.modules`` after a fresh interpreter runs
    ``code`` that a bare one (``python -c pass``) does not have."""
    return _modules_after(code) - _bare()


def test_import_weylkl_loads_no_submodule():
    assert loaded_after("import weylkl") == {"weylkl"}


@pytest.mark.parametrize("argv", [
    ["kl", "--type", "A", "--rank", "3", "--y", "e", "--w", "2,1,3,2"],
    ["roots", "--type", "B", "--rank", "3"],
    ["weyl", "--type", "A", "--rank", "2", "--format", "json"],
])
def test_cli_command_loads_only_its_modules(argv):
    loaded = loaded_after(f"from weylkl.cli import main\nmain({argv!r})")
    assert "weylkl.kl" in loaded
    assert not loaded & SUBCOMMAND_MODULES


def test_multiplicity_command_loads_what_it_runs():
    argv = ["multiplicity", "--type", "A", "--rank", "2", "--lambda", "1,1/1"]
    loaded = loaded_after(f"from weylkl.cli import main\nmain({argv!r})")
    assert {"weylkl.endoscopy", "weylkl.multiplicity"} <= loaded
    assert not loaded & {"weylkl.affine", "weylkl.folding", "weylkl.oracle"}


def test_cli_imports_no_heavy_module():
    assert loaded_after("import weylkl.cli") & HEAVY_MODULES == set()


def test_readme_commands_import_no_heavy_module():
    """Every README command, run in one interpreter, leaves out
    ``dataclasses`` and the modules it would bring."""
    commands = _readme_commands()
    code = f"from weylkl.cli import main\nfor argv in {commands!r}:\n    assert main(argv) == 0, argv"
    assert loaded_after(code) & HEAVY_MODULES == set()


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(weylkl)
    for name in weylkl.__all__:
        assert getattr(weylkl, name).__name__ == name
        assert name in listed
    namespace = {}
    exec("from weylkl import *", namespace)
    assert set(weylkl.__all__) <= set(namespace)
    assert weylkl.__version__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylkl.no_such_name
    assert not hasattr(weylkl, "no_such_name")


def _resolve(module, name):
    """``module.name``: an attribute, or else a submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def _benchmark_names(path):
    """(line, module, name) for each name that ``path`` takes from weylkl: the
    names of ``from weylkl... import`` and the attributes read on a name such
    an import (or ``import weylkl...``) binds to a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weylkl":
            for alias in node.names:
                names.append((node.lineno, node.module, alias.name))
                if SRC.joinpath(*node.module.split("."), f"{alias.name}.py").is_file():
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.split(".")[0] == "weylkl":
                    modules[alias.asname] = alias.name
                elif alias.name.split(".")[0] == "weylkl":
                    modules["weylkl"] = "weylkl"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((node.lineno, modules[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_every_name_the_benchmark_imports_resolves(path):
    """The benchmark may not change with the library, so a name it reads can
    leave ``src`` only together with a benchmark change."""
    missing = []
    for line, module, name in _benchmark_names(path):
        try:
            _resolve(module, name)
        except (AttributeError, ImportError):
            missing.append(f"line {line}: {module}.{name}")
    assert not missing, f"{path.name} reads names that do not exist: {missing}"


def test_the_benchmark_names_include_what_make_reference_imports():
    found = {(module, name) for _line, module, name
             in _benchmark_names(PERFBENCH / "make_reference.py")}
    assert ("weylkl.endoscopy", "coweight_orbit_action") in found
    found = {(module, name) for _line, module, name in _benchmark_names(PERFBENCH / "worker.py")}
    assert ("weylkl.affine", "affine_strata_index") in found

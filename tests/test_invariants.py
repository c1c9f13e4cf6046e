"""The library states its invariants with ``raise``, so they hold under
``python -O``, and every module exports only names it defines."""

import ast
import importlib
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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_exported_name_exists(path):
    module = importlib.import_module(f"weylkl.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names {missing} that do not exist"

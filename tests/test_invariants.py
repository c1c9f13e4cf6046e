"""The library states its invariants with ``raise``, so they hold under ``python -O``."""

import ast
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

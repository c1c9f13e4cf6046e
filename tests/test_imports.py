"""The package loads its names on first use, and a command of the CLI loads
only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkl

SRC = Path(weylkl.__file__).parents[1]

# modules that the roots, weyl and kl commands have no use for
SUBCOMMAND_MODULES = {"weylkl.endoscopy", "weylkl.multiplicity", "weylkl.affine",
                      "weylkl.folding", "weylkl.oracle"}


def loaded_after(code):
    """The ``weylkl`` modules in ``sys.modules`` after a fresh interpreter
    runs ``code``."""
    probe = code + "\nprint(*sorted(m for m in sys.modules if m.startswith('weylkl')))"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


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

"""Test modules import the reference implementations of ``reference.py``
by name, so this directory goes on ``sys.path`` under any import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

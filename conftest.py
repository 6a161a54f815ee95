"""Puts this checkout's ``src`` at the end of ``sys.path``, after every
``PYTHONPATH`` entry, so ``PYTHONPATH=<tree>/src pytest`` tests that tree.

Also loads the one Hypothesis profile: the same examples on every run, no
example database, and Hypothesis's other files (a cache of the constants it
reads from the sources) in a temporary directory removed at exit, so tests
write no ``.hypothesis/`` directory."""

import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.append(str(Path(__file__).resolve().parent / "src"))

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
settings.register_profile(
    "treepack", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("treepack")

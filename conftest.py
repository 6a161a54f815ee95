"""Puts this checkout's ``src`` at the end of ``sys.path``, after every
``PYTHONPATH`` entry, so ``PYTHONPATH=<tree>/src pytest`` tests that tree."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent / "src"))

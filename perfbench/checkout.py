"""Locate the repository checkout the benchmark runs from."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")


def use_source() -> None:
    """Import namechain from this checkout's src/ and nowhere else; exit if absent."""
    if not os.path.isfile(os.path.join(SRC, "namechain", "__init__.py")):
        sys.exit(f"perfbench: no namechain package under {SRC}")
    sys.path.insert(0, SRC)
    import namechain

    if os.path.dirname(os.path.dirname(os.path.abspath(namechain.__file__))) != SRC:
        sys.exit(f"perfbench: namechain imported from {namechain.__file__}, not {SRC}")
    os.makedirs(RUN_DIR, exist_ok=True)


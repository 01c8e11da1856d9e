"""perfbench: the repo's host-time benchmark (see perfbench/README.md).

Everything here measures ``src/repro`` from outside, through its public
functions; nothing under ``src/`` knows perfbench exists.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` — and to
    nothing else: benchmarking some other installed copy would be a lie."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program to measure at {SRC}/repro")
    src = str(SRC)
    if sys.path[0] != src:
        sys.path.insert(0, src)

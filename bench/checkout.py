"""Locate the package source of the checkout this benchmark sits in.

The benchmark measures the ``codedlat`` under ``src/`` next to its own
directory, never an installed copy; with no source there it stops.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit nonzero."""
    if not (SRC / "codedlat" / "__init__.py").is_file():
        sys.exit(f"bench: no codedlat package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import codedlat

    if Path(codedlat.__file__).resolve().parent != SRC / "codedlat":
        sys.exit(f"bench: imported codedlat from {codedlat.__file__}, not from {SRC}")

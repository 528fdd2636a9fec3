"""pyproject's `pythonpath = ["src"]` makes `ngd` importable inside the
pytest process; this puts the same directory on PYTHONPATH for the
`python -m ngd.cli` subprocesses the CLI tests start, so a fresh checkout
runs `python -m pytest` without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

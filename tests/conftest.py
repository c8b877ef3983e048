"""Interpreters the tests spawn (``python -m lscs.cli``, ``python -c``) import
``lscs`` from this checkout's ``src``, as the tests themselves do through
``pythonpath`` in ``pyproject.toml``."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

"""Let subprocesses that run ``python -m pstlab`` import the sources too.

``pythonpath = ["src"]`` in pyproject.toml reaches only the pytest process;
a child interpreter reads ``PYTHONPATH`` from its environment instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
)

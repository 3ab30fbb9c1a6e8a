"""The ``pstlab`` process entry, for ``python -m pstlab`` and the console
script alike.

At exit the interpreter runs a full cyclic collection over every object
still tracked, some 22k of them once numpy is imported, which costs about
20 ms per invocation.  A finished run has nothing left for it to reclaim:
the report is written and flushed, and every file it writes is closed by a
``with`` block.  So `run` freezes the collector after `cli.main` returns,
moving the surviving objects where the exit-time collections skip them.
The freeze stays here, where the process ends: `cli.main` leaves the
collector as it found it, so tests and library callers that run it in
process never see frozen objects.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command named by ``sys.argv``, then freeze the collector."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())

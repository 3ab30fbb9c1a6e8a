"""The ``pstlab`` process entry, for ``python -m pstlab`` and the console
script alike.

`run` turns the cyclic collector off while `cli.main` runs.  A numeric
command imports numpy and the numeric modules there, and the allocations
of those imports set off some 35 collections (nearly all of generation 0),
about 7 ms per invocation, that reclaim only a few hundred objects.  What
a run leaves unreachable is small too: some 580 objects, about 78 kB,
mostly argparse's parser cycles and import leftovers of ``datetime`` and
``enum``.  The process ends right after the run, so leaving them in place
costs a little resident memory and no time.

At exit the interpreter runs a full cyclic collection over every object
still tracked, some 22k of them once numpy is imported, which costs about
20 ms per invocation.  A finished run has nothing left for it to reclaim:
the report is written and flushed, and every file it writes is closed by a
``with`` block.  So `run` freezes the collector after `cli.main` returns,
moving the surviving objects where the exit-time collections skip them,
and then restores the enabled state it found.  Both stay here, where the
process ends: `cli.main` leaves the collector as it found it, so tests
and library callers that run it in process never see frozen objects or a
disabled collector.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command named by ``sys.argv`` with the cyclic collector
    off, then freeze the collector and restore its enabled state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        status = main()
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    return status


if __name__ == "__main__":
    sys.exit(run())

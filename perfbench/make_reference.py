"""Rewrite the stored default-seed reference reports that max_abs_dev compares to.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's invocations once at DEFAULT_SEED and refuses to store a
report that fails its gate.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE_DIR, gate, pin_threads, require_sources, spawn
from workloads import DEFAULT_SEED, WORKLOADS


def main(names: list[str]) -> int:
    pin_threads()
    require_sources()
    for name in names or sorted(WORKLOADS):
        reports = []
        for inv in WORKLOADS[name](DEFAULT_SEED):
            child = spawn(["-m", "pstlab", *inv.argv])
            reason = gate(inv, child.returncode, child.stdout)
            if reason is not None:
                print(f"{name}: pstlab {' '.join(inv.argv)}: {reason}", file=sys.stderr)
                return 1
            reports.append({"argv": list(inv.argv), "stdout": child.stdout})
        path = REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "reports": reports}, indent=1) + "\n")
        print(f"wrote {path.relative_to(REFERENCE_DIR.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

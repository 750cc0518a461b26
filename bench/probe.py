"""Fresh-interpreter set-up probe for one workload.

Usage: python3 bench/probe.py WORKLOAD SEED OUT_DIR

Imports ``opfdiag.cli``, generates and loads the workload's input, then
prints ``ready <time.monotonic()>``. The parent subtracts its spawn time to
get the set-up time a CLI user pays on every call.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(SRC))
    import opfdiag.cli  # noqa: F401  (the import is part of set-up)

    import workloads
    inputs = workloads.prepare(workloads.WORKLOADS[name], seed, out_dir)
    workloads.load_input(inputs)
    print(f"ready {time.monotonic()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

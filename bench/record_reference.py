#!/usr/bin/env python3
"""Record the verdict reference that bench/run.py checks operations against.

Usage (from the repository root):

    python3 bench/record_reference.py [SEED ...]

Runs each workload's operation once per seed (default: 0-31 and 42)
through ``opfdiag.cli.main``, applies the structural verdict checks and
writes ``bench/reference.json``. Record it only from a commit whose
verdicts are trusted; a change that moves a verdict must not re-record.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # fixes BLAS threads before numpy is imported
import workloads

DEFAULT_SEEDS = (*range(32), 42)


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(DEFAULT_SEEDS)
    sys.path.insert(0, str(run.SRC))
    import tracing

    work = run.OUT / "reference"
    reference: dict = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            entries = reference.setdefault(name, {})
            for seed in seeds:
                runner = run.Runner(
                    workloads.prepare(workload, seed, work / name), None)
                with tracing.Instrument(traced=False) as inst:
                    runner.run(inst)
                if runner.failed:
                    print(f"{name} seed {seed}: {runner.problems}",
                          file=sys.stderr)
                    return 1
                entries[str(seed)] = workloads.reference_entry(
                    workload, runner.expected)
                print(f"{name} seed {seed}: {entries[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

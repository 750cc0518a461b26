#!/usr/bin/env python3
"""opfdiag benchmark: one workload through the real CLI entry point.

Usage (from the repository root):

    python3 bench/run.py --workload mc-ex1 --seed 42 --seconds 30 --trace 0

Load is closed-loop from this one process: ``opfdiag.cli.main(argv)`` runs
one operation at a time, a warm-up first, then as many as fit in
``--seconds`` (at least three). Every operation's exit code and verdict are
checked against the recorded reference for the seed, or against the run's
first operation when the seed has none.

``--trace 0`` prints the end-to-end metrics: operation wall time, trials per
second, set-up time of a fresh interpreter (one before each operation),
report bytes, and peak memory after set-up and the warm-up operation.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics and the tracing overhead. The last line of standard output is one JSON object; a full
result with an environment record is written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported, here and in every
# set-up probe (they inherit the environment).
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 3
MIN_TRACE_PAIRS = 2
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"check_s": "s", "trials_per_s": "1/s", "setup_s": "s",
                    "report_mb": "MB", "peak_rss_mb": "MB"}
# Layer times that are zero by construction on some workload (the KKT solve
# runs only in a check, the perturb layer and the fixtures only in a sweep,
# case parsing only for --case) stay off the last line; they are printed
# above it and kept in the result file.
OFF_LAST_LINE = ("cqkit.kkt_s", "netmodel.load_case_s", "cases.builtin_s",
                 "perturb.apply_parameters_s", "perturb.trial_s",
                 "perturb.hypothesis_s", "trace.op_s")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_gflop"):
        return "GFLOP"
    return "count"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "workload_seed": seed,
    }


def probe_setup(name: str, seed: int, out_dir: Path) -> float:
    """Seconds from spawning bench/probe.py to its ready line."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), name, str(seed), str(out_dir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return float(lines[0].split()[1]) - start


class Runner:
    """Runs and checks the operations of one benchmark run.

    Each verdict is compared with ``expected``: the recorded reference for
    the seed or, when there is none, the verdict of the first operation.
    """

    def __init__(self, inputs: workloads.Inputs, reference: dict | None):
        self.inputs = inputs
        self.expected = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes: list[int] = []

    def run(self, inst) -> float | None:
        """One operation; its wall time, or None when it raised. An
        operation with a wrong exit code or verdict is timed and counted
        as failed."""
        self.attempted += 1
        inst.sweeps.clear()
        start = time.perf_counter()
        try:
            code = inst.operation(self.inputs.argv)
        except Exception as exc:  # an uncaught exception is a failed operation
            self.failed += 1
            self.problems.append(f"raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        nonconv = (workloads.nonconverged(inst.sweeps[-1])
                   if inst.sweeps else None)
        got = workloads.verdict(self.inputs, code, nonconv)
        errs = workloads.problems(self.inputs, got, self.expected)
        if self.expected is None:
            self.expected = got
        if errs:
            self.failed += 1
            self.problems.extend(errs)
        else:
            self.report_bytes.append(workloads.report_bytes(self.inputs))
        return elapsed


def end_to_end(runner: Runner, workload, seed: int, work: Path,
               seconds: float, tracing) -> dict:
    times: list[float] = []
    setups: list[float] = []
    with tracing.Instrument(traced=False) as inst:
        runner.run(inst)  # warm-up
        # One set-up and one operation, so the peak is not a function of how
        # many operations fit in the run.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(times) < MIN_OPS:
            # Set-up samples are spread over the run like the operations, so
            # both see the same phases of the machine's load.
            setups.append(probe_setup(workload.name, seed, work / "probe"))
            elapsed = runner.run(inst)
            if elapsed is None:
                break
            times.append(elapsed)
    if not times:
        return {}
    return {
        "check_s": statistics.median(times),
        "trials_per_s": len(times) * (workload.trials or 1) / sum(times),
        "setup_s": statistics.median(setups),
        "report_mb": statistics.median(runner.report_bytes or [0]) / 1e6,
        "peak_rss_mb": peak_rss / 1e6,
        "samples": {"op_s": times, "setup_s": setups},
    }


def per_layer(runner: Runner, seconds: float, tracing, trace_path: Path) -> dict:
    plain_inst = tracing.Instrument(traced=False)
    traced_inst = tracing.Instrument(traced=True)
    plain: list[float] = []
    traced: list[float] = []
    with plain_inst:
        runner.run(plain_inst)  # warm-up
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(plain) < MIN_TRACE_PAIRS
           or len(traced) < MIN_TRACE_PAIRS):
        # Alternate, so drift in the machine's load hits both sides alike.
        inst, times = ((plain_inst, plain) if len(plain) <= len(traced)
                       else (traced_inst, traced))
        with inst:
            elapsed = runner.run(inst)
        if elapsed is None:
            break
        times.append(elapsed)
    if not traced or not plain:
        return {}
    trace_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op", "attrs"],
         "spans": traced_inst.spans}))
    metrics = tracing.layer_metrics(traced_inst.spans, plain)
    metrics["samples"] = {"plain_op_s": plain, "traced_op_s": traced}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opfdiag" / "cli.py").is_file():
        print(f"error: no opfdiag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing  # imports opfdiag from SRC

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    reference = workloads.load_reference().get(workload.name, {}).get(str(args.seed))
    runner = Runner(workloads.prepare(workload, args.seed, work), reference)
    env = environment(args.seed)
    try:
        if args.trace:
            metrics = per_layer(runner, args.seconds, tracing,
                                OUT / f"spans-{tag}.json")
            units = {name: layer_unit(name) for name in metrics
                     if name != "samples" and name not in OFF_LAST_LINE}
        else:
            metrics = end_to_end(runner, workload, args.seed, work,
                                 args.seconds, tracing)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        runner.problems.append("no operation completed")
    error_rate = runner.failed / runner.attempted if runner.attempted else 1.0
    correct = not runner.problems and runner.attempted > 0
    result = {
        "workload": workload.name,
        "reference": "recorded" if reference else "first operation",
        "env": env,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": error_rate,
        "problems": runner.problems,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))

    print("env " + json.dumps(env))
    print(f"{workload.name} seed {args.seed}: {runner.attempted} operations, "
          f"{runner.failed} failed, verdicts checked against the "
          f"{result['reference']}")
    for problem in list(dict.fromkeys(runner.problems))[:20]:
        print(f"  problem: {problem}")
    print(f"  error_rate {error_rate:.6g} ratio")
    for name, value in metrics.items():
        if name != "samples":
            unit = units.get(name) or layer_unit(name)
            print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

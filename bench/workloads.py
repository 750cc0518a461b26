"""Benchmark workloads: their inputs, the CLI call each one repeats, and the
verdict checks applied to every operation.

Each workload is one ``opfdiag`` command line. Its inputs come only from
the benchmark seed; the program receives the generated case documents
through ``--case`` (or a built-in fixture name) and nothing else.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import grid

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance on a reported sigma_min against the reference or the
# first operation of the run. The margin comes out of a dense SVD whose
# last digits depend on the BLAS kernel and thread count.
SIGMA_RTOL = 1e-9
# The CLI solves to pf_tol = 1e-10 on its own residual; the benchmark's
# recomputation sums in another order, so it gets a factor two of slack.
FLOW_RESIDUAL_MAX = 2e-10

EXIT_OK = 0
EXIT_LICQ_FAILS = 3

# Verdict fields compared exactly against the reference; a check also
# compares sigma_min to SIGMA_RTOL.
CHECK_KEYS = ("exit", "licq_holds", "numerical_rank", "m", "n_free", "face",
              "classification", "family_dim")
SWEEP_KEYS = ("exit", "trials", "feasible_count", "licq_pass_count",
              "nonconverged")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    trials: int = 0
    grid_side: int = 0
    shunts: bool = False

    @property
    def is_check(self) -> bool:
        return self.command == "check"


WORKLOADS = {w.name: w for w in (
    Workload("mc-ex1", "perturb", trials=1000),
    Workload("mc-grid", "perturb", trials=200, grid_side=8, shunts=True),
    Workload("check-grid", "check", grid_side=24),
)}


@dataclass
class Inputs:
    """Everything one run of a workload needs, generated from its seed."""

    workload: Workload
    argv: list[str]
    report: Path
    case: Path | None
    doc: dict | None

    @property
    def report_files(self) -> list[Path]:
        if self.workload.is_check:
            return [self.report]
        return [self.report, self.report.with_suffix(".csv")]


def prepare(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Generate the workload's input files under ``out_dir`` and return the
    CLI arguments of one operation, which writes its report there too."""
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "report.json"
    case = doc = None
    if workload.grid_side:
        doc = grid.grid_case(workload.grid_side, seed, shunts=workload.shunts)
        case = out_dir / "case.json"
        case.write_text(json.dumps(doc))
        source = ["--case", str(case)]
    else:
        source = ["--builtin", "ex1"]
    if workload.is_check:
        argv = ["check", *source, "--out", str(report)]
    else:
        model = "shunt" if workload.shunts else "load"
        argv = ["perturb", *source, "--model", model,
                "--trials", str(workload.trials), "--seed", str(seed),
                "--out", str(report)]
    return Inputs(workload, argv, report, case, doc)


def load_input(inputs: Inputs):
    """What a fresh CLI process loads before it can work: the fixture, or
    the parsed case document."""
    from opfdiag import cases, netmodel
    if inputs.doc is None:
        return cases.builtin("ex1")
    return netmodel.load_case(inputs.case.read_text())


def report_bytes(inputs: Inputs) -> int:
    return sum(p.stat().st_size for p in inputs.report_files)


def nonconverged(sweep) -> int:
    """Trials of a GenericityReport whose power flow did not converge."""
    return sum(not rec.converged for rec in sweep.records)


def verdict(inputs: Inputs, exit_code: int,
            nonconverged_count: int | None = None) -> dict:
    """Verdict of one operation, read from the report files it wrote.

    The report files do not separate non-converged from infeasible trials,
    so a sweep's non-converged count is passed in, taken from the
    GenericityReport the operation computed.
    """
    out: dict = {"exit": exit_code}
    if exit_code not in (EXIT_OK, EXIT_LICQ_FAILS):
        return out
    rep = json.loads(inputs.report.read_text())
    if inputs.workload.is_check:
        out.update(
            licq_holds=rep["cq"]["licq_holds"],
            numerical_rank=rep["cq"]["numerical_rank"],
            m=rep["cq"]["m"],
            n_free=rep["cq"]["n_free"],
            face=rep["cq"]["face"],
            classification=rep["kkt"]["classification"],
            family_dim=rep["kkt"]["family_dim"],
            sigma_min=rep["cq"]["sigma_min"],
            flow_residual=grid.flow_residual(inputs.doc, rep["state"]),
        )
        return out
    with inputs.report.with_suffix(".csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    out.update(
        trials=rep["trials"],
        feasible_count=rep["feasible_count"],
        licq_pass_count=rep["licq_pass_count"],
        csv_rows=len(rows),
        csv_feasible=sum(r["feasible"] == "1" for r in rows),
        csv_licq_pass=sum(r["licq"] == "1" for r in rows),
        nonconverged=nonconverged_count,
    )
    return out


def problems(inputs: Inputs, got: dict, expected: dict | None) -> list[str]:
    """Everything wrong with one operation's verdict; empty when correct.

    ``expected`` is the recorded reference for this seed or, failing that,
    the verdict of the run's first operation (which must itself pass the
    structural checks below).
    """
    w = inputs.workload
    errs: list[str] = []
    if got["exit"] not in (EXIT_OK, EXIT_LICQ_FAILS):
        return [f"exit code {got['exit']}"]
    if w.is_check:
        n = len(inputs.doc["buses"])
        if got["exit"] != (EXIT_OK if got["licq_holds"] else EXIT_LICQ_FAILS):
            errs.append(f"exit {got['exit']} disagrees with licq_holds")
        if got["licq_holds"] != (got["numerical_rank"] == got["m"]):
            errs.append("licq_holds disagrees with rank/m")
        if got["m"] != 2 * n + len(got["face"]):
            errs.append(f"stack has {got['m']} rows, expected 2N + |face|")
        if not got["flow_residual"] <= FLOW_RESIDUAL_MAX:
            errs.append(f"flow residual {got['flow_residual']:.3e} of the "
                        "reported state")
    else:
        if got["exit"] != EXIT_OK:
            errs.append(f"perturb exit {got['exit']}")
        if got["trials"] != w.trials or got["csv_rows"] != w.trials:
            errs.append("trial count in the report")
        if (got["csv_feasible"], got["csv_licq_pass"]) != (
                got["feasible_count"], got["licq_pass_count"]):
            errs.append("CSV and JSON counts disagree")
        if got["nonconverged"] is None or (
                got["nonconverged"] + got["feasible_count"] > w.trials):
            errs.append("non-converged count")
    if expected is not None:
        for key in CHECK_KEYS if w.is_check else SWEEP_KEYS:
            if got.get(key) != expected.get(key):
                errs.append(f"{key} = {got.get(key)!r}, "
                            f"reference {expected.get(key)!r}")
        if w.is_check and not math.isclose(got["sigma_min"],
                                           expected["sigma_min"],
                                           rel_tol=SIGMA_RTOL):
            errs.append(f"sigma_min {got['sigma_min']!r}, "
                        f"reference {expected['sigma_min']!r}")
    return errs


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_entry(workload: Workload, got: dict) -> dict:
    """The part of a verdict recorded as reference."""
    keys = CHECK_KEYS + ("sigma_min",) if workload.is_check else SWEEP_KEYS
    return {k: got[k] for k in keys}

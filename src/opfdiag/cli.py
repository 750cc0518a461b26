"""Command-line frontend: ybus, check, perturb, sweep and repro subcommands.

Exit codes are a stable contract: 0 ok / qualification holds, 2 input
error, 3 qualification fails, 4 infeasible point, 5 reproduction
mismatch. Reports are JSON-first; check and perturb embed their tolerances.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cases as fixtures
from . import constraints as con
from . import cqkit, perturb
from ._jsontext import dumps
from .netmodel import Case, CaseError, build_ybus, finite_number, load_case
from .powerflow import (PowerFlowError, pf_residual, state_from_list,
                        solve_power_flow)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LICQ_FAILS = 3
EXIT_INFEASIBLE = 4
EXIT_REPRO_MISMATCH = 5

def _finite(text: str) -> float:
    value = finite_number(float(text))
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _emit(payload: dict, out: str | None) -> None:
    text = dumps(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _system_tols(args) -> dict:
    """Tolerances given on the command line; ConstraintSystem's fill the rest."""
    return {f.name: getattr(args, f.name) for f in fields(con.ConstraintSystem)
            if getattr(args, f.name, None) is not None}


def _fixture(name: str | None, alpha: float | None):
    """The named built-in fixture, None for a case file. ``--alpha`` shapes
    only ex1, where it defaults to 1.0; for any other input it is an error."""
    if alpha is not None and name != "ex1":
        raise CaseError("--alpha applies only to the ex1 fixture")
    if name is None:
        return None
    return fixtures.builtin(name, alpha=1.0 if alpha is None else alpha)


def _load_input(args) -> tuple[Case, "fixtures.FixtureBundle | None"]:
    if args.case and args.builtin:
        raise CaseError("give either --case or --builtin, not both")
    if not (args.case or args.builtin):
        raise CaseError("one of --case or --builtin is required")
    fix = _fixture(args.builtin, args.alpha)
    if fix is None:
        return load_case(Path(args.case).read_text()), None
    return fix.case, fix


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", help="path to a JSON case document")
    parser.add_argument("--builtin", choices=fixtures.BUILTIN_NAMES,
                        help="built-in fixture name")
    parser.add_argument("--alpha", type=_positive,
                        help="coupling parameter of the ex1 fixture "
                             "(default 1.0; rejected for other inputs)")
    parser.add_argument("--out", help="write the JSON report to this path")


def _add_tolerances(parser: argparse.ArgumentParser, *, stat_tol: bool) -> None:
    # Unset tolerances keep the defaults of ConstraintSystem.
    parser.add_argument("--act-tol", type=_positive)
    parser.add_argument("--eq-tol", type=_positive)
    parser.add_argument("--pf-tol", type=_positive,
                        help="power-flow mismatch tolerance (default "
                             f"{con.ConstraintSystem.pf_tol:g})")
    if stat_tol:
        parser.add_argument("--stat-tol", type=_positive)
    parser.add_argument("--rank-tol-scale", type=_positive,
                        dest="rank_ulp_scale",
                        help="ulp scale of the relative rank tolerance")


def cmd_ybus(args) -> int:
    case, _ = _load_input(args)
    G, B = build_ybus(case.network)
    _emit({"G": G.tolist(), "B": B.tolist()}, args.out)
    return EXIT_OK


def _parse_perturb_load(spec: str, n_bus: int) -> tuple[int, float]:
    try:
        bus_text, delta_text = spec.split(":", 1)
        bus = int(bus_text)
        delta = _finite(delta_text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise CaseError(f"--perturb-load expects BUS:DELTA with a finite "
                        f"DELTA, got {spec!r}") from exc
    if not 0 <= bus < n_bus:
        raise CaseError(f"--perturb-load bus {bus} does not exist")
    return bus, delta


def cmd_check(args) -> int:
    case, fix = _load_input(args)
    if args.perturb_load:
        bus, delta = _parse_perturb_load(args.perturb_load, case.network.n_bus)
        case = perturb.shift_load(case, bus, delta)
    cs = con.system_for_case(case, **_system_tols(args))
    if args.state:
        try:
            values = json.loads(Path(args.state).read_text())
        except ValueError as exc:
            raise CaseError(f"--state: invalid JSON ({exc})") from exc
        state = state_from_list(values, case.network)
    elif fix is not None and args.perturb_load:
        state, _ = perturb.nearest_feasible_point(cs, fix.ground_truth)
        if state is None:
            raise con.InfeasiblePointError(
                "no feasible point found near the fixture state")
    elif fix is not None:
        state = fix.ground_truth
    else:
        try:
            state = solve_power_flow(case.network, case.gen_p, case.gen_q,
                                     pf_tol=cs.pf_tol).state
        except PowerFlowError as exc:
            raise con.InfeasiblePointError(
                f"power flow failed: {exc}") from exc
    cq = cqkit.licq_check(cs, state, case.cost)
    _emit({
        "tolerances": cs.tolerances,
        "state": state.flat().tolist(),
        "cq": cq.to_dict(jacobian=args.emit_jacobian),
        "kkt": cq.kkt.to_dict(),
    }, args.out)
    return EXIT_OK if cq.licq_holds else EXIT_LICQ_FAILS


def _seed(args) -> int:
    """``--seed``, else the CQA_SEED environment variable as it reads when
    perturb runs, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("CQA_SEED", "0")
    try:
        return int(text)
    except ValueError:
        args.error(f"argument --seed: invalid int value: {text!r}")


def cmd_perturb(args) -> int:
    seed = _seed(args)
    case, fix = _load_input(args)
    model = perturb.make_model(args.model, case)
    report = perturb.run_genericity_experiment(
        case, model, trials=args.trials, seed=seed, **_system_tols(args))
    if args.format == "csv":
        text = report.to_csv()
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return EXIT_OK
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        Path(args.out).with_suffix(".csv").write_text(report.to_csv())
    else:
        print(report.to_json())
    return EXIT_OK


def cmd_sweep(args) -> int:
    fix = fixtures.example1(args.alpha)
    grid = sorted({0.0, *args.deltas, *(-d for d in args.deltas)})
    rows = perturb.tangency_escape_probe(fix.case, fix.ground_truth, grid,
                                         direction=args.direction)
    _emit({"alpha": args.alpha, "direction": args.direction,
           "rows": [row.to_dict() for row in rows]}, args.out)
    return EXIT_OK


def _norm_angle(u: np.ndarray, w: np.ndarray) -> float:
    un = u / np.linalg.norm(u)
    wn = w / np.linalg.norm(w)
    cross = abs(un[0] * wn[1] - un[1] * wn[0])
    return math.asin(min(1.0, cross))


def _repro_ex1(fix) -> tuple[list[tuple[str, bool, str]], str, dict]:
    checks: list[tuple[str, bool, str]] = []
    res = np.abs(pf_residual(fix.case.network, fix.ground_truth)).max()
    checks.append(("flow residual at the operating point <= 1e-12",
                   res <= 1e-12, f"|F|_inf = {res:.3e}"))
    cq = cqkit.licq_check(fix.system, fix.ground_truth, fix.case.cost)
    kkt = cq.kkt
    checks.append((f"active stack rank {fix.expected['rank']}/{fix.expected['m']}",
                   cq.numerical_rank == fix.expected["rank"]
                   and cq.m == fix.expected["m"] and not cq.licq_holds,
                   f"rank {cq.numerical_rank}/{cq.m}, sigma_min {cq.sigma_min:.3e}"))
    checks.append(("multiplier family is a ray",
                   kkt.classification is cqkit.Classification.RAY,
                   f"classification {kkt.classification.value}"))
    vertex_err = float(np.abs(kkt.particular
                              - np.array(fix.expected["ray_vertex"])).max())
    checks.append(("ray vertex matches to 1e-8", vertex_err <= 1e-8,
                   f"max err {vertex_err:.3e}"))
    dir_label = "ray direction proportional to expected to 1e-8"
    row = fix.expected["price_row"]
    bound = fix.expected["price_upper_bound"]
    price_label = f"nodal price multiplier interval is (-inf, {bound}]"
    if kkt.classification is not cqkit.Classification.RAY:
        # no ray, so no direction to compare: both checks fail
        detail = f"classification {kkt.classification.value}, no ray direction"
        checks += [(dir_label, False, detail), (price_label, False, detail)]
    else:
        want = np.array(fix.expected["ray_direction"])
        have = kkt.ray_direction
        dir_err = float(np.abs(have / np.linalg.norm(have)
                               - want / np.linalg.norm(want)).max())
        checks.append((dir_label, dir_err <= 1e-8, f"max err {dir_err:.3e}"))
        price_ok = (abs(kkt.particular[row] - bound) <= 1e-8
                    and kkt.ray_direction[row] < 0
                    and kkt.zeta_interval == (0.0, np.inf))
        checks.append((price_label, price_ok,
                       f"vertex value {kkt.particular[row]:.12g}, "
                       f"direction component {kkt.ray_direction[row]:.6g}"))
    summary = (f"rank {cq.numerical_rank}/{cq.m}, "
               f"{kkt.classification.value}, nodal price <= {bound:g}")
    payload = {"cq": cq.to_dict(), "kkt": kkt.to_dict()}
    return checks, summary, payload


def _repro_ex2(fix) -> tuple[list[tuple[str, bool, str]], str, dict]:
    want = fix.expected
    checks: list[tuple[str, bool, str]] = []
    h_vals, g_vals, _ = con.evaluate(fix.system, fix.ground_truth)
    checks.append(("constraint values vanish at the crossing point to 1e-9",
                   abs(h_vals[0]) <= 1e-9 and abs(g_vals[0]) <= 1e-9,
                   f"h = {h_vals[0]:.3e}, g = {g_vals[0]:.3e}"))
    cq = cqkit.licq_check(fix.system, fix.ground_truth, fix.case.cost)
    # the first p rows, the flow rows, are [I, X] over the generation
    # columns, so the rows of R are the operational gradients restricted
    # to the flow manifold
    a, p = cq.active_jacobian, 2 * fix.case.network.n_bus
    r = a[p:, p:] - a[p:, :p] @ a[:p, p:]
    angle = _norm_angle(r[0], r[1])
    checks.append(("gradient parallelism angle on the flow manifold "
                   "<= 1e-6 rad", angle <= 1e-6, f"angle = {angle:.3e}"))
    kkt = cq.kkt
    checks.append((f"qualification fails (rank {want['rank']} of {want['m']})",
                   not cq.licq_holds and cq.numerical_rank == want["rank"]
                   and cq.m == want["m"],
                   f"rank {cq.numerical_rank}/{cq.m}"))
    floor = want["residual_lower_bound"]
    checks.append((f"no multipliers for the cost (residual >= {floor})",
                   kkt.classification is cqkit.Classification.NONE
                   and kkt.stationarity_residual >= floor,
                   f"residual {kkt.stationarity_residual:.6f}"))
    summary = f"tangent constraints, {kkt.classification.value}"
    return checks, summary, {"rank": cq.numerical_rank, "kkt": kkt.to_dict()}


def _repro_ex3(fix) -> tuple[list[tuple[str, bool, str]], str, dict]:
    checks: list[tuple[str, bool, str]] = []
    net = fix.case.network
    res = np.abs(pf_residual(net, fix.ground_truth)).max()
    checks.append(("flat no-load profile solves the flow equations exactly",
                   res == 0.0, f"|F|_inf = {res:.3e}"))
    model = perturb.line_model(fix.case)
    jac = perturb.param_jacobian(model, net, fix.ground_truth)
    max_entry = float(np.abs(jac).max()) if jac.size else 0.0
    hyp = perturb.check_rank_hypothesis(model, fix.system, fix.ground_truth)
    checks.append(("line parameter Jacobian vanishes (entries <= 1e-14)",
                   max_entry <= 1e-14, f"max entry {max_entry:.3e}"))
    want = fix.expected["line_param_rank"]
    checks.append((f"line parameter rank {want}, hypothesis not satisfied",
                   hyp.rank == want and not hyp.satisfied,
                   f"rank {hyp.rank}/{hyp.required}"))
    summary = f"LINE param rank {hyp.rank}"
    return checks, summary, {"hypothesis": hyp.to_dict()}


def cmd_repro(args) -> int:
    which = args.which
    repro = {"ex1": _repro_ex1, "ex2": _repro_ex2, "ex3": _repro_ex3}[which]
    checks, summary, payload = repro(_fixture(which, args.alpha))
    checks = [(label, bool(flag), detail) for label, flag, detail in checks]
    ok = all(flag for _, flag, _ in checks)
    for label, flag, detail in checks:
        print(f"  [{'PASS' if flag else 'FAIL'}] {label} ({detail})")
    print(f"{which}: {summary}: {'PASS' if ok else 'FAIL'}")
    payload = {"which": which, "ok": ok, "summary": summary,
               "checks": [{"label": l, "ok": f, "detail": d}
                          for l, f, d in checks], **payload}
    if args.out:
        _emit(payload, args.out)
    if not ok:
        failed = [l for l, f, _ in checks if not f]
        print(f"failed assertions: {failed}", file=sys.stderr)
        return EXIT_REPRO_MISMATCH
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="opfdiag",
        description=("Constraint-qualification and KKT multiplier "
                     "diagnostics for AC power flow systems"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_ybus = sub.add_parser("ybus", help="dump the nodal admittance matrix")
    _add_common(p_ybus)
    p_ybus.set_defaults(func=cmd_ybus)

    p_check = sub.add_parser(
        "check", help="qualification check and multiplier classification")
    _add_common(p_check)
    _add_tolerances(p_check, stat_tol=True)
    p_check.add_argument("--state", help="path to a flat JSON state vector")
    p_check.add_argument("--perturb-load", metavar="BUS:DELTA",
                         help="shift one bus's real load before checking")
    p_check.add_argument("--emit-jacobian", action="store_true",
                         help="also write the active stack as sparse "
                              "triplets, cq.active_jacobian")
    p_check.set_defaults(func=cmd_check)

    p_pert = sub.add_parser("perturb", help="Monte Carlo genericity experiment")
    _add_common(p_pert)
    _add_tolerances(p_pert, stat_tol=False)
    p_pert.add_argument("--model", choices=["load", "shunt", "line"],
                        required=True)
    p_pert.add_argument("--trials", type=_count, default=1000)
    # unset, the seed is read from CQA_SEED when perturb runs (``_seed``)
    p_pert.add_argument("--seed", type=int)
    p_pert.add_argument("--format", choices=["json", "csv"], default="json")
    p_pert.set_defaults(func=cmd_perturb, error=p_pert.error)

    p_sweep = sub.add_parser(
        "sweep", help="degeneracy margin of ex1 under one load shift")
    p_sweep.add_argument("--alpha", type=_positive, default=1.0)
    p_sweep.add_argument("--direction", type=int, default=1,
                         help="index into the stacked (p, q) load vector")
    p_sweep.add_argument("--deltas", type=_finite, nargs="+",
                         default=[1e-3, 1e-2, 1e-1],
                         help="shifts; each is swept with both signs and 0")
    p_sweep.add_argument("--out", help="write the JSON report to this path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_repro = sub.add_parser(
        "repro", help="re-run a built-in fixture against its ground truth")
    p_repro.add_argument("which", choices=fixtures.BUILTIN_NAMES)
    p_repro.add_argument("--alpha", type=_positive,
                         help="coupling parameter of ex1 (default 1.0)")
    p_repro.add_argument("--out")
    p_repro.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except con.InfeasiblePointError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CaseError, con.ConstraintError, perturb.PerturbationError,
            OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Spans and counters around the program's layers, from outside ``src/``.

An ``Instrument`` replaces module-level names that the program looks up at
call time (``perturb.solve_power_flow``, ``cqkit.active_stack``,
``cli._emit``, ...) with wrappers and puts the originals back on exit.
Traced, every wrapper records a span (name, start, end, parent, operation)
in memory; untraced, only the sweep wrapper is installed, and it records
nothing but the GenericityReport each operation returns, which the
verdict check needs.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from opfdiag import cases, cli, constraints, cqkit, perturb

# (owner, attribute, span name). The span name's prefix is the layer: the
# repository module the time belongs to.
TARGETS = (
    (cli, "_emit", "cli.emit"),
    (perturb.GenericityReport, "to_json", "cli.emit"),
    (perturb.GenericityReport, "to_csv", "cli.emit"),
    (cli, "load_case", "netmodel.load_case"),
    (cli, "build_ybus", "netmodel.build_ybus"),
    (perturb, "build_ybus", "netmodel.build_ybus"),
    (cases, "builtin", "cases.builtin"),
    (cli, "solve_power_flow", "powerflow.solve"),
    (perturb, "solve_power_flow", "powerflow.solve"),
    (cqkit, "pf_jacobian", "powerflow.jacobian"),
    (perturb, "run_genericity_experiment", "perturb.sweep"),
    (perturb, "apply_parameters", "perturb.apply_parameters"),
    (perturb, "check_rank_hypothesis", "perturb.hypothesis"),
    (constraints, "evaluate", "constraints.evaluate"),
    (cqkit, "licq_check", "cqkit.licq"),
    (cqkit, "kkt_solve", "cqkit.kkt"),
    (cqkit, "active_stack", "cqkit.active_stack"),
    (np.linalg, "svd", "cqkit.svd"),
)
SWEEP_TARGET = (perturb, "run_genericity_experiment", "perturb.sweep")
OP_SPAN = "cli.main"
LAYERS = ("cli", "cases", "netmodel", "powerflow", "constraints", "cqkit",
          "perturb")

# Span record fields.
NAME, START, END, PARENT, OP, ATTRS = range(6)


def svd_gflop(args, kwargs) -> float:
    """Operation count of one numpy SVD call from its input shape, using the
    Golub-Van Loan counts (R-SVD variants); computed, not measured."""
    a = np.asarray(args[0])
    rows, cols = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    big, small = max(rows, cols), min(rows, cols)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not uv:
        flop = 4 * big * small ** 2 - 4 * small ** 3 / 3
    elif full:
        flop = 4 * big ** 2 * small + 22 * small ** 3
    else:
        flop = 6 * big * small ** 2 + 20 * small ** 3
    return batch * flop / 1e9


def _solve_attrs(attrs, result, exc):
    if exc is None:
        attrs.update(iters=result.iterations, ok=True)
    else:
        history = getattr(exc, "history", None)
        attrs.update(iters=len(history) - 1 if history else 0, ok=False)


def _stack_attrs(attrs, result, exc):
    if exc is None:
        attrs.update(rows=result[0].shape[0], cols=result[0].shape[1])


def _sweep_attrs(attrs, result, exc):
    if exc is None:
        nonconv = sum(not rec.converged for rec in result.records)
        attrs.update(trials=result.trials, checked=result.feasible_count,
                     nonconverged=nonconv,
                     infeasible=result.trials - result.feasible_count - nonconv)


HOOKS = {
    "powerflow.solve": _solve_attrs,
    "cqkit.active_stack": _stack_attrs,
    "perturb.sweep": _sweep_attrs,
}


class Instrument:
    """Context manager that installs the wrappers and restores the
    originals on exit, also when the body raises."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self.sweeps: list = []
        self._open: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def __enter__(self) -> "Instrument":
        for owner, attr, name in TARGETS if self.traced else (SWEEP_TARGET,):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def operation(self, argv: list[str]) -> int:
        """One CLI call, traced as a ``cli.main`` span when tracing."""
        if not self.traced:
            return cli.main(argv)
        self._op += 1
        return self._call(cli.main, OP_SPAN, (argv,), {})

    def _wrap(self, fn, name):
        if not self.traced:
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.sweeps.append(result)
                return result
            return capture

        def traced(*args, **kwargs):
            return self._call(fn, name, args, kwargs)
        return traced

    def _call(self, fn, name, args, kwargs):
        attrs = {"gflop": svd_gflop(args, kwargs)} if name == "cqkit.svd" else {}
        hook = HOOKS.get(name)
        idx = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._open[-1] if self._open else None, self._op, attrs]
        self.spans.append(span)
        self._open.append(idx)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[END] = time.perf_counter()
            self._open.pop()
            if hook:
                hook(attrs, None, exc)
            raise
        span[END] = time.perf_counter()
        self._open.pop()
        if hook:
            hook(attrs, result, None)
        if name == "perturb.sweep":
            self.sweeps.append(result)
        return result


def _under(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], plain_op_s: list[float]) -> dict:
    """Per-layer metrics per operation from the spans of the traced
    operations, plus the tracing overhead against untraced operations."""
    ops = [s for s in spans if s[NAME] == OP_SPAN]
    n_ops = len(ops)
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        total[s[NAME]] += dur
        calls[s[NAME]] += 1
        if s[PARENT] is not None:
            child[s[PARENT]] += dur
    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        layer_self[s[NAME].split(".")[0]] += s[END] - s[START] - child[i]
    op_time = total[OP_SPAN]

    solves = [s[ATTRS] for s in spans if s[NAME] == "powerflow.solve"]
    iters = sum(a["iters"] for a in solves)
    useful = sum(a["iters"] for a in solves if a["ok"])
    # Calls that raised carry no shape or counts.
    stacks = [s[ATTRS] for s in spans
              if s[NAME] == "cqkit.active_stack" and s[ATTRS]]
    sweeps = [s[ATTRS] for s in spans if s[NAME] == "perturb.sweep" and s[ATTRS]]
    trials = sum(a["trials"] for a in sweeps)
    # A check is one point; a sweep checks its feasible trials. SVDs of the
    # rank hypothesis (once per sweep, on the nominal case) are not per point.
    points = sum(a["checked"] for a in sweeps) if sweeps else n_ops
    svds = [i for i, s in enumerate(spans) if s[NAME] == "cqkit.svd"]
    point_svds = sum(not _under(spans, i, "perturb.hypothesis") for i in svds)

    def per_op(value: float) -> float:
        return value / n_ops

    metrics = {
        "powerflow.solve_s": per_op(total["powerflow.solve"]),
        "powerflow.solve_calls": per_op(calls["powerflow.solve"]),
        "powerflow.newton_iters": per_op(iters),
        "powerflow.iter_s": total["powerflow.solve"] / iters if iters else 0.0,
        "powerflow.failed_solves": per_op(sum(not a["ok"] for a in solves)),
        "powerflow.useful_iter_ratio": useful / iters if iters else 1.0,
        "cqkit.licq_s": per_op(total["cqkit.licq"]),
        "cqkit.active_stack_s": per_op(total["cqkit.active_stack"]),
        "cqkit.svd_s": per_op(total["cqkit.svd"]),
        "cqkit.licq_calls": per_op(calls["cqkit.licq"]),
        "cqkit.stack_rows": statistics.fmean(a["rows"] for a in stacks) if stacks else 0.0,
        "cqkit.stack_cols": statistics.fmean(a["cols"] for a in stacks) if stacks else 0.0,
        "cqkit.svd_gflop": per_op(sum(spans[i][ATTRS]["gflop"] for i in svds)),
        "cqkit.kkt_s": per_op(total["cqkit.kkt"]),
        "cqkit.factorizations_per_point": point_svds / points if points else 0.0,
        "netmodel.build_ybus_s": per_op(total["netmodel.build_ybus"]),
        "netmodel.build_ybus_calls": per_op(calls["netmodel.build_ybus"]),
        "netmodel.load_case_s": per_op(total["netmodel.load_case"]),
        "perturb.apply_parameters_s": per_op(total["perturb.apply_parameters"]),
        "perturb.trial_s": total["perturb.sweep"] / trials if trials else 0.0,
        "perturb.hypothesis_s": per_op(total["perturb.hypothesis"]),
        "perturb.trials_checked": per_op(sum(a["checked"] for a in sweeps)),
        "perturb.trials_infeasible": per_op(sum(a["infeasible"] for a in sweeps)),
        "perturb.trials_nonconverged": per_op(sum(a["nonconverged"] for a in sweeps)),
        "cli.emit_s": per_op(total["cli.emit"]),
        "cli.self_s": per_op(sum(s[END] - s[START] - child[i]
                                 for i, s in enumerate(spans)
                                 if s[NAME] == OP_SPAN)),
        "constraints.evaluate_s": per_op(total["constraints.evaluate"]),
        "constraints.evaluate_calls": per_op(calls["constraints.evaluate"]),
        "cases.builtin_s": per_op(total["cases.builtin"]),
        "cqkit.svd_frac": total["cqkit.svd"] / op_time,
        "cli.emit_frac": total["cli.emit"] / op_time,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = layer_self[layer] / op_time
    traced_op = statistics.median(s[END] - s[START] for s in ops)
    metrics["trace.op_s"] = traced_op
    metrics["trace.overhead_frac"] = traced_op / statistics.median(plain_op_s) - 1.0
    return metrics

"""Parameter perturbation models, rank hypothesis checks and Monte Carlo
genericity experiments.

Three perturbation models are supported: fixed loads at every bus (2N
parameters), lumped nodal shunt admittances (2N parameters) and series
line parameters (2M parameters). Each model knows the derivative of the
flow residual with respect to its parameter vector; full rank 2N of that
derivative is the hypothesis under which qualification failures are
confined to a measure-zero parameter set.

Shunt convention: the parameter vector stacks the lumped conductances and
the *negated* lumped susceptances, so the parameter Jacobian is
-diag(v^2) on both blocks. Negation is a diffeomorphic reparametrization
and leaves every rank and measure statement untouched.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from . import constraints as con
from . import cqkit
# build_ybus stays one of this module's names: the benchmark's tracer wraps
# perturb.build_ybus.
from .netmodel import Case, Network, admittance_stack, build_ybus
from .powerflow import (PowerFlowError, SystemState, free_mask_from_bus_types,
                        newton_states, pf_jacobian, pf_residual,
                        solve_power_flow)


class PerturbationError(ValueError):
    pass


class ModelKind(enum.Enum):
    LOAD = "load"
    SHUNT = "shunt"
    LINE = "line"


@dataclass(frozen=True, eq=False)
class PerturbationModel:
    """Sampling box over a parameter space attached to one model kind.

    ``box`` is a (k, 2) array of closed intervals; sampling is uniform on
    the interior, which must have positive volume.
    """

    kind: ModelKind
    box: np.ndarray

    def __post_init__(self) -> None:
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2:
            raise PerturbationError("box must be a (k, 2) array of intervals")
        if not (box[:, 1] > box[:, 0]).all():
            raise PerturbationError(
                "sampling box must have positive volume in every coordinate")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)

    @property
    def dimension(self) -> int:
        return self.box.shape[0]


# Every sampling box is nominal +/- BOX_REL * |nominal|, with an absolute
# half-width BOX_FLOOR for zero-nominal components (a zero-width interval
# has no volume).
BOX_REL = 0.1
BOX_FLOOR = 0.1


def _interval_box(nominal: np.ndarray) -> np.ndarray:
    half = BOX_REL * np.abs(nominal)
    half[half == 0.0] = BOX_FLOOR
    return np.column_stack([nominal - half, nominal + half])


def _add_half_line_shunts(net: Network, g: np.ndarray,
                          b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add half of each line's shunt to both end buses of g and b in place."""
    for ln in net.lines:
        for end in (ln.from_bus, ln.to_bus):
            g[end] += ln.g_shunt / 2.0
            b[end] += ln.b_shunt / 2.0
    return g, b


def lumped_shunts(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus lumped shunt admittance: bus shunt plus half of each
    incident line shunt."""
    return _add_half_line_shunts(net, np.array([b.g_shunt for b in net.buses]),
                                 np.array([b.b_shunt for b in net.buses]))


def load_model(case: Case) -> PerturbationModel:
    nominal = np.concatenate([case.network.p_load, case.network.q_load])
    return PerturbationModel(ModelKind.LOAD, _interval_box(nominal))


def shunt_model(case: Case) -> PerturbationModel:
    g, b = lumped_shunts(case.network)
    nominal = np.concatenate([g, -b])
    return PerturbationModel(ModelKind.SHUNT, _interval_box(nominal))


def line_model(case: Case) -> PerturbationModel:
    g = np.array([ln.g_series for ln in case.network.lines])
    b = np.array([ln.b_series for ln in case.network.lines])
    nominal = np.concatenate([g, b])
    return PerturbationModel(ModelKind.LINE, _interval_box(nominal))


def make_model(kind: ModelKind | str, case: Case) -> PerturbationModel:
    kind = ModelKind(kind) if not isinstance(kind, ModelKind) else kind
    builder = {ModelKind.LOAD: load_model, ModelKind.SHUNT: shunt_model,
               ModelKind.LINE: line_model}[kind]
    return builder(case)


# ---------------------------------------------------------------------------
# Parameter Jacobians
# ---------------------------------------------------------------------------

def _expect_dimension(model: PerturbationModel, net: Network) -> None:
    expected = {ModelKind.LOAD: 2 * net.n_bus, ModelKind.SHUNT: 2 * net.n_bus,
                ModelKind.LINE: 2 * net.n_line}[model.kind]
    if model.dimension != expected:
        raise PerturbationError(
            f"{model.kind.value} model of dimension {model.dimension} does "
            f"not match network (expected {expected})")


def param_jacobian(model: PerturbationModel, net: Network,
                   x: SystemState) -> np.ndarray:
    """Derivative of the flow residual with respect to the model's
    parameter vector, a 2N x k matrix.

    LOAD: exactly -I_2N (the residual carries the loads with a minus
    sign). SHUNT: -diag(v^2) on both diagonal blocks under the negated
    susceptance convention. LINE: analytic derivative with respect to each
    series (g, b) pair; a line's columns touch only the rows of its two
    endpoints.
    """
    _expect_dimension(model, net)
    n = net.n_bus
    if model.kind is ModelKind.LOAD:
        return -np.eye(2 * n)
    if model.kind is ModelKind.SHUNT:
        jac = np.zeros((2 * n, 2 * n))
        jac[:n, :n] = -np.diag(x.v ** 2)
        jac[n:, n:] = -np.diag(x.v ** 2)
        return jac
    m = net.n_line
    jac = np.zeros((2 * n, 2 * m))
    v, theta = x.v, x.theta
    for j, ln in enumerate(net.lines):
        k, l = ln.from_bus, ln.to_bus
        ckl = np.cos(theta[k] - theta[l])
        skl = np.sin(theta[k] - theta[l])
        vkl = v[k] * v[l]
        col_g, col_b = j, m + j
        jac[k, col_g] = vkl * ckl - v[k] ** 2
        jac[l, col_g] = vkl * ckl - v[l] ** 2
        jac[n + k, col_g] = vkl * skl
        jac[n + l, col_g] = -vkl * skl
        jac[k, col_b] = vkl * skl
        jac[l, col_b] = -vkl * skl
        jac[n + k, col_b] = v[k] ** 2 - vkl * ckl
        jac[n + l, col_b] = v[l] ** 2 - vkl * ckl
    return jac


@dataclass(frozen=True)
class RankHypothesisReport:
    kind: ModelKind
    rank: int
    required: int
    satisfied: bool
    voltage_premise_ok: bool | None = None

    def to_dict(self) -> dict:
        return {
            "model": self.kind.value,
            "rank": self.rank,
            "required": self.required,
            "satisfied": self.satisfied,
            "voltage_premise_ok": self.voltage_premise_ok,
        }


def check_rank_hypothesis(model: PerturbationModel, net: Network,
                          x: SystemState) -> RankHypothesisReport:
    """Numerical rank of the parameter Jacobian against the required 2N.

    For the shunt model the premise min_k v_k > 0 is reported alongside;
    it is exactly what full rank hinges on.
    """
    jac = param_jacobian(model, net, x)
    rank, _, _, _ = cqkit.numerical_rank(jac)
    premise = None
    if model.kind is ModelKind.SHUNT:
        premise = bool(x.v.min() > 0.0)
    return RankHypothesisReport(kind=model.kind, rank=rank,
                                required=2 * net.n_bus,
                                satisfied=rank == 2 * net.n_bus,
                                voltage_premise_ok=premise)


# ---------------------------------------------------------------------------
# Applying a parameter draw to a case
# ---------------------------------------------------------------------------

def _with_loads(case: Case, loads: np.ndarray) -> Case:
    """New case with the stacked (p, q) load vector written into the buses."""
    net = case.network
    n = net.n_bus
    buses = tuple(
        replace(b, p_load=float(loads[b.id]), q_load=float(loads[n + b.id]))
        for b in net.buses)
    return replace(case, network=Network(buses=buses, lines=net.lines))


def apply_parameters(model: PerturbationModel, case: Case,
                     xi: np.ndarray) -> Case:
    """New case with the drawn parameter vector written into the data."""
    _expect_dimension(model, case.network)
    net = case.network
    n = net.n_bus
    if model.kind is ModelKind.LOAD:
        return _with_loads(case, xi)
    if model.kind is ModelKind.SHUNT:
        # xi holds lumped (g, -b); remove the half line-shunt contribution
        # so the lumped value lands exactly on the target.
        g_line, b_line = _add_half_line_shunts(net, np.zeros(n), np.zeros(n))
        buses = tuple(
            replace(b, g_shunt=float(xi[b.id] - g_line[b.id]),
                    b_shunt=float(-xi[n + b.id] - b_line[b.id]))
            for b in net.buses)
        return replace(case, network=Network(buses=buses, lines=net.lines))
    m = net.n_line
    lines = tuple(
        replace(ln, g_series=float(xi[j]), b_series=float(xi[m + j]))
        for j, ln in enumerate(net.lines))
    return replace(case, network=Network(buses=net.buses, lines=lines))


# ---------------------------------------------------------------------------
# Monte Carlo genericity experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    trial: int
    converged: bool
    feasible: bool
    licq_holds: bool | None
    sigma_min: float | None


@dataclass(frozen=True, eq=False)
class GenericityReport:
    """Aggregate of one Monte Carlo run.

    Each trial draws a parameter vector, re-solves the flow feasibility
    problem from the case's setpoints (one feasible point per draw; the
    full feasible set is not explored) and, when the operational
    constraints are met, runs the qualification check. Failures are kept
    with their draw for replay.
    """

    trials: int
    rng_seed: int
    model_kind: str
    box: np.ndarray
    records: tuple[TrialRecord, ...]
    failures: tuple[dict, ...]
    hypothesis: RankHypothesisReport | None
    tolerances: dict

    @property
    def feasible_count(self) -> int:
        return sum(rec.feasible for rec in self.records)

    @property
    def licq_pass_count(self) -> int:
        return sum(rec.licq_holds is True for rec in self.records)

    @property
    def sigma_min_sorted(self) -> tuple[float, ...]:
        return tuple(sorted(rec.sigma_min for rec in self.records
                            if rec.feasible))

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "rng_seed": self.rng_seed,
            "model": self.model_kind,
            "box": self.box.tolist(),
            "feasible_count": self.feasible_count,
            "licq_pass_count": self.licq_pass_count,
            "licq_failure_count": self.feasible_count - self.licq_pass_count,
            "sigma_min_sorted": list(self.sigma_min_sorted),
            "hypothesis": None if self.hypothesis is None
            else self.hypothesis.to_dict(),
            "failures": list(self.failures),
            "tolerances": self.tolerances,
            "scope": ("one feasible point per draw, produced from the case "
                      "setpoints; the feasible set is sampled, not enumerated"),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trial", "seed", "feasible", "licq", "sigma_min"])
        for rec in self.records:
            writer.writerow([
                rec.trial,
                self.rng_seed,
                int(rec.feasible),
                "" if rec.licq_holds is None else int(rec.licq_holds),
                "" if rec.sigma_min is None else repr(rec.sigma_min),
            ])
        return buf.getvalue()


# Byte budget of the stacked 2N x 4N flow Jacobians of one block of Monte
# Carlo trials; it sets how many trials share one stacked Newton solve and
# one batched check (1024 on two buses, so a 1000-trial sweep of a two-bus
# fixture is one block; one from about 64 buses up).
BLOCK_JACOBIAN_BYTES = 1 << 18


def _block_size(n_bus: int) -> int:
    return max(1, BLOCK_JACOBIAN_BYTES // (2 * n_bus * 4 * n_bus * 8))


def _trial_draw(seed: int, trial: int, box: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng([seed, trial])
    return rng.uniform(box[:, 0], box[:, 1])


def _flow_of_draws(model: PerturbationModel, case: Case,
                   cs: con.ConstraintSystem):
    """Function from a block of parameter draws (T x k) to their flow data
    (G, B, p_load, q_load), each with a leading trial axis: bit for bit
    the admittances and loads of ``apply_parameters`` followed by
    ``build_ybus``."""
    net = case.network
    n, m = net.n_bus, net.n_line
    if model.kind is ModelKind.LOAD:
        return lambda xis: (np.broadcast_to(cs.Y.G, (len(xis), n, n)),
                            np.broadcast_to(cs.Y.B, (len(xis), n, n)),
                            xis[:, :n], xis[:, n:])

    def with_loads(G, B):
        return (G, B, np.broadcast_to(net.p_load, (len(G), n)),
                np.broadcast_to(net.q_load, (len(G), n)))

    if model.kind is ModelKind.SHUNT:
        # xi holds lumped (g, -b); the bus shunts are what remains after the
        # half line shunts, as apply_parameters writes them
        series = (np.array([[ln.g_series for ln in net.lines]]),
                  np.array([[ln.b_series for ln in net.lines]]))
        g_line, b_line = _add_half_line_shunts(net, np.zeros(n), np.zeros(n))
        return lambda xis: with_loads(*admittance_stack(
            net, *series, xis[:, :n] - g_line, -xis[:, n:] - b_line))
    shunts = (np.array([[b.g_shunt for b in net.buses]]),
              np.array([[b.b_shunt for b in net.buses]]))
    return lambda xis: with_loads(*admittance_stack(
        net, xis[:, :m], xis[:, m:], *shunts))


def run_genericity_experiment(
    case: Case,
    model: PerturbationModel,
    trials: int,
    seed: int,
    *,
    rank_ulp_scale: float = cqkit.DEFAULT_RANK_ULP_SCALE,
    **tols,
) -> GenericityReport:
    """Deterministic Monte Carlo sweep over the model's sampling box.

    Per-trial draws use a counter-based seed derived from (seed, trial),
    so results are independent of execution order and reproducible
    bit-for-bit. Non-convergent draws count as trials, not errors. Trials
    run in blocks of ``_block_size`` that stay arrays from the draw to the
    verdict: the draws become stacked admittances and loads, one stacked
    Newton solve gives the states (the iterates of a one-trial solve), and
    ``cqkit.licq_checks`` tests feasibility and LICQ on the converged ones,
    one batched SVD per face. Only one block is held at a time. ``tols`` go
    to ``system_for_case``, and the qualification check decides
    feasibility.
    """
    _expect_dimension(model, case.network)
    cs = con.system_for_case(case, **tols)

    hypothesis = None
    try:
        x0 = solve_power_flow(case.network, cs.Y, case.gen_p, case.gen_q,
                              pf_tol=cs.pf_tol).state
        hypothesis = check_rank_hypothesis(model, case.network, x0)
    except PowerFlowError:
        pass

    mask = free_mask_from_bus_types(case.network)
    flow_of = _flow_of_draws(model, case, cs)
    records: list[TrialRecord] = []
    failures: list[dict] = []
    block = _block_size(case.network.n_bus)
    for start in range(0, trials, block):
        ts = range(start, min(start + block, trials))
        xis = np.array([_trial_draw(seed, t, model.box) for t in ts])
        flow = flow_of(xis)
        x, outcome, _ = newton_states(case.network, *flow, case.gen_p,
                                      case.gen_q, pf_tol=cs.pf_tol)
        solved = np.array([i for i, o in enumerate(outcome)
                           if not isinstance(o, PowerFlowError)], dtype=int)
        reports = dict(zip(solved.tolist(), cqkit.licq_checks(
            cs, x[solved], mask, tuple(arr[solved] for arr in flow),
            rank_ulp_scale=rank_ulp_scale)))
        for i, t in enumerate(ts):
            report = reports.get(i)
            if report is None:
                records.append(TrialRecord(t, False, False, None, None))
            elif isinstance(report, con.InfeasiblePointError):
                records.append(TrialRecord(t, True, False, None, None))
            else:
                if not report.licq_holds:
                    failures.append({
                        "trial": t,
                        "seed": seed,
                        "xi": xis[i].tolist(),
                        "state": x[i].tolist(),
                        "cq_report": report.to_dict(),
                    })
                records.append(TrialRecord(t, True, True, report.licq_holds,
                                           report.sigma_min))

    return GenericityReport(
        trials=trials,
        rng_seed=seed,
        model_kind=model.kind.value,
        box=model.box,
        records=tuple(records),
        failures=tuple(failures),
        hypothesis=hypothesis,
        tolerances={"act_tol": cs.act_tol, "eq_tol": cs.eq_tol,
                    "pf_tol": cs.pf_tol, "rank_ulp_scale": rank_ulp_scale},
    )


# ---------------------------------------------------------------------------
# Tangency escape probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeRow:
    """One shift of the tangency probe. ``reason`` is None when the check
    ran, ``"projection_failed"`` when Gauss-Newton found no point and
    ``"infeasible:<label>"`` when the check rejected the projected point,
    the label naming its worst violated row as exit 4 does."""

    delta: float
    converged: bool
    sigma_min: float | None
    licq_holds: bool | None
    bound_pinned: bool
    reason: str | None

    def to_dict(self) -> dict:
        return {"delta": self.delta, "converged": self.converged,
                "sigma_min": self.sigma_min, "licq_holds": self.licq_holds,
                "bound_pinned": self.bound_pinned, "reason": self.reason}


# Residual tolerance and step budget of nearest_feasible_point's projection.
PROJECTION_TOL = 1e-11
PROJECTION_MAX_ITER = 100


def _damped_gauss_newton(residual_fn, jacobian_fn, flat0, mask):
    """Minimum-norm Gauss-Newton on an equality system over free entries.

    A non-finite residual, at the start or at a trial step, stops the
    iteration as not converged."""
    flat = flat0.copy()
    with np.errstate(all="ignore"):
        r = residual_fn(flat)
        for _ in range(PROJECTION_MAX_ITER):
            err = np.abs(r).max() if r.size else 0.0
            if not np.isfinite(err):
                return flat, False
            if err <= PROJECTION_TOL:
                return flat, True
            jac = jacobian_fn(flat)[:, mask]
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            t = 1.0
            while t >= 2.0 ** -30:
                trial = flat.copy()
                trial[mask] = flat[mask] + t * step
                r_try = residual_fn(trial)
                err_try = np.abs(r_try).max()
                if not np.isfinite(err_try):
                    return flat, False
                if err_try < err:
                    flat, r = trial, r_try
                    break
                t /= 2.0
            else:
                return flat, False
    return flat, np.abs(r).max() <= PROJECTION_TOL


def nearest_feasible_point(
    case: Case,
    x_start: SystemState,
    **tols,
) -> tuple[SystemState | None, bool, con.ConstraintSystem]:
    """Point of a case near a start state, by projection.

    Two stages of minimum-norm Gauss-Newton: first onto the equality
    manifold {F = 0, h = 0}; if an inequality ends up violated there, a
    second projection with that bound pinned as an equality. Returns
    (state, bound_pinned, constraint_system), state None when Gauss-Newton
    fails; feasibility is left to the check on ``system_for_case(case,
    **tols)``.
    """
    cs = con.system_for_case(case, **tols)
    net, y, h_ops, g_ops = cs.net, cs.Y, cs.h_ops, cs.g_ops
    mask = x_start.free_mask

    def make_fns(pinned):
        def residual(flat):
            state = SystemState.from_flat(flat, mask)
            parts = [pf_residual(net, y, state)]
            parts.append(np.array([h.value(flat) for h in h_ops]))
            parts.append(np.array([g_ops[j].value(flat) for j in pinned]))
            return np.concatenate([p for p in parts if p.size])

        def jacobian(flat):
            state = SystemState.from_flat(flat, mask)
            rows_ = [pf_jacobian(net, y, state)]
            rows_ += [h.gradient(flat)[None, :] for h in h_ops]
            rows_ += [g_ops[j].gradient(flat)[None, :] for j in pinned]
            return np.vstack(rows_)

        return residual, jacobian

    residual, jacobian = make_fns(())
    flat, ok = _damped_gauss_newton(residual, jacobian, x_start.flat(), mask)
    pinned: tuple[int, ...] = ()
    if ok:
        g_vals = np.array([g.value(flat) for g in g_ops])
        violated = tuple(int(j) for j in range(g_vals.size)
                         if g_vals[j] > cs.act_tol)
        if violated:
            pinned = violated
            residual, jacobian = make_fns(pinned)
            flat, ok = _damped_gauss_newton(residual, jacobian, flat, mask)
    if not ok:
        return None, bool(pinned), cs
    return SystemState.from_flat(flat, mask), bool(pinned), cs


def shift_load(case: Case, direction: int, delta: float) -> Case:
    """New case with one component of the stacked load vector shifted."""
    net = case.network
    n = net.n_bus
    if not 0 <= direction < 2 * n:
        raise PerturbationError(
            f"direction {direction} outside the stacked load vector (2N = {2 * n})")
    loads = np.concatenate([net.p_load, net.q_load])
    loads[direction] += delta
    return _with_loads(case, loads)


def tangency_escape_probe(
    case: Case,
    x_start: SystemState,
    deltas,
    direction: int,
) -> list[ProbeRow]:
    """Sweep one load component and track the degeneracy margin.

    ``direction`` indexes the stacked load vector (p loads then q loads).
    For each delta the load is shifted by delta, the feasible point
    nearest the start is re-solved by projection, and the qualification
    check runs at the recovered point. A row without a check is not
    converged, and its ``reason`` says whether the projection failed or
    the check found the point infeasible. A degenerate start stays
    degenerate only at delta = 0; any interior shift should restore full
    rank.
    """
    rows: list[ProbeRow] = []
    for delta in deltas:
        case_d = shift_load(case, direction, float(delta))
        state, pinned, cs_d = nearest_feasible_point(case_d, x_start)
        report, reason = None, "projection_failed"
        if state is not None:
            try:
                report, reason = cqkit.licq_check(cs_d, state), None
            except con.InfeasiblePointError as exc:
                reason = f"infeasible:{exc.worst_row}"
        rows.append(ProbeRow(
            delta=float(delta), converged=report is not None,
            sigma_min=None if report is None else report.sigma_min,
            licq_holds=None if report is None else report.licq_holds,
            bound_pinned=pinned, reason=reason))
    return rows

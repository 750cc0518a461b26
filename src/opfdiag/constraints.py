"""Operational constraint catalog, constraint systems and active sets.

The catalog is closed: five constraint kinds, each with an exact analytic
gradient over the full flat state. Active-set membership uses an inclusive
tolerance rule (g_j >= -act_tol counts as active) so near-active
constraints are swept into the rank analysis rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .netmodel import Case, ConstraintSpec, Network
from .powerflow import SystemState, _residual, state_index


class ConstraintError(ValueError):
    pass


class VoltageDomainError(ConstraintError):
    """Constraint evaluated outside its differentiable domain (v <= 0)."""


class InfeasiblePointError(ConstraintError):
    """Operation that requires a feasible point was given an infeasible one."""

    @property
    def worst_row(self) -> str | None:
        """Label of the worst violated row, as the message names it, when
        the feasibility test raised the error; None otherwise."""
        why = self.args[0] if self.args else None
        return why.row()[0] if isinstance(why, _WorstViolation) else None


# ---------------------------------------------------------------------------
# Constraint kinds
# ---------------------------------------------------------------------------

def require_positive_v(v, what: str):
    """``v`` itself when every entry is positive; otherwise a
    VoltageDomainError naming the first offending value."""
    v = np.asarray(v)
    bad = v[v <= 0.0]
    if bad.size:
        raise VoltageDomainError(
            f"{what} evaluated at v = {float(bad.flat[0])}; requires v > 0")
    return v


# Every constraint's value and gradient take a flat state or a stack of them
# (a leading trial axis): values come out with shape x.shape[:-1] and
# gradients with shape x.shape.

@dataclass(frozen=True)
class BoxUpper:
    """g(x) = x[index] - bound <= 0."""

    index: int
    bound: float
    is_equality: bool = False

    def value(self, x: np.ndarray):
        return x[..., self.index] - self.bound

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        g[..., self.index] = 1.0
        return g


@dataclass(frozen=True)
class BoxLower:
    """g(x) = bound - x[index] <= 0."""

    index: int
    bound: float
    is_equality: bool = False

    def value(self, x: np.ndarray):
        return self.bound - x[..., self.index]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        g[..., self.index] = -1.0
        return g


@dataclass(frozen=True)
class LinearEq:
    """h(x) = sum_i a_i x_i - offset = 0 with sparse coefficients."""

    terms: tuple[tuple[int, float], ...]
    offset: float = 0.0
    is_equality: bool = True

    def value(self, x: np.ndarray):
        return sum(c * x[..., i] for i, c in self.terms) - self.offset

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        for i, c in self.terms:
            g[..., i] += c
        return g


@dataclass(frozen=True)
class ApparentPower:
    """g(x) = p_k^2 + q_k^2 - s2_max <= 0 at one bus."""

    bus: int
    n_bus: int
    s2_max: float
    is_equality: bool = False

    def value(self, x: np.ndarray):
        p = x[..., state_index("p", self.bus, self.n_bus)]
        q = x[..., state_index("q", self.bus, self.n_bus)]
        return p * p + q * q - self.s2_max

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        ip = state_index("p", self.bus, self.n_bus)
        iq = state_index("q", self.bus, self.n_bus)
        g[..., ip] = 2.0 * x[..., ip]
        g[..., iq] = 2.0 * x[..., iq]
        return g


@dataclass(frozen=True)
class ExpLoadEq:
    """h(x) = q_k + alpha * (p_k - p_load - sqrt(v_k)) = 0 at one bus.

    A voltage-dependent load coupling with constant power factor on the
    non-fixed component; its domain is v_k > 0, where the square root is
    differentiable. Outside it the value is NaN, which fails every
    feasibility test, and the gradient, taken only at feasible points,
    raises VoltageDomainError.
    """

    bus: int
    n_bus: int
    alpha: float
    p_load: float
    is_equality: bool = True

    def value(self, x: np.ndarray):
        v = x[..., state_index("v", self.bus, self.n_bus)]
        p = x[..., state_index("p", self.bus, self.n_bus)]
        q = x[..., state_index("q", self.bus, self.n_bus)]
        root = np.sqrt(np.where(v > 0.0, v, np.nan))
        return q + self.alpha * (p - self.p_load - root)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        v = require_positive_v(
            x[..., state_index("v", self.bus, self.n_bus)],
            f"voltage-dependent load at bus {self.bus}")
        g = np.zeros(x.shape)
        g[..., state_index("p", self.bus, self.n_bus)] = self.alpha
        g[..., state_index("q", self.bus, self.n_bus)] = 1.0
        g[..., state_index("v", self.bus, self.n_bus)] = -self.alpha / (2.0 * np.sqrt(v))
        return g


def build_operational(spec: ConstraintSpec, n_bus: int):
    """Turn a declarative case entry into an evaluable constraint."""
    if spec.kind == "box_upper":
        idx = state_index(spec.target["var"], spec.target["bus"], n_bus)
        return BoxUpper(index=idx, bound=spec.params["bound"])
    if spec.kind == "box_lower":
        idx = state_index(spec.target["var"], spec.target["bus"], n_bus)
        return BoxLower(index=idx, bound=spec.params["bound"])
    if spec.kind == "linear_eq":
        terms = tuple(
            (state_index(t["var"], t["bus"], n_bus), float(t["coef"]))
            for t in spec.params["terms"]
        )
        return LinearEq(terms=terms, offset=float(spec.params["offset"]))
    if spec.kind == "apparent_power":
        return ApparentPower(bus=spec.target["bus"], n_bus=n_bus,
                             s2_max=float(spec.params["s2_max"]))
    if spec.kind == "exp_load_eq":
        return ExpLoadEq(bus=spec.target["bus"], n_bus=n_bus,
                         alpha=float(spec.params["alpha"]),
                         p_load=float(spec.params["p_load"]))
    raise ConstraintError(f"unknown constraint kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Constraint system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """The flow equations F of ``net`` plus operational equalities h and
    inequalities g over its 4N-entry state.

    Its ``tolerances`` decide every check, sweep and report made on it.
    """

    h_ops: tuple
    g_ops: tuple
    net: Network
    act_tol: float = 1e-6
    eq_tol: float = 1e-8
    pf_tol: float = 1e-10
    stat_tol: float = 1e-8
    rank_ulp_scale: float = 2.0 ** -52

    @property
    def tolerances(self) -> dict:
        """The five tolerances by name: the block a report writes."""
        return {name: getattr(self, name) for name in
                ("act_tol", "eq_tol", "pf_tol", "stat_tol", "rank_ulp_scale")}

    @cached_property
    def _value_plans(self) -> tuple:
        """How ``evaluate_points`` fills the h and the g values: a
        ``_value_plan`` of each group, made once per system."""
        return _value_plan(self.h_ops), _value_plan(self.g_ops)


def _value_plan(ops) -> tuple:
    """(width, upper, lower, others) of the value columns of ``ops``: the
    columns, state indices and bounds of its BoxUpper ops and of its
    BoxLower ops, one gather each, and every other op with its column."""
    def boxes(kind):
        cols = [j for j, op in enumerate(ops) if type(op) is kind]
        return (np.array(cols, dtype=int),
                np.array([ops[j].index for j in cols], dtype=int),
                np.array([ops[j].bound for j in cols]))

    others = [(j, op) for j, op in enumerate(ops)
              if type(op) not in (BoxUpper, BoxLower)]
    return len(ops), boxes(BoxUpper), boxes(BoxLower), others


def _values(plan, flats: np.ndarray) -> np.ndarray:
    """Values (T x width) of a ``_value_plan``'s ops at T flat states, in
    declaration order: each box kind in one gather, bit for bit its ops'
    ``value``, every other op by its own."""
    width, (up, up_at, up_bound), (low, low_at, low_bound), others = plan
    out = np.empty((len(flats), width))
    out[:, up] = flats[:, up_at] - up_bound
    out[:, low] = low_bound - flats[:, low_at]
    for j, op in others:
        out[:, j] = op.value(flats)
    return out


def system_for_case(case: Case, **tols) -> ConstraintSystem:
    """Constraint system of a case: its flow equations plus the operational
    constraints declared in ``case.constraint_specs``, in declaration order
    within the equality and inequality groups."""
    net = case.network
    ops = [build_operational(s, net.n_bus) for s in case.constraint_specs]
    return ConstraintSystem(
        h_ops=tuple(op for op in ops if op.is_equality),
        g_ops=tuple(op for op in ops if not op.is_equality),
        net=net, **tols)


def as_flat_state(cs: ConstraintSystem, x) -> np.ndarray:
    """The flat 4N-vector of a SystemState of the system's network."""
    if not isinstance(x, SystemState):
        raise ConstraintError(
            "a constraint system takes a SystemState, not a plain vector")
    flat = x.flat()
    if flat.size != 4 * cs.net.n_bus:
        raise ConstraintError(
            f"state has {flat.size} entries, system expects "
            f"{4 * cs.net.n_bus}")
    return flat


def point_block(cs: ConstraintSystem, x):
    """One point as a block of the block functions: (flats, flow) with
    flats of shape (1, 4N) and flow the one-trial flow data
    (g, b, p_load, q_load) of the system: its network's line lists
    (``Network.admittances``) and loads."""
    flow = (*cs.net.admittances, cs.net.p_load[None], cs.net.q_load[None])
    return as_flat_state(cs, x)[None], flow


def evaluate_points(cs: ConstraintSystem, flats: np.ndarray, flow):
    """Evaluate all constraints at a block of T points.

    ``flats`` is T x 4N; ``flow`` holds the points' flow data
    (g, b, p_load, q_load) with a leading trial axis, g and b the line
    lists of their admittances (``netmodel.admittance_stack``). Returns h
    values (T x I), g values (T x J), feasibility (T,) and the flow
    residual (T x 2N). Feasibility requires the flow residual within
    pf_tol, |h| within eq_tol and every g within +act_tol; a NaN value, as
    at a point outside a constraint's domain, fails it.
    """
    h_vals, g_vals = (_values(plan, flats) for plan in cs._value_plans)
    g, b, p_load, q_load = flow
    resid = _residual(cs.net, g + 1j * b, p_load, q_load, flats)
    feasible = np.abs(resid).max(axis=1) <= cs.pf_tol
    if h_vals.shape[1]:
        feasible &= np.abs(h_vals).max(axis=1) <= cs.eq_tol
    if g_vals.shape[1]:
        feasible &= g_vals.max(axis=1) <= cs.act_tol
    return h_vals, g_vals, feasible, resid


def evaluate(cs: ConstraintSystem, x) -> tuple[np.ndarray, np.ndarray, bool]:
    """Evaluate all constraints at one point: (h values, g values,
    feasible); the one-trial call of ``evaluate_points``."""
    h_vals, g_vals, feasible, _ = evaluate_points(cs, *point_block(cs, x))
    return h_vals[0], g_vals[0], bool(feasible[0])


def row_labels(cs: ConstraintSystem, g_indices) -> list[str]:
    """Stacked-row labels: flow p then q rows by bus, every h, the given g."""
    n = cs.net.n_bus
    return ([f"flow:p:{k}" for k in range(n)] + [f"flow:q:{k}" for k in range(n)]
            + [f"h:{i}" for i in range(len(cs.h_ops))]
            + [f"g:{j}" for j in g_indices])


class _WorstViolation:
    """Message of the InfeasiblePointError of an infeasible point: the row
    with the largest excess over its tolerance, labelled as in the active
    stack (``|flow:p:k|``, ``|h:i|``, ``g:j``); a NaN row, a value outside
    its constraint's domain, is the worst. It is formatted only when read;
    the Monte Carlo sweep never reads it."""

    def __init__(self, cs: ConstraintSystem, flow, h_vals, g_vals):
        self.evaluation = (cs, flow, h_vals, g_vals)

    def row(self) -> tuple[str, float, str]:
        """(label, value, tolerance name) of the worst violated row."""
        cs, flow, h_vals, g_vals = self.evaluation
        rows = zip(row_labels(cs, range(g_vals.size)),
                   np.concatenate([np.abs(flow), np.abs(h_vals), g_vals]),
                   ["pf_tol"] * flow.size + ["eq_tol"] * h_vals.size
                   + ["act_tol"] * g_vals.size)
        label, value, name = max(rows, key=lambda r: np.inf if np.isnan(r[1])
                                 else r[1] - getattr(cs, r[2]))
        if name != "act_tol":
            label = f"|{label}|"
        return label, value, name

    def __str__(self) -> str:
        label, value, name = self.row()
        tol = getattr(self.evaluation[0], name)
        return f"worst violation {label} = {value:.3e} > {name} = {tol:g}"


def active_sets(cs: ConstraintSystem, flats: np.ndarray, flow) -> list:
    """Per point of a block (see ``evaluate_points``) its face, the sorted
    tuple of the indices j with g_j(x) >= -act_tol, or at an infeasible
    point an unraised InfeasiblePointError naming the worst violated row.
    Points on the same face share one tuple."""
    h_vals, g_vals, feasible, resid = evaluate_points(cs, flats, flow)
    active = g_vals >= -cs.act_tol
    faces: dict[bytes, tuple[int, ...]] = {}
    out: list = []
    for i, ok in enumerate(feasible.tolist()):
        if not ok:
            out.append(InfeasiblePointError(_WorstViolation(
                cs, resid[i], h_vals[i], g_vals[i])))
            continue
        key = active[i].tobytes()
        if key not in faces:
            faces[key] = tuple(np.flatnonzero(active[i]).tolist())
        out.append(faces[key])
    return out


def active_set(cs: ConstraintSystem, x) -> tuple[int, ...]:
    """Sorted indices j with g_j(x) >= -act_tol. Only defined on feasible
    points; at an infeasible one it raises InfeasiblePointError naming the
    worst violated row. The one-trial call of ``active_sets``."""
    (act,) = active_sets(cs, *point_block(cs, x))
    if isinstance(act, InfeasiblePointError):
        raise act
    return act

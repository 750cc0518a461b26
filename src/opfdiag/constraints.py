"""Operational constraint catalog, constraint systems and active sets.

The catalog is closed: five constraint kinds, each with an exact analytic
gradient over the full flat state. Active-set membership uses an inclusive
tolerance rule (g_j >= -act_tol counts as active) so near-active
constraints are swept into the rank analysis rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import (AdmittanceMatrix, Case, ConstraintSpec, Network,
                       build_ybus)
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
    non-fixed component; requires v_k > 0 for the square root to be
    differentiable, enforced with a hard error.
    """

    bus: int
    n_bus: int
    alpha: float
    p_load: float
    is_equality: bool = True

    def _v(self, x: np.ndarray):
        return require_positive_v(
            x[..., state_index("v", self.bus, self.n_bus)],
            f"voltage-dependent load at bus {self.bus}")

    def value(self, x: np.ndarray):
        v = self._v(x)
        p = x[..., state_index("p", self.bus, self.n_bus)]
        q = x[..., state_index("q", self.bus, self.n_bus)]
        return q + self.alpha * (p - self.p_load - np.sqrt(v))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        v = self._v(x)
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
    """Flow equalities plus operational equalities h and inequalities g.

    ``net``/``Y`` may be None for purely operational systems (no flow
    block), in which case states are plain vectors of length ``n_state``.
    """

    h_ops: tuple
    g_ops: tuple
    n_state: int
    net: Network | None = None
    Y: AdmittanceMatrix | None = None
    act_tol: float = 1e-6
    eq_tol: float = 1e-8
    pf_tol: float = 1e-10

    @classmethod
    def for_network(cls, net: Network, Y: AdmittanceMatrix, h_ops=(), g_ops=(),
                    **tols) -> "ConstraintSystem":
        return cls(h_ops=tuple(h_ops), g_ops=tuple(g_ops),
                   n_state=4 * net.n_bus, net=net, Y=Y, **tols)

    @classmethod
    def operational(cls, h_ops, g_ops, n_state: int, **tols) -> "ConstraintSystem":
        return cls(h_ops=tuple(h_ops), g_ops=tuple(g_ops),
                   n_state=n_state, **tols)

    @property
    def has_flow(self) -> bool:
        return self.net is not None


def system_for_case(case: Case, **tols) -> ConstraintSystem:
    """Constraint system of a case: its flow equations plus the operational
    constraints declared in ``case.constraint_specs``, in declaration order
    within the equality and inequality groups."""
    net = case.network
    ops = [build_operational(s, net.n_bus) for s in case.constraint_specs]
    return ConstraintSystem.for_network(
        net, build_ybus(net),
        tuple(op for op in ops if op.is_equality),
        tuple(op for op in ops if not op.is_equality), **tols)


def as_flat_state(cs: ConstraintSystem, x) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a state to (flat, free_mask): a SystemState for a system
    with flow equations, a plain vector (all entries free) otherwise."""
    if isinstance(x, SystemState):
        flat = x.flat()
        mask = x.free_mask
    elif cs.has_flow:
        raise ConstraintError(
            "a system with flow equations takes a SystemState, not a plain "
            "vector")
    else:
        flat = np.asarray(x, dtype=float)
        mask = np.ones(flat.size, dtype=bool)
    if flat.size != cs.n_state:
        raise ConstraintError(
            f"state has {flat.size} entries, system expects {cs.n_state}")
    return flat, mask


def point_block(cs: ConstraintSystem, x):
    """One point as a block of the block functions: (flats, mask, flow)
    with flats of shape (1, n_state) and flow the one-trial flow data
    (G, B, p_load, q_load) of the system, None without flow equations."""
    flat, mask = as_flat_state(cs, x)
    flow = None
    if cs.has_flow:
        flow = (cs.Y.G[None], cs.Y.B[None], cs.net.p_load[None],
                cs.net.q_load[None])
    return flat[None], mask, flow


def evaluate_points(cs: ConstraintSystem, flats: np.ndarray, flow=None):
    """Evaluate all constraints at a block of T points.

    ``flats`` is T x n_state; ``flow`` holds the points' flow data
    (G, B, p_load, q_load) with a leading trial axis, None for a system
    without flow equations. Returns h values (T x I), g values (T x J),
    feasibility (T,) and the flow residual (T x 2N, None without flow).
    Feasibility requires the flow residual within pf_tol, |h| within
    eq_tol and every g within +act_tol.
    """
    def values(ops):
        if not ops:
            return np.zeros((len(flats), 0))
        return np.stack([op.value(flats) for op in ops], axis=1)

    h_vals, g_vals = values(cs.h_ops), values(cs.g_ops)
    feasible = np.ones(len(flats), dtype=bool)
    resid = None
    if flow is not None:
        G, B, p_load, q_load = flow
        resid = _residual(G + 1j * B, p_load, q_load, flats)
        feasible &= np.abs(resid).max(axis=1) <= cs.pf_tol
    if h_vals.shape[1]:
        feasible &= np.abs(h_vals).max(axis=1) <= cs.eq_tol
    if g_vals.shape[1]:
        feasible &= g_vals.max(axis=1) <= cs.act_tol
    return h_vals, g_vals, feasible, resid


def evaluate(cs: ConstraintSystem, x) -> tuple[np.ndarray, np.ndarray, bool]:
    """Evaluate all constraints at one point: (h values, g values,
    feasible); the one-trial call of ``evaluate_points``."""
    flats, _, flow = point_block(cs, x)
    h_vals, g_vals, feasible, _ = evaluate_points(cs, flats, flow)
    return h_vals[0], g_vals[0], bool(feasible[0])


@dataclass(frozen=True, eq=False)
class ActiveSet:
    """Active inequality indices at a feasible point.

    ``indices`` is sorted; it is a pure function of the index set and
    labels which face of the feasible region the point sits on.
    """

    indices: tuple[int, ...]


def row_labels(cs: ConstraintSystem, g_indices) -> list[str]:
    """Stacked-row labels: flow p then q rows by bus, every h, the given g."""
    n = cs.net.n_bus if cs.has_flow else 0
    return ([f"flow:p:{k}" for k in range(n)] + [f"flow:q:{k}" for k in range(n)]
            + [f"h:{i}" for i in range(len(cs.h_ops))]
            + [f"g:{j}" for j in g_indices])


class _WorstViolation:
    """Message of the InfeasiblePointError of an infeasible point: the row
    with the largest excess over its tolerance, labelled as in the active
    stack (``|flow:p:k|``, ``|h:i|``, ``g:j``). It is formatted only when
    read; the Monte Carlo sweep never reads it."""

    def __init__(self, cs: ConstraintSystem, flow, h_vals, g_vals):
        self.evaluation = (cs, flow, h_vals, g_vals)

    def row(self) -> tuple[str, float, str]:
        """(label, value, tolerance name) of the worst violated row."""
        cs, flow, h_vals, g_vals = self.evaluation
        flow = np.zeros(0) if flow is None else flow
        rows = zip(row_labels(cs, range(g_vals.size)),
                   np.concatenate([np.abs(flow), np.abs(h_vals), g_vals]),
                   ["pf_tol"] * flow.size + ["eq_tol"] * h_vals.size
                   + ["act_tol"] * g_vals.size)
        label, value, name = max(rows, key=lambda r: r[1] - getattr(cs, r[2]))
        if name != "act_tol":
            label = f"|{label}|"
        return label, value, name

    def __str__(self) -> str:
        label, value, name = self.row()
        tol = getattr(self.evaluation[0], name)
        return f"worst violation {label} = {value:.3e} > {name} = {tol:g}"


def active_sets(cs: ConstraintSystem, flats: np.ndarray,
                flow=None) -> list:
    """Per point of a block (see ``evaluate_points``) its ActiveSet, the
    indices j with g_j(x) >= -act_tol, or at an infeasible point an
    unraised InfeasiblePointError naming the worst violated row. Points on
    the same face share one ActiveSet."""
    h_vals, g_vals, feasible, resid = evaluate_points(cs, flats, flow)
    active = g_vals >= -cs.act_tol
    faces: dict[bytes, ActiveSet] = {}
    out: list = []
    for i, ok in enumerate(feasible.tolist()):
        if not ok:
            out.append(InfeasiblePointError(_WorstViolation(
                cs, None if resid is None else resid[i], h_vals[i],
                g_vals[i])))
            continue
        key = active[i].tobytes()
        if key not in faces:
            faces[key] = ActiveSet(tuple(np.flatnonzero(active[i]).tolist()))
        out.append(faces[key])
    return out


def active_set(cs: ConstraintSystem, x) -> ActiveSet:
    """Indices j with g_j(x) >= -act_tol. Only defined on feasible points;
    at an infeasible one it raises InfeasiblePointError naming the worst
    violated row. The one-trial call of ``active_sets``."""
    flats, _, flow = point_block(cs, x)
    (act,) = active_sets(cs, flats, flow)
    if isinstance(act, InfeasiblePointError):
        raise act
    return act

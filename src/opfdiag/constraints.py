"""Constraint systems, feasibility and active sets.

A system joins a network's flow equations to the operational constraints
of its case, its equalities and its inequalities each a
``netmodel.Constraints`` table. Active-set membership uses an inclusive
tolerance rule (g_j >= -act_tol counts as active) so near-active
constraints are swept into the rank analysis rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import (_EQUALITY, Case, ConstraintError, Constraints,
                       Network, VoltageDomainError)
from .powerflow import SystemState, _residual


class InfeasiblePointError(ConstraintError):
    """Operation that requires a feasible point was given an infeasible one;
    ``worst_row`` labels the worst violated row when the test found it."""

    def __init__(self, message: str, worst_row: str | None = None):
        super().__init__(message)
        self.worst_row = worst_row


# ---------------------------------------------------------------------------
# Constraint system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """The flow equations F of ``net`` plus operational equalities h and
    inequalities g over its 4N-entry state, each a ``Constraints`` table.

    Its ``tolerances`` decide every check, sweep and report made on it.
    """

    h: Constraints
    g: Constraints
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


def system_for_case(case: Case, **tols) -> ConstraintSystem:
    """Constraint system of a case: its flow equations plus its operational
    constraints, in declaration order within the equality and inequality
    groups."""
    rows, equality = case.constraints, _EQUALITY[case.constraints.kind]
    return ConstraintSystem(*(rows.take(np.flatnonzero(group))
                              for group in (equality, ~equality)),
                            net=case.network, **tols)


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
    h_vals, g_vals = cs.h.values(flats), cs.g.values(flats)
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
            + [f"h:{i}" for i in range(cs.h.size)]
            + [f"g:{j}" for j in g_indices])


def active_sets(cs: ConstraintSystem, flats: np.ndarray, flow):
    """(feasible, faces, infeasible) of a block of points (see
    ``evaluate_points``): their feasibility, each face (the sorted tuple of
    the j with g_j(x) >= -act_tol) mapped to the array of its feasible
    points, and the function building point i's InfeasiblePointError."""
    h_vals, g_vals, feasible, resid = evaluate_points(cs, flats, flow)
    active = g_vals >= -cs.act_tol
    points = np.flatnonzero(feasible)
    by_row: dict[bytes, list[int]] = {}  # points by their active row
    if active[points].any():
        for i in points.tolist():
            by_row.setdefault(active[i].tobytes(), []).append(i)
    elif points.size:
        by_row[b""] = points
    faces = {tuple(np.flatnonzero(active[own[0]]).tolist()): np.asarray(own)
             for own in by_row.values()}

    def infeasible(i: int) -> InfeasiblePointError:
        # the row with the largest excess over its tolerance, labelled as
        # in the active stack; a NaN row, a value outside its constraint's
        # domain, is the worst
        rows = zip(row_labels(cs, range(g_vals.shape[1])),
                   np.concatenate([np.abs(resid[i]), np.abs(h_vals[i]),
                                   g_vals[i]]),
                   ["pf_tol"] * resid.shape[1] + ["eq_tol"] * h_vals.shape[1]
                   + ["act_tol"] * g_vals.shape[1])
        label, value, name = max(rows, key=lambda r: np.inf if np.isnan(r[1])
                                 else r[1] - getattr(cs, r[2]))
        if name != "act_tol":
            label = f"|{label}|"
        return InfeasiblePointError(
            f"worst violation {label} = {value:.3e} > {name} = "
            f"{getattr(cs, name):g}", label)

    return feasible, faces, infeasible


def active_set(cs: ConstraintSystem, x) -> tuple[int, ...]:
    """Sorted indices j with g_j(x) >= -act_tol. Only defined on feasible
    points; at an infeasible one it raises InfeasiblePointError naming the
    worst violated row. The one-trial call of ``active_sets``."""
    feasible, faces, infeasible = active_sets(cs, *point_block(cs, x))
    if not feasible[0]:
        raise infeasible(0)
    return next(iter(faces))

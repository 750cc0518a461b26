"""LICQ rank testing and KKT multiplier computation and classification.

The active constraint Jacobian stacks the flow rows, the operational
equality rows and the active inequality rows, restricted to the free state
entries. Rank is determined from singular values with a relative tolerance
sigma_max * max(m, n) * ulp_scale so the smallest singular value doubles as
a degeneracy margin.

Multipliers y = (kappa, lambda, mu) solve the stationarity system
A^T y = -grad f in the least-squares sense; the left null space of A spans
the solution family. Sign convention: minimize f, g <= 0, mu >= 0,
grad f + kappa^T grad F + lambda^T grad h + mu^T grad g = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constraints import (ActiveSet, ConstraintSystem, InfeasiblePointError,
                          active_set, active_sets, as_flat_state, point_block,
                          row_labels)
from .netmodel import CostTerms
from .powerflow import _jacobian, pf_jacobian, state_index

DEFAULT_RANK_ULP_SCALE = 2.0 ** -52
DEFAULT_STAT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Separable quadratic cost f(x) = sum_i (c2_i x_i^2 / 2 + c1_i x_i)."""

    c2: np.ndarray
    c1: np.ndarray

    def __post_init__(self) -> None:
        if self.c2.shape != self.c1.shape:
            raise ValueError("c2 and c1 must have equal length")
        self.c2.setflags(write=False)
        self.c1.setflags(write=False)

    @classmethod
    def from_terms(cls, terms: CostTerms, n_bus: int) -> "CostSpec":
        n = 4 * n_bus
        c2 = np.zeros(n)
        c1 = np.zeros(n)
        for var, bus, coef in terms.quadratic:
            c2[state_index(var, bus, n_bus)] += coef
        for var, bus, coef in terms.linear:
            c1[state_index(var, bus, n_bus)] += coef
        return cls(c2=c2, c1=c1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.c2 * x + self.c1

    def scaled(self, factor: float) -> "CostSpec":
        return CostSpec(c2=factor * self.c2, c1=factor * self.c1)


def _rank_from_svals(svals: np.ndarray, shape: tuple[int, int],
                     ulp_scale: float) -> tuple[int, float, float]:
    """Rank, sigma_min and tolerance sigma_max * max(m, n) * ulp_scale from
    the descending singular values of an m x n matrix (0, inf, 0 if empty)."""
    if svals.size == 0:
        return 0, np.inf, 0.0
    tol = float(svals[0] * max(shape) * ulp_scale) if svals[0] > 0 else 0.0
    return int((svals > tol).sum()), float(svals[-1]), tol


def numerical_rank(matrix: np.ndarray, *, ulp_scale: float = DEFAULT_RANK_ULP_SCALE):
    """Singular-value rank with relative tolerance.

    Returns (rank, sigma_min, tol, singular_values); sigma_min is the
    smallest singular value of the matrix, not of the retained block.
    """
    svals = np.linalg.svd(matrix, compute_uv=False)
    return (*_rank_from_svals(svals, matrix.shape, ulp_scale), svals)


def active_stacks(cs: ConstraintSystem, flats: np.ndarray, mask: np.ndarray,
                  flow=None):
    """Active stacks of a block of points that share one free mask, grouped
    by face (see ``evaluate_points`` for ``flats`` and ``flow``).

    Returns (acts, groups): ``acts[i]`` is point i's ActiveSet or unraised
    InfeasiblePointError; each group is (points, act, stacks, labels) for
    the feasible points on one face, ``stacks`` holding their k x m x n
    stacks over the free columns. Rows are ordered flow equalities (2N),
    operational equalities (I), active inequalities (|J|); the flow rows
    of all feasible points come from one batched Jacobian.
    """
    acts = active_sets(cs, flats, flow)
    faces: dict[tuple[int, ...], list[int]] = {}
    for i, act in enumerate(acts):
        if isinstance(act, ActiveSet):
            faces.setdefault(act.indices, []).append(i)
    # the feasible points face by face, so each face's rows are a slice; a
    # block already in that order (one point always is) is not copied
    order = np.array([i for points in faces.values() for i in points],
                     dtype=int)
    in_order = np.array_equal(order, np.arange(len(flats)))

    def pick(arr):
        return arr if in_order else arr[order]

    ordered = pick(flats)
    # compress keeps every row block, and so each stack, C-contiguous: the
    # BLAS calls on a stack then round as on a freshly assembled matrix
    jac = None
    if flow is not None and order.size:
        jac = _jacobian(pick(flow[0]), pick(flow[1]),
                        ordered).compress(mask, axis=-1)
    h_rows = [h.gradient(ordered).compress(mask, axis=-1) for h in cs.h_ops]
    groups = []
    start = 0
    for face, points in faces.items():
        at = slice(start, start + len(points))
        start = at.stop
        rows = [] if jac is None else [jac[at]]
        rows += [grad[at, None] for grad in h_rows]
        rows += [cs.g_ops[j].gradient(ordered[at]).compress(mask, axis=-1)
                 [:, None] for j in face]
        if rows:
            stacks = np.concatenate(rows, axis=1)
        else:
            stacks = np.zeros((len(points), 0, int(mask.sum())))
        groups.append((np.array(points), acts[points[0]], stacks,
                       tuple(row_labels(cs, face))))
    return acts, groups


def active_stack(cs: ConstraintSystem, x):
    """Stacked active gradients over free columns plus row bookkeeping at
    one point: (A, labels, active, flat, mask); the one-trial call of
    ``active_stacks``."""
    flats, mask, flow = point_block(cs, x)
    (act,), groups = active_stacks(cs, flats, mask, flow)
    if isinstance(act, InfeasiblePointError):
        raise act
    ((_, _, stacks, labels),) = groups
    return stacks[0], list(labels), act, flats[0], mask


def _coo(matrix: np.ndarray) -> dict:
    """Nonzero entries of a matrix as row-major COO triplets; a reader
    rebuilds it with ``a = np.zeros(shape); a[rows, cols] = values``.
    Exact zeros of either sign are left out."""
    rows, cols = np.nonzero(matrix)
    return {"shape": list(matrix.shape), "rows": rows.tolist(),
            "cols": cols.tolist(), "values": matrix[rows, cols].tolist()}


@dataclass(frozen=True, eq=False)
class CQReport:
    """LICQ verdict at one feasible point.

    ``sigma_min`` of the active Jacobian is the degeneracy margin: it is
    zero (below ``rank_tol``) exactly when the qualification fails.
    ``kkt`` is the multiplier set when the check was given a cost; it is
    not part of ``to_dict``.
    """

    active_jacobian: np.ndarray
    row_labels: tuple[str, ...]
    m: int
    n_free: int
    numerical_rank: int
    sigma_min: float
    rank_tol: float
    licq_holds: bool
    face: tuple[int, ...]
    kkt: MultiplierSet | None = None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n_free": self.n_free,
            "numerical_rank": self.numerical_rank,
            "sigma_min": self.sigma_min,
            "rank_tol": self.rank_tol,
            "licq_holds": self.licq_holds,
            "face": list(self.face),
            "row_labels": list(self.row_labels),
            "active_jacobian": _coo(self.active_jacobian),
        }


def licq_checks(cs: ConstraintSystem, flats: np.ndarray, mask: np.ndarray,
                flow=None, cost: CostSpec | None = None, *,
                stat_tol: float = DEFAULT_STAT_TOL,
                rank_ulp_scale: float = DEFAULT_RANK_ULP_SCALE) -> list:
    """``licq_check`` at each point of a block (see ``active_stacks``):
    its CQReport, or an unraised InfeasiblePointError at an infeasible
    point. Each face group is factored by one batched SVD."""
    reports, groups = active_stacks(cs, flats, mask, flow)
    for points, act, stacks, labels in groups:
        _, m, n = stacks.shape
        if cost is None:
            svals = np.linalg.svd(stacks, compute_uv=False)
        else:
            u_mats, svals, vts = np.linalg.svd(stacks, full_matrices=m > n)
        for k, i in enumerate(points):
            rank, smin, tol = _rank_from_svals(svals[k], (m, n),
                                               rank_ulp_scale)
            kkt = None
            if cost is not None:
                kkt = _multiplier_set(
                    cs, act, stacks[k], cost.gradient(flats[i])[mask],
                    u_mats[k], svals[k], vts[k], rank, stat_tol)
            reports[i] = CQReport(
                active_jacobian=stacks[k], row_labels=labels, m=m, n_free=n,
                numerical_rank=rank, sigma_min=smin, rank_tol=tol,
                licq_holds=rank == m, face=act.indices, kkt=kkt)
    return reports


def licq_check(cs: ConstraintSystem, x, cost: CostSpec | None = None, *,
               stat_tol: float = DEFAULT_STAT_TOL,
               rank_ulp_scale: float = DEFAULT_RANK_ULP_SCALE) -> CQReport:
    """Rank test of the full active stack [grad F; grad h; grad g_J].

    This is the feasibility test of check, sweep and probe: an infeasible
    point raises InfeasiblePointError. The qualification holds iff the
    stack has full row rank over the free state entries. Without a cost
    only the singular values are computed. With one, a single SVD with
    vectors gives the rank and the multiplier set (``CQReport.kkt``, see
    ``kkt_solve``); U is full only when m > n, where the left null space
    reaches past the thin columns. The one-trial call of ``licq_checks``.
    """
    (report,) = licq_checks(cs, *point_block(cs, x), cost, stat_tol=stat_tol,
                            rank_ulp_scale=rank_ulp_scale)
    if isinstance(report, InfeasiblePointError):
        raise report
    return report


class Classification(enum.Enum):
    NONE = "NONE"
    UNIQUE = "UNIQUE"
    RAY = "RAY"
    FAMILY = "FAMILY"


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Solution set of the stationarity system at one feasible point.

    ``particular`` stacks (kappa, lambda, mu) for the active rows; for a
    one-dimensional family it is the vertex of the sign-feasible ray or
    segment and ``ray_direction``/``zeta_interval`` describe the family as
    particular + zeta * direction with zeta in the interval. Inactive
    inequalities carry no entry: complementary slackness is structural.
    """

    classification: Classification
    particular: np.ndarray
    kappa: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    active_indices: tuple[int, ...]
    nullspace_basis: np.ndarray
    stationarity_residual: float
    ray_direction: np.ndarray | None = None
    zeta_interval: tuple[float, float] | None = None
    family_dim: int = 0
    mu_sign_feasible: bool | None = None

    def to_dict(self) -> dict:
        def end(value: float):
            # infinite interval ends as strings; bare Infinity is not JSON
            if np.isposinf(value):
                return "inf"
            if np.isneginf(value):
                return "-inf"
            return float(value)

        return {
            "classification": self.classification.value,
            "family_dim": self.family_dim,
            "particular": self.particular.tolist(),
            "kappa": self.kappa.tolist(),
            "lambda": self.lam.tolist(),
            "mu": self.mu.tolist(),
            "active_indices": list(self.active_indices),
            "stationarity_residual": self.stationarity_residual,
            "ray_direction": None if self.ray_direction is None
            else self.ray_direction.tolist(),
            "zeta_interval": None if self.zeta_interval is None
            else [end(self.zeta_interval[0]), end(self.zeta_interval[1])],
            "nullspace_basis": self.nullspace_basis.tolist(),
            "mu_sign_feasible": self.mu_sign_feasible,
        }


def _mu_interval(y: np.ndarray, w: np.ndarray, first_mu: int):
    """Feasible zeta range keeping every mu component (rows first_mu on)
    of y + zeta*w >= 0."""
    lo, hi = -np.inf, np.inf
    feasible = True
    for i in range(first_mu, len(y)):
        wi, yi = w[i], y[i]
        if abs(wi) <= 1e-12:
            if yi < -1e-12:
                feasible = False
            continue
        bound = -yi / wi
        if wi > 0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if lo > hi:
        feasible = False
    return lo, hi, feasible


def kkt_solve(cs: ConstraintSystem, x, cost: CostSpec, *,
              stat_tol: float = DEFAULT_STAT_TOL,
              rank_ulp_scale: float = DEFAULT_RANK_ULP_SCALE) -> MultiplierSet:
    """Solve and classify the stationarity system at a feasible point: the
    multiplier set of ``licq_check`` with this cost."""
    return licq_check(cs, x, cost, stat_tol=stat_tol,
                      rank_ulp_scale=rank_ulp_scale).kkt


def _multiplier_set(cs: ConstraintSystem, act: ActiveSet, stack: np.ndarray,
                    grad_f: np.ndarray, u_mat: np.ndarray, svals: np.ndarray,
                    vt: np.ndarray, rank: int, stat_tol: float) -> MultiplierSet:
    """Solution set of stack^T y = -grad_f from the SVD of the stack.

    The SVD gives the least-squares particular solution and the left null
    space. Classification: NONE when the residual exceeds
    stat_tol * max(1, |grad_f|), relative to the cost's scale (the cost
    gradient leaves the row space); UNIQUE for an empty null space; RAY
    for a one-dimensional family, reported as vertex + zeta * direction
    with the exact sign-feasible zeta interval; FAMILY(dim) for
    higher-dimensional null spaces, whose sign feasibility is reported
    unresolved.
    """
    n2 = 2 * cs.net.n_bus if cs.has_flow else 0
    n_h = len(cs.h_ops)
    # Minimum-norm solution of stack^T y = -grad_f.
    coeffs = vt[:rank] @ (-grad_f) / svals[:rank]
    y_min = u_mat[:, :rank] @ coeffs
    resid = float(np.linalg.norm(stack.T @ y_min + grad_f))
    basis = u_mat[:, rank:]
    nullity = stack.shape[0] - rank

    def package(y, classification, **extra):
        return MultiplierSet(
            classification=classification, particular=y, kappa=y[:n2],
            lam=y[n2:n2 + n_h], mu=y[n2 + n_h:], active_indices=act.indices,
            nullspace_basis=basis, stationarity_residual=resid, **extra)

    if resid > stat_tol * max(1.0, float(np.linalg.norm(grad_f))):
        return package(y_min, Classification.NONE, family_dim=nullity)
    if nullity == 0:
        sign_ok = bool((y_min[n2 + n_h:] >= -1e-12).all())
        return package(y_min, Classification.UNIQUE, mu_sign_feasible=sign_ok)
    if nullity == 1:
        w = basis[:, 0]
        lo, hi, feasible = _mu_interval(y_min, w, n2 + n_h)
        if not feasible:
            return package(y_min, Classification.RAY, ray_direction=w,
                           family_dim=1, mu_sign_feasible=False)
        if np.isfinite(lo):
            vertex, direction, interval = y_min + lo * w, w, (0.0, hi - lo)
        elif np.isfinite(hi):
            vertex, direction, interval = y_min + hi * w, -w, (0.0, np.inf)
        else:
            vertex, direction, interval = y_min, w, (-np.inf, np.inf)
        return package(vertex, Classification.RAY, ray_direction=direction,
                       zeta_interval=interval, family_dim=1,
                       mu_sign_feasible=True)
    return package(y_min, Classification.FAMILY, family_dim=nullity)


def kkt_residual(cs: ConstraintSystem, x, cost: CostSpec,
                 multipliers: np.ndarray) -> float:
    """Independent stationarity check: || grad f + A^T y ||_2.

    Rebuilds the active gradient rows directly and accumulates the
    weighted sum without any factorization, so it verifies kkt_solve
    output through a separate code path.
    """
    flat, mask = as_flat_state(cs, x)
    act = active_set(cs, x)
    y = np.asarray(multipliers, dtype=float)
    n_rows = len(row_labels(cs, act.indices))
    if y.size != n_rows:
        raise ValueError(
            f"multiplier vector has {y.size} entries, active stack has "
            f"{n_rows} rows")
    total = cost.gradient(flat)[mask].astype(float)
    pos = 0
    if cs.has_flow:
        jac = pf_jacobian(cs.net, cs.Y, x)[:, mask]
        for row in jac:
            total += y[pos] * row
            pos += 1
    for h in cs.h_ops:
        total += y[pos] * h.gradient(flat)[mask]
        pos += 1
    for j in act.indices:
        total += y[pos] * cs.g_ops[j].gradient(flat)[mask]
        pos += 1
    return float(np.linalg.norm(total))

"""LICQ rank testing and KKT multiplier computation and classification.

The active constraint Jacobian A stacks the flow rows, the operational
equality rows and the active inequality rows, restricted to the free state
entries. Rank is determined from singular values with a relative tolerance
sigma_max * max(m, n) * ulp_scale so the smallest singular value doubles as
a degeneracy margin.

Multipliers y = (kappa, lambda, mu) solve the stationarity system
A^T y = -grad f in the least-squares sense; the left null space of A spans
the solution family. Sign convention: minimize f, g <= 0, mu >= 0,
grad f + kappa^T grad F + lambda^T grad h + mu^T grad g = 0.

Both are decided on the reduced matrix R, not on A. A flow row whose
generation entry is free (a pivot row) has dF/d(p_gen, q_gen) = I over the
free generation columns. With the pivot rows [I, X] and the other rows
[O_g, O_z] (generation columns first, then the rest z), one column and one
row elimination turn A into diag(I_p, R) with R = O_z - O_g X, so
rank(A) = p + rank(R): LICQ asks whether the operational rows meet the
flow manifold transversally. Where R has no rows nothing is factored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constraints import (ActiveSet, ConstraintSystem, InfeasiblePointError,
                          active_set, active_sets, as_flat_state, point_block,
                          row_labels)
from .netmodel import CostTerms
from .powerflow import flow_rows, pf_jacobian, state_index

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


def face_stacks(cs: ConstraintSystem, flats: np.ndarray, mask: np.ndarray,
                jac: np.ndarray | None, face) -> np.ndarray:
    """Stacks of k points over the free columns, k x m x n, with the rows
    of the g indices in ``face`` active: the compressed flow rows ``jac``
    (k x 2N x n, None without flow equations), then every h gradient, then
    the face's g gradients; ``jac`` itself, not a copy, when the face adds
    no operational row."""
    ops = (*cs.h_ops, *(cs.g_ops[j] for j in face))
    if not ops and jac is not None:
        return jac
    rows = [] if jac is None else [jac]
    rows += [op.gradient(flats).compress(mask, axis=-1)[:, None]
             for op in ops]
    if not rows:
        return np.zeros((len(flats), 0, int(mask.sum())))
    return np.concatenate(rows, axis=1)


def active_stacks(cs: ConstraintSystem, flats: np.ndarray, mask: np.ndarray,
                  flow=None):
    """Active stacks of a block of points that share one free mask, grouped
    by face (see ``evaluate_points`` for ``flats`` and ``flow``).

    Returns (acts, groups): ``acts[i]`` is point i's ActiveSet or unraised
    InfeasiblePointError; each group is (points, act, stacks, labels) for
    the feasible points on one face, ``stacks`` holding their
    ``face_stacks``; the flow rows of all feasible points come from one
    batched Jacobian.
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
    # flow_rows returns every row block, and so each stack, C-contiguous:
    # the BLAS calls on a stack then round as on a freshly assembled matrix
    jac = None
    if flow is not None and order.size:
        jac = flow_rows(cs.net, None, mask)(pick(flow[0]), pick(flow[1]),
                                            ordered)
    groups = []
    start = 0
    for face, points in faces.items():
        at = slice(start, start + len(points))
        start = at.stop
        stacks = face_stacks(cs, ordered[at], mask,
                             None if jac is None else jac[at], face)
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

    ``sigma_min`` is the degeneracy margin, the smallest singular value of
    diag(I_p, R) (see the module docstring): min(1, sigma_min(R)), exactly
    1.0 when R has no rows, and sigma_min(A) without flow rows. It is zero
    (below ``rank_tol``) exactly when the qualification fails. ``rank_tol``
    is that matrix's sigma_max * max(m, n) * ulp_scale, with A's shape.
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
    point. Each face group forms its reduced matrices R (module docstring)
    with one batched matmul and factors them with one batched SVD, values
    only without a cost, thin with one; a group whose R has no rows
    factors nothing."""
    reports, groups = active_stacks(cs, flats, mask, flow)
    # pivot row j owns free column j; R takes the flow rows whose
    # generation entry is fixed and every operational row
    n_flow = 2 * cs.net.n_bus if cs.has_flow else 0
    pivots = np.flatnonzero(mask[:n_flow])
    p = pivots.size
    for points, act, stacks, labels in groups:
        k, m, n = stacks.shape
        others = np.concatenate((np.flatnonzero(~mask[:n_flow]),
                                 np.arange(n_flow, m)))
        x_mats = stacks[:, pivots, p:]
        o_rows = stacks[:, others]
        r_mats = o_rows[:, :, p:] - o_rows[:, :, :p] @ x_mats
        r, n_z = r_mats.shape[1:]
        if cost is not None:
            grads = cost.gradient(flats[points])[:, mask]
        if r == 0:
            u_mats, svals, vts = (np.zeros((k, 0, 0)), np.zeros((k, 0)),
                                  np.zeros((k, 0, n_z)))
        elif cost is None:
            svals = np.linalg.svd(r_mats, compute_uv=False)
        else:
            u_mats, svals, vts = np.linalg.svd(r_mats, full_matrices=r > n_z)
        # singular values of diag(I_p, R), descending
        merged = np.sort(np.concatenate((np.ones((k, p)), svals), axis=1),
                         axis=1)[:, ::-1]
        for j, i in enumerate(points):
            rank, smin, tol = _rank_from_svals(merged[j], (m, n),
                                               rank_ulp_scale)
            kkt = None
            if cost is not None:
                y, basis = _reduced_solution(
                    stacks[j], grads[j], pivots, others, x_mats[j],
                    u_mats[j], svals[j], vts[j], int((svals[j] > tol).sum()))
                kkt = _multiplier_set(cs, act, stacks[j], grads[j], y, basis,
                                      stat_tol)
            reports[i] = CQReport(
                active_jacobian=stacks[j], row_labels=labels, m=m, n_free=n,
                numerical_rank=rank, sigma_min=smin, rank_tol=tol,
                licq_holds=rank == m, face=act.indices, kkt=kkt)
    return reports


def licq_check(cs: ConstraintSystem, x, cost: CostSpec | None = None, *,
               stat_tol: float = DEFAULT_STAT_TOL,
               rank_ulp_scale: float = DEFAULT_RANK_ULP_SCALE) -> CQReport:
    """Rank test of the full active stack [grad F; grad h; grad g_J].

    This is the feasibility test of check, sweep and probe: an infeasible
    point raises InfeasiblePointError. The qualification holds iff the
    stack has full row rank over the free state entries, decided as
    p + rank(R) (module docstring). Without a cost only R's singular values
    are computed. With one, R's thin SVD also gives the multiplier set
    (``CQReport.kkt``, see ``kkt_solve``); its U is full only when R has
    more rows than columns, where the left null space reaches past its
    thin columns. See ``CQReport`` for ``sigma_min`` and ``rank_tol``. The
    one-trial call of ``licq_checks``.
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

    ``particular`` stacks (kappa, lambda, mu) for the active rows; at NONE
    it is the reduced least-squares solution (see ``_reduced_solution``),
    otherwise the minimum-norm one; for a one-dimensional family it is the vertex of the sign-feasible ray or
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


def _mu_interval(y: np.ndarray, w: np.ndarray, first_mu: int,
                 sign_tol: float):
    """Feasible zeta range keeping every mu component (rows first_mu on)
    of y + zeta*w >= 0; a mu that w leaves fixed may sit sign_tol below
    zero."""
    lo, hi = -np.inf, np.inf
    feasible = True
    for i in range(first_mu, len(y)):
        wi, yi = w[i], y[i]
        if abs(wi) <= 1e-12:
            if yi < -sign_tol:
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


def _reduced_solution(stack: np.ndarray, grad_f: np.ndarray,
                      pivots: np.ndarray, others: np.ndarray,
                      x_mat: np.ndarray, u_mat: np.ndarray, svals: np.ndarray,
                      vt: np.ndarray, rank: int):
    """Least-squares multipliers y of stack^T y = -grad_f and an orthonormal
    basis of the left null space of the stack, from the thin SVD
    u_mat, svals, vt of R and its numerical rank.

    nu, on the other rows, is the minimum-norm least-squares solution of
    R^T nu = -(grad_z f - X^T grad_g f), and kappa = -grad_g f - O_g^T nu
    on the pivot rows, which leaves no residual in the generation columns.
    The null space is {(-O_g^T w, w) : R^T w = 0}; its lifted basis has a
    Gram matrix I + (O_g^T W)^T (O_g^T W), which is well conditioned, so a
    Cholesky factor orthonormalizes it.
    """
    p = pivots.size
    o_g = stack[others, :p]
    grad_g = grad_f[:p]
    nu = u_mat[:, :rank] @ (vt[:rank] @ (x_mat.T @ grad_g - grad_f[p:])
                            / svals[:rank])
    w = u_mat[:, rank:]
    y = np.empty(stack.shape[0])
    y[pivots], y[others] = -grad_g - o_g.T @ nu, nu
    lifted = np.empty((stack.shape[0], w.shape[1]))
    lifted[pivots], lifted[others] = -o_g.T @ w, w
    chol = np.linalg.cholesky(lifted.T @ lifted)
    return y, np.linalg.solve(chol, lifted.T).T


def _multiplier_set(cs: ConstraintSystem, act: ActiveSet, stack: np.ndarray,
                    grad_f: np.ndarray, y: np.ndarray, basis: np.ndarray,
                    stat_tol: float) -> MultiplierSet:
    """Solution set of stack^T y = -grad_f from a least-squares solution y
    and an orthonormal basis of the stack's left null space.

    The residual |stack^T y + grad_f| is taken from the stack. Outside NONE
    the particular solution is the minimum-norm one, y - B B^T y. Both
    tolerances are relative to the cost's scale s = max(1, |grad_f|), as
    the multipliers scale with the cost. Classification: NONE when the
    residual exceeds stat_tol * s (the cost gradient leaves the row space),
    reported with y itself; UNIQUE for an empty null space, sign feasible
    when every mu is at least -1e-12 * s; RAY for a one-dimensional family,
    reported as vertex + zeta * direction with the exact sign-feasible zeta
    interval (same sign tolerance); FAMILY(dim) for higher-dimensional null
    spaces, whose sign feasibility is reported unresolved.
    """
    n2 = 2 * cs.net.n_bus if cs.has_flow else 0
    n_h = len(cs.h_ops)
    resid = float(np.linalg.norm(stack.T @ y + grad_f))
    nullity = basis.shape[1]

    def package(y, classification, **extra):
        return MultiplierSet(
            classification=classification, particular=y, kappa=y[:n2],
            lam=y[n2:n2 + n_h], mu=y[n2 + n_h:], active_indices=act.indices,
            nullspace_basis=basis, stationarity_residual=resid, **extra)

    scale = max(1.0, float(np.linalg.norm(grad_f)))
    sign_tol = 1e-12 * scale
    if resid > stat_tol * scale:
        return package(y, Classification.NONE, family_dim=nullity)
    y_min = y - basis @ (basis.T @ y)
    if nullity == 0:
        sign_ok = bool((y_min[n2 + n_h:] >= -sign_tol).all())
        return package(y_min, Classification.UNIQUE, mu_sign_feasible=sign_ok)
    if nullity == 1:
        w = basis[:, 0]
        lo, hi, feasible = _mu_interval(y_min, w, n2 + n_h, sign_tol)
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
